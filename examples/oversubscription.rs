//! Preemptive temporal multiplexing: four virtual accelerators
//! oversubscribing ONE physical MD5 accelerator under different
//! scheduling policies, with every digest verified after the dust settles.
//!
//! ```bash
//! cargo run --release --example oversubscription
//! ```

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus::scheduler::SchedPolicy;
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Spec};
use optimus_sim::time::ms_to_cycles;

fn run_policy(policy: SchedPolicy, weights: &[(u32, u32)]) {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
    cfg.time_slice = ms_to_cycles(0.1);
    cfg.sched_policy = policy.clone();
    let mut hv = Optimus::new(cfg);
    let vm = hv.create_vm("shared");
    let mut tenants = Vec::new();
    for (j, &(w, p)) in weights.iter().enumerate() {
        let va = hv.create_vaccel_with(vm, 0, w, p);
        let mut job = catalog::program(AccelKind::Md5, &Spec::bounded(8192, j as u64 + 3));
        job.add_state(1 << 21);
        let placed = catalog::apply(&job, &mut hv.guest(va));
        tenants.push((va, job, placed));
    }
    for (va, ..) in &tenants {
        assert!(hv.run_until_done(*va, 4_000_000_000));
    }
    println!("\npolicy {policy:?}: {} context switches, {} forced resets",
        hv.stats().context_switches, hv.stats().forced_resets);
    let occupancy = hv.slot_occupancy(0);
    let total: u64 = occupancy.iter().map(|&(_, c)| c).sum();
    for (i, &(_, occ)) in occupancy.iter().enumerate() {
        let (va, job, placed) = &tenants[i];
        let oracle = catalog::oracle(job).expect("a bounded job");
        let ok = catalog::check(&oracle, placed, &mut hv.guest(*va)).is_ok();
        println!(
            "  vaccel {i} (w={}, p={}): {:5.1}% of the accelerator, digest {}",
            weights[i].0,
            weights[i].1,
            occ as f64 / total as f64 * 100.0,
            if ok { "verified ✓" } else { "WRONG ✗" }
        );
        assert!(ok);
    }
}

fn main() {
    run_policy(SchedPolicy::RoundRobin, &[(1, 0), (1, 0), (1, 0), (1, 0)]);
    run_policy(SchedPolicy::Weighted, &[(4, 0), (2, 0), (1, 0), (1, 0)]);
    run_policy(SchedPolicy::Priority, &[(1, 5), (1, 5), (1, 1), (1, 1)]);
}
