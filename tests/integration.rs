//! Workspace-spanning integration tests: guest workloads through the full
//! OPTIMUS stack (hypervisor → monitor → tree → auditors → IOMMU → DRAM),
//! verified against the job catalogue's pure-software oracles.

use optimus::hypervisor::{Optimus, OptimusConfig, TrapCost};
use optimus::scheduler::SchedPolicy;
use optimus::vaccel::VaccelId;
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Fill, Placed, Program, Spec, Value};
use optimus_cci::channel::SelectorPolicy;
use optimus_sim::time::ms_to_cycles;

/// Creates a VM with a vaccel on `slot` and applies `job` to it.
fn launch(hv: &mut Optimus, slot: usize, job: &Program) -> (VaccelId, Placed) {
    let vm = hv.create_vm(&format!("vm{}", hv.num_vaccels()));
    let va = hv.create_vaccel(vm, slot);
    (va, catalog::apply(job, &mut hv.guest(va)))
}

/// Checks a finished job against its oracle.
fn assert_oracle(hv: &mut Optimus, va: VaccelId, job: &Program, placed: &Placed) {
    let oracle = catalog::oracle(job).expect("a bounded job has an oracle");
    assert_eq!(catalog::check(&oracle, placed, &mut hv.guest(va)), Ok(()), "{:?}", job.kind);
}

/// Runs one bounded job of `kind` alone on a one-slot device and checks it.
fn run_alone(job: Program) {
    let mut hv = Optimus::new(OptimusConfig::new(vec![job.kind]));
    let (va, placed) = launch(&mut hv, 0, &job);
    assert!(hv.run_until_done(va, 2_000_000_000), "{:?} never finished", job.kind);
    assert_oracle(&mut hv, va, &job, &placed);
}

#[test]
fn aes_end_to_end_matches_software() {
    run_alone(catalog::program(AccelKind::Aes, &Spec::bounded(256, 3)));
}

#[test]
fn reed_solomon_corrects_errors_through_the_stack() {
    // Eight codewords of twelve symbol errors each: all within capacity,
    // so the oracle expects every message back and no failure.
    run_alone(catalog::program(AccelKind::Rsd, &Spec::bounded(32, 5)));
}

#[test]
fn sssp_through_the_hypervisor_matches_reference() {
    run_alone(catalog::program(AccelKind::Sssp, &Spec::bounded(2400, 17)));
}

#[test]
fn linked_list_walk_traverses_the_lazy_region() {
    let spec = Spec { working_set: 4096 * 64, ..Spec::bounded(500, 77) };
    run_alone(catalog::program(AccelKind::Ll, &spec));
}

#[test]
fn eight_spatially_multiplexed_vms_all_compute_correctly() {
    // One MD5 job per physical accelerator, all with different data;
    // every digest must come out right and no DMA may fault.
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5; 8]));
    let jobs: Vec<Program> = (0..8)
        .map(|slot| catalog::program(AccelKind::Md5, &Spec::bounded(128, slot + 100)))
        .collect();
    let launched: Vec<_> = jobs.iter().enumerate().map(|(slot, job)| launch(&mut hv, slot, job)).collect();
    for (job, (va, placed)) in jobs.iter().zip(&launched) {
        assert!(hv.run_until_done(*va, 400_000_000));
        assert_oracle(&mut hv, *va, job, placed);
    }
    assert_eq!(hv.device().host().faulted_dmas(), 0);
}

#[test]
fn temporal_multiplexing_preserves_results_across_preemptions() {
    // Four AES jobs oversubscribing one physical accelerator with short
    // slices: every ciphertext must be exact despite repeated save/restore.
    let mut cfg = OptimusConfig::new(vec![AccelKind::Aes]);
    cfg.time_slice = ms_to_cycles(0.05);
    cfg.sched_policy = SchedPolicy::RoundRobin;
    let mut hv = Optimus::new(cfg);
    let jobs: Vec<Program> = (0..4)
        .map(|j| {
            let mut job = catalog::program(AccelKind::Aes, &Spec::bounded(16384, j + 50));
            job.add_state(1 << 21);
            job
        })
        .collect();
    let launched: Vec<_> = jobs.iter().map(|job| launch(&mut hv, 0, job)).collect();
    for (va, _) in &launched {
        assert!(hv.run_until_done(*va, 2_000_000_000));
    }
    assert!(hv.stats().context_switches > 4, "jobs must actually interleave");
    assert_eq!(hv.stats().forced_resets, 0);
    for (job, (va, placed)) in jobs.iter().zip(&launched) {
        assert_oracle(&mut hv, *va, job, placed);
    }
}

#[test]
fn passthrough_and_optimus_agree_on_results() {
    let job = catalog::program(AccelKind::Md5, &Spec::bounded(64, 9));
    let run = |mut hv: Optimus| -> Vec<u8> {
        let (va, placed) = launch(&mut hv, 0, &job);
        assert!(hv.run_until_done(va, 100_000_000));
        assert_oracle(&mut hv, va, &job, &placed);
        let mut out = vec![0u8; 16];
        hv.guest(va).read_mem(placed.0[1], &mut out);
        out
    };
    let optimus = run(Optimus::new(OptimusConfig::new(vec![AccelKind::Md5])));
    let pt = run(Optimus::new_passthrough(
        AccelKind::Md5,
        SelectorPolicy::Auto,
        TrapCost::Native,
    ));
    assert_eq!(optimus, pt);
}

#[test]
fn guest_cannot_reach_another_vms_memory_through_its_slice() {
    // VM B writes a secret; VM A's accelerator reads past its registered
    // region, at the same GVAs. A's data must never contain B's secret,
    // and reads outside A's registered region must fault, not leak.
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5, AccelKind::Md5]));
    let vm_b = hv.create_vm("b");
    let va_b = hv.create_vaccel(vm_b, 1);
    let secret = vec![0x5Eu8; 4096];
    let b_src = hv.guest(va_b).alloc_dma(4096);
    hv.guest(va_b).write_mem(b_src, &secret);
    // The IOMMU must drop the DMA (no mapping in A's slice), not read B.
    let mut job = catalog::program(AccelKind::Md5, &Spec::bounded(4, 0));
    job.buffers[0].fill = Fill::Zero;
    job.set(hash_reg::SRC, Value::At(0, 4 << 20));
    let (va_a, placed) = launch(&mut hv, 0, &job);
    // Identical guest virtual addresses across the two VMs.
    assert_eq!(placed.0[0], b_src);
    hv.run(ms_to_cycles(1.0));
    assert!(
        hv.device().host().faulted_dmas() > 0,
        "out-of-region DMA must fault"
    );
    let mut buf = vec![0u8; 4096];
    hv.guest(va_a).read_mem(placed.0[0], &mut buf);
    assert!(buf.iter().all(|&b| b == 0), "A's region must hold only zeros");
    // B's secret is still intact and private.
    hv.guest(va_b).read_mem(b_src, &mut buf);
    assert_eq!(buf, secret);
}

#[test]
fn weighted_scheduling_biases_throughput() {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Mb]);
    cfg.time_slice = ms_to_cycles(0.2);
    cfg.sched_policy = SchedPolicy::Weighted;
    let mut hv = Optimus::new(cfg);
    let vm = hv.create_vm("w");
    let heavy = hv.create_vaccel_with(vm, 0, 3, 0);
    let light = hv.create_vaccel_with(vm, 0, 1, 0);
    for (va, seed) in [(heavy, 1u64), (light, 2)] {
        let mut job = catalog::program(AccelKind::Mb, &Spec { working_set: 1 << 21, seed, ..Spec::default() });
        job.add_state(1 << 21);
        catalog::apply(&job, &mut hv.guest(va));
    }
    hv.run(ms_to_cycles(8.0));
    let occ = hv.slot_occupancy(0);
    let heavy_occ = occ.iter().find(|&&(k, _)| k == heavy.0 as u64).unwrap().1;
    let light_occ = occ.iter().find(|&&(k, _)| k == light.0 as u64).unwrap().1;
    let ratio = heavy_occ as f64 / light_occ as f64;
    assert!((ratio - 3.0).abs() < 0.5, "weighted ratio {ratio}");
}
