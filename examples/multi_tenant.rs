//! Multi-tenant spatial multiplexing: eight VMs, eight different
//! accelerators on one FPGA, all running concurrently with isolated
//! address spaces.
//!
//! ```bash
//! cargo run --release --example multi_tenant
//! ```

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Spec, Work};
use optimus_sim::time::gbps;

fn main() {
    let kinds = [
        AccelKind::Aes,
        AccelKind::Md5,
        AccelKind::Sha,
        AccelKind::Fir,
        AccelKind::Grn,
        AccelKind::Gau,
        AccelKind::Sbl,
        AccelKind::Mb,
    ];
    let mut hv = Optimus::new(OptimusConfig::new(kinds.to_vec()));
    println!("FPGA configured with 8 accelerators behind a 3-level binary tree");
    for (slot, kind) in kinds.iter().enumerate() {
        let vm = hv.create_vm(&format!("tenant-{slot}"));
        let va = hv.create_vaccel(vm, slot);
        let params = Spec {
            seed: slot as u64 + 1,
            work: Work::Window(400_000),
            ..Spec::default()
        };
        let mut g = hv.guest(va);
        catalog::apply(&catalog::program(*kind, &params), &mut g);
        println!("  tenant-{slot}: {} started", kind.meta().name);
    }

    // Warm up, then measure one window.
    hv.run(100_000);
    hv.device_mut().open_windows();
    hv.run(400_000);
    hv.device_mut().close_windows();

    println!("\nper-tenant DMA bandwidth over a 1 ms window:");
    let mut total = 0.0;
    for (slot, kind) in kinds.iter().enumerate() {
        let bw = gbps(hv.device().port(slot).window_bytes(), 400_000);
        total += bw;
        println!("  {:>4}: {:6.2} GB/s", kind.meta().name, bw);
    }
    println!("  ----  aggregate {total:.2} GB/s (monitor ceiling 12.8 GB/s)");
    println!("\nisolation: {} faulted DMAs, {} misrouted packets",
        hv.device().host().faulted_dmas(), hv.device().dropped_packets());
}
