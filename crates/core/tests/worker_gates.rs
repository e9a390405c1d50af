//! Node worker threads step devices under the *dispatching* thread's plane
//! gates, whichever way those point — never under what the environment
//! says. Its own test binary with a single test: it sets the real
//! `OPTIMUS_*` variables before any worker is spawned.

use optimus::node::{NodeConfig, OptimusNode};
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_sim::{journal, metrics, spec, trace};
use std::sync::{Arc, Mutex};

/// The calling thread's four plane gates.
fn gates() -> [bool; 4] {
    [trace::enabled(), metrics::enabled(), journal::enabled(), spec::enabled()]
}

#[test]
fn workers_inherit_runtime_gate_overrides_in_both_directions() {
    // The environment says: trace and spec on, metrics and journal off …
    for (var, value) in [
        ("OPTIMUS_TRACE", "1"),
        ("OPTIMUS_SPEC", "1"),
        ("OPTIMUS_METRICS", "0"),
        ("OPTIMUS_JOURNAL", "0"),
    ] {
        std::env::set_var(var, value);
    }
    // … and the dispatching thread overrides every gate the other way.
    trace::set_enabled(false);
    spec::set_enabled(false);
    metrics::set_enabled(true);
    journal::set_enabled(true);
    let dispatcher = (std::thread::current().id(), gates());

    let mut cfg = NodeConfig::new(vec![AccelKind::Mb], 2);
    cfg.threads = Some(2);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    // MemBench reads over a lazily filled region: the filler runs on
    // whichever thread steps the device, and reports the gates it finds.
    let seen: Arc<Mutex<Vec<[bool; 4]>>> = Arc::default();
    for (i, name) in ["a", "b"].into_iter().enumerate() {
        let h = node.create_tenant(name);
        let mut g = node.guest(h);
        let seen = seen.clone();
        let region = g.alloc_dma_lazy_with(1 << 20, move |_, _| {
            Arc::new(move |_, frame| {
                if std::thread::current().id() != dispatcher.0 {
                    seen.lock().expect("probe log").push(gates());
                }
                frame.fill(0);
            })
        });
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 20);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, 400);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, i as u64 + 1);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    node.run(200_000);

    let seen = seen.lock().expect("probe log");
    assert!(!seen.is_empty(), "no lazy fill ran on a worker thread");
    for gates in seen.iter() {
        assert_eq!(*gates, dispatcher.1, "worker stepped under the environment's gates");
    }
}
