//! Experiment drivers over the hypervisor.

use crate::catalog::{self, Spec};
use crate::scale;
use optimus::hypervisor::{HvStats, Optimus, OptimusConfig, TrapCost};
use optimus::scheduler::SchedPolicy;
use optimus_accel::btc::BtcKernel;
use optimus_accel::hash::Md5Kernel;
use optimus_accel::registry::AccelKind;
use optimus_cci::channel::SelectorPolicy;
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::accel_reg::{self, APP_BASE};
use optimus_sim::rng::derive_seed;
use optimus_sim::time::{gbps, Cycle};

/// Result for one accelerator slot in a spatial experiment.
#[derive(Debug, Clone)]
pub struct SlotResult {
    /// Accelerator kind on this slot.
    pub kind: AccelKind,
    /// Application progress over the window (bytes, or hashes for BTC).
    pub progress: u64,
    /// Mean DMA latency over the window, nanoseconds.
    pub mean_latency_ns: f64,
    /// Window bandwidth in GB/s (DMA bytes only).
    pub gbps: f64,
}

/// Spatial experiment configuration.
pub struct SpatialExp {
    /// Accelerator placed at each physical slot.
    pub slots: Vec<AccelKind>,
    /// How many of the slots actually run a job (leading slots).
    pub active_jobs: usize,
    /// Channel selection policy.
    pub policy: SelectorPolicy,
    /// Per-job parameters.
    pub params: Spec,
    /// Measurement window (warm-up uses `scale::warmup_cycles`).
    pub window: Cycle,
}

impl SpatialExp {
    /// Eight homogeneous accelerators, `jobs` of them active.
    pub fn homogeneous(kind: AccelKind, jobs: usize) -> Self {
        Self {
            slots: vec![kind; 8],
            active_jobs: jobs,
            policy: SelectorPolicy::Auto,
            params: Spec::default(),
            window: scale::window_cycles(),
        }
    }
}

/// Runs a spatial-multiplexing experiment on the OPTIMUS device and
/// returns per-slot results for the active jobs.
pub fn run_spatial(exp: &SpatialExp) -> Vec<SlotResult> {
    run_spatial_with_stats(exp).0
}

/// [`run_spatial`] plus the hypervisor's final statistics (including the
/// device's isolation counters), for reports that surface them.
pub fn run_spatial_with_stats(exp: &SpatialExp) -> (Vec<SlotResult>, HvStats) {
    let mut cfg = OptimusConfig::new(exp.slots.clone());
    cfg.channel_policy = exp.policy;
    let hv = Optimus::new(cfg);
    let (results, hv) = launch_and_measure(hv, exp);
    (results, hv.stats())
}

/// Runs the same experiment on the pass-through baseline (one slot only).
pub fn run_passthrough(kind: AccelKind, policy: SelectorPolicy, params: Spec, window: Cycle) -> SlotResult {
    let hv = Optimus::new_passthrough(kind, policy, TrapCost::Virtualized);
    let exp = SpatialExp {
        slots: vec![kind],
        active_jobs: 1,
        policy,
        params,
        window,
    };
    launch_and_measure(hv, &exp).0.remove(0)
}

fn launch_and_measure(mut hv: Optimus, exp: &SpatialExp) -> (Vec<SlotResult>, Optimus) {
    let n = exp.active_jobs.min(exp.slots.len());
    for slot in 0..n {
        let vm = hv.create_vm(&format!("vm{slot}"));
        let va = hv.create_vaccel(vm, slot);
        let mut params = exp.params;
        params.seed = derive_seed(exp.params.seed, slot as u64);
        catalog::apply(&catalog::program(exp.slots[slot], &params), &mut hv.guest(va));
    }
    // Warm up, then measure.
    hv.run(scale::warmup_cycles());
    if scale::live_update() {
        // Replace the hypervisor mid-run (snapshot → wire bytes → fresh
        // instance over the same device). Every measured figure below
        // must come out identical to an uninterrupted run.
        hv = hv.live_update();
    }
    let progress_at_open: Vec<u64> = (0..n)
        .map(|s| progress(hv.device_mut(), exp.slots[s], s))
        .collect();
    // Warm-up latencies leave with the taken accumulators.
    for s in 0..n {
        std::mem::take(hv.device_mut().port_mut(s).latency_stats());
    }
    hv.device_mut().open_windows();
    hv.run(exp.window);
    hv.device_mut().close_windows();
    let results = (0..n)
        .map(|s| {
            let progress =
                progress(hv.device_mut(), exp.slots[s], s) - progress_at_open[s];
            let mean_latency_ns = hv.device_mut().port_mut(s).latency_stats().mean_ns();
            SlotResult {
                kind: exp.slots[s],
                progress,
                mean_latency_ns,
                gbps: gbps(hv.device().port(s).window_bytes(), exp.window),
            }
        })
        .collect();
    (results, hv)
}

/// Temporal-multiplexing experiment: `jobs` virtual accelerators of `kind`
/// oversubscribing a single physical accelerator. Returns aggregate
/// progress-per-cycle over the measured span.
pub struct TemporalResult {
    /// Aggregate application progress.
    pub progress: u64,
    /// Cycles spanned.
    pub cycles: Cycle,
    /// Context switches performed.
    pub switches: u64,
}

/// Runs a temporal-multiplexing experiment.
pub fn run_temporal(
    kind: AccelKind,
    jobs_count: usize,
    slice: Cycle,
    slices_per_job: u64,
    state_pad: u64,
) -> TemporalResult {
    let mut cfg = OptimusConfig::new(vec![kind]);
    cfg.time_slice = slice;
    cfg.sched_policy = SchedPolicy::RoundRobin;
    let mut hv = Optimus::new(cfg);
    let params = Spec::default();
    for j in 0..jobs_count {
        let vm = hv.create_vm(&format!("vm{j}"));
        let va = hv.create_vaccel(vm, 0);
        let mut p = params;
        p.seed = derive_seed(params.seed, j as u64);
        let mut g = hv.guest(va);
        let state = g.alloc_dma((state_pad + 1_048_576).max(1 << 21));
        g.set_state_buffer(state);
        catalog::apply(&catalog::program(kind, &p), &mut g);
        if state_pad > 0 {
            // Worst-case state-size study (Fig. 8c): pad the saved state.
            g.mmio_write(APP_BASE + Md5Kernel::REG_STATE_PAD, state_pad);
        }
    }
    let total = slice * slices_per_job * jobs_count as u64 + slice;
    hv.run(scale::warmup_cycles());
    let open = progress(hv.device_mut(), kind, 0);
    let switches_at_open = hv.stats().context_switches;
    let preemptions_at_open = hv.stats().preemptions;
    hv.run(total);
    let raw = progress(hv.device_mut(), kind, 0) - open;
    let switches = hv.stats().context_switches - switches_at_open;
    let preemptions = hv.stats().preemptions - preemptions_at_open;
    // Port byte counters include the preemption save/restore DMA traffic;
    // subtract it so `progress` measures *application* throughput. Each
    // actual preemption moves the kind's framed state once out and once
    // back in (the resume).
    let state_size = hv.device_mut().accel_mut(0).mmio_read(accel_reg::CTRL_STATE_SIZE);
    let framed = accel_reg::framed_state_bytes(state_size).expect("state fits memory");
    let state_traffic = preemptions * 2 * framed;
    TemporalResult {
        progress: raw.saturating_sub(state_traffic.min(raw)),
        cycles: total,
        switches,
    }
}

/// An application-progress reading: DMA bytes for memory-driven kernels,
/// hash attempts for the compute-bound miner.
pub fn progress(device: &mut FpgaDevice, kind: AccelKind, slot: usize) -> u64 {
    match kind {
        AccelKind::Btc => device.accel_mut(slot).mmio_read(APP_BASE + BtcKernel::REG_ATTEMPTS),
        _ => {
            let (r, w) = device.port(slot).byte_counts();
            r + w
        }
    }
}
