//! Global simulated-cycle accounting and the fast-forward toggle.
//!
//! Every cycle kernel in the workspace (the fabric device, the host-centric
//! platform) reports the fabric cycles it simulates to a process-wide
//! counter. Bench reports read the counter alongside wall-clock time to
//! compute a `sim_rate` (simulated fabric cycles per wall-second), making
//! the simulator's own performance trajectory machine-readable across PRs.
//!
//! The module also owns the `OPTIMUS_NO_FASTFWD` escape hatch: setting it to
//! anything other than `0`/empty disables event-horizon fast-forwarding and
//! forces per-cycle stepping everywhere. Fast-forward is *bit-exact* by
//! construction, so the toggle exists for differential testing and for
//! debugging the fast-forward machinery itself, not for correctness.

use crate::time::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};

static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Credits `cycles` fabric cycles to the process-wide simulation counter.
///
/// Kernels call this once per `run`/`advance` batch, not per cycle, so the
/// counter costs nothing on the per-step hot path.
pub fn add_cycles(cycles: Cycle) {
    SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
}

/// Total fabric cycles simulated by this process so far.
pub fn cycles() -> Cycle {
    SIM_CYCLES.load(Ordering::Relaxed)
}

/// Whether event-horizon fast-forwarding is enabled (the default).
///
/// `OPTIMUS_NO_FASTFWD=1` (or any non-empty value other than `0`) disables
/// it. Kernels sample this at construction; tests can override per instance
/// via their `set_fast_forward` methods.
pub fn fast_forward_enabled() -> bool {
    match std::env::var("OPTIMUS_NO_FASTFWD") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => true,
    }
}

/// Burst-length cap for batched stepping (cycles executed per dispatch
/// when a machine stays busy at the horizon; see
/// `PlatformClock::advance_toward_adaptive`). Batching is bit-exact at
/// any cap; platforms start from this one and tests override it per
/// instance through their `set_batch_step` methods (1 disables batching).
pub const DEFAULT_BATCH_STEP: Cycle = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let before = cycles();
        add_cycles(123);
        add_cycles(877);
        assert!(cycles() >= before + 1000);
    }
}
