//! Stepping-mode defaults shared by every cycle kernel: the fast-forward
//! toggle and the batched-stepping burst cap.
//!
//! The module owns the `OPTIMUS_NO_FASTFWD` escape hatch: setting it to
//! anything other than `0`/empty disables event-horizon fast-forwarding and
//! forces per-cycle stepping everywhere. Fast-forward is *bit-exact* by
//! construction, so the toggle exists for differential testing and for
//! debugging the fast-forward machinery itself, not for correctness.

use crate::time::Cycle;

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
