//! Deterministic simulation kernel for the OPTIMUS reproduction.
//!
//! This crate provides the infrastructure shared by every simulated hardware
//! component in the workspace:
//!
//! * [`rng`] — deterministic, seedable pseudo-random number generators
//!   (SplitMix64 and xoshiro256\*\*). Experiments must be reproducible, so the
//!   simulator never uses ambient OS entropy.
//! * [`perm`] — O(1) pseudo-random permutations built from a Feistel network,
//!   used to lay out multi-gigabyte linked lists lazily without materializing
//!   them.
//! * [`time`] — the fabric clock domain (400 MHz), nanosecond/cycle
//!   conversions, and clock dividers for slower accelerator clocks.
//! * [`queue`] — latency-carrying FIFOs used to model pipelined links.
//! * [`stats`] — throughput and latency accounting used by the benchmark
//!   harness.
//! * [`clock`] — the [`clock::PlatformClock`] protocol every steppable
//!   platform implements (`now`/`next_event`/`step_cycle`/`skip_to`),
//!   with the event-horizon fast-forward kernel as a provided method.
//! * [`simrate`] — process-wide simulated-cycle accounting and the
//!   `OPTIMUS_NO_FASTFWD` fast-forward toggle.
//! * [`trace`] — the flight recorder: cycle-stamped events from every
//!   layer into a bounded ring buffer, exported as Chrome `trace_event`
//!   JSON for Perfetto, gated behind `OPTIMUS_TRACE`.
//! * [`metrics`] — the always-on metrics plane: per-device/per-tenant
//!   counters, gauges, and log2-bucketed histograms behind a branch-free
//!   masked accumulate path (`OPTIMUS_METRICS=off` to disable), with
//!   Prometheus/JSON exposition.
//! * [`journal`] — the job-lifecycle journal: every submitted job gets a
//!   stable `JobId` and a cycle-stamped phase record (submit → queued →
//!   installed → executing → … → complete), from which per-tenant SLO
//!   accounting (latency breakdowns, p50/p95/p99, goodput) is derived;
//!   on by default, `OPTIMUS_JOURNAL=0` to disable.
//! * [`spec`] — the executable isolation specification: a per-device
//!   model of which tenant may touch which HPA, updated only from the
//!   hypervisor's history and refinement-checked against every host
//!   memory access the simulator performs, gated behind `OPTIMUS_SPEC`.
//! * [`plane`] — what those four recording planes share: the one
//!   environment-gate parser, the gate hand-off to worker threads, and the
//!   per-device chunk hand-off merged in device-index order.
//!
//! # Examples
//!
//! ```
//! use optimus_sim::rng::Xoshiro256;
//! use optimus_sim::time::{ns_to_cycles, FABRIC_HZ};
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let sample = rng.next_u64();
//! assert_eq!(sample, Xoshiro256::seed_from(42).next_u64());
//! assert_eq!(FABRIC_HZ, 400_000_000);
//! assert_eq!(ns_to_cycles(33.0), 13); // one multiplexer-tree level
//! ```

pub mod clock;
pub mod hashing;
pub mod journal;
pub mod metrics;
pub mod perm;
pub mod plane;
pub mod queue;
pub mod rng;
pub mod simrate;
pub mod spec;
pub mod stats;
pub mod time;
pub mod trace;

pub use clock::PlatformClock;
pub use perm::FeistelPermutation;
pub use queue::TimedQueue;
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::{LatencyStats, ThroughputMeter};
pub use time::{ClockDivider, Cycle};
