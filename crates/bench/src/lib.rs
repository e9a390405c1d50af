//! Shared experiment harness regenerating the paper's tables and figures.
//!
//! Each `benches/*.rs` target (all `harness = false`) reproduces one table
//! or figure; this library holds the machinery they share:
//!
//! * [`scale`] — measurement windows and scale factors (env-overridable);
//! * [`catalog`] — every kind's guest program and its oracle;
//! * [`runner`] — spatial/latency experiment drivers over the hypervisor
//!   and their progress meter;
//! * [`report`] — uniform paper-vs-measured table printing.

pub mod catalog;
pub mod report;
pub mod runner;
pub mod scale;
