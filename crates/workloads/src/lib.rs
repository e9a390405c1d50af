//! Workload generators for the OPTIMUS benchmarks.
//!
//! Deterministic, seedable inputs for every benchmark: graphs shaped like
//! the paper's SSSP sweep (800 K vertices, 3.2 M–51.2 M edges, scaled),
//! linked-list regions synthesized line by line on demand (up to 8 GB of
//! working set without 8 GB of host RAM), RS codeword streams with
//! injected errors, and byte/image/sample streams for the remaining
//! kernels.

pub mod graphs;
pub mod linked_list;
pub mod streams;

pub use graphs::fig1_graph;
