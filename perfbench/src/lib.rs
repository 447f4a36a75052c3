//! Closed-loop benchmark of the certified dominating-set pipeline.
//!
//! One client runs one solve at a time through the public entry points
//! (`theorem_1_2_on`, `theorem_1_1_on` + `connect_dominating_set`), checks
//! every output, and reports host time per solve. A separate traced run
//! wraps the executor in [`timed::TimedExecutor`] to attribute engine time
//! to layers by node-program type. See `BENCHMARK.json` at the repository
//! root for the workloads and metrics.

pub mod check;
pub mod timed;
pub mod workload;
