//! The `psa_perf` benchmark's library: workloads, the child repetition,
//! the layer replay, the served sweep, the driver and the statistics.
//! The `psa_perf` binary is its command line.

pub mod child;
pub mod compare;
pub mod driver;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod serve;
pub mod spans;
pub mod stats;
