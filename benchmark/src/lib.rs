//! The repository's benchmark harness. See `benchmark/README.md`.

pub mod alloc;
pub mod calib;
pub mod catalog;
pub mod check;
pub mod clock;
pub mod compare;
pub mod hosting;
pub mod ladder;
pub mod meter;
pub mod probes;
pub mod report;
pub mod run;
pub mod scenario;
pub mod stats;
pub mod trace;
pub mod traced;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
