//! # rsg-bench — experiment harness shared code
//!
//! Experiment binaries (one per paper table/figure) and the two chaos
//! harnesses (`bench_chaos`, `serve_chaos`) live in `src/bin/`. This
//! library holds the shared output formatting and the fast/full
//! experiment presets. Performance is measured by `perfbench/`, not
//! here.

pub mod experiments;
pub mod report;

pub use report::Table;
