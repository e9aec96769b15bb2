//! Benchmark and reproduction harness.
//!
//! [`experiments`] implements one function per table/figure of the DAC'14
//! paper; the `repro` binary prints them, writes every ladder's
//! `BENCH_*.json` through [`report`], and drives the service experiments
//! through [`fleet`]; `cargo bench` measures the algorithms behind them.
//! See DESIGN.md's experiment index for the mapping and EXPERIMENTS.md
//! for paper-versus-measured numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;
pub mod report;
