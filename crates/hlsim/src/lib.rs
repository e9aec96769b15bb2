//! HLS surrogate: Pareto-optimal micro-architectures without an HLS tool.
//!
//! The DAC'14 ERMES methodology consumes, for every process, a set of
//! Pareto-optimal `(latency, area)` implementations produced by sweeping
//! the knobs of a commercial high-level-synthesis tool (loop unrolling,
//! loop pipelining, resource sharing — Section 1 of the paper). No HLS
//! ecosystem exists in Rust, so this crate provides a *surrogate*: an
//! abstract kernel description ([`KernelSpec`]) plus a structural cost
//! model ([`synthesize`]) that maps knob configurations ([`HlsKnobs`]) to
//! latency/area points, pruned to a Pareto frontier ([`ParetoSet`],
//! [`characterize`]).
//!
//! The substitution is sound for reproducing the paper because ERMES only
//! ever reads `(latency, area)` pairs from the Pareto sets — the paper
//! itself treats micro-architecture characterization as a pre-processing
//! step independent of channel ordering (Section 6).
//!
//! Channel latencies are characterized from payload sizes with
//! [`channel_latency`], mirroring the paper's 1–5,280-cycle range.
//!
//! # Examples
//!
//! ```
//! use hlsim::{characterize, KernelSpec};
//!
//! let kernel = KernelSpec::new("dct", 64, 8, 0.02, 0.004);
//! let pareto = characterize(&kernel);
//! // The frontier trades latency for area monotonically.
//! assert!(pareto.len() >= 3);
//! assert!(pareto.fastest().latency < pareto.smallest().latency);
//! assert!(pareto.fastest().area > pareto.smallest().area);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod kernel;
mod knobs;
mod microarch;
mod pareto;

pub use channel::channel_latency;
pub use kernel::KernelSpec;
pub use knobs::{HlsKnobs, SharingLevel};
pub use microarch::{knob_grid, synthesize, MicroArch};
pub use pareto::ParetoSet;

/// Sweeps the knob grid for `kernel` and returns the Pareto frontier of
/// the resulting micro-architectures.
#[must_use]
pub fn characterize(kernel: &KernelSpec) -> ParetoSet {
    let candidates = knob_grid(kernel)
        .into_iter()
        .map(|knobs| synthesize(kernel, knobs))
        .collect();
    ParetoSet::from_candidates(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_produces_multiple_tradeoffs() {
        let kernel = KernelSpec::new("me", 128, 64, 0.05, 0.003);
        let pareto = characterize(&kernel);
        assert!(
            pareto.len() >= 4,
            "expected a rich frontier, got {}",
            pareto.len()
        );
    }

    #[test]
    fn frontier_points_come_from_the_grid() {
        let kernel = KernelSpec::new("q", 12, 6, 0.01, 0.002);
        let pareto = characterize(&kernel);
        for p in pareto.points() {
            let re = synthesize(&kernel, p.knobs);
            assert_eq!(re.latency, p.latency);
            assert!((re.area - p.area).abs() < 1e-12);
        }
    }

    #[test]
    fn tiny_kernel_still_has_a_frontier() {
        let kernel = KernelSpec::new("copy", 1, 1, 0.001, 0.0005);
        let pareto = characterize(&kernel);
        assert!(!pareto.is_empty());
    }
}
