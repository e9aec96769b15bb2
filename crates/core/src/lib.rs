//! ERMES — compositional high-level synthesis methodology.
//!
//! Reproduction of *“A Design Methodology for Compositional High-Level
//! Synthesis of Communication-Centric SoCs”* (G. Di Guglielmo, C. Pilato,
//! L. P. Carloni — DAC 2014). ERMES co-optimizes the computation
//! micro-architectures and the inter-process communication of an SoC
//! assembled from latency-insensitive components:
//!
//! 1. **Performance analysis** ([`analyze_design`]): the system is lowered
//!    to a timed marked graph; Howard's algorithm yields the exact cycle
//!    time and the critical cycle — no simulation needed (Section 3).
//! 2. **IP selection** ([`area_recovery`], [`timing_optimization`]): with
//!    positive slack against the target cycle time, recover area; with
//!    negative slack, buy speed on the critical cycle — both as 0/1 ILPs
//!    over the per-process Pareto sets (Section 5).
//! 3. **Channel reordering** (via the [`chanorder`] crate): after every
//!    selection change, re-derive the deadlock-free, throughput-optimal
//!    `put`/`get` statement orders (Section 4).
//!
//! [`explore`] ties the three into the iterative loop of the paper's
//! Fig. 5 and records the per-iteration trace of Fig. 6.
//!
//! # Examples
//!
//! ```
//! use ermes::{explore, Design, ExplorationConfig};
//! use hlsim::{characterize, KernelSpec};
//! use sysgraph::SystemGraph;
//!
//! // A small accelerator: source -> filter -> transform -> sink.
//! let mut sys = SystemGraph::new();
//! let src = sys.add_process("src", 1);
//! let filter = sys.add_process("filter", 0);
//! let transform = sys.add_process("transform", 0);
//! let snk = sys.add_process("snk", 1);
//! sys.add_channel("raw", src, filter, 4)?;
//! sys.add_channel("mid", filter, transform, 4)?;
//! sys.add_channel("out", transform, snk, 4)?;
//!
//! let fixed = |l: u64| hlsim::ParetoSet::from_candidates(vec![hlsim::MicroArch {
//!     knobs: hlsim::HlsKnobs::baseline(), latency: l, area: 0.01,
//! }]);
//! let design = Design::new(sys, vec![
//!     fixed(1),
//!     characterize(&KernelSpec::new("filter", 32, 16, 0.04, 0.008)),
//!     characterize(&KernelSpec::new("transform", 64, 8, 0.05, 0.01)),
//!     fixed(1),
//! ])?;
//!
//! let trace = explore(design, ExplorationConfig::with_target(120))?;
//! assert!(trace.last().meets_target);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bottleneck;
mod buffers;
mod cache;
mod chart;
mod delta;
mod design;
mod error;
mod explore;
mod opt;
mod sweep;

pub use analysis::{analyze_design, target_ratio, PerfReport};
pub use bottleneck::{bottleneck_report, bottleneck_report_with, BottleneckItem, BottleneckReport};
pub use buffers::{buffer_sensitivity, size_buffers, BufferEffect};
pub use cache::{CacheStats, EngineCache};
pub use chart::render_trace;
pub use delta::DeltaState;
pub use design::Design;
pub use error::ErmesError;
pub use explore::{
    explore, explore_with, reordering_gain, ExplorationConfig, ExplorationTrace, ExploreOptions,
    IterationRecord, StepAction,
};
pub use opt::{area_recovery, timing_optimization, IpSelection, OptStrategy};
pub use sweep::{
    pareto_sweep, pareto_sweep_cached, pareto_sweep_cancellable, pareto_sweep_with, prune_front,
    sweep_point, SweepOptions, SweepPoint, SweepReport,
};
