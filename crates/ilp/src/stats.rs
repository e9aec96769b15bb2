//! Process-wide solver counters.
//!
//! The selection engine is the hot path of the exploration loop on
//! designs small enough to solve exactly (EXPERIMENTS E13), so it keeps
//! two cheap atomic counters that ermesd exports on `/metrics`
//! (`ermes_ilp_nodes_total`) and the CLI prints after
//! `--trace-summary`. Counters are cumulative for the process; callers
//! that want per-run numbers snapshot [`stats`] before and after and
//! subtract with [`IlpStats::delta_since`].

use std::sync::atomic::{AtomicU64, Ordering};

static SOLVES: AtomicU64 = AtomicU64::new(0);
static NODES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide solver counters.
///
/// The last three fields always read 0: the engine solves no LPs and runs
/// no presolve. They stay so that existing readers of the snapshot keep
/// compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpStats {
    /// Selection problems solved, counting those proven infeasible before
    /// any search.
    pub solves: u64,
    /// Depth-first search nodes entered across all solves, one root per
    /// solve included.
    pub nodes: u64,
    /// Always 0: the engine solves no LPs to warm-start.
    pub warmstart_hits: u64,
    /// Always 0: the engine solves no LPs to warm-start.
    pub warmstart_misses: u64,
    /// Always 0: the engine runs no presolve.
    pub presolve_fixed: u64,
}

impl IlpStats {
    /// Counter increments between `earlier` and `self` (both from
    /// [`stats`], with `self` taken later).
    #[must_use]
    pub fn delta_since(&self, earlier: &IlpStats) -> IlpStats {
        IlpStats {
            solves: self.solves.saturating_sub(earlier.solves),
            nodes: self.nodes.saturating_sub(earlier.nodes),
            warmstart_hits: self.warmstart_hits.saturating_sub(earlier.warmstart_hits),
            warmstart_misses: self
                .warmstart_misses
                .saturating_sub(earlier.warmstart_misses),
            presolve_fixed: self.presolve_fixed.saturating_sub(earlier.presolve_fixed),
        }
    }
}

/// Snapshots the process-wide solver counters.
#[must_use]
pub fn stats() -> IlpStats {
    IlpStats {
        solves: SOLVES.load(Ordering::Relaxed),
        nodes: NODES.load(Ordering::Relaxed),
        ..IlpStats::default()
    }
}

pub(crate) fn record_solve() {
    SOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_nodes(nodes: u64) {
    NODES.fetch_add(nodes, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_rate() {
        let earlier = IlpStats {
            solves: 2,
            nodes: 10,
            ..IlpStats::default()
        };
        let later = IlpStats {
            solves: 5,
            nodes: 25,
            ..IlpStats::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.solves, 3);
        assert_eq!(d.nodes, 15);
        assert_eq!(d.warmstart_hits, 0);
        assert_eq!(d.presolve_fixed, 0);
        let now = stats();
        assert_eq!(
            (now.warmstart_hits, now.warmstart_misses, now.presolve_fixed),
            (0, 0, 0)
        );
    }
}
