//! Multi-target Pareto sweep: the system-level design space in one call.
//!
//! Section 6 of the paper starts from "a set of Pareto-optimal
//! implementations for the overall system" obtained with the Liu–Carloni
//! flow \[11\]. This module produces the ERMES-side equivalent: run the
//! exploration loop against a ladder of target cycle times and keep the
//! non-dominated `(cycle time, area)` outcomes — the system-level Pareto
//! front that richer orderings make reachable.

use crate::cache::{CacheStats, EngineCache};
use crate::design::Design;
use crate::error::ErmesError;
use crate::explore::{explore_with, ExplorationConfig, ExploreOptions};
use tmg::Ratio;

/// One point of the system-level front.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The target the exploration ran against.
    pub target_cycle_time: u64,
    /// Best cycle time reached.
    pub cycle_time: Ratio,
    /// Area of that configuration.
    pub area: f64,
    /// Whether the target was met.
    pub meets_target: bool,
}

/// Engine options for [`pareto_sweep_with`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads across the target ladder (`0` = all hardware
    /// threads, `1` = serial). Each target explores a fresh copy of the
    /// design on one thread. The front is bit-identical at any value.
    pub jobs: usize,
    /// Share one [`EngineCache`] across the ladder so configurations
    /// visited by several targets are analyzed and ordered once. `false`
    /// reproduces the unmemoized per-target loop (the engine before
    /// caching existed) — useful as a benchmark baseline. The front is
    /// bit-identical either way.
    pub memoize: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            memoize: true,
        }
    }
}

/// Outcome of [`pareto_sweep_with`]: the pruned front plus the cache
/// counters of the shared [`EngineCache`] (targets revisit each other's
/// configurations, so hit rates grow with ladder length).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The non-dominated `(cycle time, area)` points, fastest first.
    pub front: Vec<SweepPoint>,
    /// Hit/miss counters of the analysis/ordering cache.
    pub cache: CacheStats,
}

/// Runs [`explore`] for every target in `targets` (each from a fresh copy
/// of `design`) and returns the outcomes with dominated points pruned
/// (keeping, for each cycle time, the smallest area).
///
/// # Errors
///
/// Propagates the first exploration failure ([`ErmesError`]).
///
/// # Examples
///
/// ```
/// use ermes::{pareto_sweep, Design};
/// use hlsim::{characterize, KernelSpec, HlsKnobs, MicroArch, ParetoSet};
/// use sysgraph::SystemGraph;
///
/// let single = |l: u64| ParetoSet::from_candidates(vec![MicroArch {
///     knobs: HlsKnobs::baseline(), latency: l, area: 0.01,
/// }]);
/// let mut sys = SystemGraph::new();
/// let src = sys.add_process("src", 1);
/// let p = sys.add_process("p", 0);
/// let snk = sys.add_process("snk", 1);
/// sys.add_channel("in", src, p, 2)?;
/// sys.add_channel("out", p, snk, 2)?;
/// let design = Design::new(sys, vec![
///     single(1),
///     characterize(&KernelSpec::new("k", 32, 16, 0.05, 0.01)),
///     single(1),
/// ])?;
/// let front = pareto_sweep(design, &[50, 150, 600])?;
/// // The front trades area for speed monotonically.
/// for w in front.windows(2) {
///     assert!(w[0].cycle_time <= w[1].cycle_time);
///     assert!(w[0].area >= w[1].area);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn pareto_sweep(design: Design, targets: &[u64]) -> Result<Vec<SweepPoint>, ErmesError> {
    pareto_sweep_with(design, targets, &SweepOptions::default()).map(|report| report.front)
}

/// [`pareto_sweep`] with explicit engine options: the target ladder is
/// evaluated on up to `jobs` worker threads, each target from a fresh
/// copy of `design`, all sharing one memoization cache. Per-target
/// explorations are independent and every cached computation is
/// deterministic, so the front is **bit-identical** — exact rational
/// cycle times included — at any thread count.
///
/// # Errors
///
/// Propagates the first exploration failure *in target order* (the same
/// error the serial sweep would report), regardless of which worker hit
/// an error first.
pub fn pareto_sweep_with(
    design: Design,
    targets: &[u64],
    options: &SweepOptions,
) -> Result<SweepReport, ErmesError> {
    let cache = EngineCache::new();
    pareto_sweep_cached(design, targets, options, &cache)
}

/// [`pareto_sweep_with`] against a caller-owned [`EngineCache`], so the
/// memo survives across sweeps of the same base design — the iterative
/// DSE case: refine the target ladder, re-sweep, and every configuration
/// scored by an earlier run is served from the cache instead of
/// re-running analysis and ordering. `options.memoize = false` bypasses
/// `cache` entirely (it is neither read nor filled).
///
/// # Errors
///
/// Same as [`pareto_sweep_with`].
pub fn pareto_sweep_cached(
    design: Design,
    targets: &[u64],
    options: &SweepOptions,
    cache: &EngineCache,
) -> Result<SweepReport, ErmesError> {
    sweep_inner(design, targets, options, cache, None)
}

/// [`pareto_sweep_cached`] under a [`parx::CancelToken`]: every
/// per-target exploration polls the token at its iteration boundaries
/// (and inside the analysis), so a fired token stops the whole sweep
/// within one bounded iteration of each in-flight target instead of at
/// sweep completion. A cancelled target never populates `cache`. The
/// `Ok` path is bit-identical to [`pareto_sweep_cached`].
///
/// # Errors
///
/// [`ErmesError::Cancelled`] — reporting, as partial progress, how many
/// targets (in ladder order) finished before the stop — when `cancel`
/// fires mid-sweep; otherwise the same errors as [`pareto_sweep_with`].
pub fn pareto_sweep_cancellable(
    design: Design,
    targets: &[u64],
    options: &SweepOptions,
    cache: &EngineCache,
    cancel: &parx::CancelToken,
) -> Result<SweepReport, ErmesError> {
    sweep_inner(design, targets, options, cache, Some(cancel))
}

fn sweep_inner(
    design: Design,
    targets: &[u64],
    options: &SweepOptions,
    cache: &EngineCache,
    cancel: Option<&parx::CancelToken>,
) -> Result<SweepReport, ErmesError> {
    let outcomes = parx::par_map(options.jobs, targets, |_, &target| {
        sweep_point(design.clone(), target, options, cache, cancel)
    });
    // par_map preserves target order, so the loop below reports the
    // error the serial sweep would have reported first. A cancellation
    // is re-scoped from iterations-within-a-target to targets-within-
    // the-sweep: every outcome before the first error is a completed
    // target, which is the partial progress a sweeping client can use.
    let mut points = Vec::with_capacity(targets.len());
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(point) => points.push(point),
            Err(ErmesError::Cancelled { reason, .. }) => {
                return Err(ErmesError::Cancelled {
                    reason,
                    completed: index,
                    total: targets.len(),
                })
            }
            Err(other) => return Err(other),
        }
    }
    Ok(SweepReport {
        front: prune_front(points),
        cache: cache.stats(),
    })
}

/// The per-target unit of a sweep: one exploration of `design` against
/// `target`, reduced to its best `(cycle time, area)` outcome.
///
/// This is exactly the closure [`pareto_sweep_with`] fans across its
/// worker threads, exposed so a distribution layer (the ermesd cluster
/// coordinator) can fan targets out across *nodes* instead and
/// reassemble the identical front with [`prune_front`]. Per-target
/// explorations are independent and deterministic — memoization via
/// `cache` changes only speed, never results — which is what makes
/// cross-node re-dispatch (retries, hedges, degraded local fallback)
/// bit-identical to a single-node sweep.
///
/// # Errors
///
/// The underlying exploration failure ([`ErmesError`]), including
/// [`ErmesError::Cancelled`] when `cancel` fires mid-exploration.
pub fn sweep_point(
    design: Design,
    target: u64,
    options: &SweepOptions,
    cache: &EngineCache,
    cancel: Option<&parx::CancelToken>,
) -> Result<SweepPoint, ErmesError> {
    let _span = trace::span("sweep_target");
    trace::attr("target", target);
    let opts = ExploreOptions {
        cache: options.memoize.then_some(cache),
        cancel,
    };
    let trace = explore_with(design, ExplorationConfig::with_target(target), &opts)?;
    let best = trace.best();
    Ok(SweepPoint {
        target_cycle_time: target,
        cycle_time: best.cycle_time,
        area: best.area,
        meets_target: best.meets_target,
    })
}

/// Prunes dominated points: sort by cycle time then area, keep strict
/// improvements (for each cycle time, the smallest area).
///
/// This is the reduction step of every sweep, public so that a
/// coordinator reassembling remotely computed [`sweep_point`]s applies
/// the *same* pruning the single-node sweep does — domination is a
/// property of the whole ladder, so it must run after all targets are
/// gathered, never per shard.
///
/// Ties matter: when two targets reach the same `(cycle time, area)`,
/// the stable sort keeps whichever appears first in `points`, so a
/// caller gathering points from remote shards must present them **in
/// ladder order** (as `par_map` reassembly does) to stay bit-identical
/// with the single-node sweep.
#[must_use]
pub fn prune_front(mut points: Vec<SweepPoint>) -> Vec<SweepPoint> {
    points.sort_by(|a, b| {
        a.cycle_time
            .cmp(&b.cycle_time)
            .then(a.area.partial_cmp(&b.area).expect("areas are finite"))
    });
    let mut front: Vec<SweepPoint> = Vec::new();
    for p in points {
        match front.last() {
            Some(last) if last.cycle_time == p.cycle_time => {} // larger area, same CT
            Some(last) if p.area >= last.area - 1e-12 => {}     // dominated
            _ => front.push(p),
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsim::{HlsKnobs, MicroArch, ParetoSet};
    use sysgraph::SystemGraph;

    fn pareto(points: &[(u64, f64)]) -> ParetoSet {
        ParetoSet::from_candidates(
            points
                .iter()
                .map(|&(latency, area)| MicroArch {
                    knobs: HlsKnobs::baseline(),
                    latency,
                    area,
                })
                .collect(),
        )
    }

    fn design() -> Design {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 0);
        let b = sys.add_process("b", 0);
        sys.add_channel("x", a, b, 1).expect("valid");
        Design::new(
            sys,
            vec![
                pareto(&[(5, 4.0), (10, 2.0), (20, 1.0)]),
                pareto(&[(4, 3.0), (8, 1.5), (16, 0.8)]),
            ],
        )
        .expect("sizes")
    }

    #[test]
    fn sweep_produces_a_monotone_front() {
        let front = pareto_sweep(design(), &[10, 15, 25, 50, 100]).expect("sweeps");
        assert!(front.len() >= 2, "expected several trade-off points");
        for w in front.windows(2) {
            assert!(w[0].cycle_time < w[1].cycle_time);
            assert!(w[0].area > w[1].area);
        }
    }

    #[test]
    fn tight_targets_cost_area() {
        let front = pareto_sweep(design(), &[10, 100]).expect("sweeps");
        let fastest = front.first().expect("non-empty");
        let smallest = front.last().expect("non-empty");
        assert!(fastest.area >= smallest.area);
        assert!(fastest.cycle_time <= smallest.cycle_time);
    }

    #[test]
    fn single_target_single_point() {
        let front = pareto_sweep(design(), &[30]).expect("sweeps");
        assert_eq!(front.len(), 1);
        assert!(front[0].meets_target);
    }

    #[test]
    fn empty_targets_empty_front() {
        let front = pareto_sweep(design(), &[]).expect("sweeps");
        assert!(front.is_empty());
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let targets = [10, 15, 25, 50, 100];
        let serial = pareto_sweep_with(
            design(),
            &targets,
            &SweepOptions {
                jobs: 1,
                memoize: true,
            },
        )
        .expect("sweeps");
        assert_eq!(
            serial.front,
            pareto_sweep(design(), &targets).expect("sweeps")
        );
        for jobs in [2, 3, 8, 0] {
            let parallel = pareto_sweep_with(
                design(),
                &targets,
                &SweepOptions {
                    jobs,
                    memoize: true,
                },
            )
            .expect("sweeps");
            // Exact equality: Ratio cycle times, areas, flags — the lot.
            assert_eq!(parallel.front, serial.front, "jobs = {jobs}");
        }
    }

    #[test]
    fn cancellable_sweep_matches_plain_when_live_and_stops_when_fired() {
        use parx::{CancelReason, CancelToken};
        let targets = [10, 15, 25, 50, 100];
        let plain = pareto_sweep(design(), &targets).expect("sweeps");
        let cache = EngineCache::new();
        let live = CancelToken::new();
        let run =
            pareto_sweep_cancellable(design(), &targets, &SweepOptions::default(), &cache, &live)
                .expect("token never fires");
        assert_eq!(run.front, plain, "bit-identical under a live token");

        let fired = CancelToken::new();
        fired.cancel(CancelReason::Disconnected);
        let err = pareto_sweep_cancellable(
            design(),
            &targets,
            &SweepOptions::default(),
            &EngineCache::new(),
            &fired,
        )
        .expect_err("token already fired");
        match err {
            ErmesError::Cancelled {
                reason,
                completed,
                total,
            } => {
                assert_eq!(reason, CancelReason::Disconnected);
                assert_eq!(completed, 0);
                assert_eq!(total, targets.len());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn external_fan_out_reassembles_the_identical_front() {
        // A distribution layer computes points one at a time (possibly
        // on different nodes, in any order) and prunes at the end; the
        // result must be the front the one-call sweep produces.
        let targets = [10, 15, 25, 50, 100];
        let whole = pareto_sweep(design(), &targets).expect("sweeps");
        let options = SweepOptions::default();
        // Compute out of ladder order (remote completions arrive in any
        // order) but *gather* in ladder order, as par_map reassembly
        // does — equal-(ct, area) ties keep the earlier ladder entry.
        let mut computed: Vec<SweepPoint> = targets
            .iter()
            .rev()
            .map(|&t| {
                let cache = EngineCache::new(); // each "node" starts cold
                sweep_point(design(), t, &options, &cache, None).expect("explores")
            })
            .collect();
        computed.reverse();
        // Re-dispatch: a retried subjob recomputes one point; the
        // duplicate must not perturb the pruned front.
        computed.push(computed[4].clone());
        assert_eq!(prune_front(computed), whole);
    }

    #[test]
    fn sweep_cache_is_shared_across_targets() {
        // A ladder with repeated targets guarantees overlap: the second
        // run of each target replays configurations the first computed.
        let targets = [30, 30, 100, 100];
        let report = pareto_sweep_with(
            design(),
            &targets,
            &SweepOptions {
                jobs: 1,
                memoize: true,
            },
        )
        .expect("sweeps");
        assert!(
            report.cache.analysis_hits > 0,
            "expected cross-target cache hits: {:?}",
            report.cache
        );
        assert!(report.cache.analysis_hit_rate() > 0.0);
    }
}
