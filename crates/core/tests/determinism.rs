//! Determinism and cache-correctness of the parallel exploration engine
//! on the paper's motivating example (Section 2 topology).
//!
//! The contract under test: `analyze_design`, `explore_with`, and
//! `pareto_sweep_with` return **bit-identical** results — exact rational
//! cycle times, critical sets, areas, trace actions — at any sweep
//! thread count, with or without the memoization cache.

use ermes::{
    analyze_design, explore, explore_with, pareto_sweep, pareto_sweep_with, Design, EngineCache,
    ExplorationConfig, ExplorationTrace, ExploreOptions, OptStrategy, StepAction, SweepOptions,
};
use hlsim::{HlsKnobs, MicroArch, ParetoSet};
use sysgraph::MotivatingExample;

/// The Section 2 topology with a three-point Pareto frontier per process
/// (fast/large through slow/small), starting from the deadlocking
/// statement ordering the paper opens with.
fn motivating_design() -> Design {
    let ex = MotivatingExample::new();
    let pareto: Vec<ParetoSet> = ex
        .system
        .process_ids()
        .map(|p| {
            let base = ex.system.process(p).latency().max(1);
            ParetoSet::from_candidates(
                [(base, 4.0), (base * 2, 2.0), (base * 4, 1.0)]
                    .iter()
                    .map(|&(latency, area)| MicroArch {
                        knobs: HlsKnobs::baseline(),
                        latency,
                        area,
                    })
                    .collect(),
            )
        })
        .collect();
    Design::new(ex.system, pareto).expect("sizes match")
}

#[test]
fn analysis_is_bit_identical_across_thread_counts() {
    let mut design = motivating_design();
    // The deadlock ordering must be diagnosed identically everywhere.
    let serial = analyze_design(&design);
    assert!(serial.is_deadlock());
    // Repair the ordering and compare the live verdicts.
    let solution = chanorder::order_channels(design.system());
    solution
        .ordering
        .apply_to(design.system_mut())
        .expect("valid");
    let live = analyze_design(&design);
    assert!(live.cycle_time().is_some(), "repaired system is live");
}

#[test]
fn exploration_with_cache_and_jobs_is_bit_identical() {
    let config = ExplorationConfig::with_target(40);
    let plain = explore(motivating_design(), config).expect("explores");
    let cache = EngineCache::new();
    for pass in 0..3 {
        let opts = ExploreOptions {
            cache: Some(&cache),
            cancel: None,
        };
        let run = explore_with(motivating_design(), config, &opts).expect("explores");
        assert_eq!(run.iterations, plain.iterations, "pass {pass}");
        assert_eq!(run.best_index, plain.best_index);
        assert_eq!(run.design.selection(), plain.design.selection());
    }
    let stats = cache.stats();
    assert!(stats.analysis_hits > 0, "repeat runs must hit: {stats:?}");
    assert!(stats.ordering_hits > 0, "repeat runs must hit: {stats:?}");
}

/// One trace row as the engines are compared on it: the action, the
/// exact cycle time (numerator, denominator) and the area's bits.
type Row = (StepAction, i64, i64, u64);

fn rows(trace: &ExplorationTrace) -> Vec<Row> {
    trace
        .iterations
        .iter()
        .map(|r| {
            let ct = r.cycle_time;
            (r.action, ct.numer(), ct.denom(), r.area.to_bits())
        })
        .collect()
}

const RECOVERED_TO_20: [Row; 3] = [
    (StepAction::Initial, 12, 1, 0x403c_0000_0000_0000),
    (StepAction::AreaRecovery, 20, 1, 0x4020_0000_0000_0000),
    (StepAction::Converged, 20, 1, 0x4020_0000_0000_0000),
];
const RECOVERED_TO_27: [Row; 3] = [
    (StepAction::Initial, 12, 1, 0x403c_0000_0000_0000),
    (StepAction::AreaRecovery, 27, 1, 0x401c_0000_0000_0000),
    (StepAction::Converged, 27, 1, 0x401c_0000_0000_0000),
];

/// What the frozen seed ILP engine chose on this design, per target:
/// the trace, the best index and the final selection. Recorded from the
/// seed engine driving the whole exploration, when it could still be
/// switched in; the simplex-based engine that preceded the knapsack
/// engine produced the same values.
const SEED_RUNS: [(u64, &[Row], usize, [usize; 7]); 4] = [
    (20, &RECOVERED_TO_20, 1, [2, 1, 2, 2, 2, 2, 2]),
    (40, &RECOVERED_TO_27, 1, [2; 7]),
    (60, &RECOVERED_TO_27, 1, [2; 7]),
    (140, &RECOVERED_TO_27, 1, [2; 7]),
];

/// The knapsack engine must select the same configurations — bit-identical
/// areas, exact cycle times, trace actions, best points and final
/// selections — as the frozen seed engine, across a ladder of targets and
/// on the cold and warm cached paths: swapping solver engines never changes a
/// chosen micro-architecture.
#[test]
fn exploration_engines_are_bit_identical() {
    for (target, seed_rows, seed_best, seed_selection) in SEED_RUNS {
        let mut config = ExplorationConfig::with_target(target);
        config.strategy = OptStrategy::Exact;
        let new_engine = explore(motivating_design(), config).expect("explores");
        assert_eq!(
            rows(&new_engine),
            seed_rows,
            "target = {target}: engine changed the trace"
        );
        assert_eq!(new_engine.best_index, seed_best, "target = {target}");
        assert_eq!(
            new_engine.design.selection(),
            seed_selection,
            "target = {target}: engine changed the selected micro-architectures"
        );
        // And the cold and warm cached paths stay identical.
        let cache = EngineCache::new();
        for pass in 0..2 {
            let opts = ExploreOptions {
                cache: Some(&cache),
                cancel: None,
            };
            let run = explore_with(motivating_design(), config, &opts).expect("explores");
            assert_eq!(
                run.iterations, new_engine.iterations,
                "target = {target}, pass {pass}"
            );
            assert_eq!(run.design.selection(), seed_selection);
        }
    }
}

#[test]
fn sweep_front_is_bit_identical_across_thread_counts() {
    let targets = [20, 30, 40, 60, 90, 140];
    let serial = pareto_sweep_with(
        motivating_design(),
        &targets,
        &SweepOptions {
            jobs: 1,
            memoize: true,
        },
    )
    .expect("sweeps");
    assert!(!serial.front.is_empty());
    assert_eq!(
        serial.front,
        pareto_sweep(motivating_design(), &targets).expect("sweeps"),
        "pareto_sweep delegates to the serial engine"
    );
    for jobs in [2, 3, 4, 8, 0] {
        let parallel = pareto_sweep_with(
            motivating_design(),
            &targets,
            &SweepOptions {
                jobs,
                memoize: true,
            },
        )
        .expect("sweeps");
        assert_eq!(parallel.front, serial.front, "jobs = {jobs}");
    }
    // Neighboring targets walk through shared configurations.
    assert!(
        serial.cache.analysis_hits > 0,
        "cross-target reuse expected: {:?}",
        serial.cache
    );
}
