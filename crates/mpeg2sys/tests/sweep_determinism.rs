//! Determinism and cache-correctness of the parallel exploration engine
//! on the full MPEG-2 case study (26 processes / 60 channels).
//!
//! The sweep must return bit-identical exact cycle times and areas at
//! any sweep thread count, and the shared cache must not change any
//! result.

use ermes::{
    analyze_design, pareto_sweep_with, EngineCache, ExplorationConfig, ExplorationTrace,
    ExploreOptions, StepAction, SweepOptions,
};
use mpeg2sys::m2_design;

#[test]
fn mpeg2_analysis_is_bit_identical_across_thread_counts() {
    let (design, _) = m2_design();
    let serial = analyze_design(&design);
    assert!(serial.cycle_time().is_some(), "M2 is live");
}

#[test]
fn mpeg2_sweep_is_bit_identical_and_caches() {
    let (design, _) = m2_design();
    let base = analyze_design(&design)
        .cycle_time()
        .expect("M2 is live")
        .to_f64();
    // A short ladder bracketing the M2 cycle time.
    let targets: Vec<u64> = [0.5, 0.9, 1.1, 1.5]
        .iter()
        .map(|f| (base * f) as u64)
        .collect();
    let serial = pareto_sweep_with(
        design.clone(),
        &targets,
        &SweepOptions {
            jobs: 1,
            memoize: true,
        },
    )
    .expect("sweeps");
    assert!(!serial.front.is_empty());
    let parallel = pareto_sweep_with(
        design.clone(),
        &targets,
        &SweepOptions {
            jobs: 4,
            memoize: true,
        },
    )
    .expect("sweeps");
    assert_eq!(
        parallel.front, serial.front,
        "exact Ratio cycle times match"
    );
    assert!(
        serial.cache.analysis_misses > 0,
        "sweep ran the analysis: {:?}",
        serial.cache
    );
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

use StepAction::{AreaRecovery as A, Converged as C, Initial as I, TimingOptimization as T};

const FAST: [Row; 3] = [
    (I, 3_537_781, 1, 0x3ff8_e54c_fba6_d0a7),
    (T, 1_782_853, 1, 0x3fff_55e9_3c89_f716),
    (C, 1_782_853, 1, 0x3fff_55e9_3c89_f716),
];
const FAST_SELECTION: [usize; 28] = [
    0, 1, 6, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 6, 0, 1, 1, 1, 1, 1, 6, 3, 0, 0, 0, 0, 0,
];
const AT_1_800_000: [Row; 10] = [
    (I, 3_537_781, 1, 0x3ff8_e54c_fba6_d0a7),
    (T, 1_799_377, 1, 0x3ffd_d50b_d063_5600),
    (A, 2_475_085, 1, 0x3ffb_ba50_5de6_6526),
    (T, 1_902_434, 1, 0x3ffb_d52f_067d_c884),
    (T, 1_799_474, 1, 0x3ffc_c76b_cf5b_f348),
    (A, 2_475_085, 1, 0x3ffb_ba50_5de6_6526),
    (T, 1_901_166, 1, 0x3ffb_e834_441f_458a),
    (T, 1_799_474, 1, 0x3ffc_c76b_cf5b_f348),
    (A, 2_475_085, 1, 0x3ffb_bedc_4941_9273),
    (C, 2_475_085, 1, 0x3ffb_bedc_4941_9273),
];
const AT_2_400_000: [Row; 9] = [
    (I, 3_537_781, 1, 0x3ff8_e54c_fba6_d0a7),
    (T, 2_382_643, 1, 0x3ffa_792c_e860_e61e),
    (A, 3_016_305, 1, 0x3ff8_5e71_75e3_f543),
    (T, 2_382_875, 1, 0x3ff8_cd5c_e609_f80d),
    (A, 3_945_717, 1, 0x3ff7_3d97_e188_890c),
    (T, 2_388_214, 1, 0x3ff8_cfdc_87aa_c725),
    (A, 2_852_625, 1, 0x3ff8_60f1_1784_c45c),
    (T, 2_551_797, 1, 0x3ff8_0ff6_be8d_b241),
    (C, 2_551_797, 1, 0x3ff8_0ff6_be8d_b241),
];

/// A seed-engine exploration: target, trace, best index, final selection
/// and the final design's area bits.
type SeedRun = (u64, &'static [Row], usize, [usize; 28], u64);

/// What the frozen seed ILP engine chose on M2, recorded from the seed
/// engine driving the whole exploration, when it could still be switched
/// in.
const SEED_RUNS: [SeedRun; 5] = [
    (900_000, &FAST, 1, FAST_SELECTION, 0x3fff_55e9_3c89_f716),
    (1_200_000, &FAST, 1, FAST_SELECTION, 0x3fff_55e9_3c89_f716),
    (1_500_000, &FAST, 1, FAST_SELECTION, 0x3fff_55e9_3c89_f716),
    (
        1_800_000,
        &AT_1_800_000,
        4,
        [
            0, 3, 13, 3, 3, 0, 2, 0, 14, 0, 0, 0, 0, 4, 11, 0, 1, 2, 2, 3, 3, 14, 6, 0, 0, 0, 1, 0,
        ],
        0x3ffc_c76b_cf5b_f348,
    ),
    (
        2_400_000,
        &AT_2_400_000,
        3,
        [
            0, 3, 13, 3, 3, 2, 2, 2, 21, 1, 1, 0, 1, 4, 11, 1, 2, 2, 2, 3, 3, 14, 6, 1, 0, 1, 2, 0,
        ],
        0x3ff8_cd5c_e609_f80d,
    ),
];

/// The knapsack engine and the frozen seed engine must walk bit-identical
/// exploration traces on the full MPEG-2 case study — the instance class
/// the selection engine exists for.
///
/// Selections must match too, with one certified exception: when the
/// selection problem has several optima of bitwise-equal area, each
/// engine deterministically returns the one its tie rule prefers, and the
/// rules may differ. Such a tie is accepted only after proving the traces
/// are bit-identical and both final designs report bitwise-equal area —
/// the user-visible outputs (Fig. 6 traces, sweep Pareto points) carry no
/// difference.
#[test]
fn mpeg2_exploration_engines_are_bit_identical() {
    let (design, _) = m2_design();
    for (target, seed_rows, seed_best, seed_selection, seed_area) in SEED_RUNS {
        let mut config = ExplorationConfig::with_target(target);
        config.strategy = ermes::OptStrategy::Exact;
        let new_engine = ermes::explore(design.clone(), config).expect("explores");
        assert_eq!(
            rows(&new_engine),
            seed_rows,
            "target = {target}: engine changed the trace"
        );
        assert_eq!(
            new_engine.best_index, seed_best,
            "target = {target}: engine changed the best point"
        );
        if new_engine.design.selection() != seed_selection {
            // Certified alternate optimum: every visible number must
            // still be bit-identical.
            assert_eq!(
                new_engine.design.area().to_bits(),
                seed_area,
                "target = {target}: differing selections must tie exactly on area"
            );
        }
    }
}

#[test]
fn mpeg2_cached_exploration_matches_fresh() {
    let (design, _) = m2_design();
    let config = ExplorationConfig::with_target(2_500_000);
    let fresh = ermes::explore(design.clone(), config).expect("explores");
    let cache = EngineCache::new();
    let opts = ExploreOptions {
        cache: Some(&cache),
        cancel: None,
    };
    let cached = ermes::explore_with(design, config, &opts).expect("explores");
    assert_eq!(cached.iterations, fresh.iterations);
    assert_eq!(cached.design.selection(), fresh.design.selection());
}
