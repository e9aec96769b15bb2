//! Two threads that miss the same configuration at once: the cache
//! counts the lookup whose entry the other thread stored first as a hit,
//! so the counters do not depend on how the threads interleave.
//!
//! This file holds one test because it installs a process-global fault
//! plan (a delay before every cache insert) that would slow any other
//! test sharing its process.

use ermes::{Design, EngineCache};
use hlsim::{HlsKnobs, MicroArch, ParetoSet};
use std::sync::Barrier;
use sysgraph::SystemGraph;

fn two_stage() -> Design {
    let mut sys = SystemGraph::new();
    let a = sys.add_process("a", 0);
    let b = sys.add_process("b", 0);
    sys.add_channel("x", a, b, 1).expect("valid");
    let set = |lats: &[u64]| {
        ParetoSet::from_candidates(
            lats.iter()
                .map(|&latency| MicroArch {
                    knobs: HlsKnobs::baseline(),
                    latency,
                    area: 1.0 / latency as f64,
                })
                .collect(),
        )
    };
    let mut design = Design::new(sys, vec![set(&[2, 4]), set(&[3, 6])]).expect("sizes");
    design.select_fastest();
    design
}

#[test]
fn a_lookup_whose_entry_another_thread_stored_first_counts_as_a_hit() {
    // Every insert waits 300 ms after its computation, so both threads
    // finish their lookups (two misses) before either stores.
    parx::faultpoint::activate("seed=1;cache.insert=delay(300)").expect("plan parses");
    let design = two_stage();
    let cache = EngineCache::new();
    let start = Barrier::new(2);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    cache.analyze(&design)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    parx::faultpoint::deactivate();

    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], ermes::analyze_design(&design));
    let stats = cache.stats();
    assert_eq!(
        (stats.analysis_hits, stats.analysis_misses),
        (1, 1),
        "one thread stored the entry; the other lost the race: {stats:?}"
    );
    assert_eq!(cache.entry_counts(), (1, 0));
}
