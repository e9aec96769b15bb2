//! The traced per-layer split.
//!
//! Totals and call counts come from the tracing layer's per-phase
//! histograms, which cover every span of the traced window. Self time
//! (a span's duration minus the part of it its child spans cover) needs
//! the tree shape, which only the bounded span journal holds; the split
//! therefore takes each phase's self-time share from the whole span
//! trees left in the journal at the end of the window and applies it to
//! the phase's histogram total. Where the journal never wrapped, that is
//! exact.

use std::collections::BTreeMap;
use trace::{SpanRecord, SpanTree};

/// Per-layer metric: name, unit, which way is better, and the
/// end-to-end metric and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const CLI_SPEC: &str = "op_p50_ms on cluster-sweep-soc1k and cli-sweep-soc10k";
const CLI_P50: &str = "op_p50_ms on cli-sweep-soc10k";
const ILP: &str = "op_p50_ms and ops_per_s on serve-sweep-mpeg2";
const SERVICE: &str = "op_p50_ms on session-edit-mpeg2 and cluster-sweep-soc1k";
const SESSION: &str = "op_p50_ms on session-edit-mpeg2";
const CLUSTER: &str = "op_p50_ms on cluster-sweep-soc1k";
const ALL: &str = "every end-to-end metric (a reading aid, moves nothing itself)";

/// Every per-layer metric a traced run emits, in output order.
pub const METRICS: [LayerMetric; 40] = [
    m("spec.parse_ms", "ms/op", "lower", CLI_SPEC),
    m("spec.design_ms", "ms/op", "lower", CLI_SPEC),
    m("spec.canon_ms", "ms/op", "lower", CLI_SPEC),
    m("spec.bytes_per_op", "B/op", "lower", CLI_SPEC),
    m("chanorder.self_ms", "ms/op", "lower", CLI_P50),
    m("chanorder.calls", "count/op", "lower", CLI_P50),
    m("analysis.self_ms", "ms/op", "lower", CLI_P50),
    m("howard.self_ms", "ms/op", "lower", CLI_P50),
    m("howard.calls", "count/op", "lower", CLI_P50),
    m("cache.self_ms", "ms/op", "lower", CLI_P50),
    m("cache.analysis_hit_ratio", "ratio", "higher", CLI_P50),
    m("cache.analysis_lookups", "count/op", "lower", CLI_P50),
    m("cache.ordering_hit_ratio", "ratio", "higher", CLI_P50),
    m("cache.ordering_lookups", "count/op", "lower", CLI_P50),
    m("iteration.self_ms", "ms/op", "lower", CLI_P50),
    m("explore.iterations", "count/op", "lower", CLI_P50),
    m("ilp.self_ms", "ms/op", "lower", ILP),
    m("ilp.solves", "count/op", "lower", ILP),
    m("ilp.nodes", "count/op", "lower", ILP),
    m("ilp.warm_hit_ratio", "ratio", "higher", ILP),
    m("ilp.node_lps", "count/op", "lower", ILP),
    m("ilp.presolve_fixed", "count/op", "higher", ILP),
    m("render.ms", "ms/op", "lower", CLI_P50),
    m("service.rtt_ms", "ms/op", "lower", SERVICE),
    m("service.request_ms", "ms/op", "lower", SERVICE),
    m("service.frontend_ms", "ms/op", "lower", SERVICE),
    m("service.shed", "count", "lower", SERVICE),
    m("session.reprice_ms", "ms/op", "lower", SESSION),
    m("session.rebuild_calls", "count", "lower", SESSION),
    m("cluster.dispatch_ms", "ms/op", "lower", CLUSTER),
    m("cluster.subjobs_per_op", "count/op", "lower", CLUSTER),
    m("cluster.retries", "count", "lower", CLUSTER),
    m("cluster.hedges", "count", "lower", CLUSTER),
    m("cluster.degraded", "count", "lower", CLUSTER),
    m("trace.overhead_ratio", "ratio", "lower", ALL),
    m("unattributed_ms", "ms/op", "lower", ALL),
    m("unattributed.request_self_ms", "ms/op", "lower", SERVICE),
    m("unattributed.engine_glue_ms", "ms/op", "lower", CLI_P50),
    m("unattributed.bench_glue_ms", "ms/op", "lower", ALL),
    m("error_rate", "ratio", "lower", ALL),
];

/// Spans whose self time a named per-layer metric reports. With the
/// service front end (round trip minus daemon request), they make up the
/// attributed part of an operation; the rest is `unattributed_ms`.
const ATTRIBUTED: [&str; 12] = [
    "parse",
    "design",
    "render",
    "chanorder",
    "analysis",
    "howard",
    "cache",
    "iteration",
    "ilp",
    "reprice",
    "rebuild",
    "dispatch",
];

/// Roots of operation trees: the benchmark's own spans, and the daemon's
/// request span on endpoints that do not adopt the caller's trace.
const ROOTS: [&str; 3] = ["op", "rtt", "request"];

/// Self and total nanoseconds per span name over whole trees, plus the
/// durations of the daemon request spans that serve the benchmark's
/// requests directly (roots, or children of a round trip clipped to it:
/// the daemon closes its span after writing the reply).
#[derive(Default)]
struct TreeSample {
    self_ns: BTreeMap<&'static str, u64>,
    total_ns: BTreeMap<&'static str, u64>,
    front_request_ns: u64,
    front_requests: u64,
}

impl TreeSample {
    /// Adds the whole operation trees of a journal snapshot taken since
    /// the last reset.
    fn add(&mut self, records: &[SpanRecord]) {
        // Once the ring is full it may have overwritten records: a tree
        // that opened before the oldest surviving record closed may have
        // lost early children then, so leave it out.
        let wrapped = records.len() >= trace::journal_occupancy().1;
        let horizon = match records.first() {
            Some(oldest) if wrapped => oldest.end_ns,
            _ => 0,
        };
        for tree in trace::assemble_trees(records, usize::MAX) {
            if ROOTS.contains(&tree.record.name) && tree.record.start_ns > horizon {
                self.walk(&tree, None);
            }
        }
    }

    fn walk(&mut self, node: &SpanTree, parent: Option<&SpanRecord>) {
        let record = &node.record;
        let duration = record.duration_ns();
        if record.name == "request" {
            let served = match parent {
                None => Some(duration),
                Some(p) if p.name == "rtt" => Some(
                    record
                        .end_ns
                        .min(p.end_ns)
                        .saturating_sub(record.start_ns.max(p.start_ns)),
                ),
                Some(_) => None,
            };
            if let Some(ns) = served {
                self.front_request_ns += ns;
                self.front_requests += 1;
            }
        }
        // Grafted copies of cluster-worker trees carry `host`; in an
        // in-process fleet the worker's own spans are already here.
        let children: Vec<&SpanTree> = node
            .children
            .iter()
            .filter(|c| c.record.attr("host").is_none())
            .collect();
        // Union of the children's intervals, clipped to this span.
        let mut covered = 0u64;
        let mut reach = record.start_ns;
        for child in &children {
            let start = child.record.start_ns.max(reach);
            let end = child.record.end_ns.min(record.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *self.self_ns.entry(record.name).or_default() += duration.saturating_sub(covered);
        *self.total_ns.entry(record.name).or_default() += duration;
        for child in children {
            self.walk(child, Some(record));
        }
    }
}

/// What the traced windows measured, in per-operation terms.
#[derive(Default)]
pub struct Split {
    ops: u64,
    /// Phase name → (span count, total ms), from the histograms.
    phases: BTreeMap<&'static str, (u64, f64)>,
    sample: TreeSample,
}

impl Split {
    /// Adds one traced window: its operation count, and the journal and
    /// phase histograms recorded since the trace was reset before it.
    pub fn add(&mut self, ops: u64, records: &[SpanRecord], phases: &[trace::PhaseSnapshot]) {
        self.ops += ops;
        for p in phases {
            let entry = self.phases.entry(p.phase).or_default();
            entry.0 += p.count;
            entry.1 += p.sum_seconds * 1e3;
        }
        self.sample.add(records);
    }

    /// Spans in the histograms.
    pub fn spans(&self) -> u64 {
        self.phases.values().map(|p| p.0).sum()
    }

    fn ops(&self) -> f64 {
        self.ops.max(1) as f64
    }

    /// Spans of `phase` per operation.
    pub fn calls(&self, phase: &str) -> f64 {
        self.count(phase) as f64 / self.ops()
    }

    /// Spans of `phase` in the window.
    pub fn count(&self, phase: &str) -> u64 {
        self.phases.get(phase).map_or(0, |p| p.0)
    }

    /// Inclusive milliseconds of `phase` per operation.
    pub fn total_ms(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |p| p.1) / self.ops()
    }

    /// Self milliseconds of `phase` per operation.
    pub fn self_ms(&self, phase: &str) -> f64 {
        let share = match (
            self.sample.self_ns.get(phase),
            self.sample.total_ns.get(phase),
        ) {
            (Some(&s), Some(&t)) if t > 0 => s as f64 / t as f64,
            _ => 1.0,
        };
        self.total_ms(phase) * share
    }

    /// Mean duration of the daemon request spans serving the
    /// benchmark's requests, in ms.
    pub fn front_request_ms(&self) -> f64 {
        if self.sample.front_requests == 0 {
            return 0.0;
        }
        self.sample.front_request_ns as f64 / self.sample.front_requests as f64 / 1e6
    }

    /// Round trip minus daemon request, per operation: body transfer,
    /// parse, precheck, cache key and framing (0 without a daemon).
    pub fn frontend_ms(&self) -> f64 {
        if self.count("rtt") == 0 {
            return 0.0;
        }
        self.total_ms("rtt") - self.front_request_ms()
    }

    /// Operation time that neither a named layer's self time nor the
    /// service front end accounts for.
    pub fn unattributed_ms(&self, mean_op_ms: f64) -> f64 {
        mean_op_ms - self.frontend_ms() - ATTRIBUTED.iter().map(|p| self.self_ms(p)).sum::<f64>()
    }
}

/// Sum of every sample of `name` in Prometheus text, whatever its labels
/// (the coordinator's scrape federates each worker under a `node` label).
fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let value = if rest.starts_with('{') {
                rest.rsplit_once(' ')?.1
            } else {
                rest.strip_prefix(' ')?
            };
            value.trim().parse::<f64>().ok()
        })
        .sum()
}

/// Increase of `name` between two scrapes.
pub fn prom_delta(before: &str, after: &str, name: &str) -> f64 {
    prom_sum(after, name) - prom_sum(before, name)
}
