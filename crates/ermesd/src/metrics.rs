//! Service observability: counters, latency histogram, and the
//! Prometheus text-format renderer behind `GET /metrics`.
//!
//! The registry is plain `std::sync` — per-(endpoint, status) request
//! counters behind a mutex (scrape-ordered deterministically), a
//! fixed-bucket latency histogram on atomics, and gauges sampled at
//! scrape time (queue depth, cache sizes). Cache hit/miss/eviction
//! counters are not duplicated here: they live in the per-design
//! [`ermes::EngineCache`]s and are aggregated into the scrape by the
//! server, so `/metrics` and the engine can never disagree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Upper bounds (seconds) of the latency histogram buckets; a `+Inf`
/// bucket is implicit. Spans 100 µs (cache-hit analyze on a small spec)
/// to 10 s (cold multi-target sweep on a large one). Shared with the
/// engine's per-phase histograms (`trace`) so request latency and phase
/// time line up on one dashboard axis.
pub const LATENCY_BUCKETS: [f64; 14] = trace::LATENCY_BUCKETS;

/// Shared metrics state of one server.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(endpoint, status)` → count. BTreeMap keeps the scrape output
    /// deterministically ordered.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Cumulative bucket counts (`le` = [`LATENCY_BUCKETS`] + `+Inf`).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Sum of observed latencies, in microseconds.
    latency_sum_micros: AtomicU64,
    latency_count: AtomicU64,
    /// Per-endpoint latency histograms (same buckets as the aggregate,
    /// which is kept for dashboard compatibility).
    endpoint_latency: Mutex<BTreeMap<&'static str, EndpointHistogram>>,
    /// Requests rejected because the admission queue was full.
    shed_queue_full: AtomicU64,
    /// Requests rejected because their deadline expired while queued.
    shed_deadline: AtomicU64,
    /// Jobs cancelled mid-execution because their deadline expired.
    cancelled_deadline: AtomicU64,
    /// Jobs cancelled mid-execution because the client disconnected.
    cancelled_disconnect: AtomicU64,
    /// Jobs that panicked on their worker (caught; worker respawned).
    jobs_panicked: AtomicU64,
}

/// Counters of the cluster coordinator's dispatch layer, owned by the
/// `Cluster` and sampled into the scrape alongside the request
/// counters. All monotone, all atomics — dispatch threads bump them
/// without a lock.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    subjobs: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    degraded: AtomicU64,
    probe_failures: AtomicU64,
}

impl ClusterMetrics {
    /// One subjob dispatch attempt sent to a worker.
    pub fn record_subjob(&self) {
        self.subjobs.fetch_add(1, Ordering::Relaxed);
    }

    /// One retry (a dispatch attempt after the first).
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// One hedged duplicate sent to a second replica.
    pub fn record_hedge(&self) {
        self.hedges.fetch_add(1, Ordering::Relaxed);
    }

    /// One job the coordinator executed locally because the cluster
    /// could not (all workers down, or attempts exhausted).
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// One failed health probe.
    pub fn record_probe_failure(&self) {
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as `(name, help, value)` rows for the scrape.
    #[must_use]
    pub fn sampled(&self) -> Vec<(&'static str, &'static str, u64)> {
        vec![
            (
                "ermes_cluster_subjobs_total",
                "Subjob dispatch attempts sent to workers",
                self.subjobs.load(Ordering::Relaxed),
            ),
            (
                "ermes_cluster_retries_total",
                "Subjob dispatch attempts after the first",
                self.retries.load(Ordering::Relaxed),
            ),
            (
                "ermes_cluster_hedges_total",
                "Hedged duplicate dispatches to a second replica",
                self.hedges.load(Ordering::Relaxed),
            ),
            (
                "ermes_cluster_degraded_total",
                "Jobs served locally because the cluster could not",
                self.degraded.load(Ordering::Relaxed),
            ),
            (
                "ermes_cluster_probe_failures_total",
                "Failed worker health probes",
                self.probe_failures.load(Ordering::Relaxed),
            ),
        ]
    }

    /// Current degraded-jobs count (for `/healthz`).
    #[must_use]
    pub fn degraded_total(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// Malformed `x-ermes-trace` headers seen by this process. Global (not
/// per-`Metrics`) because the parse site — `cluster::parse_trace_header`
/// — runs on connection threads with no `Metrics` handle in reach, and
/// a process only ever has one answer to "how often are peers sending
/// me garbage trace headers".
static TRACE_HEADER_INVALID: AtomicU64 = AtomicU64::new(0);

/// Counts one present-but-unparsable `x-ermes-trace` header.
pub fn record_trace_header_invalid() {
    TRACE_HEADER_INVALID.fetch_add(1, Ordering::Relaxed);
}

/// Malformed `x-ermes-trace` headers seen so far (monotone).
#[must_use]
pub fn trace_header_invalid_total() -> u64 {
    TRACE_HEADER_INVALID.load(Ordering::Relaxed)
}

/// Rewrites a worker's Prometheus exposition for federation into the
/// coordinator's scrape: every sample line gains `node="<addr>"` as its
/// first label; comment (`# HELP`/`# TYPE`) and blank lines are dropped
/// (the coordinator's own exposition already carries the metadata for
/// shared metric names, and repeating it per node would say nothing
/// new). Metric names never contain `{`, so the first `{` on a line is
/// the label-set opener.
#[must_use]
pub fn federate_exposition(node: &str, exposition: &str) -> String {
    let mut out = String::with_capacity(exposition.len() + 64);
    let _ = writeln!(out, "# federated from worker {node}");
    for line in exposition.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(brace) = line.find('{') {
            let (name, rest) = line.split_at(brace);
            // rest = `{existing_labels} value`
            let _ = writeln!(out, "{name}{{node=\"{node}\",{}", &rest[1..]);
        } else if let Some((name, value)) = line.split_once(' ') {
            let _ = writeln!(out, "{name}{{node=\"{node}\"}} {value}");
        }
        // A line with neither labels nor a value separator is not a
        // sample; drop it rather than forward garbage.
    }
    out
}

/// Cumulative bucket counts plus sum/count for one endpoint.
#[derive(Debug, Default, Clone)]
struct EndpointHistogram {
    buckets: [u64; LATENCY_BUCKETS.len() + 1],
    sum_micros: u64,
    count: u64,
}

impl Metrics {
    /// A zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one finished request.
    pub fn record_request(&self, endpoint: &'static str, status: u16) {
        *self
            .requests
            .lock()
            .expect("metrics poisoned")
            .entry((endpoint, status))
            .or_insert(0) += 1;
    }

    /// Records the service latency (arrival to response ready) of one
    /// analysis request, both in the aggregate histogram and under the
    /// request's endpoint label.
    pub fn observe_latency(&self, endpoint: &'static str, elapsed: Duration) {
        let seconds = elapsed.as_secs_f64();
        let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        for (i, &bound) in LATENCY_BUCKETS.iter().enumerate() {
            if seconds <= bound {
                self.latency_buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.latency_buckets[LATENCY_BUCKETS.len()].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);

        let mut per_endpoint = self.endpoint_latency.lock().expect("metrics poisoned");
        let h = per_endpoint.entry(endpoint).or_default();
        for (i, &bound) in LATENCY_BUCKETS.iter().enumerate() {
            if seconds <= bound {
                h.buckets[i] += 1;
            }
        }
        h.buckets[LATENCY_BUCKETS.len()] += 1;
        h.sum_micros += micros;
        h.count += 1;
    }

    /// Counts one load-shed rejection (`queue_full` distinguishes a full
    /// queue from an expired deadline).
    pub fn record_shed(&self, queue_full: bool) {
        if queue_full {
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shed_deadline.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one job cancelled mid-execution by its expired deadline.
    pub fn record_cancelled_deadline(&self) {
        self.cancelled_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one job cancelled mid-execution by a client disconnect.
    pub fn record_cancelled_disconnect(&self) {
        self.cancelled_disconnect.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one job that panicked on its worker.
    pub fn record_job_panicked(&self) {
        self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests recorded, across endpoints and statuses.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.requests
            .lock()
            .expect("metrics poisoned")
            .values()
            .sum()
    }

    /// Renders the Prometheus text exposition. `gauges` supplies the
    /// point-in-time values sampled by the server at scrape time
    /// (queue depth, cache aggregates, …) and `sampled_counters` the
    /// monotone counters owned elsewhere and read at scrape time (worker
    /// restarts live in the pool), each as `(metric_name, help, value)`.
    #[must_use]
    pub fn render(
        &self,
        gauges: &[(&str, &str, f64)],
        sampled_counters: &[(&str, &str, u64)],
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP ermesd_requests_total Requests served, by endpoint and status.\n\
             # TYPE ermesd_requests_total counter"
        );
        for ((endpoint, status), count) in self.requests.lock().expect("metrics poisoned").iter() {
            let _ = writeln!(
                out,
                "ermesd_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP ermesd_request_seconds Service latency of analysis requests (arrival to response ready).\n\
             # TYPE ermesd_request_seconds histogram"
        );
        for (i, &bound) in LATENCY_BUCKETS.iter().enumerate() {
            let _ = writeln!(
                out,
                "ermesd_request_seconds_bucket{{le=\"{bound}\"}} {}",
                self.latency_buckets[i].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "ermesd_request_seconds_bucket{{le=\"+Inf\"}} {}",
            self.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "ermesd_request_seconds_sum {}",
            self.latency_sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "ermesd_request_seconds_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );
        // The same histogram broken out per endpoint; the unlabelled
        // aggregate above is kept for existing dashboards.
        for (endpoint, h) in self
            .endpoint_latency
            .lock()
            .expect("metrics poisoned")
            .iter()
        {
            for (i, &bound) in LATENCY_BUCKETS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "ermesd_request_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{bound}\"}} {}",
                    h.buckets[i]
                );
            }
            let _ = writeln!(
                out,
                "ermesd_request_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {}",
                h.buckets[LATENCY_BUCKETS.len()]
            );
            let _ = writeln!(
                out,
                "ermesd_request_seconds_sum{{endpoint=\"{endpoint}\"}} {}",
                h.sum_micros as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "ermesd_request_seconds_count{{endpoint=\"{endpoint}\"}} {}",
                h.count
            );
        }
        for (name, help, counter) in [
            (
                "ermesd_shed_queue_full_total",
                "Requests rejected with 429 because the admission queue was full.",
                &self.shed_queue_full,
            ),
            (
                "ermesd_shed_deadline_total",
                "Requests rejected with 429 because their deadline expired while queued.",
                &self.shed_deadline,
            ),
            (
                "ermesd_cancelled_deadline_total",
                "Jobs cancelled mid-execution because their deadline expired.",
                &self.cancelled_deadline,
            ),
            (
                "ermesd_cancelled_disconnect_total",
                "Jobs cancelled mid-execution because the client disconnected.",
                &self.cancelled_disconnect,
            ),
            (
                "ermesd_jobs_panicked_total",
                "Jobs that panicked on their worker (caught; worker respawned).",
                &self.jobs_panicked,
            ),
        ] {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        for (name, help, value) in sampled_counters {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        }
        for (name, help, value) in gauges {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
            );
        }
        out
    }
}

/// Opens up the design LRU: one `ermes_cache_entries` gauge and one
/// `ermes_cache_evictions_total` counter per decoded spec body, labelled
/// with the body's FNV-1a fingerprint.
pub(crate) fn render_per_design_cache(per_design: &[(String, usize, u64)]) -> String {
    let mut out = String::new();
    if per_design.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "# HELP ermes_cache_entries Memoized results stored, per base design.\n\
         # TYPE ermes_cache_entries gauge"
    );
    for (design, entries, _) in per_design {
        let _ = writeln!(out, "ermes_cache_entries{{design=\"{design}\"}} {entries}");
    }
    let _ = writeln!(
        out,
        "# HELP ermes_cache_evictions_total Engine-cache LRU evictions, per base design.\n\
         # TYPE ermes_cache_evictions_total counter"
    );
    for (design, _, evictions) in per_design {
        let _ = writeln!(
            out,
            "ermes_cache_evictions_total{{design=\"{design}\"}} {evictions}"
        );
    }
    out
}

/// Renders the engine's per-phase time histograms
/// (`ermes_phase_seconds{phase=...}`) from the tracing layer's
/// process-wide aggregates. Phases are span names (`howard`, `ilp`,
/// `chanorder`, `cache`, …); buckets are [`LATENCY_BUCKETS`].
#[must_use]
pub fn render_phase_histograms() -> String {
    let phases = trace::phase_snapshot();
    if phases.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP ermes_phase_seconds Engine time per phase (span durations from the tracing layer).\n\
         # TYPE ermes_phase_seconds histogram"
    );
    for p in &phases {
        let mut cumulative = 0u64;
        for (i, &bound) in trace::LATENCY_BUCKETS.iter().enumerate() {
            cumulative += p.buckets[i];
            let _ = writeln!(
                out,
                "ermes_phase_seconds_bucket{{phase=\"{}\",le=\"{bound}\"}} {cumulative}",
                p.phase
            );
        }
        let _ = writeln!(
            out,
            "ermes_phase_seconds_bucket{{phase=\"{}\",le=\"+Inf\"}} {}",
            p.phase, p.count
        );
        let _ = writeln!(
            out,
            "ermes_phase_seconds_sum{{phase=\"{}\"}} {}",
            p.phase, p.sum_seconds
        );
        let _ = writeln!(
            out,
            "ermes_phase_seconds_count{{phase=\"{}\"}} {}",
            p.phase, p.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counters_accumulate_per_endpoint_and_status() {
        let m = Metrics::new();
        m.record_request("analyze", 200);
        m.record_request("analyze", 200);
        m.record_request("analyze", 400);
        m.record_request("explore", 200);
        assert_eq!(m.total_requests(), 4);
        let text = m.render(&[], &[]);
        assert!(
            text.contains("ermesd_requests_total{endpoint=\"analyze\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(text.contains("ermesd_requests_total{endpoint=\"analyze\",status=\"400\"} 1"));
        assert!(text.contains("ermesd_requests_total{endpoint=\"explore\",status=\"200\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe_latency("analyze", Duration::from_micros(200)); // ≤ 0.00025 …
        m.observe_latency("analyze", Duration::from_millis(30)); // ≤ 0.05 …
        let text = m.render(&[], &[]);
        assert!(
            text.contains("ermesd_request_seconds_bucket{le=\"0.0001\"} 0"),
            "{text}"
        );
        assert!(text.contains("ermesd_request_seconds_bucket{le=\"0.00025\"} 1"));
        assert!(text.contains("ermesd_request_seconds_bucket{le=\"0.05\"} 2"));
        assert!(text.contains("ermesd_request_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ermesd_request_seconds_count 2"));
    }

    #[test]
    fn per_endpoint_histograms_ride_alongside_the_aggregate() {
        let m = Metrics::new();
        m.observe_latency("sweep", Duration::from_millis(30));
        m.observe_latency("analyze", Duration::from_micros(200));
        let text = m.render(&[], &[]);
        // Aggregate (unlabelled) series is unchanged…
        assert!(
            text.contains("ermesd_request_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        // …and each endpoint gets its own full histogram.
        assert!(text.contains("ermesd_request_seconds_bucket{endpoint=\"sweep\",le=\"0.05\"} 1"));
        assert!(text.contains("ermesd_request_seconds_bucket{endpoint=\"sweep\",le=\"+Inf\"} 1"));
        assert!(text.contains("ermesd_request_seconds_count{endpoint=\"sweep\"} 1"));
        assert!(
            text.contains("ermesd_request_seconds_bucket{endpoint=\"analyze\",le=\"0.00025\"} 1")
        );
        assert!(text.contains("ermesd_request_seconds_count{endpoint=\"analyze\"} 1"));
    }

    #[test]
    fn shed_counters_split_by_cause() {
        let m = Metrics::new();
        m.record_shed(true);
        m.record_shed(true);
        m.record_shed(false);
        let text = m.render(&[], &[]);
        assert!(text.contains("ermesd_shed_queue_full_total 2"), "{text}");
        assert!(text.contains("ermesd_shed_deadline_total 1"));
    }

    #[test]
    fn gauges_render_with_help_and_type() {
        let m = Metrics::new();
        let text = m.render(
            &[("ermesd_queue_depth", "Jobs waiting.", 3.0)],
            &[(
                "ermes_worker_restarts_total",
                "Workers respawned after a panic.",
                2,
            )],
        );
        assert!(text.contains("# TYPE ermesd_queue_depth gauge"), "{text}");
        assert!(text.contains("ermesd_queue_depth 3"));
        assert!(
            text.contains("# TYPE ermes_worker_restarts_total counter"),
            "{text}"
        );
        assert!(text.contains("ermes_worker_restarts_total 2"));
    }

    #[test]
    fn federation_injects_the_node_label_first_and_drops_comments() {
        let worker = "# HELP ermesd_requests_total Requests served.\n\
                      # TYPE ermesd_requests_total counter\n\
                      ermesd_requests_total{endpoint=\"analyze\",status=\"200\"} 7\n\
                      ermesd_queue_depth 3\n\
                      \n\
                      not-a-sample-line\n";
        let federated = federate_exposition("10.0.0.7:7891", worker);
        assert!(
            federated.starts_with("# federated from worker 10.0.0.7:7891\n"),
            "{federated}"
        );
        assert!(federated.contains(
            "ermesd_requests_total{node=\"10.0.0.7:7891\",endpoint=\"analyze\",status=\"200\"} 7"
        ));
        assert!(federated.contains("ermesd_queue_depth{node=\"10.0.0.7:7891\"} 3"));
        assert!(!federated.contains("# HELP"), "comments dropped");
        assert!(!federated.contains("not-a-sample"), "non-samples dropped");
    }

    #[test]
    fn invalid_trace_header_counter_is_monotone() {
        let before = trace_header_invalid_total();
        record_trace_header_invalid();
        record_trace_header_invalid();
        assert!(trace_header_invalid_total() >= before + 2);
    }

    #[test]
    fn cancellation_and_panic_counters_render() {
        let m = Metrics::new();
        m.record_cancelled_deadline();
        m.record_cancelled_deadline();
        m.record_cancelled_disconnect();
        m.record_job_panicked();
        let text = m.render(&[], &[]);
        assert!(text.contains("ermesd_cancelled_deadline_total 2"), "{text}");
        assert!(text.contains("ermesd_cancelled_disconnect_total 1"));
        assert!(text.contains("ermesd_jobs_panicked_total 1"));
    }
}
