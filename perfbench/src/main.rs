//! ERMES benchmark: four closed-loop workloads measured end to end, with
//! a traced per-layer split. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing as the
//! program ships it; `--trace 1` alternates untraced and traced slices,
//! half the time each, and reports the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.
//! `--smoke` runs a few operations of each workload both ways and checks
//! the emitted metrics against `BENCHMARK.json`. See `perfbench/README.md`.

mod heap;
mod http;
mod layers;
mod workloads;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use workloads::{Client, Prepared, SpecPath};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// End-to-end metric: name, unit, which way is better.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_heap_mib", "MiB", "lower"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Operations per client per window in `--smoke`.
const SMOKE_OPS: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: Option<&str>| -> Result<f64, String> {
        let text = value(flag)
            .or(default)
            .ok_or_else(|| format!("{flag} is required"))?;
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} takes a non-negative number, got {text:?}"))
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected all or one of {:?}",
            workloads::NAMES
        ));
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    Ok(Args {
        workload: workload.to_string(),
        seed: number("--seed", Some("42"))? as u64,
        seconds: number("--seconds", smoke.then_some("60"))?,
        traced: number("--trace", Some("0"))? != 0.0,
        smoke,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let names: Vec<&'static str> = workloads::NAMES
        .into_iter()
        .filter(|n| args.workload == "all" || args.workload == *n)
        .collect();
    let mut runs = Vec::new();
    for name in names {
        if args.smoke || args.workload == "all" {
            runs.push(run(name, &args, false));
            runs.push(run(name, &args, true));
        } else {
            runs.push(run(name, &args, args.traced));
        }
    }
    if args.smoke {
        smoke_check(&runs);
    }
    let single = runs.len() == 1;
    let mut metrics = String::new();
    for r in &runs {
        for (name, unit, value) in &r.metrics {
            let key = if single {
                (*name).to_string()
            } else {
                format!(
                    "{}{}/{name}",
                    r.workload,
                    if r.traced { "+trace" } else { "" }
                )
            };
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// One workload run's outcome.
struct Run {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// One closed-loop window.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// Most heap bytes live at once while each operation ran, in MiB.
    heap_peaks_mib: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.heap_peaks_mib.extend(other.heap_peaks_mib);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }

    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q)
    }
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// How often the window's heap high-water mark is read and restarted.
const HEAP_TICK: std::time::Duration = std::time::Duration::from_millis(10);

/// Every client runs operations back to back until `seconds` have passed
/// or it has done `max_ops`. Beside them, a sampler reads the heap
/// high-water mark every [`HEAP_TICK`] and restarts it, so each
/// operation's heap peak is the largest reading of the ticks it spans.
fn measure(clients: &mut [Box<dyn Client>], seconds: f64, max_ops: u64, traced: bool) -> Window {
    let cpu_before = cpu_seconds();
    heap::take_peak();
    let start = Instant::now();
    let clients_done = AtomicBool::new(false);
    let (per_client, ticks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut ticks = Vec::new();
            loop {
                let last = clients_done.load(Ordering::Acquire);
                std::thread::sleep(HEAP_TICK);
                let reading = (start.elapsed().as_secs_f64(), heap::take_peak());
                heap::untracked(|| ticks.push(reading));
                if last {
                    return ticks;
                }
            }
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut spans = Vec::new();
                    let mut failed = 0;
                    while (spans.len() as u64) < max_ops && start.elapsed().as_secs_f64() < seconds
                    {
                        let begin = start.elapsed().as_secs_f64();
                        let ok = client.op(traced);
                        let span = (begin, start.elapsed().as_secs_f64());
                        heap::untracked(|| spans.push(span));
                        failed += u64::from(!ok);
                    }
                    (spans, failed)
                })
            })
            .collect();
        let per_client: Vec<(Vec<(f64, f64)>, u64)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        clients_done.store(true, Ordering::Release);
        (per_client, sampler.join().expect("heap sampler panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let failed = per_client.iter().map(|c| c.1).sum();
    let spans = per_client.iter().flat_map(|c| c.0.iter());
    let window = Window {
        attempted: spans.clone().count() as u64,
        latencies_ms: spans.clone().map(|(b, e)| (e - b) * 1e3).collect(),
        heap_peaks_mib: spans.map(|&s| heap_peak_mib(s, &ticks)).collect(),
        failed,
        wall_s,
        cpu_s,
    };
    heap::untracked(|| drop((per_client, ticks)));
    window
}

/// The largest heap reading of the ticks whose intervals overlap
/// `(begin, end)`; tick `i` covers the time since tick `i - 1`.
fn heap_peak_mib((begin, end): (f64, f64), ticks: &[(f64, isize)]) -> f64 {
    let first = ticks.partition_point(|&(t, _)| t <= begin);
    let mut peak = 0;
    for &(t, bytes) in &ticks[first..] {
        peak = peak.max(bytes);
        if t >= end {
            break;
        }
    }
    peak as f64 / (1024.0 * 1024.0)
}

fn run(name: &'static str, args: &Args, traced: bool) -> Run {
    let max_ops = if args.smoke { SMOKE_OPS } else { u64::MAX };
    let repeats = if traced || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..repeats {
        if let Some(previous) = prepared.take() {
            previous.stop();
        }
        let t = Instant::now();
        prepared = Some(workloads::prepare(name, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");
    print_env(name, args, &prepared, traced);
    let result = if traced {
        traced_run(name, args, &mut prepared, max_ops)
    } else {
        untraced_run(name, args, &mut prepared, &setup_s, max_ops)
    };
    prepared.stop();
    print_table(&result);
    result
}

fn untraced_run(
    name: &'static str,
    args: &Args,
    prepared: &mut Prepared,
    setup_s: &[f64],
    max_ops: u64,
) -> Run {
    reset_peak_rss();
    let window = measure(&mut prepared.clients, args.seconds, max_ops, false);
    println!(
        "rss: VmHWM over the window {:.2} MiB (not gated: it depends on which malloc arena grows)",
        peak_rss_mib()
    );
    if window.attempted < 100 {
        println!(
            "note: {} ops, fewer than 100: op_p90_ms is the nearest-rank p90 of that many samples",
            window.attempted
        );
    }
    let metrics = vec![
        ("setup_s", "s", median(setup_s)),
        (
            "ops_per_s",
            "1/s",
            window.completed() as f64 / window.wall_s.max(1e-9),
        ),
        ("op_p50_ms", "ms", window.percentile_ms(0.5)),
        ("op_p90_ms", "ms", window.percentile_ms(0.9)),
        (
            "cpu_ms_per_op",
            "ms",
            window.cpu_s * 1e3 / window.attempted.max(1) as f64,
        ),
        ("peak_heap_mib", "MiB", median(&window.heap_peaks_mib)),
    ];
    Run {
        workload: name,
        traced: false,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
    }
}

/// Counters read from the front daemon's `/metrics` around each traced
/// slice.
const DAEMON_COUNTERS: [&str; 10] = [
    "ermesd_cache_analysis_hits",
    "ermesd_cache_analysis_misses",
    "ermesd_cache_ordering_hits",
    "ermesd_cache_ordering_misses",
    "ermesd_shed_queue_full_total",
    "ermesd_shed_deadline_total",
    "ermes_cluster_subjobs_total",
    "ermes_cluster_retries_total",
    "ermes_cluster_hedges_total",
    "ermes_cluster_degraded_total",
];

/// Untraced and traced slices alternate this many times in a traced run,
/// so drift in host speed falls on both sides of `trace.overhead_ratio`.
const TRACE_SLICES: usize = 4;

fn traced_run(name: &'static str, args: &Args, prepared: &mut Prepared, max_ops: u64) -> Run {
    let slices = if args.smoke { 1 } else { TRACE_SLICES };
    let slice_s = args.seconds / (2 * slices) as f64;
    let was_enabled = trace::enabled();
    let mut untraced = Window::default();
    let mut traced = Window::default();
    let mut split = layers::Split::default();
    let mut ilp = ilp::IlpStats::default();
    let mut counters = [0.0; DAEMON_COUNTERS.len()];
    let mut journal_spans = 0;
    for _ in 0..slices {
        untraced.absorb(measure(&mut prepared.clients, slice_s, max_ops, false));

        trace::set_enabled(true);
        trace::reset();
        let before = (prepared.scrape(), ilp::stats());
        let window = measure(&mut prepared.clients, slice_s, max_ops, true);
        let records = trace::snapshot();
        let phases = trace::phase_snapshot();
        let after = (prepared.scrape(), ilp::stats());
        trace::set_enabled(was_enabled);

        journal_spans += records.len();
        split.add(window.attempted, &records, &phases);
        let delta = after.1.delta_since(&before.1);
        ilp.solves += delta.solves;
        ilp.nodes += delta.nodes;
        ilp.warmstart_hits += delta.warmstart_hits;
        ilp.warmstart_misses += delta.warmstart_misses;
        ilp.presolve_fixed += delta.presolve_fixed;
        if let (Some(before), Some(after)) = (&before.0, &after.0) {
            for (total, counter) in counters.iter_mut().zip(DAEMON_COUNTERS) {
                *total += layers::prom_delta(before, after, counter);
            }
        }
        traced.absorb(window);
    }
    let daemon = |metric: &str| {
        DAEMON_COUNTERS
            .iter()
            .position(|c| *c == metric)
            .map_or(0.0, |i| counters[i])
    };

    let ops = traced.attempted.max(1) as f64;
    let subjobs = daemon("ermes_cluster_subjobs_total") / ops;
    let spec = spec_split(prepared, &split, subjobs);
    let (analysis_hits, analysis_misses, ordering_hits, ordering_misses) = match &prepared.cli_cache
    {
        Some(cache) => {
            let s = *cache.lock().expect("cache counters poisoned");
            (
                s.analysis_hits as f64,
                s.analysis_misses as f64,
                s.ordering_hits as f64,
                s.ordering_misses as f64,
            )
        }
        None => (
            daemon("ermesd_cache_analysis_hits"),
            daemon("ermesd_cache_analysis_misses"),
            daemon("ermesd_cache_ordering_hits"),
            daemon("ermesd_cache_ordering_misses"),
        ),
    };
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let node_lps = (ilp.warmstart_hits + ilp.warmstart_misses) as f64;
    // The operation as the trace sees it: the benchmark's root span, so
    // the harness's own span bookkeeping stays out of the split.
    let mean_op_ms = split.total_ms("op") + split.total_ms("rtt");
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;

    let values: Vec<f64> = vec![
        spec.parse_ms,
        spec.design_ms,
        spec.canon_ms,
        spec.bytes_per_op,
        split.self_ms("chanorder"),
        split.calls("chanorder"),
        split.self_ms("analysis"),
        split.self_ms("howard"),
        split.calls("howard"),
        split.self_ms("cache"),
        ratio(analysis_hits, analysis_hits + analysis_misses),
        (analysis_hits + analysis_misses) / ops,
        ratio(ordering_hits, ordering_hits + ordering_misses),
        (ordering_hits + ordering_misses) / ops,
        split.self_ms("iteration"),
        split.calls("iteration"),
        split.self_ms("ilp"),
        ilp.solves as f64 / ops,
        ilp.nodes as f64 / ops,
        ratio(ilp.warmstart_hits as f64, node_lps),
        node_lps / ops,
        ilp.presolve_fixed as f64 / ops,
        split.self_ms("render"),
        split.total_ms("rtt"),
        split.front_request_ms(),
        split.frontend_ms(),
        daemon("ermesd_shed_queue_full_total") + daemon("ermesd_shed_deadline_total"),
        split.total_ms("reprice"),
        split.count("rebuild") as f64,
        split.self_ms("dispatch"),
        subjobs,
        daemon("ermes_cluster_retries_total"),
        daemon("ermes_cluster_hedges_total"),
        daemon("ermes_cluster_degraded_total"),
        ratio(traced.percentile_ms(0.5), untraced.percentile_ms(0.5)),
        split.unattributed_ms(mean_op_ms),
        split.self_ms("request"),
        split.self_ms("explore") + split.self_ms("sweep_target"),
        split.self_ms("op") + split.self_ms("sweep"),
        ratio(failed as f64, attempted as f64),
    ];
    let metrics = layers::METRICS
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    println!(
        "trace: {} traced ops in {slices} slices (mean {mean_op_ms:.3} ms); {} spans in the \
         histograms, {journal_spans} in the journal; daemon spans are fleet totals \
         (one phase registry in-process)",
        traced.attempted,
        split.spans(),
    );
    Run {
        workload: name,
        traced: true,
        attempted,
        failed,
        metrics,
    }
}

struct SpecSplit {
    parse_ms: f64,
    design_ms: f64,
    canon_ms: f64,
    bytes_per_op: f64,
}

/// The spec layer per operation: the benchmark's own `parse`/`design`
/// spans on the CLI path; on daemon paths, replayed calls on the same
/// body times the calls the daemon makes per request (parse once, design
/// twice, canonicalise once) and per cluster subjob (once each).
fn spec_split(prepared: &Prepared, split: &layers::Split, subjobs: f64) -> SpecSplit {
    match &prepared.spec {
        SpecPath::InProcess(text) => SpecSplit {
            parse_ms: split.self_ms("parse"),
            design_ms: split.self_ms("design"),
            canon_ms: 0.0,
            bytes_per_op: text.len() as f64 * split.calls("parse"),
        },
        SpecPath::Daemon(body) => {
            let spec = ermes_cli::parse_spec(body).expect("the workload spec parses");
            let parse = replay_ms(|| drop(ermes_cli::parse_spec(body)));
            let design = replay_ms(|| drop(spec.to_design()));
            let canon = replay_ms(|| drop(spec.to_json_pretty()));
            SpecSplit {
                parse_ms: parse * (1.0 + subjobs),
                design_ms: design * (2.0 + subjobs),
                canon_ms: canon * (1.0 + subjobs),
                bytes_per_op: body.len() as f64 * (1.0 + subjobs),
            }
        }
        SpecPath::None => SpecSplit {
            parse_ms: 0.0,
            design_ms: 0.0,
            canon_ms: 0.0,
            bytes_per_op: 0.0,
        },
    }
}

/// Median milliseconds of `call` over a few repetitions.
fn replay_ms(mut call: impl FnMut()) -> f64 {
    let budget = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 101 && budget.elapsed().as_secs_f64() < 0.2) {
        let t = Instant::now();
        call();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

fn print_table(run: &Run) {
    println!(
        "{} {}: {} ops attempted, {} failed",
        run.workload,
        if run.traced { "(traced)" } else { "(untraced)" },
        run.attempted,
        run.failed
    );
    for (name, unit, value) in &run.metrics {
        let moves = layers::METRICS
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| format!("  -> {}", m.moves));
        println!("  {name:<30} {value:>16.4} {unit:<8}{moves}");
    }
}

/// The run record: host, source revision, seeds, `--jobs` and pool sizes.
fn print_env(name: &str, args: &Args, prepared: &Prepared, traced: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut line = format!(
        "env: workload={name} trace={} nproc={nproc} git_rev={} source_fnv64={:016x} seed={} soc_design_seed={}",
        u8::from(traced),
        git_revision(),
        source_fingerprint(),
        args.seed,
        workloads::SOC_DESIGN_SEED,
    );
    for (key, value) in &prepared.env {
        let _ = write!(line, " {key}={value}");
    }
    println!("{line}");
}

/// `HEAD`'s commit when run from a git work tree, else `none`.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and bytes of every file under `crates/`, so a
/// result can be tied to its source even outside a git checkout.
fn source_fingerprint() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (clock ticks of the fixed 100 Hz user-space rate).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of the file; the slice starts at field 3.
    (ticks(11) + ticks(12)) / 100.0
}

/// Restarts this process's resident-set high-water mark at its current
/// resident set, so `VmHWM` covers only what follows, not set-up.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        println!("note: cannot reset VmHWM ({e}); the rss line includes set-up");
    }
}

/// Resident-set high-water mark of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--smoke`: every metric `BENCHMARK.json` names is emitted with its
/// unit, nothing failed, and the counts of layers that run are non-zero.
fn smoke_check(runs: &[Run]) {
    let text = std::fs::read_to_string("BENCHMARK.json").expect("read BENCHMARK.json");
    let spec = ermesd::json::parse(&text).expect("BENCHMARK.json parses");
    // (name, unit, better) of each declared metric.
    let declared = |key: &str| -> Vec<[String; 3]> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                ["name", "unit", "better"].map(|f| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .expect("field")
                        .to_string()
                })
            })
            .collect()
    };
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let listed: Vec<[String; 3]> = END_TO_END
        .iter()
        .map(|(n, u, b)| [n, u, b].map(|s| s.to_string()))
        .collect();
    assert_eq!(
        end_to_end, listed,
        "BENCHMARK.json end_to_end differs from the code"
    );
    let listed: Vec<[String; 3]> = layers::METRICS
        .iter()
        .map(|m| [m.name, m.unit, m.better].map(str::to_string))
        .collect();
    assert_eq!(
        per_layer, listed,
        "BENCHMARK.json per_layer differs from the code"
    );

    let mut problems = Vec::new();
    for run in runs {
        let expected = if run.traced { &per_layer } else { &end_to_end };
        let emitted = run.metrics.iter().map(|(n, u, _)| (*n, *u));
        if !emitted.eq(expected.iter().map(|[n, u, _]| (n.as_str(), u.as_str()))) {
            problems.push(format!(
                "{}: emitted metrics differ from BENCHMARK.json",
                run.workload
            ));
        }
        if run.failed != 0 {
            problems.push(format!(
                "{}: {} of {} ops failed",
                run.workload, run.failed, run.attempted
            ));
        }
        if !run.traced {
            continue;
        }
        let value = |name: &str| {
            run.metrics
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.2)
        };
        let must_run: &[&str] = match run.workload {
            "cli-sweep-soc10k" => &["spec.bytes_per_op", "howard.calls", "chanorder.calls"],
            "serve-sweep-mpeg2" => &["ilp.nodes", "ilp.solves", "spec.bytes_per_op"],
            "session-edit-mpeg2" => &["session.reprice_ms", "howard.calls"],
            _ => &["cluster.subjobs_per_op", "spec.bytes_per_op"],
        };
        for name in must_run {
            if value(name) <= 0.0 {
                problems.push(format!("{}: {name} is zero", run.workload));
            }
        }
        if value("error_rate") != 0.0 {
            problems.push(format!("{}: error_rate is not zero", run.workload));
        }
    }
    for problem in &problems {
        println!("smoke: FAIL {problem}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
    println!("smoke: OK ({} runs)", runs.len());
}
