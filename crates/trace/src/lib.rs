//! `trace` — dependency-free engine tracing for the ERMES workspace.
//!
//! The DAC'14 methodology is an iterative loop (analyze → extract critical
//! cycle → ILP selection → channel reordering); knowing *where* a slow sweep
//! spends its time requires per-phase evidence, not just the end-to-end
//! latency the service measures at its HTTP boundary. This crate provides
//! that evidence with zero dependencies and near-zero disabled cost:
//!
//! - **Spans** ([`span`]) are RAII guards around a phase of work. Opening a
//!   span when tracing is disabled is a single relaxed atomic load and a
//!   branch — cheap enough to leave in the hot paths of `tmg::howard`,
//!   `ilp`, and the exploration loop unconditionally.
//! - **Attributes** ([`attr`]) attach structured `key=value` pairs to the
//!   innermost open span (`scc=3 nodes=41 iters=7`, `cache=hit`).
//! - **Context propagation** ([`current_context`] / [`adopt`]) carries the
//!   (trace id, parent span id) pair across threads so work fanned out via
//!   `parx::par_map` or a `parx::Pool` reassembles into one tree per job.
//! - **The journal** ([`ring::Journal`]) is a bounded ring buffer of closed
//!   spans: a lock-free `fetch_add` cursor claims slots, per-slot mutexes
//!   make each record's write atomic with respect to readers (no torn
//!   records, no `unsafe`), and old records are overwritten FIFO.
//! - **Per-phase histograms** ([`phase_snapshot`]) aggregate span durations
//!   into the same log-spaced buckets `ermesd` uses for request latency, so
//!   the daemon can export `ermes_phase_seconds{phase=...}` without keeping
//!   every span.
//! - **Exports**: [`chrome_trace`] renders records as Chrome-trace JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>);
//!   [`assemble_trees`] rebuilds span trees for the daemon's `/trace`
//!   endpoint; [`summary_report`] prints a per-phase table with quantiles,
//!   cache hit rate, and the slowest SCCs.
//!
//! Spans are recorded when they *close*, which the RAII guard guarantees
//! even during unwinding: a panicking job closes its open spans (tagged
//! `outcome=panic`) before `parx::Pool`'s `catch_unwind` sees the payload,
//! so a crashed or cancelled job still yields a well-formed, truncated tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod folded;
pub mod phase;
pub mod ring;
mod summary;
mod tree;
pub mod wire;

pub use folded::folded_stacks;
pub use phase::{phase_snapshot, PhaseSnapshot, QuantileEstimate, LATENCY_BUCKETS};
pub use ring::Journal;
pub use summary::summary_report;
pub use tree::{assemble_trees, SpanTree};
pub use wire::{WireError, TRAILER_MARKER, WIRE_VERSION};

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default capacity (in spans) of the global journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 16_384;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Turn tracing on or off process-wide.
///
/// While disabled (the default), [`span`] and [`attr`] are a relaxed
/// atomic load and a branch; nothing is allocated or recorded.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the clock epoch before the first span so timestamps are
        // comparable across threads from the first record on.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed span, as stored in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Id of the root span of the tree this span belongs to.
    pub trace_id: u64,
    /// This span's unique id (process-wide, never reused).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Phase name (static so hot paths never allocate for it).
    pub name: &'static str,
    /// Start time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End time, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Trace-local id of the thread the span ran on.
    pub thread: u64,
    /// Structured `key=value` attributes, in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Value of attribute `key`, if present (last write wins).
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

struct Frame {
    trace_id: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
    /// True for frames pushed by [`adopt`]: they carry a remote parent for
    /// child spans but are never recorded themselves.
    adopted: bool,
}

struct ThreadState {
    tid: u64,
    stack: Vec<Frame>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState {
        tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
    });
}

/// RAII guard for an open span; the span is recorded when this drops.
///
/// Guards must be kept in a local so they nest lexically (LIFO); the
/// journal records children before their parents as a consequence.
#[must_use = "a span is measured between its creation and its drop"]
pub struct Span {
    armed: bool,
}

/// Open a span named `name` under the innermost open span (or as a root).
///
/// When tracing is disabled this returns an inert guard without touching
/// thread-local state.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let (trace_id, parent) = match s.stack.last() {
            Some(f) => (f.trace_id, f.id),
            None => (id, 0),
        };
        s.stack.push(Frame {
            trace_id,
            id,
            parent,
            name,
            start_ns,
            attrs: Vec::new(),
            adopted: false,
        });
    });
    Span { armed: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = now_ns();
        let record = STATE.with(|s| {
            let mut s = s.borrow_mut();
            // Defensive: only pop our own (non-adopted) frame. A mismatch
            // would mean a leaked guard; losing one record beats panicking
            // inside a destructor that may already be unwinding.
            if !matches!(s.stack.last(), Some(f) if !f.adopted) {
                return None;
            }
            let mut f = s.stack.pop().expect("checked non-empty");
            if std::thread::panicking() && f.attrs.iter().all(|(k, _)| *k != "outcome") {
                f.attrs.push(("outcome", "panic".to_owned()));
            }
            Some(SpanRecord {
                trace_id: f.trace_id,
                id: f.id,
                parent: f.parent,
                name: f.name,
                start_ns: f.start_ns,
                end_ns,
                thread: s.tid,
                attrs: f.attrs,
            })
        });
        if let Some(record) = record {
            phase::observe(record.name, record.duration_ns());
            if record.parent == 0 {
                // A trace just completed: let the flight recorder decide
                // whether to keep its tree, while the root is in hand and
                // its descendants are all in the journal.
                flight::consider(&record);
            }
            journal().push(record);
        }
    }
}

/// Attach `key=value` to the innermost open (non-adopted) span.
///
/// A no-op when tracing is disabled or no span is open.
pub fn attr(key: &'static str, value: impl fmt::Display) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        if let Some(f) = s.borrow_mut().stack.iter_mut().rev().find(|f| !f.adopted) {
            f.attrs.push((key, value.to_string()));
        }
    });
}

/// A (trace id, parent span id) pair capturing "where we are" in a trace,
/// for hand-off to another thread. `Copy` and 16 bytes, so capturing one
/// per job is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Context {
    trace_id: u64,
    parent: u64,
}

impl Context {
    /// The empty context: adopting it is a no-op.
    #[must_use]
    pub const fn none() -> Self {
        Context {
            trace_id: 0,
            parent: 0,
        }
    }

    /// Whether this context carries an active trace position.
    #[must_use]
    pub const fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// Rebuilds a context from raw identifiers — the receiving end of
    /// cross-node propagation (ermesd's `x-ermes-trace` header carries
    /// `trace_id/span_id`). A zero `trace_id` yields the inactive
    /// context, so adopting an unparsed header is a no-op.
    #[must_use]
    pub const fn from_parts(trace_id: u64, parent: u64) -> Self {
        Context { trace_id, parent }
    }

    /// The trace this context belongs to (0 when inactive).
    #[must_use]
    pub const fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span id new children should parent under (0 when inactive).
    #[must_use]
    pub const fn parent(&self) -> u64 {
        self.parent
    }
}

/// Capture the current trace position for another thread to [`adopt`].
#[must_use]
pub fn current_context() -> Context {
    if !enabled() {
        return Context::none();
    }
    STATE.with(|s| {
        s.borrow()
            .stack
            .last()
            .map_or(Context::none(), |f| Context {
                trace_id: f.trace_id,
                parent: f.id,
            })
    })
}

/// Guard for an adopted [`Context`]; restores the previous position on drop.
#[must_use = "the context is adopted only while the guard lives"]
pub struct Adopted {
    armed: bool,
}

/// Make spans opened on this thread children of `ctx` while the returned
/// guard lives. Used by `parx` so pool workers parent their spans under
/// the submitting job's span.
pub fn adopt(ctx: Context) -> Adopted {
    if !enabled() || !ctx.is_active() {
        return Adopted { armed: false };
    }
    STATE.with(|s| {
        s.borrow_mut().stack.push(Frame {
            trace_id: ctx.trace_id,
            id: ctx.parent,
            parent: 0,
            name: "",
            start_ns: 0,
            attrs: Vec::new(),
            adopted: true,
        });
    });
    Adopted { armed: true }
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if matches!(s.stack.last(), Some(f) if f.adopted) {
                s.stack.pop();
            }
        });
    }
}

fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(|| Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY))
}

/// Snapshot the global journal, oldest record first.
#[must_use]
pub fn snapshot() -> Vec<SpanRecord> {
    journal().snapshot()
}

/// Total spans recorded since process start (including overwritten ones).
#[must_use]
pub fn spans_recorded() -> u64 {
    journal().pushed()
}

/// Clear the journal, the per-phase histograms, and the flight recorder
/// (tests and benchmarks).
pub fn reset() {
    journal().clear();
    phase::reset();
    flight::reset();
}

/// Journal occupancy as `(live records, capacity)`, for health reporting.
#[must_use]
pub fn journal_occupancy() -> (usize, usize) {
    let j = journal();
    (j.live(), j.capacity())
}

/// Render the Chrome-trace JSON for every record currently in the journal.
#[must_use]
pub fn chrome_trace() -> String {
    chrome::chrome_trace(&snapshot())
}

/// Assemble the last `n` completed span trees from the journal, oldest
/// first. A tree is complete when its root span has closed; because guards
/// close during unwinding, cancelled and panicked jobs still appear here.
#[must_use]
pub fn completed_trees(n: usize) -> Vec<SpanTree> {
    tree::assemble_trees(&snapshot(), n)
}

/// Render the last `n` completed trees as collapsed stacks for
/// flamegraph tooling (see [`folded::folded_stacks`]).
#[must_use]
pub fn folded_trace(n: usize) -> String {
    folded::folded_stacks(&completed_trees(n))
}

/// Assemble the subtree rooted at span `root_id` from the journal, if
/// that span has closed.
///
/// This is how a worker daemon extracts *its* part of a distributed
/// trace: the worker's request span is adopted under the coordinator's
/// context, so it is not a trace root ([`completed_trees`] skips it),
/// but its id — captured via [`current_context`] while it was open —
/// names exactly the subtree this node produced.
///
/// Only the root's trace is copied out of the journal: one pass finds
/// the root, a second clones the records of its trace, the only ones a
/// subtree can hold.
#[must_use]
pub fn subtree(root_id: u64) -> Option<SpanTree> {
    subtree_in(journal(), root_id)
}

fn subtree_in(journal: &Journal, root_id: u64) -> Option<SpanTree> {
    let root = journal.snapshot_where(|r| r.id == root_id).pop()?;
    let records = journal.snapshot_where(|r| r.trace_id == root.trace_id);
    Some(tree::subtree_of(&records, root))
}

/// Graft a deserialized remote tree into the local journal under `ctx`.
///
/// `window` is `(send_ns, recv_ns)` of the request/response exchange on
/// *this* node's clock. The two clocks share no epoch ([`now_ns`] counts
/// from each process's own start), so the remote tree is aligned
/// Cristian-style: the offset that maps the remote root's midpoint onto
/// the exchange window's midpoint is applied to every remote timestamp,
/// and each span is then clamped into its (aligned) parent's interval —
/// the window for the root — so the graft is monotonic and properly
/// nested no matter how asymmetric the network delay actually was.
///
/// Every grafted span gets fresh local ids, a `host` attribute naming
/// the remote node, and a remapped trace-local thread id per remote
/// thread. `extra_root_attrs` land on the grafted root (the cluster
/// layer tags `role=winner|loser` there). Grafted spans go straight to
/// the journal and are deliberately *not* folded into the local phase
/// histograms: the remote node already counted them, and the metrics
/// federation path reports them under its `node` label.
///
/// Returns the grafted root's new local span id, or `None` when tracing
/// is disabled or `ctx` is inactive.
pub fn graft_tree(
    tree: &SpanTree,
    ctx: Context,
    window: (u64, u64),
    host: &str,
    extra_root_attrs: &[(&'static str, &str)],
) -> Option<u64> {
    if !enabled() || !ctx.is_active() {
        return None;
    }
    let (send_ns, recv_ns) = window;
    let recv_ns = recv_ns.max(send_ns);
    let local_mid = i128::from(send_ns) + i128::from(recv_ns.saturating_sub(send_ns) / 2);
    let remote_root = &tree.record;
    let remote_mid = i128::from(remote_root.start_ns)
        + i128::from(remote_root.end_ns.saturating_sub(remote_root.start_ns) / 2);
    let offset = local_mid - remote_mid;

    /// The per-graft constants, so the recursive placement only threads
    /// what varies per node (parent id and clamp interval).
    struct Graft<'a> {
        trace_id: u64,
        offset: i128,
        host: &'a str,
        threads: std::collections::HashMap<u64, u64>,
    }

    impl Graft<'_> {
        fn place(
            &mut self,
            node: &SpanTree,
            parent: u64,
            lo: u64,
            hi: u64,
            extra: &[(&'static str, &str)],
        ) -> u64 {
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let align = |t: u64| -> u64 {
                let shifted = i128::from(t) + self.offset;
                let clamped = shifted.clamp(i128::from(lo), i128::from(hi));
                u64::try_from(clamped).unwrap_or(lo)
            };
            let start_ns = align(node.record.start_ns);
            let end_ns = align(node.record.end_ns).max(start_ns);
            let mut attrs = node.record.attrs.clone();
            attrs.push(("host", self.host.to_owned()));
            for (k, v) in extra {
                attrs.push((k, (*v).to_owned()));
            }
            let thread = *self
                .threads
                .entry(node.record.thread)
                .or_insert_with(|| NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
            journal().push(SpanRecord {
                trace_id: self.trace_id,
                id,
                parent,
                name: node.record.name,
                start_ns,
                end_ns,
                thread,
                attrs,
            });
            for child in &node.children {
                self.place(child, id, start_ns, end_ns, &[]);
            }
            id
        }
    }

    let mut graft = Graft {
        trace_id: ctx.trace_id(),
        offset,
        host,
        threads: std::collections::HashMap::new(),
    };
    Some(graft.place(tree, ctx.parent(), send_ns, recv_ns, extra_root_attrs))
}

// The enable flag, journal, and phase registry are process-global;
// serialize tests that use them.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        let before = spans_recorded();
        {
            let _s = span("noop");
            attr("k", 1);
        }
        assert_eq!(spans_recorded(), before);
        assert_eq!(current_context(), Context::none());
    }

    #[test]
    fn nested_spans_close_lifo_and_link_parents() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _root = span("root");
            attr("kind", "test");
            {
                let _mid = span("mid");
                let _leaf = span("leaf");
            }
        }
        set_enabled(false);
        let recs = snapshot();
        assert_eq!(
            recs.iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["leaf", "mid", "root"],
            "children must be recorded before parents (LIFO close)"
        );
        let root = &recs[2];
        let mid = &recs[1];
        let leaf = &recs[0];
        assert_eq!(root.parent, 0);
        assert_eq!(mid.parent, root.id);
        assert_eq!(leaf.parent, mid.id);
        assert!(recs.iter().all(|r| r.trace_id == root.id));
        assert!(leaf.start_ns >= mid.start_ns && mid.start_ns >= root.start_ns);
        assert!(leaf.end_ns <= mid.end_ns && mid.end_ns <= root.end_ns);
        assert_eq!(root.attr("kind"), Some("test"));
    }

    #[test]
    fn adopt_parents_remote_spans_into_one_tree() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _root = span("root");
            let ctx = current_context();
            assert!(ctx.is_active());
            std::thread::spawn(move || {
                let _a = adopt(ctx);
                let _w = span("worker");
            })
            .join()
            .expect("worker thread");
        }
        set_enabled(false);
        let recs = snapshot();
        let root = recs.iter().find(|r| r.name == "root").expect("root");
        let worker = recs.iter().find(|r| r.name == "worker").expect("worker");
        assert_eq!(worker.parent, root.id);
        assert_eq!(worker.trace_id, root.id);
        assert_ne!(worker.thread, root.thread);
    }

    #[test]
    fn context_round_trips_through_raw_parts() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _root = span("root");
            let ctx = current_context();
            // Serialize/deserialize as the cluster's wire header does.
            let wire = format!("{}/{}", ctx.trace_id(), ctx.parent());
            let (t, p) = wire.split_once('/').expect("two fields");
            let rebuilt =
                Context::from_parts(t.parse().expect("trace id"), p.parse().expect("parent"));
            assert_eq!(rebuilt, ctx);
            std::thread::spawn(move || {
                let _a = adopt(rebuilt);
                let _w = span("remote");
            })
            .join()
            .expect("remote thread");
        }
        set_enabled(false);
        let recs = snapshot();
        let root = recs.iter().find(|r| r.name == "root").expect("root");
        let remote = recs.iter().find(|r| r.name == "remote").expect("remote");
        assert_eq!(remote.parent, root.id);
        assert_eq!(remote.trace_id, root.id);
        assert!(!Context::from_parts(0, 9).is_active());
    }

    #[test]
    fn panicking_span_closes_tagged_with_outcome() {
        let _g = guard();
        set_enabled(true);
        reset();
        let res = std::panic::catch_unwind(|| {
            let _s = span("doomed");
            panic!("boom");
        });
        assert!(res.is_err());
        set_enabled(false);
        let recs = snapshot();
        let doomed = recs.iter().find(|r| r.name == "doomed").expect("recorded");
        assert_eq!(doomed.attr("outcome"), Some("panic"));
    }

    #[test]
    fn subtree_extracts_an_adopted_request_from_the_journal() {
        let _g = guard();
        set_enabled(true);
        reset();
        // Simulate the worker side: a request span adopted under a remote
        // coordinator context, with local children.
        let remote = Context::from_parts(777, 42);
        let root_id = std::thread::spawn(move || {
            let _a = adopt(remote);
            let _request = span("request");
            let ctx = current_context();
            {
                let _c = span("howard");
                let _l = span("ilp");
            }
            ctx.parent()
        })
        .join()
        .expect("worker thread");
        set_enabled(false);
        let tree = subtree(root_id).expect("request span closed");
        assert_eq!(tree.record.name, "request");
        assert_eq!(tree.record.trace_id, 777);
        assert_eq!(tree.record.parent, 42, "keeps the remote parent link");
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].record.name, "howard");
        assert_eq!(tree.children[0].children[0].record.name, "ilp");
        assert!(subtree(root_id + 100_000).is_none());
    }

    #[test]
    fn subtree_matches_the_full_snapshot_extraction() {
        let _g = guard();
        set_enabled(true);
        reset();
        // A worker request adopted under `ctx`, with nested engine spans;
        // returns the request span's id.
        fn worker_request(ctx: Context) -> u64 {
            std::thread::spawn(move || {
                let _a = adopt(ctx);
                let _request = span("request");
                let id = current_context().parent();
                attr("endpoint", "shard_sweeppoint");
                {
                    let _t = span("sweep_target");
                    let _h = span("howard");
                }
                let _c = span("cache");
                id
            })
            .join()
            .expect("worker thread")
        }
        // A coordinator fanning out to two in-process workers and, as
        // `ermesd` does, grafting each worker's subtree back under its
        // dispatch span as if from a remote host.
        {
            let _root = span("request");
            for _ in 0..2 {
                let _d = span("dispatch");
                let ctx = current_context();
                let worker = worker_request(ctx);
                let tree = subtree(worker).expect("worker request closed");
                let grafted = graft_tree(&tree, ctx, (now_ns(), now_ns()), "w:1", &[]);
                assert!(grafted.is_some());
            }
        }
        // Concurrent subjobs of one remote coordinator trace on this node,
        // with remote ids far from any local one.
        let remote = Context::from_parts(1 << 40, (1 << 40) + 1);
        worker_request(remote);
        worker_request(remote);
        // An unrelated local trace.
        {
            let _r = span("job");
            let _c = span("inner");
        }
        set_enabled(false);
        let records = snapshot();
        assert!(records.iter().any(|r| r.attr("host") == Some("w:1")));
        // The extraction this one replaces: the whole journal, cloned.
        let oracle = |journal: &Journal, root_id: u64| {
            let records = journal.snapshot();
            let root = records.iter().find(|r| r.id == root_id)?.clone();
            Some(tree::subtree_of(&records, root))
        };
        // Whole journals, and wrapped ones whose overwritten records
        // leave orphans and truncated trees, in two push orders.
        let reversed: Vec<SpanRecord> = records.iter().rev().cloned().collect();
        for order in [&records, &reversed] {
            for capacity in [order.len(), order.len() / 2, order.len() / 3] {
                let journal = Journal::with_capacity(capacity);
                for record in order {
                    journal.push(record.clone());
                }
                for record in journal.snapshot() {
                    let got = subtree_in(&journal, record.id);
                    assert_eq!(got, oracle(&journal, record.id), "root {}", record.name);
                }
                assert!(subtree_in(&journal, u64::MAX).is_none());
            }
        }
    }

    #[test]
    fn graft_aligns_clamps_and_hosts_a_remote_tree() {
        let _g = guard();
        set_enabled(true);
        reset();
        let (dispatch_id, send_ns, recv_ns);
        {
            let _root = span("request");
            {
                let _d = span("dispatch");
                let ctx = current_context();
                dispatch_id = ctx.parent();
                send_ns = now_ns();
                std::thread::sleep(std::time::Duration::from_millis(2));
                recv_ns = now_ns();
                // Remote tree on a clock wildly offset from ours, wider
                // than the exchange window.
                let remote = SpanTree {
                    record: SpanRecord {
                        trace_id: 5,
                        id: 5,
                        parent: 2,
                        name: "remote-request",
                        start_ns: 9_000_000_000,
                        end_ns: 9_900_000_000,
                        thread: 3,
                        attrs: vec![("outcome", "ok".to_owned())],
                    },
                    children: vec![SpanTree {
                        record: SpanRecord {
                            trace_id: 5,
                            id: 6,
                            parent: 5,
                            name: "remote-howard",
                            start_ns: 9_100_000_000,
                            end_ns: 9_200_000_000,
                            thread: 3,
                            attrs: Vec::new(),
                        },
                        children: Vec::new(),
                    }],
                };
                let grafted = graft_tree(
                    &remote,
                    ctx,
                    (send_ns, recv_ns),
                    "10.0.0.7:7891",
                    &[("role", "winner")],
                );
                assert!(grafted.is_some());
            }
        }
        set_enabled(false);
        let trees = completed_trees(1);
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert_eq!(root.record.name, "request");
        let dispatch = &root.children[0];
        assert_eq!(dispatch.record.id, dispatch_id);
        let remote = &dispatch.children[0];
        assert_eq!(remote.record.name, "remote-request");
        assert_eq!(remote.record.attr("host"), Some("10.0.0.7:7891"));
        assert_eq!(remote.record.attr("role"), Some("winner"));
        assert_eq!(remote.record.attr("outcome"), Some("ok"));
        // Aligned into the exchange window on the local clock...
        assert!(remote.record.start_ns >= send_ns && remote.record.end_ns <= recv_ns);
        // ...nested properly under its remote parent after clamping...
        let child = &remote.children[0];
        assert_eq!(child.record.name, "remote-howard");
        assert_eq!(child.record.attr("host"), Some("10.0.0.7:7891"));
        assert_eq!(child.record.attr("role"), None, "extras only on the root");
        assert!(child.record.start_ns >= remote.record.start_ns);
        assert!(child.record.end_ns <= remote.record.end_ns);
        assert!(child.record.start_ns <= child.record.end_ns);
        // ...with a remapped thread id distinct from the local one.
        assert_ne!(remote.record.thread, root.record.thread);
        // Disabled or inactive grafts are no-ops.
        assert!(graft_tree(root, Context::none(), (0, 1), "x", &[]).is_none());
        set_enabled(false);
    }

    #[test]
    fn journal_occupancy_reports_live_and_capacity() {
        let _g = guard();
        set_enabled(true);
        reset();
        let (live0, cap) = journal_occupancy();
        assert_eq!(live0, 0);
        assert_eq!(cap, DEFAULT_JOURNAL_CAPACITY);
        {
            let _s = span("one");
        }
        let (live, _) = journal_occupancy();
        assert_eq!(live, 1);
        set_enabled(false);
        reset();
    }

    #[test]
    fn trees_assemble_from_journal() {
        let _g = guard();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _r = span("job");
            let _c = span("inner");
        }
        set_enabled(false);
        let trees = completed_trees(2);
        assert_eq!(trees.len(), 2);
        for t in &trees {
            assert_eq!(t.record.name, "job");
            assert_eq!(t.children.len(), 1);
            assert_eq!(t.children[0].record.name, "inner");
        }
    }
}
