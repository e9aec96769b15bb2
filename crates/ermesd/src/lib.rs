//! `ermesd` — the ERMES analysis service.
//!
//! The DAC'14 methodology is an *iterative* CAD loop: designers analyze,
//! reorder, re-select, and re-analyze against an evolving spec. Run as a
//! one-shot CLI, every invocation pays the full cost from a cold start;
//! run as a long-lived daemon, the memoized engine ([`ermes::EngineCache`])
//! amortizes across requests — the same serving architecture as an
//! inference stack: request admission, a cached backend, observability.
//!
//! The crate has three layers:
//!
//! - **Front end** ([`json`], [`spec`], [`commands`]): the on-disk JSON
//!   system-spec format and the pure command functions (`analyze`,
//!   `order`, `explore`, `sweep`, …). These moved here from `ermes-cli`
//!   (which re-exports them unchanged) so both the CLI and the daemon
//!   share one implementation — responses are **bit-identical** to the
//!   corresponding CLI invocation by construction.
//! - **Transport** ([`http`]): a hand-rolled HTTP/1.1 request parser and
//!   response writer on `std::net` only, per the workspace's
//!   no-unjustified-dependencies rule (no tokio, no hyper).
//! - **Service** ([`server`], [`metrics`]): a fixed worker pool over a
//!   bounded queue ([`parx::Pool`]) with load-shedding `429`s when the
//!   queue is full, per-request deadlines, a shared cross-request LRU of
//!   per-design [`ermes::EngineCache`]s, Prometheus-text `/metrics`, and
//!   graceful drain-on-shutdown.
//!
//! # Fault tolerance
//!
//! Long-running jobs are **cooperatively cancellable**: each request
//! carries a [`parx::CancelToken`] that self-cancels when the request
//! deadline passes and is cancelled by the server when the client hangs
//! up mid-run; the engine polls it at iteration boundaries, so a doomed
//! job frees its worker within one iteration instead of running to
//! completion. A mid-run deadline maps to `429` (with `retry-after` and
//! an `x-ermes-progress: completed/total` header), a disconnect to
//! `499`. A job that *panics* is isolated: the pool catches the panic,
//! respawns the worker, and only that request sees a `500`; the restart
//! shows up in `ermes_worker_restarts_total` and on `/healthz`. The
//! failure paths are exercised by a deterministic fault-injection
//! harness ([`parx::faultpoint`], env `ERMES_FAULTPOINTS`) that is
//! compiled into the production binary.
//!
//! # Cluster mode
//!
//! `ermesd --coordinator --workers host:port,...` turns a daemon into a
//! **coordinator** over a fleet of plain worker daemons ([`cluster`]):
//! `/explore` forwards whole requests and `/sweep` fans each ladder
//! target out as a `/shard/sweeppoint` subjob, placed on a
//! consistent-hash ring keyed by `(spec, target)` so repeat work lands
//! on warm worker caches. Robustness is layered: background `/healthz`
//! probes with hysteresis (up → suspect → down), per-subjob timeouts
//! with capped-exponential-backoff retries onto the next ring replica,
//! hedged dispatch for stragglers, and — when the cluster cannot serve
//! a job at all — degraded in-process execution. Because every subjob
//! is deterministic and the coordinator reassembles exact *values*
//! (re-rendered by the same code as the CLI), responses stay
//! **bit-identical to a single-node daemon** at any worker count, retry
//! schedule, or mid-job worker failure.
//!
//! Observability spans the fleet too: with tracing enabled the
//! coordinator asks each worker to append its subjob span tree to the
//! response (a trailer stripped before bytes reach the client) and
//! grafts it under the dispatching span with clock-offset alignment, so
//! `GET /trace` shows one cluster-wide tree whose nodes carry `host`
//! attributes, with retries and hedges as `winner`/`loser` sibling
//! subtrees. `GET /metrics` federates every worker's samples under a
//! `node` label next to the coordinator's own.
//!
//! # Endpoints
//!
//! | Route | Body | Response |
//! |---|---|---|
//! | `POST /analyze` | spec JSON | `ermes analyze` stdout |
//! | `POST /order` | spec JSON | `ermes order` stdout (report + ordered spec) |
//! | `POST /explore?target=N[&jobs=J]` | spec JSON | `ermes explore` stdout (sans cache-stats line) + explored spec |
//! | `POST /sweep?targets=a,b,c[&jobs=J]` | spec JSON | `ermes sweep` stdout (sans cache-stats line); at most [`server::MAX_SWEEP_TARGETS`] targets |
//! | `POST /verify` | spec JSON | `ermes verify` stdout (deadlock certificate or counterexample) |
//! | `POST /shard/sweeppoint?target=N` | spec JSON | one sweep point in exact-value wire form (cluster-internal) |
//! | `POST /session` | spec JSON | full analysis + `x-ermes-session: {id}` header |
//! | `POST /session/{id}/edit` | edit JSON | full analysis after the edit, computed incrementally |
//! | `POST /session/{id}/verify` | — | certificate/counterexample for the session's current design |
//! | `DELETE /session/{id}` | — | closes the session |
//! | `GET /healthz` | — | `ok` + worker liveness, restart count, trace-journal occupancy |
//! | `GET /metrics` | — | Prometheus text format (coordinator federates worker samples under a `node` label) |
//! | `GET /trace` | — | recent span trees as JSON (`?n=` to bound) |
//! | `GET /trace/slow` | — | tail-sampled flight recorder: trees retained for slow/errored/degraded/retried requests |
//! | `POST /shutdown` | — | acknowledges, then drains in-flight work and exits |
//!
//! # Sessions
//!
//! The stateless endpoints re-run the full spec-parse → lower → analyze
//! pipeline per request. An *interactive* client — an IDE plugin, a
//! designer iterating on one system — edits one knob at a time, so the
//! daemon also offers stateful sessions: `POST /session` pins an
//! [`ermes::DeltaState`] server-side and every
//! `POST /session/{id}/edit` (`{"reselect": {"process": p, "point": n}}`
//! or `{"reorder": {"process": p, "gets": [...], "puts": [...]}}`)
//! re-analyzes incrementally — only the strongly connected components a
//! reselect's latency change touches are re-solved, and a reorder
//! rebuilds with untouched components reused. Every edit response is
//! bit-identical to `POST /analyze` on a spec capturing the session's
//! post-edit design; it is just computed in microseconds instead of
//! re-running the pipeline. Sessions live in an LRU bounded by
//! [`ServerConfig::session_capacity`]; edits follow the same deadline,
//! cancellation, and panic-isolation rules as stateless requests (a
//! panicked edit drops only its own session).
//!
//! The CLI's per-run cache-statistics line is deliberately absent from
//! daemon responses: under a shared warm cache those counters depend on
//! request history, which would break the bit-identity contract. The
//! same information is served, aggregated, at `GET /metrics`.
//!
//! ```no_run
//! let server = ermesd::Server::start(ermesd::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ermesd::ServerConfig::default()
//! })?;
//! println!("listening on {}", server.addr());
//! server.run()?; // blocks until POST /shutdown, then drains
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod commands;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
mod session;
pub mod spec;

pub use cluster::ClusterConfig;
pub use commands::{
    analyze_design, cmd_analyze, cmd_buffers, cmd_dot, cmd_explore, cmd_fsm, cmd_order, cmd_refine,
    cmd_simulate, cmd_simulate_traced, cmd_stalls, cmd_sweep, cmd_verify, explore_design,
    parse_spec, render_session_report, render_verify_system, sweep_design, CliError,
};
pub use server::{Server, ServerConfig};
pub use spec::{ChannelSpec, ParetoPointSpec, ProcessSpec, SpecError, SystemSpec};
