//! Stateful analysis sessions: the store behind `POST /session`,
//! `POST /session/{id}/edit`, and `DELETE /session/{id}`.
//!
//! A session pins an [`ermes::DeltaState`] — the design, its lowered
//! TMG, and the per-SCC analysis — across requests, so an interactive
//! client pays the incremental dirty-SCC cost per edit instead of the
//! full parse → lower → analyze pipeline. The store is an LRU with the
//! same tick-stamp discipline as the server's per-design cache LRU:
//! sessions are touched on every edit and the least recently used one
//! is evicted when a new session would exceed the configured capacity,
//! so daemon memory stays bounded regardless of how many sessions
//! clients open and abandon.
//!
//! Each session's state sits behind its own mutex: edits to one session
//! serialize (they must — the delta analysis is stateful), edits to
//! different sessions run concurrently on the worker pool. A panicked
//! edit poisons only that session's mutex; the server drops the session
//! and every other session keeps working (the same isolation the pool
//! gives stateless requests).

use crate::commands::CliError;
use crate::json::{self, Value};
use ermes::DeltaState;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use sysgraph::{ChannelId, ProcessId};

/// Bounded LRU of live sessions plus the monotone counters served at
/// `GET /metrics` (counters survive session eviction and removal).
#[derive(Debug)]
pub(crate) struct SessionStore {
    inner: Mutex<StoreInner>,
    /// Sessions opened over the server's lifetime.
    pub(crate) opened: AtomicU64,
    /// Edits applied successfully over the server's lifetime.
    pub(crate) edits: AtomicU64,
    /// Sessions closed by an explicit `DELETE`.
    pub(crate) closed: AtomicU64,
    /// Sessions evicted by the LRU bound.
    pub(crate) evicted: AtomicU64,
    /// Sessions dropped because an edit panicked on its worker.
    pub(crate) dropped: AtomicU64,
}

#[derive(Debug)]
struct StoreInner {
    entries: HashMap<u64, (Arc<Mutex<DeltaState>>, u64)>,
    tick: u64,
    next_id: u64,
    capacity: usize,
}

impl SessionStore {
    pub(crate) fn new(capacity: usize) -> SessionStore {
        SessionStore {
            inner: Mutex::new(StoreInner {
                entries: HashMap::new(),
                tick: 0,
                next_id: 1,
                capacity: capacity.max(1),
            }),
            opened: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Stores a freshly opened session, evicting the least recently used
    /// one when at capacity, and returns its id.
    pub(crate) fn insert(&self, state: DeltaState) -> u64 {
        let mut inner = self.inner.lock().expect("session store poisoned");
        inner.tick += 1;
        if inner.entries.len() >= inner.capacity {
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&id, _)| id)
            {
                inner.entries.remove(&oldest);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let tick = inner.tick;
        inner
            .entries
            .insert(id, (Arc::new(Mutex::new(state)), tick));
        self.opened.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// The session for `id`, touched for LRU purposes; `None` when the
    /// id is unknown (never issued, closed, evicted, or dropped).
    pub(crate) fn get(&self, id: u64) -> Option<Arc<Mutex<DeltaState>>> {
        let mut inner = self.inner.lock().expect("session store poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.get_mut(&id).map(|(state, stamp)| {
            *stamp = tick;
            Arc::clone(state)
        })
    }

    /// Removes `id`; true when it was live. `counter` receives the
    /// removal (the closed or dropped tally, depending on the cause).
    pub(crate) fn remove(&self, id: u64, counter: &AtomicU64) -> bool {
        let removed = self
            .inner
            .lock()
            .expect("session store poisoned")
            .entries
            .remove(&id)
            .is_some();
        if removed {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of live sessions.
    pub(crate) fn live(&self) -> usize {
        self.inner
            .lock()
            .expect("session store poisoned")
            .entries
            .len()
    }
}

/// One parsed `POST /session/{id}/edit` body. Element names are
/// resolved against the session's design only once the edit job holds
/// the session lock, so a stale name maps to a clean client error, not
/// a race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EditRequest {
    /// `{"reselect": {"process": <name>, "point": <index>}}` — pick
    /// Pareto point `point` for the named process (a latency-only edit;
    /// dirty-SCC reprice).
    Reselect {
        /// Process name.
        process: String,
        /// Index into the process's Pareto frontier.
        point: usize,
    },
    /// `{"reorder": {"process": <name>, "gets": [...], "puts": [...]}}`
    /// — replace the named process's channel-access orders (a
    /// structural edit; rebuild with per-component reuse).
    Reorder {
        /// Process name.
        process: String,
        /// New `get` order, as channel names.
        gets: Vec<String>,
        /// New `put` order, as channel names.
        puts: Vec<String>,
    },
}

fn name_list(value: &Value, op: &str, key: &str) -> Result<Vec<String>, String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{op}` requires a `{key}` array of channel names"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{op}.{key}` entries must be strings"))
        })
        .collect()
}

/// Parses an edit request body. Errors are client-facing messages (the
/// server wraps them in a 400).
pub(crate) fn parse_edit(text: &str) -> Result<EditRequest, String> {
    let value = json::parse(text).map_err(|e| format!("malformed edit body: {e}"))?;
    if let Some(edit) = value.get("reselect") {
        let process = edit
            .get("process")
            .and_then(Value::as_str)
            .ok_or("`reselect` requires a `process` name")?
            .to_string();
        let point = edit
            .get("point")
            .and_then(Value::as_u64)
            .ok_or("`reselect` requires a non-negative integer `point`")?;
        return Ok(EditRequest::Reselect {
            process,
            point: point as usize,
        });
    }
    if let Some(edit) = value.get("reorder") {
        let process = edit
            .get("process")
            .and_then(Value::as_str)
            .ok_or("`reorder` requires a `process` name")?
            .to_string();
        return Ok(EditRequest::Reorder {
            gets: name_list(edit, "reorder", "gets")?,
            puts: name_list(edit, "reorder", "puts")?,
            process,
        });
    }
    Err("edit body must contain a `reselect` or `reorder` object".into())
}

fn find_process(state: &DeltaState, name: &str) -> Result<ProcessId, CliError> {
    let sys = state.design().system();
    sys.process_ids()
        .find(|&p| sys.process(p).name() == name)
        .ok_or_else(|| CliError::Usage(format!("no process named `{name}`")))
}

fn find_channels(state: &DeltaState, names: &[String]) -> Result<Vec<ChannelId>, CliError> {
    let sys = state.design().system();
    names
        .iter()
        .map(|name| {
            (0..sys.channel_count())
                .map(ChannelId::from_index)
                .find(|&c| sys.channel(c).name() == name)
                .ok_or_else(|| CliError::Usage(format!("no channel named `{name}`")))
        })
        .collect()
}

/// Resolves `edit`'s names against the session's design and applies it.
/// Runs under the session lock on a pool worker.
///
/// # Errors
///
/// - [`CliError::Usage`] (→ 400) on unknown process/channel names; the
///   state is unchanged.
/// - [`CliError::Ermes`] (→ 422) on a rejected edit (selection out of
///   range, non-permutation order); the state is unchanged.
/// - [`CliError::Ermes`] with [`ermes::ErmesError::Cancelled`] (→ 429 /
///   499 / 503) when `cancel` fired mid-analysis; the edit *is* applied
///   and the next edit (or refresh) settles the analysis first.
pub(crate) fn apply_edit(
    state: &mut DeltaState,
    edit: &EditRequest,
    cancel: Option<&parx::CancelToken>,
) -> Result<(), CliError> {
    match edit {
        EditRequest::Reselect { process, point } => {
            let p = find_process(state, process)?;
            state.reselect(p, *point, cancel)?;
        }
        EditRequest::Reorder {
            process,
            gets,
            puts,
        } => {
            let p = find_process(state, process)?;
            let gets = find_channels(state, gets)?;
            let puts = find_channels(state, puts)?;
            state.reorder(p, gets, puts, cancel)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_bodies_parse_and_reject_cleanly() {
        assert_eq!(
            parse_edit(r#"{"reselect": {"process": "dct", "point": 2}}"#),
            Ok(EditRequest::Reselect {
                process: "dct".into(),
                point: 2
            })
        );
        assert_eq!(
            parse_edit(r#"{"reorder": {"process": "dct", "gets": ["a"], "puts": ["b", "c"]}}"#),
            Ok(EditRequest::Reorder {
                process: "dct".into(),
                gets: vec!["a".into()],
                puts: vec!["b".into(), "c".into()]
            })
        );
        assert!(parse_edit("{").is_err());
        assert!(parse_edit("{}").is_err());
        assert!(parse_edit(r#"{"reselect": {"process": "dct"}}"#).is_err());
        assert!(parse_edit(r#"{"reselect": {"process": "dct", "point": -1}}"#).is_err());
        assert!(parse_edit(r#"{"reorder": {"process": "dct", "gets": ["a"]}}"#).is_err());
        assert!(parse_edit(r#"{"reorder": {"process": "dct", "gets": [1], "puts": []}}"#).is_err());
    }

    /// The JSON body a client sends for `edit`.
    fn edit_body(edit: &EditRequest) -> String {
        let text = |s: &str| Value::String(s.to_string());
        let names = |list: &[String]| Value::Array(list.iter().map(|n| text(n)).collect());
        let (op, fields) = match edit {
            EditRequest::Reselect { process, point } => (
                "reselect",
                vec![
                    ("process".to_string(), text(process)),
                    ("point".to_string(), Value::Number(*point as f64)),
                ],
            ),
            EditRequest::Reorder {
                process,
                gets,
                puts,
            } => (
                "reorder",
                vec![
                    ("process".to_string(), text(process)),
                    ("gets".to_string(), names(gets)),
                    ("puts".to_string(), names(puts)),
                ],
            ),
        };
        Value::Object(vec![(op.to_string(), Value::Object(fields))]).to_string_pretty()
    }

    /// Names drawn from a small alphabet, quotes, escapes and non-ASCII
    /// letters included.
    fn arb_name() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        proptest::collection::vec(0usize..8, 0..6).prop_map(|chars| {
            chars
                .into_iter()
                .map(|i| ["a", "z", "_", "\"", "\\", "é", " ", "0"][i])
                .collect()
        })
    }

    fn arb_edit() -> impl proptest::prelude::Strategy<Value = EditRequest> {
        use proptest::prelude::*;
        (
            any::<bool>(),
            arb_name(),
            0usize..1 << 20,
            proptest::collection::vec(arb_name(), 0..4),
            proptest::collection::vec(arb_name(), 0..4),
        )
            .prop_map(|(reselect, process, point, gets, puts)| {
                if reselect {
                    EditRequest::Reselect { process, point }
                } else {
                    EditRequest::Reorder {
                        process,
                        gets,
                        puts,
                    }
                }
            })
    }

    mod edit_bodies {
        //! Session edit bodies under hostile input: no text may panic
        //! `parse_edit`, and every rejection is an error message the
        //! server answers with a 400.
        use super::{arb_edit, edit_body};
        use crate::session::parse_edit;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
                let _ = parse_edit(&String::from_utf8_lossy(&bytes));
            }

            #[test]
            fn valid_edits_round_trip(edit in arb_edit()) {
                prop_assert_eq!(parse_edit(&edit_body(&edit)), Ok(edit));
            }

            /// Every strict prefix of a body is incomplete JSON.
            #[test]
            fn truncated_edits_are_rejected(edit in arb_edit(), cut in 0usize..400) {
                let body = edit_body(&edit);
                let mut cut = cut % body.len();
                while !body.is_char_boundary(cut) {
                    cut -= 1;
                }
                prop_assert!(parse_edit(&body[..cut]).is_err());
            }

            #[test]
            fn flipped_bytes_never_panic(edit in arb_edit(), at in 0usize..400, byte in any::<u8>()) {
                let mut bytes = edit_body(&edit).into_bytes();
                let at = at % bytes.len();
                bytes[at] = byte;
                let _ = parse_edit(&String::from_utf8_lossy(&bytes));
            }

            /// A `point` that is not a non-negative integer within the
            /// JSON parser's exact range, and names that are not strings,
            /// are rejected.
            #[test]
            fn mistyped_fields_are_rejected(kind in 0usize..8, process in super::arb_name()) {
                let bad = ["-1", "1.5", "1e300", "18446744073709551616", "\"2\"", "null", "true", "[0]"][kind];
                let process = crate::json::Value::String(process).to_string_pretty();
                let reselect = format!(r#"{{"reselect": {{"process": {process}, "point": {bad}}}}}"#);
                prop_assert!(parse_edit(&reselect).is_err(), "{}", reselect);
                // `"2"` is a valid channel name, just not a valid point.
                if kind != 4 {
                    let reorder = format!(r#"{{"reorder": {{"process": {process}, "gets": [{bad}], "puts": []}}}}"#);
                    prop_assert!(parse_edit(&reorder).is_err(), "{}", reorder);
                }
            }

            /// Nesting past the parser's depth cap is an error, not a
            /// stack overflow.
            #[test]
            fn deep_nesting_is_rejected(depth in 128usize..5000, open in 0usize..2) {
                let (l, r) = [("[", "]"), ("{\"a\":", "}")][open];
                let body = format!(r#"{{"reselect": {}0{}}}"#, l.repeat(depth), r.repeat(depth));
                prop_assert!(parse_edit(&body).is_err());
            }
        }
    }

    fn sample_state() -> DeltaState {
        let spec = crate::spec::SystemSpec::from_json(
            r#"{
                "processes": [
                    {"name": "a", "latency": 2},
                    {"name": "b", "latency": 3}
                ],
                "channels": [
                    {"name": "f", "from": "a", "to": "b", "latency": 1},
                    {"name": "r", "from": "b", "to": "a", "latency": 1, "initial_tokens": 1}
                ]
            }"#,
        )
        .expect("valid");
        DeltaState::open(spec.to_design().expect("valid"))
    }

    #[test]
    fn store_is_lru_with_touch_on_edit_lookup() {
        let store = SessionStore::new(2);
        let a = store.insert(sample_state());
        let b = store.insert(sample_state());
        assert_eq!(store.live(), 2);
        // Touch a: b becomes the LRU victim.
        assert!(store.get(a).is_some());
        let c = store.insert(sample_state());
        assert_eq!(store.evicted.load(Ordering::Relaxed), 1);
        assert!(store.get(a).is_some(), "touched session survives");
        assert!(store.get(b).is_none(), "LRU victim is the untouched one");
        assert!(store.get(c).is_some());
        // Ids are never reused, even after removal.
        assert!(store.remove(a, &store.closed));
        assert!(!store.remove(a, &store.closed), "second remove is a no-op");
        assert_eq!(store.closed.load(Ordering::Relaxed), 1);
        let d = store.insert(sample_state());
        assert!(d > c);
    }

    #[test]
    fn unknown_names_are_usage_errors_and_leave_state_unchanged() {
        let mut state = sample_state();
        let before = state.report().clone();
        let err = apply_edit(
            &mut state,
            &EditRequest::Reselect {
                process: "ghost".into(),
                point: 0,
            },
            None,
        )
        .expect_err("unknown process");
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = apply_edit(
            &mut state,
            &EditRequest::Reorder {
                process: "a".into(),
                gets: vec!["ghost".into()],
                puts: vec!["f".into()],
            },
            None,
        )
        .expect_err("unknown channel");
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(state.report(), &before);
    }
}
