//! Deterministic fault injection for chaos testing.
//!
//! Production code is instrumented with named **fault points** — cheap
//! calls to [`hit`] at the places where real systems break: the worker
//! loop, request parsing, cache population, the response-write path.
//! With no plan installed a hit is a single relaxed atomic load and the
//! point does nothing; the instrumentation is compiled in always, so the
//! binary under chaos test is the binary that ships.
//!
//! A plan is activated either from the `ERMES_FAULTPOINTS` environment
//! variable (read once, lazily) or programmatically from tests via
//! [`activate`]. The grammar is `;`-separated clauses:
//!
//! ```text
//! seed=42;worker.job=panic@0.05;http.write=short#2;cache.insert=delay(100)@0.5
//! ```
//!
//! Each clause names a point and an action — `panic`, `delay(MILLIS)`,
//! or `short` (a short write, returned to the caller to act on) — with
//! an optional firing probability `@p` (default: always) and an
//! optional cap `#n` on the number of firings. Network-facing points
//! (the cluster coordinator's worker-client path) additionally accept
//! `conn.refuse`, `conn.reset`, `resp.truncate`, and `resp.delay(MILLIS)`;
//! like `short`, these are returned to the caller, which owns the socket
//! and enacts them at the right protocol stage. Probabilistic decisions
//! come from a per-point [SplitMix64] stream seeded from the plan seed
//! and the point name, so a given plan replays the same fault schedule
//! per point on every run — the property that makes a chaos failure
//! reproducible.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, RwLock};
use std::time::Duration;

/// Name of the environment variable holding the fault plan.
pub const FAULTPOINTS_ENV: &str = "ERMES_FAULTPOINTS";

/// What a fault point asks its caller to do. Panics and delays are
/// carried out inside [`hit`]; a short write needs the caller's
/// cooperation (only it holds the socket), so it is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Fault {
    /// No fault fired — proceed normally.
    None,
    /// Truncate the write in progress and fail the connection.
    ShortWrite,
    /// Fail before the connection is established, as if the peer
    /// refused it (`conn.refuse`).
    ConnRefuse,
    /// Connect and send, then fail before any response bytes are read,
    /// as if the peer reset mid-exchange (`conn.reset`).
    ConnReset,
    /// Deliver only part of the response, then fail, as if the bytes
    /// were cut off in flight (`resp.truncate`).
    RespTruncate,
    /// Delay the response by this many milliseconds before delivering
    /// it intact (`resp.delay(MS)`) — the straggler that hedged
    /// dispatch exists to beat.
    RespDelay(u64),
}

impl Fault {
    /// True when a fault fired at this point.
    #[must_use]
    pub fn fired(self) -> bool {
        self != Fault::None
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Panic,
    Delay(u64),
    Short,
    ConnRefuse,
    ConnReset,
    RespTruncate,
    RespDelay(u64),
}

/// Deterministic SplitMix64 stream; the standard seeding/jumping PRNG,
/// small enough to inline rather than pull a dependency into parx.
/// Shared with [`crate::health`] for deterministic backoff jitter.
#[derive(Debug)]
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, used to derive a per-point seed from the plan seed and the
/// point name so distinct points get independent streams.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Debug)]
struct Point {
    action: Action,
    /// Firing probability in [0, 1]; 1.0 = every eligible hit.
    probability: f64,
    /// At most this many firings (`#n` clause); `None` = unlimited.
    max_firings: Option<u64>,
    fired: AtomicU64,
    rng: Mutex<SplitMix64>,
}

impl Point {
    /// Decides whether this hit fires. The RNG draw happens on every
    /// hit (even once capped) so the decision stream per point depends
    /// only on the hit ordinal, not on other points.
    fn fires(&self) -> bool {
        let roll = self.rng.lock().expect("faultpoint rng poisoned").next_f64();
        if roll >= self.probability {
            return false;
        }
        match self.max_firings {
            None => {
                self.fired.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(max) => self.fired.fetch_add(1, Ordering::Relaxed) < max,
        }
    }
}

/// A parsed fault plan: named points plus the seed they derive from.
#[derive(Debug)]
struct Plan {
    points: BTreeMap<String, Point>,
}

impl Plan {
    fn parse(spec: &str) -> Result<Plan, String> {
        let mut seed: u64 = 0;
        let mut raw: Vec<(String, Action, f64, Option<u64>)> = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("faultpoint clause `{clause}` is missing `=`"))?;
            let (name, value) = (name.trim(), value.trim());
            if name == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("faultpoint seed `{value}` is not a u64"))?;
                continue;
            }
            let (value, max_firings) = match value.split_once('#') {
                Some((head, count)) => {
                    let count = count
                        .trim()
                        .parse()
                        .map_err(|_| format!("faultpoint cap `#{count}` is not a u64"))?;
                    (head.trim(), Some(count))
                }
                None => (value, None),
            };
            let (value, probability) = match value.split_once('@') {
                Some((head, prob)) => {
                    let prob: f64 = prob
                        .trim()
                        .parse()
                        .map_err(|_| format!("faultpoint probability `@{prob}` is not a float"))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("faultpoint probability {prob} is outside [0, 1]"));
                    }
                    (head.trim(), prob)
                }
                None => (value, 1.0),
            };
            let action = if value == "panic" {
                Action::Panic
            } else if value == "short" {
                Action::Short
            } else if value == "conn.refuse" {
                Action::ConnRefuse
            } else if value == "conn.reset" {
                Action::ConnReset
            } else if value == "resp.truncate" {
                Action::RespTruncate
            } else if let Some(millis) = value
                .strip_prefix("delay(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                let millis = millis
                    .trim()
                    .parse()
                    .map_err(|_| format!("faultpoint delay `{millis}` is not a u64 (millis)"))?;
                Action::Delay(millis)
            } else if let Some(millis) = value
                .strip_prefix("resp.delay(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                let millis = millis.trim().parse().map_err(|_| {
                    format!("faultpoint resp.delay `{millis}` is not a u64 (millis)")
                })?;
                Action::RespDelay(millis)
            } else {
                return Err(format!(
                    "unknown faultpoint action `{value}` (expected panic, delay(MS), short, \
                     conn.refuse, conn.reset, resp.truncate, or resp.delay(MS))"
                ));
            };
            raw.push((name.to_string(), action, probability, max_firings));
        }
        let points = raw
            .into_iter()
            .map(|(name, action, probability, max_firings)| {
                let rng = SplitMix64(seed ^ fnv1a(&name));
                (
                    name,
                    Point {
                        action,
                        probability,
                        max_firings,
                        fired: AtomicU64::new(0),
                        rng: Mutex::new(rng),
                    },
                )
            })
            .collect();
        Ok(Plan { points })
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Plan>> = RwLock::new(None);
static ENV_INIT: Once = Once::new();

fn install(plan: Option<Plan>) {
    let mut slot = PLAN.write().expect("faultpoint registry poisoned");
    ACTIVE.store(plan.is_some(), Ordering::Release);
    *slot = plan;
}

/// Installs a fault plan programmatically (chaos tests in the same
/// process). Replaces any plan already active, including one from the
/// environment.
///
/// # Errors
///
/// A human-readable message when `spec` does not parse; the previous
/// plan is left untouched in that case.
pub fn activate(spec: &str) -> Result<(), String> {
    ENV_INIT.call_once(|| {}); // pre-empt a later env read overwriting us
    let plan = Plan::parse(spec)?;
    install(Some(plan));
    Ok(())
}

/// Removes the active fault plan; subsequent [`hit`]s do nothing.
pub fn deactivate() {
    ENV_INIT.call_once(|| {});
    install(None);
}

/// True when a fault plan is currently installed.
#[must_use]
pub fn active() -> bool {
    ensure_env_init();
    ACTIVE.load(Ordering::Acquire)
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var(FAULTPOINTS_ENV) {
            if spec.trim().is_empty() {
                return;
            }
            match Plan::parse(&spec) {
                Ok(plan) => install(Some(plan)),
                Err(message) => eprintln!("ignoring {FAULTPOINTS_ENV}: {message}"),
            }
        }
    });
}

/// Evaluates the fault point `name`. With no plan active (the
/// production path) this is one atomic load. Delays sleep in place;
/// short writes are returned for the caller to carry out.
///
/// # Panics
///
/// Deliberately, when the active plan injects a panic at this point —
/// that is the fault being simulated.
pub fn hit(name: &str) -> Fault {
    ensure_env_init();
    if !ACTIVE.load(Ordering::Acquire) {
        return Fault::None;
    }
    let guard = PLAN.read().expect("faultpoint registry poisoned");
    let Some(point) = guard.as_ref().and_then(|plan| plan.points.get(name)) else {
        return Fault::None;
    };
    if !point.fires() {
        return Fault::None;
    }
    match point.action {
        Action::Panic => panic!("faultpoint `{name}`: injected panic"),
        Action::Delay(millis) => {
            // Sleep outside the registry lock so a long delay cannot
            // stall other points (or a test's deactivate()).
            drop(guard);
            std::thread::sleep(Duration::from_millis(millis));
            Fault::None
        }
        Action::Short => Fault::ShortWrite,
        Action::ConnRefuse => Fault::ConnRefuse,
        Action::ConnReset => Fault::ConnReset,
        Action::RespTruncate => Fault::RespTruncate,
        Action::RespDelay(millis) => Fault::RespDelay(millis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that install plans
    /// serialize on this lock so they cannot see each other's points.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn inactive_points_do_nothing() {
        let _gate = GATE.lock().expect("gate");
        deactivate();
        assert_eq!(hit("worker.job"), Fault::None);
        assert!(!active());
    }

    #[test]
    fn unknown_point_in_active_plan_does_nothing() {
        let _gate = GATE.lock().expect("gate");
        activate("seed=1;worker.job=short").expect("parses");
        assert_eq!(hit("cache.insert"), Fault::None);
        deactivate();
    }

    #[test]
    fn short_write_fires_up_to_cap() {
        let _gate = GATE.lock().expect("gate");
        activate("seed=7;http.write=short#2").expect("parses");
        assert_eq!(hit("http.write"), Fault::ShortWrite);
        assert_eq!(hit("http.write"), Fault::ShortWrite);
        assert_eq!(hit("http.write"), Fault::None, "cap of 2 reached");
        deactivate();
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let _gate = GATE.lock().expect("gate");
        let sample = |spec: &str| -> Vec<bool> {
            activate(spec).expect("parses");
            let fired = (0..64).map(|_| hit("p").fired()).collect();
            deactivate();
            fired
        };
        let a = sample("seed=42;p=short@0.3");
        let b = sample("seed=42;p=short@0.3");
        assert_eq!(a, b, "same seed, same schedule");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "p=0.3 fired {fired}/64");
        let c = sample("seed=43;p=short@0.3");
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn injected_panic_carries_the_point_name() {
        let _gate = GATE.lock().expect("gate");
        activate("seed=1;boom=panic").expect("parses");
        let result = std::panic::catch_unwind(|| hit("boom"));
        deactivate();
        let payload = result.expect_err("panics");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("faultpoint `boom`"), "{text}");
    }

    #[test]
    fn delay_sleeps_roughly_the_requested_time() {
        let _gate = GATE.lock().expect("gate");
        activate("seed=1;slow=delay(20)").expect("parses");
        let start = std::time::Instant::now();
        assert_eq!(hit("slow"), Fault::None);
        deactivate();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn network_actions_parse_and_fire() {
        let _gate = GATE.lock().expect("gate");
        for (spec, want) in [
            ("seed=1;net=conn.refuse", Fault::ConnRefuse),
            ("seed=1;net=conn.reset", Fault::ConnReset),
            ("seed=1;net=resp.truncate", Fault::RespTruncate),
            ("seed=1;net=resp.delay(35)", Fault::RespDelay(35)),
        ] {
            activate(spec).expect(spec);
            assert_eq!(hit("net"), want, "{spec}");
            assert!(hit("net").fired(), "{spec}: fires until capped");
            deactivate();
        }
    }

    #[test]
    fn network_actions_respect_probability_and_cap() {
        let _gate = GATE.lock().expect("gate");
        activate("seed=11;net=conn.reset@0.5#2").expect("parses");
        let faults: Vec<Fault> = (0..32).map(|_| hit("net")).collect();
        deactivate();
        let fired = faults.iter().filter(|f| f.fired()).count();
        assert_eq!(fired, 2, "cap of 2 respected under p=0.5");
        assert!(faults
            .iter()
            .all(|f| matches!(f, Fault::None | Fault::ConnReset)));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for (spec, needle) in [
            ("worker.job", "missing `=`"),
            ("seed=x", "not a u64"),
            ("p=explode", "unknown faultpoint action"),
            ("p=short@1.5", "outside [0, 1]"),
            ("p=short#x", "not a u64"),
            ("p=delay(ms)", "not a u64"),
        ] {
            let err = Plan::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    /// A plan clause drawn from `rng`, and whether it parses: a valid
    /// `name=action[@p][#n]` clause, or one with exactly one malformed
    /// part.
    fn clause(rng: &mut SplitMix64, malformed: bool) -> String {
        let names = ["worker.job", "cache.insert", "http.write", "net", "p"];
        let actions = [
            "panic",
            "short",
            "conn.refuse",
            "conn.reset",
            "resp.truncate",
            "delay(5)",
            "resp.delay(7)",
        ];
        let mut pick = |n: usize| (rng.next() % n as u64) as usize;
        let name = names[pick(names.len())];
        let action = actions[pick(actions.len())];
        let probability = ["", "@0", "@1", "@0.25", "@ 0.5"][pick(5)];
        let cap = ["", "#0", "#3", "# 2"][pick(4)];
        if !malformed {
            return format!("{name}={action}{probability}{cap}");
        }
        match pick(8) {
            0 => format!("{name}{action}"), // no `=`
            1 => format!("seed=-{}", pick(100)),
            2 => format!("{name}=explode{probability}{cap}"),
            3 => format!("{name}={action}@1.5{cap}"),
            4 => format!("{name}={action}@NaN"),
            5 => format!("{name}={action}{probability}#x"),
            6 => format!("{name}=delay(ms){cap}"),
            _ => format!("{name}=resp.delay(-1)"),
        }
    }

    /// A plan of up to four clauses, one of them malformed if asked.
    fn plan(rng: &mut SplitMix64, malformed: bool) -> String {
        let n = 1 + (rng.next() % 4) as usize;
        let bad = (rng.next() % n as u64) as usize;
        let mut clauses = vec![format!("seed={}", rng.next())];
        clauses.extend((0..n).map(|i| clause(rng, malformed && i == bad)));
        clauses.join(";")
    }

    /// Property suite for the `ERMES_FAULTPOINTS` grammar, on a seeded
    /// generator: arbitrary text and mutated plans never panic `parse`,
    /// generated plans parse, and a plan with one malformed clause is an
    /// `Err`.
    #[test]
    fn plan_grammar_survives_hostile_input() {
        let mut rng = SplitMix64(0x0fa1_7915);
        let alphabet: Vec<char> = "seed=;@#().0123456789panicshortdelay-x \té"
            .chars()
            .collect();
        for _ in 0..2_000 {
            let len = (rng.next() % 48) as usize;
            let text: String = (0..len)
                .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                .collect();
            let _ = Plan::parse(&text);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let _ = Plan::parse(&String::from_utf8_lossy(&bytes));

            let valid = plan(&mut rng, false);
            assert!(Plan::parse(&valid).is_ok(), "{valid:?}");
            let bad = plan(&mut rng, true);
            assert!(Plan::parse(&bad).is_err(), "{bad:?}");

            // Truncate a valid plan, then flip one of its characters.
            let mut chars: Vec<char> = valid.chars().collect();
            chars.truncate(1 + (rng.next() as usize) % chars.len());
            let _ = Plan::parse(&chars.iter().collect::<String>());
            let at = (rng.next() as usize) % chars.len();
            chars[at] = alphabet[(rng.next() % alphabet.len() as u64) as usize];
            let _ = Plan::parse(&chars.iter().collect::<String>());
        }
    }

    #[test]
    fn activate_with_bad_spec_keeps_previous_plan() {
        let _gate = GATE.lock().expect("gate");
        activate("seed=1;p=short").expect("parses");
        let mut rng = SplitMix64(0xac71_fa7e);
        let generated = (0..200).map(|_| plan(&mut rng, true));
        for bad in std::iter::once("p=explode".to_string()).chain(generated) {
            activate(&bad).expect_err(&bad);
            assert!(active(), "{bad:?} uninstalled the previous plan");
            assert_eq!(hit("p"), Fault::ShortWrite, "{bad:?}");
        }
        deactivate();
    }
}
