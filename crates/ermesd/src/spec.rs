//! The on-disk system specification format (JSON).
//!
//! A deliberately small, hand-writable schema: processes with latencies
//! (and optional latency/area Pareto frontiers) plus named channels. The
//! `put`/`get` statement orders follow the order in which channels are
//! listed — exactly like the statement order in the SystemC source the
//! paper's flow starts from — and optional explicit `put_order` /
//! `get_order` arrays override them (how the `order` command writes its
//! result back).

use crate::json::{self, JsonError, Value};
use ermes::Design;
use hlsim::{HlsKnobs, MicroArch, ParetoSet};
use std::collections::HashMap;
use std::fmt;
use sysgraph::{ChannelOrdering, SystemGraph};

/// One Pareto point of a process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPointSpec {
    /// Computation latency in cycles.
    pub latency: u64,
    /// Area in abstract units (mm² in the case studies).
    pub area: f64,
}

/// One process of the system.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpec {
    /// Unique process name.
    pub name: String,
    /// Current computation latency.
    pub latency: u64,
    /// Optional Pareto frontier; a single `(latency, 0.0)` point is
    /// assumed when absent (omitted from JSON when `None`).
    pub pareto: Option<Vec<ParetoPointSpec>>,
    /// Optional explicit `get` statement order (channel names).
    pub get_order: Option<Vec<String>>,
    /// Optional explicit `put` statement order (channel names).
    pub put_order: Option<Vec<String>>,
}

/// One channel of the system.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// Unique channel name.
    pub name: String,
    /// Producer process name.
    pub from: String,
    /// Consumer process name.
    pub to: String,
    /// Transfer latency in cycles.
    pub latency: u64,
    /// Pre-loaded items (FIFO depth); 0 = pure rendezvous (the JSON
    /// field defaults to 0 when absent).
    pub initial_tokens: u64,
}

/// A whole system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The processes, in declaration order.
    pub processes: Vec<ProcessSpec>,
    /// The channels, in declaration order (statement order per process).
    pub channels: Vec<ChannelSpec>,
}

/// Errors turning a spec into a model. Every variant names the offending
/// element, so a service can hand the message straight back to the
/// client as a structured 400.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// Two processes (or two channels) share a name.
    DuplicateName(String),
    /// A channel endpoint or an order entry names an unknown element.
    UnknownName(String),
    /// An explicit order is not a permutation of the process's channels.
    InvalidOrder(String),
    /// A channel connects a process to itself (blocking rendezvous on a
    /// self-channel can never complete).
    SelfChannel(String),
    /// A process declares an explicit, empty Pareto frontier — it would
    /// have no implementation to select.
    EmptyPareto(String),
    /// A Pareto point's area is not a finite, non-negative number.
    InvalidArea(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            SpecError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            SpecError::InvalidOrder(p) => {
                write!(
                    f,
                    "explicit order for `{p}` is not a permutation of its channels"
                )
            }
            SpecError::SelfChannel(c) => {
                write!(f, "channel `{c}` connects a process to itself")
            }
            SpecError::EmptyPareto(p) => {
                write!(f, "process `{p}`: `pareto` must not be an empty array")
            }
            SpecError::InvalidArea(p) => {
                write!(
                    f,
                    "process `{p}`: `area` must be a finite, non-negative number"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn field<'a>(value: &'a Value, context: &str, key: &str) -> Result<&'a Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::schema(format!("{context}: missing field `{key}`")))
}

fn string_field(value: &Value, context: &str, key: &str) -> Result<String, JsonError> {
    field(value, context, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| JsonError::schema(format!("{context}: `{key}` must be a string")))
}

fn u64_field(value: &Value, context: &str, key: &str) -> Result<u64, JsonError> {
    field(value, context, key)?.as_u64().ok_or_else(|| {
        JsonError::schema(format!("{context}: `{key}` must be a non-negative integer"))
    })
}

fn name_array(value: &Value, context: &str, key: &str) -> Result<Option<Vec<String>>, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| JsonError::schema(format!("{context}: `{key}` must be an array")))?;
            items
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        JsonError::schema(format!("{context}: `{key}` entries must be strings"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        }
    }
}

fn check_permutation(
    explicit: &[sysgraph::ChannelId],
    actual: &[sysgraph::ChannelId],
    process: &str,
) -> Result<(), SpecError> {
    let mut want = actual.to_vec();
    let mut got = explicit.to_vec();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        Ok(())
    } else {
        Err(SpecError::InvalidOrder(process.to_string()))
    }
}

impl ParetoPointSpec {
    fn from_value(value: &Value, context: &str) -> Result<Self, JsonError> {
        Ok(ParetoPointSpec {
            latency: u64_field(value, context, "latency")?,
            area: field(value, context, "area")?
                .as_f64()
                .ok_or_else(|| JsonError::schema(format!("{context}: `area` must be a number")))?,
        })
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("latency".into(), Value::Number(self.latency as f64)),
            ("area".into(), Value::Number(self.area)),
        ])
    }
}

impl ProcessSpec {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        let name = string_field(value, "process", "name")?;
        let context = format!("process `{name}`");
        let pareto = match value.get("pareto") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let items = v.as_array().ok_or_else(|| {
                    JsonError::schema(format!("{context}: `pareto` must be an array"))
                })?;
                Some(
                    items
                        .iter()
                        .map(|p| ParetoPointSpec::from_value(p, &context))
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
        };
        Ok(ProcessSpec {
            latency: u64_field(value, &context, "latency")?,
            pareto,
            get_order: name_array(value, &context, "get_order")?,
            put_order: name_array(value, &context, "put_order")?,
            name,
        })
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".into(), Value::String(self.name.clone())),
            ("latency".into(), Value::Number(self.latency as f64)),
        ];
        if let Some(points) = &self.pareto {
            fields.push((
                "pareto".into(),
                Value::Array(points.iter().map(|p| p.to_value()).collect()),
            ));
        }
        let names =
            |list: &[String]| Value::Array(list.iter().map(|n| Value::String(n.clone())).collect());
        if let Some(order) = &self.get_order {
            fields.push(("get_order".into(), names(order)));
        }
        if let Some(order) = &self.put_order {
            fields.push(("put_order".into(), names(order)));
        }
        Value::Object(fields)
    }
}

impl ChannelSpec {
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        let name = string_field(value, "channel", "name")?;
        let context = format!("channel `{name}`");
        Ok(ChannelSpec {
            from: string_field(value, &context, "from")?,
            to: string_field(value, &context, "to")?,
            latency: u64_field(value, &context, "latency")?,
            initial_tokens: match value.get("initial_tokens") {
                None | Some(Value::Null) => 0,
                Some(v) => v.as_u64().ok_or_else(|| {
                    JsonError::schema(format!(
                        "{context}: `initial_tokens` must be a non-negative integer"
                    ))
                })?,
            },
            name,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            ("from".into(), Value::String(self.from.clone())),
            ("to".into(), Value::String(self.to.clone())),
            ("latency".into(), Value::Number(self.latency as f64)),
            (
                "initial_tokens".into(),
                Value::Number(self.initial_tokens as f64),
            ),
        ])
    }
}

/// Rejects a spec whose delays or tokens could overflow the integer
/// arithmetic of the cycle-time solvers (`tmg`), so no request can panic
/// the analysis or silently wrap it.
///
/// The spec lowers (`sysgraph::lower_to_tmg`) to a ratio graph with one
/// edge per place, carrying the delay of the place's consumer and the
/// place's tokens. Every process transition has one input place, every
/// channel transfer two, and an initialized channel adds a zero-delay
/// handshake with two places; each process chain holds one token. With
/// every process at its largest Pareto latency, so that no later
/// reselect leaves the range:
///
/// - `D = Σ latency(process) + 2·Σ latency(channel)` is the total edge
///   delay, which bounds every cycle's delay sum;
/// - `T = #processes + Σ initial_tokens` is the total edge tokens, which
///   bounds every cycle's token sum;
/// - `V` transitions and `E` places are the vertices and edges.
///
/// The bound is `D ≤ i64::MAX`, `T ≤ i64::MAX` and
/// `2·(V + 1)·E·D·T ≤ i128::MAX`:
///
/// - Howard sums policy cycles in `i64`, and `Ratio` keeps `i64`
///   numerators and denominators.
/// - Every reduced cost `d·den + num·t` is at most `2·D·T`. Howard's
///   magnitude bound (and its bias chains of up to `V + 1` reduced costs)
///   and the parametric fallback's Bellman–Ford distances (walks of at
///   most `V·E` relaxed edges) are all computed in `i128`.
fn check_solver_range(
    processes: &[ProcessSpec],
    channels: &[ChannelSpec],
) -> Result<(), JsonError> {
    let largest = |p: &ProcessSpec| {
        p.pareto
            .iter()
            .flatten()
            .map(|point| point.latency)
            .fold(p.latency, u64::max)
    };
    let delay = processes
        .iter()
        .map(|p| u128::from(largest(p)))
        .sum::<u128>()
        + 2 * channels.iter().map(|c| u128::from(c.latency)).sum::<u128>();
    let tokens = processes.len() as u128
        + channels
            .iter()
            .map(|c| u128::from(c.initial_tokens))
            .sum::<u128>();
    let initialized = channels.iter().filter(|c| c.initial_tokens > 0).count() as u128;
    let transitions = (processes.len() + channels.len()) as u128 + initialized;
    let places = (processes.len() + 2 * channels.len()) as u128 + 2 * initialized;
    let wide = [transitions + 1, places, delay, tokens]
        .into_iter()
        .try_fold(2u128, u128::checked_mul)
        .is_some_and(|product| product <= i128::MAX as u128);
    let narrow = i64::MAX as u128;
    if delay > narrow {
        return Err(JsonError::schema(format!(
            "spec: the `latency` total {delay} (processes at their largest Pareto latency, \
             channels counted twice) exceeds the cycle-time solvers' limit {narrow}"
        )));
    }
    if tokens > narrow {
        return Err(JsonError::schema(format!(
            "spec: the token total {tokens} (one per process plus every `initial_tokens`) \
             exceeds the cycle-time solvers' limit {narrow}"
        )));
    }
    if !wide {
        return Err(JsonError::schema(format!(
            "spec: the `latency` total {delay} and token total {tokens} over {transitions} \
             transitions and {places} places exceed the cycle-time solvers' 128-bit range"
        )));
    }
    Ok(())
}

impl SystemSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON or schema violations, including
    /// latency and token totals the cycle-time solvers' integers cannot
    /// hold.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let value = json::parse(text)?;
        let processes = field(&value, "spec", "processes")?
            .as_array()
            .ok_or_else(|| JsonError::schema("spec: `processes` must be an array"))?
            .iter()
            .map(ProcessSpec::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let channels = field(&value, "spec", "channels")?
            .as_array()
            .ok_or_else(|| JsonError::schema("spec: `channels` must be an array"))?
            .iter()
            .map(ChannelSpec::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        check_solver_range(&processes, &channels)?;
        Ok(SystemSpec {
            processes,
            channels,
        })
    }

    /// Serializes the spec as pretty-printed JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        Value::Object(vec![
            (
                "processes".into(),
                Value::Array(self.processes.iter().map(ProcessSpec::to_value).collect()),
            ),
            (
                "channels".into(),
                Value::Array(self.channels.iter().map(ChannelSpec::to_value).collect()),
            ),
        ])
        .to_string_pretty()
    }
    /// Builds the system graph (and applies any explicit orders).
    ///
    /// # Errors
    ///
    /// [`SpecError`] on duplicate/unknown names or invalid orders.
    pub fn to_system(&self) -> Result<SystemGraph, SpecError> {
        let mut sys = SystemGraph::new();
        let mut procs = HashMap::new();
        for p in &self.processes {
            if procs.contains_key(p.name.as_str()) {
                return Err(SpecError::DuplicateName(p.name.clone()));
            }
            procs.insert(p.name.as_str(), sys.add_process(&p.name, p.latency));
        }
        let mut chans = HashMap::new();
        for c in &self.channels {
            if chans.contains_key(c.name.as_str()) {
                return Err(SpecError::DuplicateName(c.name.clone()));
            }
            let from = *procs
                .get(c.from.as_str())
                .ok_or_else(|| SpecError::UnknownName(c.from.clone()))?;
            let to = *procs
                .get(c.to.as_str())
                .ok_or_else(|| SpecError::UnknownName(c.to.clone()))?;
            if from == to {
                return Err(SpecError::SelfChannel(c.name.clone()));
            }
            let id = sys
                .add_channel_with_tokens(&c.name, from, to, c.latency, c.initial_tokens)
                .map_err(|_| SpecError::UnknownName(c.name.clone()))?;
            chans.insert(c.name.as_str(), id);
        }
        // Explicit statement orders: resolve names, check each list is a
        // permutation of the process's actual channels (so the error can
        // name the process), then apply.
        let mut ordering = ChannelOrdering::of(&sys);
        for p in &self.processes {
            let pid = procs[p.name.as_str()];
            if let Some(order) = &p.get_order {
                let ids = order
                    .iter()
                    .map(|n| {
                        chans
                            .get(n.as_str())
                            .copied()
                            .ok_or_else(|| SpecError::UnknownName(n.clone()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                check_permutation(&ids, sys.get_order(pid), &p.name)?;
                ordering.set_gets(pid, ids);
            }
            if let Some(order) = &p.put_order {
                let ids = order
                    .iter()
                    .map(|n| {
                        chans
                            .get(n.as_str())
                            .copied()
                            .ok_or_else(|| SpecError::UnknownName(n.clone()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                check_permutation(&ids, sys.put_order(pid), &p.name)?;
                ordering.set_puts(pid, ids);
            }
        }
        ordering
            .apply_to(&mut sys)
            .map_err(|_| SpecError::InvalidOrder("explicit order".into()))?;
        Ok(sys)
    }

    /// Builds a design: processes without an explicit frontier get a
    /// single zero-area point at their current latency.
    ///
    /// # Errors
    ///
    /// [`SpecError`] as for [`SystemSpec::to_system`].
    pub fn to_design(&self) -> Result<Design, SpecError> {
        let sys = self.to_system()?;
        for p in &self.processes {
            if let Some(points) = &p.pareto {
                if points.is_empty() {
                    return Err(SpecError::EmptyPareto(p.name.clone()));
                }
                if points
                    .iter()
                    .any(|pt| !pt.area.is_finite() || pt.area < 0.0)
                {
                    return Err(SpecError::InvalidArea(p.name.clone()));
                }
            }
        }
        let pareto: Vec<ParetoSet> = self
            .processes
            .iter()
            .map(|p| {
                let points = p.pareto.clone().unwrap_or_else(|| {
                    vec![ParetoPointSpec {
                        latency: p.latency,
                        area: 0.0,
                    }]
                });
                ParetoSet::from_candidates(
                    points
                        .into_iter()
                        .map(|pt| MicroArch {
                            knobs: HlsKnobs::baseline(),
                            latency: pt.latency,
                            area: pt.area,
                        })
                        .collect(),
                )
            })
            .collect();
        Design::new(sys, pareto).map_err(|_| SpecError::InvalidOrder("pareto".into()))
    }

    /// Captures a [`SystemGraph`] as a spec, recording the current
    /// statement orders explicitly. Processes get no Pareto frontier
    /// (a single implied point at their current latency).
    #[must_use]
    pub fn from_system(system: &SystemGraph) -> SystemSpec {
        let processes = (0..system.process_count())
            .map(|i| {
                let pid = sysgraph::ProcessId::from_index(i);
                let channel_names = |ids: &[sysgraph::ChannelId]| {
                    ids.iter()
                        .map(|&c| system.channel(c).name().to_string())
                        .collect::<Vec<_>>()
                };
                ProcessSpec {
                    name: system.process(pid).name().to_string(),
                    latency: system.process(pid).latency(),
                    pareto: None,
                    get_order: Some(channel_names(system.get_order(pid))),
                    put_order: Some(channel_names(system.put_order(pid))),
                }
            })
            .collect();
        let channels = (0..system.channel_count())
            .map(|i| {
                let c = system.channel(sysgraph::ChannelId::from_index(i));
                ChannelSpec {
                    name: c.name().to_string(),
                    from: system.process(c.from()).name().to_string(),
                    to: system.process(c.to()).name().to_string(),
                    latency: c.latency(),
                    initial_tokens: c.initial_tokens(),
                }
            })
            .collect();
        SystemSpec {
            processes,
            channels,
        }
    }

    /// Captures a [`Design`] as a spec, including each process's Pareto
    /// frontier (so selection state survives the round trip).
    #[must_use]
    pub fn from_design(design: &Design) -> SystemSpec {
        let mut spec = SystemSpec::from_system(design.system());
        for (i, p) in spec.processes.iter_mut().enumerate() {
            let pid = sysgraph::ProcessId::from_index(i);
            p.pareto = Some(
                design
                    .pareto(pid)
                    .iter()
                    .map(|m| ParetoPointSpec {
                        latency: m.latency,
                        area: m.area,
                    })
                    .collect(),
            );
        }
        spec
    }

    /// Captures a system (with its current statement orders) back into a
    /// spec, preserving this spec's Pareto annotations.
    #[must_use]
    pub fn with_system_state(&self, system: &SystemGraph) -> SystemSpec {
        let mut out = self.clone();
        for (i, p) in out.processes.iter_mut().enumerate() {
            let pid = sysgraph::ProcessId::from_index(i);
            p.latency = system.process(pid).latency();
            p.get_order = Some(
                system
                    .get_order(pid)
                    .iter()
                    .map(|&c| system.channel(c).name().to_string())
                    .collect(),
            );
            p.put_order = Some(
                system
                    .put_order(pid)
                    .iter()
                    .map(|&c| system.channel(c).name().to_string())
                    .collect(),
            );
        }
        for (i, c) in out.channels.iter_mut().enumerate() {
            let cid = sysgraph::ChannelId::from_index(i);
            c.initial_tokens = system.channel(cid).initial_tokens();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SystemSpec {
        SystemSpec::from_json(
            r#"{
                "processes": [
                    {"name": "src", "latency": 1},
                    {"name": "p", "latency": 5,
                     "pareto": [{"latency": 3, "area": 2.0}, {"latency": 5, "area": 1.0}]},
                    {"name": "snk", "latency": 1}
                ],
                "channels": [
                    {"name": "in", "from": "src", "to": "p", "latency": 2},
                    {"name": "out", "from": "p", "to": "snk", "latency": 2}
                ]
            }"#,
        )
        .expect("valid json")
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = sample();
        let text = spec.to_json_pretty();
        let back = SystemSpec::from_json(&text).expect("parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(SystemSpec::from_json(r#"{"processes": []}"#).is_err());
        assert!(
            SystemSpec::from_json(r#"{"processes": [{"name": "p"}], "channels": []}"#).is_err()
        );
        assert!(SystemSpec::from_json(
            r#"{"processes": [{"name": "p", "latency": -1}], "channels": []}"#
        )
        .is_err());
    }

    /// A live ring of `n` processes and `n` channels, every latency at
    /// the JSON maximum 2^53 and one pre-loaded item on the closing
    /// channel. The first `reselectable` processes currently run at
    /// latency 1 but keep 2^53 on their Pareto frontier.
    fn max_latency_ring(n: usize, reselectable: usize) -> String {
        let top = 1u64 << 53;
        SystemSpec {
            processes: (0..n)
                .map(|i| ProcessSpec {
                    name: format!("p{i}"),
                    latency: if i < reselectable { 1 } else { top },
                    pareto: (i < reselectable).then(|| {
                        vec![
                            ParetoPointSpec {
                                latency: 1,
                                area: 1.0,
                            },
                            ParetoPointSpec {
                                latency: top,
                                area: 0.5,
                            },
                        ]
                    }),
                    get_order: None,
                    put_order: None,
                })
                .collect(),
            channels: (0..n)
                .map(|i| ChannelSpec {
                    name: format!("c{i}"),
                    from: format!("p{i}"),
                    to: format!("p{}", (i + 1) % n),
                    latency: top,
                    initial_tokens: u64::from(i + 1 == n),
                })
                .collect(),
        }
        .to_json_pretty()
    }

    #[test]
    fn latency_totals_inside_the_solver_range_analyze() {
        // D = 3·341·2^53 = 1023·2^53 ≤ i64::MAX: the largest such ring.
        let spec = SystemSpec::from_json(&max_latency_ring(341, 0)).expect("inside the bound");
        let report = ermes::analyze_design(&spec.to_design().expect("valid"));
        // The critical cycle threads every process and channel once.
        assert_eq!(report.cycle_time(), Some(tmg::Ratio::new(682 << 53, 1)));
        assert!(SystemSpec::from_json(&max_latency_ring(341, 3)).is_ok());
    }

    #[test]
    fn latency_totals_beyond_the_solver_range_are_rejected() {
        // D = 1026·2^53 > i64::MAX.
        let err = SystemSpec::from_json(&max_latency_ring(342, 0)).expect_err("outside the bound");
        assert!(err.to_string().contains("`latency`"), "{err}");
        // The current latencies total 1023·2^53 + 3, inside the bound, but
        // a reselect to the slowest points would leave it: the largest
        // Pareto latency is what counts.
        assert!(SystemSpec::from_json(&max_latency_ring(342, 3)).is_err());
    }

    #[test]
    fn to_system_builds_the_graph() {
        let sys = sample().to_system().expect("valid spec");
        assert_eq!(sys.process_count(), 3);
        assert_eq!(sys.channel_count(), 2);
        let verdict = tmg::analyze(sysgraph::lower_to_tmg(&sys).tmg());
        assert_eq!(verdict.cycle_time(), Some(tmg::Ratio::new(9, 1)));
    }

    #[test]
    fn to_design_uses_frontiers() {
        let design = sample().to_design().expect("valid spec");
        let p = sysgraph::ProcessId::from_index(1);
        assert_eq!(design.pareto(p).len(), 2);
        assert_eq!(design.latency(p), 5, "snaps to the declared latency");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut spec = sample();
        spec.processes[2].name = "src".into();
        assert!(matches!(spec.to_system(), Err(SpecError::DuplicateName(_))));
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut spec = sample();
        spec.channels[0].from = "ghost".into();
        assert!(matches!(spec.to_system(), Err(SpecError::UnknownName(_))));
    }

    #[test]
    fn explicit_orders_are_applied() {
        let mut spec = sample();
        // Add a second output to src so there is an order to speak of.
        spec.channels.push(ChannelSpec {
            name: "in2".into(),
            from: "src".into(),
            to: "snk".into(),
            latency: 1,
            initial_tokens: 0,
        });
        spec.processes[0].put_order = Some(vec!["in2".into(), "in".into()]);
        let sys = spec.to_system().expect("valid");
        let src = sysgraph::ProcessId::from_index(0);
        let names: Vec<&str> = sys
            .put_order(src)
            .iter()
            .map(|&c| sys.channel(c).name())
            .collect();
        assert_eq!(names, vec!["in2", "in"]);
    }

    #[test]
    fn self_channels_are_rejected() {
        let mut spec = sample();
        spec.channels[0].to = "src".into();
        assert_eq!(spec.to_system(), Err(SpecError::SelfChannel("in".into())));
    }

    #[test]
    fn empty_pareto_is_rejected() {
        let mut spec = sample();
        spec.processes[1].pareto = Some(Vec::new());
        assert_eq!(
            spec.to_design().err(),
            Some(SpecError::EmptyPareto("p".into()))
        );
    }

    #[test]
    fn non_finite_and_negative_areas_are_rejected() {
        let mut spec = sample();
        spec.processes[1].pareto = Some(vec![ParetoPointSpec {
            latency: 3,
            area: f64::INFINITY,
        }]);
        assert_eq!(
            spec.to_design().err(),
            Some(SpecError::InvalidArea("p".into()))
        );
        spec.processes[1].pareto = Some(vec![ParetoPointSpec {
            latency: 3,
            area: -1.0,
        }]);
        assert_eq!(
            spec.to_design().err(),
            Some(SpecError::InvalidArea("p".into()))
        );
        // `1e999` overflows to +inf while parsing; it must come back as a
        // structured error, not a panic deep in the sweep.
        let mut inf = sample();
        inf.processes[1].pareto = Some(vec![ParetoPointSpec {
            latency: 3,
            area: "1e999".parse().expect("parses to inf"),
        }]);
        assert!(inf.to_design().is_err());
    }

    #[test]
    fn bad_explicit_order_names_the_process() {
        let mut spec = sample();
        // Duplicate entry: right length, not a permutation.
        spec.processes[1].get_order = Some(vec!["in".into(), "in".into()]);
        assert_eq!(spec.to_system(), Err(SpecError::InvalidOrder("p".into())));
    }

    #[test]
    fn from_design_roundtrips_frontiers_and_orders() {
        let spec = sample();
        let design = spec.to_design().expect("valid");
        let captured = SystemSpec::from_design(&design);
        assert_eq!(captured.processes.len(), 3);
        assert_eq!(captured.processes[1].pareto.as_ref().map(Vec::len), Some(2));
        let rebuilt = captured.to_design().expect("round-trips");
        assert_eq!(
            rebuilt.system().process_count(),
            design.system().process_count()
        );
        assert_eq!(captured, SystemSpec::from_design(&rebuilt));
    }

    #[test]
    fn state_capture_records_orders() {
        let spec = sample();
        let sys = spec.to_system().expect("valid");
        let captured = spec.with_system_state(&sys);
        assert_eq!(
            captured.processes[1].get_order,
            Some(vec!["in".to_string()])
        );
    }
}
