//! Lowering a system graph to a timed marked graph.
//!
//! Implements the performance model of Section 3 of the paper. Each
//! process contributes a *computation transition* whose delay is its
//! micro-architecture latency; each channel contributes a single *channel
//! transition* whose delay is the channel's minimum transfer latency. The
//! serial three-phase execution of a process becomes a cyclic chain of
//! places threading its ordered `get` transitions, its computation
//! transition, and its ordered `put` transitions. A channel transition is
//! therefore fed by two places — the producer's put-place and the
//! consumer's get-place — and the blocking rendezvous falls out of the
//! firing rule.
//!
//! Initial marking: one token on the place entering the first I/O
//! transition of every process's iteration (its first `get`, or for a
//! source process its first `put` — modeling a testbench that is always
//! ready to provide data).
//!
//! Channels pre-loaded with initial items (feedback loops) are modeled
//! with the classic marked-graph FIFO decomposition: a zero-delay
//! *producer handshake* transition and a latency-carrying *consumer
//! transfer* transition, coupled by a data place (initially holding the
//! channel's items) and a credit place (initially empty — the FIFO
//! starts full, so the producer's first `put` completes only after the
//! consumer frees a slot). Folding the initial items into the producer's
//! control chain instead would unsoundly let the producer FSM run
//! several iterations in parallel.
//!
//! The lowered transitions carry empty names: the exploration loop lowers
//! the whole system on every analysis and never prints a transition, so
//! [`LoweredTmg::transition_name`] derives a name from the system only
//! where one is shown.

use crate::ids::{ChannelId, ProcessId};
use crate::model::SystemGraph;
use tmg::{PlaceId, Tmg, TmgBuilder, TransitionId};

/// What a TMG transition corresponds to in the source system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmgOrigin {
    /// The computation phase of a process.
    Process(ProcessId),
    /// The data transfer on a channel.
    Channel(ChannelId),
}

/// A timed marked graph lowered from a [`SystemGraph`], with maps between
/// the two levels of abstraction.
#[derive(Debug, Clone)]
pub struct LoweredTmg {
    tmg: Tmg,
    process_transitions: Vec<TransitionId>,
    channel_transitions: Vec<TransitionId>,
    origins: Vec<TmgOrigin>,
}

impl LoweredTmg {
    /// The underlying timed marked graph.
    #[must_use]
    pub fn tmg(&self) -> &Tmg {
        &self.tmg
    }

    /// The TMG transition modeling the computation phase of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn process_transition(&self, p: ProcessId) -> TransitionId {
        self.process_transitions[p.index()]
    }

    /// The TMG transition modeling the transfer on channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn channel_transition(&self, c: ChannelId) -> TransitionId {
        self.channel_transitions[c.index()]
    }

    /// Updates the delay of the computation transition of process `p` in
    /// place, without re-lowering.
    ///
    /// Keeps a lowered graph in sync with a process reselect (latency
    /// change): the lowering maps a process's latency onto exactly one
    /// transition delay, so this is equivalent to — and much cheaper than —
    /// lowering the updated system from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_process_latency(&mut self, p: ProcessId, latency: u64) {
        self.tmg
            .set_transition_delay(self.process_transitions[p.index()], latency);
    }

    /// Maps a TMG transition back to its system-level origin.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to the lowered graph.
    #[must_use]
    pub fn origin(&self, t: TransitionId) -> TmgOrigin {
        self.origins[t.index()]
    }

    /// The display name of transition `t`: `L[process]` for a computation
    /// phase, `ch[channel]` for a transfer, and `put[channel]` for the
    /// producer handshake of a channel with initial items. `system` must
    /// be the system this graph was lowered from.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to the lowered graph, or `system`
    /// has fewer processes or channels than the lowered one.
    #[must_use]
    pub fn transition_name(&self, system: &SystemGraph, t: TransitionId) -> String {
        match self.origins[t.index()] {
            TmgOrigin::Process(p) => format!("L[{}]", system.process(p).name()),
            TmgOrigin::Channel(c) if self.channel_transitions[c.index()] == t => {
                format!("ch[{}]", system.channel(c).name())
            }
            TmgOrigin::Channel(c) => format!("put[{}]", system.channel(c).name()),
        }
    }

    /// The processes whose computation transitions appear among
    /// `transitions` (e.g. a critical cycle), deduplicated, in first-seen
    /// order.
    #[must_use]
    pub fn processes_of(&self, transitions: &[TransitionId]) -> Vec<ProcessId> {
        let mut seen = vec![false; self.process_transitions.len()];
        let mut out = Vec::new();
        for &t in transitions {
            if let TmgOrigin::Process(p) = self.origins[t.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    out.push(p);
                }
            }
        }
        out
    }

    /// The channels whose transfer transitions appear among `transitions`,
    /// deduplicated, in first-seen order.
    #[must_use]
    pub fn channels_of(&self, transitions: &[TransitionId]) -> Vec<ChannelId> {
        let mut seen = vec![false; self.channel_transitions.len()];
        let mut out = Vec::new();
        for &t in transitions {
            if let TmgOrigin::Channel(c) = self.origins[t.index()] {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    out.push(c);
                }
            }
        }
        out
    }
}

/// Lowers `system` (with its current channel orderings) to a timed marked
/// graph.
///
/// # Examples
///
/// ```
/// use sysgraph::{SystemGraph, lower_to_tmg};
/// use tmg::{analyze, Ratio};
/// let mut sys = SystemGraph::new();
/// let src = sys.add_process("src", 1);
/// let p = sys.add_process("p", 7);
/// let snk = sys.add_process("snk", 1);
/// sys.add_channel("in", src, p, 1)?;
/// sys.add_channel("out", p, snk, 1)?;
/// let lowered = lower_to_tmg(&sys);
/// // The pipeline is paced by the slowest process loop:
/// // p's chain carries in + L_p + out = 1 + 7 + 1 = 9 cycles per item.
/// assert_eq!(analyze(lowered.tmg()).cycle_time(), Some(Ratio::new(9, 1)));
/// # Ok::<(), sysgraph::SysGraphError>(())
/// ```
#[must_use]
pub fn lower_to_tmg(system: &SystemGraph) -> LoweredTmg {
    // Exact sizes are known up front: P + C transitions plus one handshake
    // per initialized channel; each process chain closes with one place per
    // transition in it (gets + compute + puts, i.e. P + 2C over the whole
    // system, with an isolated process contributing its self-loop), and
    // each initialized channel adds a data/credit place pair.
    let initialized = system
        .channel_ids()
        .filter(|&c| system.channel(c).initial_tokens() > 0)
        .count();
    let transition_count = system.process_count() + system.channel_count() + initialized;
    let place_count = system.process_count() + 2 * system.channel_count() + 2 * initialized;
    let mut b = TmgBuilder::with_capacity(transition_count, place_count);
    let mut origins = Vec::with_capacity(transition_count);

    let process_transitions: Vec<TransitionId> = system
        .process_ids()
        .map(|p| {
            let t = b.add_transition("", system.process(p).latency());
            origins.push(TmgOrigin::Process(p));
            t
        })
        .collect();
    // Consumer-side transfer transition per channel (carries the channel
    // latency); initialized channels additionally get a zero-delay
    // producer-handshake transition. Indexed densely by channel id — the
    // scan below visits channels in ascending id order.
    let mut producer_transitions: Vec<TransitionId> = Vec::with_capacity(system.channel_count());
    let channel_transitions: Vec<TransitionId> = system
        .channel_ids()
        .map(|c| {
            let t = b.add_transition("", system.channel(c).latency());
            origins.push(TmgOrigin::Channel(c));
            t
        })
        .collect();
    for c in system.channel_ids() {
        if system.channel(c).initial_tokens() > 0 {
            let tp = b.add_transition("", 0);
            origins.push(TmgOrigin::Channel(c));
            producer_transitions.push(tp);
            let k = system.channel(c).initial_tokens();
            // Data place: pre-loaded items flow producer -> consumer.
            b.add_place(tp, channel_transitions[c.index()], k);
            // Credit place: the FIFO starts full, so no free slots.
            b.add_place(channel_transitions[c.index()], tp, 0);
        } else {
            producer_transitions.push(channel_transitions[c.index()]);
        }
    }

    // The cyclic chain per process: gets, computation, puts. One scratch
    // buffer reused across all processes.
    let mut seq: Vec<TransitionId> = Vec::new();
    for p in system.process_ids() {
        seq.clear();
        seq.extend(
            system
                .get_order(p)
                .iter()
                .map(|&c| channel_transitions[c.index()]),
        );
        let compute_pos = seq.len();
        seq.push(process_transitions[p.index()]);
        seq.extend(
            system
                .put_order(p)
                .iter()
                .map(|&c| producer_transitions[c.index()]),
        );

        if seq.len() == 1 {
            // Isolated process: a live self-loop.
            b.add_place(seq[0], seq[0], 1);
            continue;
        }

        // The token sits on the place entering the first I/O transition of
        // the iteration: the first `get` (index 0) when the process has
        // inputs, otherwise the first `put` (right after the computation).
        let start = if compute_pos > 0 { 0 } else { 1 };
        for i in 0..seq.len() {
            let next = (i + 1) % seq.len();
            b.add_place(seq[i], seq[next], u64::from(next == start));
        }
    }

    LoweredTmg {
        tmg: b.build().expect("system graphs lower to non-empty TMGs"),
        process_transitions,
        channel_transitions,
        origins,
    }
}

/// Convenience: the places of the lowered TMG that model `put`/`get`
/// synchronization points of channel `c` (its two input places).
#[must_use]
pub fn channel_places(lowered: &LoweredTmg, c: ChannelId) -> Vec<PlaceId> {
    let t = lowered.channel_transition(c);
    lowered.tmg().input_places(t).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg::{analyze, Ratio, Verdict};

    /// The paper's deadlock scenario in miniature: two processes that both
    /// write before reading on crossing channels... cannot be expressed
    /// with pure three-phase processes (gets always precede puts), so we
    /// build the classic order-induced deadlock of Section 2 instead:
    /// P -> Q on two channels, where Q reads them in the reverse order of
    /// P's writes — which is *not* a deadlock for rendezvous with
    /// reordering freedom on one side only. The real deadlock needs three
    /// parties; see the motivating-example tests in `examples.rs`.
    #[test]
    fn pipeline_cycle_time_is_stage_loop() {
        let mut sys = SystemGraph::new();
        let src = sys.add_process("src", 1);
        let p = sys.add_process("p", 7);
        let snk = sys.add_process("snk", 1);
        sys.add_channel("in", src, p, 1).expect("valid");
        sys.add_channel("out", p, snk, 1).expect("valid");
        let lowered = lower_to_tmg(&sys);
        assert_eq!(analyze(lowered.tmg()).cycle_time(), Some(Ratio::new(9, 1)));
    }

    #[test]
    fn transition_counts_match_model() {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 1);
        let b = sys.add_process("b", 1);
        sys.add_channel("x", a, b, 1).expect("valid");
        let lowered = lower_to_tmg(&sys);
        // 2 process transitions + 1 channel transition.
        assert_eq!(lowered.tmg().transition_count(), 3);
        // Chains: a has (L_a, ch) -> 2 places; b has (ch, L_b) -> 2 places.
        assert_eq!(lowered.tmg().place_count(), 4);
    }

    #[test]
    fn origins_map_back() {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 1);
        let b = sys.add_process("b", 1);
        let x = sys.add_channel("x", a, b, 1).expect("valid");
        let lowered = lower_to_tmg(&sys);
        assert_eq!(
            lowered.origin(lowered.process_transition(a)),
            TmgOrigin::Process(a)
        );
        assert_eq!(
            lowered.origin(lowered.channel_transition(x)),
            TmgOrigin::Channel(x)
        );
        let all: Vec<TransitionId> = lowered.tmg().transition_ids().collect();
        assert_eq!(lowered.processes_of(&all), vec![a, b]);
        assert_eq!(lowered.channels_of(&all), vec![x]);
    }

    #[test]
    fn transition_names_derive_from_origins() {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 1);
        let b = sys.add_process("b", 1);
        sys.add_channel("x", a, b, 1).expect("valid");
        sys.add_channel_with_tokens("fb", b, a, 1, 1)
            .expect("valid");
        let lowered = lower_to_tmg(&sys);
        let names: Vec<String> = lowered
            .tmg()
            .transition_ids()
            .map(|t| lowered.transition_name(&sys, t))
            .collect();
        assert_eq!(names, ["L[a]", "L[b]", "ch[x]", "ch[fb]", "put[fb]"]);
    }

    #[test]
    fn channel_transition_is_fed_by_put_and_get_places() {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 1);
        let b = sys.add_process("b", 1);
        let x = sys.add_channel("x", a, b, 1).expect("valid");
        let lowered = lower_to_tmg(&sys);
        let feeds = channel_places(&lowered, x);
        assert_eq!(feeds.len(), 2, "one put-place and one get-place");
        let producers: Vec<_> = feeds
            .iter()
            .map(|&p| lowered.tmg().place(p).producer())
            .collect();
        assert!(producers.contains(&lowered.process_transition(a)));
        assert!(producers.contains(&lowered.process_transition(b)));
    }

    #[test]
    fn source_token_models_ready_environment() {
        let mut sys = SystemGraph::new();
        let src = sys.add_process("src", 2);
        let snk = sys.add_process("snk", 3);
        sys.add_channel("x", src, snk, 4).expect("valid");
        let lowered = lower_to_tmg(&sys);
        match analyze(lowered.tmg()) {
            Verdict::Live { cycle_time, .. } => {
                // Both loops share the channel transition: src loop is
                // 2 + 4 = 6, snk loop is 3 + 4 = 7; the slower one paces.
                assert_eq!(cycle_time, Ratio::new(7, 1));
            }
            other => panic!("expected live, got {other:?}"),
        }
    }

    #[test]
    fn isolated_process_stays_live() {
        let mut sys = SystemGraph::new();
        let _lonely = sys.add_process("lonely", 5);
        let lowered = lower_to_tmg(&sys);
        assert_eq!(analyze(lowered.tmg()).cycle_time(), Some(Ratio::new(5, 1)));
    }

    #[test]
    fn initialized_feedback_loop_is_live() {
        // A two-process loop: forward channel plus a feedback channel that
        // carries one initial item. Without the initial item the loop
        // starves; with it the system pipelines.
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 2);
        let b = sys.add_process("b", 3);
        sys.add_channel("fwd", a, b, 1).expect("valid");
        sys.add_channel_with_tokens("fb", b, a, 1, 1)
            .expect("valid");
        let lowered = lower_to_tmg(&sys);
        let verdict = analyze(lowered.tmg());
        assert!(!verdict.is_deadlock(), "initialized loop must be live");

        // The same loop without initialization deadlocks.
        let mut starved = SystemGraph::new();
        let a = starved.add_process("a", 2);
        let b = starved.add_process("b", 3);
        starved.add_channel("fwd", a, b, 1).expect("valid");
        starved.add_channel("fb", b, a, 1).expect("valid");
        assert!(analyze(lower_to_tmg(&starved).tmg()).is_deadlock());
    }

    #[test]
    fn reordering_changes_the_tmg() {
        // Fan-out hub: the chain order of puts changes the place structure.
        let mut sys = SystemGraph::new();
        let hub = sys.add_process("hub", 1);
        let l1 = sys.add_process("l1", 1);
        let l2 = sys.add_process("l2", 1);
        let c1 = sys.add_channel("c1", hub, l1, 1).expect("valid");
        let c2 = sys.add_channel("c2", hub, l2, 1).expect("valid");
        let before = lower_to_tmg(&sys);
        sys.set_put_order(hub, vec![c2, c1]).expect("permutation");
        let after = lower_to_tmg(&sys);
        // Same sizes, different wiring.
        assert_eq!(
            before.tmg().transition_count(),
            after.tmg().transition_count()
        );
        let chain_next = |l: &LoweredTmg, from: TransitionId| -> Vec<TransitionId> {
            l.tmg()
                .output_places(from)
                .iter()
                .map(|&p| l.tmg().place(p).consumer())
                .collect()
        };
        let hub_t = before.process_transition(hub);
        assert_ne!(chain_next(&before, hub_t), chain_next(&after, hub_t));
    }
}
