//! The determinism twin: every threaded-runtime run is replayable on the
//! deterministic simulator substrate, bit-identically.
//!
//! A [`ThreadedRuntime`](crate::ThreadedRuntime) run is nondeterministic —
//! OS scheduling decides the delivery order. What it *records* is a
//! [`DeliveryTrace`]: the exact callback sequence it executed, with each
//! message identified by its sender's per-node send index rather than by
//! payload. Because [`Protocol`] automata are deterministic functions of
//! their callback sequence, [`DeliveryTrace::replay`] can re-execute the
//! run single-threaded on fresh nodes — the same executor core the live
//! run stepped, with the trace as its schedule — re-deriving every
//! payload, and the resulting outputs and [`Metrics`] must equal the live
//! run's exactly.
//! Any mismatch — a send index that was never emitted, a timer id that
//! differs, a delivery to a node the replay believes halted — is a
//! [`TwinError`], the signal that an automaton hides nondeterminism
//! (wall-clock reads, iteration-order-dependent emissions, shared mutable
//! state) that the simulator cannot reproduce.
//!
//! The trace stores *coordinates, not payloads*: ~3 words per event, so
//! tracing stays cheap enough to leave on for every benchmark run (the
//! `runtime_scale --ci-smoke` gate replays every cell nightly).

use std::collections::HashMap;

use swiper_core::EpochEvent;

use crate::exec::{Host, Input, Sink};
use crate::metrics::Metrics;
use crate::sim::{NodeId, Protocol, RunReport};
use crate::transport::Envelope;
use crate::MessageSize;

/// One recorded callback of a runtime run, in a causally consistent total
/// order (an event's record is appended before any of its effects become
/// visible to other nodes, so every `Deliver` appears after the record of
/// the callback that sent it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `to` processed the message `from` emitted as its `send_ix`-th send.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The sender's per-node send sequence number.
        send_ix: u64,
        /// Monotonic tick at delivery (the receiver's `ctx.now()`).
        at: u64,
    },
    /// `to`'s `timer_ix`-th armed timer fired.
    Timer {
        /// The node whose timer fired.
        to: NodeId,
        /// The node's per-node timer arm counter.
        timer_ix: u64,
        /// The timer id the automaton armed (cross-checked on replay).
        id: u64,
        /// Monotonic tick at firing.
        at: u64,
    },
    /// `to` processed the `epoch_ix`-th injected [`EpochEvent`].
    Epoch {
        /// The reconfigured node.
        to: NodeId,
        /// Index into the trace's epoch-event schedule.
        epoch_ix: usize,
        /// Monotonic tick at application.
        at: u64,
    },
}

/// The replayable record of one runtime run: per-node start times, the
/// causally ordered callback sequence, and the epoch events the run
/// injected.
#[derive(Debug, Clone)]
pub struct DeliveryTrace {
    pub(crate) n: usize,
    /// `ctx.now()` each node saw in `on_start`.
    pub(crate) start_at: Vec<u64>,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) epochs: Vec<EpochEvent>,
}

/// A divergence between a recorded runtime run and its simulator replay:
/// the trace references state the deterministic re-execution never
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinError {
    /// Position in the trace at which the replay diverged.
    pub at_event: usize,
    /// What the replay could not reproduce.
    pub reason: String,
}

impl std::fmt::Display for TwinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "twin replay diverged at trace event {}: {}", self.at_event, self.reason)
    }
}

impl std::error::Error for TwinError {}

/// The replay's side of the executor core: what every node has emitted
/// and not yet had consumed by the trace, keyed by the same per-node
/// counters the live run assigned.
struct Emitted<M> {
    /// Per sender: `send_ix → (to, msg)`.
    sent: Vec<HashMap<u64, (NodeId, M)>>,
    /// Per node: `timer_ix → id`.
    armed: Vec<HashMap<u64, u64>>,
}

impl<M> Sink<M> for Emitted<M> {
    fn send(&mut self, env: Envelope<M>) {
        self.sent[env.from].insert(env.send_ix, (env.to, env.msg));
    }

    fn arm(&mut self, node: NodeId, timer_ix: u64, _due: u64, id: u64) {
        self.armed[node].insert(timer_ix, id);
    }
}

impl DeliveryTrace {
    /// Number of nodes the trace was recorded over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded callbacks.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the run recorded no callbacks at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-executes the recorded run on fresh `nodes`, single-threaded and
    /// deterministic, and reports. The nodes must be constructed exactly
    /// as the live run's were (same configs, same seeds): the replay
    /// re-derives every payload from the automata themselves, so the
    /// returned outputs and metrics are bit-comparable with the live
    /// run's.
    ///
    /// # Errors
    ///
    /// [`TwinError`] when the trace references an emission the replay
    /// never produced — the bit-identity contract is violated — or names a
    /// node outside the traced population.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the traced population.
    pub fn replay<M: Clone + MessageSize>(
        &self,
        nodes: Vec<Box<dyn Protocol<Msg = M>>>,
    ) -> Result<RunReport, TwinError> {
        assert_eq!(nodes.len(), self.n, "replay population must match the trace");
        let n = self.n;
        if self.start_at.len() != n {
            let reason = format!("{} start stamps for {n} nodes", self.start_at.len());
            return Err(TwinError { at_event: 0, reason });
        }
        let mut metrics = Metrics::new(n);
        let mut hosts: Vec<_> =
            nodes.into_iter().enumerate().map(|(id, node)| Host::new(id, node)).collect();
        let mut emitted = Emitted {
            sent: (0..n).map(|_| HashMap::new()).collect(),
            armed: (0..n).map(|_| HashMap::new()).collect(),
        };
        for (host, &at) in hosts.iter_mut().zip(&self.start_at) {
            host.step(n, at, Input::Start, &mut metrics, &mut emitted);
        }

        let (mut elapsed, mut events) = (0u64, 0u64);
        for (pos, ev) in self.events.iter().enumerate() {
            let err = |reason: String| TwinError { at_event: pos, reason };
            let (TraceEvent::Deliver { to, at, .. }
            | TraceEvent::Timer { to, at, .. }
            | TraceEvent::Epoch { to, at, .. }) = *ev;
            let Some(host) = hosts.get_mut(to) else {
                return Err(err(format!("node {to} is outside the traced population of {n}")));
            };
            let (what, input) = match *ev {
                TraceEvent::Deliver { from, send_ix, .. } => {
                    let Some((dest, msg)) =
                        emitted.sent.get_mut(from).and_then(|sent| sent.remove(&send_ix))
                    else {
                        return Err(err(format!(
                            "node {to} expects send #{send_ix} from node {from}, \
                             which the replay never emitted"
                        )));
                    };
                    if dest != to {
                        return Err(err(format!(
                            "send #{send_ix} from node {from} was addressed to \
                             node {dest}, not node {to}"
                        )));
                    }
                    events += 1;
                    ("delivery to", Input::Message { from, msg })
                }
                TraceEvent::Timer { timer_ix, id, .. } => {
                    let Some(armed) = emitted.armed[to].remove(&timer_ix) else {
                        return Err(err(format!(
                            "timer #{timer_ix} on node {to} was never armed in the replay"
                        )));
                    };
                    if armed != id {
                        return Err(err(format!(
                            "timer #{timer_ix} on node {to} was armed with id {armed}, \
                             the live run fired id {id}"
                        )));
                    }
                    events += 1;
                    ("timer fire on", Input::Timer { id })
                }
                TraceEvent::Epoch { epoch_ix, .. } => {
                    let Some(event) = self.epochs.get(epoch_ix) else {
                        return Err(err(format!(
                            "epoch #{epoch_ix} is not in the trace's schedule"
                        )));
                    };
                    ("reconfiguration of", Input::Epoch(event))
                }
            };
            // The live run never traces a callback on a halted node.
            if host.halted {
                return Err(err(format!(
                    "{what} node {to}, which already halted in the replay"
                )));
            }
            elapsed = elapsed.max(at);
            host.step(n, at, input, &mut metrics, &mut emitted);
        }

        Ok(RunReport {
            outputs: hosts.into_iter().map(|h| h.output).collect(),
            elapsed,
            events,
            reconfigurations: self.epochs.len() as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Context;

    struct Pinger;
    impl Protocol for Pinger {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(1);
        }
        fn on_message(&mut self, _from: NodeId, _msg: u64, _ctx: &mut Context<u64>) {}
    }

    fn pingers(n: usize) -> Vec<Box<dyn Protocol<Msg = u64>>> {
        (0..n).map(|_| Box::new(Pinger) as _).collect()
    }

    /// A trace is data: one that names a node outside `0..n` (a forged
    /// `from` off the wire, a corrupted file) or carries the wrong number
    /// of start stamps must come back as a `TwinError`, not an index panic.
    #[test]
    fn out_of_population_coordinates_are_a_twin_error() {
        let trace = |start_at: Vec<u64>, events: Vec<TraceEvent>| DeliveryTrace {
            n: 2,
            start_at,
            events,
            epochs: Vec::new(),
        };
        let ok = TraceEvent::Deliver { to: 1, from: 0, send_ix: 1, at: 5 };
        assert!(trace(vec![0, 0], vec![ok.clone()]).replay(pingers(2)).is_ok());
        for (bad, at_event) in [
            (
                trace(
                    vec![0, 0],
                    vec![ok.clone(), TraceEvent::Deliver { to: 1, from: 2, send_ix: 0, at: 6 }],
                ),
                1,
            ),
            (
                trace(
                    vec![0, 0],
                    vec![TraceEvent::Deliver { to: 2, from: 0, send_ix: 0, at: 6 }],
                ),
                0,
            ),
            (
                trace(vec![0, 0], vec![TraceEvent::Timer { to: 7, timer_ix: 0, id: 0, at: 6 }]),
                0,
            ),
            (trace(vec![0, 0], vec![TraceEvent::Epoch { to: 2, epoch_ix: 0, at: 6 }]), 0),
            (trace(vec![0], vec![ok.clone()]), 0),
            (trace(vec![0, 0, 0], vec![ok]), 0),
        ] {
            let err = bad.replay(pingers(2)).expect_err("must diverge, not panic");
            assert_eq!(err.at_event, at_event, "{err}");
        }
    }
}
