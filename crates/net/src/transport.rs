//! The deployed-runtime seam: how protocol side effects become wire
//! traffic.
//!
//! [`Protocol`] automata describe *what* to send; this module owns the
//! vocabulary for *how* it travels:
//!
//! * [`Delivery`] — the staged send effect. `Context::broadcast` stages a
//!   single [`Delivery::Broadcast`] instead of `n` eager per-recipient
//!   clones; the executor core expands it with last-send-moves (clone
//!   `n - 1` times, move the last), and a wrapper such as the gossip
//!   overlay can re-address it without materializing the full fan-out.
//! * [`Envelope`] — one addressed message in flight, tagged with the
//!   sender's per-node send index (the coordinate the determinism twin
//!   replays by) and the monotonic send tick (latency accounting). It is
//!   what the executor core hands every scheduler for each send.
//! * [`Transport`] — the link layer under the threaded runtime:
//!   non-blocking, bounded, per-node inboxes. [`ChannelTransport`] is the
//!   in-process implementation; [`SocketTransport`](crate::SocketTransport)
//!   carries the same operations over real loopback TCP (see
//!   `docs/ARCHITECTURE.md` for the contract).
//!
//! Addressing stays [`NodeId`]-based on purpose: the seam abstracts the
//! *carriage* of messages, not the membership of the system.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::sim::{NodeId, Protocol};

/// One staged send effect: either a point-to-point message or a
/// full-population broadcast.
///
/// Broadcasts are kept symbolic until the executor core flushes the
/// callback that staged them: recipients expand in `0..n` order (the order
/// the simulator's seeded delay stream and the twin's send indices both
/// follow) with last-send-moves, so a large payload is cloned `n - 1` times
/// instead of `n`. A wrapper that re-addresses traffic (the gossip overlay)
/// treats the effect as "disseminate" without ever seeing a full recipient
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery<M> {
    /// Send `msg` to one node (possibly the sender itself).
    Unicast(NodeId, M),
    /// Send `msg` to every node, including the sender.
    Broadcast(M),
}

impl<M: Clone> Delivery<M> {
    /// Expands this effect into `(to, msg)` pairs over an `n`-node
    /// population, recipients in ascending order. The last broadcast
    /// recipient receives the moved payload (last-send-moves).
    pub fn expand_into(self, n: usize, out: &mut Vec<(NodeId, M)>) {
        self.expand(n, |to, msg| out.push((to, msg)));
    }

    /// [`Delivery::expand_into`] with a callback per pair: the one place
    /// the recipient order is decided.
    pub(crate) fn expand(self, n: usize, mut each: impl FnMut(NodeId, M)) {
        match self {
            Delivery::Unicast(to, msg) => each(to, msg),
            Delivery::Broadcast(msg) => {
                for to in 0..n.saturating_sub(1) {
                    each(to, msg.clone());
                }
                if n > 0 {
                    each(n - 1, msg);
                }
            }
        }
    }
}

/// One message in flight between two nodes.
///
/// `send_ix` is the sender's per-node send counter, assigned in staging
/// order when the effect is flushed (a broadcast occupies `n` consecutive
/// indices, recipients ascending). The delivery trace identifies messages
/// by `(from, send_ix)` alone — automata are deterministic, so the twin
/// replay re-derives the payload instead of storing it.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Per-sender send sequence number.
    pub send_ix: u64,
    /// Monotonic tick at which the message was handed to the transport.
    pub sent_at: u64,
    /// The payload.
    pub msg: M,
}

/// Why a non-blocking send did not complete.
#[derive(Debug)]
pub enum SendError<M> {
    /// The destination inbox is at capacity; the envelope is handed back
    /// so the caller can retry without blocking (bounded-link
    /// backpressure).
    Full(Envelope<M>),
    /// The transport has been closed (shutdown); the envelope is handed
    /// back and will never be deliverable.
    Closed(Envelope<M>),
}

/// The link layer under a runtime: bounded, non-blocking, per-node
/// inboxes addressed by [`NodeId`].
///
/// Implementations must be safe to share across worker threads. All three
/// operations are non-blocking by contract — a runtime worker never parks
/// inside the transport, which is what makes the bounded links
/// deadlock-free (backpressured envelopes are retried by the sender, not
/// waited on). [`SocketTransport`](crate::SocketTransport) implements
/// exactly this surface over loopback TCP: `try_send` serializes onto a
/// connection, `try_recv` polls the demultiplexed per-node receive queue
/// (see `docs/ARCHITECTURE.md`).
pub trait Transport<M>: Send + Sync {
    /// Number of addressable nodes.
    fn n(&self) -> usize;

    /// Hands one envelope toward `env.to` without blocking.
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] returns the envelope on backpressure;
    /// [`SendError::Closed`] after [`Transport::close`].
    fn try_send(&self, env: Envelope<M>) -> Result<(), SendError<M>>;

    /// Takes the next pending envelope for `node`, if any.
    fn try_recv(&self, node: NodeId) -> Option<Envelope<M>>;

    /// Shuts the transport down; subsequent sends fail with
    /// [`SendError::Closed`].
    fn close(&self);

    /// Takes the count of envelopes this transport accepted but dropped
    /// undelivered since the last call (in-flight at [`Transport::close`],
    /// lost on a dead connection). Each drop is reported exactly once; the
    /// runtime accounts them like halted-node drops, which is what keeps
    /// counted quiescence converging when a transport dies mid-run.
    ///
    /// The default is `0`: [`ChannelTransport`] never drops on its own —
    /// its leftovers stay poppable after `close()` and are drained (and
    /// counted) by the workers at shutdown.
    fn take_dropped(&self) -> u64 {
        0
    }
}

/// A shared transport handle is a transport: lets a test or harness keep
/// one `Arc` aside (to `close()` mid-run, injecting a fault) while the
/// runtime owns another.
impl<M, T: Transport<M> + ?Sized> Transport<M> for std::sync::Arc<T> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn try_send(&self, env: Envelope<M>) -> Result<(), SendError<M>> {
        (**self).try_send(env)
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope<M>> {
        (**self).try_recv(node)
    }

    fn close(&self) {
        (**self).close()
    }

    fn take_dropped(&self) -> u64 {
        (**self).take_dropped()
    }
}

/// In-process transport: one bounded MPSC inbox per node.
///
/// Each inbox is a mutex-guarded ring of at most `capacity` envelopes —
/// many senders, one consumer (the worker hosting the node). Locks are
/// held only for a push or pop, and the consumer side is effectively
/// uncontended, so the mutex is as cheap as a channel here while keeping
/// the transport object-shareable (`&self` everywhere).
pub struct ChannelTransport<M> {
    inboxes: Vec<Mutex<VecDeque<Envelope<M>>>>,
    capacity: usize,
    closed: AtomicBool,
}

/// Default per-node inbox capacity: deep enough that honest full-mesh
/// traffic rarely backpressures at benchmark scales, small enough that a
/// runaway sender is throttled instead of ballooning memory.
pub const DEFAULT_LINK_CAPACITY: usize = 1024;

impl<M> ChannelTransport<M> {
    /// A transport over `n` nodes with the default link capacity.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, DEFAULT_LINK_CAPACITY)
    }

    /// A transport over `n` nodes with `capacity` envelopes per inbox.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity link can never
    /// deliver).
    pub fn with_capacity(n: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "link capacity must be positive");
        ChannelTransport {
            inboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity,
            closed: AtomicBool::new(false),
        }
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn n(&self) -> usize {
        self.inboxes.len()
    }

    fn try_send(&self, env: Envelope<M>) -> Result<(), SendError<M>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SendError::Closed(env));
        }
        let mut inbox = self.inboxes[env.to].lock().expect("inbox poisoned");
        if inbox.len() >= self.capacity {
            return Err(SendError::Full(env));
        }
        inbox.push_back(env);
        Ok(())
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope<M>> {
        self.inboxes[node].lock().expect("inbox poisoned").pop_front()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

/// Boxed automata that may cross threads: what the threaded runtime
/// hosts. The [`Protocol`] trait itself stays `Send`-free so simulator
/// tests can keep `Rc`-instrumented probe nodes.
pub type SendNodes<M> = Vec<Box<dyn Protocol<Msg = M> + Send>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: NodeId, to: NodeId, ix: u64, msg: u64) -> Envelope<u64> {
        Envelope { from, to, send_ix: ix, sent_at: 0, msg }
    }

    #[test]
    fn delivery_expansion_orders_recipients_and_moves_last() {
        let mut out = Vec::new();
        Delivery::Broadcast(7u64).expand_into(3, &mut out);
        Delivery::Unicast(1, 9u64).expand_into(3, &mut out);
        assert_eq!(out, vec![(0, 7), (1, 7), (2, 7), (1, 9)]);
    }

    #[test]
    fn channel_transport_is_fifo_per_link() {
        let t = ChannelTransport::new(2);
        t.try_send(env(0, 1, 0, 10)).unwrap();
        t.try_send(env(0, 1, 1, 11)).unwrap();
        assert_eq!(t.try_recv(1).map(|e| e.msg), Some(10));
        assert_eq!(t.try_recv(1).map(|e| e.msg), Some(11));
        assert!(t.try_recv(1).is_none());
        assert!(t.try_recv(0).is_none());
    }

    #[test]
    fn bounded_links_backpressure_and_hand_the_envelope_back() {
        let t = ChannelTransport::with_capacity(1, 2);
        t.try_send(env(0, 0, 0, 1)).unwrap();
        t.try_send(env(0, 0, 1, 2)).unwrap();
        match t.try_send(env(0, 0, 2, 3)) {
            Err(SendError::Full(e)) => assert_eq!((e.send_ix, e.msg), (2, 3)),
            other => panic!("expected backpressure, got {other:?}"),
        }
        // Draining one slot unblocks the link.
        assert_eq!(t.try_recv(0).map(|e| e.msg), Some(1));
        t.try_send(env(0, 0, 2, 3)).unwrap();
    }

    #[test]
    fn closed_transport_rejects_sends() {
        let t = ChannelTransport::new(1);
        t.close();
        assert!(matches!(t.try_send(env(0, 0, 0, 1)), Err(SendError::Closed(_))));
    }
}
