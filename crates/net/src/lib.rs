//! # swiper-net — execution substrates for asynchronous protocols
//!
//! The weighted protocols of the Swiper paper (broadcast, agreement,
//! beacons, SSLE, SMR) are *asynchronous message-passing* protocols. This
//! crate provides the substrates they run on — one [`Protocol`] automaton
//! interface and one executor core that gives a callback the same meaning
//! everywhere (build the [`Context`], call the automaton, account its
//! traffic in [`Metrics`], number and flush its effects), driven by three
//! schedulers:
//!
//! * [`Protocol`] — the node automaton interface (`on_start`,
//!   `on_message`, `on_timer`, `on_reconfigure`), object-safe so
//!   heterogeneous behaviours (honest, crashed, Byzantine) can share one
//!   run.
//! * [`Simulation`] — the deterministic scheduler: a seeded discrete-event
//!   queue with configurable message delays. Same seed, same run: every
//!   execution is exactly reproducible.
//! * [`ThreadedRuntime`] — the deployed scheduler: worker threads, bounded
//!   links over a pluggable [`Transport`] ([`ChannelTransport`]
//!   in-process, [`SocketTransport`] over real loopback TCP with a
//!   [`WireCodec`] per message type), monotonic-clock timers. Every
//!   run records a [`DeliveryTrace`].
//! * [`DeliveryTrace::replay`] — the determinism twin: the recorded
//!   callback sequence is the schedule, and the same core re-executes it
//!   single-threaded, bit-identically.
//! * [`overlay`] — the partial-view gossip dissemination backend:
//!   [`OverlayNode`] wraps any protocol and expands its symbolic
//!   broadcasts into stake-weighted eager/lazy fanout (one view drawn
//!   from the public weight vector, Plumtree repair, SWIM-style churn
//!   detection feeding the epoch machinery) instead of full-mesh.
//! * [`adversary`] — generic fault injection: silence, crash-after-k,
//!   and arbitrary message-mangling wrappers.
//! * [`Metrics`] — per-node message/byte counters, the paper's
//!   communication-overhead measurements (Table 1) read these.
//!
//! The layering (Protocol → executor core → Transport) and the
//! determinism-twin contract are documented in `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The asynchronous model matches the paper's: the adversary (here, the
//! delay schedule) may reorder messages arbitrarily but must eventually
//! deliver every message between honest parties.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod codec;
mod exec;
mod metrics;
pub mod overlay;
mod runtime;
mod sim;
mod socket;
mod transport;
mod twin;

pub use adversary::AdaptiveDelay;
pub use codec::{
    put_bool, put_slice, put_u32, put_u64, BytesCodec, U64Codec, WireCodec, WireError,
    WireReader,
};
pub use metrics::Metrics;
pub use overlay::{
    ChurnEvent, ChurnLedger, OverlayCodec, OverlayConfig, OverlayMsg, OverlayNode, OverlayStats,
};
pub use runtime::{HistSummary, RuntimeReport, ThreadedRuntime};
pub use sim::{Context, DelayModel, Effects, NodeId, Protocol, RunReport, Simulation};
pub use socket::SocketTransport;
pub use transport::{
    ChannelTransport, Delivery, Envelope, SendError, SendNodes, Transport,
    DEFAULT_LINK_CAPACITY,
};
pub use twin::{DeliveryTrace, TraceEvent, TwinError};

/// Byte-size accounting for protocol messages (the communication metric).
pub trait MessageSize {
    /// Size of this message on the wire, in bytes.
    fn size_bytes(&self) -> usize;
}

impl MessageSize for Vec<u8> {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

impl MessageSize for String {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

impl MessageSize for u64 {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl MessageSize for () {
    fn size_bytes(&self) -> usize {
        0
    }
}
