//! The socket transport: the seam's first real deployment backend.
//!
//! [`SocketTransport`] implements the [`Transport`] contract of
//! `docs/ARCHITECTURE.md` over loopback TCP: every node owns a listener,
//! every destination is reached through one shared connection whose
//! user-space write buffer is bounded (backpressure returns
//! [`SendError::Full`] with the envelope intact), and a single IO pump
//! thread moves bytes — flushing write buffers into the kernel and
//! reading, framing and decoding inbound bytes into per-node receive
//! queues that [`Transport::try_recv`] polls. All worker-facing
//! operations are non-blocking, as the runtime requires.
//!
//! # Wire format
//!
//! One frame per [`Envelope`], length-prefixed:
//!
//! ```text
//! [len: u32le] [from: u32le] [to: u32le] [send_ix: u64le] [sent_at: u64le] [payload…]
//! ```
//!
//! `len` counts everything after itself (24 header bytes + payload). The
//! payload is encoded by a [`WireCodec`] — the only message-type-specific
//! piece. `send_ix` rides the wire because it is the coordinate the
//! determinism twin replays by.
//!
//! # FIFO per link
//!
//! All senders to one destination serialize through that destination's
//! connection mutex, each frame appended atomically, and TCP preserves
//! byte order — so messages between any ordered pair `(from, to)` arrive
//! in send order, the discipline the runtime's retry queues and the twin
//! replay both assume.
//!
//! # Close and drop accounting
//!
//! [`Transport::close`] fails subsequent sends and freezes delivery:
//! `try_recv` refuses under the same lock that guards the queue, so after
//! `close()` returns no further envelope can be handed out. Everything
//! accepted by `try_send` but never handed out — bytes in write buffers,
//! in kernel socket buffers, or queued undelivered — is *in-flight drop*,
//! reported exactly once through [`Transport::take_dropped`] as
//! `sent − delivered`. The runtime accounts those drops like
//! halted-node drops, which is what keeps counted quiescence converging
//! when a socket dies mid-run.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::WireCodec;
use crate::sim::NodeId;
use crate::transport::{Envelope, SendError, Transport, DEFAULT_LINK_CAPACITY};

/// Bytes of envelope header on the wire after the length prefix.
const FRAME_HEADER: usize = 4 + 4 + 8 + 8;
/// Upper bound on a single frame body — a corrupt length prefix must not
/// ask the pump to buffer gigabytes.
const MAX_FRAME: usize = 64 << 20;

/// One outbound connection: the stream plus the bounded user-space write
/// buffer ahead of it. `frames` holds the not-yet-flushed byte length of
/// each queued frame; its length is the backpressure measure.
struct Conn {
    stream: TcpStream,
    buf: VecDeque<u8>,
    frames: VecDeque<usize>,
}

impl Conn {
    /// Writes as much buffered data as the socket accepts right now.
    /// Returns whether any bytes moved. A hard write error drops the
    /// buffered frames (they stay accounted as in-flight drops).
    fn flush_nonblocking(&mut self) -> bool {
        let mut progress = false;
        while !self.buf.is_empty() {
            let (head, _) = self.buf.as_slices();
            match self.stream.write(head) {
                Ok(0) => break,
                Ok(k) => {
                    self.buf.drain(..k);
                    self.consume_frames(k);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Peer gone: everything still buffered is dropped
                    // in-flight; `sent - delivered` keeps the count.
                    self.buf.clear();
                    self.frames.clear();
                    break;
                }
            }
        }
        progress
    }

    /// Retires `k` flushed bytes from the per-frame bookkeeping.
    fn consume_frames(&mut self, mut k: usize) {
        while k > 0 {
            let front = self.frames.front_mut().expect("flushed bytes beyond frame ledger");
            if *front <= k {
                k -= *front;
                self.frames.pop_front();
            } else {
                *front -= k;
                k = 0;
            }
        }
    }
}

/// One node's inbound queue. `closed` lives under the same mutex so that
/// once [`Transport::close`] has visited every queue, no later `try_recv`
/// can hand out an envelope — the freeze that makes `sent − delivered`
/// an exact drop count.
struct RecvQueue<M> {
    q: VecDeque<Envelope<M>>,
    closed: bool,
}

struct SocketState<M, C> {
    codec: C,
    capacity: usize,
    conns: Vec<Mutex<Conn>>,
    queues: Vec<Mutex<RecvQueue<M>>>,
    closed: AtomicBool,
    /// Envelopes accepted by `try_send` (frame queued toward the wire).
    sent: AtomicU64,
    /// Envelopes handed out by `try_recv`.
    delivered: AtomicU64,
    /// Drops already surfaced through `take_dropped`.
    reported: AtomicU64,
    /// Frames the pump could not decode (codec bug or corruption); they
    /// stay accounted as drops.
    decode_errors: AtomicU64,
}

impl<M, C> SocketState<M, C> {
    /// Fails future sends, freezes delivery and releases buffered memory.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for queue in &self.queues {
            let mut q = queue.lock().expect("recv queue poisoned");
            q.closed = true;
            q.q.clear();
        }
        for conn in &self.conns {
            let mut c = conn.lock().expect("conn poisoned");
            c.buf.clear();
            c.frames.clear();
        }
    }
}

/// Joins the IO pump when the last transport handle drops, after closing
/// the shared state so the pump actually exits.
struct PumpGuard {
    stop: Box<dyn Fn() + Send + Sync>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for PumpGuard {
    fn drop(&mut self) {
        (self.stop)();
        if let Some(h) = self.handle.lock().expect("pump handle poisoned").take() {
            let _ = h.join();
        }
    }
}

/// A [`Transport`] over real loopback TCP connections (see the module
/// docs for wire format, FIFO and drop-accounting guarantees).
///
/// Handles are cheap clones over shared state — keep one outside the
/// runtime to inject faults ([`Transport::close`] mid-run) or to inspect
/// [`SocketTransport::decode_errors`] afterwards.
///
/// # Examples
///
/// ```
/// use swiper_net::{Envelope, SocketTransport, Transport, U64Codec};
///
/// let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(2).unwrap();
/// t.try_send(Envelope { from: 0, to: 1, send_ix: 0, sent_at: 7, msg: 42 }).unwrap();
/// let got = loop {
///     if let Some(env) = t.try_recv(1) {
///         break env;
///     }
///     std::thread::yield_now();
/// };
/// assert_eq!((got.from, got.send_ix, got.sent_at, got.msg), (0, 0, 7, 42));
/// ```
pub struct SocketTransport<M, C: WireCodec<M>> {
    state: Arc<SocketState<M, C>>,
    guard: Arc<PumpGuard>,
}

impl<M, C: WireCodec<M>> Clone for SocketTransport<M, C> {
    fn clone(&self) -> Self {
        SocketTransport { state: Arc::clone(&self.state), guard: Arc::clone(&self.guard) }
    }
}

impl<M: Send + 'static, C: WireCodec<M> + Default> SocketTransport<M, C> {
    /// A loopback transport over `n` nodes with the default link
    /// capacity and a default-constructed codec.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures (bind/connect on 127.0.0.1).
    pub fn loopback(n: usize) -> io::Result<Self> {
        Self::loopback_with_capacity(n, DEFAULT_LINK_CAPACITY)
    }

    /// A loopback transport with `capacity` envelopes of user-space write
    /// buffer per destination connection.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `n` exceeds `u32::MAX` (node ids
    /// are `u32` on the wire).
    pub fn loopback_with_capacity(n: usize, capacity: usize) -> io::Result<Self> {
        Self::with_codec(n, capacity, C::default())
    }
}

impl<M: Send + 'static, C: WireCodec<M>> SocketTransport<M, C> {
    /// A loopback transport with an explicit codec instance.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `n` exceeds `u32::MAX`.
    pub fn with_codec(n: usize, capacity: usize, codec: C) -> io::Result<Self> {
        assert!(capacity > 0, "link capacity must be positive");
        assert!(u32::try_from(n).is_ok(), "node ids must fit u32 on the wire");
        // One listener per node; connects complete against the kernel
        // backlog, so the pump can accept after the mesh is dialed.
        let mut listeners = Vec::with_capacity(n);
        let mut ports = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            ports.push(l.local_addr()?.port());
            l.set_nonblocking(true)?;
            listeners.push(l);
        }
        let mut conns = Vec::with_capacity(n);
        for &port in &ports {
            let stream = TcpStream::connect(("127.0.0.1", port))?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            conns.push(Mutex::new(Conn {
                stream,
                buf: VecDeque::new(),
                frames: VecDeque::new(),
            }));
        }
        let state = Arc::new(SocketState {
            codec,
            capacity,
            conns,
            queues: (0..n)
                .map(|_| Mutex::new(RecvQueue { q: VecDeque::new(), closed: false }))
                .collect(),
            closed: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            reported: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        });
        let pump_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("swiper-socket-pump".into())
            .spawn(move || pump(&pump_state, listeners))
            .expect("spawn socket pump");
        let stop_state = Arc::clone(&state);
        let guard = Arc::new(PumpGuard {
            stop: Box::new(move || stop_state.close()),
            handle: Mutex::new(Some(handle)),
        });
        Ok(SocketTransport { state, guard })
    }

    /// Frames the pump failed to decode so far (0 on a healthy wire).
    pub fn decode_errors(&self) -> u64 {
        self.state.decode_errors.load(Ordering::SeqCst)
    }
}

impl<M: Send + 'static, C: WireCodec<M>> Transport<M> for SocketTransport<M, C> {
    fn n(&self) -> usize {
        self.state.queues.len()
    }

    fn try_send(&self, env: Envelope<M>) -> Result<(), SendError<M>> {
        if self.state.closed.load(Ordering::SeqCst) {
            return Err(SendError::Closed(env));
        }
        let mut conn = self.state.conns[env.to].lock().expect("conn poisoned");
        if conn.frames.len() >= self.state.capacity {
            return Err(SendError::Full(env));
        }
        let mut frame = Vec::with_capacity(4 + FRAME_HEADER);
        frame.extend_from_slice(&[0; 4]); // length prefix, patched below
        frame.extend_from_slice(&u32::try_from(env.from).expect("from fits u32").to_le_bytes());
        frame.extend_from_slice(&u32::try_from(env.to).expect("to fits u32").to_le_bytes());
        frame.extend_from_slice(&env.send_ix.to_le_bytes());
        frame.extend_from_slice(&env.sent_at.to_le_bytes());
        self.state.codec.encode(&env.msg, &mut frame);
        let body_len = u32::try_from(frame.len() - 4).expect("frame fits u32");
        frame[..4].copy_from_slice(&body_len.to_le_bytes());
        conn.frames.push_back(frame.len());
        conn.buf.extend(frame);
        self.state.sent.fetch_add(1, Ordering::SeqCst);
        // Opportunistic flush so the common uncongested case costs one
        // syscall here instead of a pump wakeup of latency.
        conn.flush_nonblocking();
        Ok(())
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope<M>> {
        let mut queue = self.state.queues[node].lock().expect("recv queue poisoned");
        if queue.closed {
            return None;
        }
        let env = queue.q.pop_front()?;
        // Inside the lock: `close()` visits this queue before freezing,
        // so `delivered` is final once close() has returned.
        self.state.delivered.fetch_add(1, Ordering::SeqCst);
        Some(env)
    }

    fn close(&self) {
        self.state.close();
    }

    fn take_dropped(&self) -> u64 {
        if !self.state.closed.load(Ordering::SeqCst) {
            return 0;
        }
        let delivered = self.state.delivered.load(Ordering::SeqCst);
        let sent = self.state.sent.load(Ordering::SeqCst);
        let total = sent.saturating_sub(delivered);
        let prev = self.state.reported.swap(total, Ordering::SeqCst);
        total.saturating_sub(prev)
    }
}

/// One accepted inbound stream plus its partial-frame accumulator.
/// `dest` is learned from the first decoded frame: connection `i` dials
/// node `i`'s listener, so each inbound stream carries exactly one
/// destination — which lets the pump pause reading per destination.
struct Inbound {
    stream: TcpStream,
    acc: Vec<u8>,
    dest: Option<usize>,
}

/// The IO pump: accepts inbound connections, flushes outbound write
/// buffers and decodes inbound frames into the receive queues. Exits when
/// the transport closes.
///
/// Backpressure propagates end to end: a stream whose destination queue
/// holds `capacity` envelopes is not read, so the kernel socket buffers
/// fill, the sender's user-space write buffer stops draining, and
/// `try_send` reports [`SendError::Full`] — the bounded-link discipline
/// of [`ChannelTransport`](crate::ChannelTransport), over a real wire.
fn pump<M: Send, C: WireCodec<M>>(state: &SocketState<M, C>, listeners: Vec<TcpListener>) {
    let n = state.queues.len();
    let mut inbound: Vec<Inbound> = Vec::with_capacity(n);
    let mut scratch = vec![0u8; 64 * 1024];
    while !state.closed.load(Ordering::SeqCst) {
        let mut progress = false;
        for listener in &listeners {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        inbound.push(Inbound { stream, acc: Vec::new(), dest: None });
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        for conn in &state.conns {
            progress |= conn.lock().expect("conn poisoned").flush_nonblocking();
        }
        for ib in &mut inbound {
            if let Some(dest) = ib.dest {
                let full = state.queues[dest].lock().expect("recv queue poisoned").q.len()
                    >= state.capacity;
                if full {
                    continue; // destination backpressured: leave bytes in the kernel
                }
            }
            loop {
                match ib.stream.read(&mut scratch) {
                    Ok(0) => break, // peer shut down; drain what we have
                    Ok(k) => {
                        ib.acc.extend_from_slice(&scratch[..k]);
                        progress = true;
                        break; // one scratch-read per pass keeps the pause responsive
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            deliver_frames(state, &mut ib.acc, &mut ib.dest);
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Extracts every complete frame from `acc`, decodes and enqueues it.
fn deliver_frames<M: Send, C: WireCodec<M>>(
    state: &SocketState<M, C>,
    acc: &mut Vec<u8>,
    dest: &mut Option<usize>,
) {
    let mut consumed = 0;
    loop {
        let rest = &acc[consumed..];
        if rest.len() < 4 {
            break;
        }
        let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if !(FRAME_HEADER..=MAX_FRAME).contains(&body_len) {
            // Desynchronized stream: nothing downstream is trustworthy.
            state.decode_errors.fetch_add(1, Ordering::SeqCst);
            consumed = acc.len();
            break;
        }
        if rest.len() < 4 + body_len {
            break;
        }
        let body = &rest[4..4 + body_len];
        consumed += 4 + body_len;
        let from = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
        let to = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
        let send_ix = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        let sent_at = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
        // Both ids index per-node state downstream (`from` in the twin
        // replay's send ledger); neither is trusted off the wire.
        if to >= state.queues.len() || from >= state.queues.len() {
            state.decode_errors.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        if dest.is_none() {
            *dest = Some(to);
        }
        match state.codec.decode(&body[FRAME_HEADER..]) {
            Ok(msg) => {
                let mut queue = state.queues[to].lock().expect("recv queue poisoned");
                if !queue.closed {
                    queue.q.push_back(Envelope { from, to, send_ix, sent_at, msg });
                }
                // A frame landing after close stays undelivered and is
                // therefore counted by `sent - delivered`.
            }
            Err(_) => {
                state.decode_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    acc.drain(..consumed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::U64Codec;

    fn env(from: NodeId, to: NodeId, ix: u64, msg: u64) -> Envelope<u64> {
        Envelope { from, to, send_ix: ix, sent_at: ix * 10, msg }
    }

    fn recv_blocking(t: &SocketTransport<u64, U64Codec>, node: NodeId) -> Envelope<u64> {
        for _ in 0..200_000 {
            if let Some(e) = t.try_recv(node) {
                return e;
            }
            std::thread::yield_now();
        }
        panic!("socket delivery timed out");
    }

    #[test]
    fn frames_cross_the_wire_with_coordinates_intact() {
        let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(3).unwrap();
        t.try_send(env(2, 1, 9, 777)).unwrap();
        let got = recv_blocking(&t, 1);
        assert_eq!((got.from, got.to, got.send_ix, got.sent_at, got.msg), (2, 1, 9, 90, 777));
        assert_eq!(t.decode_errors(), 0);
    }

    #[test]
    fn fifo_per_link_across_the_wire() {
        let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(2).unwrap();
        for ix in 0..50 {
            t.try_send(env(0, 1, ix, 1000 + ix)).unwrap();
        }
        for ix in 0..50 {
            let got = recv_blocking(&t, 1);
            assert_eq!((got.send_ix, got.msg), (ix, 1000 + ix), "per-link FIFO broke");
        }
    }

    #[test]
    fn write_buffer_backpressure_hands_the_envelope_back() {
        let t: SocketTransport<u64, U64Codec> =
            SocketTransport::loopback_with_capacity(2, 1).unwrap();
        // Fill: the first frame may flush straight into the kernel, so
        // keep sending until the user-space buffer genuinely holds one.
        let mut ix = 0;
        let full = loop {
            match t.try_send(env(0, 1, ix, ix)) {
                Ok(()) => ix += 1,
                Err(SendError::Full(e)) => break e,
                Err(SendError::Closed(_)) => panic!("not closed"),
            }
            assert!(ix < 1_000_000, "kernel buffer never filled");
        };
        assert_eq!((full.send_ix, full.msg), (ix, ix), "envelope must come back intact");
        // Draining re-opens the link eventually.
        let first = recv_blocking(&t, 1);
        assert_eq!(first.send_ix, 0);
    }

    #[test]
    fn closed_transport_rejects_sends_and_freezes_delivery() {
        let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(2).unwrap();
        t.try_send(env(0, 1, 0, 5)).unwrap();
        let got = recv_blocking(&t, 1);
        assert_eq!(got.msg, 5);
        t.close();
        assert!(matches!(t.try_send(env(0, 1, 1, 6)), Err(SendError::Closed(_))));
        assert!(t.try_recv(1).is_none());
    }

    #[test]
    fn take_dropped_reports_in_flight_envelopes_exactly_once() {
        let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(2).unwrap();
        for ix in 0..20 {
            t.try_send(env(0, 1, ix, ix)).unwrap();
        }
        // Deliver a prefix, then kill the transport mid-flight.
        for _ in 0..5 {
            recv_blocking(&t, 1);
        }
        assert_eq!(t.take_dropped(), 0, "an open transport reports no drops");
        t.close();
        assert_eq!(t.take_dropped(), 15, "sent - delivered, exactly");
        assert_eq!(t.take_dropped(), 0, "each drop is reported once");
    }

    #[test]
    fn frame_naming_a_sender_outside_the_population_is_rejected() {
        // `from` rides the wire as far as `on_message(from, ..)` and the
        // trace, where the twin replay indexes per-sender state by it.
        fn frame(from: u32, to: u32, send_ix: u64, msg: u64) -> Vec<u8> {
            let mut f = ((FRAME_HEADER + 8) as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&from.to_le_bytes());
            f.extend_from_slice(&to.to_le_bytes());
            f.extend_from_slice(&send_ix.to_le_bytes());
            f.extend_from_slice(&0u64.to_le_bytes());
            f.extend_from_slice(&msg.to_le_bytes());
            f
        }
        let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(2).unwrap();
        // from == n, then a well-formed frame on the same stream.
        let mut acc = frame(2, 1, 0, 666);
        acc.extend(frame(0, 1, 1, 7));
        deliver_frames(&t.state, &mut acc, &mut None);
        assert!(acc.is_empty(), "both frames consumed");
        assert_eq!(t.decode_errors(), 1, "the forged sender counts as a decode error");
        let queued: Vec<_> = t.state.queues[1].lock().unwrap().q.drain(..).collect();
        assert_eq!(queued.len(), 1, "only the well-formed frame is enqueued");
        assert_eq!((queued[0].from, queued[0].send_ix, queued[0].msg), (0, 1, 7));
    }

    #[test]
    fn clones_share_one_wire() {
        let t: SocketTransport<u64, U64Codec> = SocketTransport::loopback(2).unwrap();
        let t2 = t.clone();
        t.try_send(env(0, 1, 0, 1)).unwrap();
        assert_eq!(recv_blocking(&t2, 1).msg, 1);
        t2.close();
        assert!(matches!(t.try_send(env(0, 1, 1, 2)), Err(SendError::Closed(_))));
    }
}
