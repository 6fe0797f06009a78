//! The reactor substrate: nonblocking connections with explicit
//! read/write buffers, the one frame drain every wire endpoint runs,
//! and the one server loop every listening role runs.
//!
//! Every connection is `O_NONBLOCK`; a *pump* flushes its write buffer
//! and drains its socket into its read buffer, reporting whether
//! anything moved. When a pass moves nothing, callers (the server loop,
//! [`FleetClient`](crate::FleetClient) transports) block in a
//! [`Poller`](crate::poll) wait — `epoll_wait(2)` on every registered
//! socket plus a wakeup fd on Linux, the historical sleep-and-sweep
//! fallback elsewhere (see [`crate::poll`] for the backend and
//! edge-trigger story).
//!
//! The byte path batches in both directions: outbound frames are
//! encoded *in place* into the connection's reusable write buffer
//! (`Conn::queue_frame` → `encode_frame_into`, MAC computed over the
//! appended span, zero per-frame allocation) and coalesce there until
//! one `Conn::flush` pushes everything queued with as few `write(2)`
//! calls as the socket accepts; inbound, one `Conn::fill` drains the
//! socket to `WouldBlock` and the decoder then parses every complete
//! frame from the read buffer before the loop returns to the poller.
//! The `write_syscalls`/`read_syscalls` counters (via
//! `Conn::meter_with`) and the derived `frames_per_write` ratio in
//! [`WireSnapshot`](crate::WireSnapshot) make the batching observable.
//!
//! **One send count.** Beside the one drain that counts every frame
//! read, the connection counts every frame it writes: each queued frame
//! (an encoded one or an echo) is tallied, and the tally is committed to
//! `frames_sent`/`bytes_sent` when a `Conn::flush` drains the write
//! buffer. A connection that closes first writes nothing more, so its
//! queued frames are dropped uncounted. The Hello is counted on neither
//! end: the client reads it outside the drain.
//!
//! **One drain.** `Conn::drain` is the only place a frame is read: it
//! fills the read buffer (when `readable`), extracts every complete
//! frame, counts each authenticated one in `frames_received` and hands
//! it to the caller's handler, which keeps or rejects the connection.
//! One reject rule holds at every endpoint — the echo mailbox, the
//! catalog router, a shard host, a placement proxy and a client: a
//! handler reject or a decode error counts `decode_rejects`, a MAC
//! failure counts `mac_rejects` and records a [`TraceKind::MacReject`]
//! through the connection's trace hook, and all three close the
//! connection (a corrupted length-prefixed stream cannot be
//! resynchronized, and a tampering peer must not keep talking). The
//! fleet layer turns a closed connection into session-level
//! [`DecodeError`](referee_protocol::DecodeError) rejections.
//!
//! **One server loop.** `serve` owns everything a listening endpoint
//! does with its sockets: it accepts when the listener edged, meters
//! and registers each new connection, pumps exactly the connections the
//! poller flagged (every one when readiness degrades), flushes, applies
//! the latched backpressure gate (a connection whose write buffer is
//! over the high-water mark is not read until it drains, so TCP pushes
//! back on its peer), drops closed connections, and waits — straight
//! back to the kernel under epoll, an immediate re-sweep under the
//! sweep backend while traffic flows. A `Role` supplies only what
//! differs: the accept handshake, the frame handler, an after-pump hook
//! and a closed hook. The echo mailbox, the catalog router and the
//! shard host are its three roles.

use crate::auth::AuthKey;
use crate::frame::{decode_frame, encode_frame_into, verify_frame, FrameKind, WireError};
use crate::metrics::{trace_endpoint, ConnMeter, WireMetrics};
use crate::poll::{fd_of, Poller, PollerBackend, Readiness};
use referee_protocol::trace::{wall_clock_us, FlightRecorder, TraceKind};
use referee_protocol::Message;
use referee_simnet::{Envelope, SessionId};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Size of the stack-free read scratch buffer.
pub(crate) const SCRATCH_BYTES: usize = 64 * 1024;

/// Write-buffer occupancy above which senders stall (backpressure).
pub(crate) const WRITE_BACKPRESSURE_BYTES: usize = 256 * 1024;

/// One nonblocking connection with its buffers and its frame key.
///
/// The key starts as the fleet's base key and is switched to the
/// per-connection derived key once the [`FrameKind::Hello`] handshake
/// names the connection (see `fleet`): a leaked per-connection key then
/// authenticates nothing on sibling connections.
pub(crate) struct Conn {
    stream: TcpStream,
    key: AuthKey,
    /// Bytes read off the socket, not yet consumed by the decoder.
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf` (compacted lazily).
    rpos: usize,
    /// Bytes queued for transmission, not yet written.
    wbuf: Vec<u8>,
    /// Written prefix of `wbuf` (compacted lazily).
    wpos: usize,
    /// Frames and bytes queued since `wbuf` last drained, committed to
    /// the meter when it drains.
    unsent: (u64, u64),
    open: bool,
    /// Latch for episode-counted backpressure: set while the peer is
    /// being throttled, so a stall episode is counted once, not once
    /// per poll sweep.
    pub(crate) stalled: bool,
    /// Kernel-readiness hint: `true` when the socket may have unread
    /// bytes; `Conn::drain` fills only while it is set. The client pool
    /// clears it under epoll after draining to `WouldBlock` and re-sets
    /// it when the kernel flags the fd again, skipping the speculative
    /// (always `EAGAIN`) probe `read(2)` per idle pump. Every other
    /// loop leaves it `true`, so the drain probes unconditionally.
    pub(crate) readable: bool,
    /// Connection-level trace hook: `(recorder, endpoint id)`. When
    /// set, any close — poison, EOF, or socket error — records a
    /// [`TraceKind::Kill`] attributed to `endpoint`, so a chaos kill
    /// shows up in the trace of every peer that observed the
    /// connection die; a MAC failure in `Conn::drain` records a
    /// [`TraceKind::MacReject`] first.
    trace: Option<(Arc<FlightRecorder>, u32)>,
    /// The endpoint's meter: counts every frame this connection writes
    /// and every `write(2)`/`read(2)` it issues, proving (or
    /// disproving) that frames batch per syscall.
    meter: Option<ConnMeter>,
}

impl Conn {
    /// Adopt `stream` into the reactor: nonblocking, Nagle off (frames
    /// are latency-sensitive and tiny). Frames are authenticated with
    /// `key` until [`Conn::set_key`] switches to a derived one.
    pub fn new(stream: TcpStream, key: AuthKey) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            key,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            unsent: (0, 0),
            open: true,
            stalled: false,
            readable: true,
            trace: None,
            meter: None,
        })
    }

    /// Attach the endpoint's meter (cloned off
    /// [`WireMetrics::conn_meter`](crate::metrics::WireMetrics::conn_meter)):
    /// every frame the connection writes and every `write(2)` and
    /// `read(2)` it issues is counted, so `frames_per_write` in the
    /// snapshot measures real batching.
    pub(crate) fn meter_with(&mut self, meter: ConnMeter) {
        self.meter = Some(meter);
    }

    /// The raw socket fd for poller registration (`-1` on platforms
    /// without fds — the poller skips those).
    pub fn fd(&self) -> i32 {
        crate::poll::fd_of(&self.stream)
    }

    /// Attach a trace hook (see the `trace` field): the connection's
    /// [`TraceKind::Kill`] is recorded when it closes for any reason.
    /// The caller records its own `Dial`-side event — what "opening"
    /// means (accept, connect, proxy redial) is layer-specific.
    pub fn trace_with(&mut self, recorder: Arc<FlightRecorder>, endpoint: u32) {
        self.trace = Some((recorder, endpoint));
    }

    /// Record `kind` (payload 0) through the trace hook, if attached.
    fn trace(&self, kind: TraceKind) {
        if let Some((recorder, endpoint)) = &self.trace {
            recorder.record(wall_clock_us(), 0, *endpoint, kind, 0);
        }
    }

    /// Record the connection's death once, at the open → closed edge.
    fn mark_closed(&mut self) {
        if self.open {
            self.trace(TraceKind::Kill);
        }
        self.open = false;
    }

    /// Switch this connection's frame key (the post-Hello derived key).
    pub fn set_key(&mut self, key: AuthKey) {
        self.key = key;
    }

    /// Encode `env` as a frame of `kind` under this connection's key
    /// and queue it for transmission — encoding appends straight into
    /// the reused write buffer (MAC computed in place), so queueing a
    /// frame allocates nothing once the buffer is warm.
    pub fn queue_frame(&mut self, kind: FrameKind, env: &Envelope) {
        self.queue_frame_mut(kind, env);
    }

    /// As `Conn::queue_frame`, returning the queued frame's bytes as
    /// a mutable slice — the hook the tamper harness uses to flip bits
    /// *after* the MAC was computed, without a round trip through a
    /// temporary allocation.
    pub fn queue_frame_mut(&mut self, kind: FrameKind, env: &Envelope) -> &mut [u8] {
        let start = self.wbuf.len();
        encode_frame_into(&self.key, kind, env, &mut self.wbuf);
        if kind != FrameKind::Hello {
            self.tally(self.wbuf.len() - start);
        }
        &mut self.wbuf[start..]
    }

    /// Count one queued frame of `len` bytes, to commit once written.
    fn tally(&mut self, len: usize) {
        self.unsent.0 += 1;
        self.unsent.1 += len as u64;
    }

    /// Whether the connection is still usable.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Poison the connection (decode failure, peer misbehaviour).
    pub fn close(&mut self) {
        self.mark_closed();
    }

    /// Bytes queued but not yet written.
    pub fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Queue frame bytes for transmission (actual writing happens in
    /// `Conn::flush` sweeps). Production paths queue through
    /// `Conn::queue_frame` (encode in place) or [`Conn::echo_frame`]
    /// (requeue in place); tests inject pre-built byte streams.
    #[cfg(test)]
    pub fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Write as much queued data as the socket accepts right now.
    /// Returns bytes written.
    pub fn flush(&mut self) -> usize {
        let mut written = 0;
        while self.open && self.wpos < self.wbuf.len() {
            if let Some(m) = &self.meter {
                m.count_write();
            }
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => self.mark_closed(),
                Ok(k) => {
                    self.wpos += k;
                    written += k;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.mark_closed(),
            }
        }
        if self.wpos == self.wbuf.len() {
            // Every queued frame is written: count them sent.
            let (frames, bytes) = std::mem::take(&mut self.unsent);
            if let Some(m) = self.meter.as_ref().filter(|_| frames > 0) {
                m.count_sent(frames, bytes);
            }
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > SCRATCH_BYTES {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        written
    }

    /// Read whatever the socket has ready into the read buffer.
    /// Returns bytes read (0 on would-block; EOF closes the connection).
    pub fn fill(&mut self, scratch: &mut [u8]) -> usize {
        let mut read = 0;
        while self.open {
            if let Some(m) = &self.meter {
                m.count_read();
            }
            match self.stream.read(scratch) {
                Ok(0) => self.mark_closed(), // EOF
                Ok(k) => {
                    self.rbuf.extend_from_slice(&scratch[..k]);
                    read += k;
                    if k < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.mark_closed(),
            }
        }
        read
    }

    /// Decode the next complete frame out of the read buffer, if any,
    /// under this connection's key — the extractor `Conn::drain` runs
    /// everywhere but the echo mailbox.
    ///
    /// An `Err` is terminal: the caller must [`Conn::close`] (this
    /// method does not, so the caller can count the rejection first).
    pub fn next_frame(&mut self) -> Result<Option<(FrameKind, Envelope)>, WireError> {
        match decode_frame(&self.key, &self.rbuf[self.rpos..])? {
            None => {
                self.note_drained();
                Ok(None)
            }
            Some(decoded) => {
                self.consume(decoded.consumed);
                Ok(Some((decoded.kind, decoded.envelope)))
            }
        }
    }

    /// The echo mailbox's hot path: authenticate the next complete
    /// frame *without* materializing its envelope
    /// ([`verify_frame`]) and, when it is a [`FrameKind::Data`] frame,
    /// queue its raw bytes straight from the read buffer into the
    /// write buffer — the codec is canonical (`decode ∘ encode = id`),
    /// so this single memcpy is the re-encoding, minus the second MAC
    /// and minus the envelope's two allocations per frame that
    /// `next_frame` would build just to be thrown away. Returns the
    /// frame's kind and wire length; non-`Data` kinds are consumed but
    /// *not* echoed (the echo handler rejects them). An `Err` is
    /// terminal, as for [`Conn::next_frame`].
    pub fn echo_frame(&mut self) -> Result<Option<(FrameKind, usize)>, WireError> {
        match verify_frame(&self.key, &self.rbuf[self.rpos..])? {
            None => {
                self.note_drained();
                Ok(None)
            }
            Some((kind, consumed)) => {
                if kind == FrameKind::Data {
                    self.wbuf.extend_from_slice(&self.rbuf[self.rpos..self.rpos + consumed]);
                    self.tally(consumed);
                }
                self.consume(consumed);
                Ok(Some((kind, consumed)))
            }
        }
    }

    /// The one frame drain (see the module docs): fill the read buffer
    /// when `readable`, then pull every complete frame out with
    /// `extract` ([`Conn::next_frame`], or [`Conn::echo_frame`] at the
    /// echo mailbox), count it in `frames_received` and hand it to
    /// `handle`, which returns whether the connection may stay open.
    /// A reject, a MAC failure or a decode error ends the drain and
    /// closes the connection under the one reject rule. Returns whether
    /// bytes were read or a frame was handled.
    pub(crate) fn drain<T>(
        &mut self,
        scratch: &mut [u8],
        metrics: &WireMetrics,
        mut extract: impl FnMut(&mut Conn) -> Result<Option<T>, WireError>,
        mut handle: impl FnMut(&mut Conn, T) -> bool,
    ) -> bool {
        let mut moved = false;
        if self.readable {
            let got = self.fill(scratch);
            metrics.bytes_received(got as u64);
            moved = got > 0;
        }
        loop {
            match extract(self) {
                Ok(None) => return moved,
                Ok(Some(frame)) => {
                    metrics.frames_received(1);
                    moved = true;
                    if handle(self, frame) {
                        continue;
                    }
                    metrics.decode_rejects(1);
                }
                Err(WireError::BadMac) => {
                    metrics.mac_rejects(1);
                    self.trace(TraceKind::MacReject);
                }
                Err(_) => metrics.decode_rejects(1),
            }
            self.close();
            return moved;
        }
    }

    /// The read buffer holds no complete frame: reclaim it if fully
    /// consumed.
    fn note_drained(&mut self) {
        if self.rpos > 0 && self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
    }

    /// Mark `n` buffered bytes as decoded, compacting lazily.
    fn consume(&mut self, n: usize) {
        self.rpos += n;
        if self.rpos > SCRATCH_BYTES {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("open", &self.open)
            .field("unread", &(self.rbuf.len() - self.rpos))
            .field("unwritten", &self.pending_write())
            .finish()
    }
}

/// The accept-side handshake of the echo mailbox and the router: queue
/// the Hello naming connection `id` (MAC'd with the base key — the only
/// frame that ever crosses under it), switch the connection to
/// `base.derive(id)`, and attach the server's trace hook. Hello frames
/// are handshake overhead: the connection does not count them sent.
pub(crate) fn send_hello(conn: &mut Conn, base: &AuthKey, id: u32, metrics: &WireMetrics) {
    let payload = Message::empty();
    let hello = Envelope { session: SessionId(0), round: 0, from: id, to: 0, payload };
    conn.queue_frame(FrameKind::Hello, &hello);
    conn.set_key(base.derive(u64::from(id)));
    conn.trace_with(metrics.recorder_arc(), trace_endpoint::SERVER);
    metrics.trace(0, trace_endpoint::SERVER, TraceKind::Dial, u64::from(id));
}

/// What one listening endpoint supplies to [`serve`]; the loop owns
/// the sockets. Dispatch is static: the per-frame handler is an
/// ordinary (inlinable) method call.
pub(crate) trait Role {
    /// Per-connection state kept beside each [`Conn`].
    type Link;

    /// Adopt a freshly accepted connection (already metered and
    /// registered with the poller), numbered `id` from 1 upwards.
    fn accept(&mut self, conn: &mut Conn, id: u32, metrics: &WireMetrics) -> Self::Link;

    /// Drain the connection's frames through [`Conn::drain`] with this
    /// role's extractor and frame handler. Returns progress.
    fn pump(
        &mut self,
        conn: &mut Conn,
        link: &mut Self::Link,
        scratch: &mut [u8],
        metrics: &WireMetrics,
    ) -> bool;

    /// Runs once per pass, after the flagged connections were pumped
    /// (the router's outbound drain). Returns progress.
    fn after_pump(
        &mut self,
        _conns: &mut [(Conn, Self::Link)],
        _metrics: &WireMetrics,
    ) -> bool {
        false
    }

    /// A connection closed and is being dropped, with its link.
    fn closed(&mut self, _link: Self::Link) {}
}

/// The one server loop (see the module docs): serve `role` on
/// `listener` until `shutdown`, starting every accepted connection
/// under `key`.
pub(crate) fn serve<R: Role>(
    listener: TcpListener,
    key: AuthKey,
    role: &mut R,
    shutdown: &AtomicBool,
    metrics: &WireMetrics,
    poller: &Poller,
) {
    let listener_fd = fd_of(&listener);
    poller.register(listener_fd);
    let mut conns: Vec<(Conn, R::Link)> = Vec::new();
    let mut next_id: u32 = 1;
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let (mut ready, mut pump_list) = (Vec::new(), Vec::new());
    let mut readiness = Readiness::All;
    while !shutdown.load(Ordering::Relaxed) {
        let mut progress = false;
        // Accept when the listener edged (or on a full sweep — the
        // degraded path every non-Fds readiness answer takes). An Err
        // is WouldBlock or a transient failure: try again next pass.
        if readiness == Readiness::All || ready.contains(&listener_fd) {
            while let Ok((stream, _)) = listener.accept() {
                let Ok(mut conn) = Conn::new(stream, key) else { continue };
                metrics.connections(1);
                conn.meter_with(metrics.conn_meter());
                poller.register(conn.fd());
                let link = role.accept(&mut conn, next_id, metrics);
                next_id += 1;
                conns.push((conn, link));
                progress = true;
            }
        }
        // Pump the connections the kernel flagged (all of them when
        // readiness degraded).
        pump_list.clear();
        match readiness {
            Readiness::All => pump_list.extend(0..conns.len()),
            Readiness::Fds => pump_list.extend(
                ready.iter().filter_map(|fd| conns.iter().position(|(c, _)| c.fd() == *fd)),
            ),
        }
        for &ci in &pump_list {
            let (conn, link) = &mut conns[ci];
            progress |= conn.flush() > 0;
            // Backpressure: a peer that writes but never reads would
            // otherwise grow our write buffer without bound. Stop
            // reading until the buffer drains — TCP then pushes back on
            // the peer's sends. Counted once per episode (latched), not
            // once per pass.
            if conn.pending_write() > WRITE_BACKPRESSURE_BYTES {
                if !conn.stalled {
                    conn.stalled = true;
                    metrics.backpressure_stalls(1);
                }
                continue;
            }
            conn.stalled = false;
            progress |= role.pump(conn, link, &mut scratch, metrics);
            // One batched flush per connection per pass: everything the
            // handler queued leaves in a single `write(2)`.
            conn.flush();
        }
        progress |= role.after_pump(&mut conns, metrics);
        let mut ci = 0;
        while ci < conns.len() {
            if conns[ci].0.is_open() {
                ci += 1;
            } else {
                role.closed(conns.remove(ci).1);
            }
        }
        // Under epoll, every pumped socket was drained to `WouldBlock`
        // and anything new arrives as a fresh readiness edge (or, for
        // channel traffic, a `Waker` wake), so go straight back to the
        // wait, whose capped timeout reports `All` and re-probes
        // stalled or missed sockets at sweep cadence. The sweep backend
        // has no edges: re-sweep immediately while traffic flows,
        // sleeping only when a pass moves nothing.
        if progress && poller.backend() == PollerBackend::Sweep {
            readiness = Readiness::All;
            continue;
        }
        readiness = poller.wait_ready(&mut ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn pair(key: AuthKey) -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (Conn::new(a, key).unwrap(), Conn::new(b, key).unwrap())
    }

    fn env(session: u64, round: u32) -> Envelope {
        Envelope {
            session: SessionId(session),
            round,
            from: 1,
            to: 0,
            payload: Message::empty(),
        }
    }

    #[test]
    fn frames_cross_a_socket_pair() {
        let key = AuthKey::from_seed(5);
        let (mut a, mut b) = pair(key);
        for i in 0..100u64 {
            a.queue(&encode_frame(&key, &env(i, i as u32 + 1)));
        }
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        let mut got = Vec::new();
        let mut spins = 0;
        while got.len() < 100 {
            a.flush();
            b.fill(&mut scratch);
            while let Some((kind, e)) = b.next_frame().unwrap() {
                assert_eq!(kind, FrameKind::Data);
                got.push(e);
            }
            spins += 1;
            assert!(spins < 10_000, "socket pair never delivered");
        }
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.session, SessionId(i as u64), "FIFO order preserved");
        }
    }

    #[test]
    fn corrupted_stream_errors_and_conn_closes() {
        let key = AuthKey::from_seed(6);
        let (mut a, mut b) = pair(key);
        let mut bytes = encode_frame(&key, &env(1, 1));
        let len = bytes.len();
        bytes[len - 1] ^= 0x01; // corrupt inside the MAC tag
        a.queue(&bytes);
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        let mut spins = 0;
        loop {
            a.flush();
            b.fill(&mut scratch);
            match b.next_frame() {
                Ok(None) => {
                    spins += 1;
                    assert!(spins < 10_000, "corruption never surfaced");
                }
                Ok(Some(e)) => panic!("corrupted frame decoded: {e:?}"),
                Err(WireError::BadMac) => break,
                Err(other) => panic!("expected BadMac, got {other}"),
            }
        }
        b.close();
        assert!(!b.is_open());
    }

    #[test]
    fn per_connection_keys_partition_the_stream() {
        // After set_key, frames under the old key are rejected and
        // frames under the new key decode — the handshake switch-over.
        let base = AuthKey::from_seed(8);
        let (mut a, mut b) = pair(base);
        let derived = base.derive(1);
        a.set_key(derived);
        b.set_key(derived);
        a.queue_frame(FrameKind::Data, &env(4, 2));
        a.queue(&encode_frame(&base, &env(5, 3)));
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        let mut spins = 0;
        loop {
            a.flush();
            b.fill(&mut scratch);
            match b.next_frame() {
                Ok(None) => {
                    spins += 1;
                    assert!(spins < 10_000, "frames never arrived");
                }
                Ok(Some((FrameKind::Data, e))) => assert_eq!(e.session, SessionId(4)),
                Ok(Some(other)) => panic!("unexpected frame {other:?}"),
                Err(WireError::BadMac) => break, // the base-keyed frame
                Err(other) => panic!("expected BadMac, got {other}"),
            }
        }
    }
}
