//! Cross-host shard placement: shard workers as first-class network
//! peers.
//!
//! The referee session engine ([`crate::multiround`]) hands range
//! partials between its threads by value; this module moves the ranges
//! onto real sockets, so shards can live on separate hosts — and only
//! there do partials become MAC'd wire frames:
//!
//! * [`PlacementPolicy`] (re-exported from
//!   `referee_protocol::shard::placement`) assigns every shard index to
//!   a [`HostId`]; the balanced-contiguous default reuses the §IV
//!   partition arithmetic one level up, and a static map is available
//!   for deployments that know better.
//! * [`RemotePlacement`] binds the policy to live socket addresses. The
//!   address book is shared and updatable
//!   ([`update_host`](RemotePlacement::update_host)), so a shard host
//!   that restarts on a new port (or migrates to a new machine) is
//!   picked up on the proxy's next redial — no server restart.
//! * [`ShardHost`] runs the engine's range worker behind a socket: it
//!   accepts coordinator connections, each registered as one shard of a
//!   placement by a MAC'd [`Register`](FrameKind::Register) handshake,
//!   and hands every later frame — announce, routed uplink run, finish,
//!   retire — to that link's range worker, the state machine an
//!   in-process shard worker runs. The worker's partials and poison
//!   notices leave as [`Partial`](FrameKind::Partial) frames over the
//!   same authenticated codec the rest of the system speaks; the worker
//!   records its emits, and the link counts the frames it writes, as
//!   they do in process and at every other endpoint. The host
//!   is a role of the reactor's one server loop, as the echo mailbox
//!   and the router are: it pumps only the links the poller flagged,
//!   stops reading a link over the write high-water mark, and rejects
//!   frames under the one reject rule.
//! * The coordinator runs one **proxy** per shard, in the lane an
//!   in-process worker holds ([`crate::multiround`]): it forwards the
//!   router's traffic to its shard host, journals what a live shard may
//!   still need ([`ShardJournal`]), and on disconnect redials,
//!   re-registers and replays — so a shard-host kill/restart is
//!   invisible to honest sessions (pinned by the chaos tests). It waits
//!   on its own poller, which watches its link and is woken by whoever
//!   queues into its inbox, reads the link through the one frame drain,
//!   and hands each decoded host partial, or its decode error, to the
//!   collector, counting it in `partial_frames`. Lane 0 collects, as in
//!   process: proxy 0 runs the session collector and absorbs its own
//!   host's partials in place, and the other proxies stage theirs on
//!   lane 0's handoff, as in-process workers do. A session reaches only
//!   the proxies of the ranges it splits over (`effective_shards`), so a
//!   small one runs on host 0 alone.
//!
//! # Per-shard keys
//!
//! Shard-host links never reuse the fleet's client-facing keys:
//!
//! ```text
//! registration key  = base.derive("place_ky")
//! shard key i       = registration.derive(i)          (tweak = shard id)
//! link key (i, g)   = shard key i  .derive(g)         (g = registration generation)
//! ```
//!
//! The [`Register`](FrameKind::Register) frame is the only frame a link
//! carries under the registration key; everything after runs under the
//! generation-scoped link key. Consequences, pinned by tests: a leaked
//! shard key forges nothing on sibling shards (frames MAC'd with shard
//! A's key are rejected by shard B), and a partial from a **previous
//! registration generation** — a reconnected host replaying pre-epoch
//! state — fails the MAC outright, so stale shard state can never merge
//! into a post-reconnect run.
//!
//! # Reconnect semantics
//!
//! The coordinator journals, per shard and session, exactly the uplinks
//! whose round has not yet produced a merged partial
//! ([`ShardJournal`]); a partial's arrival commits its round and prunes
//! the journal. On redial the proxy bumps the generation, re-registers,
//! re-announces every uncommitted session at its
//! [`resume_round`](ShardJournal::resume_round) and replays the
//! journal. (The first dial sends the same way whatever the router
//! queued before the link came up; only a redial counts it as
//! replayed.) Because shards are deterministic in their inputs, the
//! rebuilt shard re-emits bit-identical partials — verdicts are
//! unchanged by any kill/restart schedule that eventually lets the
//! fleet drain. A dial blocks its proxy's thread, proxy 0's collector
//! included, delaying no session: each with `n ≥ 1` waits on host 0.
//!
//! An uplink for a round the journal has already committed never
//! reaches the host: the proxy itself hands over the round-stamped
//! poison notice the host would have sent, as it does for a round stamp
//! outside `1..=cap`, choosing the round with the same [`fault_round`]
//! the range worker uses — so fail-fast verdicts do not depend on
//! whether the host is alive.

use crate::auth::AuthKey;
use crate::fleet::{resolve_bind, DEFAULT_BIND};
use crate::frame::{
    decode_run, encode_runs, encode_wire_frame, FrameKind, RunDirection, HEADER_BYTES,
    MAX_BODY_BYTES, TAG_BYTES,
};
use crate::metrics::{trace_endpoint, Stage, WireMetrics, WireSnapshot};
use crate::multiround::{Handoff, Lane, MrMsg, Out, Worker};
use crate::poll::{default_backend, Poller};
use crate::reactor::{serve, Conn, Role, SCRATCH_BYTES};
use referee_protocol::shard::multiround::{fault_round, RoundPartialState};
use referee_protocol::shard::replay::{decode_resume, encode_resume, ShardJournal};
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub use referee_protocol::shard::placement::{HostId, PlacementPolicy};

/// Domain-separation tweak for the placement key hierarchy.
const PLACEMENT_TWEAK: u64 = 0x706c_6163_655f_6b79; // "place_ky"

/// How long a proxy waits between redial attempts to a dead or
/// restarting shard host.
const REDIAL_BACKOFF: Duration = Duration::from_millis(20);

/// Dial timeout for one connection attempt to a shard host.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Environment variable a shard-host role reads for its bind address
/// (`ip:port`; see [`ShardHost::spawn_env`]).
pub const SHARD_HOST_BIND_ENV: &str = "REFEREE_SHARDHOST_BIND";

/// The key authenticating [`Register`](FrameKind::Register) handshakes
/// of a fleet: `base.derive(placement tweak)`. Shard and link keys are
/// derived *from* it, so leaking any per-shard key reveals nothing
/// about the registration domain.
pub fn registration_key(base: &AuthKey) -> AuthKey {
    base.derive(PLACEMENT_TWEAK)
}

/// Shard `index`'s long-term key: `registration.derive(index)` — the
/// "tweak = shard id" step that keeps sibling shards cryptographically
/// apart.
pub fn shard_key(base: &AuthKey, index: usize) -> AuthKey {
    registration_key(base).derive(index as u64)
}

/// The key authenticating one registration generation of shard
/// `index`'s link. A reconnect bumps the generation, so frames from a
/// previous incarnation of the link — including replayed pre-epoch
/// partials — fail the MAC.
pub fn link_key(base: &AuthKey, index: usize, generation: u32) -> AuthKey {
    shard_key(base, index).derive(generation as u64)
}

/// [`link_key`]'s derivation expressed as an evidence-record path —
/// `[placement tweak, index, generation]` — so a frame captured under a
/// superseded generation can be packaged into a
/// [`ProvableError::StaleReplay`](referee_protocol::evidence::ProvableError)
/// bundle: the stale record paired with a context record whose path
/// differs only in a *newer* final (generation) element. Folding the
/// base key through this path yields exactly [`link_key`]'s MAC key.
pub fn link_key_path(index: usize, generation: u32) -> Vec<u64> {
    vec![PLACEMENT_TWEAK, index as u64, u64::from(generation)]
}

/// Serialize a [`Register`](FrameKind::Register) payload: shard
/// index:32, shard count:32, registration generation:32.
fn encode_register(index: usize, shards: usize, generation: u32) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(index as u64, 32);
    w.write_bits(shards as u64, 32);
    w.write_bits(generation as u64, 32);
    Message::from_writer(w)
}

/// Inverse of [`encode_register`], validating the exact layout.
fn decode_register(msg: &Message) -> Result<(usize, usize, u32), DecodeError> {
    let mut r = msg.reader();
    let index = r.read_bits(32)? as usize;
    let shards = r.read_bits(32)? as usize;
    let generation = r.read_bits(32)? as u32;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after registration".into()));
    }
    if shards == 0 || index >= shards || generation == 0 {
        return Err(DecodeError::OutOfRange(format!(
            "registration of shard {index}/{shards} generation {generation}"
        )));
    }
    Ok((index, shards, generation))
}

/// Encode the [`Register`](FrameKind::Register) handshake frame a
/// coordinator opens a shard-host link with, MAC'd under the
/// [`registration_key`]. After sending it, switch the link to
/// [`link_key`]`(base, index, generation)`. Exposed for tests and
/// alternative coordinator implementations.
pub fn register_frame(base: &AuthKey, index: usize, shards: usize, generation: u32) -> Vec<u8> {
    let env = register_envelope(index, shards, generation);
    encode_wire_frame(&registration_key(base), FrameKind::Register, &env)
}

/// The [`Register`](FrameKind::Register) handshake's envelope.
fn register_envelope(index: usize, shards: usize, generation: u32) -> Envelope {
    Envelope {
        session: SessionId(0),
        round: generation,
        from: index as u32,
        to: 0,
        payload: encode_register(index, shards, generation),
    }
}

/// Whether a payload fits the wire codec's frame cap.
fn fits_frame(payload: &Message) -> bool {
    HEADER_BYTES + payload.len_bits().div_ceil(8) + TAG_BYTES <= MAX_BODY_BYTES
}

// ---------------------------------------------------------------------------
// RemotePlacement
// ---------------------------------------------------------------------------

/// A [`PlacementPolicy`] bound to live shard-host addresses.
///
/// Cloning shares the address book: keep a clone on the orchestration
/// side and [`update_host`](RemotePlacement::update_host) when a host
/// comes back on a different port — every proxy re-resolves the address
/// on its next redial.
#[derive(Debug, Clone)]
pub struct RemotePlacement {
    policy: PlacementPolicy,
    hosts: Arc<Mutex<BTreeMap<HostId, SocketAddr>>>,
}

impl RemotePlacement {
    /// Bind `policy` to addresses. Every host the policy uses must have
    /// one; extra addresses are allowed (spares for
    /// [`update_host`](RemotePlacement::update_host)-style migration).
    pub fn new(
        policy: PlacementPolicy,
        hosts: impl IntoIterator<Item = (HostId, SocketAddr)>,
    ) -> io::Result<RemotePlacement> {
        let book: BTreeMap<HostId, SocketAddr> = hosts.into_iter().collect();
        for h in policy.hosts() {
            if !book.contains_key(&h) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("placement uses host {h} but no address was provided for it"),
                ));
            }
        }
        Ok(RemotePlacement { policy, hosts: Arc::new(Mutex::new(book)) })
    }

    /// The shard → host assignment.
    pub fn policy(&self) -> &PlacementPolicy {
        &self.policy
    }

    /// Total shards placed.
    pub fn shards(&self) -> usize {
        self.policy.shards()
    }

    /// The current address of `host`. Panics if the host is unknown
    /// (construction validates every policy host, and `update_host`
    /// cannot remove one).
    pub fn addr_of_host(&self, host: HostId) -> SocketAddr {
        *self.hosts.lock().unwrap_or_else(|p| p.into_inner()).get(&host).expect("known host")
    }

    /// The current address serving shard `index`.
    pub fn addr_of_shard(&self, index: usize) -> SocketAddr {
        self.addr_of_host(self.policy.host_of_shard(index))
    }

    /// Re-point `host` at `addr` (a restarted or migrated shard host).
    /// Proxies pick the new address up on their next redial. Returns
    /// `false` if the host was never in the book.
    pub fn update_host(&self, host: HostId, addr: SocketAddr) -> bool {
        let mut book = self.hosts.lock().unwrap_or_else(|p| p.into_inner());
        match book.get_mut(&host) {
            Some(slot) => {
                *slot = addr;
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// ShardHost: the remote worker role
// ---------------------------------------------------------------------------

/// A shard-host process/thread: serves shard state for any number of
/// coordinator links, each registered by a MAC'd handshake.
///
/// Spawn one per machine (or per core), hand its address to a
/// [`RemotePlacement`], and point a
/// [`FleetServerBuilder::placement`](crate::fleet::FleetServerBuilder::placement)
/// at it. The host is stateless across restarts on purpose: everything
/// it holds is rebuilt by the coordinator's journal replay.
#[derive(Debug)]
pub struct ShardHost {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<WireMetrics>,
    thread: Option<JoinHandle<()>>,
}

impl ShardHost {
    /// Bind `addr` (e.g. `127.0.0.1:0` for tests, `0.0.0.0:port` for a
    /// real deployment) and serve until [`stop`](ShardHost::stop).
    pub fn spawn_at(addr: SocketAddr, key: AuthKey) -> io::Result<ShardHost> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(WireMetrics::default());
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            thread::Builder::new().name("wirenet-shard-host".into()).spawn(move || {
                let poller = Poller::new(default_backend());
                let mut host = Host { key, shipped_seq: 0 };
                serve(listener, registration_key(&key), &mut host, &shutdown, &metrics, &poller)
            })?
        };
        Ok(ShardHost { addr, shutdown, metrics, thread: Some(thread) })
    }

    /// Spawn on loopback with an ephemeral port (tests, single-machine
    /// fleets).
    pub fn spawn(key: AuthKey) -> io::Result<ShardHost> {
        ShardHost::spawn_at(DEFAULT_BIND, key)
    }

    /// Spawn on the address named by [`SHARD_HOST_BIND_ENV`] (falling
    /// back to loopback-ephemeral when it is unset) — the entry point
    /// for a dedicated shard-host role process. A set value that is not
    /// an `ip:port` address, or not Unicode, fails with `InvalidInput`.
    pub fn spawn_env(key: AuthKey) -> io::Result<ShardHost> {
        let var = SHARD_HOST_BIND_ENV;
        ShardHost::spawn_at(resolve_bind(var, None, std::env::var(var))?, key)
    }

    /// The address coordinators register at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live host-side wire metrics.
    pub fn metrics(&self) -> WireSnapshot {
        self.metrics.snapshot()
    }

    /// Shut down, join, and return final metrics.
    pub fn stop(mut self) -> WireSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.metrics.snapshot()
    }
}

impl Drop for ShardHost {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The shard-host role of the server loop: every link starts under the
/// registration key, and a dead link takes its shard state (index and
/// range worker) with it — the coordinator's journal is the durable copy.
struct Host {
    key: AuthKey,
    /// Flight-recorder watermark, host-wide as the recorder is: events
    /// up to it already shipped on some link, so each ships once.
    shipped_seq: u64,
}

impl Role for Host {
    type Link = Option<(usize, Worker<'static>)>;

    fn accept(&mut self, _: &mut Conn, _: u32, _: &WireMetrics) -> Self::Link {
        None
    }

    fn pump(
        &mut self,
        conn: &mut Conn,
        link: &mut Self::Link,
        scratch: &mut [u8],
        m: &WireMetrics,
    ) -> bool {
        // Wrong base key, a sibling shard's key, or a stale-generation
        // frame fails the MAC; a protocol violation is a reject.
        conn.drain(scratch, m, Conn::next_frame, |conn, (kind, env)| {
            host_frame(self, link, conn, kind, env, m)
        })
    }
}

/// Handle one authenticated frame on a shard-host link: the
/// registration handshake here, everything else as an [`MrMsg`] for the
/// link's range worker. `false` poisons the link (protocol violation).
fn host_frame(
    host: &mut Host,
    link: &mut Option<(usize, Worker<'static>)>,
    conn: &mut Conn,
    kind: FrameKind,
    env: Envelope,
    metrics: &WireMetrics,
) -> bool {
    let Some((index, worker)) = link.as_mut() else {
        // The registration handshake must come first — and only once.
        let registration = match kind {
            FrameKind::Register => decode_register(&env.payload).ok(),
            _ => None,
        };
        let Some((index, shards, generation)) = registration else { return false };
        conn.set_key(link_key(&host.key, index, generation));
        let ep = trace_endpoint::shard_host(index as u32);
        conn.trace_with(metrics.recorder_arc(), ep);
        metrics.trace(0, ep, TraceKind::Dial, u64::from(generation));
        *link = Some((index, Worker::new(Some(index), shards, None, host.key, ep)));
        return true;
    };
    let index = *index;
    let endpoint = trace_endpoint::shard_host(index as u32);
    let session = env.session.0;
    // The proxy carries the client connection in `from` (in `to` on
    // uplink runs, whose `from` is the entry count).
    let msg = match kind {
        FrameKind::Announce => {
            let Ok((n, resume, cap)) = decode_resume(&env.payload) else { return false };
            metrics.trace(session, endpoint, TraceKind::Announce, n as u64);
            let (conn, epoch) = (env.from, env.round);
            MrMsg::Announce { conn, session, n, epoch, service: 0, cap, resume }
        }
        FrameKind::Data => {
            let Ok(entries) = decode_run(&env, RunDirection::Uplink) else { return false };
            metrics.trace(session, endpoint, TraceKind::Uplink, entries.len() as u64);
            MrMsg::Data { conn: env.to, session, round: env.round, entries }
        }
        FrameKind::Finish => MrMsg::Finish { conn: env.from, session },
        FrameKind::Retire => MrMsg::Retire { conn: env.from },
        _ => return false,
    };
    let teardown = matches!(msg, MrMsg::Finish { .. } | MrMsg::Retire { .. });
    worker.handle(msg, &mut HostOut(conn, metrics), metrics);
    if teardown {
        ship_trace(&mut host.shipped_seq, conn, index, metrics);
    }
    true
}

/// Ship the host's flight-recorder increment (everything recorded since
/// the last ship, on any link) back to the coordinator as one
/// [`Trace`](FrameKind::Trace) frame — called on `Finish`/`Retire`, the
/// natural session-teardown points, so the coordinator can stitch a
/// cross-process timeline without any extra round trips. Best-effort: a
/// segment too large for a frame is skipped (the events stay in the
/// ring for a later, smaller increment… or are eventually dropped-oldest
/// and surface in `trace_drops`).
fn ship_trace(shipped_seq: &mut u64, conn: &mut Conn, index: usize, metrics: &WireMetrics) {
    let recorder = metrics.recorder();
    if !recorder.is_enabled() {
        return;
    }
    let mark = recorder.last_seq();
    let segment = recorder.snapshot_since(*shipped_seq);
    if segment.is_empty() {
        return;
    }
    let payload = segment.encode();
    if !fits_frame(&payload) {
        return;
    }
    *shipped_seq = mark;
    let env = Envelope { session: SessionId(0), round: 0, from: index as u32, to: 0, payload };
    // No eager flush: the server loop's per-link flush ships this
    // alongside whatever else the pass queued, in one write.
    conn.queue_frame(FrameKind::Trace, &env);
}

/// A shard-host worker's sink: each partial or poison notice leaves as
/// one `Partial` frame on the coordinator link, stamped with the
/// session's announce epoch (a payload beyond the frame cap is dropped
/// and counted in `decode_rejects` — the session then starves and the
/// client's deadline rejects it, never a host panic).
struct HostOut<'a>(&'a mut Conn, &'a WireMetrics);

impl Out for HostOut<'_> {
    fn partial(
        &mut self,
        (conn, session): (u32, u64),
        epoch: u32,
        from: u32,
        partial: RoundPartialState,
    ) {
        let payload = partial.encode();
        if !fits_frame(&payload) {
            self.1.decode_rejects(1);
            return;
        }
        let env =
            Envelope { session: SessionId(session), round: epoch, from, to: conn, payload };
        // No eager flush: the server loop's per-link flush batches partials
        // (a session's whole burst leaves in one write).
        self.0.queue_frame(FrameKind::Partial, &env);
    }
}

// ---------------------------------------------------------------------------
// Coordinator-side proxy
// ---------------------------------------------------------------------------

/// One shard's coordinator proxy, and where its partials go.
pub(crate) struct Proxy<'a> {
    pub index: usize,
    pub base: &'a AuthKey,
    pub placement: &'a RemotePlacement,
    pub metrics: &'a WireMetrics,
    pub collector: Collector<'a>,
}

impl Proxy<'_> {
    /// Record a trace event under this proxy's endpoint.
    fn trace(&self, session: u64, kind: TraceKind, payload: u64) {
        self.metrics.trace(session, trace_endpoint::proxy(self.index as u32), kind, payload);
    }
}

/// Coordinator-side journal entry for one session on this shard.
struct ProxySession {
    journal: ShardJournal,
    epoch: u32,
    cap: u32,
}

/// Where a proxy's partials go. Proxy 0 holds the collector-only worker
/// (as in-process worker 0 holds range 0 plus the collector) and hears
/// every partial and control message; the others stage partials on lane
/// 0's [`Handoff`], flushed once per pass.
pub(crate) enum Collector<'a> {
    Here(Worker<'a>, Lane),
    There(Handoff<MrMsg>),
}

impl Collector<'_> {
    fn hand(&mut self, msg: MrMsg, metrics: &WireMetrics) {
        match self {
            Collector::Here(worker, lane) => worker.handle(msg, lane, metrics),
            Collector::There(lane0) if matches!(msg, MrMsg::Partial { .. }) => lane0.stage(msg),
            Collector::There(_) => {}
        }
    }

    /// Once per pass: send lane 0 the partials staged for it (one batch,
    /// one wake), or the router what the collector shipped (one wake).
    fn flush(&mut self) {
        match self {
            Collector::Here(_, lane) => lane.flush(),
            Collector::There(lane0) => lane0.flush(),
        }
    }
}

/// Run one shard's proxy: forward the router's traffic to the shard
/// host, journal for replay, redial on disconnect, and hand the host's
/// decoded partials to the collector. Each pass drains the inbox,
/// redials after the backoff, pumps the link (one flush) and waits on
/// `poller`. Runs until its inbox disconnects.
pub(crate) fn run_proxy(mut proxy: Proxy<'_>, inbox: Receiver<Vec<MrMsg>>, poller: Poller) {
    let (mut link, mut generation, mut last_dial) = (None, 0, None::<Instant>);
    let mut sessions: HashMap<(u32, u64), ProxySession> = HashMap::new();
    let (mut scratch, mut ready) = (vec![0u8; SCRATCH_BYTES], Vec::new());
    loop {
        loop {
            match inbox.try_recv() {
                Ok(batch) => {
                    for m in batch {
                        proxy_event(&mut proxy, m, &mut sessions, &mut link);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    let collecting = match &proxy.collector {
                        Collector::Here(worker, _) => worker.held(),
                        Collector::There(_) => 0,
                    };
                    proxy.metrics.sessions_held(sessions.len() as u64 + collecting);
                    return;
                }
            }
        }
        // Keep the link alive: dial, register, replay.
        if !link.as_ref().is_some_and(Conn::is_open)
            && last_dial.is_none_or(|t| t.elapsed() >= REDIAL_BACKOFF)
        {
            last_dial = Some(Instant::now());
            link = dial(&proxy, &poller, &mut generation, &sessions);
        }
        // Pump the socket: flush queued frames, absorb partials.
        if let Some(conn) = link.as_mut() {
            pump_partials(&mut proxy, conn, &mut scratch, &mut sessions);
        }
        proxy.collector.flush();
        poller.wait_ready(&mut ready);
    }
}

/// Dial the shard host, watch the link with `poller`, register
/// generation `generation + 1`, and replay every session with a round
/// left to collect from the journal (round caps were fixed at announce
/// time; replay reuses the stored ones).
fn dial(
    proxy: &Proxy<'_>,
    poller: &Poller,
    generation: &mut u32,
    sessions: &HashMap<(u32, u64), ProxySession>,
) -> Option<Conn> {
    let addr = proxy.placement.addr_of_shard(proxy.index);
    let dialed = Instant::now();
    let stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT).ok()?;
    let mut conn = Conn::new(stream, registration_key(proxy.base)).ok()?;
    conn.meter_with(proxy.metrics.conn_meter());
    poller.register(conn.fd());
    conn.trace_with(proxy.metrics.recorder_arc(), trace_endpoint::proxy(proxy.index as u32));
    proxy.metrics.record_stage(Stage::ConnectHello, dialed.elapsed());
    *generation = generation.wrapping_add(1).max(1);
    // The first dial flushes what the router queued before the link
    // came up; only a redial replays.
    let redial = *generation >= 2;
    let kind = if redial { TraceKind::Redial } else { TraceKind::Dial };
    proxy.trace(0, kind, u64::from(*generation));
    let register = register_envelope(proxy.index, proxy.placement.shards(), *generation);
    conn.queue_frame(FrameKind::Register, &register);
    conn.set_key(link_key(proxy.base, proxy.index, *generation));
    proxy.metrics.shard_reconnects(1);
    for ((cconn, session), ps) in sessions {
        if ps.journal.resume_round() > ps.cap {
            continue; // every round's partial merged; nothing to rebuild
        }
        let resume = encode_resume(ps.journal.n(), ps.journal.resume_round(), ps.cap);
        conn.queue_frame(FrameKind::Announce, &control(*session, ps.epoch, *cconn, resume));
        // The journal keeps (round, node) entries; each round replays
        // as runs, in routing order.
        let mut replay = ps.journal.replay().peekable();
        while let Some(&(round, _, _)) = replay.peek() {
            let entries: Vec<(u32, &Message)> =
                std::iter::from_fn(|| replay.next_if(|&(r, _, _)| r == round))
                    .map(|(_, from, payload)| (from, payload))
                    .collect();
            for run in encode_runs(entries) {
                if redial {
                    proxy.metrics.replayed_frames(1);
                    proxy.trace(*session, TraceKind::Replay, u64::from(run.count));
                }
                let run = run.envelope(SessionId(*session), round, RunDirection::Uplink);
                conn.queue_frame(FrameKind::Data, &Envelope { to: *cconn, ..run });
            }
        }
    }
    conn.flush();
    Some(conn)
}

/// Apply one inbox message: journal, forward, synthesize, or collect.
fn proxy_event(
    proxy: &mut Proxy<'_>,
    msg: MrMsg,
    sessions: &mut HashMap<(u32, u64), ProxySession>,
    link: &mut Option<Conn>,
) {
    let (kind, env) = match msg {
        MrMsg::Announce { conn, session, n, epoch, cap, resume, .. } => {
            proxy.trace(session, TraceKind::Announce, n as u64);
            let ps = ProxySession { journal: ShardJournal::new(n), epoch, cap };
            sessions.insert((conn, session), ps);
            let announce = control(session, epoch, conn, encode_resume(n, resume, cap));
            proxy.collector.hand(msg, proxy.metrics);
            (FrameKind::Announce, announce)
        }
        MrMsg::Data { conn, session, round, entries } => {
            let Some(ps) = sessions.get_mut(&(conn, session)) else {
                proxy.metrics.orphan_frames(1); // judged or retired in flight
                return;
            };
            // A round stamp outside 1..=cap poisons the round being
            // collected (the last one, once all have merged); a round
            // whose partial already merged is poisoned by any arrival.
            // Either way synthesize the notices *here*, one per arrival
            // as the host would: the shard host may not even hold the
            // session any more (e.g. it restarted and committed rounds
            // are not replayed), and the fail-fast verdict must not
            // depend on host liveness.
            let resume = ps.journal.resume_round();
            if round == 0 || round > ps.cap || round < resume {
                let (n, poisoned) = (ps.journal.n(), fault_round(round, resume, ps.cap));
                let (epoch, index) = (ps.epoch, proxy.index as u32);
                for (from, _) in entries {
                    proxy.trace(session, TraceKind::Poison, u64::from(from));
                    let partial = Ok(RoundPartialState::poison_notice(n, poisoned, from));
                    let notice = MrMsg::Partial { conn, session, epoch, from: index, partial };
                    proxy.collector.hand(notice, proxy.metrics);
                }
                return;
            }
            // Past the check above every arrival is journaled: a stale
            // round never reaches the journal.
            for (from, payload) in &entries {
                ps.journal.record(round, *from, payload.clone());
            }
            if let Some(c) = link.as_mut().filter(|c| c.is_open()) {
                for run in encode_runs(entries.iter().map(|(from, m)| (*from, m))) {
                    let run = run.envelope(SessionId(session), round, RunDirection::Uplink);
                    c.queue_frame(FrameKind::Data, &Envelope { to: conn, ..run });
                }
            }
            return;
        }
        MrMsg::Finish { conn, session } => {
            sessions.remove(&(conn, session));
            proxy.collector.hand(msg, proxy.metrics);
            (FrameKind::Finish, control(session, 0, conn, Message::empty()))
        }
        MrMsg::Retire { conn } => {
            sessions.retain(|(owner, _), _| *owner != conn);
            proxy.collector.hand(msg, proxy.metrics);
            (FrameKind::Retire, control(0, 0, conn, Message::empty()))
        }
        // Only lane 0's inbox carries partials: the other proxies'.
        MrMsg::Partial { .. } => return proxy.collector.hand(msg, proxy.metrics),
    };
    // Not on the wire while the link is down? The journal has what a
    // live shard still needs — the next (re)dial replays it.
    if let Some(c) = link.as_mut().filter(|c| c.is_open()) {
        c.queue_frame(kind, &env);
    }
}

/// A proxy → shard-host envelope for client connection `conn`'s
/// `session`: the host reads the connection from `from`.
fn control(session: u64, round: u32, conn: u32, payload: Message) -> Envelope {
    Envelope { session: SessionId(session), round, from: conn, to: 0, payload }
}

/// Flush the link, read the shard host's partials off it, commit their
/// rounds in the journal, and hand them — decoded, or as their decode
/// error — to the collector.
fn pump_partials(
    proxy: &mut Proxy<'_>,
    conn: &mut Conn,
    scratch: &mut [u8],
    sessions: &mut HashMap<(u32, u64), ProxySession>,
) {
    conn.flush();
    // A stale-generation (pre-epoch) or cross-shard-keyed frame fails
    // the MAC and drops the link — it never merges. A host answering
    // for a shard it was not registered as fails the link closed.
    conn.drain(scratch, proxy.metrics, Conn::next_frame, |_, (kind, env)| {
        if env.from as usize != proxy.index {
            return false;
        }
        match kind {
            FrameKind::Partial => {
                let Some(ps) = sessions.get_mut(&(env.to, env.session.0)) else {
                    proxy.metrics.orphan_frames(1); // judged while in flight
                    return true;
                };
                if env.round != ps.epoch {
                    proxy.metrics.orphan_frames(1); // stale announce run
                    return true;
                }
                // Commit the emitted round; an undecodable or past-cap
                // partial is still forwarded — the collector fails the
                // session closed.
                let partial = RoundPartialState::decode(ps.journal.n(), &env.payload);
                if let Some(p) = partial.as_ref().ok().filter(|p| p.round() <= ps.cap) {
                    ps.journal.commit(p.round());
                }
                proxy.metrics.partial_frames(1);
                let (conn, session, epoch, from) = (env.to, env.session.0, env.round, env.from);
                let partial = MrMsg::Partial { conn, session, epoch, from, partial };
                proxy.collector.hand(partial, proxy.metrics);
                true
            }
            // A trace segment the host shipped on Finish/Retire: stitch
            // it into the coordinator's timeline; a malformed segment
            // fails the link closed like any other protocol violation.
            FrameKind::Trace => match TraceSnapshot::decode(&env.payload) {
                Ok(segment) => {
                    proxy.metrics.absorb_trace(&segment);
                    true
                }
                Err(_) => false,
            },
            _ => false,
        }
    });
}
