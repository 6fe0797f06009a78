//! Cross-host shard placement: shard workers as first-class network
//! peers.
//!
//! The referee session engine ([`crate::multiround`]) already pushes
//! every cross-shard partial through the full MAC'd wire codec — this module swaps the in-process channel under that codec for
//! a real socket, so shards can live on separate hosts:
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
//! * [`ShardHost`] is the remote worker role: it accepts coordinator
//!   connections, each registered as one shard of a placement by a
//!   MAC'd [`Register`](FrameKind::Register) handshake, ingests routed
//!   uplinks into the engine's per-round range waits (the same
//!   `RoundShard` rules an in-process worker runs), and ships
//!   [`Partial`](FrameKind::Partial) frames back over the same
//!   authenticated codec the rest of the system speaks.
//! * The coordinator runs one **proxy** per shard (spawned by the
//!   catalog server in [`crate::multiround`]): it forwards the router's
//!   traffic to its shard host, journals everything a live shard may
//!   still need ([`ShardJournal`]), and on disconnect redials,
//!   re-registers and replays — so a shard-host kill/restart is
//!   invisible to honest sessions (pinned bit-for-bit by the chaos
//!   tests).
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
//! journal. Because shards are deterministic in their inputs, the
//! rebuilt shard re-emits bit-identical partials — verdicts are
//! unchanged by any kill/restart schedule that eventually lets the
//! fleet drain.
//!
//! An uplink for a round the journal has already committed never
//! reaches the host: the proxy itself ships the round-stamped poison
//! notice the host would have sent, as it does for a round stamp
//! outside `1..=cap` — so fail-fast verdicts do not depend on whether
//! the host is alive.

use crate::auth::AuthKey;
use crate::frame::{
    encode_wire_frame, FrameKind, WireError, HEADER_BYTES, MAX_BODY_BYTES, TAG_BYTES,
};
use crate::metrics::{trace_endpoint, Stage, WireMetrics, WireSnapshot};
use crate::multiround::{poison_notice, MrMsg, RangeWait, ServiceCatalog};
use crate::reactor::{Conn, SCRATCH_BYTES, WRITE_BACKPRESSURE_BYTES};
use crate::shard::build_evidence;
use referee_protocol::shard::multiround::RoundPartialState;
use referee_protocol::shard::replay::{decode_resume, encode_resume, Recorded, ShardJournal};
use referee_protocol::shard::shard_range;
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub use referee_protocol::shard::placement::{HostId, PlacementPolicy};

/// Domain-separation tweak for the placement key hierarchy.
const PLACEMENT_TWEAK: u64 = 0x706c_6163_655f_6b79; // "place_ky"

/// Default proxy redial backoff after a shard-host link dies (see
/// [`REDIAL_BACKOFF_ENV`] and
/// [`FleetServerBuilder::redial_backoff`](crate::fleet::FleetServerBuilder::redial_backoff)).
pub const DEFAULT_REDIAL_BACKOFF: Duration = Duration::from_millis(20);

/// Environment variable overriding the proxy redial backoff, in
/// milliseconds. Unset, unparsable or zero keeps
/// [`DEFAULT_REDIAL_BACKOFF`]; the builder knob takes precedence.
pub const REDIAL_BACKOFF_ENV: &str = "REFEREE_WIRENET_REDIAL_BACKOFF_MS";

/// Resolve the redial backoff from an env *value* (passed as a
/// parameter so unit tests never mutate the process environment — the
/// same discipline as [`WireTimeouts`](crate::WireTimeouts)).
pub(crate) fn resolve_redial_backoff(env: Option<&str>) -> Duration {
    env.and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map_or(DEFAULT_REDIAL_BACKOFF, Duration::from_millis)
}

/// The redial backoff a builder starts from: [`REDIAL_BACKOFF_ENV`] if
/// set, else [`DEFAULT_REDIAL_BACKOFF`].
pub(crate) fn default_redial_backoff() -> Duration {
    resolve_redial_backoff(std::env::var(REDIAL_BACKOFF_ENV).ok().as_deref())
}

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
    encode_wire_frame(
        &registration_key(base),
        FrameKind::Register,
        &Envelope {
            session: SessionId(0),
            round: generation,
            from: index as u32,
            to: 0,
            payload: encode_register(index, shards, generation),
        },
    )
}

/// Whether a partial payload fits the wire codec's frame cap.
pub(crate) fn fits_frame(payload: &Message) -> bool {
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
            thread::Builder::new()
                .name("wirenet-shard-host".into())
                .spawn(move || run_shard_host(listener, key, &shutdown, &metrics))?
        };
        Ok(ShardHost { addr, shutdown, metrics, thread: Some(thread) })
    }

    /// Spawn on loopback with an ephemeral port (tests, single-machine
    /// fleets).
    pub fn spawn(key: AuthKey) -> io::Result<ShardHost> {
        ShardHost::spawn_at("127.0.0.1:0".parse().expect("constant address parses"), key)
    }

    /// Spawn on the address named by [`SHARD_HOST_BIND_ENV`] (falling
    /// back to loopback-ephemeral) — the entry point for a dedicated
    /// shard-host role process.
    pub fn spawn_env(key: AuthKey) -> io::Result<ShardHost> {
        let addr = match std::env::var(SHARD_HOST_BIND_ENV) {
            Ok(s) => s.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{SHARD_HOST_BIND_ENV}={s} is not an ip:port address: {e}"),
                )
            })?,
            Err(_) => "127.0.0.1:0".parse().expect("constant address parses"),
        };
        ShardHost::spawn_at(addr, key)
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

/// One registered coordinator link on a shard host.
struct HostLink {
    conn: Conn,
    /// `(shard index, shard count)`, once registered.
    role: Option<(usize, usize)>,
    /// Shard state keyed by (coordinator client-connection id, session).
    sessions: HashMap<(u32, u64), HostSession>,
    /// Flight-recorder watermark: events below this sequence were
    /// already shipped to the coordinator on a previous
    /// `Finish`/`Retire`, so each [`FrameKind::Trace`] segment is an
    /// increment, never a resend.
    shipped_seq: u64,
}

/// Per-session shard state on a host: the engine's range wait, under
/// the session's announce epoch. `opened` is when the current range
/// wait began (the announce, or the previous emit) — the zero point
/// for the host's uplinks-complete stage histogram.
struct HostSession {
    epoch: u32,
    wait: RangeWait,
    opened: Instant,
}

/// The shard-host accept/pump loop.
fn run_shard_host(
    listener: TcpListener,
    key: AuthKey,
    shutdown: &AtomicBool,
    metrics: &WireMetrics,
) {
    let reg_key = registration_key(&key);
    let poller =
        crate::poll::Poller::new(crate::poll::default_backend(), crate::fleet::IDLE_SLEEP);
    poller.register(crate::poll::fd_of(&listener));
    let mut links: Vec<HostLink> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    while !shutdown.load(Ordering::Relaxed) {
        let mut progress = false;
        while let Ok((stream, _)) = listener.accept() {
            if let Ok(mut conn) = Conn::new(stream, reg_key) {
                metrics.connections(1);
                conn.meter_with(metrics.syscall_meter());
                poller.register(conn.fd());
                links.push(HostLink {
                    conn,
                    role: None,
                    sessions: HashMap::new(),
                    shipped_seq: 0,
                });
                progress = true;
            }
        }
        for link in &mut links {
            progress |= link.conn.flush() > 0;
            if link.conn.pending_write() > WRITE_BACKPRESSURE_BYTES {
                if !link.conn.stalled {
                    link.conn.stalled = true;
                    metrics.backpressure_stalls(1);
                }
                continue;
            }
            link.conn.stalled = false;
            let got = link.conn.fill(&mut scratch);
            metrics.bytes_received(got as u64);
            progress |= got > 0;
            loop {
                match link.conn.next_frame() {
                    Ok(None) => break,
                    Ok(Some((kind, env))) => {
                        metrics.frames_received(1);
                        if host_frame(link, kind, env, &key, metrics).is_err() {
                            metrics.decode_rejects(1);
                            link.conn.close();
                            break;
                        }
                        progress = true;
                    }
                    Err(WireError::BadMac) => {
                        // Wrong base key, a sibling shard's key, or a
                        // stale-generation frame: fail the link closed.
                        metrics.mac_rejects(1);
                        if let Some((index, _)) = link.role {
                            let ep = trace_endpoint::shard_host(index as u32);
                            metrics.trace(0, ep, TraceKind::MacReject, 0);
                        }
                        link.conn.close();
                        break;
                    }
                    Err(_) => {
                        metrics.decode_rejects(1);
                        link.conn.close();
                        break;
                    }
                }
            }
        }
        // A dead coordinator link takes its shard state with it — the
        // coordinator's journal is the durable copy.
        links.retain(|l| l.conn.is_open());
        if !progress {
            poller.wait();
        }
    }
}

/// Handle one authenticated frame on a shard-host link. `Err(())`
/// poisons the link (protocol violation).
fn host_frame(
    link: &mut HostLink,
    kind: FrameKind,
    env: Envelope,
    base: &AuthKey,
    metrics: &WireMetrics,
) -> Result<(), ()> {
    let Some((index, shards)) = link.role else {
        // The registration handshake must come first — and only once.
        let (index, shards, generation) = match kind {
            FrameKind::Register => decode_register(&env.payload).map_err(|_| ())?,
            _ => return Err(()),
        };
        link.role = Some((index, shards));
        link.conn.set_key(link_key(base, index, generation));
        let ep = trace_endpoint::shard_host(index as u32);
        link.conn.trace_with(metrics.recorder_arc(), ep);
        metrics.trace(0, ep, TraceKind::Dial, u64::from(generation));
        return Ok(());
    };
    let endpoint = trace_endpoint::shard_host(index as u32);
    match kind {
        FrameKind::Announce => {
            let (n, resume, cap) = decode_resume(&env.payload).map_err(|_| ())?;
            let conn = env.from;
            let session = env.session.0;
            let epoch = env.round;
            metrics.trace(session, endpoint, TraceKind::Announce, n as u64);
            if shard_range(n, shards, index).is_empty() {
                // Empty ranges never receive data and never emit — their
                // per-round partials are implied.
                return Ok(());
            }
            let hs = HostSession {
                epoch,
                wait: RangeWait::new(n, shards, index, resume, cap),
                opened: Instant::now(),
            };
            // A re-announce of a live key only happens when the
            // coordinator re-registered (its journal replay is about to
            // rebuild the state): start fresh.
            link.sessions.insert((conn, session), hs);
            emit_ready(link, (conn, session), index, metrics);
            Ok(())
        }
        FrameKind::Data => {
            // The proxy carries the client connection in `to`; client
            // uplinks address the referee (0), the only address an
            // evidence record accepts.
            let conn = env.to;
            let key = (conn, env.session.0);
            let Some(hs) = link.sessions.get_mut(&key) else {
                metrics.orphan_frames(1); // finished or retired in flight
                return Ok(());
            };
            let (session, from) = (env.session, env.from);
            metrics.trace(session.0, endpoint, TraceKind::Uplink, u64::from(from));
            let ingested = hs.wait.ingest(base, conn, Envelope { to: 0, ..env }, metrics);
            if let Some((error, records)) = ingested.evidence {
                let (n, cap) = (hs.wait.n, hs.wait.cap);
                // Logged host-side only: the host has no client link.
                let _ = build_evidence(
                    base, conn, session.0, n, cap, error, records, endpoint, metrics,
                );
            }
            if let Some(notice) = ingested.late {
                // Fail fast instead of wedging a sibling range's wait.
                metrics.trace(session.0, endpoint, TraceKind::Poison, u64::from(from));
                let payload = notice.encode();
                queue_partial(
                    &mut link.conn,
                    session,
                    hs.epoch,
                    index,
                    conn,
                    &payload,
                    metrics,
                );
            }
            emit_ready(link, key, index, metrics);
            Ok(())
        }
        FrameKind::Finish => {
            link.sessions.remove(&(env.from, env.session.0));
            ship_trace(link, index, metrics);
            Ok(())
        }
        FrameKind::Retire => {
            link.sessions.retain(|(conn, _), _| *conn != env.from);
            ship_trace(link, index, metrics);
            Ok(())
        }
        _ => Err(()),
    }
}

/// Ship the host's flight-recorder increment (everything recorded since
/// the last ship) back to the coordinator as one
/// [`Trace`](FrameKind::Trace) frame — called on `Finish`/`Retire`, the
/// natural session-teardown points, so the coordinator can stitch a
/// cross-process timeline without any extra round trips. Best-effort: a
/// segment too large for a frame is skipped (the events stay in the
/// ring for a later, smaller increment… or are eventually dropped-oldest
/// and surface in `trace_drops`).
fn ship_trace(link: &mut HostLink, index: usize, metrics: &WireMetrics) {
    let recorder = metrics.recorder();
    if !recorder.is_enabled() {
        return;
    }
    let mark = recorder.last_seq();
    let segment = recorder.snapshot_since(link.shipped_seq);
    if segment.is_empty() {
        return;
    }
    let payload = segment.encode();
    if !fits_frame(&payload) {
        return;
    }
    link.shipped_seq = mark;
    let env = Envelope { session: SessionId(0), round: 0, from: index as u32, to: 0, payload };
    metrics.frames_sent(1);
    // No eager flush: the host loop's per-link flush ships this
    // alongside whatever else the sweep queued, in one write.
    link.conn.queue_frame(FrameKind::Trace, &env);
}

/// Ship every partial this session's range wait has ready, advancing
/// the round each time.
fn emit_ready(link: &mut HostLink, key: (u32, u64), index: usize, metrics: &WireMetrics) {
    let Some(hs) = link.sessions.get_mut(&key) else { return };
    let (conn, session) = key;
    while let Some(partial) = hs.wait.take_ready() {
        metrics.record_stage(Stage::UplinksComplete, hs.opened.elapsed());
        hs.opened = Instant::now();
        let payload = partial.encode();
        queue_partial(
            &mut link.conn,
            SessionId(session),
            hs.epoch,
            index,
            conn,
            &payload,
            metrics,
        );
    }
}

/// Queue one `Partial` frame on a shard-host link (dropping payloads
/// beyond the frame cap — the session then starves and the client's
/// deadline rejects it, never a host panic).
fn queue_partial(
    conn: &mut Conn,
    session: SessionId,
    round: u32,
    index: usize,
    cconn: u32,
    payload: &Message,
    metrics: &WireMetrics,
) {
    if !fits_frame(payload) {
        metrics.decode_rejects(1);
        return;
    }
    let env =
        Envelope { session, round, from: index as u32, to: cconn, payload: payload.clone() };
    metrics.frames_sent(1);
    metrics.partial_frames(1);
    metrics.trace(
        session.0,
        trace_endpoint::shard_host(index as u32),
        TraceKind::PartialEmit,
        u64::from(round),
    );
    // No eager flush: the host loop's per-link flush batches partials
    // (a session's whole burst leaves in one write).
    conn.queue_frame(FrameKind::Partial, &env);
}

// ---------------------------------------------------------------------------
// Coordinator-side proxy
// ---------------------------------------------------------------------------

/// Everything a proxy needs to serve one shard remotely.
pub(crate) struct ProxyConfig<'a> {
    pub index: usize,
    pub shards: usize,
    pub base: &'a AuthKey,
    pub exchange_key: &'a AuthKey,
    pub placement: &'a RemotePlacement,
    pub metrics: &'a WireMetrics,
    /// How long to wait before redialling a dead shard-host link.
    pub backoff: Duration,
}

impl ProxyConfig<'_> {
    /// This proxy's trace endpoint id.
    fn endpoint(&self) -> u32 {
        trace_endpoint::proxy(self.index as u32)
    }
}

/// Coordinator-side journal entry for one session on this shard.
struct ProxySession {
    journal: ShardJournal,
    epoch: u32,
    cap: u32,
}

/// One shard's coordinator proxy: forwards the router's traffic to the
/// shard host, journals for replay, redials on disconnect, and pipes the
/// host's partials (re-MAC'd under the exchange key) to the
/// accumulator. Runs until its inbox disconnects.
pub(crate) fn run_proxy(
    cfg: ProxyConfig<'_>,
    rx: Receiver<MrMsg>,
    acc: Sender<MrMsg>,
    catalog: &ServiceCatalog,
) {
    let host = cfg.placement.policy().host_of_shard(cfg.index);
    let mut link: Option<Conn> = None;
    let mut generation: u32 = 0;
    let mut last_dial: Option<Instant> = None;
    let mut sessions: HashMap<(u32, u64), ProxySession> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    loop {
        // Drain the router's traffic (briefly blocking so an idle proxy
        // doesn't spin).
        match rx.recv_timeout(Duration::from_micros(200)) {
            Ok(m) => {
                let mut next = Some(m);
                while let Some(m) = next {
                    proxy_event(&cfg, m, &mut sessions, &mut link, catalog, &acc);
                    next = rx.try_recv().ok();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        // Keep the link alive: dial, register, replay.
        if !link.as_ref().is_some_and(Conn::is_open) {
            let backoff_over = last_dial.is_none_or(|t| t.elapsed() >= cfg.backoff);
            if backoff_over {
                last_dial = Some(Instant::now());
                link = dial(&cfg, host, &mut generation, &sessions);
            }
        }
        // Pump the socket: flush queued frames, absorb partials.
        if let Some(conn) = link.as_mut() {
            pump_partials(&cfg, conn, &mut scratch, &mut sessions, &acc);
        }
    }
}

/// Dial the shard host, register generation `generation + 1`, and
/// replay every session with a round left to collect from the journal
/// (round caps were fixed at announce time; replay reuses the stored
/// ones).
fn dial(
    cfg: &ProxyConfig<'_>,
    host: HostId,
    generation: &mut u32,
    sessions: &HashMap<(u32, u64), ProxySession>,
) -> Option<Conn> {
    let addr = cfg.placement.addr_of_host(host);
    let dialed = Instant::now();
    let stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT).ok()?;
    let mut conn = Conn::new(stream, registration_key(cfg.base)).ok()?;
    conn.trace_with(cfg.metrics.recorder_arc(), cfg.endpoint());
    cfg.metrics.record_stage(Stage::ConnectHello, dialed.elapsed());
    *generation = generation.wrapping_add(1).max(1);
    let kind = if *generation == 1 { TraceKind::Dial } else { TraceKind::Redial };
    cfg.metrics.trace(0, cfg.endpoint(), kind, u64::from(*generation));
    conn.queue_frame(
        FrameKind::Register,
        &Envelope {
            session: SessionId(0),
            round: *generation,
            from: cfg.index as u32,
            to: 0,
            payload: encode_register(cfg.index, cfg.shards, *generation),
        },
    );
    conn.set_key(link_key(cfg.base, cfg.index, *generation));
    cfg.metrics.shard_reconnects(1);
    for ((cconn, session), ps) in sessions {
        if ps.journal.resume_round() > ps.cap {
            continue; // every round's partial merged; nothing to rebuild
        }
        conn.queue_frame(
            FrameKind::Announce,
            &Envelope {
                session: SessionId(*session),
                round: ps.epoch,
                from: *cconn,
                to: 0,
                payload: encode_resume(ps.journal.n(), ps.journal.resume_round(), ps.cap),
            },
        );
        for (round, sender, payload) in ps.journal.replay() {
            cfg.metrics.replayed_frames(1);
            cfg.metrics.trace(*session, cfg.endpoint(), TraceKind::Replay, u64::from(sender));
            conn.queue_frame(
                FrameKind::Data,
                &Envelope {
                    session: SessionId(*session),
                    round,
                    from: sender,
                    to: *cconn,
                    payload: payload.clone(),
                },
            );
        }
    }
    conn.flush();
    Some(conn)
}

/// Apply one router message: journal, forward, or synthesize.
fn proxy_event(
    cfg: &ProxyConfig<'_>,
    msg: MrMsg,
    sessions: &mut HashMap<(u32, u64), ProxySession>,
    link: &mut Option<Conn>,
    catalog: &ServiceCatalog,
    acc: &Sender<MrMsg>,
) {
    match msg {
        MrMsg::Announce { conn, session, n, epoch, service } => {
            let entry =
                catalog.by_index(service as usize).expect("router validated the service");
            let cap = entry.round_cap(n) as u32;
            cfg.metrics.trace(session, cfg.endpoint(), TraceKind::Announce, n as u64);
            sessions.insert(
                (conn, session),
                ProxySession { journal: ShardJournal::new(n), epoch, cap },
            );
            if let Some(c) = link.as_mut().filter(|c| c.is_open()) {
                c.queue_frame(
                    FrameKind::Announce,
                    &Envelope {
                        session: SessionId(session),
                        round: epoch,
                        from: conn,
                        to: 0,
                        payload: encode_resume(n, 1, cap),
                    },
                );
                c.flush();
            }
        }
        MrMsg::Data { conn, env } => {
            let Some(ps) = sessions.get_mut(&(conn, env.session.0)) else {
                cfg.metrics.orphan_frames(1); // judged or retired in flight
                return;
            };
            // A round stamp outside 1..=cap poisons the round being
            // collected (the last one, once all have merged); a round
            // whose partial already merged is poisoned by any arrival.
            // Either way synthesize the notice *here*: the shard host
            // may not even hold the session any more (e.g. it restarted
            // and committed rounds are not replayed), and the fail-fast
            // verdict must not depend on host liveness.
            let resume = ps.journal.resume_round();
            let poisoned = if env.round == 0 || env.round > ps.cap {
                Some(resume.min(ps.cap))
            } else {
                (env.round < resume).then_some(env.round)
            };
            if let Some(round) = poisoned {
                let from = env.from;
                cfg.metrics.trace(
                    env.session.0,
                    cfg.endpoint(),
                    TraceKind::Poison,
                    u64::from(from),
                );
                let notice = Envelope {
                    session: env.session,
                    round: ps.epoch,
                    from: cfg.index as u32,
                    to: conn,
                    payload: poison_notice(ps.journal.n(), round, from).encode(),
                };
                let frame = encode_wire_frame(cfg.exchange_key, FrameKind::Partial, &notice);
                let _ = acc.send(MrMsg::Partial(frame));
            } else if ps.journal.record(env.round, env.from, env.payload.clone())
                == Recorded::Forward
            {
                if let Some(c) = link.as_mut().filter(|c| c.is_open()) {
                    c.queue_frame(FrameKind::Data, &Envelope { to: conn, ..env });
                    c.flush();
                }
                // Not yet on the wire? The journal has it — the next
                // (re)dial replays it.
            }
        }
        MrMsg::Finish { conn, session } => {
            sessions.remove(&(conn, session));
            if let Some(c) = link.as_mut().filter(|c| c.is_open()) {
                c.queue_frame(
                    FrameKind::Finish,
                    &Envelope {
                        session: SessionId(session),
                        round: 0,
                        from: conn,
                        to: 0,
                        payload: Message::empty(),
                    },
                );
                c.flush();
            }
        }
        MrMsg::Retire { conn } => {
            sessions.retain(|(owner, _), _| *owner != conn);
            if let Some(c) = link.as_mut().filter(|c| c.is_open()) {
                c.queue_frame(
                    FrameKind::Retire,
                    &Envelope {
                        session: SessionId(0),
                        round: 0,
                        from: conn,
                        to: 0,
                        payload: Message::empty(),
                    },
                );
                c.flush();
            }
        }
        // Partials flow toward the accumulator, never into a proxy.
        MrMsg::Partial(_) => {}
    }
}

/// Read the shard host's partials off the link, commit their rounds in
/// the journal, and forward them (re-MAC'd under the exchange key) to
/// the accumulator.
fn pump_partials(
    cfg: &ProxyConfig<'_>,
    conn: &mut Conn,
    scratch: &mut [u8],
    sessions: &mut HashMap<(u32, u64), ProxySession>,
    acc: &Sender<MrMsg>,
) {
    conn.flush();
    let got = conn.fill(scratch);
    cfg.metrics.bytes_received(got as u64);
    loop {
        match conn.next_frame() {
            Ok(None) => return,
            Ok(Some((FrameKind::Partial, env))) => {
                if env.from as usize != cfg.index {
                    // A host answering for a shard it was not
                    // registered as — fail the link closed.
                    cfg.metrics.decode_rejects(1);
                    conn.close();
                    return;
                }
                let key = (env.to, env.session.0);
                let Some(ps) = sessions.get_mut(&key) else {
                    cfg.metrics.orphan_frames(1); // judged while in flight
                    continue;
                };
                if env.round != ps.epoch {
                    cfg.metrics.orphan_frames(1); // stale announce run
                    continue;
                }
                // Commit the emitted round; a malformed payload is still
                // forwarded — the accumulator's decode fails the session
                // closed.
                if let Ok(p) = RoundPartialState::decode(ps.journal.n(), &env.payload) {
                    ps.journal.commit(p.round());
                }
                cfg.metrics.partial_frames(1);
                let frame = encode_wire_frame(cfg.exchange_key, FrameKind::Partial, &env);
                let _ = acc.send(MrMsg::Partial(frame));
            }
            Ok(Some((FrameKind::Trace, env))) => {
                // A trace segment the host shipped on Finish/Retire:
                // stitch it into the coordinator's timeline. A host
                // answering for a shard it was not registered as, or a
                // malformed segment, fails the link closed like any
                // other protocol violation.
                if env.from as usize != cfg.index {
                    cfg.metrics.decode_rejects(1);
                    conn.close();
                    return;
                }
                match TraceSnapshot::decode(&env.payload) {
                    Ok(segment) => cfg.metrics.absorb_trace(&segment),
                    Err(_) => {
                        cfg.metrics.decode_rejects(1);
                        conn.close();
                        return;
                    }
                }
            }
            Ok(Some(_)) => {
                cfg.metrics.decode_rejects(1);
                conn.close();
                return;
            }
            Err(WireError::BadMac) => {
                // A stale-generation (pre-epoch) or cross-shard-keyed
                // frame: reject and drop the link — never merge it.
                cfg.metrics.mac_rejects(1);
                cfg.metrics.trace(0, cfg.endpoint(), TraceKind::MacReject, 0);
                conn.close();
                return;
            }
            Err(_) => {
                cfg.metrics.decode_rejects(1);
                conn.close();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redial_backoff_resolution_precedence() {
        // Env values (milliseconds) override; the historical 20 ms stays
        // the default. Env values are parameters here so no test ever
        // mutates the process environment.
        assert_eq!(resolve_redial_backoff(None), DEFAULT_REDIAL_BACKOFF);
        assert_eq!(resolve_redial_backoff(Some("5")), Duration::from_millis(5));
        assert_eq!(resolve_redial_backoff(Some(" 250 ")), Duration::from_millis(250));
        // Garbage or zero falls back to the default instead of spinning
        // the proxy dial loop hot on a typo'd environment.
        assert_eq!(resolve_redial_backoff(Some("0")), DEFAULT_REDIAL_BACKOFF);
        assert_eq!(resolve_redial_backoff(Some("fast")), DEFAULT_REDIAL_BACKOFF);
    }
}
