//! The fleet layer: a referee-side acceptor ([`FleetServer`]) and a
//! node-side connection pool ([`FleetClient`]) whose [`SocketTransport`]
//! drives unchanged `simnet` sessions over real TCP.
//!
//! # Architecture
//!
//! A `simnet` session owns *both* sides of the referee model and treats
//! its [`Transport`] as the network between them. `wirenet` makes that
//! network real: every envelope a session sends is framed, MAC-tagged
//! and written to a TCP connection; the server authenticates frames and
//! serves one of two roles:
//!
//! * **Echo mailbox** (the default, [`FleetServer::spawn`]): every
//!   authenticated frame is sent straight back; the client demultiplexes
//!   returning frames into per-session queues where `recv` picks them
//!   up. Protocol logic runs unchanged on the client's session state
//!   machines, every message crossing OS sockets twice.
//! * **Referee service** ([`FleetServer::spawn_sharded`],
//!   [`FleetServer::spawn_multiround`], [`FleetServerBuilder::catalog`]):
//!   the server runs the referee itself on one session engine, split
//!   across shard workers that exchange per-round partial-state frames
//!   and reply with verdicts — see [`crate::multiround`]. The one-round
//!   verifier behind [`FleetClient::verify_session`] is that engine's
//!   cap-1 digest service ([`crate::shard`]).
//!
//! # Per-connection keys
//!
//! At accept time the server assigns every connection an id and sends a
//! [`Hello`](crate::frame::FrameKind::Hello) frame (MAC'd with the
//! fleet's base key) carrying it; both ends then switch the connection
//! to `base.derive(id)`. A leaked per-connection key therefore forges
//! nothing on sibling connections (pinned by a loopback test). Clients
//! send nothing before the Hello arrives, so no frame ever crosses under
//! the wrong key; a client whose base key mismatches the server's fails
//! at [`FleetClient::connect`] — closed before any data flows.
//!
//! Multiplexing: each session is bound round-robin to one of a handful
//! of connections and tagged with its [`SessionId`]; a thousand sessions
//! share ≤ 8 sockets. Per-connection TCP ordering plus per-session
//! queues preserve FIFO delivery per session, which is exactly
//! [`PerfectTransport`](referee_simnet::PerfectTransport) semantics —
//! so outcomes are bit-for-bit identical to in-memory runs (pinned by
//! the loopback tests).
//!
//! Failure model: any MAC or decode failure poisons its connection on
//! the spot (a length-prefixed stream cannot resynchronize, and a
//! tampering peer must not keep talking). Sessions bound to a poisoned
//! connection starve, observe an empty transport, and reject with the
//! *existing* `DecodeError` delivery-failure paths — no new failure
//! oracle is introduced.
//!
//! Backpressure: client senders stall (and count the stall) whenever a
//! connection's write buffer exceeds the reactor's high-water mark, and
//! pump the reactor until it drains; the server stops *reading* from any
//! connection whose outbound buffer is over the mark, letting TCP push
//! back on the peer — so memory stays bounded on both ends no matter how
//! bursty (or slow-reading) the fleet is.
//!
//! Lifecycle: dropping a [`SocketTransport`] retires its session's
//! demux lane; echoes still in flight are counted as `orphan_frames`
//! and discarded, and the session id becomes reusable.

use crate::auth::AuthKey;
use crate::frame::{FrameKind, WireError};
use crate::metrics::{trace_endpoint, Stage, WireMetrics, WireSnapshot};
use crate::multiround::{
    decode_mr_verdict, encode_mr_announce, run_catalog_server, ServiceCatalog, WireReferee,
    MAX_SERVICE_NAME_BYTES,
};
use crate::placement::{default_redial_backoff, RemotePlacement};
use crate::poll::{
    default_backend, fd_of, resolve_poller, Poller, PollerBackend, Readiness, POLLER_ENV,
};
use crate::reactor::{Conn, SCRATCH_BYTES, WRITE_BACKPRESSURE_BYTES};
use crate::shard::{decode_digest_verdict, digest_catalog};
use referee_graph::{LabelledGraph, VertexId};
use referee_protocol::multiround::MultiRoundProtocol;
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{BitWriter, DecodeError, Message, NodeView};
use referee_simnet::{Envelope, SessionId, Transport, TransportCounters};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The sweep backend's sleep between pump sweeps that made no progress
/// (also the floor for the epoll wait cap). Overridable per server via
/// [`FleetServerBuilder::idle_sleep`].
pub(crate) const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// Client write-buffer occupancy that triggers an eager flush inside
/// `send_kind` instead of waiting for the next pump: big-burst senders
/// overlap socket writes with encoding, while short bursts (a session's
/// handful of uplinks) coalesce into one `write(2)`.
const FLUSH_COALESCE_BYTES: usize = 16 * 1024;

/// How long a follower thread waits on the pump condvar before
/// re-checking its lane (the leader thread is inside the kernel wait
/// and will notify sooner on any readiness).
const FOLLOWER_WAIT: Duration = Duration::from_millis(2);

/// Environment variable overriding the Hello handshake deadline, in
/// milliseconds (see [`WireTimeouts::hello`]).
pub const HELLO_TIMEOUT_ENV: &str = "REFEREE_WIRENET_HELLO_TIMEOUT_MS";

/// Environment variable overriding the verdict/round deadline, in
/// milliseconds (see [`WireTimeouts::verdict`]).
pub const VERDICT_TIMEOUT_ENV: &str = "REFEREE_WIRENET_VERDICT_TIMEOUT_MS";

/// The client-side wire deadlines, configurable per
/// [`FleetClient::connect_with`] or process-wide via environment
/// variables (the same pattern as [`BIND_ENV`]). These used to be
/// hardcoded consts; a slow CI host or a long multi-round session could
/// spuriously trip the fixed 30 s verdict deadline with no recourse —
/// now the defaults are only defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTimeouts {
    /// How long a connecting client waits for the server's Hello
    /// (default 10 s, or [`HELLO_TIMEOUT_ENV`]).
    pub hello: Duration,
    /// How long a client waits for a sharded referee's verdict after
    /// streaming a complete session — and, in multi-round mode, for
    /// each round's downlinks. The server judges in microseconds per
    /// step; this bound only exists so a server-side fault (a dead
    /// shard worker, a dropped verdict) surfaces as an error instead of
    /// a hang (default 30 s, or [`VERDICT_TIMEOUT_ENV`]).
    pub verdict: Duration,
}

impl Default for WireTimeouts {
    /// The defaults, with environment overrides applied.
    fn default() -> WireTimeouts {
        WireTimeouts::resolve(
            std::env::var(HELLO_TIMEOUT_ENV).ok().as_deref(),
            std::env::var(VERDICT_TIMEOUT_ENV).ok().as_deref(),
        )
    }
}

impl WireTimeouts {
    /// Deadline precedence: a parseable positive millisecond value from
    /// the environment, else the historical default. Split out (with
    /// the env values as parameters) so it is unit-testable without
    /// mutating the process environment; unparseable values fall back
    /// to the default rather than failing a connect.
    fn resolve(hello_env: Option<&str>, verdict_env: Option<&str>) -> WireTimeouts {
        let parse = |env: Option<&str>, default_ms: u64| {
            env.and_then(|s| s.trim().parse::<u64>().ok())
                .filter(|&ms| ms > 0)
                .map_or(Duration::from_millis(default_ms), Duration::from_millis)
        };
        WireTimeouts { hello: parse(hello_env, 10_000), verdict: parse(verdict_env, 30_000) }
    }
}

/// Environment variable overriding the server bind address
/// (`ip:port`, e.g. `0.0.0.0:7431` for cross-host fleets).
pub const BIND_ENV: &str = "REFEREE_WIRENET_BIND";

/// The default bind address: loopback, ephemeral port.
const DEFAULT_BIND: &str = "127.0.0.1:0";

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The referee-side acceptor: either an authenticated echo mailbox or a
/// sharded referee service (see the module docs).
///
/// Runs on its own thread over nonblocking accept + connection pumps;
/// [`FleetServer::stop`] (or drop) shuts it down and joins.
#[derive(Debug)]
pub struct FleetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<WireMetrics>,
    thread: Option<JoinHandle<()>>,
}

/// Configures a [`FleetServer`] before spawning: bind address (builder,
/// else [`BIND_ENV`], else loopback-ephemeral) and referee mode.
pub struct FleetServerBuilder {
    key: AuthKey,
    shards: usize,
    bind: Option<SocketAddr>,
    catalog: Option<ServiceCatalog>,
    placement: Option<RemotePlacement>,
    redial_backoff: Option<Duration>,
    poller: Option<PollerBackend>,
    idle_sleep: Option<Duration>,
}

impl std::fmt::Debug for FleetServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServerBuilder")
            .field("shards", &self.shards)
            .field("bind", &self.bind)
            .field("catalog", &self.catalog.is_some())
            .field("placement", &self.placement.is_some())
            .field("redial_backoff", &self.redial_backoff)
            .field("poller", &self.poller)
            .field("idle_sleep", &self.idle_sleep)
            .finish_non_exhaustive()
    }
}

impl FleetServerBuilder {
    /// Run as a sharded referee service with `shards` shard workers
    /// (clamped to at least 1) — the one-round verifier unless a
    /// [`catalog`](FleetServerBuilder::catalog) names other protocols.
    /// Without this call, a catalog or a placement, the server is the
    /// echo mailbox.
    pub fn shards(mut self, shards: usize) -> FleetServerBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Run as a **multi-round** referee service: `referee` supplies the
    /// per-session [`RefereeStepper`](crate::multiround::RefereeStepper)s
    /// whose `referee_step` runs once per round over the sharded uplink
    /// wait (see [`crate::multiround`]). Combine with
    /// [`shards`](FleetServerBuilder::shards) for the worker count;
    /// drive sessions with
    /// [`FleetClient::run_multiround_session`]. Equivalent to
    /// [`catalog`](FleetServerBuilder::catalog) with the single-entry
    /// catalog `ServiceCatalog::single(referee)`.
    pub fn multiround(self, referee: Arc<dyn WireReferee>) -> FleetServerBuilder {
        self.catalog(ServiceCatalog::single(referee))
    }

    /// Run as a **multi-protocol** multi-round referee service: every
    /// entry of `catalog` is served concurrently, with clients naming
    /// their service in the MAC'd `Announce`
    /// ([`FleetClient::run_multiround_session_as`]; the plain
    /// [`run_multiround_session`](FleetClient::run_multiround_session)
    /// selects entry 0). Announcing an unknown name fails closed with
    /// a typed error verdict.
    pub fn catalog(mut self, catalog: ServiceCatalog) -> FleetServerBuilder {
        self.catalog = Some(catalog);
        self
    }

    /// Place the referee's shards on **remote shard hosts**: the server
    /// becomes a coordinator whose shard ranges live on the
    /// [`ShardHost`](crate::placement::ShardHost)s named by
    /// `placement` (one proxy per shard forwards routed uplinks,
    /// journals for replay, and survives shard-host kill/restart — see
    /// [`crate::placement`]). The shard count comes from the
    /// placement's [`PlacementPolicy`](crate::placement::PlacementPolicy),
    /// overriding [`shards`](FleetServerBuilder::shards). Combine with
    /// [`multiround`](FleetServerBuilder::multiround) or
    /// [`catalog`](FleetServerBuilder::catalog) to choose the served
    /// protocols; without either the one-round verifier (the cap-1
    /// digest service) is served. Either way the shard hosts run the
    /// same per-round range waits as in-process workers.
    pub fn placement(mut self, placement: RemotePlacement) -> FleetServerBuilder {
        self.shards = placement.shards();
        self.placement = Some(placement);
        self
    }

    /// How long a shard proxy waits between redial attempts to a dead
    /// or restarting [`ShardHost`](crate::placement::ShardHost)
    /// (remote placement only). Defaults to the historical 20 ms, or
    /// the [`REDIAL_BACKOFF_ENV`](crate::placement::REDIAL_BACKOFF_ENV)
    /// environment value — this builder knob wins over both.
    pub fn redial_backoff(mut self, backoff: Duration) -> FleetServerBuilder {
        self.redial_backoff = Some(backoff);
        self
    }

    /// Bind to `addr` instead of the default. For cross-host fleets
    /// bind a routable address (e.g. `0.0.0.0:7431`) and point clients
    /// at it; the [`BIND_ENV`] environment variable does the same
    /// without code changes.
    pub fn bind(mut self, addr: SocketAddr) -> FleetServerBuilder {
        self.bind = Some(addr);
        self
    }

    /// Select the idle-wait backend for the server's pump loops:
    /// [`PollerBackend::Epoll`] (the default — kernel readiness with a
    /// wakeup fd) or [`PollerBackend::Sweep`] (the historical
    /// sleep-and-sweep loop). This knob wins over the [`POLLER_ENV`]
    /// environment variable; epoll silently degrades to sweep where
    /// unavailable.
    pub fn poller(mut self, backend: PollerBackend) -> FleetServerBuilder {
        self.poller = Some(backend);
        self
    }

    /// Override the idle interval between no-progress pump sweeps
    /// (default `50 µs`): the sweep backend sleeps it,
    /// the epoll backend uses it (floored at 2 ms — `epoll_wait`
    /// granularity) as the wait cap.
    pub fn idle_sleep(mut self, idle: Duration) -> FleetServerBuilder {
        self.idle_sleep = Some(idle);
        self
    }

    /// Bind, spawn the server thread(s) and start serving.
    pub fn spawn(self) -> io::Result<FleetServer> {
        let addr = resolve_bind(self.bind, std::env::var(BIND_ENV).ok().as_deref())?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(WireMetrics::default());
        let key = self.key;
        let shards = self.shards.max(1);
        // Echo unless asked to referee; a referee without a catalog
        // serves the one-round verifier.
        let catalog = match (self.catalog, self.shards, &self.placement) {
            (None, 0, None) => None,
            (catalog, _, _) => Some(catalog.unwrap_or_else(|| digest_catalog(key))),
        };
        let placement = self
            .placement
            .map(|p| (p, self.redial_backoff.unwrap_or_else(default_redial_backoff)));
        let backend = resolve_poller(self.poller, std::env::var(POLLER_ENV).ok().as_deref());
        let poller = Poller::new(backend, self.idle_sleep.unwrap_or(IDLE_SLEEP));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            thread::Builder::new().name("wirenet-server".into()).spawn(
                move || match catalog {
                    None => run_server(listener, key, &shutdown, &metrics, &poller),
                    Some(catalog) => run_catalog_server(
                        listener, key, &catalog, shards, placement, &shutdown, &metrics, poller,
                    ),
                },
            )?
        };
        Ok(FleetServer { addr, shutdown, metrics, thread: Some(thread) })
    }
}

/// Bind-address precedence: explicit builder address, else the
/// [`BIND_ENV`] environment value, else loopback-ephemeral. Split out
/// (with the env value as a parameter) so it is unit-testable without
/// mutating the process environment.
fn resolve_bind(explicit: Option<SocketAddr>, env: Option<&str>) -> io::Result<SocketAddr> {
    if let Some(addr) = explicit {
        return Ok(addr);
    }
    match env {
        Some(s) => s.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{BIND_ENV}={s} is not an ip:port address: {e}"),
            )
        }),
        None => Ok(DEFAULT_BIND.parse().expect("constant address parses")),
    }
}

impl FleetServer {
    /// Configure a server before spawning (bind address, sharded or
    /// multi-round mode).
    pub fn builder(key: AuthKey) -> FleetServerBuilder {
        FleetServerBuilder {
            key,
            shards: 0,
            bind: None,
            catalog: None,
            placement: None,
            redial_backoff: None,
            poller: None,
            idle_sleep: None,
        }
    }

    /// Spawn the echo mailbox on the default bind address.
    pub fn spawn(key: AuthKey) -> io::Result<FleetServer> {
        FleetServer::builder(key).spawn()
    }

    /// Spawn the one-round verifier with `shards` shard workers on the
    /// default bind address: the session engine serving the cap-1
    /// digest service (see [`crate::shard`]), which
    /// [`FleetClient::verify_session`] drives.
    pub fn spawn_sharded(key: AuthKey, shards: usize) -> io::Result<FleetServer> {
        FleetServer::builder(key).shards(shards).spawn()
    }

    /// Spawn the **multi-round** referee service with `shards` shard
    /// workers on the default bind address; `referee` is the protocol
    /// referee the server runs per round (e.g.
    /// [`boruvka_connectivity_service`](crate::multiround::boruvka_connectivity_service)).
    pub fn spawn_multiround(
        key: AuthKey,
        shards: usize,
        referee: Arc<dyn WireReferee>,
    ) -> io::Result<FleetServer> {
        FleetServer::builder(key).shards(shards).multiround(referee).spawn()
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server-side wire metrics.
    pub fn metrics(&self) -> WireSnapshot {
        self.metrics.snapshot()
    }

    /// Every evidence bundle the server's workers cut (up to the
    /// `REFEREE_EVIDENCE_CAP` retention cap), in emission order. Each
    /// one is self-contained: verify it with
    /// [`verify_bundle`](referee_protocol::evidence::verify_bundle)
    /// against the fleet key and the session's parameters alone.
    pub fn evidence(&self) -> Vec<referee_protocol::evidence::EvidenceBundle> {
        self.metrics.evidence()
    }

    /// The server's causally-ordered flight-recorder timeline: the
    /// local ring's surviving events merged with every trace segment
    /// shipped by remote shard hosts (see `protocol::trace`).
    pub fn stitched_trace(&self) -> TraceSnapshot {
        self.metrics.stitched_trace()
    }

    /// Shut down, join the server thread, and return its final metrics.
    pub fn stop(mut self) -> WireSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.metrics.snapshot()
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Accept one pending connection, if any: assign the next connection
/// id, queue the Hello (MAC'd with the base key — the only frame that
/// ever crosses under it), and switch the connection to its derived
/// key. Hello frames are handshake overhead and deliberately absent
/// from the frame metrics.
pub(crate) fn accept_conn(
    listener: &TcpListener,
    base: &AuthKey,
    next_id: &mut u32,
) -> Option<(u32, Conn)> {
    let (stream, _) = listener.accept().ok()?;
    let mut conn = Conn::new(stream, *base).ok()?;
    let id = *next_id;
    *next_id += 1;
    conn.queue_frame(
        FrameKind::Hello,
        &Envelope {
            session: SessionId(0),
            round: 0,
            from: id,
            to: 0,
            payload: Message::empty(),
        },
    );
    conn.set_key(base.derive(id as u64));
    Some((id, conn))
}

fn run_server(
    listener: TcpListener,
    key: AuthKey,
    shutdown: &AtomicBool,
    metrics: &WireMetrics,
    poller: &Poller,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_id: u32 = 1;
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let listener_fd = fd_of(&listener);
    poller.register(listener_fd);
    let mut ready: Vec<i32> = Vec::new();
    let mut readiness = Readiness::All;
    while !shutdown.load(Ordering::Relaxed) {
        let mut progress = false;
        // Accept when the listener edged (or on a full sweep — the
        // degraded path every non-Fds readiness answer takes). An Err
        // is WouldBlock or a transient failure: try again next sweep.
        if readiness == Readiness::All || ready.contains(&listener_fd) {
            while let Some((id, mut conn)) = accept_conn(&listener, &key, &mut next_id) {
                metrics.connections(1);
                conn.meter_with(metrics.syscall_meter());
                conn.trace_with(metrics.recorder_arc(), trace_endpoint::SERVER);
                metrics.trace(0, trace_endpoint::SERVER, TraceKind::Dial, u64::from(id));
                poller.register(conn.fd());
                conns.push(conn);
                progress = true;
            }
        }
        // Pump the connections the kernel flagged (all of them when
        // readiness degraded): flush echoes, read frames, validate,
        // echo back.
        let pump_list: Vec<usize> = match readiness {
            Readiness::All => (0..conns.len()).collect(),
            Readiness::Fds => {
                ready.iter().filter_map(|fd| conns.iter().position(|c| c.fd() == *fd)).collect()
            }
        };
        for ci in pump_list {
            let conn = &mut conns[ci];
            conn.flush();
            // Backpressure: a peer that writes but never reads would
            // otherwise grow our echo buffer without bound. Stop
            // reading until the buffer drains — TCP then pushes back on
            // the peer's sends. Counted once per episode (latched), not
            // once per 50 µs sweep.
            if conn.pending_write() > WRITE_BACKPRESSURE_BYTES {
                if !conn.stalled {
                    conn.stalled = true;
                    metrics.backpressure_stalls(1);
                }
                continue;
            }
            conn.stalled = false;
            let got = conn.fill(&mut scratch);
            metrics.bytes_received(got as u64);
            progress |= got > 0;
            loop {
                // `echo_frame` authenticates and requeues the raw bytes
                // in place: no envelope build, no intermediate copy —
                // the server never looks inside a Data frame, so per
                // frame it pays one MAC and one memcpy, nothing else.
                match conn.echo_frame() {
                    Ok(None) => break,
                    Ok(Some((FrameKind::Data, wire_len))) => {
                        metrics.frames_received(1);
                        metrics.frames_sent(1);
                        metrics.bytes_sent(wire_len as u64);
                    }
                    Ok(Some((kind, _))) => {
                        // Control frames have no business at an echo
                        // mailbox; a peer sending them is confused or
                        // hostile.
                        let _ = kind;
                        metrics.decode_rejects(1);
                        conn.close();
                        break;
                    }
                    Err(WireError::BadMac) => {
                        // Tamper-evident fail-fast: a connection that
                        // carried one corrupted frame is dead to us.
                        metrics.mac_rejects(1);
                        metrics.trace(0, trace_endpoint::SERVER, TraceKind::MacReject, 0);
                        conn.close();
                        break;
                    }
                    Err(_) => {
                        metrics.decode_rejects(1);
                        conn.close();
                        break;
                    }
                }
            }
            // One batched flush per connection per sweep: every echo
            // queued by the decode loop above leaves in a single
            // `write(2)` (frames_per_write > 1 under load).
            conn.flush();
        }
        conns.retain(Conn::is_open);
        // Under epoll, every pumped socket was drained to `WouldBlock`
        // and anything new arrives as a fresh readiness edge, so go
        // straight back to the wait (whose capped timeout reports
        // `All`, re-probing stalled or missed sockets at sweep
        // cadence). The sweep backend has no edges: keep the
        // historical behavior of re-sweeping immediately while traffic
        // flows, sleeping only when a sweep moves nothing.
        if progress && poller.backend() == PollerBackend::Sweep {
            readiness = Readiness::All;
            continue;
        }
        readiness = poller.wait_ready(&mut ready);
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Deliberate wire-level fault injection: flip one deterministic bit in
/// the MAC-covered region of every `flip_every`-th outbound frame.
///
/// This is the adversary the acceptance criterion aims at: since the
/// flip lands *after* the MAC was computed, every tampered frame must be
/// rejected by the receiver's MAC verification — zero undetected.
#[derive(Debug, Clone, Copy)]
pub struct TamperConfig {
    /// Corrupt every n-th frame (`1` = every frame).
    pub flip_every: u64,
}

/// One session's demultiplexing lane on the client.
#[derive(Debug, Default)]
struct Lane {
    conn: usize,
    inbound: VecDeque<Envelope>,
    in_flight: u64,
    /// The sharded referee's verdict payload, once it arrives.
    verdict: Option<Message>,
}

/// Hasher for the lane map. Its keys are session ids the *client
/// itself* hands out (dense, never adversarial), and the map sits on
/// the hot path — several lookups per frame — so the DoS-resistant
/// default SipHash is pure overhead. A splitmix64 finisher mixes every
/// input bit into every output bit in a handful of arithmetic ops.
#[derive(Debug, Clone, Copy, Default)]
struct LaneHasher(u64);

impl std::hash::Hasher for LaneHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    // The generic byte path (unused by u64 keys, but required): FNV-1a.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        // splitmix64 finisher.
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// Session id → lane, with the cheap mixer above.
type LaneMap = HashMap<u64, Lane, std::hash::BuildHasherDefault<LaneHasher>>;

#[derive(Debug)]
struct CoreState {
    conns: Vec<Conn>,
    lanes: LaneMap,
    next_conn: usize,
    tamper: Option<TamperConfig>,
    tamper_counter: u64,
    scratch: Vec<u8>,
    /// Whether some thread is currently the *pump leader*: it released
    /// the lock and is blocked in the poller wait, and will pump on
    /// return. Other waiters become followers on the condvar; senders
    /// rely on their own next pump (not the leader) to flush.
    pumping: bool,
}

/// Shared connection-pool state behind every [`SocketTransport`].
#[derive(Debug)]
pub(crate) struct FleetCore {
    state: Mutex<CoreState>,
    metrics: Arc<WireMetrics>,
    pub(crate) timeouts: WireTimeouts,
    /// The pool's readiness poller: every connection is registered at
    /// connect; idle waits block here instead of sleeping.
    poller: Poller,
    /// Wakes follower threads when the pump leader finishes a sweep.
    pump_done: Condvar,
}

impl FleetCore {
    fn lock(&self) -> MutexGuard<'_, CoreState> {
        // A panicked holder leaves consistent state (buffers are either
        // queued or not); ride through poisoning.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The idle wait every client loop uses when its lane has nothing
    /// deliverable: *one* thread (the leader) releases the lock and
    /// blocks in the kernel readiness wait, then relocks, pumps, and
    /// notifies; every other thread (followers) parks on the condvar.
    /// The mutex+condvar pair means a follower can never miss the
    /// leader's sweep; the leader's wait is capped (and woken by
    /// senders via [`Poller::wake`]), so no readiness edge strands
    /// anyone for long.
    fn wait_pump(&self, mut st: MutexGuard<'_, CoreState>) {
        if st.pumping {
            // Follower: the leader will pump; wait for its notify (or
            // the cap) and let the caller's loop re-examine the lane.
            let _ = self
                .pump_done
                .wait_timeout(st, FOLLOWER_WAIT)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            return;
        }
        st.pumping = true;
        drop(st);
        let mut ready = Vec::new();
        let readiness = self.poller.wait_ready(&mut ready);
        let mut st = self.lock();
        st.pumping = false;
        let moved = match readiness {
            // Wake, timeout, overflow, or the sweep backend: probe the
            // whole pool (the historical behavior, and the liveness
            // backstop for any readiness edge we failed to account).
            Readiness::All => self.pump(&mut st),
            // The kernel named the ready sockets: pump exactly those
            // and leave the rest of the pool's fds untouched — at
            // large pool sizes this is the difference between O(ready)
            // and O(pool) syscalls per wakeup.
            Readiness::Fds => {
                let mut moved = false;
                for fd in ready {
                    if let Some(ci) = st.conns.iter().position(|c| c.fd() == fd) {
                        st.conns[ci].readable = true;
                        moved |= self.pump_conn(&mut st, ci);
                    }
                }
                moved
            }
        };
        drop(st);
        // Wake followers only when the pump moved bytes: a timed-out
        // wait that found nothing has nothing to deliver, and
        // broadcasting anyway marches every parked thread through a
        // futex wake, a contended relock and a fruitless lane check —
        // pure scheduler churn on an oversubscribed host. Followers
        // re-check on their own cap regardless, so skipping the notify
        // never strands one beyond FOLLOWER_WAIT.
        if moved {
            self.pump_done.notify_all();
        }
    }

    /// One nonblocking sweep over every connection: flush writes, read
    /// sockets, demultiplex complete frames into lanes. Returns whether
    /// anything moved. Only the pump leader (and connect/chaos paths)
    /// sweeps everything; session threads pump just their own
    /// connection via [`FleetCore::pump_conn`], so the per-call cost
    /// does not scale with the pool size.
    fn pump(&self, st: &mut CoreState) -> bool {
        let mut progress = false;
        for ci in 0..st.conns.len() {
            // A full sweep is the "trust nothing" path: probe every
            // socket regardless of what readiness bookkeeping says.
            st.conns[ci].readable = true;
            progress |= self.pump_conn(st, ci);
        }
        progress
    }

    /// Flush, drain and demultiplex a single connection.
    fn pump_conn(&self, st: &mut CoreState, ci: usize) -> bool {
        let CoreState { conns, lanes, scratch, .. } = st;
        let conn = &mut conns[ci];
        if !conn.is_open() {
            return false;
        }
        let mut progress = conn.flush() > 0;
        // Only probe the socket while the kernel may have bytes for us:
        // under the epoll backend the leader re-arms `readable` from
        // real readiness events, so an idle lane's pump costs zero
        // `read(2)`s instead of one guaranteed `EAGAIN` per call. The
        // sweep backend never clears the flag (no event source).
        if conn.readable {
            let got = conn.fill(scratch);
            self.metrics.bytes_received(got as u64);
            progress |= got > 0;
            if self.poller.backend() == PollerBackend::Epoll {
                // `fill` drained to a short read or `EAGAIN`: the
                // socket is empty until the next readiness edge.
                conn.readable = false;
            }
        }
        loop {
            match conn.next_frame() {
                Ok(None) => break,
                Ok(Some((FrameKind::Data, env))) => {
                    self.metrics.frames_received(1);
                    match lanes.get_mut(&env.session.0) {
                        Some(lane) => {
                            lane.in_flight = lane.in_flight.saturating_sub(1);
                            lane.inbound.push_back(env);
                        }
                        None => {
                            // A late echo for a lane already retired
                            // (the transport was dropped with frames
                            // still in flight) — count and discard.
                            self.metrics.orphan_frames(1);
                        }
                    }
                    progress = true;
                }
                Ok(Some((FrameKind::Verdict, env))) => {
                    self.metrics.frames_received(1);
                    match lanes.get_mut(&env.session.0) {
                        Some(lane) => lane.verdict = Some(env.payload),
                        None => self.metrics.orphan_frames(1),
                    }
                    progress = true;
                }
                Ok(Some((FrameKind::Evidence, env))) => {
                    // The server cut a bundle proving a protocol
                    // violation on this fleet: log it (counter + capped
                    // retention) so operators can pull it via
                    // [`FleetClient::evidence`] and verify it
                    // third-party against the session key schedule.
                    self.metrics.frames_received(1);
                    match referee_protocol::evidence::EvidenceBundle::decode(&env.payload) {
                        Ok(bundle) => {
                            self.metrics.record_evidence(&bundle);
                            self.metrics.trace(
                                env.session.0,
                                trace_endpoint::CLIENT,
                                TraceKind::Evidence,
                                u64::from(env.from),
                            );
                        }
                        Err(_) => self.metrics.decode_rejects(1),
                    }
                    progress = true;
                }
                Ok(Some((_, _))) => {
                    // Hello was consumed at connect; Announce and
                    // Partial never flow server → client.
                    self.metrics.decode_rejects(1);
                    conn.close();
                    break;
                }
                Err(WireError::BadMac) => {
                    self.metrics.mac_rejects(1);
                    conn.close();
                    break;
                }
                Err(_) => {
                    self.metrics.decode_rejects(1);
                    conn.close();
                    break;
                }
            }
        }
        progress
    }

    /// Frame and queue one envelope of `kind`. `false` means the
    /// session's connection is dead and the envelope was destroyed.
    fn send_kind(&self, kind: FrameKind, env: &Envelope) -> bool {
        let mut st = self.lock();
        let ci = st.lanes.get(&env.session.0).expect("session registered").conn;
        // Backpressure: never let a write buffer grow unboundedly.
        if st.conns[ci].pending_write() > WRITE_BACKPRESSURE_BYTES {
            self.metrics.backpressure_stalls(1);
            loop {
                self.pump_conn(&mut st, ci);
                if st.conns[ci].pending_write() <= WRITE_BACKPRESSURE_BYTES
                    || !st.conns[ci].is_open()
                {
                    break;
                }
                self.wait_pump(st);
                st = self.lock();
            }
        }
        if !st.conns[ci].is_open() {
            return false;
        }
        // Deterministic tamper decision up front (it only needs the
        // counter), so the frame borrow below stays exclusive.
        let tamper_mult = match st.tamper {
            Some(tamper) => {
                st.tamper_counter += 1;
                st.tamper_counter
                    .is_multiple_of(tamper.flip_every.max(1))
                    .then(|| st.tamper_counter.wrapping_mul(0x9e3779b97f4a7c15))
            }
            None => None,
        };
        // Encode straight into the connection's write buffer: no
        // per-frame allocation, and no eager flush — frames coalesce
        // until the pump sweep (or the coalesce ceiling) writes them
        // out in one syscall.
        let frame_len = {
            let frame = st.conns[ci].queue_frame_mut(kind, env);
            if let Some(mult) = tamper_mult {
                // Deterministic bit position inside the MAC-covered
                // body — never the length prefix, so the stream stays
                // framed and the corruption reaches MAC verification.
                let body_bits = (frame.len() - 4) * 8;
                let bit = (mult % body_bits as u64) as usize;
                frame[4 + bit / 8] ^= 1 << (7 - bit % 8);
            }
            frame.len()
        };
        if tamper_mult.is_some() {
            self.metrics.tampered(1);
        }
        self.metrics.frames_sent(1);
        self.metrics.bytes_sent(frame_len as u64);
        if kind == FrameKind::Data {
            st.lanes.get_mut(&env.session.0).expect("session registered").in_flight += 1;
        }
        if st.conns[ci].pending_write() >= FLUSH_COALESCE_BYTES {
            st.conns[ci].flush();
        }
        // No poller nudge: the sender's own next `recv`/`await_*` call
        // pumps (and therefore flushes) this connection before it can
        // park, so queued frames never wait on the leader. Waking the
        // leader here cost an eventfd `write(2)` plus a full-pool probe
        // sweep per send burst and bought nothing.
        true
    }

    fn send(&self, env: &Envelope) -> bool {
        self.send_kind(FrameKind::Data, env)
    }

    /// Deliver the next envelope for `session`, pumping the reactor
    /// while frames are still in flight. `None` means the lane is truly
    /// drained: nothing queued, nothing in flight (or the connection
    /// died, destroying whatever was in flight).
    fn recv(&self, session: SessionId) -> Option<Envelope> {
        loop {
            let mut st = self.lock();
            // Fast path: deliver already-demultiplexed traffic without
            // touching any socket. Queued uplinks are not delayed by
            // skipping the pump — the next wait_pump (ours or another
            // lane's) flushes them in one batched write.
            let lane = st.lanes.get_mut(&session.0).expect("session registered");
            if let Some(env) = lane.inbound.pop_front() {
                return Some(env);
            }
            // Pump only this lane's connection: sibling lanes' traffic
            // is the leader's job, and sweeping the whole pool here
            // would make every recv cost O(connections) in syscalls.
            let ci = lane.conn;
            self.pump_conn(&mut st, ci);
            let lane = st.lanes.get_mut(&session.0).expect("session registered");
            if let Some(env) = lane.inbound.pop_front() {
                return Some(env);
            }
            if lane.in_flight == 0 {
                return None;
            }
            if !st.conns[ci].is_open() {
                return None; // in-flight frames died with the connection
            }
            self.wait_pump(st);
        }
    }

    /// Block until the sharded referee's verdict for `session` arrives,
    /// its connection dies, or [`WireTimeouts::verdict`] elapses.
    pub(crate) fn await_verdict(&self, session: SessionId) -> Result<Message, DecodeError> {
        let deadline = Instant::now() + self.timeouts.verdict;
        loop {
            let mut st = self.lock();
            let ci = st.lanes.get(&session.0).expect("session registered").conn;
            self.pump_conn(&mut st, ci);
            let lane = st.lanes.get_mut(&session.0).expect("session registered");
            if let Some(v) = lane.verdict.take() {
                return Ok(v);
            }
            if !st.conns[ci].is_open() {
                return Err(DecodeError::Inconsistent(
                    "connection poisoned while awaiting the shard verdict".into(),
                ));
            }
            if Instant::now() > deadline {
                return Err(DecodeError::Inconsistent(
                    "no verdict from the sharded referee within the deadline".into(),
                ));
            }
            self.wait_pump(st);
        }
    }

    /// Block until either round `round`'s complete downlink vector or
    /// the session's verdict arrives — or the connection dies, or
    /// [`WireTimeouts::verdict`] elapses (the per-round deadline).
    fn await_round(
        &self,
        session: SessionId,
        n: usize,
        round: u32,
    ) -> Result<RoundWait, DecodeError> {
        let deadline = Instant::now() + self.timeouts.verdict;
        let mut downlinks: Vec<Option<Message>> = vec![None; n];
        let mut filled = 0usize;
        loop {
            let mut st = self.lock();
            let ci = st.lanes.get(&session.0).expect("session registered").conn;
            self.pump_conn(&mut st, ci);
            let lane = st.lanes.get_mut(&session.0).expect("session registered");
            if let Some(v) = lane.verdict.take() {
                return Ok(RoundWait::Verdict(v));
            }
            while let Some(env) = lane.inbound.pop_front() {
                if env.from != 0 || env.to == 0 || env.to as usize > n {
                    return Err(DecodeError::Invalid(format!(
                        "unexpected frame {} → {} during round {round}",
                        env.from, env.to
                    )));
                }
                if env.round != round {
                    return Err(DecodeError::Invalid(format!(
                        "round-{} downlink delivered during round {round}",
                        env.round
                    )));
                }
                let slot = &mut downlinks[(env.to - 1) as usize];
                if slot.is_some() {
                    return Err(DecodeError::Inconsistent(format!(
                        "duplicate downlink for node {} in round {round}",
                        env.to
                    )));
                }
                *slot = Some(env.payload);
                filled += 1;
            }
            if filled == n {
                let msgs = downlinks.into_iter().map(|d| d.expect("all filled")).collect();
                return Ok(RoundWait::Downlinks(msgs));
            }
            if !st.conns[ci].is_open() {
                return Err(DecodeError::Inconsistent(
                    "connection poisoned while awaiting round downlinks".into(),
                ));
            }
            if Instant::now() > deadline {
                return Err(DecodeError::Inconsistent(format!(
                    "no round-{round} downlinks from the multi-round referee within the \
                     deadline"
                )));
            }
            self.wait_pump(st);
        }
    }

    /// Register `session` on the next connection (round-robin).
    fn register(&self, session: SessionId) -> usize {
        let mut st = self.lock();
        let conn = st.next_conn % st.conns.len();
        st.next_conn += 1;
        let prev = st.lanes.insert(session.0, Lane { conn, ..Lane::default() });
        assert!(prev.is_none(), "session {session} registered twice");
        conn
    }

    /// Retire a session's lane (called when its transport is dropped).
    /// Echoes still in flight surface later as `orphan_frames`.
    fn release(&self, session: SessionId) {
        self.lock().lanes.remove(&session.0);
    }
}

/// What ended one round's wait on the client.
enum RoundWait {
    /// The referee continued: one downlink per node, in ID order.
    Downlinks(Vec<Message>),
    /// The referee finished: the raw verdict payload.
    Verdict(Message),
}

/// A node-side pool of ≤ a-handful of TCP connections multiplexing a
/// whole fleet of sessions.
#[derive(Debug)]
pub struct FleetClient {
    core: Arc<FleetCore>,
}

impl FleetClient {
    /// Open `conns` connections to a [`FleetServer`] at `addr` and
    /// complete the per-connection key handshake on each. Both ends must
    /// hold the same base `key`; a mismatch fails here (the server's
    /// Hello does not authenticate), before any data is sent. Deadlines
    /// come from [`WireTimeouts::default`] (environment-overridable);
    /// use [`connect_with`](FleetClient::connect_with) to pass explicit
    /// ones.
    pub fn connect(addr: SocketAddr, conns: usize, key: AuthKey) -> io::Result<FleetClient> {
        FleetClient::connect_with(addr, conns, key, WireTimeouts::default())
    }

    /// Like [`connect`](FleetClient::connect), with explicit wire
    /// deadlines (the Hello handshake wait and the verdict/round wait).
    pub fn connect_with(
        addr: SocketAddr,
        conns: usize,
        key: AuthKey,
        timeouts: WireTimeouts,
    ) -> io::Result<FleetClient> {
        assert!(conns >= 1, "a fleet needs at least one connection");
        let metrics = Arc::new(WireMetrics::default());
        let poller = Poller::new(default_backend(), IDLE_SLEEP);
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        let mut pool = Vec::with_capacity(conns);
        for _ in 0..conns {
            let dialed = Instant::now();
            let mut conn = Conn::new(TcpStream::connect(addr)?, key)?;
            conn.meter_with(metrics.syscall_meter());
            poller.register(conn.fd());
            let id = await_hello(&mut conn, &mut scratch, timeouts.hello, &poller)?;
            conn.set_key(key.derive(id as u64));
            conn.trace_with(metrics.recorder_arc(), trace_endpoint::CLIENT);
            metrics.trace(0, trace_endpoint::CLIENT, TraceKind::Dial, u64::from(id));
            metrics.record_stage(Stage::ConnectHello, dialed.elapsed());
            metrics.connections(1);
            pool.push(conn);
        }
        Ok(FleetClient {
            core: Arc::new(FleetCore {
                state: Mutex::new(CoreState {
                    conns: pool,
                    lanes: LaneMap::default(),
                    next_conn: 0,
                    tamper: None,
                    tamper_counter: 0,
                    scratch,
                    pumping: false,
                }),
                metrics,
                timeouts,
                poller,
                pump_done: Condvar::new(),
            }),
        })
    }

    /// Enable wire-level fault injection on every outbound frame.
    pub fn with_tamper(self, tamper: TamperConfig) -> FleetClient {
        self.core.lock().tamper = Some(tamper);
        self
    }

    /// Register `session` (round-robin across the pool) and return the
    /// transport that carries it. Drive it with a session built with
    /// [`with_session`](referee_simnet::MultiRoundSession::with_session)
    /// on the same id — inbound envelopes are demultiplexed by that tag.
    ///
    /// Panics if the session id is already held by a *live* transport
    /// (ids must be unique among concurrent sessions). Dropping the
    /// transport retires the id; late echoes of a retired session are
    /// counted as `orphan_frames` and discarded, so reuse an id only
    /// once its traffic has drained.
    pub fn transport(&self, session: SessionId) -> SocketTransport {
        self.core.register(session);
        SocketTransport {
            core: Arc::clone(&self.core),
            session,
            counters: TransportCounters::default(),
        }
    }

    /// Have a **sharded** [`FleetServer`] assemble and verify one
    /// session: announce the network size, stream the `(sender,
    /// message)` arrivals, and block for the referee's verdict.
    ///
    /// `Ok(digest)` is the server's keyed digest of the assembled
    /// message vector (compare against
    /// [`vector_digest`](crate::shard::vector_digest) of the locally
    /// known vector to rule out any silent reordering or substitution);
    /// `Err` carries the canonical rejection verdict, or the delivery
    /// failure if the connection died first. Faulty sessions fail
    /// *fast*: a duplicate or out-of-range sender fixes the verdict's
    /// `Err` shape, so the server judges without waiting for the rest
    /// of the vector, and supplying anything other than exactly `n`
    /// arrivals errors client-side before a single frame is sent (so an
    /// aborted call leaves no session state behind). Panics if `session` is already
    /// registered, like [`transport`](FleetClient::transport); once the
    /// verdict returns, the id is reusable — the server retires judged
    /// sessions from every shard worker.
    pub fn verify_session(
        &self,
        session: SessionId,
        n: usize,
        arrivals: impl IntoIterator<Item = (u32, Message)>,
    ) -> Result<u64, DecodeError> {
        self.core.register(session);
        let result = self.verify_inner(session, n, arrivals);
        self.core.release(session);
        result
    }

    fn verify_inner(
        &self,
        session: SessionId,
        n: usize,
        arrivals: impl IntoIterator<Item = (u32, Message)>,
    ) -> Result<u64, DecodeError> {
        // Validate the arrival count *before* announcing: fewer than n
        // can never complete every shard (§I.B: the referee waits for
        // one message per vertex), more than n necessarily contains a
        // duplicate or stray — and a trailing extra could race the
        // verdict. Rejecting up front means an aborted call leaves no
        // wedged session state on the server.
        let arrivals: Vec<(u32, Message)> = arrivals.into_iter().collect();
        if arrivals.len() != n {
            return Err(DecodeError::Inconsistent(format!(
                "a size-{n} session needs exactly {n} arrivals, got {}",
                arrivals.len()
            )));
        }
        let opened = Instant::now();
        let mut w = BitWriter::new();
        w.write_bits(n as u64, 32);
        let announce =
            Envelope { session, round: 0, from: 0, to: 0, payload: Message::from_writer(w) };
        if !self.core.send_kind(FrameKind::Announce, &announce) {
            return Err(DecodeError::Inconsistent(
                "connection died announcing the session".into(),
            ));
        }
        self.core.metrics.record_stage(Stage::Announce, opened.elapsed());
        self.core.metrics.trace(
            session.0,
            trace_endpoint::CLIENT,
            TraceKind::Announce,
            n as u64,
        );
        for (sender, payload) in arrivals {
            let env = Envelope { session, round: 1, from: sender, to: 0, payload };
            if !self.core.send_kind(FrameKind::Data, &env) {
                return Err(DecodeError::Inconsistent(format!(
                    "connection died sending the message of node {sender}"
                )));
            }
        }
        self.core.metrics.record_stage(Stage::UplinksComplete, opened.elapsed());
        self.core.metrics.trace(session.0, trace_endpoint::CLIENT, TraceKind::Uplink, n as u64);
        let verdict = decode_digest_verdict(&self.core.await_verdict(session)?);
        self.core.metrics.record_stage(Stage::Verdict, opened.elapsed());
        self.core.metrics.trace(
            session.0,
            trace_endpoint::CLIENT,
            TraceKind::Verdict,
            verdict.is_ok() as u64,
        );
        verdict
    }

    /// Drive one multi-round session against a **multi-round**
    /// [`FleetServer`] (see [`crate::multiround`]): this client runs the
    /// *node half* of `protocol` — node sends, node→node CONGEST links
    /// (kept local; they never involve the referee), node receives —
    /// while the server runs `referee_step` per round over its sharded
    /// uplink wait and streams MAC'd downlinks back.
    ///
    /// `Ok` carries the server's **encoded** final output (decode with
    /// the helper matching the served referee, e.g.
    /// [`decode_bool_output`](crate::multiround::decode_bool_output));
    /// `Err` is the canonical rejection class, a delivery failure, or a
    /// deadline miss ([`WireTimeouts::verdict`] bounds every round's
    /// wait, so a stalled server errors instead of hanging). Panics if
    /// `session` is registered on a live transport, like
    /// [`transport`](FleetClient::transport); the id is reusable once
    /// the call returns.
    pub fn run_multiround_session<P: MultiRoundProtocol>(
        &self,
        session: SessionId,
        protocol: &P,
        g: &LabelledGraph,
        max_rounds: usize,
    ) -> Result<Message, DecodeError> {
        self.core.register(session);
        let result = self.run_multiround_inner(session, None, protocol, g, max_rounds);
        self.core.release(session);
        result
    }

    /// Like [`run_multiround_session`](FleetClient::run_multiround_session),
    /// but against a **named service** of a catalog-mode server
    /// ([`FleetServerBuilder::catalog`](crate::FleetServerBuilder::catalog)):
    /// the service name rides inside the MAC'd `Announce`, so one
    /// server concurrently referees whichever protocol each session
    /// selects. A name the server's catalog doesn't know fails closed —
    /// the server answers a typed
    /// [`DecodeError::Invalid`] verdict immediately, never a hang.
    pub fn run_multiround_session_as<P: MultiRoundProtocol>(
        &self,
        session: SessionId,
        service: &str,
        protocol: &P,
        g: &LabelledGraph,
        max_rounds: usize,
    ) -> Result<Message, DecodeError> {
        self.core.register(session);
        let result = self.run_multiround_inner(session, Some(service), protocol, g, max_rounds);
        self.core.release(session);
        result
    }

    fn run_multiround_inner<P: MultiRoundProtocol>(
        &self,
        session: SessionId,
        service: Option<&str>,
        protocol: &P,
        g: &LabelledGraph,
        max_rounds: usize,
    ) -> Result<Message, DecodeError> {
        let n = g.n();
        if service.is_some_and(|s| s.is_empty() || s.len() > MAX_SERVICE_NAME_BYTES) {
            return Err(DecodeError::Invalid(format!(
                "service names must be 1..={MAX_SERVICE_NAME_BYTES} bytes"
            )));
        }
        if max_rounds == 0 {
            // Mirror `run_multiround`'s contract: a zero-round cap runs
            // no protocol at all. The local API reports "referee never
            // finished" as `Ok(None)`; this wire API's analogue is the
            // cap error — returned before anything is announced, so the
            // server sees no session state either.
            return Err(DecodeError::Invalid(
                "no verdict within the client's 0-round cap".into(),
            ));
        }
        let opened = Instant::now();
        let announce = Envelope {
            session,
            round: 0,
            from: 0,
            to: 0,
            payload: encode_mr_announce(n, service),
        };
        if !self.core.send_kind(FrameKind::Announce, &announce) {
            return Err(DecodeError::Inconsistent(
                "connection died announcing the session".into(),
            ));
        }
        self.core.metrics.record_stage(Stage::Announce, opened.elapsed());
        self.core.metrics.trace(
            session.0,
            trace_endpoint::CLIENT,
            TraceKind::Announce,
            n as u64,
        );
        if n == 0 {
            // No nodes, no rounds to drive: the server steps the empty
            // uplink vectors itself and judges.
            let verdict = decode_mr_verdict(&self.core.await_verdict(session)?);
            self.core.metrics.record_stage(Stage::Verdict, opened.elapsed());
            return verdict;
        }
        let mut node_states: Vec<P::NodeState> = (1..=n as u32)
            .map(|v| protocol.node_init(NodeView::new(n, v, g.neighbourhood(v))))
            .collect();
        for round in 1..=max_rounds as u32 {
            let round_opened = Instant::now();
            // Phase 1: node sends. Uplinks cross the wire; link
            // messages are delivered locally, one per edge per round.
            let mut inbox: Vec<Vec<(VertexId, Message)>> = vec![Vec::new(); n];
            for v in 1..=n as u32 {
                let view = NodeView::new(n, v, g.neighbourhood(v));
                let (to_nbrs, uplink) =
                    protocol.node_send(&node_states[(v - 1) as usize], view, round as usize);
                let env = Envelope { session, round, from: v, to: 0, payload: uplink };
                if !self.core.send_kind(FrameKind::Data, &env) {
                    return Err(DecodeError::Inconsistent(format!(
                        "connection died sending the round-{round} uplink of node {v}"
                    )));
                }
                for (target, payload) in to_nbrs {
                    if !g.has_edge(v, target) {
                        return Err(DecodeError::Invalid(format!(
                            "node {v} tried to message non-neighbour {target}"
                        )));
                    }
                    if inbox[(target - 1) as usize].iter().any(|(from, _)| *from == v) {
                        return Err(DecodeError::Invalid(format!(
                            "node {v} sent two messages to {target} in round {round} \
                             (one message per link per round)"
                        )));
                    }
                    inbox[(target - 1) as usize].push((v, payload));
                }
            }
            self.core.metrics.record_stage(Stage::UplinksComplete, round_opened.elapsed());
            self.core.metrics.trace(
                session.0,
                trace_endpoint::CLIENT,
                TraceKind::Uplink,
                u64::from(round),
            );
            // Phase 2: the referee's word — downlinks or the verdict.
            let downlinks = match self.core.await_round(session, n, round)? {
                RoundWait::Verdict(v) => {
                    self.core.metrics.record_stage(Stage::Verdict, opened.elapsed());
                    self.core.metrics.trace(
                        session.0,
                        trace_endpoint::CLIENT,
                        TraceKind::Verdict,
                        u64::from(round),
                    );
                    return decode_mr_verdict(&v);
                }
                RoundWait::Downlinks(d) => d,
            };
            // Phase 3: node receives.
            for v in 1..=n as u32 {
                let i = (v - 1) as usize;
                inbox[i].sort_by_key(|&(from, _)| from);
                let view = NodeView::new(n, v, g.neighbourhood(v));
                protocol.node_receive(
                    &mut node_states[i],
                    view,
                    round as usize,
                    &inbox[i],
                    &downlinks[i],
                );
            }
        }
        Err(DecodeError::Invalid(format!(
            "no verdict within the client's {max_rounds}-round cap"
        )))
    }

    /// Live client-side wire metrics.
    pub fn metrics(&self) -> WireSnapshot {
        self.core.metrics.snapshot()
    }

    /// Every evidence bundle the server shipped to this client (up to
    /// the `REFEREE_EVIDENCE_CAP` retention cap), in arrival order —
    /// the operator-side copy of the server's accountability log.
    pub fn evidence(&self) -> Vec<referee_protocol::evidence::EvidenceBundle> {
        self.core.metrics.evidence()
    }

    /// The client's flight-recorder timeline (session lifecycle events
    /// as the caller saw them), for stitching with the server's in a
    /// post-mortem.
    pub fn stitched_trace(&self) -> TraceSnapshot {
        self.core.metrics.stitched_trace()
    }
}

/// Pump `conn` until the server's Hello arrives, returning the assigned
/// connection id. The Hello is the only frame keyed with the base key,
/// so a key mismatch surfaces here as an authentication failure.
fn await_hello(
    conn: &mut Conn,
    scratch: &mut [u8],
    timeout: Duration,
    poller: &Poller,
) -> io::Result<u32> {
    let deadline = Instant::now() + timeout;
    loop {
        conn.flush();
        conn.fill(scratch);
        match conn.next_frame() {
            Ok(Some((FrameKind::Hello, env))) => return Ok(env.from),
            Ok(Some((kind, _))) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Hello, server sent a {kind:?} frame"),
                ))
            }
            Ok(None) => {
                if !conn.is_open() {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "server closed before Hello",
                    ));
                }
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no Hello from server (is it a referee fleet server?)",
                    ));
                }
                poller.wait();
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("handshake failed: {e} (key mismatch?)"),
                ))
            }
        }
    }
}

/// A [`Transport`] handle binding one session to the shared pool: sends
/// stamp the session id and frame the envelope onto the session's
/// connection; receives pump the reactor and deliver only this
/// session's traffic.
///
/// `recv` honours the `Transport` contract exactly: it returns `None`
/// only when every envelope ever sent has been delivered or destroyed —
/// while frames are in flight it pumps the reactor until they return,
/// so sessions never mistake wire latency for loss.
#[derive(Debug)]
pub struct SocketTransport {
    core: Arc<FleetCore>,
    session: SessionId,
    counters: TransportCounters,
}

impl SocketTransport {
    /// The session this transport is bound to.
    pub fn session(&self) -> SessionId {
        self.session
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Retire the lane so long-lived clients neither leak one lane
        // per finished session nor forbid id reuse.
        self.core.release(self.session);
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, mut env: Envelope) {
        env.session = self.session;
        self.counters.sent += 1;
        if !self.core.send(&env) {
            // Connection dead: the envelope was destroyed in transit.
            self.counters.dropped += 1;
        }
    }

    fn recv(&mut self) -> Option<Envelope> {
        let env = self.core.recv(self.session)?;
        self.counters.delivered += 1;
        Some(env)
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolution_precedence() {
        // Explicit beats env beats default; the env value is passed as
        // a parameter so no test ever mutates the process environment.
        let explicit: SocketAddr = "10.0.0.1:7431".parse().unwrap();
        assert_eq!(resolve_bind(Some(explicit), Some("0.0.0.0:9999")).unwrap(), explicit);
        assert_eq!(
            resolve_bind(None, Some("0.0.0.0:9999")).unwrap(),
            "0.0.0.0:9999".parse::<SocketAddr>().unwrap()
        );
        let default = resolve_bind(None, None).unwrap();
        assert!(default.ip().is_loopback());
        assert_eq!(default.port(), 0);
        let err = resolve_bind(None, Some("not-an-address")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn timeout_resolution_precedence() {
        // Env values (milliseconds) override; the historical consts stay
        // the defaults. Env values are parameters here so no test ever
        // mutates the process environment.
        let d = WireTimeouts::resolve(None, None);
        assert_eq!(d.hello, Duration::from_secs(10));
        assert_eq!(d.verdict, Duration::from_secs(30));
        let e = WireTimeouts::resolve(Some("250"), Some("90000"));
        assert_eq!(e.hello, Duration::from_millis(250));
        assert_eq!(e.verdict, Duration::from_secs(90));
        // Garbage or zero falls back to the default instead of failing
        // every connect on a typo'd environment.
        assert_eq!(WireTimeouts::resolve(Some("zebra"), Some("0")), d);
    }
}
