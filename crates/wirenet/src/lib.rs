#![warn(missing_docs)]
//! `referee-wirenet` — a real-socket reactor that drives `simnet`
//! sessions over multiplexed, MAC-authenticated wire frames.
//!
//! PR 1 built the session runtime sans-I/O on purpose: protocol
//! executions are pollable state machines behind a pluggable
//! [`Transport`](referee_simnet::Transport). This crate is the payoff —
//! the backend that puts *real OS sockets* under those unchanged state
//! machines, turning the referee model into a system that ships bytes:
//!
//! * [`frame`] — the wire codec: length-prefixed, versioned, **typed**
//!   binary framing of [`Envelope`](referee_simnet::Envelope)s, carrying
//!   the [`SessionId`](referee_simnet::SessionId) that lets one
//!   connection multiplex a whole fleet. [`FrameKind`] types each frame:
//!   session data, the key handshake, and the referee engine's
//!   partial-state, downlink and verdict traffic.
//! * [`auth`] — the authentication layer: a keyed 64-bit SipHash-2-4
//!   tag on every frame; verification failures surface through the
//!   existing `DecodeError` rejection paths. Every connection runs on a
//!   key derived from the fleet's base key (tweak = connection id,
//!   assigned at accept time by a `Hello` frame), so a leaked
//!   per-connection key cannot forge frames on sibling connections.
//! * [`reactor`] — nonblocking `std::net` connections with explicit
//!   read/write buffers, advanced by kernel-readiness pump sweeps: an
//!   [`poll`]-provided `epoll` wait (edge-triggered sockets + a wakeup
//!   fd; the historical sleep-and-sweep loop as the non-Linux and
//!   [`POLLER_ENV`]-selectable fallback), outbound frames coalesced
//!   into one reused buffer per connection (MAC computed in place,
//!   zero per-frame allocation, one `write(2)` per flush) and inbound
//!   bytes drained once then batch-decoded. The epoll wait hands the
//!   hot loops the *set* of fds that edged, so they pump exactly the
//!   flagged connections (any degraded answer falls back to probing
//!   the whole pool); the echo server authenticates and requeues Data
//!   frames in place without ever materializing an envelope. The
//!   `write_syscalls`/`read_syscalls` counters and
//!   [`WireSnapshot::frames_per_write`] make the batching measurable.
//! * [`fleet`] — the referee-side acceptor ([`FleetServer`]: echo
//!   mailbox or referee service) and node-side pool
//!   ([`FleetClient`]) whose [`SocketTransport`] runs 1000+ sessions
//!   over a handful of TCP connections with wire-level metrics
//!   ([`WireSnapshot`]).
//! * [`multiround`] — the **referee session engine**, one for every
//!   service: authenticated frames are routed to shard workers by
//!   session + node range (`referee_protocol::shard`), each round's
//!   ranges ship
//!   [`RoundPartialState`](referee_protocol::shard::multiround::RoundPartialState)
//!   `Partial` frames over the same MAC'd codec (epoch-fenced, round
//!   carried inside the authenticated payload), and worker 0 runs the
//!   served protocol's `referee_step` once per round, streaming MAC'd
//!   downlinks back and the encoded final output as the verdict. A
//!   [`ServiceCatalog`] names the protocols one server hosts;
//!   [`FleetClient::run_multiround_session`] drives the node half
//!   client-side, so Borůvka-style protocols run against a live wire
//!   referee. Client-side deadlines (Hello handshake, verdict/round
//!   waits) are configurable via [`WireTimeouts`] and the
//!   `REFEREE_WIRENET_{HELLO,VERDICT}_TIMEOUT_MS` environment
//!   variables.
//! * [`shard`] — the **one-round verifier** is not a second engine but
//!   the cap-1 catalog service on this one: its round-1 step answers
//!   with a keyed [`vector_digest`] of the assembled vector, which
//!   [`FleetClient::verify_session`] checks against the vector it sent.
//! * [`placement`] — **cross-host shard placement**: shard workers as
//!   network peers. A [`ShardHost`] role serves shard state behind a
//!   MAC'd registration handshake with per-shard, generation-scoped
//!   keys; a [`PlacementPolicy`] + [`RemotePlacement`] decide which
//!   host owns which ID range; coordinator-side proxies journal and
//!   replay so shard-host kill/restart leaves verdicts bit-for-bit
//!   unchanged.
//!
//! # Frame layout
//!
//! ```text
//!  4 bytes  1    1      8       4      4     4      4      ⌈bits/8⌉     8
//! ┌────────┬────┬─────┬────────┬──────┬─────┬─────┬────────┬──────────┬─────────┐
//! │ length │ver │kind │session │round │from │ to  │len_bits│ payload  │ MAC tag │
//! └────────┴────┴─────┴────────┴──────┴─────┴─────┴────────┴──────────┴─────────┘
//!          └──────────────── MAC-covered (SipHash-2-4, 64-bit) ────────────────┘
//! ```
//!
//! # Threat model (summary — details in [`auth`])
//!
//! Any modification of the MAC-covered region is detected except with
//! probability `2⁻⁶⁴` per frame; length-prefix lies are caught
//! structurally or fail the tag over the wrong span. Replays are
//! absorbed by the session runtime's idempotent duplicate handling.
//! Confidentiality and key distribution are out of scope. A connection
//! that carries one bad frame is poisoned immediately; its sessions
//! starve and reject through the ordinary delivery-failure paths, and a
//! sharded server retires their referee state on every shard worker.
//!
//! # Cross-host fleets
//!
//! The codec and acceptor speak plain TCP; nothing below binds to
//! loopback except the default address. To run the referee on one host
//! and the fleet on others:
//!
//! 1. **Server host** — bind a routable address, either in code:
//!    ```no_run
//!    # use referee_wirenet::{AuthKey, FleetServer};
//!    let server = FleetServer::builder(AuthKey::new(*b"0123456789abcdef"))
//!        .shards(4)
//!        .bind("0.0.0.0:7431".parse().unwrap())
//!        .spawn()
//!        .unwrap();
//!    ```
//!    or via the environment, with no code change:
//!    `REFEREE_WIRENET_BIND=0.0.0.0:7431` (see [`fleet::BIND_ENV`]).
//! 2. **Key distribution** — provision the same 128-bit base key on
//!    both hosts out of band ([`AuthKey::new`]; `from_seed` is for
//!    demos). Per-connection keys are derived automatically by the
//!    Hello handshake — the base key itself authenticates only that
//!    handshake.
//! 3. **Client hosts** — `FleetClient::connect("server:7431".parse()?,
//!    conns, key)`; everything else (multiplexing, backpressure,
//!    verify_session) is host-agnostic.
//! 4. **Firewalling** — one inbound TCP port on the server; clients
//!    need only outbound connectivity.
//!
//! ## Placing shards on their own hosts
//!
//! The referee's shard workers can themselves be network peers (see
//! [`placement`] for the full design). The recipe, one role at a time:
//!
//! 1. **Shard hosts** — on each shard machine run the shard-host role:
//!    bind via the `REFEREE_SHARDHOST_BIND` environment variable (or an
//!    explicit address) and keep the process alive:
//!    ```no_run
//!    # use referee_wirenet::{AuthKey, ShardHost};
//!    // REFEREE_SHARDHOST_BIND=0.0.0.0:7432
//!    let host = ShardHost::spawn_env(AuthKey::new(*b"0123456789abcdef")).unwrap();
//!    println!("serving shards at {}", host.addr());
//!    ```
//!    Shard hosts are deliberately stateless across restarts: the
//!    coordinator journals everything a live shard may need and replays
//!    it on reconnect. A host serves whatever the coordinator runs —
//!    the one-round verifier and multi-round protocols alike — because
//!    every service is a per-round range wait on the same engine.
//! 2. **Key registration** — shard hosts hold the same base key as the
//!    coordinator. Each coordinator link opens with a MAC'd `Register`
//!    handshake; from then on the link runs under
//!    `base.derive("place_ky").derive(shard id).derive(generation)` — a
//!    leaked shard key cannot forge sibling shards, and a reconnect
//!    bumps the generation so pre-epoch partials fail the MAC.
//! 3. **Coordinator** — assign shards to hosts with a
//!    [`PlacementPolicy`] (balanced-contiguous by default, static maps
//!    for pinned layouts), bind it to addresses with a
//!    [`RemotePlacement`], and hand it to the builder:
//!    ```no_run
//!    # use referee_wirenet::*;
//!    # let key = AuthKey::from_seed(0);
//!    let policy = PlacementPolicy::balanced(4, &[0, 1]);
//!    let placement = RemotePlacement::new(
//!        policy,
//!        [(0, "10.0.0.2:7432".parse().unwrap()), (1, "10.0.0.3:7432".parse().unwrap())],
//!    ).unwrap();
//!    let server = FleetServer::builder(key)
//!        .placement(placement.clone())
//!        // omit to serve the one-round verifier (the cap-1 digest service)
//!        .multiround(boruvka_connectivity_service())
//!        .spawn()
//!        .unwrap();
//!    ```
//!    Clients connect exactly as before — remote placement is invisible
//!    to them.
//! 4. **Reconnect semantics** — if a shard host dies, its proxy redials
//!    (20 ms backoff by default — tune with
//!    [`FleetServerBuilder::redial_backoff`] or the
//!    `REFEREE_WIRENET_REDIAL_BACKOFF_MS` environment variable),
//!    re-registers under a fresh generation, and
//!    replays the journal: uncommitted sessions are re-announced at
//!    their resume round and their buffered uplinks resent, so the
//!    rebuilt shard re-emits bit-identical partials and verdicts are
//!    unchanged (pinned by the chaos tests and
//!    `examples/cross_host_shards.rs`, which SIGKILLs real child
//!    processes mid-fleet). A host that comes back on a *different*
//!    address is re-pointed with
//!    [`RemotePlacement::update_host`] — no server restart.
//!
//! # Observability
//!
//! Every endpoint — client pool, server, shard host, coordinator —
//! owns a [`WireMetrics`] and exposes it as a [`WireSnapshot`] via its
//! `metrics()` / `stop()` methods. A snapshot carries two kinds of
//! signal:
//!
//! * **Counters** — frames/bytes sent and received, MAC rejects,
//!   tampered frames, backpressure stalls, shard traffic
//!   (partial/downlink/verdict frames), reconnects and replays.
//! * **Per-stage latency histograms** — each session is stamped at the
//!   named lifecycle [`Stage`]s (`connect_hello`, `announce`,
//!   `uplinks_complete`, `partial_merge`, `referee_step`, `verdict`)
//!   into fixed-bucket log₂ histograms
//!   ([`LatencyHistogram`](referee_protocol::LatencyHistogram)), so
//!   [`WireSnapshot::stage`] answers p50/p99/p999 per stage with no
//!   allocation on the hot path. Client-side stages measure what a
//!   caller feels (announce→verdict); server/host-side stages isolate
//!   where the time went (merge wait vs referee step).
//!
//! The recipe for a soak loop: snapshot before, snapshot after, and
//! [`WireSnapshot::delta`] isolates the phase between them; histograms
//! from remote processes travel through
//! [`HistSnapshot::encode`](referee_protocol::HistSnapshot::encode) and
//! merge into a coordinator's metrics with
//! [`WireMetrics::absorb_stage`] — the same mergeable-partial-state
//! discipline the referee itself uses. Tail-latency SLOs over these
//! percentiles are enforced in CI by `referee_bench::SloCheck` (see
//! `examples/cross_host_shards.rs`).
//!
//! ## Post-mortem debugging
//!
//! Every [`WireMetrics`] also owns a
//! [`FlightRecorder`](referee_protocol::trace::FlightRecorder) — a
//! lock-free, fixed-capacity, drop-oldest ring of causal
//! [`TraceEvent`](referee_protocol::trace::TraceEvent)s. All four
//! service layers record into it: dials and redials (with the
//! registration generation), session announcements, uplink arrivals,
//! shard partial emits/merges, referee steps, MAC rejects, poison
//! notices, journal replays, verdicts — and every connection records a
//! `Kill` the moment it observes its peer close. Recording is a few
//! atomic stores; a zero-capacity recorder
//! (`REFEREE_TRACE_CAPACITY=0`) turns it all off for
//! overhead-sensitive runs, surfacing any displaced events as the
//! [`WireSnapshot::trace_drops`] counter.
//!
//! Traces stitch across processes: shard hosts ship incremental
//! [`TraceSnapshot`](referee_protocol::trace::TraceSnapshot) segments
//! to their coordinator piggy-backed on session teardown
//! ([`FrameKind::Trace`]), and snapshot merge is a set union under a
//! canonical `(session, endpoint, seq)` order — commutative,
//! associative, idempotent — so segments arriving in any order
//! assemble one causally ordered timeline per session.
//!
//! Post-mortems are failure-triggered and off by default: set
//! `REFEREE_TRACE_DUMP=1` and call
//! [`dump_if_armed`](referee_protocol::trace::dump_if_armed) when an
//! SLO check fails, a verdict mismatches, or a chaos kill fires, and
//! the stitched timeline lands in `TRACE_<label>.json` — Chrome
//! `trace_event` format, one `pid` row per endpoint and one `tid`
//! track per session, readable in `chrome://tracing` or Perfetto
//! (`examples/cross_host_shards.rs` wires all three triggers).
//!
//! # Accountability
//!
//! Every provable wire-level violation produces more than a dead
//! session: the referee engine packages the offending
//! MAC'd frames into self-contained
//! [`EvidenceBundle`](referee_protocol::evidence::EvidenceBundle)s
//! (see `referee_protocol::evidence` for the format and the no-framing
//! argument). The load-bearing identity: an evidence record's body
//! **is** the frame's MAC-covered region byte-for-byte, and its tag is
//! the tag the client's own frame carried under the per-connection
//! derived key (path `[conn]`) — so a bundle is the client's own
//! signed bytes, not the referee's paraphrase.
//!
//! Bundles travel as [`FrameKind::Evidence`] frames (shipped
//! coordinator-ward ahead of the verdict, `from` = the accused
//! connection or 0), are counted by the
//! [`WireSnapshot::evidence_bundles`] metric, stamped as
//! `TraceKind::Evidence` on the flight recorder, and retained at both
//! ends — [`FleetServer::evidence`] / [`FleetClient::evidence`] — up
//! to the `REFEREE_EVIDENCE_CAP` retention cap ([`EVIDENCE_CAP_ENV`],
//! default 1024; `0` disables retention, never emission). The
//! `byzantine_fleet` example additionally dumps each retained bundle
//! to `EVIDENCE_<k>_<i>.bin` when `REFEREE_EVIDENCE_DIR` names a
//! directory, and CI re-uploads those as artifacts.
//!
//! Verification needs only the base key and the public session
//! parameters — no live state, no trust in the referee:
//!
//! ```
//! use referee_wirenet::{AuthKey, FleetClient, FleetServer};
//! use referee_protocol::evidence::{verify_bundle, ProvableError, SessionParams};
//! use referee_protocol::referee::local_phase;
//! use referee_protocol::easy::EdgeCountProtocol;
//! use referee_graph::generators;
//! use referee_simnet::SessionId;
//!
//! let key = AuthKey::from_seed(44);
//! let server = FleetServer::spawn_sharded(key, 2).unwrap();
//! let client = FleetClient::connect(server.addr(), 1, key).unwrap();
//! let g = generators::grid(2, 3);
//! let messages = local_phase(&EdgeCountProtocol, &g);
//!
//! // An out-of-range stray takes node 1's slot: the session rejects…
//! let mut arrivals: Vec<_> =
//!     messages.iter().cloned().enumerate().map(|(i, m)| (i as u32 + 1, m)).collect();
//! arrivals[0].0 = g.n() as u32 + 7;
//! assert!(client.verify_session(SessionId(3), g.n(), arrivals).is_err());
//!
//! // …and leaves a third-party-checkable proof behind.
//! let bundle = &server.evidence()[0];
//! assert_eq!(bundle.error, ProvableError::OutOfRangeSender);
//! let params = SessionParams { session: 3, n: g.n() as u32, round_cap: 1 };
//! let att = verify_bundle(key.mac_key(), &params, bundle).unwrap();
//! assert_eq!(att.culprit, bundle.accused);
//! server.stop();
//! ```
//!
//! # Example: a fleet over loopback TCP
//!
//! ```
//! use referee_wirenet::{AuthKey, FleetClient, FleetServer};
//! use referee_simnet::{MultiRoundSession, OneRoundReport, SessionId};
//! use referee_graph::generators;
//! use referee_protocol::combinators::OneRoundAsMultiRound;
//! use referee_protocol::easy::EdgeCountProtocol;
//!
//! let key = AuthKey::from_seed(7);
//! let server = FleetServer::spawn(key).unwrap();
//! let client = FleetClient::connect(server.addr(), 2, key).unwrap();
//!
//! let g = generators::grid(3, 4);
//! let id = SessionId(1);
//! let mut transport = client.transport(id);
//! // A one-round session: the cap-1 session of the one-round protocol.
//! let session = MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1);
//! let report = OneRoundReport::from(session.with_session(id).run(&mut transport));
//! assert_eq!(report.outcome.unwrap().unwrap(), g.m());
//!
//! let stats = server.stop();
//! assert_eq!(stats.mac_rejects, 0);
//! assert_eq!(stats.frames_received as usize, g.n());
//! ```
//!
//! # Example: the sharded referee verifying a session
//!
//! ```
//! use referee_wirenet::{shard::vector_digest, AuthKey, FleetClient, FleetServer};
//! use referee_simnet::SessionId;
//! use referee_graph::generators;
//! use referee_protocol::easy::EdgeCountProtocol;
//! use referee_protocol::referee::local_phase;
//!
//! let key = AuthKey::from_seed(31);
//! let server = FleetServer::spawn_sharded(key, 2).unwrap();
//! let client = FleetClient::connect(server.addr(), 1, key).unwrap();
//!
//! let g = generators::grid(3, 3);
//! let messages = local_phase(&EdgeCountProtocol, &g);
//! let arrivals = messages.iter().cloned().enumerate().map(|(i, m)| (i as u32 + 1, m));
//! let digest = client.verify_session(SessionId(9), g.n(), arrivals).unwrap();
//! assert_eq!(digest, vector_digest(&key, &messages));
//! server.stop();
//! ```

pub mod auth;
pub mod fleet;
pub mod frame;
pub mod metrics;
pub mod multiround;
pub mod placement;
pub mod poll;
pub mod reactor;
pub mod shard;

pub use auth::AuthKey;
pub use fleet::{
    FleetClient, FleetServer, FleetServerBuilder, SocketTransport, TamperConfig, WireTimeouts,
    BIND_ENV, HELLO_TIMEOUT_ENV, VERDICT_TIMEOUT_ENV,
};
pub use frame::{
    decode_frame, decode_frames, encode_frame, encode_frame_into, encode_wire_frame,
    DecodedFrame, FrameKind, WireError, HEADER_BYTES, TAG_BYTES, WIRE_VERSION,
};
pub use metrics::{
    trace_endpoint, Stage, WireMetrics, WireSnapshot, EVIDENCE_CAP_ENV, TRACE_CAPACITY_ENV,
};
pub use multiround::{
    boruvka_connectivity_service, decode_bool_output, decode_graph_output, encode_bool_output,
    encode_graph_output, ProtocolReferee, RefereeStepper, ServiceCatalog, WireReferee,
    MAX_SERVICE_NAME_BYTES, MAX_SESSION_NODES,
};
pub use placement::{
    link_key, link_key_path, shard_key, HostId, PlacementPolicy, RemotePlacement, ShardHost,
    DEFAULT_REDIAL_BACKOFF, REDIAL_BACKOFF_ENV, SHARD_HOST_BIND_ENV,
};
pub use poll::{PollerBackend, POLLER_ENV};
pub use shard::vector_digest;
