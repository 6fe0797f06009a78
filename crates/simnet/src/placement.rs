//! A sans-I/O model of cross-host shard placement under host loss —
//! the deterministic twin of `wirenet::placement`.
//!
//! The wire layer's reconnect contract is subtle: a killed shard host
//! loses exactly its volatile shard state, and the coordinator's
//! [`ShardJournal`] must rebuild it so faithfully that verdicts are
//! bit-for-bit unchanged. Debugging that through real sockets and real
//! kill schedules is miserable; [`PlacementSim`] runs the same
//! journal/replay state machine with **no I/O and a single seed**, so
//! any violation is a seed-reproducible counterexample:
//!
//! * shards are placed on simulated hosts by a
//!   [`PlacementPolicy`];
//! * a seeded schedule interleaves arrival deliveries with host
//!   **kills** — a kill wipes every un-emitted shard on the host, then
//!   the coordinator replays its journals into fresh shards (exactly
//!   what a proxy does on redial);
//! * emitted partials **commit** their journal, after which stragglers
//!   are reported as poison notices (the proxy's synthesized-notice
//!   path).
//!
//! The pinned invariant: for *any* seed, kill rate and placement, the
//! final verdict equals the monolithic
//! [`assemble_from_arrivals`](referee_protocol::referee::assemble_from_arrivals)
//! on the same arrival sequence.

use crate::clock::{Clock, ManualClock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use referee_graph::VertexId;
use referee_protocol::shard::placement::{HostId, PlacementPolicy};
use referee_protocol::shard::replay::{Recorded, ShardJournal};
use referee_protocol::shard::{route_arrival, Arrival, PartialState, RefereeShard};
use referee_protocol::trace::{FlightRecorder, TraceKind};
use referee_protocol::{DecodeError, Message};
use std::collections::BTreeSet;

/// The single simulated assembly's trace session id (session 0 is the
/// connection-level namespace in `wirenet` traces; the sim mirrors
/// that convention).
const SIM_SESSION: u64 = 1;

/// Trace endpoint ids, mirroring `wirenet::metrics::trace_endpoint`:
/// the coordinator is endpoint 0, simulated host `h` is `0x200 + h`.
const COORDINATOR: u32 = 0;

fn host_endpoint(h: HostId) -> u32 {
    0x200 + h
}

/// Deterministic trace hook for [`PlacementSim::run_traced`]: every
/// recorded event first advances the manual clock by exactly one
/// microsecond, so the same seed reproduces the trace bit-for-bit —
/// timestamps included.
struct SimTracer<'a> {
    recorder: &'a FlightRecorder,
    clock: &'a ManualClock,
}

impl SimTracer<'_> {
    fn record(&self, endpoint: u32, kind: TraceKind, payload: u64) {
        self.clock.advance(1e-6);
        let ts_us = (self.clock.now() * 1e6).round() as u64;
        self.recorder.record(ts_us, SIM_SESSION, endpoint, kind, payload);
    }
}

/// Record through an optional tracer (no-op on the untraced path).
fn tr(tracer: Option<&SimTracer<'_>>, endpoint: u32, kind: TraceKind, payload: u64) {
    if let Some(t) = tracer {
        t.record(endpoint, kind, payload);
    }
}

/// A seeded host-loss model for one sharded assembly (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
pub struct PlacementSim {
    /// Seed for the delivery order and the kill schedule.
    pub seed: u64,
    /// Probability that a host is killed (and restarted with replay)
    /// before any given delivery step.
    pub kill_rate: f64,
}

/// What one [`PlacementSim::run`] did and decided.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// The canonical verdict of the surviving assembly.
    pub verdict: Result<Vec<Message>, DecodeError>,
    /// Host kills injected by the schedule.
    pub kills: usize,
    /// Journal entries replayed into restarted shards.
    pub replayed: usize,
    /// Shard partials emitted (including re-emissions after a kill
    /// wiped an emitted-but-uncommitted shard — impossible here, since
    /// emission and commit are atomic in the sim, but counted for
    /// completeness).
    pub partials: usize,
    /// Poison notices synthesized for post-commit stragglers.
    pub notices: usize,
}

impl PlacementSim {
    /// A sim with the given seed and kill rate (clamped to `[0, 1]`).
    pub fn new(seed: u64, kill_rate: f64) -> PlacementSim {
        PlacementSim { seed, kill_rate: kill_rate.clamp(0.0, 1.0) }
    }

    /// Drive one size-`n` assembly, placed by `policy`, over `arrivals`
    /// delivered in a seed-shuffled order with seeded host kills.
    ///
    /// Returns the verdict and the fault accounting; the verdict is
    /// bit-for-bit the monolithic one no matter the seed (pinned by
    /// property tests).
    pub fn run(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        arrivals: &[(VertexId, Message)],
    ) -> PlacementReport {
        self.run_inner(n, policy, arrivals, None)
    }

    /// Like [`run`](Self::run), but records every schedule decision —
    /// kills, journal replays, deliveries, partial emit/merge, poison
    /// notices and the final verdict — into `recorder`, stamped from
    /// `clock` (advanced one microsecond per event). The verdict and
    /// fault accounting are identical to the untraced run, and the
    /// resulting [`TraceSnapshot`](referee_protocol::trace::TraceSnapshot)
    /// is a pure function of `(seed, kill_rate, n, policy, arrivals)`:
    /// the same inputs encode to byte-identical traces.
    pub fn run_traced(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        arrivals: &[(VertexId, Message)],
        recorder: &FlightRecorder,
        clock: &ManualClock,
    ) -> PlacementReport {
        self.run_inner(n, policy, arrivals, Some(&SimTracer { recorder, clock }))
    }

    fn run_inner(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        arrivals: &[(VertexId, Message)],
        tracer: Option<&SimTracer<'_>>,
    ) -> PlacementReport {
        let k = policy.shards();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.shuffle(&mut rng);

        // Host-resident volatile state: shard i's collector, or `None`
        // once its partial was emitted (committed) — the host equivalent
        // of a shipped range.
        let mut shards: Vec<Option<RefereeShard>> =
            (0..k).map(|i| Some(RefereeShard::new(n, k, i))).collect();
        // Coordinator-resident durable state.
        let mut journals: Vec<ShardJournal> = (0..k).map(|_| ShardJournal::new(n)).collect();
        let mut acc = PartialState::new(n);
        let mut report = PlacementReport {
            verdict: Ok(Vec::new()),
            kills: 0,
            replayed: 0,
            partials: 0,
            notices: 0,
        };

        // Emit-and-commit: fold a complete/poisoned shard into the
        // accumulator and prune its journal.
        let emit_ready = |shards: &mut [Option<RefereeShard>],
                          journals: &mut [ShardJournal],
                          acc: &mut PartialState,
                          partials: &mut usize| {
            for (i, slot) in shards.iter_mut().enumerate() {
                let ready = slot.as_ref().is_some_and(|s| s.is_complete() || s.is_poisoned());
                if ready {
                    let partial = slot.take().expect("checked above").into_partial();
                    // One-round sessions: every partial is round 1's.
                    tr(
                        tracer,
                        host_endpoint(policy.host_of_shard(i)),
                        TraceKind::PartialEmit,
                        1,
                    );
                    acc.merge(partial).expect("same-n partials always merge");
                    tr(tracer, COORDINATOR, TraceKind::PartialMerge, i as u64);
                    journals[i].commit(1);
                    *partials += 1;
                }
            }
        };

        // Empty ranges complete immediately (k > n).
        emit_ready(&mut shards, &mut journals, &mut acc, &mut report.partials);

        let hosts: Vec<HostId> = policy.hosts();
        for step in order {
            // Chaos first: maybe kill (and restart) a host.
            if !hosts.is_empty() && rng.gen_bool(self.kill_rate) {
                let victim = hosts[rng.gen_range(0..hosts.len())];
                report.kills += 1;
                tr(tracer, host_endpoint(victim), TraceKind::Kill, u64::from(victim));
                self.kill_and_replay(
                    n,
                    policy,
                    victim,
                    &mut shards,
                    &mut journals,
                    &mut report.replayed,
                    tracer,
                );
                emit_ready(&mut shards, &mut journals, &mut acc, &mut report.partials);
            }
            let (sender, payload) = &arrivals[step];
            let target = route_arrival(n, k, *sender);
            // Each arrival is a run of one: the payload is its count.
            tr(tracer, COORDINATOR, TraceKind::Uplink, 1);
            // One-round discipline (the same check the wire proxy
            // runs): once the shard's partial merged, *anything* else —
            // in-range duplicate or out-of-range stray — is reported as
            // a synthesized poison notice, never re-collected.
            if journals[target].committed() {
                let poison = PartialState::poison_notice(n, *sender);
                acc.merge(poison).expect("same-n partials always merge");
                report.notices += 1;
                tr(tracer, COORDINATOR, TraceKind::Poison, u64::from(*sender));
                continue;
            }
            match journals[target].record(1, *sender, payload.clone()) {
                Recorded::Stale => unreachable!("round 1 of an uncommitted journal"),
                Recorded::Forward => {
                    let shard = shards[target]
                        .as_mut()
                        .expect("uncommitted journal implies a live shard");
                    ingest_service_policy(shard, *sender, payload.clone());
                    emit_ready(&mut shards, &mut journals, &mut acc, &mut report.partials);
                }
            }
        }

        // Merge whatever never completed (missing nodes surface as the
        // canonical missing-verdict, exactly like the monolithic wait
        // ending early).
        for (i, slot) in shards.iter_mut().enumerate() {
            if let Some(shard) = slot.take() {
                tr(tracer, host_endpoint(policy.host_of_shard(i)), TraceKind::PartialEmit, 1);
                acc.merge(shard.into_partial()).expect("same-n partials always merge");
                tr(tracer, COORDINATOR, TraceKind::PartialMerge, i as u64);
                journals[i].commit(1);
            }
        }
        report.verdict = acc.finish();
        // The bit length of the verdict the wire's digest service ships:
        // `1` + the 64-bit digest, or `0` + the 2-bit rejection class.
        let verdict_bits = if report.verdict.is_ok() { 65 } else { 3 };
        tr(tracer, COORDINATOR, TraceKind::Verdict, verdict_bits);
        report
    }

    /// Kill `victim`: wipe every un-committed shard it hosts, then
    /// rebuild each from its journal (the proxy's redial replay).
    #[allow(clippy::too_many_arguments)]
    fn kill_and_replay(
        &self,
        n: usize,
        policy: &PlacementPolicy,
        victim: HostId,
        shards: &mut [Option<RefereeShard>],
        journals: &mut [ShardJournal],
        replayed: &mut usize,
        tracer: Option<&SimTracer<'_>>,
    ) {
        let k = policy.shards();
        let lost: BTreeSet<usize> = (0..k)
            .filter(|&i| policy.host_of_shard(i) == victim && !journals[i].committed())
            .collect();
        for &i in &lost {
            let mut fresh = RefereeShard::new(n, k, i);
            for (_, sender, payload) in journals[i].replay() {
                ingest_service_policy(&mut fresh, sender, payload.clone());
                *replayed += 1;
                tr(tracer, host_endpoint(victim), TraceKind::Replay, 1);
            }
            shards[i] = Some(fresh);
        }
    }
}

/// The service-side ingest policy every referee deployment in this
/// workspace uses: any duplicate is recorded as a fault, out-of-range
/// senders are recorded wherever they were routed.
fn ingest_service_policy(shard: &mut RefereeShard, sender: VertexId, payload: Message) {
    match shard.ingest(sender, payload) {
        Ok(Arrival::Fresh) | Ok(Arrival::OutOfRange) => {}
        Ok(Arrival::Duplicate { .. }) => shard.note_duplicate(sender),
        Err(_) => unreachable!("route_arrival sends every sender to its owning shard"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use referee_protocol::referee::assemble_from_arrivals;
    use referee_protocol::BitWriter;

    fn msg(v: u64, w: u32) -> Message {
        let mut wr = BitWriter::new();
        wr.write_bits(v, w);
        Message::from_writer(wr)
    }

    fn honest(n: usize) -> Vec<(VertexId, Message)> {
        (1..=n as VertexId).map(|v| (v, msg(v as u64 * 3 + 1, 12))).collect()
    }

    fn check(n: usize, arrivals: &[(VertexId, Message)], policy: &PlacementPolicy, seed: u64) {
        let mono = assemble_from_arrivals(n, arrivals.iter().cloned());
        for kill_rate in [0.0, 0.3, 0.9] {
            let sim = PlacementSim::new(seed, kill_rate);
            let got = sim.run(n, policy, arrivals);
            match (&mono, &got.verdict) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed} rate {kill_rate}"),
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}")
                }
                other => panic!("verdict shape diverged (seed {seed}): {other:?}"),
            }
        }
    }

    #[test]
    fn honest_assemblies_survive_any_kill_schedule() {
        for n in [0usize, 1, 5, 17] {
            for k in [1usize, 3, 8] {
                let policy = PlacementPolicy::balanced(k, &[0, 1, 2]);
                for seed in 0..10 {
                    check(n, &honest(n), &policy, seed);
                }
            }
        }
    }

    #[test]
    fn faulty_assemblies_match_the_monolithic_verdict() {
        let policy = PlacementPolicy::balanced(4, &[0, 1]);
        let n = 9;
        // Duplicate sender.
        let mut dup = honest(n);
        dup.push((4, msg(0, 4)));
        // Out-of-range stray.
        let mut stray = honest(n);
        stray.push((99, msg(1, 4)));
        // Missing node.
        let missing: Vec<_> = honest(n).into_iter().filter(|(v, _)| *v != 6).collect();
        for (i, arrivals) in [dup, stray, missing].iter().enumerate() {
            for seed in 0..10 {
                check(n, arrivals, &policy, seed * 31 + i as u64);
            }
        }
    }

    #[test]
    fn kills_actually_happen_and_replay_rebuilds() {
        let policy = PlacementPolicy::balanced(4, &[0, 1]);
        let n = 40;
        let sim = PlacementSim::new(7, 0.5);
        let report = sim.run(n, &policy, &honest(n));
        assert!(report.kills > 0, "a 0.5 kill rate over 40 steps must kill");
        assert!(report.replayed > 0, "kills mid-collection must replay journal entries");
        assert!(report.verdict.is_ok());
    }

    #[test]
    fn traced_run_is_bit_for_bit_reproducible() {
        let policy = PlacementPolicy::balanced(4, &[0, 1, 2]);
        let n = 23;
        let arrivals = honest(n);
        let trace_of = |seed: u64| {
            let recorder = FlightRecorder::with_capacity(4096);
            let clock = ManualClock::default();
            let report = PlacementSim::new(seed, 0.4)
                .run_traced(n, &policy, &arrivals, &recorder, &clock);
            (report, recorder.snapshot().encode())
        };
        let (a_report, a_trace) = trace_of(42);
        let (b_report, b_trace) = trace_of(42);
        assert_eq!(a_trace.as_bytes(), b_trace.as_bytes(), "same seed, same bytes");
        assert_eq!(format!("{:?}", a_report.verdict), format!("{:?}", b_report.verdict));
        // A different seed schedules differently — traces diverge.
        let (_, c_trace) = trace_of(43);
        assert_ne!(a_trace.as_bytes(), c_trace.as_bytes(), "different seed, different trace");
    }

    #[test]
    fn traced_run_matches_untraced_and_records_the_schedule() {
        let policy = PlacementPolicy::balanced(4, &[0, 1]);
        let n = 40;
        let arrivals = honest(n);
        let sim = PlacementSim::new(7, 0.5);
        let plain = sim.run(n, &policy, &arrivals);
        let recorder = FlightRecorder::with_capacity(8192);
        let clock = ManualClock::default();
        let traced = sim.run_traced(n, &policy, &arrivals, &recorder, &clock);
        assert_eq!(format!("{:?}", plain.verdict), format!("{:?}", traced.verdict));
        assert_eq!(plain.kills, traced.kills);
        assert_eq!(plain.replayed, traced.replayed);

        let snap = recorder.snapshot();
        let count = |kind: TraceKind| snap.events().iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(TraceKind::Kill), traced.kills);
        assert_eq!(count(TraceKind::Replay), traced.replayed);
        assert_eq!(count(TraceKind::Uplink), arrivals.len());
        assert_eq!(count(TraceKind::PartialEmit), count(TraceKind::PartialMerge));
        assert_eq!(count(TraceKind::Verdict), 1);
        // One payload meaning per kind: a partial carries its round (a
        // one-round session has only round 1), a verdict the bit length
        // the digest service ships (`1` + a 64-bit digest when honest),
        // an uplink its run's entry count (every arrival a run of one).
        let payloads = |kind: TraceKind| {
            snap.events()
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.payload)
                .collect::<Vec<_>>()
        };
        assert!(traced.verdict.is_ok());
        assert!(payloads(TraceKind::PartialEmit).iter().all(|&round| round == 1));
        assert_eq!(payloads(TraceKind::Verdict), [65]);
        assert!(payloads(TraceKind::Uplink).iter().all(|&count| count == 1));
        // ManualClock hands every event its own tick, so the timeline is
        // causally ordered: all stamps distinct, and within each
        // endpoint's lane seq order and time order agree.
        let mut ts: Vec<u64> = snap.events().iter().map(|e| e.ts_us).collect();
        let total = ts.len();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts.len(), total, "one distinct tick per event");
        for w in snap.events().windows(2) {
            if w[0].session == w[1].session && w[0].endpoint == w[1].endpoint {
                assert!(w[0].seq < w[1].seq && w[0].ts_us < w[1].ts_us, "lane-monotone");
            }
        }
    }

    #[test]
    fn post_commit_stragglers_poison_via_notices() {
        // n = 1: whichever of the two sender-1 arrivals delivers first
        // completes (and commits) the only shard, so the other is a
        // post-commit straggler in *every* shuffle — it must surface as
        // a synthesized poison notice and an Inconsistent verdict.
        let policy = PlacementPolicy::from_map(vec![0]);
        for seed in 0..8 {
            let sim = PlacementSim::new(seed, 0.0);
            let report = sim.run(1, &policy, &[(1, msg(3, 4)), (1, msg(9, 4))]);
            assert!(matches!(report.verdict, Err(DecodeError::Inconsistent(_))));
            assert_eq!(report.notices, 1, "seed {seed}");
        }
    }
}
