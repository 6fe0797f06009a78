//! Multi-round shard equivalence, pinned (mirroring `shard_props.rs`):
//!
//! * the sharded driver [`run_multiround_sharded`] equals the monolithic
//!   [`run_multiround`] **bit for bit** — same output, same stats — for
//!   any shard count in `1..=8` on arbitrary random graphs, for both
//!   Borůvka protocols;
//! * one round's uplink assembly is invariant under arbitrary arrival
//!   orders and merge shapes (left fold and pairwise tree), including a
//!   full encode/decode round trip of every partial;
//! * faulty per-round streams (duplicates, strays, missing nodes) yield
//!   the same canonical verdict as the monolithic one-round assembler,
//!   with the round stamp preserved through the wire layout;
//! * the lifted round core — `k` [`RangeWait`]s feeding one
//!   [`RoundMerge`] — judges those streams like the monolithic
//!   assembler, and its fail-fast judgement never fabricates a fault.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use referee_graph::generators;
use referee_protocol::multiround::{
    run_multiround, BoruvkaConnectivity, BoruvkaSpanningForest,
};
use referee_protocol::referee::assemble_from_arrivals;
use referee_protocol::shard::multiround::{
    run_multiround_sharded, RangeWait, RoundMerge, RoundPartialState, RoundShard,
};
use referee_protocol::shard::{nonempty_shards, route_arrival, Arrival};
use referee_protocol::{BitWriter, DecodeError, Message};

fn msg(value: u64, width: u32) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(value & ((1u64 << width) - 1), width);
    Message::from_writer(w)
}

/// An arrival multiset for one round of a size-`n` network: mostly one
/// uplink per node, mutated with drops, identical + conflicting
/// duplicates and out-of-range senders, in a shuffled order.
fn arrivals(n: usize, seed: u64) -> Vec<(u32, Message)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(u32, Message)> = Vec::new();
    for v in 1..=n as u32 {
        if rng.gen_bool(0.1) {
            continue; // missing node
        }
        let m = msg(rng.gen_range(0..=u64::MAX >> 16), 29);
        out.push((v, m.clone()));
        if rng.gen_bool(0.1) {
            out.push((v, m)); // identical duplicate
        } else if rng.gen_bool(0.07) {
            out.push((v, msg(rng.gen_range(0..1 << 20), 29))); // conflicting duplicate
        }
    }
    if rng.gen_bool(0.2) {
        let stray =
            if rng.gen_bool(0.3) { 0 } else { n as u32 + rng.gen_range(1..20u64) as u32 };
        out.push((stray, msg(3, 5)));
    }
    out.shuffle(&mut rng);
    out
}

/// Route one round's arrivals into `k` round shards (monolithic
/// duplicate policy), encode/decode every partial when `through_wire`,
/// then merge in a seeded order as a left fold or a pairwise tree.
fn sharded_round_assembly(
    n: usize,
    k: usize,
    round: u32,
    arrivals: &[(u32, Message)],
    seed: u64,
    pairwise: bool,
    through_wire: bool,
) -> Result<Vec<Message>, referee_protocol::DecodeError> {
    let mut shards: Vec<RoundShard> = (0..k).map(|i| RoundShard::new(n, k, i, round)).collect();
    for (sender, m) in arrivals {
        let shard = &mut shards[route_arrival(n, k, *sender)];
        if let Arrival::Duplicate { .. } = shard.ingest(*sender, m.clone()).expect("routed") {
            shard.note_duplicate(*sender);
        }
    }
    let mut partials: Vec<RoundPartialState> = shards
        .into_iter()
        .map(|s| {
            let p = s.into_partial();
            if through_wire {
                let decoded =
                    RoundPartialState::decode(n, &p.encode()).expect("own encoding decodes");
                assert_eq!(decoded, p);
                assert_eq!(decoded.round(), round);
                decoded
            } else {
                p
            }
        })
        .collect();
    partials.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
    if pairwise {
        while partials.len() > 1 {
            let mut next = Vec::new();
            let mut it = partials.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.merge(b).expect("same n and round");
                }
                next.push(a);
            }
            partials = next;
        }
        partials.pop().expect("k >= 1").finish()
    } else {
        let mut acc = RoundPartialState::new(n, round);
        for p in partials {
            acc.merge(p).expect("same n and round");
        }
        acc.finish()
    }
}

/// The lifted round core on one round's arrivals, treating any repeat
/// as a fault: each arrival goes to the [`RangeWait`] of its shard
/// (stragglers behind a shipped range become poison notices), and the
/// shipped partials and notices are absorbed into one [`RoundMerge`]
/// that has already judged rounds `1..round`, in a seeded order.
/// Returns `(deferred, eager, late_notices)`: the verdict judged once
/// everything is absorbed (`None` while a range starves), the verdict
/// judged at the first ready `next()` (`None` if none is), and whether
/// only notices were absorbed after that first judgement.
fn waited_round_assembly(
    n: usize,
    k: usize,
    round: u32,
    arrivals: &[(u32, Message)],
    seed: u64,
) -> (Option<Verdict>, Option<Verdict>, bool) {
    let mut waits: Vec<RangeWait> =
        (0..k).map(|i| RangeWait::new(n, k, i, round, round)).collect();
    let mut items: Vec<(RoundPartialState, bool)> = Vec::new();
    for (sender, m) in arrivals {
        let wait = &mut waits[route_arrival(n, k, *sender)];
        let ingested = wait.ingest(*sender, round, m.clone()).expect("routed");
        items.extend(ingested.notice.map(|notice| (notice, true)));
        items.extend(wait.take_ready().map(|partial| (partial, false)));
    }
    items.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x3a17));
    let merge = || {
        let mut merge = RoundMerge::new(n, nonempty_shards(n, k), round as usize);
        for _ in 1..round {
            merge.advance();
        }
        merge
    };
    let mut deferred = merge();
    let mut eager = merge();
    let mut judged = None;
    let mut late_notices = true;
    for (item, notice) in items {
        deferred.absorb(item.clone()).expect("within the cap");
        match judged {
            None => {
                eager.absorb(item).expect("within the cap");
                judged = eager.next().map(RoundPartialState::finish);
            }
            Some(_) => late_notices &= notice,
        }
    }
    let judged = judged.or_else(|| eager.next().map(RoundPartialState::finish));
    (deferred.next().map(RoundPartialState::finish), judged, late_notices)
}

type Verdict = Result<Vec<Message>, referee_protocol::DecodeError>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// One round's sharded assembly — any shard count, any arrival
    /// interleaving, any merge shape, with and without the wire codec —
    /// equals the monolithic one-round assembler exactly; so does the
    /// round core's, judged once everything is absorbed.
    #[test]
    fn round_assembly_equals_monolithic(
        n in 0usize..40,
        k in 1usize..=8,
        round in 1u32..200,
        seed in any::<u64>(),
    ) {
        let arr = arrivals(n, seed);
        let mono = assemble_from_arrivals(n, arr.iter().cloned());
        let fold = sharded_round_assembly(n, k, round, &arr, seed, false, false);
        let tree = sharded_round_assembly(n, k, round, &arr, seed.wrapping_add(1), true, true);
        prop_assert_eq!(&fold, &mono, "left-fold merge diverged (n={}, k={})", n, k);
        prop_assert_eq!(&tree, &mono, "pairwise-tree merge diverged (n={}, k={})", n, k);
        let (deferred, eager, late_notices) = waited_round_assembly(n, k, round, &arr, seed);
        if n == 0 {
            // No range to wait for: judged at once, before any stray.
            prop_assert_eq!(deferred, Some(Ok(Vec::new())));
            return Ok(());
        }
        match &deferred {
            Some(verdict) => prop_assert_eq!(verdict, &mono, "range waits diverged (k={})", k),
            None => prop_assert!(
                matches!(&mono, Err(DecodeError::Inconsistent(m)) if m.starts_with("no message")),
                "a starved round must be missing a node, oracle {:?}", mono
            ),
        }
        match eager {
            None => prop_assert!(deferred.is_none(), "an eager merge starved alone"),
            Some(Err(_)) => prop_assert!(mono.is_err(), "the eager verdict fabricated a fault"),
            // Ok only when the oracle agrees, or when every fault it saw
            // reached the merge as a notice after the round was judged
            // (an orphan in a deployment).
            Some(Ok(v)) => prop_assert!(
                mono.as_ref() == Ok(&v) || (mono.is_err() && late_notices),
                "eager Ok diverged from {:?}", mono
            ),
        }
    }

    /// The sharded multi-round driver is bit-for-bit the monolithic
    /// `run_multiround` — identical verdicts *and* stats — for every
    /// shard count in 1..=8, on arbitrary random graphs.
    #[test]
    fn sharded_driver_equals_run_multiround(
        n in 1usize..36,
        p_millis in 20usize..300,
        k in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let g = generators::gnp(
            n,
            p_millis as f64 / 1000.0,
            &mut StdRng::seed_from_u64(seed),
        );
        let cap = 4 * 8 + 8;
        let (mono, mono_stats) = run_multiround(&BoruvkaConnectivity, &g, cap);
        let (shd, shd_stats) = run_multiround_sharded(&BoruvkaConnectivity, &g, k, cap);
        prop_assert_eq!(shd.is_some(), mono.is_some());
        prop_assert_eq!(
            shd.map(|r| r.expect("honest run decodes")),
            mono.map(|r| r.expect("honest run decodes"))
        );
        prop_assert_eq!(shd_stats, mono_stats, "stats diverged at k={}", k);
    }

    /// Same pin for the certificate-producing protocol: the spanning
    /// forest is identical edge for edge under any shard count.
    #[test]
    fn sharded_forest_equals_run_multiround(
        n in 1usize..28,
        k in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, 0.12, &mut StdRng::seed_from_u64(seed));
        let (mono, _) = run_multiround(&BoruvkaSpanningForest, &g, 64);
        let (shd, _) = run_multiround_sharded(&BoruvkaSpanningForest, &g, k, 64);
        prop_assert_eq!(
            shd.expect("terminates").expect("decodes"),
            mono.expect("terminates").expect("decodes")
        );
    }
}

/// A replayed partial from a different round refuses to merge — the
/// round stamp travels inside the encoded payload.
#[test]
fn replayed_partial_cannot_cross_rounds() {
    let mut s = RoundShard::new(4, 1, 0, 3);
    for v in 1..=4u32 {
        s.ingest(v, msg(v as u64, 8)).unwrap();
    }
    let p3 = s.into_partial();
    let wire = p3.encode();
    let decoded = RoundPartialState::decode(4, &wire).unwrap();
    assert_eq!(decoded.round(), 3);
    let mut acc = RoundPartialState::new(4, 4);
    assert!(acc.merge(decoded).is_err(), "round-3 partial merged into round 4");
}
