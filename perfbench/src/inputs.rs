//! Workloads, their seeded inputs, and the oracles every verdict is
//! checked against. Inputs depend only on `--seed`; oracles are computed
//! here, before any timed window opens.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_core::catalog::standard_catalog;
use referee_core::graph::generators::{self, GraphFamily};
use referee_core::graph::LabelledGraph;
use referee_core::protocol::easy::EdgeCountProtocol;
use referee_core::protocol::multiround::MultiRoundStats;
use referee_core::protocol::referee::local_phase;
use referee_core::protocol::{Message, OneRoundAsMultiRound, ServiceCatalog};
use referee_core::sketches::SketchConnectivityProtocol;
use referee_core::wirenet::{vector_digest, AuthKey};

/// The fleet key every server, host and client of the benchmark shares.
pub fn fleet_key() -> AuthKey {
    AuthKey::from_seed(0x5eed_0b11)
}

/// Public coins of the catalog's sketch service. Part of the served
/// program, not of the workload, so it does not follow `--seed`.
pub const CATALOG_COINS: u64 = 31;

/// Sessions in one pass over the one-round sequence: enough that the
/// p99 of one server's run has ten samples beyond it.
pub const ONE_ROUND_SESSIONS: usize = 1000;

/// Sessions in one pass over the catalog sequence: about a second of
/// serving, so a run holds enough epochs for their median to ride out a
/// stall.
pub const CATALOG_SESSIONS: usize = 180;

/// The catalog sequence repeats its (service, family, size) pattern
/// every `CATALOG_PERIOD` sessions, a tenth of the sequence, so every
/// tenth has the same mix and `client.latency_drift` compares like with
/// like.
const CATALOG_PERIOD: usize = CATALOG_SESSIONS / 10;

/// The catalog services the multi-round workload rotates through;
/// session `i` uses `SERVICES[i % 3]`, the same rotation
/// `Scheduler::sweep_mixed` applies to its lanes (the period is a
/// multiple of 3, so `slot % 3 == i % 3`).
pub const SERVICES: [&str; 3] = ["boruvka", "adaptive-degeneracy", "sketch-connectivity"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VerifyOneRound,
    CatalogMultiround,
    RemotePlacement,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::VerifyOneRound, Workload::CatalogMultiround, Workload::RemotePlacement];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyOneRound => "verify-oneround",
            Workload::CatalogMultiround => "catalog-multiround",
            Workload::RemotePlacement => "remote-placement",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One one-round session: the graph and the digest the server must
/// return for its `local_phase` vector.
pub struct OneRoundCase {
    pub g: LabelledGraph,
    pub digest: u64,
}

/// One catalog session: the graph, its service, the round cap, and the
/// encoded verdict of the catalog's local replay.
pub struct CatalogCase {
    pub g: LabelledGraph,
    pub service: usize,
    pub cap: usize,
    pub verdict: Message,
    pub stats: MultiRoundStats,
}

pub enum Inputs {
    OneRound(Vec<OneRoundCase>),
    Catalog(Vec<CatalogCase>),
}

impl Inputs {
    pub fn len(&self) -> usize {
        match self {
            Inputs::OneRound(c) => c.len(),
            Inputs::Catalog(c) => c.len(),
        }
    }
}

/// The served catalog and the client-side protocol objects of its
/// stateful entries.
pub struct Services {
    pub catalog: ServiceCatalog,
    pub sketch: OneRoundAsMultiRound<SketchConnectivityProtocol>,
}

impl Services {
    pub fn new() -> Services {
        Services {
            catalog: standard_catalog(CATALOG_COINS),
            sketch: OneRoundAsMultiRound(SketchConnectivityProtocol::new(CATALOG_COINS)),
        }
    }
}

/// Evaluate `$body` with `$p` bound to the concrete protocol behind
/// catalog service `$svc` (an index into [`SERVICES`]).
macro_rules! with_protocol {
    ($services:expr, $svc:expr, |$p:ident| $body:expr) => {
        match $svc {
            0 => {
                let $p = &referee_core::protocol::multiround::BoruvkaConnectivity;
                $body
            }
            1 => {
                let $p = &referee_core::degeneracy::AdaptiveDegeneracyProtocol;
                $body
            }
            _ => {
                let $p = &$services.sketch;
                $body
            }
        }
    };
}
pub(crate) use with_protocol;

/// Generate `workload`'s session sequence from `seed` and compute its
/// oracles.
pub fn generate(workload: Workload, seed: u64, services: &Services) -> Inputs {
    match workload {
        Workload::VerifyOneRound | Workload::RemotePlacement => {
            let key = fleet_key();
            let mut rng = StdRng::seed_from_u64(seed);
            Inputs::OneRound(
                (0..ONE_ROUND_SESSIONS)
                    .map(|i| {
                        let g = generators::gnp(12 + i % 20, 0.2, &mut rng);
                        let digest = vector_digest(&key, &local_phase(&EdgeCountProtocol, &g));
                        OneRoundCase { g, digest }
                    })
                    .collect(),
            )
        }
        Workload::CatalogMultiround => Inputs::Catalog(
            (0..CATALOG_SESSIONS)
                .map(|i| {
                    // Each service sees both families and sizes across
                    // 32..=95; sizes follow the index, so seeds vary the
                    // graphs but not how large they are.
                    let slot = i % CATALOG_PERIOD;
                    let service = slot % SERVICES.len();
                    let family = if (slot / SERVICES.len()).is_multiple_of(2) {
                        GraphFamily::BoundedTreewidth { width: 3, density: 0.8 }
                    } else {
                        GraphFamily::PowerLaw { gamma: 2.5 }
                    };
                    let n = 32 + slot * 63 / (CATALOG_PERIOD - 1);
                    let g = family
                        .generate(n, seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let entry =
                        services.catalog.get(SERVICES[service]).expect("standard service");
                    let cap = entry.round_cap(n);
                    let (verdict, stats) = entry.run_local(&g, cap).expect("local half");
                    let verdict = verdict.expect("local replay finishes within the cap");
                    CatalogCase { g, service, cap, verdict, stats }
                })
                .collect(),
        ),
    }
}
