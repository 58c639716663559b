//! The four seeded workloads: which requests exist, how they are
//! drawn, and the wire lines the daemon receives.
//!
//! The daemon sees only the generated request lines. Every draw comes
//! from [`Rng`] streams derived from the `--seed` argument, so one seed
//! always gives the same inputs.

use crate::stats::Rng;
use cgra_arch::Topology;
use cgra_mapper_core::request::{FabricSpec, KernelSpec, MapRequest};
use serde::{Serialize, Value};
use std::path::Path;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HitStorm,
    ColdSolve,
    MixedChurn,
    FleetQueue,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HitStorm,
        Kind::ColdSolve,
        Kind::MixedChurn,
        Kind::FleetQueue,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HitStorm => "hit-storm",
            Kind::ColdSolve => "cold-solve",
            Kind::MixedChurn => "mixed-churn",
            Kind::FleetQueue => "fleet-queue",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Load connections, each driven by its own thread.
    pub fn connections(self) -> usize {
        match self {
            Kind::FleetQueue => 1,
            _ => 2,
        }
    }

    /// The latency limit behind `slo_share`, in microseconds.
    pub fn slo_us(self) -> f64 {
        match self {
            Kind::HitStorm => 500.0,
            Kind::ColdSolve => 100_000.0,
            Kind::MixedChurn => 5_000.0,
            Kind::FleetQueue => 100_000.0,
        }
    }
}

/// Zipf exponent of the `mixed-churn` key popularity.
const CHURN_ZIPF: f64 = 1.0;
/// Request seeds per `mixed-churn` (kernel, fabric, mapper).
const CHURN_SEEDS: u64 = 2;
/// Entries the `mixed-churn` prefill admits: the daemon's shipped
/// result-cache capacity.
pub const CACHE_CAP: usize = 256;
/// Base time limit of `cold-solve` requests, far above any solve the
/// pool admits; each request adds a unique offset to stay a distinct key.
const COLD_LIMIT_MS: u64 = 30_000;

fn mesh(n: u16, topology: Topology) -> FabricSpec {
    FabricSpec {
        rows: n,
        cols: n,
        topology,
        adres: false,
    }
}

/// The default `cgra-fleet` farm: 8x8 mesh and 6x6 mesh-plus.
pub fn fleet_farm() -> Vec<FabricSpec> {
    vec![mesh(8, Topology::Mesh), mesh(6, Topology::MeshPlus)]
}

/// 4x4 and 6x6, mesh and mesh-plus.
fn small_fabrics() -> Vec<FabricSpec> {
    vec![
        mesh(4, Topology::Mesh),
        mesh(4, Topology::MeshPlus),
        mesh(6, Topology::Mesh),
        mesh(6, Topology::MeshPlus),
    ]
}

/// `fleet-queue` ops come in blocks of this many, in shuffled order...
const FLEET_BLOCK: usize = 40;
/// ...of which this many are heavy: one suite slot holds
/// [`FLEET_HEAVY_KERNEL`], about 40 ms of search on either fabric, and
/// the op about 65 ms where a light op takes about 8 ms. With 2.5% of
/// ops heavy, p99 lies inside a population the workload makes, not
/// among the few ops a stall of the host happens to hit.
const FLEET_HEAVY: usize = 1;
const FLEET_HEAVY_KERNEL: &str = "suite:horner4";

/// The SORA kernel mix among `examples/kernels`.
const SORA: [&str; 6] = ["fft", "spmv", "conv", "relu", "histogram", "gemm"];

/// Kernels whose search runs far longer than the rest of the pool
/// (hundreds of ms for meta-heuristics, past a second for SAT, tens of
/// ms for `modulo-list` on 8x8): kept out of the meta, SAT,
/// `mixed-churn` and light fleet draws so each op costs about the same.
const SLOW: [&str; 5] = [
    "fft",
    "suite:sobel",
    "suite:yuv2rgb",
    "suite:fft_butterfly",
    "suite:horner4",
];

/// Every kernel the workloads draw from: the MiniC examples (as inline
/// source) and the built-in suite (by name).
pub struct Kernels {
    sources: Vec<(String, KernelSpec)>,
    suite: Vec<(String, KernelSpec)>,
}

impl Kernels {
    /// Read `examples/kernels/*.mc` under `root`, sorted by name.
    pub fn load(root: &Path) -> Result<Kernels, String> {
        let dir = root.join("examples/kernels");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "mc"))
            .collect();
        files.sort();
        let mut sources = Vec::new();
        for f in files {
            let source =
                std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let stem = f.file_stem().map(|s| s.to_string_lossy().to_string());
            sources.push((
                stem.unwrap_or_default(),
                KernelSpec::Source { source, name: None },
            ));
        }
        if sources.len() != 12 {
            return Err(format!(
                "expected the 12 kernels of {}, found {}",
                dir.display(),
                sources.len()
            ));
        }
        let suite = cgra_ir::kernels::suite()
            .into_iter()
            .map(|k| (format!("suite:{}", k.name), KernelSpec::Named(k.name)))
            .collect();
        Ok(Kernels { sources, suite })
    }

    fn all(&self) -> impl Iterator<Item = &(String, KernelSpec)> {
        self.sources.iter().chain(&self.suite)
    }

    fn get(&self, label: &str) -> KernelSpec {
        self.all()
            .find(|(l, _)| l == label)
            .map(|(_, k)| k.clone())
            .unwrap_or_else(|| panic!("kernel `{label}` is not in the pool"))
    }
}

/// One request and its wire line (newline included).
#[derive(Debug, Clone)]
pub struct Job {
    pub req: MapRequest,
    pub line: Arc<str>,
}

impl Job {
    pub fn map(req: MapRequest) -> Job {
        let line = Value::Object(vec![
            ("op".into(), Value::Str("map".into())),
            ("request".into(), req.to_value()),
        ])
        .render();
        Job {
            req,
            line: format!("{line}\n").into(),
        }
    }
}

/// One `fleet` op: a request queue over the farm.
#[derive(Debug, Clone)]
pub struct FleetOp {
    pub requests: Vec<MapRequest>,
    pub fabrics: Vec<FabricSpec>,
    pub line: Arc<str>,
}

impl FleetOp {
    pub fn new(requests: Vec<MapRequest>, fabrics: Vec<FabricSpec>) -> FleetOp {
        let line = Value::Object(vec![
            ("op".into(), Value::Str("fleet".into())),
            (
                "requests".into(),
                Value::Array(requests.iter().map(|r| r.to_value()).collect()),
            ),
            (
                "fabrics".into(),
                Value::Array(fabrics.iter().map(|f| f.to_value()).collect()),
            ),
        ])
        .render();
        FleetOp {
            requests,
            fabrics,
            line: format!("{line}\n").into(),
        }
    }
}

/// One generated input. Boxed variants keep the per-operation logs of
/// hit-heavy runs (hundreds of thousands of `Key`s) small.
#[derive(Debug, Clone)]
pub enum Item {
    /// A request of the workload's fixed key set, by index.
    Key(usize),
    /// A request built for this draw alone.
    Fresh(Box<Job>),
    Fleet(Box<FleetOp>),
}

impl Item {
    pub fn line<'a>(&'a self, keys: &'a [Job]) -> &'a str {
        match self {
            Item::Key(i) => &keys[*i].line,
            Item::Fresh(j) => &j.line,
            Item::Fleet(f) => &f.line,
        }
    }
}

/// One `cold-solve` family: its share of each block of requests (each
/// block holds every family's share exactly, in shuffled order) and every
/// (mapper, kernel, fabric) combination it draws from.
struct SolvePool {
    family: &'static str,
    per_block: usize,
    combos: Vec<(&'static str, String, FabricSpec)>,
}

/// A workload: its fixed key set (if any), its warm-up and prefill
/// requests, and the per-connection input streams.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Fixed keys (`hit-storm`, `mixed-churn`); empty otherwise.
    pub keys: Vec<Job>,
    /// Keys sent during set-up, in order, before the timed phase.
    pub prefill: Vec<usize>,
    /// Untimed requests sent during set-up that warm the daemon
    /// without touching any timed key.
    pub warmup: Vec<Item>,
    kernels: Kernels,
    solve_pools: Vec<SolvePool>,
    /// `fleet-queue`: the suite kernels a queue draws from.
    fleet_suite: Vec<String>,
    zipf_cdf: Vec<f64>,
    /// `mixed-churn`: rank → key index.
    rank_to_key: Vec<usize>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, root: &Path) -> Result<Workload, String> {
        let kernels = Kernels::load(root)?;
        let mut w = Workload {
            kind,
            seed,
            keys: Vec::new(),
            prefill: Vec::new(),
            warmup: Vec::new(),
            kernels,
            solve_pools: Vec::new(),
            fleet_suite: Vec::new(),
            zipf_cdf: Vec::new(),
            rank_to_key: Vec::new(),
        };
        match kind {
            Kind::HitStorm => {
                let fabrics = [mesh(4, Topology::Mesh), mesh(6, Topology::MeshPlus)];
                for (_, k) in &w.kernels.sources {
                    for f in fabrics {
                        for m in ["modulo-list", "edge-centric"] {
                            w.keys.push(Job::map(request(k.clone(), f, m)));
                        }
                    }
                }
                w.prefill = (0..w.keys.len()).collect();
            }
            Kind::MixedChurn => {
                // Cheap heuristic keys (kernels that take far longer are
                // left out); request seeds multiply the keys without
                // changing their cost.
                for (label, k) in w.kernels.all() {
                    if SLOW.contains(&label.as_str()) {
                        continue;
                    }
                    for f in small_fabrics() {
                        for m in ["modulo-list", "edge-centric", "epimap", "himap"] {
                            for seed in 1..=CHURN_SEEDS {
                                let mut req = request(k.clone(), f, m);
                                req.config.seed = seed;
                                w.keys.push(Job::map(req));
                            }
                        }
                    }
                }
                let n = w.keys.len();
                let mut total = 0.0;
                for r in 0..n {
                    total += 1.0 / ((r + 1) as f64).powf(CHURN_ZIPF);
                    w.zipf_cdf.push(total);
                }
                for c in &mut w.zipf_cdf {
                    *c /= total;
                }
                // Popularity is part of the workload, not of the seed: a
                // fixed shuffle ranks the keys, and the seed only draws
                // the request sequence.
                w.rank_to_key = (0..n).collect();
                Rng::derive(0, 0x7a1f).shuffle(&mut w.rank_to_key);
                // Fill the cache with the most popular keys, least
                // popular first, so LRU order matches popularity.
                w.prefill = w.rank_to_key[..CACHE_CAP.min(n)]
                    .iter()
                    .rev()
                    .copied()
                    .collect();
            }
            Kind::ColdSolve => {
                w.solve_pools = cold_pools(&w.kernels);
                // A small solve per fabric and family builds the daemon's
                // topology caches and first-touches the mapper code
                // before timing. Their time limits lie below every timed
                // request's, so no key repeats.
                let mut limit = COLD_LIMIT_MS;
                for f in small_fabrics() {
                    for mapper in ["modulo-list", "sa", "sat"] {
                        limit -= 1;
                        let mut req = request(w.kernels.get("dot"), f, mapper);
                        req.config.time_limit_ms = limit;
                        w.warmup.push(Item::Fresh(Box::new(Job::map(req))));
                    }
                }
            }
            Kind::FleetQueue => {
                w.fleet_suite = w
                    .kernels
                    .suite
                    .iter()
                    .map(|(l, _)| l.clone())
                    .filter(|l| !SLOW.contains(&l.as_str()))
                    .collect();
                // One fleet op of the SORA mix under a seed no timed op
                // draws builds both fabrics' topology caches.
                let reqs = SORA
                    .iter()
                    .map(|k| {
                        let mut r = request(w.kernels.get(k), FabricSpec::default(), "modulo-list");
                        r.config.seed = u64::MAX;
                        r
                    })
                    .collect();
                w.warmup
                    .push(Item::Fleet(Box::new(FleetOp::new(reqs, fleet_farm()))));
            }
        }
        Ok(w)
    }

    /// The input stream of one load connection. Streams of different
    /// connections never share a `cold-solve` key.
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream {
            w: self,
            conn,
            next: 0,
            rng: Rng::derive(self.seed, 1 + conn as u64),
            block: Vec::new(),
            decks: vec![Vec::new(); self.solve_pools.len()],
        }
    }

    /// Family label of a `cold-solve` mapper ("heuristic", "meta",
    /// "exact").
    pub fn family_of(&self, mapper: &str) -> &'static str {
        self.solve_pools
            .iter()
            .find(|p| p.combos.iter().any(|(m, _, _)| *m == mapper))
            .map(|p| p.family)
            .unwrap_or("heuristic")
    }

    /// One line per traffic dimension, for the run's header.
    pub fn describe(&self) -> String {
        match self.kind {
            Kind::HitStorm => format!(
                "{} keys (12 MiniC kernels x 2 fabrics x 2 heuristics), all prefilled; \
                 uniform draw; closed loop",
                self.keys.len()
            ),
            Kind::MixedChurn => format!(
                "{} keys (20 kernels x 4 fabrics x 4 heuristics x {CHURN_SEEDS} seeds) \
                 against cache capacity {}; \
                 Zipf s={CHURN_ZIPF}; closed loop",
                self.keys.len(),
                CACHE_CAP
            ),
            Kind::ColdSolve => {
                let block: usize = self.solve_pools.iter().map(|p| p.per_block).sum();
                let pools: Vec<String> = self
                    .solve_pools
                    .iter()
                    .map(|p| {
                        let mapper = p.combos.first().map_or("", |c| c.0);
                        format!(
                            "{} ({mapper}, ...) {}/{block} over {} combinations",
                            p.family,
                            p.per_block,
                            p.combos.len()
                        )
                    })
                    .collect();
                format!(
                    "every key distinct; per block of {block}: {}; 4x4/6x6 mesh and mesh-plus; \
                     closed loop",
                    pools.join(", ")
                )
            }
            Kind::FleetQueue => format!(
                "each op: 6 SORA kernels + 2 suite kernels ({FLEET_HEAVY} ops in {FLEET_BLOCK} \
                 with {FLEET_HEAVY_KERNEL} as one), fresh seeds, on 8x8 mesh + 6x6 mesh-plus; \
                 closed loop"
            ),
        }
    }
}

/// The per-connection input sequence: the same seed and connection
/// always yield the same items in the same order.
pub struct Stream<'a> {
    w: &'a Workload,
    conn: usize,
    next: u64,
    rng: Rng,
    /// What is left of the current block: family indices
    /// (`cold-solve`) or heavy-op flags (`fleet-queue`).
    block: Vec<usize>,
    /// `cold-solve`: combinations left in each family's deck.
    decks: Vec<Vec<usize>>,
}

impl Stream<'_> {
    /// Deal the next `cold-solve` request: the next family of the
    /// block, then that family's next combination. Blocks and decks are
    /// reshuffled when they run out, so every run covers the pool
    /// evenly whatever the seed.
    fn deal(&mut self) -> MapRequest {
        let pools = &self.w.solve_pools;
        if self.block.is_empty() {
            for (i, p) in pools.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(i, p.per_block));
            }
            self.rng.shuffle(&mut self.block);
        }
        let f = self.block.pop().expect("blocks are refilled");
        let deck = &mut self.decks[f];
        if deck.is_empty() {
            deck.extend(0..pools[f].combos.len());
            self.rng.shuffle(deck);
        }
        let (mapper, kernel, fabric) = &pools[f].combos[deck.pop().expect("decks are refilled")];
        request(self.w.kernels.get(kernel), *fabric, mapper)
    }
}

impl Iterator for Stream<'_> {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        let w = self.w;
        let index = self.next;
        self.next += 1;
        Some(match w.kind {
            Kind::HitStorm => Item::Key(self.rng.below(w.keys.len())),
            Kind::MixedChurn => {
                let u = self.rng.unit();
                let rank = w.zipf_cdf.partition_point(|&c| c <= u);
                Item::Key(w.rank_to_key[rank.min(w.keys.len() - 1)])
            }
            Kind::ColdSolve => {
                let mut req = self.deal();
                let unique = index * w.kind.connections() as u64 + self.conn as u64;
                req.config.time_limit_ms = COLD_LIMIT_MS + unique;
                Item::Fresh(Box::new(Job::map(req)))
            }
            Kind::FleetQueue => {
                // Blocks of FLEET_BLOCK ops, FLEET_HEAVY of them heavy.
                if self.block.is_empty() {
                    self.block = vec![0; FLEET_BLOCK];
                    self.block[..FLEET_HEAVY].fill(1);
                    self.rng.shuffle(&mut self.block);
                }
                let heavy = self.block.pop() == Some(1);
                let rng = &mut self.rng;
                let mut labels: Vec<&str> = SORA.to_vec();
                labels.push(&w.fleet_suite[rng.below(w.fleet_suite.len())]);
                labels.push(if heavy {
                    FLEET_HEAVY_KERNEL
                } else {
                    &w.fleet_suite[rng.below(w.fleet_suite.len())]
                });
                rng.shuffle(&mut labels);
                let reqs = labels
                    .iter()
                    .map(|l| {
                        let mut r = request(w.kernels.get(l), FabricSpec::default(), "modulo-list");
                        // Fresh per-op seeds keep every job a cold key.
                        r.config.seed = rng.next_u64() >> 1;
                        r
                    })
                    .collect();
                Item::Fleet(Box::new(FleetOp::new(reqs, fleet_farm())))
            }
        })
    }
}

fn request(kernel: KernelSpec, fabric: FabricSpec, mapper: &str) -> MapRequest {
    let mut req = MapRequest::new(kernel, mapper);
    req.fabric = fabric;
    req
}

/// The `cold-solve` families. Each keeps only the kernels its mappers
/// solve on all four fabrics, and the exact ones only those solved in
/// about 200 ms or less, so no draw is expected to fail.
fn cold_pools(kernels: &Kernels) -> Vec<SolvePool> {
    let all: Vec<String> = kernels.all().map(|(l, _)| l.clone()).collect();
    let combos = |mappers: &[&'static str], keep: &dyn Fn(&str) -> bool| {
        let mut out = Vec::new();
        for m in mappers {
            for k in all.iter().filter(|l| keep(l)) {
                for f in small_fabrics() {
                    out.push((*m, k.clone(), f));
                }
            }
        }
        out
    };
    let fast = |l: &str| !SLOW.contains(&l);
    vec![
        SolvePool {
            family: "heuristic",
            per_block: 16,
            combos: combos(
                &["modulo-list", "edge-centric", "epimap", "ramp", "himap"],
                &|_| true,
            ),
        },
        SolvePool {
            family: "meta",
            per_block: 2,
            combos: combos(&["sa", "ga", "qea"], &fast),
        },
        SolvePool {
            family: "exact",
            per_block: 2,
            combos: combos(&["sat"], &fast),
        },
        SolvePool {
            family: "exact",
            per_block: 1,
            combos: combos(&["ilp"], &|l| {
                ["dot", "memfill", "suite:dot_product", "suite:accumulate"].contains(&l)
            }),
        },
    ]
}
