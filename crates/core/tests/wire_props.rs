//! Property audit of the JSON codec: for every wire type, decoding
//! what `to_value` wrote gives the value back — `T::from_value(&x.to_value())
//! == x` — both straight from the value tree and through rendered text,
//! the path the daemon, the spill directory and `cgra-report` take.
//! Types without `PartialEq` (`MapOutcome`, `RunReport`,
//! `PortfolioEntry`) are compared by their rendered JSON.
//!
//! Values are built from a seeded generator so every case covers every
//! variant: outcomes carry a mapping or a diagnosis-bearing error,
//! stats, events of each kind, latency rows, utilization and race rows.

use cgra_arch::{PeId, Topology};
use cgra_mapper_core::diagnosis::{Diagnosis, ResourceClass};
use cgra_mapper_core::ledger::{EventKind, LedgerEvent};
use cgra_mapper_core::mapper::{Infeasibility, MapError};
use cgra_mapper_core::mapping::{Mapping, Placement, Route};
use cgra_mapper_core::metrics::{Metrics, UtilizationMap};
use cgra_mapper_core::portfolio::PortfolioEntry;
use cgra_mapper_core::report::{ConfigDigest, LatencySummary, RunReport, RUN_REPORT_VERSION};
use cgra_mapper_core::request::{
    CacheStatus, ExecMode, FabricSpec, KernelSpec, MapOutcome, MapRequest, RequestConfig,
};
use cgra_mapper_core::servemetrics::AccessRecord;
use cgra_mapper_core::service::ServiceStats;
use cgra_mapper_core::telemetry::StatsSnapshot;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// SplitMix64: a tiny deterministic source for building values.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn u16(&mut self) -> u16 {
        self.next() as u16
    }

    fn u32(&mut self) -> u32 {
        self.next() as u32
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Any finite float, including huge and tiny magnitudes.
    fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => self.below(1_000_000) as f64 / 1e3,
            1 => self.below(1 << 20) as f64,
            _ => loop {
                let f = f64::from_bits(self.next());
                if f.is_finite() && f != 0.0 {
                    break f;
                }
            },
        }
    }

    /// Strings with the characters the JSON writer has to escape.
    fn string(&mut self) -> String {
        const PIECES: [&str; 8] = ["a", "fir4", "\"", "\\", "\n", "\t", "é→", "\u{1}"];
        (0..self.below(6))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.flag() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| f(self)).collect()
    }
}

fn mapping(g: &mut Gen) -> Mapping {
    Mapping {
        ii: g.u32(),
        place: g.vec(4, |g| Placement {
            pe: PeId(g.u16()),
            time: g.u32(),
        }),
        routes: g.vec(3, |g| Route {
            start_time: g.u32(),
            steps: g.vec(4, |g| PeId(g.u16())),
        }),
    }
}

fn metrics(g: &mut Gen) -> Metrics {
    Metrics {
        ii: g.u32(),
        schedule_len: g.u32(),
        fu_utilisation: g.f64(),
        route_hops: g.next() as usize,
        register_cycles: g.next() as usize,
        peak_registers: g.u32(),
        throughput: g.f64(),
    }
}

fn diagnosis(g: &mut Gen) -> Diagnosis {
    Diagnosis {
        class: ResourceClass::ALL[g.below(5) as usize],
        ii: g.u32(),
        mii: if g.flag() { u32::MAX } else { g.u32() },
        detail: g.string(),
        ops: g.vec(3, Gen::string),
        cells: g.vec(3, Gen::string),
        core: g.vec(3, Gen::string),
    }
}

fn map_error(g: &mut Gen) -> MapError {
    match g.below(4) {
        0 => MapError::Timeout,
        1 => MapError::Cancelled,
        2 => MapError::Unsupported(g.string()),
        _ => MapError::Infeasible(Infeasibility {
            why: g.string(),
            diagnosis: g.opt(|g| Box::new(diagnosis(g))),
        }),
    }
}

fn stats(g: &mut Gen) -> StatsSnapshot {
    StatsSnapshot {
        ii_attempts: g.next(),
        placements_tried: g.next(),
        backtracks: g.next(),
        routing_calls: g.next(),
        routing_failures: g.next(),
        moves_proposed: g.next(),
        moves_accepted: g.next(),
        nodes_expanded: g.next(),
        nodes_pruned: g.next(),
        solver_decisions: g.next(),
        solver_propagations: g.next(),
        solver_conflicts: g.next(),
        solver_restarts: g.next(),
        solver_assumption_solves: g.next(),
        solver_learnt_kept: g.next(),
        solver_learnt_gcd: g.next(),
        solver_warm_pivots_saved: g.next(),
        cancellations: g.next(),
        incumbents: g.next(),
    }
}

fn event(g: &mut Gen) -> LedgerEvent {
    let mapper = g.string();
    let kind = match g.below(7) {
        0 => EventKind::Incumbent {
            mapper,
            ii: g.u32(),
            cost: g.f64(),
        },
        1 => EventKind::RaceStart { mapper },
        2 => EventKind::RaceWin {
            mapper,
            ii: g.u32(),
        },
        3 => EventKind::RaceLoss {
            mapper,
            reason: g.string(),
        },
        4 => EventKind::BudgetExhausted { mapper },
        5 => EventKind::IiAttempt {
            mapper,
            ii: g.u32(),
        },
        _ => EventKind::Request {
            mapper,
            trace: g.string(),
        },
    };
    LedgerEvent {
        t_us: g.next(),
        kind,
    }
}

fn latency(g: &mut Gen) -> LatencySummary {
    LatencySummary {
        phase: g.string(),
        count: g.next(),
        p50_us: g.next(),
        p90_us: g.next(),
        p99_us: g.next(),
    }
}

fn utilization(g: &mut Gen) -> UtilizationMap {
    UtilizationMap {
        rows: g.u16(),
        cols: g.u16(),
        ii: g.u32(),
        fu_used: g.vec(4, Gen::u32),
        reg_used: g.vec(4, Gen::u32),
    }
}

/// A success (mapping + metrics) or a typed failure.
fn result(g: &mut Gen) -> (Option<Mapping>, Option<Metrics>, Option<MapError>) {
    if g.flag() {
        (Some(mapping(g)), Some(metrics(g)), None)
    } else {
        (None, None, Some(map_error(g)))
    }
}

fn entry(g: &mut Gen) -> PortfolioEntry {
    let (_, metrics, error) = result(g);
    PortfolioEntry {
        mapper: g.string(),
        family_label: g.string(),
        exact: g.flag(),
        spatial: g.flag(),
        kernel: g.string(),
        metrics,
        error: error.as_ref().map(|e| e.to_string()),
        diagnosis: error.as_ref().and_then(|e| e.diagnosis().cloned()),
        error_detail: error,
        compile_ms: g.f64(),
        stats: g.opt(stats),
        events: g.vec(3, event),
        events_dropped: g.next(),
        spans_dropped: g.next(),
        latency: g.vec(2, latency),
        utilization: g.opt(utilization),
    }
}

fn fabric(g: &mut Gen) -> FabricSpec {
    const TOPOLOGIES: [Topology; 4] = [
        Topology::Mesh,
        Topology::MeshPlus,
        Topology::Torus,
        Topology::OneHop,
    ];
    FabricSpec {
        rows: g.u16(),
        cols: g.u16(),
        topology: TOPOLOGIES[g.below(4) as usize],
        adres: g.flag(),
    }
}

fn request(g: &mut Gen) -> MapRequest {
    let kernel = if g.flag() {
        KernelSpec::Named(g.string())
    } else {
        KernelSpec::Source {
            source: g.string(),
            name: g.opt(Gen::string),
        }
    };
    MapRequest {
        id: g.next(),
        trace: g.string(),
        kernel,
        fabric: fabric(g),
        mapper: g.string(),
        mode: [ExecMode::Single, ExecMode::Race, ExecMode::ParallelIi][g.below(3) as usize],
        config: RequestConfig {
            max_ii: g.u32(),
            min_ii: g.u32(),
            horizon_factor: g.u32(),
            time_limit_ms: g.next(),
            seed: g.next(),
            effort: g.u32(),
            explain: g.flag(),
        },
    }
}

fn cache_status(g: &mut Gen) -> CacheStatus {
    [
        CacheStatus::Uncached,
        CacheStatus::Hit,
        CacheStatus::Miss,
        CacheStatus::Warm,
    ][g.below(4) as usize]
}

fn outcome(g: &mut Gen) -> MapOutcome {
    let (mapping, metrics, error) = result(g);
    MapOutcome {
        id: g.next(),
        trace: g.string(),
        kernel: g.string(),
        fabric: g.string(),
        mapper: g.string(),
        family: g.string(),
        exact: g.flag(),
        spatial: g.flag(),
        cache: cache_status(g),
        compile_ms: g.f64(),
        queue_us: g.next(),
        mapping,
        metrics,
        error,
        stats: g.opt(stats),
        events: g.vec(4, event),
        events_dropped: g.next(),
        spans_dropped: g.next(),
        latency: g.vec(3, latency),
        utilization: g.opt(utilization),
        race: g.vec(3, entry),
        race_wall_ms: g.f64(),
    }
}

fn report(g: &mut Gen) -> RunReport {
    let (_, metrics, error) = result(g);
    RunReport {
        version: RUN_REPORT_VERSION,
        instance: g.string(),
        arch: g.string(),
        mapper: g.string(),
        config: ConfigDigest {
            max_ii: g.u32(),
            min_ii: g.u32(),
            horizon_factor: g.u32(),
            time_limit_ms: g.next(),
            seed: g.next(),
            effort: g.u32(),
        },
        metrics,
        error: error.as_ref().map(|e| e.to_string()),
        diagnosis: error.as_ref().and_then(|e| e.diagnosis().cloned()),
        compile_ms: g.f64(),
        snapshot: g.opt(stats),
        events: g.vec(4, event),
        events_dropped: g.next(),
        spans_dropped: g.next(),
        latency: g.vec(3, latency),
        utilization: g.opt(utilization),
    }
}

fn access_record(g: &mut Gen) -> AccessRecord {
    AccessRecord {
        seq: g.next(),
        t_us: g.next(),
        trace: g.string(),
        id: g.next(),
        client: g.string(),
        kernel: g.string(),
        mapper: g.string(),
        cache: cache_status(g),
        queue_us: g.next(),
        server_us: g.next(),
        ii: g.u32(),
        error: g.opt(Gen::string),
    }
}

fn service_stats(g: &mut Gen) -> ServiceStats {
    ServiceStats {
        requests: g.next(),
        hits: g.next(),
        misses: g.next(),
        warm: g.next(),
        coalesced: g.next(),
        evictions: g.next(),
        disk_spills: g.next(),
        cancellations: g.next(),
        rejections: g.next(),
        cache_entries: g.next(),
        pooled_states: g.next(),
        running: g.next(),
        in_flight: g.next(),
        queue_depth: g.next(),
        cores: g.next(),
    }
}

/// Decode `x`'s wire form from the value tree and from rendered text.
fn decode_both<T: Serialize + Deserialize>(x: &T) -> (T, T) {
    let tree = x.to_value();
    let direct = T::from_value(&tree).unwrap_or_else(|e| panic!("decode: {e}\n{tree}"));
    let text = serde_json::from_str(&tree.render()).expect("rendered JSON reparses");
    let via_text = serde_json::from_value(text).unwrap_or_else(|e| panic!("{e}\n{tree}"));
    (direct, via_text)
}

fn same<T: Serialize + Deserialize + PartialEq + Debug>(x: &T) {
    let (direct, via_text) = decode_both(x);
    assert_eq!(&direct, x);
    assert_eq!(&via_text, x);
}

fn same_json<T: Serialize + Deserialize>(x: &T) {
    let (direct, via_text) = decode_both(x);
    let want = x.to_value().render();
    assert_eq!(direct.to_value().render(), want);
    assert_eq!(via_text.to_value().render(), want);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn every_wire_type_round_trips(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        same(&PeId(g.u16()));
        same(&mapping(g));
        same(&metrics(g));
        same(&utilization(g));
        same(&diagnosis(g));
        same(&map_error(g));
        same(&stats(g));
        same(&event(g));
        same(&latency(g));
        same(&fabric(g));
        same(&request(g));
        same(&cache_status(g));
        same(&access_record(g));
        same(&service_stats(g));
        same_json(&entry(g));
        same_json(&report(g));
        same_json(&outcome(g));
    }
}

#[test]
fn outcome_cases_cover_every_payload() {
    // The seeds above draw each payload at random; pin that the
    // generator really produces the combinations the audit promises.
    let outs: Vec<MapOutcome> = (0..64).map(|s| outcome(&mut Gen(s))).collect();
    assert!(outs.iter().any(|o| o.mapping.is_some()));
    assert!(outs
        .iter()
        .any(|o| o.error.as_ref().and_then(MapError::diagnosis).is_some()));
    assert!(outs.iter().any(|o| o.stats.is_some()));
    assert!(outs.iter().any(|o| o.utilization.is_some()));
    assert!(outs.iter().any(|o| !o.race.is_empty()));
}
