//! Run-ledger invariants across the whole mapper zoo.
//!
//! Two guarantees matter for downstream consumers (cgra-report diffs,
//! the CI baseline gate):
//!
//! 1. **Determinism** — two runs of the same mapper with the same seed
//!    produce the same event sequence (kinds, mappers, IIs, costs);
//!    only the timestamps differ. Ledger emissions sit at sequential
//!    code points, never inside racing rayon closures, so this holds
//!    for every registry mapper.
//! 2. **Causality** — event timestamps are monotone in journal order,
//!    and a `RaceWin` is always preceded by the matching `RaceStart`.

use cgra_arch::{Fabric, Topology};
use cgra_ir::kernels;
use cgra_mapper_core::prelude::*;
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn mesh() -> Fabric {
    Fabric::homogeneous(4, 4, Topology::Mesh)
}

fn run_with_ledger(spec: &MapperSpec, seed: u64) -> (Result<u32, String>, Vec<LedgerEvent>) {
    let ledger = Ledger::enabled();
    let cfg = MapConfig {
        seed,
        ledger: ledger.clone(),
        ..MapConfig::fast()
    };
    let dfg = kernels::dot_product();
    let fabric = mesh();
    let out = spec
        .build()
        .map(&dfg, &fabric, &cfg)
        .map(|m| m.ii)
        .map_err(|e| e.to_string());
    (out, ledger.events())
}

/// The deterministic identity of an event: everything but `t_us`.
fn shape(e: &LedgerEvent) -> EventKind {
    e.kind.clone()
}

#[test]
fn same_seed_runs_emit_identical_ledgers() {
    for spec in MapperRegistry::standard().specs() {
        let (out_a, events_a) = run_with_ledger(spec, 7);
        let (out_b, events_b) = run_with_ledger(spec, 7);
        assert_eq!(out_a, out_b, "{}: outcome diverged across runs", spec.name);
        let shapes_a: Vec<EventKind> = events_a.iter().map(shape).collect();
        let shapes_b: Vec<EventKind> = events_b.iter().map(shape).collect();
        assert_eq!(
            shapes_a, shapes_b,
            "{}: same-seed runs produced different ledgers",
            spec.name
        );
        assert!(
            !shapes_a.is_empty(),
            "{}: an instrumented mapper must journal at least one event",
            spec.name
        );
        // On a timed-out run the sequential and the per-II parallel
        // sweep follow one budget rule: the same event kinds, in the
        // same order.
        if !spec.spatial {
            let seq = timed_out_kinds(spec, false);
            assert_eq!(seq, timed_out_kinds(spec, true), "{}", spec.name);
            assert!(seq.contains(&"budget_exhausted"), "{}: {seq:?}", spec.name);
        }
    }
}

/// Event kinds of a run whose budget expired before it started.
fn timed_out_kinds(spec: &MapperSpec, parallel: bool) -> Vec<&'static str> {
    let ledger = Ledger::enabled();
    let cfg = MapConfig {
        ledger: ledger.clone(),
        budget: Budget::until(Instant::now() - Duration::from_millis(1)),
        ..MapConfig::fast()
    };
    let (dfg, fabric, mapper) = (kernels::fir(4), mesh(), spec.build());
    let out = if parallel {
        parallel_ii(&*mapper, &dfg, &fabric, &cfg)
    } else {
        mapper.map(&dfg, &fabric, &cfg)
    };
    assert_eq!(out.err(), Some(MapError::Timeout), "{}", spec.name);
    ledger.events().iter().map(|e| e.kind.label()).collect()
}

/// The `ii_attempts` counter and the journal count the same thing: one
/// per II probed. fir4 on a 4x4 mesh makes HiMap grow its region radius
/// inside an II, which must not count as another attempt.
#[test]
fn ii_attempt_counter_matches_journal() {
    for spec in MapperRegistry::standard().specs() {
        if spec.spatial {
            continue;
        }
        let ledger = Ledger::enabled();
        let cfg = MapConfig {
            telemetry: Telemetry::enabled(),
            ledger: ledger.clone(),
            time_limit: Duration::from_secs(3),
            ..MapConfig::fast()
        };
        let _ = spec.build().map(&kernels::fir(4), &mesh(), &cfg);
        let journaled = ledger
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::IiAttempt { .. }))
            .count() as u64;
        let counted = cfg.telemetry.snapshot().unwrap().ii_attempts;
        assert!(journaled >= 1, "{}: no attempt journaled", spec.name);
        assert_eq!(counted, journaled, "{}", spec.name);
    }
}

#[test]
fn every_mapper_journals_an_ii_attempt() {
    for spec in MapperRegistry::standard().specs() {
        let (_, events) = run_with_ledger(spec, 11);
        let has_attempt = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::IiAttempt { .. }));
        // Spatial mappers have no II loop; everyone else probes IIs.
        if !spec.spatial {
            assert!(has_attempt, "{}: no IiAttempt event", spec.name);
        }
    }
}

#[test]
fn race_timeline_is_complete() {
    let registry = MapperRegistry::standard();
    let mappers: Vec<Box<dyn Mapper>> = ["modulo-list", "spatial-greedy", "edge-centric"]
        .iter()
        .map(|n| registry.build(n).unwrap())
        .collect();
    let ledger = Ledger::enabled();
    let cfg = MapConfig {
        ledger: ledger.clone(),
        ..MapConfig::fast()
    };
    let dfg = kernels::dot_product();
    let fabric = mesh();
    let out = race(&mappers, &dfg, &fabric, &cfg, None);
    assert!(out.winner.is_some());
    let events = ledger.events();
    let starts = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceStart { .. }))
        .count();
    assert_eq!(starts, mappers.len(), "one RaceStart per entrant");
    let wins = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceWin { .. }))
        .count();
    assert_eq!(wins, 1, "exactly one winner");
    // Every mapper's fate is recorded: win or loss.
    let losses = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceLoss { .. }))
        .count();
    assert_eq!(wins + losses, mappers.len(), "every entrant resolves");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Ledger causality under real racing: timestamps are monotone in
    /// journal order, and any RaceWin is preceded by the matching
    /// mapper's RaceStart.
    #[test]
    fn race_ledgers_are_causal(seed in any::<u64>(), extra in 0usize..3) {
        let registry = MapperRegistry::standard();
        let pool = ["modulo-list", "spatial-greedy", "edge-centric", "graph-drawing", "ramp"];
        let names = &pool[..2 + extra];
        let mappers: Vec<Box<dyn Mapper>> =
            names.iter().map(|n| registry.build(n).unwrap()).collect();
        let ledger = Ledger::enabled();
        let cfg = MapConfig {
            seed,
            time_limit: Duration::from_secs(10),
            ledger: ledger.clone(),
            ..MapConfig::fast()
        };
        let dfg = kernels::fir(4);
        let fabric = mesh();
        let _ = race(&mappers, &dfg, &fabric, &cfg, None);
        let events = ledger.events();

        // Monotone timestamps.
        for w in events.windows(2) {
            prop_assert!(w[0].t_us <= w[1].t_us, "timestamps out of order");
        }

        // RaceWin implies an earlier RaceStart for the same mapper.
        for (i, e) in events.iter().enumerate() {
            if let EventKind::RaceWin { mapper, .. } = &e.kind {
                let started_before = events[..i].iter().any(|p| {
                    matches!(&p.kind, EventKind::RaceStart { mapper: m } if m == mapper)
                });
                prop_assert!(started_before, "{mapper} won without a RaceStart");
            }
        }
    }
}
