//! The map engine: shared budgets, cooperative cancellation, and
//! racing execution modes.
//!
//! Every mapper used to poll its own private `Instant` deadline, which
//! made two things impossible: running the whole Table I zoo against
//! *one* wall-clock budget, and stopping a losing search once a rival
//! had already won. This module centralises both:
//!
//! * [`Budget`] — a deadline plus a shared cancel flag, threaded
//!   through [`MapConfig`](crate::MapConfig) into every mapper and
//!   (via [`Budget::interrupt`]) into the solver engines, with a
//!   stride-amortised [`Budget::expired`] so the hot scheduling loops
//!   pay one relaxed atomic load per poll;
//! * [`race`] — SAT-MapIt-style portfolio racing: all jobs for one
//!   kernel run on the rayon pool under a shared budget, the first
//!   validated mapping (at the target II, if one is set) cancels the
//!   rest, and losers record [`MapError::Cancelled`] with their
//!   telemetry snapshots intact;
//! * [`parallel_ii`] — Walker & Anderson-style per-II sweeps: candidate
//!   IIs race concurrently instead of bottom-up, and a success at II
//!   *k* cancels every job above *k*. It is one order of the II sweep
//!   driver in [`crate::sweep`], which calls each mapper's `try_ii`
//!   per II.

pub use crate::sweep::parallel_ii;

use crate::mapper::{MapConfig, MapError, Mapper};
use crate::mapping::Mapping;
use crate::metrics::{Metrics, UtilizationMap};
use crate::portfolio::PortfolioEntry;
use crate::report::LatencySummary;
use crate::telemetry::{Counter, Telemetry};
use crate::validate::validate_with;
use cgra_arch::Fabric;
use cgra_ir::Dfg;
use cgra_solver::Interrupt;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning shares the flag; setting it is
/// one-way (there is no reset — budgets are per-run values).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Signal every budget sharing this token to stop.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    fn flag(&self) -> Arc<AtomicBool> {
        self.0.clone()
    }
}

/// A wall-clock deadline plus a shared cancel flag.
///
/// The hot-path poll is [`Budget::expired`]: the cancel flag is read on
/// every call (a relaxed load), the clock only on every
/// [`Interrupt::STRIDE`]-th call, counted per clone — so a `Budget`
/// can sit in a [`MapConfig`] shared across rayon workers without the
/// poll counter becoming a contended cache line ([`Clone`] resets it).
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    token: CancelToken,
    /// Amortisation counter for deadline polls (fresh per clone).
    probe: AtomicU32,
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget {
            deadline: self.deadline,
            token: self.token.clone(),
            probe: AtomicU32::new(0),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No deadline; stops only if cancelled.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// Expires `limit` from now.
    pub fn for_duration(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// Expires at `deadline`.
    pub fn until(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// A child budget sharing this budget's cancel token, with the
    /// deadline tightened to `min(self.deadline, now + limit)`. This is
    /// how a mapper's per-run `time_limit` composes with an externally
    /// imposed race deadline.
    pub fn child(&self, limit: Duration) -> Budget {
        let local = Instant::now() + limit;
        Budget {
            deadline: Some(self.deadline.map_or(local, |d| d.min(local))),
            token: self.token.clone(),
            probe: AtomicU32::new(0),
        }
    }

    /// A budget under this budget's deadline but with a *fresh* cancel
    /// token, for jobs that must be cancellable individually (per-II
    /// racing). The parent's token is not forwarded; the caller holds
    /// the fork handles and cancels them selectively.
    pub fn fork(&self, limit: Duration) -> Budget {
        let local = Instant::now() + limit;
        Budget {
            deadline: Some(self.deadline.map_or(local, |d| d.min(local))),
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// Amortised stop poll for hot loops: cancel flag every call, clock
    /// every [`Interrupt::STRIDE`]-th call.
    #[inline]
    pub fn expired(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.probe.fetch_add(1, Ordering::Relaxed) % Interrupt::STRIDE == 0 {
                return Instant::now() > deadline;
            }
        }
        false
    }

    /// Precise stop poll (always reads the clock). For cold paths:
    /// between II attempts, CEGAR rounds, SA sweeps.
    pub fn expired_now(&self) -> bool {
        self.token.is_cancelled() || matches!(self.deadline, Some(d) if Instant::now() > d)
    }

    /// Cancel every budget sharing this token.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// The shared token (to cancel from elsewhere).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` = unlimited, zero if past).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The error a mapper should return when this budget stopped it:
    /// [`MapError::Cancelled`] if the token fired (a rival won),
    /// [`MapError::Timeout`] if the clock ran out.
    pub fn error(&self) -> MapError {
        if self.token.is_cancelled() {
            MapError::Cancelled
        } else {
            MapError::Timeout
        }
    }

    /// The solver-side view of this budget: same deadline, same cancel
    /// flag, its own stride counter. Hand this to
    /// `SatSolver::interrupt`, `CpModel::set_interrupt`,
    /// `IlpModel::set_interrupt` so exact engines abort mid-search.
    pub fn interrupt(&self) -> Interrupt {
        Interrupt::new(self.deadline, Some(self.token.flag()))
    }
}

/// One mapper's result in a [`race`].
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// Name of the winning mapper, if any job produced a validated
    /// mapping (at the target II, when one was set).
    pub winner: Option<String>,
    /// The winning mapping.
    pub mapping: Option<Mapping>,
    /// Per-job rows, in mapper order — losers carry
    /// [`MapError::Cancelled`] and their telemetry snapshots.
    pub entries: Vec<PortfolioEntry>,
    /// Wall-clock for the whole race.
    pub wall_ms: f64,
}

impl RaceOutcome {
    /// Winning metrics, if the race was won.
    pub fn metrics(&self, dfg: &Dfg, fabric: &Fabric) -> Option<Metrics> {
        self.mapping.as_ref().map(|m| Metrics::of(m, dfg, fabric))
    }
}

/// Race every mapper on one kernel: jobs run on the rayon pool under a
/// shared budget derived from `cfg` (`cfg.budget` tightened by
/// `cfg.time_limit`); the first job whose mapping passes
/// [`validate`] — and meets `target_ii`, when given — cancels the
/// rest. Losing jobs record [`MapError::Cancelled`] with telemetry
/// snapshots intact, so the race still yields a full effort profile.
pub fn race(
    mappers: &[Box<dyn Mapper>],
    dfg: &Dfg,
    fabric: &Fabric,
    cfg: &MapConfig,
    target_ii: Option<u32>,
) -> RaceOutcome {
    // The race token must be local (`fork`, not `child`): the winner
    // cancels it to stop its rivals, and with a shared token that
    // cancel would outlive the race and poison the caller's budget for
    // every later run under the same config. External cancellation of
    // `cfg.budget` is still honoured at job boundaries below.
    let shared = cfg.budget.fork(cfg.time_limit);
    // One topology table shared by every job and the winner validation.
    let topo = cfg.topo_for(fabric);
    let winner: Mutex<Option<(String, Mapping)>> = Mutex::new(None);
    let start = Instant::now();

    // RaceStart events are emitted sequentially before the jobs spawn,
    // so every later RaceWin/RaceLoss lands after its start in the
    // ledger's claim order (ties in `t_us` resolve causally).
    for mapper in mappers {
        cfg.ledger.race_start(mapper.name());
    }

    let entries: Vec<PortfolioEntry> = mappers
        .par_iter()
        .map(|mapper| {
            let mut job_cfg = cfg.clone();
            job_cfg.telemetry = Telemetry::enabled();
            job_cfg.budget = shared.clone();
            job_cfg.topo = Some(Arc::clone(&topo));
            let job_start = Instant::now();
            // A job that only gets scheduled after the race is decided
            // (or after the caller cancelled the whole race) skips the
            // map call entirely.
            let result = if shared.is_cancelled() || cfg.budget.is_cancelled() {
                Err(MapError::Cancelled)
            } else {
                mapper.map(dfg, fabric, &job_cfg)
            };
            let compile_ms = job_start.elapsed().as_secs_f64() * 1e3;
            let mut won = false;
            let (metrics, utilization, error) = match result {
                Ok(m) => match validate_with(&m, dfg, fabric, &topo) {
                    Ok(()) => {
                        let metrics = Metrics::of(&m, dfg, fabric);
                        let utilization = UtilizationMap::of(&m, dfg, fabric);
                        let on_target = target_ii.is_none_or(|t| metrics.ii <= t);
                        if on_target {
                            let mut w = winner.lock().unwrap();
                            if w.is_none() {
                                *w = Some((mapper.name().to_string(), m));
                                shared.cancel();
                                won = true;
                                cfg.ledger.race_win(mapper.name(), metrics.ii);
                            }
                        }
                        (Some(metrics), Some(utilization), None)
                    }
                    Err(e) => (
                        None,
                        None,
                        Some(MapError::infeasible(format!("INVALID OUTPUT: {e}"))),
                    ),
                },
                Err(e) => (None, None, Some(e)),
            };
            if matches!(error, Some(MapError::Cancelled)) {
                job_cfg.telemetry.bump(Counter::Cancellations);
            }
            match &error {
                // Mapped successfully but another mapper (or a target
                // II miss) decided the race.
                None if !won => cfg.ledger.race_loss(mapper.name(), "beaten"),
                Some(e) => cfg.ledger.race_loss(mapper.name(), e.kind()),
                None => {}
            }
            let diagnosis = error.as_ref().and_then(|e| e.diagnosis().cloned());
            PortfolioEntry {
                mapper: mapper.name().to_string(),
                family_label: mapper.family().label().to_string(),
                exact: mapper.family().is_exact(),
                spatial: mapper.is_spatial(),
                kernel: dfg.name.clone(),
                metrics,
                error_detail: error.clone(),
                error: error.map(|e| e.to_string()),
                compile_ms,
                stats: job_cfg.telemetry.snapshot(),
                // Race jobs share the caller's ledger (the race
                // timeline lives there), so per-entry journals stay
                // empty.
                events: Vec::new(),
                events_dropped: 0,
                diagnosis,
                spans_dropped: job_cfg.telemetry.spans_dropped(),
                latency: LatencySummary::rows_from(&job_cfg.telemetry),
                utilization,
            }
        })
        .collect();

    let (winner, mapping) = match winner.into_inner().unwrap() {
        Some((name, m)) => (Some(name), Some(m)),
        None => (None, None),
    };
    if winner.is_none() && shared.expired_now() {
        cfg.ledger.budget_exhausted("race");
    }
    RaceOutcome {
        winner,
        mapping,
        entries,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappers::{ModuloList, SpatialGreedy};
    use crate::validate::validate;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(!b.expired());
        }
        assert!(!b.expired_now());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn cancel_is_seen_by_every_clone() {
        let b = Budget::for_duration(Duration::from_secs(3600));
        let c = b.clone();
        let child = b.child(Duration::from_secs(3600));
        b.cancel();
        assert!(c.expired());
        assert!(child.expired());
        assert_eq!(child.error(), MapError::Cancelled);
    }

    #[test]
    fn fork_is_isolated_from_siblings() {
        let parent = Budget::for_duration(Duration::from_secs(3600));
        let a = parent.fork(Duration::from_secs(3600));
        let b = parent.fork(Duration::from_secs(3600));
        a.cancel();
        assert!(a.expired_now());
        assert!(!b.expired_now());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn expired_deadline_reports_timeout() {
        let b = Budget::until(Instant::now() - Duration::from_millis(1));
        assert!(b.expired_now());
        assert_eq!(b.error(), MapError::Timeout);
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn interrupt_view_shares_the_token() {
        let b = Budget::unlimited();
        let i = b.interrupt();
        assert!(!i.should_stop_now());
        b.cancel();
        assert!(i.should_stop_now());
        assert!(i.is_cancelled());
    }

    #[test]
    fn race_produces_validated_winner() {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(SpatialGreedy::default()),
            Box::new(ModuloList::default()),
        ];
        let dfg = kernels::dot_product();
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let out = race(&mappers, &dfg, &fabric, &MapConfig::fast(), None);
        assert!(out.winner.is_some());
        let m = out.mapping.as_ref().unwrap();
        validate(m, &dfg, &fabric).unwrap();
        assert_eq!(out.entries.len(), 2);
        assert!(out.entries.iter().all(|e| e.stats.is_some()));
    }

    #[test]
    fn parallel_ii_journals_attempts_like_the_sequential_sweep() {
        use crate::ledger::{EventKind, Ledger};
        let mapper = ModuloList::default();
        let dfg = kernels::fir(4);
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let attempts = |l: &Ledger| -> Vec<(String, u32)> {
            l.events()
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::IiAttempt { mapper, ii } => Some((mapper.clone(), *ii)),
                    _ => None,
                })
                .collect()
        };
        let seq_ledger = Ledger::enabled();
        let seq_cfg = MapConfig {
            ledger: seq_ledger.clone(),
            ..MapConfig::fast()
        };
        let seq = mapper.map(&dfg, &fabric, &seq_cfg).unwrap();
        let par_ledger = Ledger::enabled();
        let par_cfg = MapConfig {
            ledger: par_ledger.clone(),
            ..MapConfig::fast()
        };
        let par = parallel_ii(&mapper, &dfg, &fabric, &par_cfg).unwrap();
        assert_eq!(par.ii, seq.ii);
        // The engine no longer double-emits on top of the mapper's own
        // journal: each (mapper, II) attempt appears exactly once, as
        // in the sequential sweep, so convergence views agree.
        let par_attempts = attempts(&par_ledger);
        let mut dedup = par_attempts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(par_attempts.len(), dedup.len(), "duplicate IiAttempt");
        assert!(par_attempts.contains(&("modulo-list".to_string(), par.ii)));
        assert!(attempts(&seq_ledger).contains(&("modulo-list".to_string(), seq.ii)));
    }

    #[test]
    fn parallel_ii_matches_bottom_up_ii() {
        let mapper = ModuloList::default();
        let dfg = kernels::fir(4);
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = MapConfig::fast();
        let seq = mapper.map(&dfg, &fabric, &cfg).unwrap();
        let par = parallel_ii(&mapper, &dfg, &fabric, &cfg).unwrap();
        validate(&par, &dfg, &fabric).unwrap();
        assert_eq!(par.ii, seq.ii);
    }
}
