//! The II sweep driver: the one outer loop of every temporal mapper.
//!
//! The survey's temporal mappers share modulo scheduling's outer loop:
//! start at the analytic MII and raise the II until a mapping is found.
//! A mapper implements only the inner step, [`TemporalMapper::try_ii`];
//! this module owns everything around it:
//!
//! * entry: `dfg.validate`, the MII, [`MapConfig::ii_range_for`], the
//!   shared topology table and the run budget, gathered into one
//!   [`SweepCtx`];
//! * per II: [`Counter::IiAttempts`], the `ii_attempt` ledger event, the
//!   `Phase::Map` span, the incumbent event on success, and the budget
//!   poll between IIs;
//! * exit: the exhausted-range infeasibility (with the mapper's
//!   [`TemporalMapper::diagnose`] attached under `explain`) and the
//!   `budget_exhausted` ledger event on a timeout.
//!
//! Three sweep orders run the same steps: bottom-up and binary
//! ([`IiSearch`]) sequentially through [`Mapper::map`], and the
//! Walker & Anderson-style per-II race through
//! [`crate::engine::parallel_ii`], where a success at II *k* cancels
//! every job above *k*.

use crate::diagnosis::Diagnosis;
use crate::engine::Budget;
use crate::ledger::Ledger;
use crate::mapper::{MapConfig, MapError, Mapper};
use crate::mapping::Mapping;
use crate::telemetry::{Counter, Phase, Telemetry};
use crate::validate::validate_with;
use cgra_arch::{Fabric, TopologyCache};
use cgra_ir::Dfg;
use rayon::prelude::*;
use std::any::Any;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// How the II space is searched — an ablation axis (DESIGN.md §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IiSearch {
    /// Bottom-up from MII (guarantees minimal II among found).
    #[default]
    BottomUp,
    /// Binary search between MII and `max_ii` (fewer, bigger probes).
    Binary,
}

/// Everything one II attempt needs, built once per sweep.
#[derive(Clone)]
pub struct SweepCtx<'a> {
    pub dfg: &'a Dfg,
    pub fabric: &'a Fabric,
    /// Mapper-specific knobs (`effort`, `incremental`, `incr`, …). The
    /// budget, topology and II bounds below supersede its fields.
    pub cfg: &'a MapConfig,
    /// The topology table shared by every attempt of the sweep.
    pub topo: Arc<TopologyCache>,
    /// The budget of this attempt: the run budget, or one per-II job's
    /// fork of it in a parallel sweep.
    pub budget: Budget,
    pub telemetry: &'a Telemetry,
    pub ledger: &'a Ledger,
    pub seed: u64,
    pub explain: bool,
    /// The analytic MII.
    pub mii: u32,
    /// The II range swept, `lo..=hi`.
    pub lo: u32,
    pub hi: u32,
    state: Option<Arc<dyn Any + Send + Sync>>,
}

impl SweepCtx<'_> {
    /// The state [`TemporalMapper::prepare`] built for this sweep, if it
    /// built one of type `T`.
    pub fn state<T: Any>(&self) -> Option<&T> {
        self.state.as_deref()?.downcast_ref()
    }
}

/// A mapper that searches the II space one candidate at a time. The
/// driver calls [`TemporalMapper::try_ii`] per II, in the order it
/// chooses; the other methods are optional hooks.
///
/// `prepare` runs once before the first attempt and `finish` once
/// after the last, on every path (success, exhaustion, timeout); state
/// a mapper keeps across IIs lives between them, reached through
/// [`SweepCtx::state`]. In a parallel sweep `try_ii` runs concurrently
/// for different IIs against the same state.
pub trait TemporalMapper: Mapper {
    /// Attempt one II. `Ok(None)` moves the sweep on to the next II;
    /// `Err` stops it (a budget stop, or a failure no II can fix).
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError>;

    /// The order the sequential sweep visits IIs in.
    fn order(&self) -> IiSearch {
        IiSearch::BottomUp
    }

    /// Build the cross-II state of one sweep.
    fn prepare(&self, _ctx: &SweepCtx<'_>) -> Option<Box<dyn Any + Send + Sync>> {
        None
    }

    /// Park the cross-II state (e.g. in [`MapConfig::incr`]).
    fn finish(&self, _ctx: &SweepCtx<'_>) {}

    /// Failure forensics for an exhausted range, probed at `ii` (the
    /// top of the range) under a fresh budget. Called only with
    /// `explain` on.
    fn diagnose(&self, _ctx: &SweepCtx<'_>, _ii: u32) -> Option<Diagnosis> {
        None
    }
}

/// Race the candidate IIs concurrently instead of bottom-up: one job
/// per II, each under its own forked budget; a validated mapping at II
/// *k* cancels every job above *k*, and the smallest successful II
/// wins. Mappers without an II sweep (spatial, SMT's horizon probes)
/// fall through to a plain [`Mapper::map`] call.
pub fn parallel_ii(
    mapper: &dyn Mapper,
    dfg: &Dfg,
    fabric: &Fabric,
    cfg: &MapConfig,
) -> Result<Mapping, MapError> {
    match mapper.temporal() {
        Some(t) => sweep(t, dfg, fabric, cfg, true),
        None => mapper.map(dfg, fabric, cfg),
    }
}

/// Sweep `mapper`'s II range: sequentially in its [`TemporalMapper::order`]
/// (behind every temporal mapper's [`Mapper::map`]), or as a per-II race.
pub(crate) fn sweep(
    mapper: &dyn TemporalMapper,
    dfg: &Dfg,
    fabric: &Fabric,
    cfg: &MapConfig,
    parallel: bool,
) -> Result<Mapping, MapError> {
    dfg.validate()
        .map_err(|e| MapError::Unsupported(e.to_string()))?;
    let mii = crate::mappers::ModuloList::mii(dfg, fabric);
    let (lo, hi) = cfg.ii_range_for(dfg, mii, fabric)?;
    let mut ctx = SweepCtx {
        dfg,
        fabric,
        cfg,
        topo: cfg.topo_for(fabric),
        budget: cfg.run_budget(),
        telemetry: &cfg.telemetry,
        ledger: &cfg.ledger,
        seed: cfg.seed,
        explain: cfg.explain,
        mii,
        lo,
        hi,
        state: None,
    };
    let out = if ctx.budget.expired_now() {
        Err(ctx.budget.error())
    } else {
        ctx.state = mapper.prepare(&ctx).map(Arc::from);
        let out = if parallel && lo < hi {
            race_iis(mapper, &ctx)
        } else {
            match mapper.order() {
                IiSearch::BottomUp => bottom_up(mapper, &ctx),
                IiSearch::Binary => binary(mapper, &ctx),
            }
        };
        mapper.finish(&ctx);
        out
    };
    match out {
        Ok(Some(m)) => Ok(m),
        Ok(None) => {
            let why = format!("no II in {lo}..={hi} admits a schedule");
            let probe = SweepCtx {
                budget: cfg.run_budget(),
                ..ctx
            };
            let diagnosis = if probe.explain {
                mapper.diagnose(&probe, hi)
            } else {
                None
            };
            match diagnosis {
                Some(d) => Err(MapError::infeasible_with(why, d)),
                None => Err(MapError::infeasible(why)),
            }
        }
        Err(MapError::Timeout) => {
            cfg.ledger.budget_exhausted(mapper.name());
            Err(MapError::Timeout)
        }
        Err(e) => Err(e),
    }
}

/// One II attempt with the driver's bookkeeping around it.
fn attempt(
    mapper: &dyn TemporalMapper,
    ctx: &SweepCtx<'_>,
    ii: u32,
) -> Result<Option<Mapping>, MapError> {
    ctx.telemetry.bump(Counter::IiAttempts);
    ctx.ledger.ii_attempt(mapper.name(), ii);
    let out = {
        let _span = ctx.telemetry.span_ii(Phase::Map, ii);
        mapper.try_ii(ctx, ii)
    };
    if let Ok(Some(_)) = out {
        ctx.telemetry.bump(Counter::Incumbents);
        ctx.ledger.incumbent(mapper.name(), ii, ii as f64);
    }
    out
}

fn bottom_up(mapper: &dyn TemporalMapper, ctx: &SweepCtx<'_>) -> Result<Option<Mapping>, MapError> {
    for ii in ctx.lo..=ctx.hi {
        if let Some(m) = attempt(mapper, ctx, ii)? {
            return Ok(Some(m));
        }
        if ctx.budget.expired_now() {
            return Err(ctx.budget.error());
        }
    }
    Ok(None)
}

/// Binary search for the smallest succeeding II. Feasibility is not
/// monotone for greedy schedulers, but this is the classic fast probe:
/// the smallest II in the probe set that succeeds.
fn binary(mapper: &dyn TemporalMapper, ctx: &SweepCtx<'_>) -> Result<Option<Mapping>, MapError> {
    let (mut lo, mut hi) = (ctx.lo, ctx.hi);
    let mut best = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match attempt(mapper, ctx, mid)? {
            Some(m) => {
                best = Some(m);
                if mid == lo {
                    break;
                }
                hi = mid - 1;
            }
            None => lo = mid + 1,
        }
        if ctx.budget.expired_now() {
            return best.map(Some).ok_or_else(|| ctx.budget.error());
        }
    }
    Ok(best)
}

fn race_iis(mapper: &dyn TemporalMapper, ctx: &SweepCtx<'_>) -> Result<Option<Mapping>, MapError> {
    let iis: Vec<u32> = (ctx.lo..=ctx.hi).collect();
    // One individually cancellable budget per II job.
    let budgets: Vec<Budget> = iis
        .iter()
        .map(|_| ctx.budget.fork(ctx.cfg.time_limit))
        .collect();
    let best: Mutex<Option<(u32, Mapping)>> = Mutex::new(None);
    let best_ii = AtomicU32::new(u32::MAX);

    let errors: Vec<Option<MapError>> = (0..iis.len())
        .into_par_iter()
        .map(|j| {
            let ii = iis[j];
            // Dominated before it started (a lower II already won, or
            // the whole sweep was cancelled from outside).
            if best_ii.load(Ordering::Acquire) <= ii || ctx.budget.is_cancelled() {
                ctx.telemetry.bump(Counter::Cancellations);
                return Some(MapError::Cancelled);
            }
            let job = SweepCtx {
                budget: budgets[j].clone(),
                ..ctx.clone()
            };
            match attempt(mapper, &job, ii) {
                Ok(Some(m)) => {
                    if validate_with(&m, ctx.dfg, ctx.fabric, &ctx.topo).is_err() {
                        return Some(MapError::infeasible(format!("INVALID OUTPUT at II {ii}")));
                    }
                    let mut b = best.lock().expect("no job panics holding the incumbent");
                    if b.as_ref().is_none_or(|(bi, _)| ii < *bi) {
                        *b = Some((ii, m));
                        best_ii.fetch_min(ii, Ordering::AcqRel);
                        // Cancel every job chasing a worse II.
                        for (k, budget) in budgets.iter().enumerate() {
                            if iis[k] > ii {
                                budget.cancel();
                            }
                        }
                    }
                    None
                }
                Ok(None) => None,
                Err(e) => {
                    // A job cancelled mid-search (a lower II validated
                    // while it was running) counts like one skipped
                    // before starting.
                    if matches!(e, MapError::Cancelled) {
                        ctx.telemetry.bump(Counter::Cancellations);
                    }
                    Some(e)
                }
            }
        })
        .collect();

    if let Some((_, m)) = best
        .into_inner()
        .expect("no job panics holding the incumbent")
    {
        return Ok(Some(m));
    }
    if ctx.budget.is_cancelled() {
        return Err(MapError::Cancelled);
    }
    // No II succeeded: surface the lowest II's stop, as the sequential
    // sweep would have stopped there.
    match errors
        .into_iter()
        .flatten()
        .find(|e| !matches!(e, MapError::Cancelled))
    {
        Some(e) => Err(e),
        None if ctx.budget.expired_now() => Err(ctx.budget.error()),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappers::{IlpMapper, SatMapper};
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    /// A 1x8 line whose only I/O cell (pe0) sits 7 hops from its only
    /// multiplier (pe7): the dot product's input → mul → add → output
    /// round trip fits no placement window at IIs 3..=6.
    fn far_apart_line() -> Fabric {
        let mut f = Fabric::homogeneous(1, 8, Topology::Mesh);
        for (pe, cell) in f.cells.iter_mut().enumerate() {
            cell.io = pe == 0;
            cell.mul = pe == 7;
        }
        f
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_on_the_diagnosis() {
        let (dfg, fabric) = (kernels::dot_product(), far_apart_line());
        // A fresh config (and solver-state pool) per run, so the
        // parallel sweep solves instead of replaying pooled proofs.
        let cfg = || MapConfig {
            max_ii: 6,
            explain: true,
            ..MapConfig::fast()
        };
        for mapper in [&SatMapper::default() as &dyn Mapper, &IlpMapper::default()] {
            let seq = mapper.map(&dfg, &fabric, &cfg()).unwrap_err();
            let par = parallel_ii(mapper, &dfg, &fabric, &cfg()).unwrap_err();
            let d = seq.diagnosis();
            assert!(d.is_some(), "{}: {seq}", mapper.name());
            assert_eq!(d, par.diagnosis(), "{}", mapper.name());
            assert_eq!(seq, par, "{}", mapper.name());
        }
    }
}
