//! The `Mapper` trait, configuration, errors, and the Table I taxonomy.

use crate::diagnosis::Diagnosis;
use crate::engine::Budget;
use crate::ledger::Ledger;
use crate::mapping::Mapping;
use crate::sweep::TemporalMapper;
use crate::telemetry::Telemetry;
use cgra_arch::{Fabric, TopologyCache};
use cgra_ir::Dfg;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The survey's Table I classification axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// Problem-specific constructive heuristics.
    Heuristic,
    /// Population-based meta-heuristics (GA, QEA).
    MetaPopulation,
    /// Local-search meta-heuristics (SA).
    MetaLocalSearch,
    /// ILP or branch-and-bound exact methods.
    ExactIlp,
    /// Constraint-satisfaction exact methods (CP, SAT, SMT).
    ExactCsp,
}

impl Family {
    /// Approximate vs exact — the top-level split of Table I.
    pub fn is_exact(self) -> bool {
        matches!(self, Family::ExactIlp | Family::ExactCsp)
    }

    pub fn label(self) -> &'static str {
        match self {
            Family::Heuristic => "heuristic",
            Family::MetaPopulation => "meta-heuristic (population)",
            Family::MetaLocalSearch => "meta-heuristic (local search)",
            Family::ExactIlp => "exact (ILP/B&B)",
            Family::ExactCsp => "exact (CSP)",
        }
    }
}

/// Mapper configuration and budgets.
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// Search IIs from `max(MII, min_ii)` up to this bound (inclusive).
    pub max_ii: u32,
    /// Floor on the II search (default 1).
    pub min_ii: u32,
    /// Cap on the schedule horizon, as a multiple of the critical path.
    pub horizon_factor: u32,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// RNG seed for stochastic mappers.
    pub seed: u64,
    /// Mapper-specific effort knob (SA sweeps, GA generations, B&B
    /// nodes in thousands, …).
    pub effort: u32,
    /// Optional search-telemetry sink. Disabled by default; when
    /// enabled, mappers record counters and phase spans into it. See
    /// [`crate::telemetry`].
    pub telemetry: Telemetry,
    /// Optional run-ledger journal. Disabled by default; when enabled,
    /// the engine and the instrumented mappers append timestamped
    /// events (incumbents, race outcomes, II probes) into it. See
    /// [`crate::ledger`].
    pub ledger: Ledger,
    /// Externally imposed budget (deadline + cancel token). Unlimited
    /// by default; mappers derive their per-run budget from it via
    /// [`MapConfig::run_budget`], so a racing engine can cancel a run
    /// mid-search through the shared token. See [`crate::engine`].
    pub budget: Budget,
    /// Optional shared topology cache. `None` by default; mappers
    /// obtain their per-run cache via [`MapConfig::topo_for`], which
    /// reuses this one when it matches the fabric and builds a private
    /// one otherwise. The racing engine pre-seeds it so every
    /// concurrent job shares a single table.
    pub topo: Option<Arc<TopologyCache>>,
    /// Let exact mappers reuse solver state between candidate IIs
    /// (assumption-based SAT, warm LP bases). On by default; switch off
    /// to force the from-scratch encoding path (the solver bench does
    /// this to measure the speedup).
    pub incremental: bool,
    /// Pool of reusable solver states, keyed by mapper × fabric ×
    /// kernel fingerprints (see [`crate::incremental`]). Shared across
    /// the per-II jobs of one sweep and, in a mapping-as-a-service
    /// setting, across repeated `map()` calls with the same config.
    pub incr: crate::incremental::IncrementalCtx,
    /// Failure forensics: when on, infeasible outcomes carry a
    /// structured [`Diagnosis`] (unsat-core probes in the exact
    /// mappers, the analytic MII decomposition everywhere). Off by
    /// default — the probes re-solve, so they cost real time on the
    /// failure path. See [`crate::diagnosis`].
    pub explain: bool,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            max_ii: 16,
            min_ii: 1,
            horizon_factor: 4,
            time_limit: Duration::from_secs(20),
            seed: 0xC6_12A,
            effort: 100,
            telemetry: Telemetry::off(),
            ledger: Ledger::off(),
            budget: Budget::unlimited(),
            topo: None,
            incremental: true,
            incr: crate::incremental::IncrementalCtx::new(),
            explain: false,
        }
    }
}

impl MapConfig {
    /// A quick-budget configuration for tests.
    pub fn fast() -> Self {
        MapConfig {
            max_ii: 8,
            time_limit: Duration::from_secs(10),
            effort: 20,
            ..Self::default()
        }
    }

    /// A validating builder (rejects zero II/horizon bounds).
    pub fn builder() -> MapConfigBuilder {
        MapConfigBuilder::default()
    }

    /// The budget one mapper run must obey: the externally imposed
    /// [`MapConfig::budget`] tightened by this config's `time_limit`.
    /// Replaces the per-mapper `Instant::now() + time_limit` deadlines.
    pub fn run_budget(&self) -> Budget {
        self.budget.child(self.time_limit)
    }

    /// The topology cache a run against `fabric` should use: the
    /// pre-seeded [`MapConfig::topo`] when its fingerprint matches the
    /// fabric (an `Arc` clone, no table rebuild), or a freshly built
    /// private cache otherwise. Mappers call this once per `map()` and
    /// thread the result through their search.
    pub fn topo_for(&self, fabric: &Fabric) -> Arc<TopologyCache> {
        match &self.topo {
            Some(t) if t.matches(fabric) => Arc::clone(t),
            _ => Arc::new(TopologyCache::build(fabric)),
        }
    }

    /// The II range a temporal mapper must search, given the kernel's
    /// MII — the entry guard of the II sweep driver. `Err` when the fabric
    /// lacks a required resource class (`mii == u32::MAX`) or the range
    /// is empty under `max_ii`/`context_depth`/`min_ii`.
    pub fn ii_range(&self, mii: u32, fabric: &Fabric) -> Result<(u32, u32), MapError> {
        if mii == u32::MAX {
            return Err(MapError::infeasible(
                "fabric lacks a required resource class",
            ));
        }
        let hi = self.max_ii.min(fabric.context_depth);
        let lo = mii.max(self.min_ii);
        if lo > hi {
            return Err(MapError::infeasible(format!(
                "MII {lo} exceeds the II bound {hi}"
            )));
        }
        Ok((lo, hi))
    }

    /// [`MapConfig::ii_range`] plus failure forensics: when the range
    /// is empty (or a required resource class is absent) and
    /// [`MapConfig::explain`] is on, the error carries the analytic
    /// MII-bound [`Diagnosis`] naming the binding resource class.
    pub fn ii_range_for(
        &self,
        dfg: &Dfg,
        mii: u32,
        fabric: &Fabric,
    ) -> Result<(u32, u32), MapError> {
        self.ii_range(mii, fabric).map_err(|e| match e {
            MapError::Infeasible(mut inf) if self.explain => {
                let hi = self.max_ii.min(fabric.context_depth);
                inf.diagnosis = Some(Box::new(crate::diagnosis::diagnose_mii_bound(
                    dfg, fabric, hi,
                )));
                MapError::Infeasible(inf)
            }
            other => other,
        })
    }
}

/// Builder for [`MapConfig`] that validates bounds at `build()`.
///
/// ```
/// use cgra_mapper_core::MapConfig;
/// use std::time::Duration;
///
/// let cfg = MapConfig::builder()
///     .max_ii(8)
///     .time_limit(Duration::from_secs(5))
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_ii, 8);
/// assert!(MapConfig::builder().max_ii(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapConfigBuilder {
    cfg: MapConfig,
}

impl MapConfigBuilder {
    /// Seed a builder from a request's canonical config — the bridge
    /// between the serializable [`MapRequest`](crate::request::MapRequest)
    /// API and the in-process config. Callers chain the non-canonical
    /// process-local fields (telemetry, ledger, budget, topo, incr)
    /// before `build()`.
    pub fn from_request(req: &crate::request::MapRequest) -> MapConfigBuilder {
        MapConfig::builder()
            .max_ii(req.config.max_ii)
            .min_ii(req.config.min_ii)
            .horizon_factor(req.config.horizon_factor)
            .time_limit(Duration::from_millis(req.config.time_limit_ms))
            .seed(req.config.seed)
            .effort(req.config.effort)
            .explain(req.config.explain)
    }

    pub fn max_ii(mut self, max_ii: u32) -> Self {
        self.cfg.max_ii = max_ii;
        self
    }

    pub fn min_ii(mut self, min_ii: u32) -> Self {
        self.cfg.min_ii = min_ii;
        self
    }

    pub fn horizon_factor(mut self, horizon_factor: u32) -> Self {
        self.cfg.horizon_factor = horizon_factor;
        self
    }

    pub fn time_limit(mut self, time_limit: Duration) -> Self {
        self.cfg.time_limit = time_limit;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn effort(mut self, effort: u32) -> Self {
        self.cfg.effort = effort;
        self
    }

    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    pub fn ledger(mut self, ledger: Ledger) -> Self {
        self.cfg.ledger = ledger;
        self
    }

    pub fn budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Pre-seed the shared topology cache (see [`MapConfig::topo`]).
    pub fn topo(mut self, topo: Arc<TopologyCache>) -> Self {
        self.cfg.topo = Some(topo);
        self
    }

    /// Enable/disable incremental solver-state reuse (see
    /// [`MapConfig::incremental`]).
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.cfg.incremental = incremental;
        self
    }

    /// Attach an existing incremental-state pool (see
    /// [`MapConfig::incr`]).
    pub fn incr(mut self, incr: crate::incremental::IncrementalCtx) -> Self {
        self.cfg.incr = incr;
        self
    }

    /// Enable failure forensics (see [`MapConfig::explain`]).
    pub fn explain(mut self, explain: bool) -> Self {
        self.cfg.explain = explain;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<MapConfig, ConfigError> {
        let c = &self.cfg;
        if c.max_ii == 0 {
            return Err(ConfigError("max_ii must be at least 1".into()));
        }
        if c.min_ii == 0 {
            return Err(ConfigError("min_ii must be at least 1".into()));
        }
        if c.min_ii > c.max_ii {
            return Err(ConfigError(format!(
                "min_ii {} exceeds max_ii {}",
                c.min_ii, c.max_ii
            )));
        }
        if c.horizon_factor == 0 {
            return Err(ConfigError("horizon_factor must be at least 1".into()));
        }
        if c.time_limit.is_zero() {
            return Err(ConfigError("time_limit must be positive".into()));
        }
        Ok(self.cfg)
    }
}

/// An invalid [`MapConfig`] rejected by the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid map config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The structured payload of [`MapError::Infeasible`]: the classic
/// prose reason plus, when failure forensics ran, a machine-readable
/// [`Diagnosis`] attributing the failure to a resource class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Infeasibility {
    /// Human-readable reason (what the old `Infeasible(String)` held).
    pub why: String,
    /// Structured attribution, present when [`MapConfig::explain`] was
    /// on and a diagnosis could be extracted. Boxed so the common
    /// no-diagnosis error stays small on the `Result` hot paths.
    pub diagnosis: Option<Box<Diagnosis>>,
}

impl fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.why)?;
        if let Some(d) = &self.diagnosis {
            write!(f, " [{}-bound]", d.class.label())?;
        }
        Ok(())
    }
}

impl<S: Into<String>> From<S> for Infeasibility {
    fn from(why: S) -> Self {
        Infeasibility {
            why: why.into(),
            diagnosis: None,
        }
    }
}

/// Why a mapper failed. Structured and serializable so `--json`
/// consumers can dispatch on the variant instead of parsing prose.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapError {
    /// Proven or suspected infeasible within the II/horizon bounds.
    Infeasible(Infeasibility),
    /// Budget exhausted before a valid mapping was found.
    Timeout,
    /// The run was cancelled through its budget's token (e.g. a rival
    /// mapper won a portfolio race first).
    Cancelled,
    /// The DFG uses a feature the mapper does not support.
    Unsupported(String),
}

impl MapError {
    /// An [`MapError::Infeasible`] with no diagnosis attached — the
    /// construction every mapper uses on its plain failure paths.
    pub fn infeasible(why: impl Into<String>) -> Self {
        MapError::Infeasible(Infeasibility {
            why: why.into(),
            diagnosis: None,
        })
    }

    /// An [`MapError::Infeasible`] carrying failure forensics.
    pub fn infeasible_with(why: impl Into<String>, diagnosis: Diagnosis) -> Self {
        MapError::Infeasible(Infeasibility {
            why: why.into(),
            diagnosis: Some(Box::new(diagnosis)),
        })
    }

    /// The diagnosis, if this is an explained infeasibility.
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match self {
            MapError::Infeasible(inf) => inf.diagnosis.as_deref(),
            _ => None,
        }
    }

    /// Stable machine-readable discriminant for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            MapError::Infeasible(_) => "infeasible",
            MapError::Timeout => "timeout",
            MapError::Cancelled => "cancelled",
            MapError::Unsupported(_) => "unsupported",
        }
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Infeasible(why) => write!(f, "infeasible: {why}"),
            MapError::Timeout => write!(f, "budget exhausted"),
            MapError::Cancelled => write!(f, "cancelled: budget token fired"),
            MapError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A mapping technique. Implementations must return mappings that pass
/// [`crate::validate::validate`].
pub trait Mapper: Send + Sync {
    /// Short name used in reports ("modulo-list", "sa", "ilp", …).
    fn name(&self) -> &'static str;

    /// Taxonomy cell for the Table I reproduction.
    fn family(&self) -> Family;

    /// True if the mapper produces spatial (II = 1, one-op-per-PE)
    /// mappings rather than temporal ones.
    fn is_spatial(&self) -> bool {
        false
    }

    /// The mapper's II-sweep step, for temporal mappers that implement
    /// [`TemporalMapper`] (they return `Some(self)`).
    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        None
    }

    /// Map `dfg` onto `fabric`. Temporal mappers inherit this: the
    /// bottom-up (or binary) II sweep of [`crate::sweep`] over their
    /// [`TemporalMapper::try_ii`].
    fn map(&self, dfg: &Dfg, fabric: &Fabric, cfg: &MapConfig) -> Result<Mapping, MapError> {
        match self.temporal() {
            Some(t) => crate::sweep::sweep(t, dfg, fabric, cfg, false),
            None => Err(MapError::Unsupported(format!(
                "{} implements neither map nor try_ii",
                self.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_split() {
        assert!(Family::ExactIlp.is_exact());
        assert!(Family::ExactCsp.is_exact());
        assert!(!Family::Heuristic.is_exact());
        assert!(!Family::MetaPopulation.is_exact());
    }

    #[test]
    fn config_defaults_sane() {
        let c = MapConfig::default();
        assert!(c.max_ii >= 4);
        assert!(c.horizon_factor >= 1);
        let f = MapConfig::fast();
        assert!(f.time_limit <= c.time_limit);
    }
}
