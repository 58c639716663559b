//! Constraint-programming mapping (Raffin, Wolinski, Charot &
//! Kuchcinski lineage — DASIP 2010, built on the JaCoP CP solver).
//!
//! One finite-domain variable per operation over its candidate-position
//! indices; binary compatibility constraints per edge (latency + hop
//! feasibility on the TEC) and pairwise FU-exclusivity constraints;
//! solved by the AC-3 + MRV engine of [`cgra_solver::CpModel`]. A
//! CEGAR loop blocks placements the router cannot realise.

use super::exact_common::{add_solver_stats, edge_compatible, realise, PositionSpace, SweepSpace};
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use crate::telemetry::Counter;
use cgra_arch::PeId;
use cgra_solver::cp::CpConfig;
use cgra_solver::{CpModel, CpSolution, CpVar};
use std::any::Any;
use std::sync::Arc;

/// The CP mapper.
#[derive(Debug, Clone)]
pub struct CpMapper {
    pub position_cap: Option<usize>,
    pub cegar_rounds: u32,
    pub window_iis: u32,
}

impl Default for CpMapper {
    fn default() -> Self {
        CpMapper {
            position_cap: Some(40),
            cegar_rounds: 12,
            window_iis: 2,
        }
    }
}

impl Mapper for CpMapper {
    fn name(&self) -> &'static str {
        "cp"
    }

    fn family(&self) -> Family {
        Family::ExactCsp
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for CpMapper {
    /// Incremental sweeps build the union space once and view each II's
    /// lists out of it, so the II-independent structural work (ASAP
    /// levels, capability filtering, window sorting) is not redone per
    /// II.
    fn prepare(&self, ctx: &SweepCtx<'_>) -> Option<Box<dyn Any + Send + Sync>> {
        let iis: Vec<u32> = (ctx.lo..=ctx.hi).collect();
        ctx.cfg.incremental.then(|| {
            Box::new(SweepSpace::build(
                ctx.dfg,
                ctx.fabric,
                &iis,
                self.window_iis,
                self.position_cap,
            )) as Box<dyn Any + Send + Sync>
        })
    }

    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric, topo, budget, tele) =
            (ctx.dfg, ctx.fabric, &ctx.topo, &ctx.budget, ctx.telemetry);
        let space = match ctx.state::<SweepSpace>() {
            Some(sweep) => sweep.per_ii((ii - ctx.lo) as usize),
            None => PositionSpace::build(dfg, fabric, ii, self.window_iis, self.position_cap),
        };
        let mut blocked: Vec<Vec<(PeId, u32)>> = Vec::new();

        for round in 0..self.cegar_rounds.max(1) {
            if budget.expired_now() {
                return Err(budget.error());
            }
            let mut model = CpModel::new();
            let vars: Vec<CpVar> = space
                .positions
                .iter()
                .map(|ps| model.add_var(ps.len().max(1) as u32))
                .collect();
            for (o, ps) in space.positions.iter().enumerate() {
                if ps.is_empty() {
                    return Ok(None);
                }
                let _ = o;
            }

            // Edge compatibility.
            for (_, e) in dfg.edges() {
                let src_op = dfg.op(e.src);
                let sp: Vec<(PeId, u32)> = space.positions[e.src.index()].clone();
                let dp: Vec<(PeId, u32)> = space.positions[e.dst.index()].clone();
                let fabric2 = fabric.clone();
                let topo2 = Arc::clone(topo);
                let dist = e.dist;
                if e.src == e.dst {
                    // Self edge: the position must be self-compatible.
                    for (k, &a) in sp.iter().enumerate() {
                        if !edge_compatible(fabric, topo, ii, src_op, dist, a, a) {
                            model.forbid(vars[e.src.index()], k as u32);
                        }
                    }
                } else {
                    model.binary_table(vars[e.src.index()], vars[e.dst.index()], move |a, b| {
                        edge_compatible(
                            &fabric2,
                            &topo2,
                            ii,
                            src_op,
                            dist,
                            sp[a as usize],
                            dp[b as usize],
                        )
                    });
                }
            }

            // FU exclusivity: pairwise (pe, slot) difference.
            for a in 0..vars.len() {
                for b in (a + 1)..vars.len() {
                    let pa: Vec<(PeId, u32)> = space.positions[a].clone();
                    let pb: Vec<(PeId, u32)> = space.positions[b].clone();
                    model.binary_table(vars[a], vars[b], move |x, y| {
                        let (pe1, t1) = pa[x as usize];
                        let (pe2, t2) = pb[y as usize];
                        pe1 != pe2 || t1 % ii != t2 % ii
                    });
                }
            }

            // CEGAR restart: this engine has no tuple no-goods, so each
            // failed placement is excluded by forbidding one pivot op's
            // value (a different pivot per round). This over-prunes —
            // solutions differing only elsewhere are lost — trading
            // completeness for progress; the ILP/SAT mappers keep exact
            // tuple blocking.
            for (round, bl) in blocked.iter().enumerate() {
                let pivot = round % vars.len();
                if let Some(k) = space.positions[pivot].iter().position(|&p| p == bl[pivot]) {
                    model.forbid(vars[pivot], k as u32);
                }
            }

            model.set_interrupt(budget.interrupt());
            let sol = model.solve_with(CpConfig {
                time_limit: budget.remaining().unwrap_or(std::time::Duration::MAX),
                node_limit: 500_000,
            });
            add_solver_stats(tele, model.stats());
            match sol {
                CpSolution::Unsat => return Ok(None),
                CpSolution::Unknown => return Err(budget.error()),
                CpSolution::Sat(values) => {
                    // Each model is an anytime incumbent placement;
                    // cost = CEGAR rounds spent reaching it.
                    tele.bump(Counter::Incumbents);
                    ctx.ledger.incumbent("cp", ii, round as f64);
                    let chosen: Vec<(PeId, u32)> = values
                        .iter()
                        .enumerate()
                        .map(|(o, &k)| space.positions[o][k as usize])
                        .collect();
                    if let Some(m) = realise(dfg, fabric, topo, ii, &chosen, tele) {
                        return Ok(Some(m));
                    }
                    blocked.push(chosen);
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::MapConfig;
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn cp_maps_small_suite() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = CpMapper::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn cp_handles_heterogeneous_fabric() {
        let f = Fabric::adres_like(4, 4);
        let dfg = kernels::dot_product();
        let m = CpMapper::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
    }
}
