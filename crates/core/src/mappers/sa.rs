//! Simulated-annealing mapping (SPR / DRESC lineage — Friedman et al.
//! FPGA 2009, Mei et al. FPT 2002).
//!
//! Classic local search over bindings: start from a random
//! capability-feasible binding, propose moves (relocate one operation,
//! or swap two operations' PEs), accept downhill always and uphill
//! with probability `exp(-Δ/T)` under a geometric cooling schedule.
//! Multiple independent chains run in parallel (rayon) and the best
//! champion is routed.

use super::meta_common::{eval_binding, first_routable, random_binding};
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use crate::telemetry::Counter;
use cgra_arch::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Cooling schedule — an ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cooling {
    /// `T ← 0.95·T` per sweep (classic geometric).
    #[default]
    Geometric,
    /// Linear ramp to zero.
    Linear,
}

/// The annealing mapper.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    pub cooling: Cooling,
    /// Independent restart chains (run in parallel).
    pub chains: usize,
    /// Moves per temperature step scales with `effort`.
    pub sweeps: u32,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            cooling: Cooling::Geometric,
            chains: 4,
            sweeps: 40,
        }
    }
}

impl SimulatedAnnealing {
    fn anneal_chain(&self, ctx: &SweepCtx<'_>, ii: u32, seed: u64) -> Option<(u64, Vec<PeId>)> {
        let (dfg, fabric, topo) = (ctx.dfg, ctx.fabric, &*ctx.topo);
        let (budget, tele) = (&ctx.budget, ctx.telemetry);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut binding = random_binding(dfg, fabric, &mut rng);
        let mut cost = eval_binding(dfg, fabric, topo, &binding, ii).cost;
        let mut best = (cost, binding.clone());
        let n = dfg.node_count();

        let mut temp = 1000.0f64;
        let sweeps = self.sweeps.max(4);
        for sweep in 0..sweeps {
            if budget.expired_now() {
                break;
            }
            for _ in 0..(3 * n) {
                if budget.expired() {
                    break;
                }
                // Propose: relocate (70%) or swap (30%).
                tele.bump(Counter::MovesProposed);
                let mut cand = binding.clone();
                if rng.random_range(0..10) < 7 {
                    let op = cgra_ir::NodeId(rng.random_range(0..n as u32));
                    let feasible: Vec<PeId> = fabric
                        .pe_ids()
                        .filter(|&pe| fabric.supports(pe, dfg.op(op)))
                        .collect();
                    if feasible.is_empty() {
                        continue;
                    }
                    cand[op.index()] = feasible[rng.random_range(0..feasible.len())];
                } else {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    cand.swap(a, b);
                }
                let c = eval_binding(dfg, fabric, topo, &cand, ii).cost;
                let accept = c <= cost || {
                    let delta = (c - cost) as f64;
                    rng.random::<f64>() < (-delta / temp.max(1e-9)).exp()
                };
                if accept {
                    tele.bump(Counter::MovesAccepted);
                    binding = cand;
                    cost = c;
                    if cost < best.0 {
                        best = (cost, binding.clone());
                    }
                }
            }
            temp = match self.cooling {
                Cooling::Geometric => temp * 0.85,
                Cooling::Linear => 1000.0 * (1.0 - (sweep as f64 + 1.0) / sweeps as f64),
            };
        }
        Some(best)
    }
}

impl Mapper for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn family(&self) -> Family {
        Family::MetaLocalSearch
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for SimulatedAnnealing {
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        // Parallel chains; pick the champion.
        let mut champs: Vec<(u64, Vec<PeId>)> = (0..self.chains.max(1))
            .into_par_iter()
            .filter_map(|c| {
                let seed = ctx.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ii as u64;
                self.anneal_chain(ctx, ii, seed)
            })
            .collect();
        champs.sort_by_key(|(c, _)| *c);
        // The chain champion is this II's anytime incumbent; record it
        // sequentially (after collect) so same-seed runs produce
        // identical ledgers.
        if let Some((c, _)) = champs.first() {
            ctx.telemetry.bump(Counter::Incumbents);
            ctx.ledger.incumbent("sa", ii, *c as f64);
        }
        let best = champs.into_iter().take(2).map(|(_, binding)| binding);
        Ok(first_routable(ctx, ii, best))
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
    fn anneals_small_kernels() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = SimulatedAnnealing::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::dot_product();
        let cfg = MapConfig::fast();
        let sa = SimulatedAnnealing {
            chains: 1,
            ..Default::default()
        };
        let m1 = sa.map(&dfg, &f, &cfg).unwrap();
        let m2 = sa.map(&dfg, &f, &cfg).unwrap();
        assert_eq!(m1.place, m2.place);
    }

    #[test]
    fn linear_cooling_also_works() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = SimulatedAnnealing {
            cooling: Cooling::Linear,
            ..Default::default()
        }
        .map(&dfg, &f, &MapConfig::fast())
        .unwrap();
        validate(&m, &dfg, &f).unwrap();
    }
}
