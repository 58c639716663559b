//! Genetic-algorithm mapping (GenMap lineage — Kojima et al., IEEE
//! TVLSI 2020).
//!
//! The chromosome is the binding vector (one PE gene per operation).
//! Tournament selection, uniform crossover, per-gene mutation to a
//! random capability-feasible PE, elitism, and a fitness that rewards
//! schedulability first and wirelength second (GenMap optimises
//! energy ∝ wirelength under its mapping-feasibility constraint).
//! Population fitness is evaluated in parallel with rayon.

use super::meta_common::{eval_binding, first_routable, random_binding};
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use crate::telemetry::Counter;
use cgra_arch::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// The GA mapper.
#[derive(Debug, Clone)]
pub struct Genetic {
    pub population: usize,
    pub generations: u32,
    pub tournament: usize,
    /// Per-gene mutation probability (per mille).
    pub mutation_pm: u32,
    pub elitism: usize,
}

impl Default for Genetic {
    fn default() -> Self {
        Genetic {
            population: 36,
            generations: 48,
            tournament: 3,
            mutation_pm: 60,
            elitism: 2,
        }
    }
}

impl Genetic {
    fn evolve(&self, ctx: &SweepCtx<'_>, ii: u32) -> Vec<(u64, Vec<PeId>)> {
        let (dfg, fabric, topo) = (ctx.dfg, ctx.fabric, &*ctx.topo);
        let (tele, ledger) = (ctx.telemetry, ctx.ledger);
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ ii as u64);
        let n = dfg.node_count();
        let feasible: Vec<Vec<PeId>> = dfg
            .node_ids()
            .map(|id| {
                fabric
                    .pe_ids()
                    .filter(|&pe| fabric.supports(pe, dfg.op(id)))
                    .collect()
            })
            .collect();

        let mut pop: Vec<Vec<PeId>> = (0..self.population.max(4))
            .map(|_| random_binding(dfg, fabric, &mut rng))
            .collect();
        let mut scored: Vec<(u64, Vec<PeId>)> = Vec::new();
        let mut best_cost = u64::MAX;

        for _gen in 0..self.generations {
            if ctx.budget.expired_now() {
                break;
            }
            scored = pop
                .par_iter()
                .map(|b| (eval_binding(dfg, fabric, topo, b, ii).cost, b.clone()))
                .collect();
            scored.sort_by_key(|(c, _)| *c);
            // A generation whose champion improves on the best seen so
            // far counts as an accepted move of the population search.
            if let Some(&(c, _)) = scored.first() {
                if c < best_cost {
                    best_cost = c;
                    tele.bump(Counter::MovesAccepted);
                    tele.bump(Counter::Incumbents);
                    ledger.incumbent("ga", ii, c as f64);
                }
            }

            let mut next: Vec<Vec<PeId>> = scored
                .iter()
                .take(self.elitism)
                .map(|(_, b)| b.clone())
                .collect();
            while next.len() < pop.len() {
                // Tournament selection of two parents.
                let pick = |rng: &mut StdRng| -> &Vec<PeId> {
                    let mut best: Option<&(u64, Vec<PeId>)> = None;
                    for _ in 0..self.tournament.max(1) {
                        let c = &scored[rng.random_range(0..scored.len())];
                        if best.map(|b| c.0 < b.0).unwrap_or(true) {
                            best = Some(c);
                        }
                    }
                    &best.unwrap().1
                };
                let pa = pick(&mut rng).clone();
                let pb = pick(&mut rng).clone();
                // Uniform crossover + mutation.
                let mut child = Vec::with_capacity(n);
                for i in 0..n {
                    let gene = if rng.random::<bool>() { pa[i] } else { pb[i] };
                    let gene = if rng.random_range(0..1000) < self.mutation_pm
                        && !feasible[i].is_empty()
                    {
                        feasible[i][rng.random_range(0..feasible[i].len())]
                    } else {
                        gene
                    };
                    child.push(gene);
                }
                tele.bump(Counter::MovesProposed);
                next.push(child);
            }
            pop = next;
        }
        if scored.is_empty() {
            scored = pop
                .par_iter()
                .map(|b| (eval_binding(dfg, fabric, topo, b, ii).cost, b.clone()))
                .collect();
            scored.sort_by_key(|(c, _)| *c);
        }
        scored
    }
}

impl Mapper for Genetic {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn family(&self) -> Family {
        Family::MetaPopulation
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for Genetic {
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let scored = self.evolve(ctx, ii);
        let best = scored.into_iter().take(3).map(|(_, binding)| binding);
        Ok(first_routable(ctx, ii, best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::MapConfig;
    use crate::metrics::Metrics;
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn evolves_small_kernels() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = Genetic::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn fitness_pressure_shortens_wires() {
        // GA's wirelength objective should not produce absurdly long
        // routes on a kernel with an obvious linear layout.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = Genetic::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        let met = Metrics::of(&m, &dfg, &f);
        assert!(met.route_hops <= 8, "hops {}", met.route_hops);
    }
}
