//! Branch-and-bound mapping with optional stochastic pruning (Das,
//! Peyret, Martin, Coussy et al. lineage — ISVLSI 2016 / ASAP 2014:
//! simultaneous scheduling and binding with pruned partial solutions).
//!
//! Depth-first search over operations in priority order; each node of
//! the search tree extends the partial mapping by one placed-and-routed
//! operation (real routing, not a relaxation — so any leaf is valid by
//! construction). Subtrees are pruned by an admissible bound on total
//! route cost; a beam width caps the per-depth branching (the
//! "stochastic pruning of partial solutions" knob that makes the
//! approach scale).

use super::state::{height_order, SchedState};
use crate::engine::Budget;
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use crate::telemetry::Counter;
use cgra_ir::NodeId;

/// The branch-and-bound mapper.
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Candidate (pe, t) pairs explored per operation per node.
    pub beam: usize,
    /// Search-node budget per II.
    pub node_budget: u64,
    pub window_iis: u32,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            beam: 5,
            node_budget: 6_000,
            window_iis: 2,
        }
    }
}

struct Bb<'a> {
    order: Vec<NodeId>,
    nodes: u64,
    node_budget: u64,
    wall: &'a Budget,
    beam: usize,
    window_iis: u32,
    state: SchedState<'a>,
}

impl<'a> Bb<'a> {
    fn dfs(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return true;
        }
        self.nodes += 1;
        self.state.tele.bump(Counter::NodesExpanded);
        if self.nodes > self.node_budget || self.wall.expired() {
            self.state.tele.bump(Counter::NodesPruned);
            return false;
        }
        let n = self.order[depth];
        let est = self.state.est(n);
        let window_end = match self.state.lst(n) {
            Some(l) => l.min(est + self.window_iis * self.state.ii),
            None => est + self.window_iis * self.state.ii,
        };
        if window_end < est {
            return false;
        }
        // Gather candidates (earliest-and-nearest first), beam-capped.
        let mut tried = 0usize;
        for t in est..=window_end {
            for pe in self.state.candidate_pes(n, self.beam) {
                if tried >= self.beam * 3 {
                    self.state.tele.bump(Counter::NodesPruned);
                    return false;
                }
                if self.state.try_place(n, pe, t) {
                    tried += 1;
                    if self.dfs(depth + 1) {
                        return true;
                    }
                    self.state.unplace(n);
                }
            }
        }
        false
    }
}

impl Mapper for BranchAndBound {
    fn name(&self) -> &'static str {
        "bnb"
    }

    fn family(&self) -> Family {
        Family::ExactIlp
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for BranchAndBound {
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let Some(order) = height_order(ctx.dfg, ctx.fabric) else {
            return Ok(None);
        };
        let mut bb = Bb {
            order,
            nodes: 0,
            node_budget: self.node_budget,
            wall: &ctx.budget,
            beam: self.beam,
            window_iis: self.window_iis,
            state: SchedState::new(ctx.dfg, ctx.fabric, ii, &ctx.topo, ctx.telemetry.clone()),
        };
        if !bb.dfs(0) {
            return Ok(None);
        }
        Ok(bb.state.into_mapping())
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
    fn bnb_maps_most_of_suite_on_4x4() {
        // Exhaustive search hits its node budget on the widest kernels
        // (the survey's scalability point); the contract is broad
        // success plus never-invalid output.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let mut successes = 0;
        for dfg in kernels::suite() {
            match BranchAndBound::default().map(&dfg, &f, &MapConfig::fast()) {
                Ok(m) => {
                    validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
                    successes += 1;
                }
                Err(e) => eprintln!("{}: {e}", dfg.name),
            }
        }
        assert!(successes >= 10, "only {successes}/13 kernels mapped");
    }

    #[test]
    fn backtracking_recovers_from_greedy_traps() {
        // Single multiplier on a 2x2: the first greedy choice for the
        // inputs can block the mul; B&B must backtrack and succeed.
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            f.cells[pe].mul = false;
        }
        let dfg = kernels::dot_product();
        let m = BranchAndBound::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
    }

    #[test]
    fn narrow_beam_may_fail_but_never_invalid() {
        let f = Fabric::homogeneous(2, 2, Topology::Mesh);
        let bb = BranchAndBound {
            beam: 1,
            node_budget: 50,
            ..Default::default()
        };
        for dfg in kernels::small_suite() {
            if let Ok(m) = bb.map(&dfg, &f, &MapConfig::fast()) {
                validate(&m, &dfg, &f).unwrap();
            }
        }
    }
}
