//! RAMP-style resource-aware remapping (Dave et al., DAC 2018).
//!
//! RAMP's insight is that mapping failures are *local*: when an
//! operation cannot be placed, do not give up on the II — identify the
//! blocking resources, rip the offending neighbourhood up, and remap
//! with the failed operation given priority. Only when repeated
//! rip-up/remap rounds fail does the II increase.

use super::state::{height_order, SchedState};
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use cgra_ir::{graph, NodeId, OpKind};
use std::collections::VecDeque;

/// The failure-driven remapping mapper.
#[derive(Debug, Clone)]
pub struct Ramp {
    /// Rip-up/remap rounds per II before escalating.
    pub max_ripups: u32,
    /// Time window (in IIs) scanned per placement attempt.
    pub window_iis: u32,
}

impl Default for Ramp {
    fn default() -> Self {
        Ramp {
            max_ripups: 40,
            window_iis: 3,
        }
    }
}

impl Mapper for Ramp {
    fn name(&self) -> &'static str {
        "ramp"
    }

    fn family(&self) -> Family {
        Family::Heuristic
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for Ramp {
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric) = (ctx.dfg, ctx.fabric);
        let Some(order) = height_order(dfg, fabric) else {
            return Ok(None);
        };
        let mut state = SchedState::new(dfg, fabric, ii, &ctx.topo, ctx.telemetry.clone());
        let lat = |op: OpKind| fabric.latency_of(op);
        let height = graph::height(dfg, &lat);

        let mut queue: VecDeque<NodeId> = order.iter().copied().collect();
        let mut ripups = 0u32;

        while let Some(n) = queue.pop_front() {
            if ctx.budget.expired() {
                return Ok(None);
            }
            if state.placed(n).is_some() {
                continue;
            }
            let est = state.est(n);
            let window_end = match state.lst(n) {
                Some(l) => l.min(est + self.window_iis * ii),
                None => est + self.window_iis * ii,
            };
            let mut placed = false;
            if window_end >= est {
                't: for t in est..=window_end {
                    for pe in state.candidate_pes(n, 24) {
                        if state.try_place(n, pe, t) {
                            placed = true;
                            break 't;
                        }
                    }
                }
            }
            if placed {
                continue;
            }
            // Failure: rip up the most attractive neighbourhood and
            // retry with this op first.
            ripups += 1;
            if ripups > self.max_ripups {
                return Ok(None);
            }
            let victims = self.pick_victims(&state, n, est);
            if victims.is_empty() {
                return Ok(None); // nothing to rip up: genuinely stuck
            }
            for v in &victims {
                state.unplace(*v);
            }
            // Failed op first, then victims by priority.
            queue.push_front(n);
            let mut vs = victims;
            vs.sort_by_key(|v| std::cmp::Reverse(height[v.index()]));
            for v in vs {
                queue.push_back(v);
            }
        }
        Ok(state.into_mapping())
    }
}

impl Ramp {
    /// Victims: placed ops occupying the failed op's preferred PEs in
    /// its preferred time band.
    fn pick_victims(&self, state: &SchedState<'_>, n: NodeId, est: u32) -> Vec<NodeId> {
        let prefs = state.candidate_pes(n, 6);
        let band_lo = est;
        let band_hi = est + state.ii * self.window_iis;
        let mut victims = Vec::new();
        for (i, p) in state.place.iter().enumerate() {
            if let Some(p) = p {
                let same_slot_band = (band_lo..=band_hi).any(|t| t % state.ii == p.time % state.ii);
                if prefs.contains(&p.pe) && same_slot_band {
                    victims.push(NodeId(i as u32));
                }
            }
        }
        victims.truncate(4);
        victims
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
    fn maps_suite_on_4x4() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::suite() {
            let m = Ramp::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn pressure_fabric_exercises_ripup() {
        // A tiny 2x2 fabric with rf 2: dense kernels force failures and
        // remapping rounds.
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        f.rf_size = 2;
        let dfg = kernels::sad();
        let m = Ramp::default().map(&dfg, &f, &MapConfig::fast());
        if let Ok(m) = m {
            validate(&m, &dfg, &f).unwrap();
        }
        // Failing is acceptable on this adversarial fabric; panicking
        // or returning an invalid mapping is not.
    }

    #[test]
    fn ramp_ii_not_worse_than_much_larger() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::fir(4);
        let m = Ramp::default().map(&dfg, &f, &MapConfig::fast()).unwrap();
        let met = Metrics::of(&m, &dfg, &f);
        assert!(met.ii <= 4, "II {} unexpectedly large", met.ii);
    }
}
