//! Edge-centric modulo scheduling (EMS lineage — Park et al.,
//! PACT 2008).
//!
//! Where node-centric schedulers pick a slot for an operation and then
//! check that its edges route, EMS inverts the loop: the *router*
//! decides placement. For each operation, a space-time Dijkstra is run
//! from every placed producer; the operation lands on the `(pe, cycle)`
//! whose summed route cost is lowest. Placement is a by-product of
//! routing.

use super::state::{height_order, SchedState};
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use cgra_arch::{Fabric, PeId, SpaceTime, TopologyCache};
use cgra_ir::NodeId;

/// The edge-centric mapper.
#[derive(Debug, Clone)]
pub struct EdgeCentric {
    /// Time window (in IIs) scanned per operation.
    pub window_iis: u32,
}

impl Default for EdgeCentric {
    fn default() -> Self {
        EdgeCentric { window_iis: 3 }
    }
}

/// Cost of the cheapest route from `(from, tr)` to every `(pe, t)` in
/// `tr..=t_max`, as a dense grid (`u64::MAX` = unreachable). This is
/// the single-source profile EMS uses to steer placement.
fn route_cost_field(
    fabric: &Fabric,
    topo: &TopologyCache,
    st: &SpaceTime,
    from: PeId,
    tr: u32,
    t_max: u32,
) -> Vec<Vec<u64>> {
    let span = (t_max.saturating_sub(tr)) as usize + 1;
    let n = fabric.num_pes();
    let mut dist = vec![vec![u64::MAX; n]; span];
    let enter = |pe: PeId, t: u32| -> Option<u64> {
        let headroom = st.reg_headroom(pe, t);
        if headroom == 0 {
            None
        } else {
            Some(100)
        }
    };
    if enter(from, tr).is_none() {
        return dist;
    }
    dist[0][from.index()] = 100;
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u16, usize)>> =
        std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((100, from.0, 0)));
    while let Some(std::cmp::Reverse((d, pe_raw, step))) = heap.pop() {
        let pe = PeId(pe_raw);
        if d > dist[step][pe.index()] {
            continue;
        }
        if step + 1 == span {
            continue;
        }
        let t_next = tr + step as u32 + 1;
        // CSR slice plus "stay put" — no per-expansion allocation.
        for &nxt in topo.neighbors(pe).iter().chain(std::iter::once(&pe)) {
            if let Some(c) = enter(nxt, t_next) {
                let nd = d + c;
                if nd < dist[step + 1][nxt.index()] {
                    dist[step + 1][nxt.index()] = nd;
                    heap.push(std::cmp::Reverse((nd, nxt.0, step + 1)));
                }
            }
        }
    }
    dist
}

impl Mapper for EdgeCentric {
    fn name(&self) -> &'static str {
        "edge-centric"
    }

    fn family(&self) -> Family {
        Family::Heuristic
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for EdgeCentric {
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric, topo) = (ctx.dfg, ctx.fabric, &*ctx.topo);
        let Some(order) = height_order(dfg, fabric) else {
            return Ok(None);
        };
        let mut state = SchedState::new(dfg, fabric, ii, topo, ctx.telemetry.clone());
        for &n in &order {
            if ctx.budget.expired() {
                return Ok(None);
            }
            let est = state.est(n);
            let window_end = match state.lst(n) {
                Some(l) => l.min(est + self.window_iis * ii),
                None => est + self.window_iis * ii,
            };
            if window_end < est {
                return Ok(None);
            }

            // Build route-cost fields from every placed dist-0 producer.
            let producers: Vec<(NodeId, PeId, u32)> = dfg
                .in_edges(n)
                .filter(|(_, e)| e.dist == 0 && e.src != n)
                .filter_map(|(_, e)| {
                    state
                        .placed(e.src)
                        .map(|p| (e.src, p.pe, p.time + fabric.latency_of(dfg.op(e.src))))
                })
                .collect();
            let fields: Vec<Vec<Vec<u64>>> = producers
                .iter()
                .map(|&(_, pe, tr)| route_cost_field(fabric, topo, &state.st, pe, tr, window_end))
                .collect();

            // Score every (t, pe): summed producer route costs.
            let op = dfg.op(n);
            let mut candidates: Vec<(u64, u32, PeId)> = Vec::new();
            for t in est..=window_end {
                for pe in fabric.pe_ids() {
                    if !fabric.supports(pe, op) || !state.st.fu_free(pe, t) {
                        continue;
                    }
                    let mut cost = 0u64;
                    let mut reachable = true;
                    for (f, &(_, _, tr)) in fields.iter().zip(&producers) {
                        if t < tr {
                            reachable = false;
                            break;
                        }
                        let step = (t - tr) as usize;
                        match f.get(step).map(|row| row[pe.index()]) {
                            Some(c) if c != u64::MAX => cost += c,
                            _ => {
                                reachable = false;
                                break;
                            }
                        }
                    }
                    if !reachable {
                        continue;
                    }
                    // Prefer earlier slots and short future wires.
                    cost += t as u64;
                    candidates.push((cost, t, pe));
                }
            }
            candidates.sort();
            let mut placed = false;
            for (_, t, pe) in candidates.into_iter().take(48) {
                if state.try_place(n, pe, t) {
                    placed = true;
                    break;
                }
            }
            if !placed {
                return Ok(None);
            }
        }
        Ok(state.into_mapping())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::MapConfig;
    use crate::validate::validate;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn maps_suite_on_4x4() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::suite() {
            let m = EdgeCentric::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn placement_follows_routability() {
        // On a 1-wide fabric (a 1x4 row), routes are forced through the
        // line; EMS must still find them.
        let f = Fabric::homogeneous(1, 4, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = EdgeCentric::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
    }

    #[test]
    fn respects_io_policy() {
        let f = Fabric::adres_like(4, 4);
        let dfg = kernels::dot_product();
        let m = EdgeCentric::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
        for (id, node) in dfg.nodes() {
            if matches!(
                node.op,
                cgra_ir::OpKind::Input(_) | cgra_ir::OpKind::Output(_)
            ) {
                assert!(f.is_border(m.placement(id).pe));
            }
        }
    }
}
