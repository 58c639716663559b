//! Shared incremental place-and-route state used by the constructive
//! mappers (modulo list scheduling, EMS, RAMP, HiMap, branch & bound).
//!
//! Holds a partial placement, the routes of all edges whose endpoints
//! are both placed, and the corresponding MRRG occupancy. Placement
//! attempts are transactional: `try_place` either commits (operation
//! placed, all incident placeable edges routed, occupancy updated) or
//! leaves the state untouched.

use crate::mapping::{Mapping, Placement, Route};
use crate::route::{find_route_with, RouteOpts, RouterScratch};
use crate::telemetry::{Counter, Phase, Telemetry};
use cgra_arch::{Fabric, PeId, SpaceTime, TopologyCache};
use cgra_ir::{graph, Dfg, EdgeId, NodeId, OpKind};
use std::collections::HashSet;

/// The list-scheduling priority of the constructive mappers: operations
/// in topological order, stably re-sorted by descending height. `None`
/// when the DFG has no topological order.
pub(crate) fn height_order(dfg: &Dfg, fabric: &Fabric) -> Option<Vec<NodeId>> {
    let lat = |op: OpKind| fabric.latency_of(op);
    let height = graph::height(dfg, &lat);
    let mut order = dfg.topo_order().ok()?;
    order.sort_by_key(|n| std::cmp::Reverse(height[n.index()]));
    Some(order)
}

pub(crate) struct SchedState<'a> {
    pub dfg: &'a Dfg,
    pub fabric: &'a Fabric,
    pub ii: u32,
    pub topo: &'a TopologyCache,
    pub place: Vec<Option<Placement>>,
    pub routes: Vec<Option<Route>>,
    pub st: SpaceTime,
    pub tele: Telemetry,
    /// Router buffers reused across every `try_place` route search.
    scratch: RouterScratch,
}

impl<'a> SchedState<'a> {
    pub fn new(
        dfg: &'a Dfg,
        fabric: &'a Fabric,
        ii: u32,
        topo: &'a TopologyCache,
        tele: Telemetry,
    ) -> Self {
        SchedState {
            dfg,
            fabric,
            ii,
            topo,
            place: vec![None; dfg.node_count()],
            routes: vec![None; dfg.edge_count()],
            st: SpaceTime::new(fabric, ii),
            tele,
            scratch: RouterScratch::new(),
        }
    }

    #[inline]
    pub fn placed(&self, n: NodeId) -> Option<Placement> {
        self.place[n.index()]
    }

    /// Earliest feasible issue time from placed distance-0 predecessors
    /// (time component only; hops are enforced by routing).
    pub fn est(&self, n: NodeId) -> u32 {
        let mut t = 0;
        for (_, e) in self.dfg.in_edges(n) {
            if let Some(p) = self.place[e.src.index()] {
                let ready = p.time + self.fabric.latency_of(self.dfg.op(e.src));
                let bound = ready.saturating_sub(self.ii * e.dist);
                t = t.max(bound);
            }
        }
        t
    }

    /// Latest feasible issue time from placed successors, or `None` if
    /// unbounded.
    pub fn lst(&self, n: NodeId) -> Option<u32> {
        let mut t: Option<u32> = None;
        let lat = self.fabric.latency_of(self.dfg.op(n));
        for (_, e) in self.dfg.out_edges(n) {
            if let Some(p) = self.place[e.dst.index()] {
                let consume = p.time + self.ii * e.dist;
                let latest = consume.checked_sub(lat)?;
                t = Some(t.map(|x: u32| x.min(latest)).unwrap_or(latest));
            }
        }
        t
    }

    /// Positions already used by routed edges of producer `src`.
    fn shared(&self, src: NodeId) -> HashSet<(PeId, u32)> {
        let mut set = HashSet::new();
        for (eid, e) in self.dfg.edges() {
            if e.src == src {
                if let Some(r) = &self.routes[eid.index()] {
                    for (i, &pe) in r.steps.iter().enumerate() {
                        set.insert((pe, r.start_time + i as u32));
                    }
                }
            }
        }
        set
    }

    /// Edges of `n` whose other endpoint is already placed (and the
    /// edge not yet routed).
    fn routable_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.dfg
            .edges()
            .filter(|(eid, e)| {
                self.routes[eid.index()].is_none()
                    && ((e.src == n && (e.dst == n || self.place[e.dst.index()].is_some()))
                        || (e.dst == n && self.place[e.src.index()].is_some()))
            })
            .map(|(eid, _)| eid)
            .collect()
    }

    /// Attempt to place `n` at `(pe, t)`: checks capability and FU
    /// availability, then routes every edge between `n` and already
    /// placed nodes. Commits and returns true on success.
    pub fn try_place(&mut self, n: NodeId, pe: PeId, t: u32) -> bool {
        self.tele.bump(Counter::PlacementsTried);
        if !self.fabric.supports(pe, self.dfg.op(n)) || !self.st.fu_free(pe, t) {
            return false;
        }
        let saved_place = self.place[n.index()];
        self.place[n.index()] = Some(Placement { pe, time: t });

        let mut trial = self.st.clone();
        trial.occupy_fu(pe, t);
        let mut new_routes: Vec<(EdgeId, Route)> = Vec::new();
        let routable = self.routable_edges(n);
        // Integrated P&R has no separate routing pass; account the
        // incremental edge-routing time as Route so profiles from
        // constructive mappers line up with the explicit-route families.
        let _route_span = (!routable.is_empty()).then(|| self.tele.span_ii(Phase::Route, self.ii));
        for eid in routable {
            let e = self.dfg.edge(eid);
            let sp = self.place[e.src.index()].expect("endpoint placed");
            let dp = self.place[e.dst.index()].expect("endpoint placed");
            let tr = sp.time + self.fabric.latency_of(self.dfg.op(e.src));
            let tc = dp.time + self.ii * e.dist;
            if tc < tr {
                self.place[n.index()] = saved_place;
                return false;
            }
            let mut shared = self.shared(e.src);
            for (prev_eid, prev_route) in &new_routes {
                if self.dfg.edge(*prev_eid).src == e.src {
                    for (i, &p2) in prev_route.steps.iter().enumerate() {
                        shared.insert((p2, prev_route.start_time + i as u32));
                    }
                }
            }
            self.tele.bump(Counter::RoutingCalls);
            let route_t0 = self.tele.is_enabled().then(std::time::Instant::now);
            let routed = find_route_with(
                self.fabric,
                self.topo,
                &trial,
                sp.pe,
                tr,
                dp.pe,
                tc,
                &shared,
                None,
                RouteOpts::default(),
                &mut self.scratch,
            );
            if let Some(t0) = route_t0 {
                self.tele.record_route_us(t0.elapsed().as_micros() as u64);
            }
            match routed {
                Some(r) => {
                    for (i, &p2) in r.steps.iter().enumerate() {
                        let tt = r.start_time + i as u32;
                        if !shared.contains(&(p2, tt)) {
                            trial.occupy_reg(p2, tt);
                        }
                    }
                    new_routes.push((eid, r));
                }
                None => {
                    self.tele.bump(Counter::RoutingFailures);
                    self.place[n.index()] = saved_place;
                    return false;
                }
            }
        }
        // Final integrity guard: the router tracks its own path's
        // self-wrap pressure but not revisits; reject any residual
        // over-subscription so committed states are always valid.
        if trial.overuse() != 0 {
            self.place[n.index()] = saved_place;
            return false;
        }
        // Commit.
        self.st = trial;
        for (eid, r) in new_routes {
            self.routes[eid.index()] = Some(r);
        }
        true
    }

    /// Remove `n`'s placement and every route touching it, rebuilding
    /// occupancy from scratch.
    pub fn unplace(&mut self, n: NodeId) {
        if self.place[n.index()].is_none() {
            return;
        }
        self.tele.bump(Counter::Backtracks);
        self.place[n.index()] = None;
        for (eid, e) in self.dfg.edges() {
            if e.src == n || e.dst == n {
                self.routes[eid.index()] = None;
            }
        }
        self.rebuild_occupancy();
    }

    /// Recompute `st` from the current placement and routes.
    pub fn rebuild_occupancy(&mut self) {
        let mut st = SpaceTime::new(self.fabric, self.ii);
        for p in self.place.iter().flatten() {
            st.occupy_fu(p.pe, p.time);
        }
        let mut seen: HashSet<(u32, PeId, u32)> = HashSet::new();
        for (eid, e) in self.dfg.edges() {
            if let Some(r) = &self.routes[eid.index()] {
                for (i, &pe) in r.steps.iter().enumerate() {
                    let t = r.start_time + i as u32;
                    if seen.insert((e.src.0, pe, t)) {
                        st.occupy_reg(pe, t);
                    }
                }
            }
        }
        self.st = st;
    }

    /// Candidate PEs for `n`, cheapest first by summed hop distance to
    /// placed neighbours (capped at `cap` candidates).
    pub fn candidate_pes(&self, n: NodeId, cap: usize) -> Vec<PeId> {
        let op = self.dfg.op(n);
        let mut scored: Vec<(u32, PeId)> = self
            .fabric
            .pe_ids()
            .filter(|&pe| self.fabric.supports(pe, op))
            .map(|pe| {
                let mut cost = 0u32;
                for (_, e) in self.dfg.in_edges(n) {
                    if let Some(p) = self.place[e.src.index()] {
                        cost += self.topo.hops(p.pe, pe);
                    }
                }
                for (_, e) in self.dfg.out_edges(n) {
                    if e.src != e.dst {
                        if let Some(p) = self.place[e.dst.index()] {
                            cost += self.topo.hops(pe, p.pe);
                        }
                    }
                }
                (cost, pe)
            })
            .collect();
        scored.sort_by_key(|&(c, pe)| (c, pe.0));
        scored.into_iter().take(cap).map(|(_, pe)| pe).collect()
    }

    /// Finish: all nodes placed and all edges routed?
    pub fn into_mapping(self) -> Option<Mapping> {
        let place: Option<Vec<Placement>> = self.place.into_iter().collect();
        let routes: Option<Vec<Route>> = self.routes.into_iter().collect();
        Some(Mapping {
            ii: self.ii,
            place: place?,
            routes: routes?,
        })
    }
}
