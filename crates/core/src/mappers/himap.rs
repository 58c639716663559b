//! HiMap-style hierarchical mapping (Wijerathne et al., DATE 2021).
//!
//! The scalability answer of the survey's §IV-B: instead of placing
//! every operation on the flat fabric, (1) cluster the DFG into
//! strongly-connected groups of bounded size, (2) place *clusters*
//! onto fabric regions via a coarse wirelength-driven assignment, and
//! (3) place each operation inside (or near) its cluster's region with
//! the usual window scan. The candidate-PE sets shrink from `O(PEs)`
//! to `O(region)`, which is what makes 16×16+ fabrics tractable. The
//! algorithm iterates — growing regions and II — until a valid mapping
//! is found (HiMap "terminates when a valid mapping is found").

use super::state::{height_order, SchedState};
use crate::mapper::{Family, MapError, Mapper};
use crate::mapping::Mapping;
use crate::sweep::{SweepCtx, TemporalMapper};
use cgra_arch::{Fabric, PeId};
use cgra_ir::Dfg;
use std::any::Any;

/// The once-per-sweep hierarchy: cluster ids per op and region centres
/// per cluster.
struct Hierarchy {
    clusters: Vec<usize>,
    centres: Vec<(f64, f64)>,
}

/// The hierarchical mapper.
#[derive(Debug, Clone)]
pub struct HiMap {
    /// Target operations per cluster.
    pub cluster_size: usize,
    /// Candidate PEs considered inside a region.
    pub region_candidates: usize,
    pub window_iis: u32,
}

impl Default for HiMap {
    fn default() -> Self {
        HiMap {
            cluster_size: 6,
            region_candidates: 12,
            window_iis: 3,
        }
    }
}

/// Greedy affinity clustering: repeatedly merge the pair of clusters
/// with the most connecting edges, subject to the size bound.
pub(crate) fn cluster_dfg(dfg: &Dfg, max_size: usize) -> Vec<usize> {
    let n = dfg.node_count();
    let mut cluster: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    let find = |cluster: &Vec<usize>, mut x: usize| -> usize {
        while cluster[x] != x {
            x = cluster[x];
        }
        x
    };
    // Edge list sorted by nothing fancy; multiple passes merge greedily.
    let mut merged = true;
    while merged {
        merged = false;
        for (_, e) in dfg.edges() {
            let a = find(&cluster, e.src.index());
            let b = find(&cluster, e.dst.index());
            if a != b && size[a] + size[b] <= max_size {
                cluster[b] = a;
                size[a] += size[b];
                merged = true;
            }
        }
    }
    // Flatten to dense cluster ids.
    let mut dense = std::collections::HashMap::new();
    (0..n)
        .map(|i| {
            let root = find(&cluster, i);
            let next = dense.len();
            *dense.entry(root).or_insert(next)
        })
        .collect()
}

impl HiMap {
    /// Region centres: clusters laid out over the fabric by a
    /// cluster-level barycentric sweep.
    fn region_centres(&self, dfg: &Dfg, clusters: &[usize], fabric: &Fabric) -> Vec<(f64, f64)> {
        let num_clusters = clusters.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        // Cluster adjacency weights.
        let mut weight = vec![vec![0u32; num_clusters]; num_clusters];
        for (_, e) in dfg.edges() {
            let (a, b) = (clusters[e.src.index()], clusters[e.dst.index()]);
            if a != b {
                weight[a][b] += 1;
                weight[b][a] += 1;
            }
        }
        // Initial grid layout, then a few barycentric relaxation sweeps.
        let side = (num_clusters as f64).sqrt().ceil() as usize;
        let mut pos: Vec<(f64, f64)> = (0..num_clusters)
            .map(|c| {
                (
                    (c % side) as f64 / side.max(1) as f64 * (fabric.cols - 1) as f64,
                    (c / side) as f64 / side.max(1) as f64 * (fabric.rows - 1) as f64,
                )
            })
            .collect();
        for _ in 0..8 {
            for c in 0..num_clusters {
                let (mut sx, mut sy, mut sw) = (0.0, 0.0, 0.0);
                for o in 0..num_clusters {
                    let w = weight[c][o] as f64;
                    if w > 0.0 {
                        sx += pos[o].0 * w;
                        sy += pos[o].1 * w;
                        sw += w;
                    }
                }
                if sw > 0.0 {
                    // Pull halfway towards the barycenter.
                    pos[c].0 = (pos[c].0 + sx / sw) / 2.0;
                    pos[c].1 = (pos[c].1 + sy / sw) / 2.0;
                }
            }
        }
        pos
    }

    /// One placement pass at `ii` with candidates restricted to within
    /// `region_radius` of each op's cluster centre.
    fn place_in_regions(
        &self,
        ctx: &SweepCtx<'_>,
        hier: &Hierarchy,
        ii: u32,
        region_radius: u32,
    ) -> Option<Mapping> {
        let (dfg, fabric) = (ctx.dfg, ctx.fabric);
        let order = height_order(dfg, fabric)?;
        let mut state = SchedState::new(dfg, fabric, ii, &ctx.topo, ctx.telemetry.clone());
        for &n in &order {
            if ctx.budget.expired() {
                return None;
            }
            let est = state.est(n);
            let window_end = match state.lst(n) {
                Some(l) => l.min(est + self.window_iis * ii),
                None => est + self.window_iis * ii,
            };
            if window_end < est {
                return None;
            }
            // Candidate PEs: within the cluster's region first.
            let (cx, cy) = hier.centres[hier.clusters[n.index()]];
            let op = dfg.op(n);
            let mut cands: Vec<(u64, PeId)> = fabric
                .pe_ids()
                .filter(|&pe| fabric.supports(pe, op))
                .filter_map(|pe| {
                    let (r, c) = fabric.coords(pe);
                    let d2 = (r as f64 - cy).powi(2) + (c as f64 - cx).powi(2);
                    if d2.sqrt() <= region_radius as f64 {
                        Some(((d2 * 100.0) as u64, pe))
                    } else {
                        None
                    }
                })
                .collect();
            cands.sort();
            let mut placed = false;
            't: for t in est..=window_end {
                for &(_, pe) in cands.iter().take(self.region_candidates) {
                    if state.try_place(n, pe, t) {
                        placed = true;
                        break 't;
                    }
                }
            }
            if !placed {
                return None;
            }
        }
        state.into_mapping()
    }
}

impl Mapper for HiMap {
    fn name(&self) -> &'static str {
        "himap"
    }

    fn family(&self) -> Family {
        Family::Heuristic
    }

    fn temporal(&self) -> Option<&dyn TemporalMapper> {
        Some(self)
    }
}

impl TemporalMapper for HiMap {
    fn prepare(&self, ctx: &SweepCtx<'_>) -> Option<Box<dyn Any + Send + Sync>> {
        let clusters = cluster_dfg(ctx.dfg, self.cluster_size);
        let centres = self.region_centres(ctx.dfg, &clusters, ctx.fabric);
        Some(Box::new(Hierarchy { clusters, centres }))
    }

    /// Iterate: grow the region radius within the II — terminating when
    /// a valid mapping is found.
    fn try_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let hier = ctx
            .state::<Hierarchy>()
            .expect("prepare builds the hierarchy");
        let max_radius = (ctx.fabric.rows.max(ctx.fabric.cols)) as u32 + 1;
        let mut radius = 2;
        while radius <= max_radius {
            if let Some(m) = self.place_in_regions(ctx, hier, ii, radius) {
                return Ok(Some(m));
            }
            if ctx.budget.expired_now() {
                return Err(ctx.budget.error());
            }
            radius *= 2;
        }
        Ok(None)
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
    fn clustering_respects_size_bound() {
        let dfg = kernels::sobel();
        let clusters = cluster_dfg(&dfg, 5);
        let mut counts = std::collections::HashMap::new();
        for &c in &clusters {
            *counts.entry(c).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c <= 5));
        // Clusters must cover all nodes.
        assert_eq!(clusters.len(), dfg.node_count());
    }

    #[test]
    fn maps_suite_on_4x4() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::suite() {
            let m = HiMap::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn scales_to_large_fabric_and_kernel() {
        // The scalability scenario: a 64-lane MAC tree on a 16x16 array.
        let f = Fabric::homogeneous(16, 16, Topology::Mesh);
        let dfg = kernels::unrolled_mac(24);
        let m = HiMap::default()
            .map(&dfg, &f, &MapConfig::default())
            .expect("hierarchical mapping should handle the large fabric");
        validate(&m, &dfg, &f).unwrap();
    }
}
