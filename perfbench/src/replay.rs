//! The traced run: the workload's generated inputs replayed in-process
//! through each layer's public functions, in the daemon's order, with
//! spans recorded by the benchmark around every call.
//!
//! A map request goes wire decode → op decode → cache key → cache get →
//! on a hit `MapService::handle`, on a miss compile → topology →
//! `execute` (telemetry on) → validate → metrics → cache insert; then
//! the reply is encoded. A fleet op goes wire decode → op decode →
//! `fleet::plan` → `fleet::run` → encode. Spans stay in memory and are
//! written out when the run ends.

use crate::workload::{Item, Workload};
use cgra::serve::Op;
use cgra_arch::TopologyCache;
use cgra_mapper_core::fleet::{self, FleetFabric};
use cgra_mapper_core::incremental::IncrementalCtx;
use cgra_mapper_core::metrics::{Metrics, UtilizationMap};
use cgra_mapper_core::request::{MapOutcome, MapRequest};
use cgra_mapper_core::servemetrics::ServiceMetrics;
use cgra_mapper_core::service::{execute, ExecEnv, MapService, ServiceOptions};
use cgra_mapper_core::telemetry::{Phase, StatsSnapshot, Telemetry};
use cgra_mapper_core::validate::validate;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One span: a call into one layer on behalf of one replayed input.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub req: usize,
    /// On the daemon's own path for this input. Spans off the path
    /// probe a layer the path reaches inside another call (the cache
    /// key inside `handle`, validate inside `execute`, ...).
    pub path: bool,
}

struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        path: bool,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
            path,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end = Instant::now();
        }
    }

    /// Time `f` as a span; returns its result and the span's index.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        path: bool,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        let idx = self.open(name, parent, req, path);
        let out = black_box(f());
        self.close(idx);
        (out, idx)
    }
}

/// Search-effort counters summed over the replayed solves.
#[derive(Default)]
pub struct Effort {
    pub solves: u64,
    pub dfg_nodes: u64,
    pub stats: StatsSnapshot,
    pub spans_dropped: u64,
}

impl Effort {
    fn add(&mut self, s: &StatsSnapshot) {
        let t = &mut self.stats;
        t.ii_attempts += s.ii_attempts;
        t.placements_tried += s.placements_tried;
        t.backtracks += s.backtracks;
        t.routing_calls += s.routing_calls;
        t.routing_failures += s.routing_failures;
        t.moves_proposed += s.moves_proposed;
        t.nodes_expanded += s.nodes_expanded;
        t.solver_decisions += s.solver_decisions;
        t.solver_propagations += s.solver_propagations;
        t.solver_conflicts += s.solver_conflicts;
        t.solver_warm_pivots_saved += s.solver_warm_pivots_saved;
    }

    /// Mean of one counter per replayed solve.
    pub fn per_solve(&self, total: u64) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            total as f64 / self.solves as f64
        }
    }
}

/// What one replay pass produced.
pub struct Pass {
    pub wall: Duration,
    pub inputs: usize,
    pub spans: Vec<Span>,
    pub effort: Effort,
    /// Mapper family per replayed input (map requests only).
    pub family: BTreeMap<usize, &'static str>,
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
}

/// The service the daemon builds at its shipped defaults.
fn shipped_service() -> MapService {
    MapService::with_options(ServiceOptions {
        metrics: ServiceMetrics::enabled(),
        ..ServiceOptions::default()
    })
}

fn farm_of(specs: &[cgra_mapper_core::request::FabricSpec]) -> Vec<FleetFabric> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| FleetFabric::new(format!("f{i}:{}", fleet::fabric_label(s)), *s))
        .collect()
}

/// Replay `items` after the workload's prefill and warm-up, with spans
/// `on` or off. Stops early at `deadline`, if given.
pub fn pass(w: &Workload, items: &[Item], on: bool, deadline: Option<Instant>) -> Pass {
    let svc = shipped_service();
    let incr = IncrementalCtx::new();
    for &k in &w.prefill {
        svc.handle(&w.keys[k].req);
    }
    for item in &w.warmup {
        match item {
            Item::Fleet(f) => {
                let farm = farm_of(&f.fabrics);
                if let Ok(p) = fleet::plan(&f.requests, &farm, Some(&svc)) {
                    fleet::run(&f.requests, &farm, &p, &svc);
                }
            }
            Item::Fresh(j) => {
                svc.handle(&j.req);
            }
            Item::Key(k) => {
                svc.handle(&w.keys[*k].req);
            }
        }
    }
    let mut t = Tracer {
        on,
        spans: Vec::new(),
    };
    let mut res = Pass {
        wall: Duration::ZERO,
        inputs: 0,
        spans: Vec::new(),
        effort: Effort::default(),
        family: BTreeMap::new(),
        request_bytes: Vec::new(),
        reply_bytes: Vec::new(),
    };
    let t0 = Instant::now();
    for (r, item) in items.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let line = item.line(&w.keys);
        let root = t.open("request", None, r, true);
        let (v, _) = t.time("serve.wire_decode", root, r, true, || {
            serde_json::from_str(line.trim_end()).expect("generated lines are valid JSON")
        });
        let (op, _) = t.time("serve.op_decode", root, r, true, || {
            Op::from_json(&v).expect("generated lines are valid ops")
        });
        let reply = match op {
            Op::Map(req) => {
                res.family.insert(r, w.family_of(&req.mapper));
                let out = map_path(&mut t, &svc, &incr, &req, root, r, &mut res.effort);
                let (reply, _) = t.time("serve.encode", root, r, true, || {
                    Value::Object(vec![
                        ("ok".into(), Value::Bool(true)),
                        ("outcome".into(), out.to_value()),
                    ])
                    .render()
                });
                reply
            }
            Op::Fleet { requests, fabrics } => {
                let farm = farm_of(&fabrics);
                let (plan, _) = t.time("fleet.plan", root, r, true, || {
                    fleet::plan(&requests, &farm, Some(&svc)).expect("the farm is valid")
                });
                let (report, _) = t.time("fleet.run", root, r, true, || {
                    fleet::run(&requests, &farm, &plan, &svc)
                });
                let (reply, _) = t.time("serve.encode", root, r, true, || {
                    Value::Object(vec![
                        ("ok".into(), Value::Bool(true)),
                        ("fleet".into(), report.to_value()),
                    ])
                    .render()
                });
                reply
            }
            other => panic!("workloads generate map and fleet ops only, not {other:?}"),
        };
        t.close(root);
        res.request_bytes.push(line.len() as f64);
        res.reply_bytes.push(reply.len() as f64 + 1.0);
        res.inputs += 1;
    }
    res.wall = t0.elapsed();
    res.spans = t.spans;
    res
}

fn map_path(
    t: &mut Tracer,
    svc: &MapService,
    incr: &IncrementalCtx,
    req: &MapRequest,
    root: Option<usize>,
    r: usize,
    effort: &mut Effort,
) -> MapOutcome {
    // On a hit, `handle` computes the key and probes the cache itself;
    // the two probes here time those layers alone.
    let cached = svc.is_cached(req);
    let (key, _) = t.time("request.cache_key", root, r, !cached, || req.cache_key());
    let (hit, _) = t.time("service.cache_get", root, r, !cached, || {
        svc.cache().get(&key)
    });
    if hit.is_some() {
        return t
            .time("service.handle_hit", root, r, true, || svc.handle(req))
            .0;
    }
    // `execute` compiles and builds the fabric again itself, and the
    // daemon pools topologies; these two spans time those layers alone.
    let (dfg, _) = t.time("frontend.compile", root, r, false, || {
        req.kernel.compile().expect("generated kernels compile")
    });
    let ((fabric, topo), _) = t.time("topo.build", root, r, false, || {
        let fabric = req.fabric.build().expect("generated fabrics build");
        let topo = Arc::new(TopologyCache::build(&fabric));
        (fabric, topo)
    });
    let tele = Telemetry::enabled();
    let env = ExecEnv {
        topo: Some(topo),
        incr: incr.clone(),
        telemetry: Some(tele.clone()),
        collect: true,
        ..ExecEnv::default()
    };
    let origin = Instant::now();
    let (mut out, exec) = t.time("mappers.execute", root, r, true, || execute(req, &env));
    // The mapper's own phase spans become children of `execute`, so its
    // self time is the mapper search alone. Per-II map spans enclose the
    // route spans and are left out.
    if t.on {
        for s in tele.spans() {
            let name = match s.phase {
                Phase::Parse => "execute.parse",
                Phase::Optimize => "execute.optimize",
                Phase::Route => "route",
                Phase::Validate => "execute.validate",
                Phase::Map | Phase::Simulate => continue,
            };
            let start = origin + Duration::from_micros(s.start_us);
            t.spans.push(Span {
                name,
                start,
                end: start + Duration::from_micros(s.dur_us),
                parent: exec,
                req: r,
                path: false,
            });
        }
    }
    effort.solves += 1;
    effort.dfg_nodes += dfg.node_count() as u64;
    effort.spans_dropped += tele.spans_dropped();
    if let Some(s) = &out.stats {
        effort.add(s);
    }
    if let Some(m) = out.mapping.clone() {
        t.time("validate", root, r, false, || {
            validate(&m, &dfg, &fabric).is_ok()
        });
        t.time("metrics.of", root, r, false, || {
            (
                Metrics::of(&m, &dfg, &fabric),
                UtilizationMap::of(&m, &dfg, &fabric),
            )
        });
    }
    // The daemon neither collects nor sends the observability payload.
    out.stats = None;
    out.events.clear();
    out.latency.clear();
    out.events_dropped = 0;
    out.spans_dropped = 0;
    let shared = Arc::new(out.clone());
    t.time("service.cache_insert", root, r, true, || {
        svc.cache().insert(key, shared)
    });
    out
}

/// Write the spans as JSON lines: name, start and end in µs from the
/// pass start, parent span index (-1 for none), replayed input index.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let Some(origin) = spans.first().map(|s| s.start) else {
        return Ok(());
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let us = |i: Instant| i.saturating_duration_since(origin).as_secs_f64() * 1e6;
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"path\":{}}}",
            s.req,
            s.name,
            us(s.start),
            us(s.end),
            s.parent.map(|p| p as i64).unwrap_or(-1),
            s.path
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Per-input self time of each span name, µs: a span's duration minus
/// its children's, summed over the input's spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
        }
    }
    let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
        *out.entry(s.name).or_default().entry(s.req).or_default() += dur - child_us[i];
    }
    out
}

/// Per input, the total duration (µs) of the spans on the daemon's own
/// path directly under the input's root span.
pub fn path_totals(spans: &[Span]) -> Vec<f64> {
    let mut out: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        let top = s.parent.is_some_and(|p| spans[p].parent.is_none());
        if top && s.path {
            *out.entry(s.req).or_default() +=
                s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
        }
    }
    out.into_values().collect()
}
