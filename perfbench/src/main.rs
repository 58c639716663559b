//! `cgra-perfbench`: the end-to-end and per-layer benchmark of the
//! `cgra-serve` mapping daemon.
//!
//! ```sh
//! bash perfbench/run.sh --workload hit-storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run spawns the real daemon at its shipped defaults (port from
//! its JSON boot line), sets it up five times and keeps the last, then
//! drives one seeded workload over the line protocol for `--seconds`.
//! Every answer goes through the correctness gate after the timed
//! region. `--trace 0` prints the end-to-end metrics; `--trace 1` also
//! replays the same inputs in-process, once without and once with
//! spans, and prints the per-layer metrics. Human-readable lines come
//! first; the last line of stdout is one JSON object. The exit code is
//! non-zero on a wrong answer, an invalid run or any error.

mod daemon;
mod drive;
mod gate;
mod replay;
mod stats;
mod workload;

use cgra_mapper_core::fleet::fabric_label;
use daemon::{Conn, Daemon};
use drive::{ConnLog, Pacing, Replies};
use gate::{Gate, Verdict};
use serde::Serialize;
use stats::{geomean, median, percentile, PromHistogram};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{FleetOp, Item, Kind, Workload};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of the timed phase the load threads may spend on their own
/// work before a run is invalid.
const GAP_LIMIT: f64 = 0.2;
/// Rate of the open-loop probe `mixed-churn` adds to its traced run,
/// requests per second over both connections.
const OPEN_RATE: f64 = 1000.0;
/// Median open-loop generator lateness allowed before a run is invalid.
const LATE_LIMIT_US: f64 = 1000.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut daemon = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{v}`; valid: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace,
        daemon: daemon.ok_or("--daemon is required")?,
    })
}

/// One metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness accounting over the timed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wrong answers: each also counts as failed, and fails the run.
    wrong: u64,
    /// The first few failures, wrong answers marked.
    notes: Vec<String>,
    /// Per solved operation: achieved II over the analytic MII.
    ii_ratio: Vec<f64>,
    /// Per operation: whether it produced a correct answer.
    ok: Vec<bool>,
}

impl Tally {
    /// Record one gate verdict; returns II over MII when solved.
    fn verdict(&mut self, v: Result<Verdict, String>, what: &str) -> Option<f64> {
        match v {
            Ok(Verdict::Solved { ii, mii }) => Some(ii as f64 / mii as f64),
            Ok(Verdict::Failed(why)) | Err(why) => {
                self.fail(false, format!("{what}: {why}"));
                None
            }
            Ok(Verdict::Wrong(why)) => {
                self.fail(true, format!("{what}: {why}"));
                None
            }
        }
    }

    /// Count one failure; `wrong` marks a wrong answer rather than a
    /// typed error or refused request.
    fn fail(&mut self, wrong: bool, why: String) {
        self.failed += 1;
        self.wrong += wrong as u64;
        if self.notes.len() < 8 {
            self.notes.push(format!(
                "{}{why}",
                if wrong { "WRONG: " } else { "failed: " }
            ));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cgra-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cgra-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What the daemon run leaves for the report and the traced run.
struct DaemonRun {
    setup_s: Vec<f64>,
    logs: Vec<ConnLog>,
    elapsed_s: f64,
    stats0: serde::Value,
    stats1: serde::Value,
    metrics0: String,
    metrics1: String,
    peak_rss_mb: f64,
    tally: Tally,
    /// `fleet-queue`: per-op fleet reports.
    fleets: Vec<serde::Value>,
    /// `mixed-churn`, traced run: the open-loop probe.
    open: Vec<ConnLog>,
}

fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let w = Workload::new(args.kind, args.seed, &root)?;
    let conns = args.kind.connections();
    let name = args.kind.name();
    println!(
        "workload {name} seed {} seconds {} trace {} load_threads {conns} connections {conns} \
         available_parallelism {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{name} inputs: {}", w.describe());

    let d = daemon_run(args, &w)?;
    let lats = sorted_latencies(&d.logs);
    let n = lats.len();
    let p50 = percentile(&lats, 50.0);
    let p99 = percentile(&lats, 99.0);
    let slo = args.kind.slo_us();
    let met = d
        .logs
        .iter()
        .flat_map(|l| &l.ops)
        .zip(&d.tally.ok)
        .filter(|(op, ok)| **ok && op.lat_us <= slo)
        .count();
    let e2e = vec![
        m("setup_s", median(&d.setup_s), "s"),
        m("p50_us", p50, "us"),
        m("p99_us", p99, "us"),
        m("ops_per_s", n as f64 / d.elapsed_s, "1/s"),
        m("slo_share", met as f64 / n.max(1) as f64, "ratio"),
        m("ii_over_mii", geomean(&d.tally.ii_ratio), "ratio"),
        m("peak_rss_mb", d.peak_rss_mb, "MB"),
    ];
    for x in &e2e {
        println!("{name} {} {} {}", x.name, x.value, x.unit);
    }
    let failed_share = d.tally.failed as f64 / d.tally.attempted.max(1) as f64;
    println!(
        "{name} failed_share {failed_share} ratio ({} of {} attempted; {} wrong answers)",
        d.tally.failed, d.tally.attempted, d.tally.wrong
    );
    println!(
        "{name} latency samples {n}; {} beyond p99; quartiles {} / {p50} / {} us; p90 {} us; \
         slo limit {slo} us; setups {:?} s",
        lats.iter().filter(|&&l| l > p99).count(),
        percentile(&lats, 25.0),
        percentile(&lats, 75.0),
        percentile(&lats, 90.0),
        d.setup_s
    );
    // A closed loop measures the daemon only while the load threads
    // wait on it: a run whose threads spent more than a fifth of the
    // phase between a reply and their next send is invalid, not slow.
    let gap_share = d.logs.iter().map(|l| l.gap.as_secs_f64()).sum::<f64>()
        / (d.logs.len().max(1) as f64 * d.elapsed_s);
    println!("{name} client gap share {gap_share} (limit {GAP_LIMIT})");
    if gap_share > GAP_LIMIT {
        return Err(format!(
            "run invalid: the load threads spent {gap_share} of the phase between a reply \
             and the next send, beyond the {GAP_LIMIT} limit"
        ));
    }
    // The open-loop probe is invalid, not slow, when its generator
    // itself fell behind: half its sends left over a millisecond after
    // they were due and the connection was free. (Whole-machine stalls
    // delay about 1% of sends by milliseconds on a shared host; they
    // delay the daemon alike and are reported, not gated.)
    let late = sorted(d.open.iter().flat_map(|l| l.late_us.iter().copied()));
    if !d.open.is_empty() {
        println!(
            "{name} open-loop probe at {OPEN_RATE} req/s: generator lateness p50 {} us \
             p99 {} us max {} us (limit p50 {LATE_LIMIT_US} us)",
            percentile(&late, 50.0),
            percentile(&late, 99.0),
            late.last().copied().unwrap_or(0.0)
        );
    }
    if percentile(&late, 50.0) > LATE_LIMIT_US {
        return Err(format!(
            "run invalid: the open-loop generator ran {} us late at p50, beyond the \
             benchmark's {LATE_LIMIT_US} us limit",
            percentile(&late, 50.0)
        ));
    }
    let fleet = fleet_summary(&d.fleets);
    if args.kind == Kind::FleetQueue {
        println!(
            "{name} makespan_ms {} ms fleet_util {} ratio (medians over {} ops)",
            fleet.makespan_ms,
            fleet.util,
            d.fleets.len()
        );
    }
    for note in &d.tally.notes {
        println!("{name} {note}");
    }
    let correct = d.tally.wrong == 0;

    let metrics = if args.trace {
        let layers = traced(args, &w, &d, p50, gap_share, &fleet)?;
        for x in &layers {
            println!("{name} {} {} {}", x.name, x.value, x.unit);
        }
        layers
    } else {
        e2e
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        d.tally.attempted,
        d.tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

fn sorted_latencies(logs: &[ConnLog]) -> Vec<f64> {
    sorted(logs.iter().flat_map(|l| l.ops.iter().map(|o| o.lat_us)))
}

/// The replies the set-up received for the prefilled keys, by key.
type Refs = HashMap<usize, String>;

/// Spawn, warm and prefill one daemon; returns it with the prefill
/// replies.
fn set_up(bin: &std::path::Path, w: &Workload) -> Result<(Daemon, Refs), String> {
    let d = Daemon::spawn(bin)?;
    let mut c = d.connect()?;
    for item in &w.warmup {
        let reply = c.call(item.line(&w.keys))?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("warm-up request failed: {}", gate::clip(&reply)));
        }
    }
    let mut refs = Refs::new();
    for &k in &w.prefill {
        refs.insert(k, c.call(&w.keys[k].line)?);
    }
    Ok((d, refs))
}

fn daemon_run(args: &Args, w: &Workload) -> Result<DaemonRun, String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((d, _)) = live.take() {
            Daemon::stop(d)?;
        }
        let t0 = Instant::now();
        let up = set_up(&args.daemon, w)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(up);
    }
    let (daemon, prefill) = live.ok_or("no set-up ran")?;

    // Reference answers of the prefilled keys, gated before use.
    let mut gate = Gate::new(args.seed);
    let mut tally = Tally::default();
    let mut refs = vec![(String::new(), String::new()); w.keys.len()];
    let mut key_ratio: HashMap<usize, f64> = HashMap::new();
    for (&k, reply) in &prefill {
        let (a, b) = gate::answer_of(reply)?;
        refs[k] = (a.to_string(), b.to_string());
        // The prefill is untimed: any failure there ends the run.
        match gate.reply(&w.keys[k].req, reply)? {
            Verdict::Solved { ii, mii } => key_ratio.insert(k, ii as f64 / mii as f64),
            Verdict::Failed(why) => return Err(format!("prefill key {k} failed: {why}")),
            Verdict::Wrong(why) => return Err(format!("prefill key {k} is wrong: {why}")),
        };
    }

    let mut ctl = daemon.connect()?;
    let stats0 = ctl.control("stats")?;
    let metrics0 = metrics_text(&mut ctl)?;
    let replies = match args.kind {
        Kind::HitStorm | Kind::MixedChurn => Replies::Compare(&refs),
        _ => Replies::Keep,
    };
    let conns = args.kind.connections();
    let (logs, start) = drive::drive(
        daemon.addr,
        w,
        (0, conns),
        Pacing::Closed,
        Duration::from_secs(args.seconds),
        &replies,
    )?;
    let last = logs.iter().map(|l| l.last_done).max().unwrap_or(start);
    let elapsed_s = last
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(1e-9);
    let stats1 = ctl.control("stats")?;
    let metrics1 = metrics_text(&mut ctl)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    // The traced run of `mixed-churn` adds an open-loop probe on fresh
    // input streams, after the counters above are read.
    let open = if args.trace && args.kind == Kind::MixedChurn {
        let probe = Duration::from_secs_f64(args.seconds as f64 / 3.0);
        let open_rate = Pacing::Open { rate: OPEN_RATE };
        drive::drive(daemon.addr, w, (conns, conns), open_rate, probe, &replies)?.0
    } else {
        Vec::new()
    };

    // The gate, outside the timed region.
    for ex in logs.iter().chain(&open).flat_map(|l| &l.examples) {
        println!(
            "{}: hit differs from its key's first answer: {ex}",
            args.kind.name()
        );
    }
    let mut check = Checker {
        w,
        gate,
        key_ratio,
        fleets: Vec::new(),
    };
    for op in logs.iter().flat_map(|l| &l.ops) {
        let ratios = check.op(op, &mut ctl, &mut tally);
        tally.ok.push(ratios.is_some());
        tally.ii_ratio.extend(ratios.into_iter().flatten());
    }
    // The open-loop probe's answers go through the same gate; its
    // operations count as attempted, but the end-to-end figures are the
    // closed loop's.
    for op in open.iter().flat_map(|l| &l.ops) {
        check.op(op, &mut ctl, &mut tally);
    }
    let Checker { gate, fleets, .. } = check;
    println!(
        "{}: the gate checked {} distinct answers",
        args.kind.name(),
        gate.distinct()
    );
    let hits = stat(&stats1, "hits");
    let misses = stat(&stats1, "misses");
    let requests = stat(&stats1, "requests");
    if hits + misses != requests {
        tally.fail(
            true,
            format!("stats break hits + misses == requests: {hits} + {misses} != {requests}"),
        );
    }
    drop(ctl);
    daemon.stop()?;
    Ok(DaemonRun {
        setup_s,
        logs,
        elapsed_s,
        stats0,
        stats1,
        metrics0,
        metrics1,
        peak_rss_mb,
        tally,
        fleets,
        open,
    })
}

/// Gates each timed operation.
struct Checker<'a> {
    w: &'a Workload,
    gate: Gate,
    /// II over MII of each fixed key's gated answer.
    key_ratio: HashMap<usize, f64>,
    fleets: Vec<serde::Value>,
}

impl Checker<'_> {
    /// Count and check one operation; returns II over MII of each
    /// solved answer, or `None` when the operation failed.
    fn op(&mut self, op: &drive::Op, ctl: &mut Conn, tally: &mut Tally) -> Option<Vec<f64>> {
        tally.attempted += 1;
        match (&op.item, &op.reply) {
            // Compared in place with an answer gated before it: the
            // prefill's, or an earlier reply on the same connection.
            (Item::Key(k), None) if op.matched == Some(true) => {
                self.key_ratio.get(k).map(|&r| vec![r])
            }
            (Item::Key(k), None) => {
                tally.fail(true, format!("hit differs from key {k}'s first answer"));
                None
            }
            (Item::Key(k), Some(reply)) => {
                let v = self.gate.reply(&self.w.keys[*k].req, reply);
                let r = tally.verdict(v, &format!("key {k}"));
                if let Some(r) = r {
                    self.key_ratio.insert(*k, r);
                }
                r.map(|r| vec![r])
            }
            (Item::Fresh(job), Some(reply)) => {
                let what = format!("{} on {}", job.req.mapper, fabric_label(&job.req.fabric));
                tally
                    .verdict(self.gate.reply(&job.req, reply), &what)
                    .map(|r| vec![r])
            }
            (Item::Fleet(f), Some(reply)) => match check_fleet(f, reply, &mut self.gate, ctl) {
                Ok((report, ratios)) => {
                    self.fleets.push(report);
                    Some(ratios)
                }
                Err((wrong, why)) => {
                    tally.fail(wrong, why);
                    None
                }
            },
            (_, None) => {
                tally.fail(true, "a reply was not kept for the gate".into());
                None
            }
        }
    }
}

/// Check one fleet reply: every queue entry scheduled exactly once,
/// and every job's mapping, fetched with one follow-up `batch` of `map`
/// requests, gated. Returns the report and each job's II over MII, or
/// the failure and whether it is a wrong answer.
fn check_fleet(
    f: &FleetOp,
    reply: &str,
    gate: &mut Gate,
    ctl: &mut Conn,
) -> Result<(serde::Value, Vec<f64>), (bool, String)> {
    let v = serde_json::from_str(reply).map_err(|e| (false, format!("fleet reply: {e}")))?;
    let report = v
        .get("fleet")
        .filter(|_| v.get("ok").and_then(|b| b.as_bool()) == Some(true))
        .ok_or_else(|| (false, format!("fleet op failed: {}", gate::clip(reply))))?;
    let jobs = report
        .get("jobs")
        .and_then(|j| j.as_array())
        .cloned()
        .unwrap_or_default();
    let index =
        |job: &serde::Value, k: &str| job.get(k).and_then(|x| x.as_u64()).map(|x| x as usize);
    let mut seen = vec![0u32; f.requests.len()];
    let mut placed = Vec::new();
    for job in &jobs {
        let (qi, fi) = match (index(job, "queue_index"), index(job, "fabric_index")) {
            (Some(q), Some(fab)) if q < seen.len() && fab < f.fabrics.len() => (q, fab),
            _ => return Err((true, "fleet job with bad queue/fabric index".into())),
        };
        seen[qi] += 1;
        if let Some(e) = job.get("error").and_then(|e| e.as_str()) {
            return Err((false, format!("fleet job {qi}: {e}")));
        }
        let mut req = f.requests[qi].clone();
        req.fabric = f.fabrics[fi];
        placed.push((qi, index(job, "ii"), req));
    }
    if seen.iter().any(|&s| s != 1) {
        return Err((
            true,
            format!("fleet schedules queue entries {seen:?} times, not once each"),
        ));
    }
    let batch = serde::Value::Object(vec![
        ("op".into(), serde::Value::Str("batch".into())),
        (
            "requests".into(),
            serde::Value::Array(placed.iter().map(|(_, _, r)| r.to_value()).collect()),
        ),
    ]);
    let follow = ctl
        .call(&format!("{}\n", batch.render()))
        .and_then(|r| serde_json::from_str(&r).map_err(|e| e.to_string()))
        .map_err(|e| (false, format!("fleet follow-up: {e}")))?;
    let outcomes = follow
        .get("outcomes")
        .and_then(|o| o.as_array())
        .cloned()
        .unwrap_or_default();
    if outcomes.len() != placed.len() {
        return Err((
            false,
            "fleet follow-up returned the wrong number of outcomes".into(),
        ));
    }
    let mut ratios = Vec::new();
    for ((qi, ii, req), out) in placed.iter().zip(&outcomes) {
        let one = format!("{{\"ok\":true,\"outcome\":{}}}", out.render());
        match gate.reply(req, &one) {
            Ok(Verdict::Solved { ii: got, mii }) if *ii == Some(got as usize) => {
                ratios.push(got as f64 / mii as f64)
            }
            Ok(Verdict::Solved { ii: got, .. }) => {
                return Err((
                    true,
                    format!("fleet job {qi}: report II {ii:?}, mapping II {got}"),
                ))
            }
            Ok(Verdict::Failed(why)) | Err(why) => {
                return Err((false, format!("fleet job {qi} follow-up: {why}")))
            }
            Ok(Verdict::Wrong(why)) => return Err((true, format!("fleet job {qi}: {why}"))),
        }
    }
    Ok((report.clone(), ratios))
}

fn metrics_text(ctl: &mut Conn) -> Result<String, String> {
    let v = ctl.control("metrics")?;
    Ok(v.get("metrics")
        .and_then(|m| m.as_str())
        .unwrap_or("")
        .to_string())
}

fn stat(stats: &serde::Value, field: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(field))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

/// Fleet-report rollups over the timed ops (medians over ops).
#[derive(Default)]
struct FleetSummary {
    makespan_ms: f64,
    util: f64,
    busy_ms: [f64; 2],
    idle_ms: [f64; 2],
    share_error: f64,
}

fn fleet_summary(reports: &[serde::Value]) -> FleetSummary {
    if reports.is_empty() {
        return FleetSummary::default();
    }
    let num = |v: &serde::Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let mut makespan = Vec::new();
    let mut util = Vec::new();
    let mut busy = [Vec::new(), Vec::new()];
    let mut idle = [Vec::new(), Vec::new()];
    let mut share_error = Vec::new();
    for r in reports {
        let span = num(r, "makespan_ms");
        let fabrics = r
            .get("fabrics")
            .and_then(|f| f.as_array())
            .cloned()
            .unwrap_or_default();
        let jobs = r
            .get("jobs")
            .and_then(|j| j.as_array())
            .cloned()
            .unwrap_or_default();
        makespan.push(span);
        util.push(stats::mean(
            &fabrics
                .iter()
                .map(|f| num(f, "busy_ms") / span.max(1e-9))
                .collect::<Vec<_>>(),
        ));
        let total_busy: f64 = fabrics.iter().map(|f| num(f, "busy_ms")).sum();
        let total_pred: f64 = jobs.iter().map(|j| num(j, "predicted")).sum();
        let mut err = Vec::new();
        for (i, f) in fabrics.iter().enumerate().take(2) {
            busy[i].push(num(f, "busy_ms"));
            idle[i].push(span - num(f, "busy_ms"));
            let pred: f64 = jobs
                .iter()
                .filter(|j| j.get("fabric_index").and_then(|x| x.as_u64()) == Some(i as u64))
                .map(|j| num(j, "predicted"))
                .sum();
            err.push(
                (pred / total_pred.max(1e-9) - num(f, "busy_ms") / total_busy.max(1e-9)).abs(),
            );
        }
        share_error.push(stats::mean(&err));
    }
    FleetSummary {
        makespan_ms: median(&makespan),
        util: median(&util),
        busy_ms: [median(&busy[0]), median(&busy[1])],
        idle_ms: [median(&idle[0]), median(&idle[1])],
        share_error: median(&share_error),
    }
}

/// The traced run: replay the inputs the daemon run sent, with spans
/// off, on, then off again, and derive every per-layer metric.
fn traced(
    args: &Args,
    w: &Workload,
    d: &DaemonRun,
    e2e_p50: f64,
    gap_share: f64,
    fleet: &FleetSummary,
) -> Result<Vec<Metric>, String> {
    // The same inputs, in the order the connections drew them.
    let counts: Vec<usize> = d.logs.iter().map(|l| l.ops.len()).collect();
    let mut streams: Vec<_> = (0..counts.len()).map(|c| w.stream(c)).collect();
    let mut items = Vec::new();
    for i in 0..counts.iter().copied().max().unwrap_or(0) {
        for (c, s) in streams.iter_mut().enumerate() {
            if i < counts[c] {
                items.push(s.next().expect("input streams are endless"));
            }
        }
    }
    // Three passes over the same inputs — spans off, on, off — so the
    // overhead compares the traced pass with both untraced neighbours
    // rather than with a colder first pass.
    let budget = Duration::from_secs_f64((args.seconds as f64 / 3.0).max(1.0));
    let off1 = replay::pass(w, &items, false, Some(Instant::now() + budget));
    let items = &items[..off1.inputs];
    let on = replay::pass(w, items, true, None);
    let off2 = replay::pass(w, items, false, None);
    let off_s = (off1.wall.as_secs_f64() + off2.wall.as_secs_f64()) / 2.0;
    let on_s = on.wall.as_secs_f64();
    let path = PathBuf::from(format!(".bench_out/spans-{}.jsonl", args.kind.name()));
    replay::write_spans(&path, &on.spans)?;
    println!(
        "{} traced replay: {} inputs, spans off {:.3} s / {:.3} s, on {on_s:.3} s, \
         {} spans in {}, {} mapper spans dropped",
        args.kind.name(),
        on.inputs,
        off1.wall.as_secs_f64(),
        off2.wall.as_secs_f64(),
        on.spans.len(),
        path.display(),
        on.effort.spans_dropped
    );

    let selfs = replay::self_times(&on.spans);
    let p50_of = |name: &str| -> f64 {
        selfs
            .get(name)
            .map(|per| median(&per.values().copied().collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    let family_p50 = |family: &str| -> f64 {
        let v: Vec<f64> = selfs
            .get("mappers.execute")
            .map(|per| {
                per.iter()
                    .filter(|(r, _)| on.family.get(r) == Some(&family))
                    .map(|(_, us)| *us)
                    .collect()
            })
            .unwrap_or_default();
        median(&v)
    };
    // What the replayed layers leave of the median request: socket
    // transfer, scheduling and anything else no span covers.
    let unattributed = e2e_p50 - median(&replay::path_totals(&on.spans));

    let delta = |field: &str| stat(&d.stats1, field).saturating_sub(stat(&d.stats0, field)) as f64;
    let hist = |name: &str, p: f64| {
        PromHistogram::delta_percentile(
            &PromHistogram::parse(&d.metrics0, name),
            &PromHistogram::parse(&d.metrics1, name),
            p,
        )
    };
    let e = &on.effort;
    let s = &e.stats;
    let open = sorted_latencies(&d.open);
    let late = sorted(d.open.iter().flat_map(|l| l.late_us.iter().copied()));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Ok(vec![
        m("serve.wire_decode_us", p50_of("serve.wire_decode"), "us"),
        m("serve.op_decode_us", p50_of("serve.op_decode"), "us"),
        m("serve.encode_us", p50_of("serve.encode"), "us"),
        m("serve.request_bytes", median(&on.request_bytes), "bytes"),
        m("serve.reply_bytes", median(&on.reply_bytes), "bytes"),
        m("serve.unattributed_us", unattributed, "us"),
        m(
            "serve.unattributed_share",
            ratio(unattributed, e2e_p50),
            "ratio",
        ),
        m("request.cache_key_us", p50_of("request.cache_key"), "us"),
        m("service.handle_hit_us", p50_of("service.handle_hit"), "us"),
        m("service.cache_get_us", p50_of("service.cache_get"), "us"),
        m(
            "service.cache_insert_us",
            p50_of("service.cache_insert"),
            "us",
        ),
        m(
            "service.hit_ratio",
            ratio(delta("hits"), delta("requests")),
            "ratio",
        ),
        m("service.evictions", delta("evictions"), "count"),
        m("service.coalesced", delta("coalesced"), "count"),
        m("service.rejections", delta("rejections"), "count"),
        m(
            "service.queue_wait_us.p50",
            hist("cgra_serve_queue_wait_us", 50.0),
            "us",
        ),
        m(
            "service.queue_wait_us.p99",
            hist("cgra_serve_queue_wait_us", 99.0),
            "us",
        ),
        m(
            "service.solve_us.p50",
            hist("cgra_serve_solve_us", 50.0),
            "us",
        ),
        m(
            "service.solve_us.p99",
            hist("cgra_serve_solve_us", 99.0),
            "us",
        ),
        m(
            "service.request_us.p50",
            hist("cgra_serve_request_us", 50.0),
            "us",
        ),
        m(
            "service.warm_share",
            ratio(delta("warm"), delta("misses")),
            "ratio",
        ),
        m("frontend.compile_us", p50_of("frontend.compile"), "us"),
        m("frontend.dfg_nodes", e.per_solve(e.dfg_nodes), "count"),
        m("topo.build_us", p50_of("topo.build"), "us"),
        m("mappers.map_us.heuristic", family_p50("heuristic"), "us"),
        m("mappers.map_us.meta", family_p50("meta"), "us"),
        m("mappers.map_us.exact", family_p50("exact"), "us"),
        m("mappers.ii_attempts", e.per_solve(s.ii_attempts), "count"),
        m(
            "mappers.placements_tried",
            e.per_solve(s.placements_tried),
            "count",
        ),
        m("mappers.backtracks", e.per_solve(s.backtracks), "count"),
        m(
            "mappers.moves_proposed",
            e.per_solve(s.moves_proposed),
            "count",
        ),
        m("route.us", p50_of("route"), "us"),
        m("route.calls", e.per_solve(s.routing_calls), "count"),
        m("route.failures", e.per_solve(s.routing_failures), "count"),
        m("validate.us", p50_of("validate"), "us"),
        m("metrics.of_us", p50_of("metrics.of"), "us"),
        m("solver.decisions", e.per_solve(s.solver_decisions), "count"),
        m(
            "solver.propagations",
            e.per_solve(s.solver_propagations),
            "count",
        ),
        m("solver.conflicts", e.per_solve(s.solver_conflicts), "count"),
        m(
            "solver.nodes_expanded",
            e.per_solve(s.nodes_expanded),
            "count",
        ),
        m(
            "solver.warm_pivots_saved",
            e.per_solve(s.solver_warm_pivots_saved),
            "count",
        ),
        m("fleet.plan_us", p50_of("fleet.plan"), "us"),
        m("fleet.run_ms", p50_of("fleet.run") / 1e3, "ms"),
        m("fleet.makespan_ms", fleet.makespan_ms, "ms"),
        m("fleet.util", fleet.util, "ratio"),
        m("fleet.busy_ms.f0", fleet.busy_ms[0], "ms"),
        m("fleet.busy_ms.f1", fleet.busy_ms[1], "ms"),
        m("fleet.idle_ms.f0", fleet.idle_ms[0], "ms"),
        m("fleet.idle_ms.f1", fleet.idle_ms[1], "ms"),
        m("fleet.predicted_share_error", fleet.share_error, "ratio"),
        m("client.gap_share", gap_share, "ratio"),
        m("client.open_p50_us", percentile(&open, 50.0), "us"),
        m("client.open_p99_us", percentile(&open, 99.0), "us"),
        m("client.gen_late_p99_us", percentile(&late, 99.0), "us"),
        m("trace.overhead_share", ratio(on_s - off_s, off_s), "ratio"),
        m("trace.inputs", on.inputs as f64, "count"),
    ])
}
