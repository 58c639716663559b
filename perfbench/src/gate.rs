//! The correctness gate, run outside the timed region: every distinct
//! returned mapping is re-checked with `validate` and simulated against
//! the reference interpreter, and every hit must repeat its key's
//! first answer.

use crate::stats::Rng;
use cgra_arch::Fabric;
use cgra_ir::{graph, Dfg, OpKind, Tape};
use cgra_mapper_core::request::{FabricSpec, MapOutcome, MapRequest};
use cgra_mapper_core::validate::validate;
use std::collections::HashMap;

/// Loop iterations simulated per mapping.
const SIM_ITERS: usize = 16;
/// Words of data memory on the simulation tape.
const SIM_MEMORY: usize = 128;

/// The part of a `map` reply that is the answer: the outcome without
/// the per-request fields `id`, `trace`, `cache`, `compile_ms` and
/// `queue_us`. The daemon renders outcome fields in declaration order,
/// so the answer is the slice from `"kernel"` to `"cache"` plus the
/// slice from `"mapping"` to the end.
pub fn answer_of(reply: &str) -> Result<(&str, &str), String> {
    let malformed = || format!("not a map reply: {}", clip(reply));
    if !reply.starts_with("{\"ok\":true,\"outcome\":{") {
        return Err(malformed());
    }
    let kernel = reply.find(",\"kernel\":").ok_or_else(malformed)?;
    let cache = reply.find(",\"cache\":").ok_or_else(malformed)?;
    let mapping = reply.find(",\"mapping\":").ok_or_else(malformed)?;
    if !(kernel < cache && cache < mapping) {
        return Err(malformed());
    }
    Ok((&reply[kernel..cache], &reply[mapping..]))
}

/// Does this `map` reply report a cache hit?
pub fn is_hit(reply: &str) -> bool {
    reply.contains(",\"cache\":\"hit\",")
}

/// Parse the outcome of a `map` reply.
pub fn outcome_of(reply: &str) -> Result<MapOutcome, String> {
    let v = serde_json::from_str(reply).map_err(|e| format!("reply: {e}"))?;
    if v.get("ok").and_then(|b| b.as_bool()) != Some(true) {
        return Err(format!("ok:false reply: {}", clip(reply)));
    }
    let out = v.get("outcome").ok_or("reply has no outcome")?;
    MapOutcome::from_json(out).map_err(|e| e.to_string())
}

pub fn clip(s: &str) -> String {
    s.chars().take(160).collect()
}

/// How one answer fared.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A valid mapping with its II and the analytic MII.
    Solved { ii: u32, mii: u32 },
    /// A typed failure (timeout, infeasible, ...): counted as failed.
    Failed(String),
    /// A mapping that fails validation or simulation: a wrong answer.
    Wrong(String),
}

/// The analytic MII of `dfg` on `fabric` (`cgra_ir::graph::mii`).
pub fn mii(dfg: &Dfg, fabric: &Fabric) -> u32 {
    let (alu, mul, mem, _) = fabric.slot_counts();
    graph::mii(dfg, &|op| fabric.latency_of(op), alu, mul, mem).max(1)
}

/// A seeded input tape for `dfg`: every input stream and the data
/// memory filled with small signed values.
fn tape(dfg: &Dfg, seed: u64) -> Tape {
    let streams = dfg
        .nodes()
        .filter_map(|(_, n)| match n.op {
            OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut rng = Rng::derive(seed, 0x7a9e);
    let mut value = || rng.below(201) as i64 - 100;
    let inputs = (0..streams)
        .map(|_| (0..SIM_ITERS).map(|_| value()).collect())
        .collect();
    let memory = (0..SIM_MEMORY).map(|_| value()).collect();
    Tape { inputs, memory }
}

/// Check one outcome of `req`: a typed error is a failure; a mapping
/// must pass `validate`, agree with its reported II, and simulate to
/// the interpreter's results on a tape drawn from `seed`.
pub fn check(req: &MapRequest, out: &MapOutcome, seed: u64) -> Verdict {
    if let Some(e) = &out.error {
        return Verdict::Failed(format!("{}: {e}", req.kernel.label()));
    }
    let Some(m) = &out.mapping else {
        return Verdict::Wrong("outcome has neither mapping nor error".into());
    };
    let (dfg, fabric) = match (req.kernel.compile(), req.fabric.build()) {
        (Ok(d), Ok(f)) => (d, f),
        (Err(e), _) | (_, Err(e)) => return Verdict::Wrong(format!("request: {e}")),
    };
    let name = &dfg.name;
    if let Err(e) = validate(m, &dfg, &fabric) {
        return Verdict::Wrong(format!("{name}: mapping fails validate: {e}"));
    }
    if out.ii() != Some(m.ii) {
        return Verdict::Wrong(format!(
            "{name}: reported II {:?} but the mapping has II {}",
            out.ii(),
            m.ii
        ));
    }
    let t = tape(&dfg, seed);
    if let Err(e) = cgra_sim::simulate_verified(m, &dfg, &fabric, SIM_ITERS, &t) {
        return Verdict::Wrong(format!("{name}: simulation disagrees: {e}"));
    }
    Verdict::Solved {
        ii: m.ii,
        mii: mii(&dfg, &fabric),
    }
}

/// Gates each distinct answer once: replies that repeat an answer
/// already checked for the same kernel and fabric reuse its verdict.
pub struct Gate {
    seed: u64,
    seen: HashMap<(u64, FabricSpec, String), Verdict>,
}

impl Gate {
    pub fn new(seed: u64) -> Gate {
        Gate {
            seed,
            seen: HashMap::new(),
        }
    }

    /// The verdict on one `map` reply to `req`; `Err` when the reply is
    /// no map answer at all (`ok:false`, malformed).
    pub fn reply(&mut self, req: &MapRequest, reply: &str) -> Result<Verdict, String> {
        let (_, answer) = answer_of(reply)?;
        let key = (req.kernel.fingerprint(), req.fabric, answer.to_string());
        if let Some(v) = self.seen.get(&key) {
            return Ok(v.clone());
        }
        let v = check(req, &outcome_of(reply)?, self.seed);
        self.seen.insert(key, v.clone());
        Ok(v)
    }

    /// Distinct answers checked so far.
    pub fn distinct(&self) -> usize {
        self.seen.len()
    }
}
