//! Load generation over the daemon's TCP protocol: a closed loop (next
//! request when the previous reply is in) or an open loop (requests due
//! on a fixed schedule, each timed from when it was due).

use crate::daemon::Conn;
use crate::gate::{answer_of, is_hit};
use crate::workload::{Item, Workload};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long an open-loop generator spins before a due time: a sleeping
/// thread wakes tens of microseconds late, which would be charged to
/// the daemon.
const SPIN: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    Closed,
    /// Requests per second over all connections, spread evenly.
    Open {
        rate: f64,
    },
}

/// One completed operation.
pub struct Op {
    pub item: Item,
    /// Client-observed latency: from send (closed loop) or from the due
    /// time (open loop) to the full reply.
    pub lat_us: f64,
    /// The reply, when the run keeps replies for the gate.
    pub reply: Option<String>,
    /// Whether the reply repeated its key's reference answer, when
    /// compared in place.
    pub matched: Option<bool>,
}

/// What one connection did.
pub struct ConnLog {
    pub ops: Vec<Op>,
    /// The first few replies that differed from their key's reference
    /// answer.
    pub examples: Vec<String>,
    /// Closed loop: time the load thread spent between a reply and its
    /// next send, the generator's own share of the loop.
    pub gap: Duration,
    /// Open loop: how late each request left, beyond the later of its
    /// due time and the previous reply on this connection.
    pub late_us: Vec<f64>,
    pub last_done: Instant,
}

/// How replies are checked while the load runs.
pub enum Replies<'a> {
    /// Keep every reply for the gate after the run.
    Keep,
    /// Compare each reply of a fixed key in place with the key's
    /// reference answer: its prefill answer (entries may be empty), else
    /// the first answer this connection saw. Keep only replies with no
    /// reference yet and misses whose answer differs, for the gate; a
    /// hit that differs is a wrong answer.
    Compare(&'a [(String, String)]),
}

/// Drive `conns` connections against `addr` for `run_for`, one thread
/// each, on the workload's input streams `first..first + conns`.
/// Returns each connection's log and the start instant.
pub fn drive(
    addr: SocketAddr,
    w: &Workload,
    (first, conns): (usize, usize),
    pacing: Pacing,
    run_for: Duration,
    replies: &Replies<'_>,
) -> Result<(Vec<ConnLog>, Instant), String> {
    let links = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let run = Run {
        start,
        end: start + run_for,
        conns,
        pacing,
    };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(c, link)| scope.spawn(move || run.conn(link, w, c, first + c, replies)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((logs, start))
}

/// The timed phase every connection thread shares.
#[derive(Clone, Copy)]
struct Run {
    start: Instant,
    end: Instant,
    conns: usize,
    pacing: Pacing,
}

impl Run {
    /// Drive connection `c` with input stream `stream` until `end`; the
    /// request in flight at `end` completes.
    fn conn(
        self,
        mut link: Conn,
        w: &Workload,
        c: usize,
        stream: usize,
        replies: &Replies<'_>,
    ) -> Result<ConnLog, String> {
        let mut log = ConnLog {
            ops: Vec::new(),
            examples: Vec::new(),
            gap: Duration::ZERO,
            late_us: Vec::new(),
            last_done: self.start,
        };
        let mut stream = w.stream(stream);
        let mut reply = String::new();
        let mut seen: HashMap<usize, (String, String)> = HashMap::new();
        if let Some(wait) = self.start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        for k in 0u64.. {
            let due = match self.pacing {
                Pacing::Closed => None,
                Pacing::Open { rate } => {
                    let slot = k as f64 + c as f64 / self.conns as f64;
                    Some(self.start + Duration::from_secs_f64(slot * self.conns as f64 / rate))
                }
            };
            match due {
                Some(d) if d >= self.end => break,
                Some(d) => {
                    if let Some(wait) = d.checked_duration_since(Instant::now() + SPIN) {
                        std::thread::sleep(wait);
                    }
                    while Instant::now() < d {
                        std::hint::spin_loop();
                    }
                }
                None if Instant::now() >= self.end => break,
                None => {}
            }
            let item = stream.next().expect("input streams are endless");
            let sent = Instant::now();
            match due {
                Some(d) => log.late_us.push(
                    sent.saturating_duration_since(d.max(log.last_done))
                        .as_secs_f64()
                        * 1e6,
                ),
                None => log.gap += sent.saturating_duration_since(log.last_done),
            }
            link.send(item.line(&w.keys))?;
            link.recv(&mut reply)?;
            let done = Instant::now();
            let (kept, matched) = match (replies, &item) {
                (Replies::Compare(refs), Item::Key(i)) => match answer_of(&reply) {
                    Err(_) => (Some(reply.clone()), None),
                    Ok((a, b)) => {
                        let known = Some(&refs[*i])
                            .filter(|r| !r.0.is_empty())
                            .or_else(|| seen.get(i));
                        match known {
                            Some(r) if r.0 == a && r.1 == b => (None, Some(true)),
                            Some(_) if is_hit(&reply) => {
                                if log.examples.len() < 4 {
                                    log.examples
                                        .push(format!("key {i}: {}", crate::gate::clip(&reply)));
                                }
                                (None, Some(false))
                            }
                            Some(_) => (Some(reply.clone()), None),
                            None => {
                                seen.insert(*i, (a.to_string(), b.to_string()));
                                (Some(reply.clone()), None)
                            }
                        }
                    }
                },
                _ => (Some(reply.clone()), None),
            };
            log.ops.push(Op {
                item,
                lat_us: done.duration_since(due.unwrap_or(sent)).as_secs_f64() * 1e6,
                reply: kept,
                matched,
            });
            log.last_done = done;
        }
        Ok(log)
    }
}
