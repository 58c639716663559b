//! The `cgra-serve` daemon as a child process, and line-protocol
//! connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon at its shipped defaults, on an ephemeral port.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon and read its JSON boot line for the port.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut boot = String::new();
        let addr = stdout
            .read_line(&mut boot)
            .map_err(|e| e.to_string())
            .and_then(|_| serde_json::from_str(boot.trim()).map_err(|e| e.to_string()))
            .and_then(|v| {
                v.get("listening")
                    .and_then(|a| a.as_str())
                    .ok_or_else(|| format!("no `listening` in boot line {boot:?}"))?
                    .parse::<SocketAddr>()
                    .map_err(|e| e.to_string())
            });
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = addr.map_err(|e| format!("daemon boot line: {e}"))?;
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// Peak resident set (`VmHWM`) of the daemon process, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// Ask the daemon to stop and wait for it to exit; kill it if it
    /// has not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}\n"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not stop within 10 s of the shutdown op".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One blocking protocol connection: a line out, a line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one line (ending in `\n`).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one reply line into `reply`, trailing newline removed.
    pub fn recv(&mut self, reply: &mut String) -> Result<(), String> {
        reply.clear();
        match self.reader.read_line(reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                if reply.ends_with('\n') {
                    reply.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut reply = String::new();
        self.send(line)?;
        self.recv(&mut reply)?;
        Ok(reply)
    }

    /// A control op whose reply must carry `"ok":true`; returns the
    /// parsed reply.
    pub fn control(&mut self, op: &str) -> Result<serde::Value, String> {
        let reply = self.call(&format!("{{\"op\":\"{op}\"}}\n"))?;
        let v = serde_json::from_str(&reply).map_err(|e| format!("{op} reply: {e}"))?;
        if v.get("ok").and_then(|b| b.as_bool()) != Some(true) {
            return Err(format!("{op} failed: {reply}"));
        }
        Ok(v)
    }
}
