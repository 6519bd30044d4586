//! Driving a real `ioagentd` process over its NDJSON stdio protocol.

use crate::gen::Request;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long to wait for any one reply before declaring the daemon stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon: requests go to its stdin, and a reader thread stamps
/// each reply line with its arrival time.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    /// Spawn → first `{"stats":true}` reply.
    pub setup: Duration,
    cpu_at_ready: u64,
}

/// One reply and when its request was sent (closed loop) or due (open loop).
pub struct Sample {
    /// Index of the request in the timed sequence.
    pub index: u64,
    /// Send (closed loop) or due (open loop) time.
    pub start: Instant,
    /// Arrival of the reply line.
    pub replied: Instant,
    /// The raw reply line.
    pub line: String,
}

impl Sample {
    /// Reply latency in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.replied - self.start).as_secs_f64() * 1e3
    }
}

/// What the load loops keep of each request after sending it.
pub type Sent = (crate::gen::Input, crate::gen::Kind);

impl Daemon {
    /// Spawn `bin args…` and wait until it answers a stats probe.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> io::Result<Self> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, stdout);
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let now = Instant::now();
                        line.truncate(line.trim_end().len());
                        if tx.send((now, line)).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let mut daemon = Daemon {
            stdin: child.stdin.take(),
            child,
            replies,
            reader: Some(reader),
            setup: Duration::ZERO,
            cpu_at_ready: 0,
        };
        daemon.send(r#"{"id":"ready","stats":true}"#)?;
        let (at, line) = daemon.recv()?;
        if !line.contains("\"stats\"") {
            return Err(io::Error::other(format!("unexpected first reply: {line}")));
        }
        daemon.setup = at - started;
        daemon.cpu_at_ready = cpu_ticks(daemon.child.id())?;
        Ok(daemon)
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(self.stdin.as_mut().expect("stdin open"), line)
    }

    fn recv(&self) -> io::Result<(Instant, String)> {
        self.replies
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "daemon sent no reply in time"))
    }

    /// Send a stats probe and return its reply. Every earlier reply must
    /// already have been received.
    pub fn stats(&mut self) -> io::Result<serde_json::Value> {
        self.send(r#"{"id":"stats","stats":true}"#)?;
        let (_, line) = self.recv()?;
        let value: serde_json::Value = serde_json::from_str(&line)
            .map_err(|e| io::Error::other(format!("bad stats reply: {e}")))?;
        value
            .get("stats")
            .cloned()
            .ok_or_else(|| io::Error::other(format!("not a stats reply: {line}")))
    }

    /// CPU seconds (user + system) the daemon used since it became ready.
    pub fn cpu_since_ready(&self) -> io::Result<f64> {
        let ticks = cpu_ticks(self.child.id())? - self.cpu_at_ready;
        Ok(ticks as f64 / clock_ticks_per_second() as f64)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Close stdin, let the daemon drain and exit, and check its status.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(io::Error::other(format!("ioagentd exited with {status}")));
        }
        Ok(())
    }

    /// Closed loop: `clients` requests outstanding; each reply releases
    /// the next request until `run` has elapsed (or `limit` requests were
    /// sent), then the outstanding ones drain. Returns the per-request
    /// metadata in send order and the samples in reply order.
    pub fn closed_loop(
        &mut self,
        clients: usize,
        run: Duration,
        limit: u64,
        mut next: impl FnMut(u64) -> Request,
    ) -> io::Result<(Vec<Sent>, Vec<Sample>)> {
        let end = Instant::now() + run;
        let mut sent = Vec::new();
        let mut samples = Vec::new();
        let mut inflight: VecDeque<(u64, Instant)> = VecDeque::new();
        let mut index = 0u64;
        loop {
            while inflight.len() < clients && index < limit && Instant::now() < end {
                let request = next(index);
                let start = Instant::now();
                self.send(&request.line)?;
                sent.push((request.input, request.kind));
                inflight.push_back((index, start));
                index += 1;
            }
            let Some((i, start)) = inflight.pop_front() else {
                break;
            };
            let (replied, line) = self.recv()?;
            samples.push(Sample {
                index: i,
                start,
                replied,
                line,
            });
        }
        Ok((sent, samples))
    }

    /// Open loop: request `i` is due at `i / rate` seconds and sent then
    /// (or as soon as the pipe accepts it), whatever the replies do; the
    /// reader thread stamps replies as they arrive, and they are collected
    /// after the last send. Latency runs from the due time. Also returns
    /// how late each send was.
    pub fn open_loop(
        &mut self,
        rate: f64,
        count: u64,
        mut next: impl FnMut(u64) -> Request,
    ) -> io::Result<(Vec<Sent>, Vec<Sample>, Vec<f64>)> {
        let start = Instant::now() + Duration::from_millis(20);
        let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
        let mut sent = Vec::with_capacity(count as usize);
        let mut late_ms = Vec::with_capacity(count as usize);
        for i in 0..count {
            let request = next(i);
            let at = due(i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
            self.send(&request.line)?;
            sent.push((request.input, request.kind));
        }
        let mut samples = Vec::with_capacity(count as usize);
        for index in 0..count {
            let (replied, line) = self.recv()?;
            samples.push(Sample {
                index,
                start: due(index),
                replied,
                line,
            });
        }
        Ok((sent, samples, late_ms))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Normal shutdown goes through `stop`; this covers error paths so
        // no daemon outlives the benchmark.
        if self.reader.is_some() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// Write `line` and its newline with one write, so the daemon's reader is
/// not woken once for the line and again for the newline.
fn send_line(stdin: &mut ChildStdin, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    stdin.write_all(&buf)
}

/// utime + stime of process `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> io::Result<u64> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok(field(14)? + field(15)?)
}

fn clock_ticks_per_second() -> u64 {
    static TICKS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100)
    })
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
