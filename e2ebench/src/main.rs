//! End-to-end benchmark of the `ioagentd` diagnosis daemon.
//!
//! ```text
//! e2ebench --workload fresh|repeat|faulted --seed N --seconds S --trace 0|1
//!          --ioagentd PATH [--work-dir DIR]
//! ```
//!
//! Every run drives the release `ioagentd` binary over its NDJSON stdio
//! protocol with inputs generated from the seed, on a fresh `--state-dir`,
//! then checks every successful reply against an in-process diagnosis of
//! the same trace. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! also replays the workload in process with spans around each layer call
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md
//! for why each workload exists and which layer moves which metric.

mod daemon;
mod gate;
mod gen;
mod spans;
mod stats;
mod traced;

use daemon::{fresh_dir, Daemon, Sample, Sent};
use gen::{Corpus, Input, Workload, WorkloadKind};
use ioagent_core::Retriever;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent clients of the untimed priming pass on `repeat`.
const CLIENTS: usize = 2;
/// Concurrent closed-loop clients on `fresh`: four per worker, so a worker
/// never waits for the next request. With one per worker each request is
/// about 10 ms alone on a core, and on a shared host the CPU steal that
/// lands on it (several ms at a time) moved p99 by 20-70% between runs;
/// with a queue, steal slows the run in proportion instead.
const FRESH_CLIENTS: usize = 8;
/// Concurrent closed-loop clients on `repeat`. A cache hit costs about
/// 0.5 ms on the daemon's single stdin reader thread, and replies leave in
/// request order, so with few clients every miss (about 10 ms) stalls the
/// loop and the machine idles between hand-offs, each of which steal can
/// delay; with one or two clients p50 and p99 moved by 20-50% between
/// runs. Thirty-two keep the reader busy through a miss.
const REPEAT_CLIENTS: usize = 32;

/// Closed-loop clients of the timed run.
fn clients(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::Fresh => FRESH_CLIENTS,
        WorkloadKind::Repeat => REPEAT_CLIENTS,
        WorkloadKind::Faulted => unreachable!("faulted is an open loop"),
    }
}

/// Daemon workers on `fresh` and `repeat`.
const WORKERS: usize = 2;
/// Daemon workers on `faulted`: simulated model latency is sleep, not
/// CPU, so many more workers than cores are needed to keep up with the
/// rate (about 50 jobs are in flight).
const FAULTED_WORKERS: usize = 128;
/// Offered rate on `faulted`: about half the daemon's CPU capacity under
/// the fault plan on a 2-core machine (about 16 ms of daemon CPU per
/// request), fixed here rather than derived at run time so every commit is
/// offered the same load. A 20 s run sends 1080 requests, enough for a p99.
const FAULTED_RATE: f64 = 54.0;
/// The tail benchmark's heavy-tailed fault plan (`crates/bench/benches/tail.rs`)
/// with every duration ×10 (8 ms TTFT, 15k tokens/s), as are the deadline,
/// backoff and hedge delay below. At the tail bench's own scale a job is
/// about 36 sleeps of about 1 ms each, so the wake-up latency of a shared
/// host's vCPUs moved faulted p50 and p99 by 20-60% between runs; ×10 keeps
/// the plan's shape and makes that jitter a small share of each sleep.
const FAULT_PLAN: &str = "ttft=8ms,tps=15000,tail_p=0.03,tail_sigma=0.8,tail_med=12,\
                          tail_alpha=1.3,tail_pw=0.25,tail_cap=250,timeout_p=0.005,\
                          timeout=500ms,ratelimit_p=0.005,retry_after=100ms,trunc_p=0.005";
/// Daemon starts per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, note: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        }
    }
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
    ioagentd: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ioagentd = None;
    let mut work_dir = PathBuf::from(".bench_build/e2ebench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--ioagentd" => ioagentd = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        ioagentd: ioagentd.ok_or("--ioagentd is required")?,
        work_dir,
    })
}

fn daemon_args(kind: WorkloadKind, state_dir: &Path) -> Vec<String> {
    let mut args = vec![
        "--state-dir".to_string(),
        state_dir.display().to_string(),
        "--workers".to_string(),
    ];
    match kind {
        WorkloadKind::Fresh | WorkloadKind::Repeat => args.push(WORKERS.to_string()),
        WorkloadKind::Faulted => {
            args.push(FAULTED_WORKERS.to_string());
            args.extend(
                [
                    "--queue",
                    "4096",
                    "--llm-faults",
                    FAULT_PLAN,
                    "--deadline-ms",
                    "30000",
                    "--max-retries",
                    "3",
                    "--retry-backoff-ms",
                    "20",
                    "--hedge-ms",
                    "60",
                ]
                .map(String::from),
            );
        }
    }
    args
}

/// Everything the untraced daemon run produced.
struct Outcome {
    setup_s: Vec<f64>,
    primed: Vec<(Sent, gate::Reply)>,
    sent: Vec<Sent>,
    samples: Vec<Sample>,
    replies: Vec<gate::Reply>,
    late_ms: Vec<f64>,
    window_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    stats: serde_json::Value,
}

fn io_err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

fn parse_replies(samples: &[Sample], prefix: &str) -> Result<Vec<gate::Reply>, String> {
    samples
        .iter()
        .map(|s| gate::parse_reply(&s.line, &format!("{prefix}{}", s.index)))
        .collect()
}

/// Run the workload against the real daemon, untraced.
fn drive(args: &Args, workload: &Workload, run_dir: &Path) -> Result<Outcome, String> {
    let kind = args.workload;
    let start = |dir: &Path, log: &str| {
        Daemon::start(&args.ioagentd, &daemon_args(kind, dir), &run_dir.join(log))
            .map_err(io_err("starting ioagentd"))
    };
    let mut primed = Vec::new();
    let shared_state = run_dir.join("state");
    if kind == WorkloadKind::Repeat {
        // Untimed priming pass; the timed daemon restarts over its state.
        let mut d = start(
            &fresh_dir(run_dir, "state").map_err(io_err("state dir"))?,
            "prime.log",
        )?;
        let count = workload.primed().len() as u64;
        let (sent, samples) = d
            .closed_loop(CLIENTS, Duration::from_secs(600), count, |k| {
                workload.priming_request(k as usize)
            })
            .map_err(io_err("priming"))?;
        d.stop().map_err(io_err("stopping ioagentd"))?;
        primed = sent
            .into_iter()
            .zip(parse_replies(&samples, "p")?)
            .collect();
    }
    // Set-up samples: each start gets its own copy of the state it would
    // see (an empty directory, or on `repeat` a copy of the primed one),
    // and half of them run after the timed run, so one burst of machine
    // noise cannot move their median.
    let mut setup_dirs = Vec::new();
    for k in 0..SETUP_SPAWNS - 1 {
        let dir = fresh_dir(run_dir, &format!("setup-{k}")).map_err(io_err("state dir"))?;
        if kind == WorkloadKind::Repeat {
            copy_files(&shared_state, &dir).map_err(io_err("copying primed state"))?;
        }
        setup_dirs.push(dir);
    }
    let (before, after) = setup_dirs.split_at(setup_dirs.len() / 2);
    let mut setup_s = Vec::new();
    let mut time_starts = |dirs: &[PathBuf]| -> Result<(), String> {
        for dir in dirs {
            let d = start(dir, "setup.log")?;
            setup_s.push(d.setup.as_secs_f64());
            d.stop().map_err(io_err("stopping ioagentd"))?;
        }
        Ok(())
    };
    time_starts(before)?;
    let timed_state = if kind == WorkloadKind::Repeat {
        shared_state
    } else {
        fresh_dir(run_dir, "state").map_err(io_err("state dir"))?
    };
    let mut d = start(&timed_state, "daemon.log")?;
    let timed_setup = d.setup.as_secs_f64();
    let run = Duration::from_secs(args.seconds);
    let (sent, samples, late_ms) = match kind {
        WorkloadKind::Fresh | WorkloadKind::Repeat => {
            let (sent, samples) = d
                .closed_loop(clients(kind), run, u64::MAX, |i| workload.request(i))
                .map_err(io_err("closed loop"))?;
            (sent, samples, Vec::new())
        }
        WorkloadKind::Faulted => {
            let count = (FAULTED_RATE * args.seconds as f64).round() as u64;
            d.open_loop(FAULTED_RATE, count, |i| workload.request(i))
                .map_err(io_err("open loop"))?
        }
    };
    let first = samples
        .iter()
        .map(|s| s.start)
        .min()
        .ok_or("no requests were sent")?;
    let last = samples
        .iter()
        .map(|s| s.replied)
        .max()
        .ok_or("no replies arrived")?;
    let stats = d.stats().map_err(io_err("stats probe"))?;
    let cpu_s = d.cpu_since_ready().map_err(io_err("reading /proc"))?;
    let peak_rss_mb = d.peak_rss_mb().map_err(io_err("reading /proc"))?;
    d.stop().map_err(io_err("stopping ioagentd"))?;
    time_starts(after)?;
    setup_s.push(timed_setup);
    let replies = parse_replies(&samples, "r")?;
    Ok(Outcome {
        setup_s,
        primed,
        sent,
        samples,
        replies,
        late_ms,
        window_s: (last - first).as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        stats,
    })
}

fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Latency p50 and p99 of a run, each the median over equal-time slices of
/// the run of the slice's own percentile, and the slice count. A run is
/// cut into as many slices (at most [`stats::MAX_SLICES`]) as leave every
/// slice enough samples for its p99, so a burst of machine noise in one
/// part of the run moves one slice, not the result. Every request's reply
/// counts, error replies included: a failure counts with the time the
/// client waited to learn of it.
fn latency_percentiles(samples: &[Sample]) -> Result<(f64, f64, usize), String> {
    let first = samples.iter().map(|s| s.start).min().ok_or("no samples")?;
    let offsets: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| ((s.start - first).as_secs_f64(), s.latency_ms()))
        .collect();
    let (slices, percentiles) =
        stats::sliced_percentiles(&offsets, &[0.5, 0.99]).ok_or_else(|| {
            format!(
                "latency: {} samples cannot support p99 (needs {})",
                samples.len(),
                stats::samples_needed(0.99)
            )
        })?;
    Ok((percentiles[0], percentiles[1], slices))
}

/// Per-layer percentile, or -1 when the sample count cannot support it.
fn layer_percentile(values: &[f64], q: f64) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), q).unwrap_or(-1.0)
}

fn end_to_end(out: &Outcome, quality: gate::Quality) -> Result<Vec<Metric>, String> {
    let attempted = out.sent.len() as f64;
    let ok: Vec<&gate::Reply> = out.replies.iter().filter(|r| r.error.is_none()).collect();
    let n = ok.len();
    let cost: f64 = ok.iter().map(|r| r.cost_usd).sum();
    let (p50, p99, slices) = latency_percentiles(&out.samples)?;
    let sample_note = format!(
        "{} samples; median of {slices} time slices' percentiles",
        out.samples.len()
    );
    let per_req = format!("over {attempted} requests");
    Ok(vec![
        Metric::new(
            "setup_s",
            stats::median(&out.setup_s),
            "s",
            &format!("median of {} daemon starts", out.setup_s.len()),
        ),
        Metric::new(
            "throughput_rps",
            n as f64 / out.window_s,
            "1/s",
            &format!("{n} ok replies in {:.3} s", out.window_s),
        ),
        Metric::new("latency_p50_ms", p50, "ms", &sample_note),
        Metric::new("latency_p99_ms", p99, "ms", &sample_note),
        Metric::new("ok_share", n as f64 / attempted, "ratio", &per_req),
        Metric::new(
            "cpu_ms_per_req",
            out.cpu_s * 1e3 / attempted,
            "ms",
            &format!("daemon user+sys {:.3} s {per_req}", out.cpu_s),
        ),
        Metric::new("peak_rss_mb", out.peak_rss_mb, "MiB", "daemon VmHWM"),
        Metric::new("llm_cost_usd_per_req", cost / attempted, "usd", &per_req),
        Metric::new(
            "label_recall",
            quality.recall,
            "ratio",
            &format!("{n} replies"),
        ),
        Metric::new(
            "label_precision",
            quality.precision,
            "ratio",
            &format!("{n} replies"),
        ),
    ])
}

fn daemon_layers(out: &Outcome, kind: WorkloadKind) -> Vec<Metric> {
    let executed: Vec<&gate::Reply> = out
        .replies
        .iter()
        .filter(|r| r.error.is_none() && !r.cached)
        .collect();
    let exec: Vec<f64> = executed.iter().map(|r| r.exec_ms).collect();
    let wait: Vec<f64> = executed.iter().map(|r| r.queue_wait_ms).collect();
    let note = format!("{} executed jobs (-1: too few samples)", exec.len());
    let stat = |k: &str| out.stats.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = vec![
        Metric::new(
            "ioagentd.exec_ms.p50",
            layer_percentile(&exec, 0.5),
            "ms",
            &note,
        ),
        Metric::new(
            "ioagentd.exec_ms.p99",
            layer_percentile(&exec, 0.99),
            "ms",
            &note,
        ),
        Metric::new(
            "ioagentd.queue_wait_ms.p50",
            layer_percentile(&wait, 0.5),
            "ms",
            &note,
        ),
        Metric::new(
            "ioagentd.queue_wait_ms.p99",
            layer_percentile(&wait, 0.99),
            "ms",
            &note,
        ),
        Metric::new(
            "ioagentd.cache.hit_ratio",
            ratio(stat("cache_hits"), stat("jobs_completed")),
            "ratio",
            "stats probe",
        ),
    ];
    for (name, key) in [
        ("retries", "retries"),
        ("hedges", "hedges"),
        ("shed", "shed_total"),
        ("deadline_exceeded", "deadline_exceeded"),
    ] {
        m.push(Metric::new(
            &format!("ioagentd.resilience.{name}"),
            stat(key),
            "count",
            "stats probe",
        ));
    }
    m.push(Metric::new(
        "ioagentd.resilience.hedge_win_ratio",
        ratio(stat("hedge_wins"), stat("hedges")),
        "ratio",
        "stats probe",
    ));
    m.push(match kind {
        WorkloadKind::Faulted => Metric::new(
            "gen.late_p99_ms",
            layer_percentile(&out.late_ms, 0.99),
            "ms",
            &format!("{} scheduled sends", out.late_ms.len()),
        ),
        _ => Metric::new("gen.late_p99_ms", 0.0, "ms", "closed loop: no schedule"),
    });
    m
}

/// Requests replayed in process by the traced run.
fn traced_requests(kind: WorkloadKind) -> u64 {
    match kind {
        WorkloadKind::Fresh | WorkloadKind::Faulted => 200,
        WorkloadKind::Repeat => 1000,
    }
}

fn first_line(cmd: &str, arg: &str) -> String {
    std::process::Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, out: &Outcome, nproc: usize) -> serde_json::Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|f| f.split("target-cpu=").nth(1))
        .unwrap_or("default")
        .to_string();
    let ok = out.replies.iter().filter(|r| r.error.is_none()).count();
    let executed = out
        .replies
        .iter()
        .filter(|r| r.error.is_none() && !r.cached)
        .count();
    let offered: serde_json::Value = match args.workload {
        WorkloadKind::Faulted => serde_json::json!(FAULTED_RATE),
        _ => serde_json::Value::Null,
    };
    serde_json::json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": std::env::var("E2EBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".to_string()),
        "nproc": nproc,
        "cpu_model": cpu_model,
        "rustc": first_line("rustc", "--version"),
        "target_cpu": target_cpu,
        "offered_rate_rps": offered,
        "requests": out.sent.len(),
        "latency_samples": ok,
        "exec_samples": executed,
        "primed_requests": out.primed.len(),
        "setup_samples": out.setup_s.len(),
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let corpus = Corpus::new();
    let workload = Workload::new(args.workload, args.seed, &corpus);
    std::fs::create_dir_all(&args.work_dir).map_err(io_err("work dir"))?;
    let run_dir = fresh_dir(&args.work_dir, &format!("run-{}", std::process::id()))
        .map_err(io_err("run dir"))?;
    let out = drive(&args, &workload, &run_dir)?;

    // Correctness gate, before any number is reported.
    let inputs: BTreeSet<Input> = out
        .primed
        .iter()
        .map(|((input, _), _)| *input)
        .chain(
            out.sent
                .iter()
                .zip(&out.replies)
                .filter(|(_, r)| r.error.is_none())
                .map(|((input, _), _)| *input),
        )
        .collect();
    let retriever = Arc::new(Retriever::build());
    let refs = gate::references(&corpus, &inputs, &retriever, nproc);
    let (primed_sent, primed_replies): (Vec<Sent>, Vec<gate::Reply>) =
        out.primed.iter().cloned().unzip();
    if primed_replies.iter().any(|r| r.error.is_some()) {
        return Err("a priming request failed".to_string());
    }
    gate::check(&primed_sent, &primed_replies, &refs).map_err(|e| format!("priming: {e}"))?;
    let quality = gate::check(&out.sent, &out.replies, &refs)?;

    let e2e = end_to_end(&out, quality)?;
    let metrics = if args.trace {
        let spans_out = args.work_dir.join(format!(
            "spans-{}-{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        let mut layers = daemon_layers(&out, args.workload);
        let traced = traced::replay(
            &workload,
            traced_requests(args.workload),
            &refs,
            &run_dir,
            &spans_out,
        )
        .map_err(io_err("traced replay"))?;
        let request_ms = traced
            .iter()
            .find(|m| m.name == "trace.request_ms")
            .map_or(0.0, |m| m.value);
        let cpu_ms = e2e
            .iter()
            .find(|m| m.name == "cpu_ms_per_req")
            .map_or(0.0, |m| m.value);
        layers.extend(traced);
        layers.push(Metric::new(
            "trace.overhead_pct",
            (request_ms / cpu_ms - 1.0) * 100.0,
            "%",
            &format!(
                "traced {request_ms:.4} ms/request vs untraced daemon {cpu_ms:.4} ms/request; spans in {}",
                spans_out.display()
            ),
        ));
        layers
    } else {
        e2e
    };
    std::fs::remove_dir_all(&run_dir).map_err(io_err("removing run dir"))?;

    println!(
        "e2ebench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance {}",
        serde_json::to_string(&provenance(&args, &out, nproc)).map_err(|e| e.to_string())?
    );
    let mut json = serde_json::Map::new();
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("{:<40} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        json.insert(
            m.name.clone(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    let failed = out.replies.iter().filter(|r| r.error.is_some()).count();
    let result = serde_json::json!({
        "correct": true,
        "attempted": out.sent.len(),
        "failed": failed,
        "metrics": serde_json::Value::Object(json),
    });
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
