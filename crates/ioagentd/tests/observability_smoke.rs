//! End-to-end observability smoke: drive the real `ioagentd` binary with
//! `--trace-dir`, run a 16-job batch plus in-band `{"stats": true}` and
//! `{"metrics": true}` probes, then assert that
//!
//! - the emitted span NDJSON parses and decomposes >= 95% of every job's
//!   wall time into named `stage.*` spans,
//! - the metrics probe reports per-stage histogram quantiles, lifetime
//!   and windowed, plus jobs/s / cache-hit rates,
//! - caller-supplied `trace_id`s are echoed (and stamped on root spans)
//!   while requests without one get a daemon-generated id,
//! - error replies carry stable `error_kind` values,
//! - the `trace-report` subcommand folds the trace dir into a table,
//! - tail-based sampling (`--trace-sample tail:…`) never changes the
//!   diagnosis output (byte-identical replies) while pruning fine spans.
//!
//! The trace file and rendered report are copied to `target/obs-smoke/`
//! so CI can upload them as artifacts. This is the test CI runs as its
//! observability smoke job.

use serde_json::{json, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ioagentd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_daemon_raw(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ioagentd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ioagentd");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("daemon exit");
    assert!(
        output.status.success(),
        "daemon exited with {:?}",
        output.status
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn run_daemon(args: &[&str], input: &str) -> Vec<Value> {
    run_daemon_raw(args, input)
        .lines()
        .map(|l| serde_json::from_str(l).expect("response line is JSON"))
        .collect()
}

/// `n` jobs over the seed corpus (cycling if the corpus is smaller), with
/// distinct ids so none is a cache hit. Every request carries an explicit
/// `trace_id` (`trace-{i}`) so replies are deterministic across runs.
fn request_lines(n: usize) -> String {
    let suite = tracebench::TraceBench::generate();
    let mut out = String::new();
    for (i, entry) in suite.entries.iter().cycle().take(n).enumerate() {
        let text = darshan::write::write_text(&entry.trace);
        let line = json!({
            "id": format!("job-{i}-{}", entry.spec.id),
            "trace": text,
            "model": if i % 2 == 0 { "gpt-4o-mini" } else { "gpt-4o" },
            "trace_id": format!("trace-{i}"),
        });
        out.push_str(&serde_json::to_string(&line).unwrap());
        out.push('\n');
    }
    out
}

/// Where CI picks up the artifacts.
fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/obs-smoke");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

const JOBS: usize = 16;

#[test]
fn traced_batch_decomposes_job_time_and_serves_metrics() {
    let traces = TempDir::new("obs-traces");
    let trace_arg = traces.0.to_str().unwrap();

    let suite = tracebench::TraceBench::generate();
    let mut input = request_lines(JOBS);
    // One job *without* a trace_id: the daemon must generate one.
    let untagged = json!({
        "id": "job-untagged",
        "trace": darshan::write::write_text(&suite.entries[0].trace),
        "model": "gpt-4o",
    });
    input.push_str(&serde_json::to_string(&untagged).unwrap());
    input.push('\n');
    input.push_str("not even json\n");
    input.push_str("{\"id\": \"probe\", \"stats\": true}\n");
    input.push_str("{\"id\": \"mprobe\", \"metrics\": true}\n");

    // A streaming latency profile (2 ms TTFT per LLM call, no tail, no
    // faults) keeps each job's wall time dominated by *attributed* stage
    // work: without it, sub-millisecond CPU-only jobs make the >= 95%
    // coverage gate below hostage to scheduler noise on loaded runners.
    let responses = run_daemon(
        &[
            "--workers",
            "4",
            "--trace-dir",
            trace_arg,
            "--trace-detail",
            "fine",
            "--llm-faults",
            "ttft=2ms,tps=2000000",
        ],
        &input,
    );
    assert_eq!(responses.len(), JOBS + 4, "one response per input line");

    // The 16 tagged jobs all completed uncached, echoing their trace_id.
    for (i, r) in responses[..JOBS].iter().enumerate() {
        assert!(r.get("error").is_none(), "unexpected error: {r:?}");
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(
            r.get("trace_id").and_then(Value::as_str),
            Some(format!("trace-{i}").as_str()),
            "caller-supplied trace_id must be echoed: {r:?}"
        );
    }

    // The untagged job got a daemon-generated trace id (seed-seq form).
    let generated = responses[JOBS]
        .get("trace_id")
        .and_then(Value::as_str)
        .expect("generated trace_id");
    assert!(
        generated.contains('-') && !generated.starts_with("trace-"),
        "daemon-generated trace_id looks wrong: {generated:?}"
    );

    // The malformed line is classified with a stable error_kind.
    let err = &responses[JOBS + 1];
    assert!(err.get("error").is_some());
    assert_eq!(
        err.get("error_kind").and_then(Value::as_str),
        Some("malformed_json")
    );

    // Stats probe: all jobs counted, queue drained by probe time.
    let stats = responses[JOBS + 2].get("stats").expect("stats response");
    assert_eq!(
        stats.get("jobs_completed").and_then(Value::as_i64),
        Some(JOBS as i64 + 1)
    );
    assert_eq!(stats.get("queue_depth").and_then(Value::as_i64), Some(0));

    // Metrics probe: per-stage histogram quantiles are reported.
    let metrics = responses[JOBS + 3]
        .get("metrics")
        .expect("metrics response");
    let svc_hist = metrics
        .get("service")
        .and_then(|s| s.get("histograms"))
        .expect("service histograms");
    for name in ["service.queue_wait_ns", "service.exec_ns"] {
        let h = svc_hist
            .get(name)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(
            h.get("count").and_then(Value::as_i64),
            Some(JOBS as i64 + 1)
        );
        let p50 = h.get("p50_ns").and_then(Value::as_i64).unwrap();
        let p99 = h.get("p99_ns").and_then(Value::as_i64).unwrap();
        assert!(p50 <= p99, "{name}: p50 {p50} > p99 {p99}");

        // Windowed view: the batch just ran, so the longest window holds
        // every sample and reports real (non-null) quantiles.
        let windows = h.get("windows").and_then(Value::as_array).expect("windows");
        assert_eq!(windows.len(), 2, "{name}: want [10s, 60s] windows");
        let last = windows.last().unwrap();
        assert_eq!(last.get("window_s").and_then(Value::as_f64), Some(60.0));
        assert_eq!(
            last.get("count").and_then(Value::as_i64),
            Some(JOBS as i64 + 1),
            "{name}: 60s window must hold the whole batch"
        );
        assert!(
            last.get("p99_ns").and_then(Value::as_i64).unwrap() > 0,
            "{name}: windowed p99 must be a real value"
        );
    }

    // Top-level windowed service metadata: offered windows, windowed
    // counters, and derived rates.
    let service = metrics.get("service").expect("service section");
    let window_s: Vec<f64> = service
        .get("window_s")
        .and_then(Value::as_array)
        .expect("window_s")
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    assert_eq!(window_s, vec![10.0, 60.0]);
    let jobs_60s = service
        .get("counter_windows")
        .and_then(|c| c.get("service.jobs_completed"))
        .and_then(Value::as_array)
        .expect("windowed jobs_completed")
        .last()
        .and_then(Value::as_i64);
    assert_eq!(jobs_60s, Some(JOBS as i64 + 1));
    let rates = service
        .get("rates")
        .and_then(Value::as_array)
        .expect("rates");
    let last_rate = rates.last().expect("60s rate row");
    assert!(
        last_rate.get("jobs_per_s").and_then(Value::as_f64).unwrap() > 0.0,
        "jobs/s over 60s must be positive right after a batch"
    );
    // The malformed line was answered (and counted into service.errors)
    // before this probe, so the errors/s window must see it.
    assert!(
        last_rate
            .get("errors_per_s")
            .and_then(Value::as_f64)
            .unwrap()
            > 0.0,
        "the malformed line must show up in errors/s: {last_rate:?}"
    );
    let proc_hist = metrics
        .get("process")
        .and_then(|p| p.get("histograms"))
        .expect("process histograms");
    for name in [
        "stage.llm_ns",
        "stage.retrieve_ns",
        "stage.reflect_ns",
        "stage.merge_ns",
    ] {
        let h = proc_hist
            .get(name)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert!(h.get("count").and_then(Value::as_i64).unwrap() > 0);
        assert!(h.get("p99_ns").is_some() && h.get("p999_ns").is_some());
    }
    assert!(
        metrics
            .get("process")
            .and_then(|p| p.get("counters"))
            .and_then(|c| c.get("llm.calls"))
            .and_then(Value::as_i64)
            .unwrap()
            > 0
    );

    // The daemon wrote one spans file; it parses and covers the jobs.
    let span_files: Vec<PathBuf> = std::fs::read_dir(&traces.0)
        .expect("read trace dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("spans-") && n.ends_with(".ndjson"))
        })
        .collect();
    assert_eq!(span_files.len(), 1, "exactly one daemon process traced");
    let ndjson = std::fs::read_to_string(&span_files[0]).expect("read spans");
    let records = ioobserve::parse_spans(&ndjson).expect("spans parse");
    let report = ioobserve::fold_spans(&records);
    assert_eq!(report.jobs, JOBS as u64 + 1, "one root job span per job");

    // Root job spans carry the trace_id attr — caller-supplied or
    // daemon-generated — so multi-process span files can be correlated.
    let root_trace_ids: Vec<&str> = records
        .iter()
        .filter(|r| r.parent == 0 && r.name == "job")
        .filter_map(|r| r.attr("trace_id"))
        .collect();
    assert_eq!(root_trace_ids.len(), JOBS + 1, "every root is tagged");
    assert!(root_trace_ids.contains(&"trace-0"), "{root_trace_ids:?}");
    assert!(root_trace_ids.contains(&generated), "{root_trace_ids:?}");
    assert!(
        report.coverage_min >= 0.95,
        "stage spans must attribute >= 95% of every job's wall time, \
         got min {:.3} (mean {:.3})",
        report.coverage_min,
        report.coverage_mean
    );
    let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "stage.queue_wait",
        "stage.preprocess",
        "stage.fragments",
        "stage.fragment",
        "stage.retrieve",
        "stage.reflect",
        "stage.llm",
        "stage.merge",
        "stage.render",
    ] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    // The connection span is there too, with its accounting attrs.
    let conn = records
        .iter()
        .find(|r| r.name == "conn")
        .expect("conn span");
    assert!(conn.attr("requests").is_some() && conn.attr("bytes").is_some());

    // `trace-report` over the whole directory renders the same fold.
    let out = Command::new(env!("CARGO_BIN_EXE_ioagentd"))
        .args(["trace-report", trace_arg])
        .output()
        .expect("run trace-report");
    assert!(out.status.success(), "trace-report failed: {out:?}");
    let table = String::from_utf8(out.stdout).expect("utf-8 table");
    assert!(
        table.contains(&format!("jobs: {}", JOBS + 1)),
        "table:\n{table}"
    );
    assert!(table.contains("stage.llm"), "table:\n{table}");

    // `--slowest` appends a ranked listing with per-job critical paths.
    let out = Command::new(env!("CARGO_BIN_EXE_ioagentd"))
        .args(["trace-report", trace_arg, "--slowest", "3"])
        .output()
        .expect("run trace-report --slowest");
    assert!(
        out.status.success(),
        "trace-report --slowest failed: {out:?}"
    );
    let listing = String::from_utf8(out.stdout).expect("utf-8 listing");
    assert!(
        listing.contains(&format!("slowest 3 of {} jobs", JOBS + 1)),
        "listing:\n{listing}"
    );
    assert!(listing.contains("trace trace-"), "listing:\n{listing}");

    // Leave the evidence where CI can upload it.
    let artifacts = artifact_dir();
    std::fs::copy(&span_files[0], artifacts.join("spans.ndjson")).expect("copy spans");
    std::fs::write(artifacts.join("trace-report.txt"), &table).expect("write report");
}

/// Render a response stream with its scheduling-dependent fields
/// (`exec_ms`, `queue_wait_ms`, `worker`) removed: everything left —
/// issues, text, token and cost accounting, trace_id echo — is
/// deterministic and must be byte-identical across runs.
fn strip_timing(stdout: &str) -> String {
    let mut out = String::new();
    for line in stdout.lines() {
        let v: Value = serde_json::from_str(line).expect("response line is JSON");
        let mut kept = serde_json::Map::new();
        for (k, val) in v.as_object().expect("response is an object") {
            if k != "exec_ms" && k != "queue_wait_ms" && k != "worker" {
                kept.insert(k.clone(), val.clone());
            }
        }
        out.push_str(&serde_json::to_string(&Value::Object(kept)).unwrap());
        out.push('\n');
    }
    out
}

/// Tail-based sampling must never change what clients see: the same
/// batch run untraced and run with `--trace-sample tail:10000ms` produces
/// byte-identical diagnosis output (requests pin their `trace_id`s, so
/// everything but the wall-clock timing fields is deterministic).
/// Meanwhile the span file keeps every coarse job/stage span but drops
/// the fine detail of fast jobs — and a `tail:0ms` run (every job is
/// "slow") keeps the fine spans.
#[test]
fn tail_sampling_never_changes_replies_and_prunes_fine_spans() {
    const N: usize = 8;
    let input = request_lines(N);

    let plain = run_daemon_raw(&["--workers", "2"], &input);

    let traces = TempDir::new("obs-tail");
    let trace_arg = traces.0.to_str().unwrap();
    let sampled = run_daemon_raw(
        &[
            "--workers",
            "2",
            "--trace-dir",
            trace_arg,
            "--trace-sample",
            "tail:10000ms",
        ],
        &input,
    );
    assert_eq!(
        strip_timing(&plain),
        strip_timing(&sampled),
        "tail sampling changed the diagnosis output byte-for-byte"
    );

    let read_spans = |dir: &std::path::Path| {
        let file = std::fs::read_dir(dir)
            .expect("read trace dir")
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("spans-") && n.ends_with(".ndjson"))
            })
            .expect("spans file");
        ioobserve::parse_spans(&std::fs::read_to_string(file).expect("read spans"))
            .expect("spans parse")
    };

    // No job takes 10s, so every job's fine detail is dropped — but the
    // coarse job/stage skeleton survives for all of them.
    let records = read_spans(&traces.0);
    let jobs = records
        .iter()
        .filter(|r| r.parent == 0 && r.name == "job")
        .count();
    assert_eq!(jobs, N, "coarse job roots are always kept");
    assert!(
        records.iter().any(|r| r.name == "stage.merge"),
        "coarse stage spans are always kept"
    );
    assert!(
        !records.iter().any(|r| r.name == "stage.fragment"),
        "fine spans of fast jobs must be dropped under tail:10000ms"
    );

    // The opposite extreme: a 0ms threshold keeps every job's fine spans.
    let keep_all = TempDir::new("obs-tail-all");
    let _ = run_daemon_raw(
        &[
            "--workers",
            "2",
            "--trace-dir",
            keep_all.0.to_str().unwrap(),
            "--trace-sample",
            "tail:0ms",
        ],
        &input,
    );
    let kept = read_spans(&keep_all.0);
    assert!(
        kept.iter().any(|r| r.name == "stage.fragment"),
        "tail:0ms must keep fine spans (every job clears the threshold)"
    );
}
