//! `ioagentd` throughput benchmark: wall-clock for a 64-trace heterogeneous
//! batch through the diagnosis service at 1 worker vs N workers, plus the
//! cache-hit fast path.
//!
//! Two scaling arms:
//!
//! - **cpu**: raw local compute. Scales with physical cores (on a 1-core
//!   container both widths are equivalent by construction).
//! - **rpc**: each fresh job additionally pays a simulated 20 ms
//!   remote-LLM round trip — the regime a deployed service actually runs
//!   in, where worker concurrency hides latency rather than splitting
//!   compute. This arm scales with the worker count on any machine.
//!
//! All service instances share one pre-built knowledge index so the
//! comparison isolates diagnosis throughput from index construction; the
//! result cache is disabled in the scaling arms so every job does real
//! work. A `speedup` summary is printed after the samples.
//!
//! A final **tracing-overhead** arm times the cpu batch with span tracing
//! off, on (`--trace-dir`-style file tracer at the default stage detail),
//! and with tail-based sampling (`--trace-sample tail:p99`, which buffers
//! fine-detail spans per job and only flushes the slow ones). The three
//! arms run interleaved on one service — each round swaps the global
//! tracer before every batch and rotates which arm goes first — so a
//! burst of host noise lands on all arms alike instead of on whichever
//! ran during it. It must run last: it leaves tracers installed.
//! Diagnoses must stay byte-identical across all three. Each arm's
//! overhead is the median, over rounds, of its batch time against the
//! same round's untraced batch; it goes to `BENCH_obs.json` at the repo
//! root with each arm's fastest batch. With `BENCH_GATE=1`
//! the run fails if either tracing mode costs more than 3% of batch wall
//! time (with a 5 ms absolute noise floor).

use ioagent_bench::measure::{self, quantile, Bench, Samples};
use ioagentd::{DiagnosisService, JobRequest, Retriever, ServiceConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tracebench::TraceBench;

const N_JOBS: usize = 64;
const RPC_LATENCY: Duration = Duration::from_millis(20);

/// 64 heterogeneous jobs: the 40 TraceBench traces cycled, with the model
/// alternating so repeated traces are still distinct (cache-busting) work.
fn workload(suite: &TraceBench) -> Vec<JobRequest> {
    let models = ["gpt-4o", "gpt-4o-mini", "llama-3.1-70b"];
    (0..N_JOBS)
        .map(|i| {
            let entry = &suite.entries[i % suite.entries.len()];
            let model = models[(i / suite.entries.len()) % models.len()];
            JobRequest::new(
                format!("job-{i}-{}", entry.spec.id),
                entry.trace.clone(),
                model,
            )
        })
        .collect()
}

fn run_batch(service: &DiagnosisService, jobs: &[JobRequest]) {
    black_box(service.run_batch(jobs.to_vec()).unwrap());
}

fn main() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let index = Arc::new(Retriever::build());
    bench_service(&jobs, &index);
    bench_tracing_overhead(&jobs, &index);
}

fn bench_service(jobs: &[JobRequest], index: &Arc<Retriever>) {
    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(4);
    let rounds = measure::rounds(5);
    let service =
        |config: ServiceConfig| DiagnosisService::with_shared_index(config, Arc::clone(index));

    // Each scaling arm times 1 worker and N workers interleaved.
    let mut summary: Vec<(String, Samples)> = Vec::new();
    let mut speedups = Vec::new();
    for (arm, rpc) in [("cpu", Duration::ZERO), ("rpc", RPC_LATENCY)] {
        let [one, many] = [1, n_workers].map(|workers| {
            service(
                ServiceConfig::with_workers(workers)
                    .cache_capacity(0)
                    .rpc_latency(rpc),
            )
        });
        let batch = |service| move || run_batch(service, jobs);
        let [t1, tn] = measure::interleave(rounds, [&mut batch(&one), &mut batch(&many)]);
        speedups.push((arm, t1.median() / tn.median()));
        summary.push((format!("{arm}_1worker"), t1));
        summary.push((format!("{arm}_{n_workers}worker"), tn));
        one.shutdown();
        many.shutdown();
    }

    // Combined grain: half the workers, each running its jobs over a
    // 2-thread intra-job shim pool — the same workers × intra-threads
    // budget as the plain rpc_N arm, but split across both grains. Shows
    // the thread-budget interaction (README "Parallelism model"); with the
    // per-JOB rpc sleep, job-level concurrency is what hides latency, so
    // this arm is expected to trail rpc_N on latency and match it on
    // correctness-relevant throughput shape.
    let combined_workers = (n_workers / 2).max(1);
    let combined = service(
        ServiceConfig::with_workers(combined_workers)
            .intra_threads(2)
            .cache_capacity(0)
            .rpc_latency(RPC_LATENCY),
    );
    summary.push((
        format!("rpc_combined_{combined_workers}x2"),
        measure::time(rounds, || run_batch(&combined, jobs)),
    ));
    combined.shutdown();

    // Cache arm: after the first batch, every job is answered from the LRU.
    let cached = service(ServiceConfig::with_workers(n_workers).cache_capacity(2 * N_JOBS));
    cached.run_batch(jobs.to_vec()).unwrap(); // warm the cache
    summary.push((
        "cache_hit".into(),
        measure::time(rounds, || run_batch(&cached, jobs)),
    ));
    cached.shutdown();

    println!("\nservice scaling summary ({N_JOBS} jobs, N = {n_workers} workers, median):");
    for (label, t) in &summary {
        println!("  {label:16} {:>10.3} ms", t.median() * 1e3);
    }
    for (arm, speedup) in speedups {
        println!("  {arm} arm speedup: {speedup:.2}x ({n_workers} workers vs 1)");
    }
}

/// Tracing-overhead arm. Runs after `bench_service`, which measures the
/// disabled path: interleaved rounds of cpu batches with tracing off, on,
/// and tail-sampled, byte-identity asserted between the three.
fn bench_tracing_overhead(jobs: &[JobRequest], index: &Arc<Retriever>) {
    let bench = Bench::open("BENCH_obs.json");
    let samples = measure::rounds(21);
    let workers = 4;

    assert!(
        !ioobserve::tracer().enabled(),
        "tracing arm must start with the tracer disabled"
    );
    let trace_dir = std::env::temp_dir().join(format!("ioagentd-bench-obs-{}", std::process::id()));
    let tail_dir = std::env::temp_dir().join(format!("ioagentd-bench-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&tail_dir);
    // The tail arm keeps one tracer (cloned in per round), so its p99
    // estimate warms up once, as in a long-running daemon.
    let tail_rule = ioobserve::TailRule::parse("p99").expect("tail rule");
    let arms = [
        ioobserve::Tracer::disabled(),
        ioobserve::Tracer::to_dir(&trace_dir).expect("open trace dir"),
        ioobserve::Tracer::to_dir(&tail_dir)
            .expect("open tail trace dir")
            .with_tail_sampling(tail_rule),
    ];
    let service = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(workers).cache_capacity(0),
        Arc::clone(index),
    );
    // One untimed batch per arm checks byte-identity.
    let texts: Vec<Vec<String>> = arms
        .iter()
        .map(|tracer| {
            ioobserve::install_tracer(tracer.clone());
            service
                .run_batch(jobs.to_vec())
                .unwrap()
                .into_iter()
                .map(|r| r.diagnosis.text)
                .collect()
        })
        .collect();
    assert_eq!(
        texts[0], texts[1],
        "tracing must not perturb diagnosis output"
    );
    assert_eq!(
        texts[0], texts[2],
        "tail sampling must not perturb diagnosis output"
    );
    // Each timed batch swaps in its arm's tracer first (an atomic pointer
    // swap, negligible against a batch).
    let traced = |arm: usize| {
        ioobserve::install_tracer(arms[arm].clone());
        run_batch(&service, jobs);
    };
    let [off, on, tail] = measure::interleave(
        samples,
        [&mut || traced(0), &mut || traced(1), &mut || traced(2)],
    );
    ioobserve::install_tracer(ioobserve::Tracer::disabled());
    // Worker threads flush their span buffers as they exit.
    service.shutdown();
    arms[1].flush();
    arms[2].flush();
    // Overhead is the median over rounds of each arm's batch against the
    // untraced batch of the same round: adjacent batches share the host's
    // state, so a noisy stretch moves both sides of a pair.
    let paired = |arm: &Samples| -> (f64, Duration) {
        let pairs = || arm.0.iter().zip(&off.0);
        let pct: Vec<f64> = pairs().map(|(on, off)| (on - off) / off).collect();
        let delta: Vec<f64> = pairs().map(|(on, off)| (on - off).max(0.0)).collect();
        (
            quantile(&pct, 0.5),
            Duration::from_secs_f64(quantile(&delta, 0.5)),
        )
    };
    let (overhead, on_delta) = paired(&on);
    let (tail_overhead, tail_delta) = paired(&tail);

    let count_spans = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .map(|dir| {
                dir.flatten()
                    .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                    .map(|text| text.lines().count())
                    .sum::<usize>()
            })
            .unwrap_or(0)
    };
    let spans_written = count_spans(&trace_dir);
    let tail_spans = count_spans(&tail_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&tail_dir);

    let [off_min_ms, on_min_ms, tail_min_ms] = [&off, &on, &tail].map(|s| s.min() * 1e3);
    println!(
        "\ntracing overhead ({N_JOBS} jobs, {workers} workers, {samples} interleaved rounds; \
         min batch, median paired overhead): off {off_min_ms:.3} ms, on {on_min_ms:.3} ms \
         ({:+.2}%), {spans_written} spans written; tail {tail_min_ms:.3} ms ({:+.2}%), \
         {tail_spans} spans written",
        overhead * 100.0,
        tail_overhead * 100.0
    );

    let record = serde_json::json!({
        "bench": "service_tracing_overhead",
        "trace_detail": "stage",
        "jobs": N_JOBS,
        "workers": workers,
        "samples": samples,
        "arms_interleaved": true,
        "overhead_estimator": "median over rounds of (arm - off) / off",
        "tracing_off_min_ms": off_min_ms,
        "tracing_on_min_ms": on_min_ms,
        "overhead_pct": overhead * 100.0,
        "spans_written": spans_written,
        "tail_rule": "tail:p99",
        "tracing_tail_min_ms": tail_min_ms,
        "tail_overhead_pct": tail_overhead * 100.0,
        "tail_spans_written": tail_spans,
    });
    if let Some(mut gate) = bench.write(record) {
        // Same-run ratio: machine-independent.
        for (label, delta, pct) in [
            ("tracing", on_delta, overhead),
            ("tail sampling", tail_delta, tail_overhead),
        ] {
            gate.check(
                measure::overhead_ok(pct, delta),
                format!(
                    "{label} overhead {:.2}% (budget 3%, median paired delta {delta:.3?} \
                     over off {off_min_ms:.3} ms, 5 ms noise floor)",
                    pct * 100.0
                ),
            );
        }
        gate.finish();
    }
}
