//! Persistence benchmarks: what the `iostore` state layer buys a daemon
//! generation.
//!
//! Two arms:
//!
//! - **index**: cold start (chunk + embed the 66-document corpus from
//!   scratch) versus loading the versioned snapshot from disk. The loaded
//!   index is bit-identical, so this is pure start-up latency.
//! - **restart**: a fresh service answering a previously-seen 16-job batch
//!   from the on-disk journal (simulating a daemon restart with a warm
//!   `--state-dir`) versus a fresh service re-diagnosing the same batch
//!   from nothing. Both run over one shared pre-built index so the arm
//!   isolates result persistence from index persistence.
//!
//! Each arm's two sides run interleaved; a summary of medians with
//! speedups is printed after the samples.

use ioagent_bench::measure::{self, Samples};
use ioagentd::{DiagnosisService, JobRequest, Retriever, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use tracebench::TraceBench;

const N_JOBS: usize = 16;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bench-persist-{tag}-{}", std::process::id()));
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

fn workload(suite: &TraceBench) -> Vec<JobRequest> {
    suite
        .entries
        .iter()
        .take(N_JOBS)
        .map(|e| JobRequest::new(e.spec.id, e.trace.clone(), "gpt-4o-mini"))
        .collect()
}

fn main() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let corpus_hash = knowledge::corpus_hash();
    let spec = Retriever::index_spec();
    let rounds = measure::rounds(10);

    // ---- Arm 1: cold index build vs snapshot load ------------------------
    let tmp = TempDir::new("index");
    let snapshot_path = tmp.0.join(iostore::INDEX_FILE);
    let built = Retriever::build();
    iostore::save_index(&snapshot_path, built.index(), corpus_hash).unwrap();
    let [cold_index, warm_index] = measure::interleave(
        rounds,
        [&mut || drop(Retriever::build()), &mut || {
            drop(iostore::load_index(&snapshot_path, &spec).unwrap())
        }],
    );

    // ---- Arm 2: cold batch vs journal-warm restart -----------------------
    // Warm a state dir once, then repeatedly "restart": a brand-new
    // service over the warm journal, answering the batch from disk.
    let state = TempDir::new("restart");
    let index = Arc::new(built);
    let batch = |config: ServiceConfig| {
        let service = DiagnosisService::with_shared_index(config, Arc::clone(&index));
        let out = service.run_batch(jobs.clone()).unwrap();
        service.shutdown();
        out
    };
    batch(ServiceConfig::with_workers(2).state_dir(&state.0));
    let [cold_batch, warm_batch] = measure::interleave(
        rounds,
        [
            &mut || drop(batch(ServiceConfig::with_workers(2))),
            &mut || {
                let out = batch(ServiceConfig::with_workers(2).state_dir(&state.0));
                assert!(
                    out.iter().all(|r| r.cached),
                    "warm restart must hit the journal"
                );
            },
        ],
    );

    // ---- Summary ---------------------------------------------------------
    let ms = |s: &Samples| s.median() * 1e3;
    let ratio = |cold: &Samples, warm: &Samples| cold.median() / warm.median().max(1e-9);
    println!("\npersistence summary (median):");
    println!("  index  cold build     {:>10.3} ms", ms(&cold_index));
    println!(
        "  index  snapshot load  {:>10.3} ms  ({:.1}x faster)",
        ms(&warm_index),
        ratio(&cold_index, &warm_index)
    );
    println!("  batch16 cold          {:>10.3} ms", ms(&cold_batch));
    println!(
        "  batch16 warm restart  {:>10.3} ms  ({:.1}x faster)",
        ms(&warm_batch),
        ratio(&cold_batch, &warm_batch)
    );
}
