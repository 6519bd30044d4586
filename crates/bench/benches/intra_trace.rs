//! Intra-trace parallelism benchmark: wall-clock for the hot loops *inside*
//! one diagnosis job at a 1-thread vs a 4-thread rayon-shim pool.
//!
//! Two arms:
//!
//! - **fragment diagnosis**: the full `IoAgent::diagnose` pipeline over the
//!   suite's most fragment-rich trace, with the backbone model charging a
//!   simulated 10 ms remote round trip per completion (the regime a
//!   deployed agent runs in — see `SimLlm::with_latency`). Per-fragment NL
//!   transformation + grounded diagnosis overlap across shim threads, so
//!   this arm scales with the pool width on any machine, single-core CI
//!   containers included.
//! - **batch search**: `VectorIndex::search_batch` over the knowledge-size
//!   index — pure local compute, so its scaling reflects physical cores
//!   (reported for reference; on a 1-core host both widths are equivalent
//!   by construction).
//!
//! Diagnoses are asserted byte-identical across widths before timing — the
//! speedup is only meaningful if the outputs agree. A `speedup` summary is
//! printed after the samples.

use ioagent_bench::measure::{self, at_width};
use ioagent_core::rag::Retriever;
use ioagent_core::{AgentConfig, IoAgent};
use simllm::SimLlm;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tracebench::TraceBench;

/// Simulated per-completion remote-LLM round trip for the diagnosis arm.
const CALL_LATENCY: Duration = Duration::from_millis(10);

fn main() {
    let suite = TraceBench::generate();
    let entry = suite
        .entries
        .iter()
        .max_by_key(|e| preprocessor::extract_fragments(&e.trace).len())
        .expect("non-empty suite");
    let n_fragments = preprocessor::extract_fragments(&entry.trace).len();
    let retriever = Arc::new(Retriever::build());

    let diagnose = |width: usize| {
        at_width(width, || {
            let model = SimLlm::new("gpt-4o").with_latency(CALL_LATENCY);
            let agent = IoAgent::with_shared_retriever(
                &model,
                AgentConfig::default(),
                Arc::clone(&retriever),
            );
            agent.diagnose(&entry.trace).text
        })
    };
    assert_eq!(
        diagnose(1),
        diagnose(4),
        "widths must produce byte-identical diagnoses"
    );

    let queries: Vec<String> = (0..64)
        .map(|i| {
            format!(
                "query {i}: small writes, stripe width 1, metadata stat storm, \
                 collective aggregation of shared-file transfers"
            )
        })
        .collect();
    let mut index = vecindex::VectorIndex::default();
    for d in 0..48 {
        index.add_document(
            &format!("doc-{d}"),
            &format!("[Synthetic Source {d}, V 2024]"),
            &format!(
                "Document {d} discusses stripe counts, object storage targets, collective \
                 MPI-IO aggregation, metadata server load, request sizes and alignment. "
            )
            .repeat(24),
        );
    }

    // Each pair of widths runs interleaved.
    let rounds = measure::rounds(5);
    let diagnose_at = |width| move || drop(black_box(diagnose(width)));
    let [diagnose1, diagnose4] =
        measure::interleave(rounds, [&mut diagnose_at(1), &mut diagnose_at(4)]);
    let (index, queries) = (&index, &queries);
    let search_at = |width| {
        move || {
            drop(black_box(at_width(width, || {
                index.search_batch(queries, 15)
            })))
        }
    };
    let [search1, search4] = measure::interleave(rounds, [&mut search_at(1), &mut search_at(4)]);

    println!(
        "\nintra-trace scaling summary ({n_fragments} fragments, {} queries, median):",
        queries.len()
    );
    for (label, t) in [
        ("diagnose_1thread", &diagnose1),
        ("diagnose_4thread", &diagnose4),
        ("search_1thread", &search1),
        ("search_4thread", &search4),
    ] {
        println!("  {label:20} {:>10.3} ms", t.median() * 1e3);
    }
    println!(
        "  fragment-diagnosis speedup: {:.2}x (4 threads vs 1, {CALL_LATENCY:?}/call)",
        diagnose1.median() / diagnose4.median()
    );
    println!(
        "  batch-search speedup: {:.2}x (4 threads vs 1, compute-bound)",
        search1.median() / search4.median()
    );
}
