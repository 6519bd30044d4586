//! Retrieval engine benchmark and the repo's measured-performance record.
//!
//! Builds a synthetic 10k-chunk corpus (deterministic vocabulary, so every
//! run measures the same work), then measures:
//!
//! - **cold build** — chunk + embed the whole corpus into the arena;
//! - **single search** — one top-15 query over all 10k chunks, engine
//!   (arena + cached norms + unrolled dot + bounded heap) vs the seed-era
//!   scan-score-sort path preserved in `vecindex::reference`, with the two
//!   asserted byte-identical before any timing;
//! - **64-query batch** — `search_batch` under a forced 1-thread and
//!   4-thread shim pool;
//! - **embed** — the seed-era embedding (fresh `HashMap` + per-token
//!   `String`s, replicated below) vs `embed_into` into a reused buffer
//!   (the allocation-free hot path).
//!
//! Results are written to `BENCH_retrieval.json` at the repo root — the
//! perf-trajectory datapoint ISSUE 4 asks for. With `BENCH_GATE=1` the run
//! additionally compares its single-query engine time against the
//! committed baseline in that file and **fails** (exit 1) on a >2×
//! regression; CI runs the gate on every push. `--test` (as `cargo test`
//! passes to harness-less bench targets) runs every arm once as a smoke
//! test and skips the JSON write and the gate.

use ioagent_bench::measure::{self, at_width, bits, Bench};
use ioagent_bench::synth;
use std::hint::black_box;
use vecindex::reference;

const TARGET_CHUNKS: usize = 10_000;
const TOP_K: usize = 15;
const BATCH: usize = 64;
/// Same-run speedup floor of the gate when the committed baseline records
/// no speedup of its own.
const FALLBACK_RATIO_FLOOR: f64 = 3.0;

const QUERY: &str = "the value of 1.0 in the 1K to 10K bin indicates that 100% of the write \
                     operations fall within the 1 KB to 10 KB range; many frequent small \
                     write requests from 16 processes on a single stripe";

/// The seed-era `Embedder::embed`: a fresh `HashMap` per call keyed over
/// per-token `String`s (via `tokenize`). Kept here as the baseline the
/// allocation-free `embed_into` is measured against. (Not in `reference`:
/// its HashMap iteration order made long-text embeddings non-deterministic
/// call to call, which is exactly why it was replaced.)
fn seed_era_embed(e: &ioembed::Embedder, text: &str) -> Vec<f32> {
    let mut v = vec![0f32; e.dim];
    let tokens = ioembed::tokenize(text);
    let mut tf: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    for t in &tokens {
        *tf.entry(t.as_str()).or_insert(0) += 1;
    }
    let bump = |v: &mut [f32], bytes: &[u8], seed: u64, weight: f32| {
        // FNV-1a, as the embedder hashes.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let slot = (h % e.dim as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[slot] += sign * weight;
    };
    for (tok, count) in tf {
        let w = (1.0 + count as f32).ln();
        bump(&mut v, tok.as_bytes(), 0, w);
        bump(&mut v, tok.as_bytes(), 1, w);
        let bytes = tok.as_bytes();
        if bytes.len() >= 3 {
            for tri in bytes.windows(3) {
                bump(&mut v, tri, 2, w * 0.4);
            }
        }
    }
    ioembed::l2_normalize(&mut v);
    v
}

fn main() {
    let bench = Bench::open("BENCH_retrieval.json");
    let rounds = measure::rounds;

    println!("building synthetic corpus ({TARGET_CHUNKS}+ chunks)…");
    let ix = synth::build_corpus(TARGET_CHUNKS);
    let n = ix.len();
    let dim = ix.embedder().dim;
    println!("corpus ready: {n} chunks × {dim} lanes");

    // Correctness first: the engine must be byte-identical to the old
    // path on this corpus before its speed means anything.
    assert_eq!(
        bits(&at_width(1, || ix.search(QUERY, TOP_K))),
        bits(&reference::search(&ix, QUERY, TOP_K)),
        "engine and reference top-{TOP_K} diverged — refusing to benchmark a wrong answer"
    );
    println!("engine/reference equivalence: OK (top-{TOP_K} byte-identical)");

    // ---- cold build ------------------------------------------------------
    let build = measure::time(rounds(5), || synth::build_corpus(TARGET_CHUNKS).len());
    build.report("retrieval/cold_build_10k");

    // ---- single search: engine vs seed-era reference ---------------------
    // Width 1 isolates the algorithmic speedup (norm caching + heap top-k
    // + arena locality) from thread-level parallelism; the reference path
    // is sequential by construction.
    let engine = at_width(1, || measure::time(rounds(200), || ix.search(QUERY, TOP_K)));
    engine.report("retrieval/single_search_engine");
    let reference = measure::time(rounds(30), || reference::search(&ix, QUERY, TOP_K));
    reference.report("retrieval/single_search_reference");
    let (engine_us, reference_us) = (engine.median() * 1e6, reference.median() * 1e6);
    let speedup = reference_us / engine_us.max(1e-9);
    println!("single-query speedup over pre-PR scan: {speedup:.1}x");

    // ---- 64-query batch at 1 and 4 threads -------------------------------
    let queries = synth::batch_queries(BATCH);
    let batch_at = |width| {
        let samples = at_width(width, || {
            measure::time(rounds(10), || ix.search_batch(&queries, TOP_K))
        });
        samples.report(&format!("retrieval/batch64_threads{width}"));
        samples.median() * 1e3
    };
    let (b1_ms, b4_ms) = (batch_at(1), batch_at(4));

    // ---- embed: seed-era (HashMap + per-token Strings) vs hot path -------
    let embedder = ioembed::Embedder::default();
    let mut buf = Vec::new();
    let [embed_seed, embed_into] = measure::interleave(
        rounds(50),
        [
            &mut || {
                for _ in 0..100 {
                    black_box(seed_era_embed(&embedder, QUERY));
                }
            },
            &mut || {
                for _ in 0..100 {
                    embedder.embed_into(QUERY, &mut buf);
                    black_box(buf.len());
                }
            },
        ],
    );
    let per_call_us = |s: &measure::Samples| s.median() * 1e6 / 100.0;
    let (seed_us, into_us) = (per_call_us(&embed_seed), per_call_us(&embed_into));
    println!(
        "bench retrieval/embed_seed_era: {seed_us:.2} µs   embed_into (allocation-free): \
         {into_us:.2} µs   ({:.1}x)",
        seed_us / into_us.max(1e-9)
    );

    let record = serde_json::json!({
        "bench": "retrieval",
        "corpus_chunks": n,
        "dim": dim,
        "top_k": TOP_K,
        "cold_build_ms": build.median() * 1e3,
        "single_search_engine_us": engine_us,
        "single_search_reference_us": reference_us,
        "single_search_speedup": speedup,
        "batch64_threads1_ms": b1_ms,
        "batch64_threads4_ms": b4_ms,
        "embed_seed_era_us": seed_us,
        "embed_into_us": into_us,
    });
    if let Some(mut gate) = bench.write(record) {
        gate.two_signal(
            "single-query engine search min (µs)",
            engine.min() * 1e6,
            bench.baseline("single_search_engine_us"),
            speedup,
            measure::ratio_floor(
                bench.baseline("single_search_speedup"),
                Some(FALLBACK_RATIO_FLOOR),
            ),
        );
        gate.finish();
    }
}
