//! Million-chunk retrieval benchmark: cluster-major IVF + the SQ8 scan
//! tier (ISSUE 10), and the scale datapoint next to `BENCH_batch.json`.
//!
//! The 10k-chunk benches established the query-blocked kernel and IVF
//! probing; this bench grows the corpus two orders of magnitude (1M
//! short single-chunk documents at 64 lanes) and measures the two ISSUE
//! 10 changes on it:
//!
//! - **f32 probe** — the PR 5-style path: probe `NPROBE` of `CLUSTERS`
//!   coarse clusters, scan the probed rows in full f32 over the
//!   cluster-major arena;
//! - **SQ8 + rerank** — scan the same probed rows over int8 codes to
//!   select a `RERANK_POOL`-sized candidate pool, then rerank the pool
//!   with exact f32 cosine. Returned scores are always exact.
//!
//! Correctness is asserted before any timing: the flat engine matches
//! `vecindex::reference` byte for byte on spot-check queries, SQ8 with a
//! pool covering every probed row is byte-identical to the f32 probe
//! path, and SQ8 at `nprobe = all` with a full pool is byte-identical to
//! the reference scan. The cluster-major memory claim is asserted too:
//! f32 vector memory of the clustered index (arena + centroids) must stay
//! within 1.1× the raw vectors — the duplicate packed copies are gone.
//!
//! Results go to `BENCH_million.json` at the repo root (override the path
//! with `BENCH_MILLION_OUT`, e.g. for the `-C target-cpu=native` CI arm;
//! override the corpus size with `BENCH_MILLION_CHUNKS`). With
//! `BENCH_GATE=1` the run **fails** (exit 1) when SQ8 recall@15 against
//! the exact flat top-15 falls below 0.95, when the same-run SQ8 speedup
//! over the f32 probe path falls below 2×, or when per-query latency
//! regresses >2× against the committed baseline while the
//! (machine-independent) same-run speedup also collapsed. `--test` runs a
//! reduced corpus with one iteration per arm and skips the JSON write and
//! the gate.

use ioagent_bench::measure::{self, bits, recall_at_k, Bench};
use ioagent_bench::synth;
use std::time::Instant;
use vecindex::{reference, SearchHit, VectorIndex};

/// Corpus size of the committed run (`BENCH_MILLION_CHUNKS` overrides).
const DEFAULT_CHUNKS: usize = 1_000_000;
/// Reduced corpus for `--test` smoke runs.
const TEST_CHUNKS: usize = 20_000;
/// Embedding lanes — deliberately narrower than the 256-lane knowledge
/// index so a million chunks stay affordable to embed and cluster.
const DIM: usize = 64;
const CLUSTERS: usize = 256;
/// Clusters probed per query by both timed arms.
const NPROBE: usize = 8;
const TOP_K: usize = 15;
const QUERIES: usize = 64;
/// SQ8 candidates reranked in exact f32 per query (the default arm).
const RERANK_POOL: usize = 128;
/// Queries spot-checked against the O(n) reference scan-score-sort spec.
const REFERENCE_SPOT_CHECKS: usize = 4;
const MIN_RECALL: f64 = 0.95;
const MIN_SPEEDUP: f64 = 2.0;
const MAX_MEMORY_RATIO: f64 = 1.1;

fn search_all(ix: &VectorIndex, queries: &[String]) -> Vec<Vec<SearchHit>> {
    queries.iter().map(|q| ix.search(q, TOP_K)).collect()
}

fn main() {
    let bench = Bench::open(
        &std::env::var("BENCH_MILLION_OUT").unwrap_or_else(|_| "BENCH_million.json".into()),
    );
    let chunks = std::env::var("BENCH_MILLION_CHUNKS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if measure::test_mode() {
            TEST_CHUNKS
        } else {
            DEFAULT_CHUNKS
        });

    println!("building million-scale corpus ({chunks} chunks × {DIM} lanes)…");
    let build_start = Instant::now();
    let flat = synth::million_corpus(chunks, DIM);
    let n = flat.len();
    let queries = synth::batch_queries(QUERIES);
    println!(
        "corpus ready: {n} chunks × {DIM} lanes in {:.1} s, {QUERIES} queries",
        build_start.elapsed().as_secs_f64()
    );

    // The exact per-query answers (flat engine) are both the ground truth
    // for recall and the equivalence spec for the probed arms; the flat
    // engine itself is pinned to the O(n·q) reference scan-score-sort on
    // spot-check queries.
    let exact = search_all(&flat, &queries);
    for (i, q) in queries.iter().take(REFERENCE_SPOT_CHECKS).enumerate() {
        assert_eq!(
            bits(&exact[i]),
            bits(&reference::search(&flat, q, TOP_K)),
            "flat engine diverged from vecindex::reference on query {i}"
        );
    }
    println!("reference equivalence: OK ({REFERENCE_SPOT_CHECKS} spot-check queries)");

    // ---- flat full-scan arm (context) ------------------------------------
    let flat_scan = measure::time(measure::rounds(3), || search_all(&flat, &queries));
    println!(
        "bench million/flat_full_scan: median {:.2} ms/query",
        flat_scan.median() * 1e3 / QUERIES as f64
    );

    println!("clustering: {CLUSTERS} coarse centroids (deterministic seeded k-means)…");
    let cluster_start = Instant::now();
    let mut ivf_ix = flat;
    ivf_ix.enable_ivf(CLUSTERS, NPROBE);
    let clusters = ivf_ix.ivf().unwrap().clusters();
    println!(
        "clustered into {clusters} lists in {:.1} s",
        cluster_start.elapsed().as_secs_f64()
    );

    // Cluster-major memory claim: the arena holds exactly one f32 copy of
    // the vectors (plus norms), and the quantizer adds only centroids —
    // the per-cluster packed duplicates of the previous layout are gone.
    let ivf = ivf_ix.ivf().unwrap();
    let f32_vector_bytes = ivf_ix.arena().f32_bytes()
        + (ivf.centroids().len() + ivf.clusters()) * std::mem::size_of::<f32>();
    let raw_bytes = n * DIM * std::mem::size_of::<f32>();
    let memory_ratio = f32_vector_bytes as f64 / raw_bytes as f64;
    assert!(
        memory_ratio <= MAX_MEMORY_RATIO,
        "clustered f32 vector memory is {memory_ratio:.3}× raw vectors \
         (cap {MAX_MEMORY_RATIO}×): {f32_vector_bytes} vs {raw_bytes} bytes"
    );
    println!(
        "clustered f32 vector memory: {:.1} MiB = {memory_ratio:.3}× raw vectors (cap \
         {MAX_MEMORY_RATIO}×)",
        f32_vector_bytes as f64 / (1024.0 * 1024.0)
    );

    // ---- byte-identity: SQ8 + rerank vs the f32 probe path ---------------
    // With a pool covering every probed row, the rerank re-scores exactly
    // the rows the f32 path scores — the int8 scan only reorders which
    // candidates enter the pool, so the returned top-k must be
    // byte-identical.
    let f32_hits = search_all(&ivf_ix, &queries);
    let mut sq8_full_pool = ivf_ix.clone();
    sq8_full_pool.enable_sq8(n);
    let full_pool_hits = search_all(&sq8_full_pool, &queries);
    for (i, (a, b)) in f32_hits.iter().zip(&full_pool_hits).enumerate() {
        assert_eq!(
            bits(a),
            bits(b),
            "full-pool SQ8 diverged from the f32 probe path on query {i}"
        );
    }
    println!("SQ8 full-pool equivalence: OK (byte-identical to the f32 probe path)");

    // …and at `nprobe = all` the probed set is every row, so a full pool
    // is byte-identical to the reference scan itself.
    sq8_full_pool.set_nprobe(clusters);
    for (i, q) in queries.iter().take(REFERENCE_SPOT_CHECKS).enumerate() {
        assert_eq!(
            bits(&sq8_full_pool.search(q, TOP_K)),
            bits(&exact[i]),
            "exact-mode SQ8 diverged from the flat scan on query {i}"
        );
    }
    drop(sq8_full_pool);
    println!("SQ8 exact-mode equivalence: OK (nprobe = {clusters}, full pool)");

    // ---- timed arms ------------------------------------------------------
    let mut sq8_ix = ivf_ix.clone();
    sq8_ix.enable_sq8(RERANK_POOL);
    let sq8_hits = search_all(&sq8_ix, &queries);
    let queries = &queries;
    let scan = |ix| move || drop(search_all(ix, queries));
    let [f32_probe, sq8] =
        measure::interleave(measure::rounds(5), [&mut scan(&ivf_ix), &mut scan(&sq8_ix)]);
    let per_query = |secs: f64| secs * 1e3 / QUERIES as f64;
    let recall_f32 = recall_at_k(&exact, &f32_hits);
    println!(
        "bench million/f32_probe_nprobe{NPROBE}: median {:.3} ms/query (min {:.3}) \
         recall@{TOP_K} {recall_f32:.4}",
        per_query(f32_probe.median()),
        per_query(f32_probe.min())
    );
    let recall_sq8 = recall_at_k(&exact, &sq8_hits);
    let sq8_code_bytes = sq8_ix.sq8().unwrap().code_bytes();
    println!(
        "bench million/sq8_pool{RERANK_POOL}_nprobe{NPROBE}: median {:.3} ms/query \
         (min {:.3}) recall@{TOP_K} {recall_sq8:.4}, codes {:.1} MiB",
        per_query(sq8.median()),
        per_query(sq8.min()),
        sq8_code_bytes as f64 / (1024.0 * 1024.0)
    );

    let speedup_sq8 = f32_probe.median() * 1e3 / (sq8.median() * 1e3).max(1e-9);
    let flat_per_query = per_query(flat_scan.median());
    let f32_per_query = per_query(f32_probe.median());
    let sq8_per_query = per_query(sq8.median());
    println!(
        "per-query: flat {flat_per_query:.3} ms → f32 probe {f32_per_query:.3} ms → \
         SQ8+rerank {sq8_per_query:.3} ms ({speedup_sq8:.1}x over the f32 probe path)"
    );

    let record = serde_json::json!({
        "bench": "million",
        "corpus_chunks": n,
        "dim": DIM,
        "top_k": TOP_K,
        "queries": QUERIES,
        "ivf_clusters": clusters,
        "nprobe": NPROBE,
        "sq8_rerank_pool": RERANK_POOL,
        "flat_full_scan_ms_per_query": flat_per_query,
        "f32_probe_ms_per_query": f32_per_query,
        "sq8_ms_per_query": sq8_per_query,
        "speedup_sq8": speedup_sq8,
        "recall_f32_probe": recall_f32,
        "recall_sq8": recall_sq8,
        "vector_memory_ratio": memory_ratio,
        "sq8_code_bytes": sq8_code_bytes,
    });
    if let Some(mut gate) = bench.write(record) {
        // Recall and same-run speedup are machine-independent: hard gates.
        gate.at_least(
            &format!("SQ8 recall@{TOP_K} at nprobe={NPROBE}"),
            recall_sq8,
            MIN_RECALL,
        );
        gate.at_least(
            "SQ8 speedup over the f32 probe path",
            speedup_sq8,
            MIN_SPEEDUP,
        );
        gate.two_signal(
            "SQ8 per-query latency (ms)",
            sq8_per_query,
            bench.baseline("sq8_ms_per_query"),
            speedup_sq8,
            measure::ratio_floor(bench.baseline("speedup_sq8"), None),
        );
        gate.finish();
    }
}
