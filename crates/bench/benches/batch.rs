//! Batch-retrieval benchmark: the query-blocked kernel and IVF probing
//! (ISSUE 5), and the second perf-trajectory datapoint next to
//! `BENCH_retrieval.json`.
//!
//! PR 4 left the 64-query batch DRAM-bandwidth-bound: each query streamed
//! the whole 10k × 256 arena by itself, so 4 threads were as fast as 1.
//! This bench measures the two fixes on the same deterministic synthetic
//! corpus the retrieval bench uses:
//!
//! - **per-query loop** — the PR 4 `search_batch` (one full arena stream
//!   per query, queries in parallel), replicated here as the baseline;
//! - **query-blocked batch** — `search_batch` streaming the arena once
//!   per 8-query block (`dot_block_batch` / `dot_multi`), byte-identical
//!   results, asserted before timing;
//! - **IVF probing** at `nprobe ∈ {1, default, all}` over 32 coarse
//!   clusters — recall@15 against the exact flat top-15 plus throughput,
//!   with `nprobe = all` asserted byte-identical to the flat scan.
//!
//! Results go to `BENCH_batch.json` at the repo root. With `BENCH_GATE=1`
//! the run **fails** (exit 1) when the same-run batch speedup at the
//! default nprobe falls below 3× the per-query loop, when recall@15 at
//! the default nprobe falls below 0.95, or when throughput regresses >2×
//! against the committed baseline while the (machine-independent)
//! same-run speedup also collapsed. `--test` runs one iteration per arm
//! as a smoke test and skips the JSON write and the gate.

use ioagent_bench::measure::{self, at_width, bits, recall_at_k, Bench};
use ioagent_bench::synth;
use std::hint::black_box;
use vecindex::SearchHit;

const TARGET_CHUNKS: usize = 10_000;
const TOP_K: usize = 15;
const BATCH: usize = 64;
/// Coarse clusters the IVF arm builds over the 10k-chunk corpus.
const CLUSTERS: usize = 32;
/// The default probe width (`IvfParams::with_default_nprobe`: an eighth
/// of the clusters) — the configuration the gate holds to ≥ 3× speedup
/// and ≥ 0.95 recall@15.
const DEFAULT_NPROBE: usize = CLUSTERS / 8;
const MIN_SPEEDUP: f64 = 3.0;
const MIN_RECALL: f64 = 0.95;

fn main() {
    let bench = Bench::open("BENCH_batch.json");
    let rounds = measure::rounds(10);

    println!("building synthetic corpus ({TARGET_CHUNKS}+ chunks)…");
    let flat = synth::build_corpus(TARGET_CHUNKS);
    let n = flat.len();
    let dim = flat.embedder().dim;
    let queries = synth::batch_queries(BATCH);
    println!("corpus ready: {n} chunks × {dim} lanes, {BATCH} queries");

    // The exact per-query answers (flat engine, sequential) are both the
    // ground truth for recall and the equivalence spec for the kernels.
    let exact: Vec<Vec<SearchHit>> = at_width(1, || {
        queries.iter().map(|q| flat.search(q, TOP_K)).collect()
    });
    let all_bits = |batch: &[Vec<SearchHit>]| batch.iter().map(|h| bits(h)).collect::<Vec<_>>();

    // Correctness before speed: the query-blocked batch must be
    // byte-identical to per-query searches at both widths.
    for width in [1usize, 4] {
        let blocked = at_width(width, || flat.search_batch(&queries, TOP_K));
        assert_eq!(
            all_bits(&blocked),
            all_bits(&exact),
            "query-blocked batch diverged from per-query search at width {width}"
        );
    }
    println!("blocked-batch/per-query equivalence: OK (byte-identical at widths 1, 4)");

    println!("clustering: {CLUSTERS} coarse centroids (deterministic seeded k-means)…");
    let mut ivf = flat.clone();
    ivf.enable_ivf(CLUSTERS, DEFAULT_NPROBE);
    assert_eq!(ivf.ivf().unwrap().clusters(), CLUSTERS);
    let probing = [1usize, DEFAULT_NPROBE, CLUSTERS].map(|nprobe| {
        let mut ix = ivf.clone();
        ix.set_nprobe(nprobe);
        ix
    });

    // Exact-mode IVF (`nprobe = all`) must be byte-identical to the flat
    // scan — probing restricts which rows are scored, never their scores.
    assert_eq!(
        all_bits(&at_width(1, || probing[2].search_batch(&queries, TOP_K))),
        all_bits(&exact),
        "nprobe = all diverged from the exact flat scan"
    );
    println!("IVF exact-mode equivalence: OK (nprobe = {CLUSTERS} byte-identical)");
    let recalls = probing
        .each_ref()
        .map(|ix| recall_at_k(&exact, &at_width(4, || ix.search_batch(&queries, TOP_K))));
    assert_eq!(recalls[2], 1.0, "exact mode must recall everything");

    // ---- timed arms ------------------------------------------------------
    // The per-query loop, the query-blocked flat batch and the three
    // IVF probe widths run interleaved at width 4; the blocked batch is
    // timed again alone at width 1.
    let blocked1 = at_width(1, || {
        measure::time(rounds, || flat.search_batch(&queries, TOP_K))
    });
    let search = |ix: &vecindex::VectorIndex| {
        black_box(ix.search_batch(&queries, TOP_K));
    };
    let [perquery, blocked4, ivf1, ivf_default, ivf_all] = at_width(4, || {
        measure::interleave(
            rounds,
            [
                &mut || {
                    use rayon::prelude::*;
                    black_box(
                        queries
                            .par_iter()
                            .map(|q| flat.search(q, TOP_K))
                            .collect::<Vec<_>>(),
                    );
                },
                &mut || search(&flat),
                &mut || search(&probing[0]),
                &mut || search(&probing[1]),
                &mut || search(&probing[2]),
            ],
        )
    });
    perquery.report("batch/batch64_perquery_threads4");
    blocked1.report("batch/batch64_blocked_threads1");
    blocked4.report("batch/batch64_blocked_threads4");
    for (samples, (nprobe, recall)) in [&ivf1, &ivf_default, &ivf_all]
        .into_iter()
        .zip([1usize, DEFAULT_NPROBE, CLUSTERS].into_iter().zip(recalls))
    {
        samples.report(&format!("batch/batch64_ivf_nprobe{nprobe}"));
        println!("  recall@{TOP_K} {recall:.4}");
    }

    let ms = |s: &measure::Samples| s.median() * 1e3;
    let default_ms = ms(&ivf_default);
    let default_recall = recalls[1];
    let speedup_blocked = ms(&perquery) / ms(&blocked4).max(1e-9);
    let speedup_default = ms(&perquery) / default_ms.max(1e-9);
    println!(
        "64-query batch speedup over the per-query loop: blocked {speedup_blocked:.1}x, \
         blocked+IVF(nprobe={DEFAULT_NPROBE}) {speedup_default:.1}x"
    );

    let record = serde_json::json!({
        "bench": "batch",
        "corpus_chunks": n,
        "dim": dim,
        "top_k": TOP_K,
        "batch": BATCH,
        "ivf_clusters": CLUSTERS,
        "default_nprobe": DEFAULT_NPROBE,
        "batch64_perquery_threads4_ms": ms(&perquery),
        "batch64_blocked_threads1_ms": ms(&blocked1),
        "batch64_blocked_threads4_ms": ms(&blocked4),
        "batch64_ivf_nprobe1_ms": ms(&ivf1),
        "batch64_ivf_default_ms": default_ms,
        "batch64_ivf_all_ms": ms(&ivf_all),
        "recall_nprobe1": recalls[0],
        "recall_default": default_recall,
        "speedup_blocked": speedup_blocked,
        "speedup_default": speedup_default,
    });
    if let Some(mut gate) = bench.write(record) {
        // Recall and same-run speedup are machine-independent: hard gates.
        gate.at_least(
            &format!("recall@{TOP_K} at nprobe={DEFAULT_NPROBE}"),
            default_recall,
            MIN_RECALL,
        );
        gate.at_least(
            "batch speedup at the default nprobe over the per-query loop",
            speedup_default,
            MIN_SPEEDUP,
        );
        gate.two_signal(
            "default-nprobe batch (ms)",
            default_ms,
            bench.baseline("batch64_ivf_default_ms"),
            speedup_default,
            measure::ratio_floor(bench.baseline("speedup_default"), None),
        );
        gate.finish();
    }
}
