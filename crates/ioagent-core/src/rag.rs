//! Domain Knowledge Integrator (paper §IV-B).
//!
//! Builds the vector index over the 66-document expert corpus (chunk size
//! 512, overlap 20 — the paper's LlamaIndex defaults), retrieves the top 15
//! chunks for each fragment's natural-language description, and filters the
//! hits with a cheaper *self-reflection* model run in parallel, "ruling out
//! nearly half of the retrieved sources" before diagnosis.

use ioembed::Embedder;
use rayon::prelude::*;
use simllm::{CompletionRequest, LanguageModel};
use vecindex::{VectorIndex, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP};

/// A retrieved, reflection-approved source.
#[derive(Debug, Clone)]
pub struct GroundedSource {
    /// Knowledge-document id.
    pub doc_id: String,
    /// Citation string for reports.
    pub citation: String,
    /// Claims the document substantiates.
    pub claims: Vec<&'static str>,
    /// Retrieval score.
    pub score: f32,
}

impl GroundedSource {
    /// Render as `REFERENCE` prompt lines (one per claim).
    pub fn reference_lines(&self) -> String {
        self.claims
            .iter()
            .map(|c| format!("REFERENCE claim={c} cite={}\n", self.citation))
            .collect()
    }
}

/// IVF retrieval configuration: cluster the knowledge index around
/// `clusters` coarse centroids and probe the `nprobe` most query-similar
/// ones per search. `nprobe >= clusters` keeps retrieval byte-identical
/// to the flat scan; smaller values trade recall for scan cost (the
/// batch benchmark pins recall@15 ≥ 0.95 at the default probe width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Coarse cluster count (clamped to the chunk count at build time).
    pub clusters: usize,
    /// Clusters probed per search (clamped to `1..=clusters`).
    pub nprobe: usize,
}

impl IvfParams {
    /// Params with the default probe width for a cluster count: an eighth
    /// of the clusters (at least one) — the ratio the batch benchmark
    /// gates at ≥ 0.95 recall@15.
    pub fn with_default_nprobe(clusters: usize) -> Self {
        IvfParams {
            clusters,
            nprobe: (clusters / 8).max(1),
        }
    }
}

/// SQ8 scan-tier configuration: scan probed clusters over int8 codes to
/// pick a `rerank_pool`-sized candidate pool, then rerank the pool with
/// exact f32 cosine. Requires IVF ([`IvfParams`]); the returned top-k
/// carries exact scores, and a pool covering every probed row is
/// byte-identical to the f32 probe path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sq8Params {
    /// Candidate-pool size reranked in exact f32 (0 → the vecindex
    /// default, [`vecindex::DEFAULT_SQ8_RERANK_POOL`]).
    pub rerank_pool: usize,
}

impl Default for Sq8Params {
    fn default() -> Self {
        Sq8Params {
            rerank_pool: vecindex::DEFAULT_SQ8_RERANK_POOL,
        }
    }
}

/// Where a retriever's index came from (see [`Retriever::build_or_load`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexProvenance {
    /// Served from an on-disk snapshot — no re-embedding happened.
    Snapshot,
    /// Built fresh from the corpus; the string says why the snapshot was
    /// not usable (missing, stale corpus, config mismatch, corruption, …).
    Rebuilt(String),
}

/// The knowledge retriever.
pub struct Retriever {
    index: VectorIndex,
    /// How many chunks to retrieve before reflection (paper: 15).
    pub top_k: usize,
}

impl Retriever {
    /// Build the index over the built-in corpus (flat exact scans).
    pub fn build() -> Self {
        Self::build_with(None)
    }

    /// [`Retriever::build`], optionally clustering the index for IVF
    /// probing. `None` keeps the flat exact scan.
    pub fn build_with(ivf: Option<IvfParams>) -> Self {
        Self::build_tuned(ivf, None)
    }

    /// [`Retriever::build_with`], optionally stacking the SQ8 scan tier on
    /// top of the clustering.
    ///
    /// # Panics
    ///
    /// `sq8` without `ivf` is a configuration error — the SQ8 tier scans
    /// probed clusters, so there is nothing for it to do on a flat index —
    /// and panics rather than silently serving a different engine than
    /// the caller configured.
    pub fn build_tuned(ivf: Option<IvfParams>, sq8: Option<Sq8Params>) -> Self {
        assert!(
            sq8.is_none() || ivf.is_some(),
            "SQ8 requires IVF clustering (set IvfParams too)"
        );
        let mut index = VectorIndex::new(Embedder::default(), DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP);
        for doc in knowledge::corpus() {
            let text = format!("{}. {}", doc.title, doc.body);
            index.add_document(doc.id, &doc.citation(), &text);
        }
        if let Some(p) = ivf {
            index.enable_ivf(p.clusters, p.nprobe);
        }
        if let Some(p) = sq8 {
            index.enable_sq8(p.rerank_pool);
        }
        Retriever { index, top_k: 15 }
    }

    /// Wrap an already-built index (e.g. loaded from an `iostore`
    /// snapshot) with the paper's retrieval configuration.
    pub fn from_index(index: VectorIndex) -> Self {
        Retriever { index, top_k: 15 }
    }

    /// The underlying vector index (read-only; used for snapshotting).
    pub fn index(&self) -> &VectorIndex {
        &self.index
    }

    /// What an index snapshot must match to stand in for [`Retriever::build`]:
    /// the default embedder/chunking configuration plus the content hash of
    /// the live corpus.
    pub fn index_spec() -> iostore::IndexSpec {
        iostore::IndexSpec {
            embedder_dim: Embedder::default().dim,
            chunk_size: DEFAULT_CHUNK_SIZE,
            overlap: DEFAULT_OVERLAP,
            corpus_hash: knowledge::corpus_hash(),
        }
    }

    /// Load the index from `state`'s snapshot when it matches the live
    /// corpus and embedder configuration; otherwise build it fresh and
    /// (re)write the snapshot so the *next* start is instant. The returned
    /// [`IndexProvenance`] says which path was taken and why.
    ///
    /// A snapshot-loaded retriever is bit-identical to a built one — same
    /// entries, same vectors — so retrievals and downstream diagnoses do
    /// not depend on which path ran. A failure to *write* the snapshot is
    /// reported in the provenance but never fails the build.
    pub fn build_or_load(state: &iostore::StateDir) -> (Self, IndexProvenance) {
        Self::build_or_load_with(state, None)
    }

    /// [`Retriever::build_or_load`] with an IVF configuration to
    /// reconcile against whatever the snapshot holds:
    ///
    /// - snapshot already clustered with the requested cluster count →
    ///   served as-is (probe width is a runtime knob, adjusted in place);
    /// - snapshot flat (e.g. written by a pre-IVF v1 binary) or clustered
    ///   differently → the loaded vectors are kept and **lazily
    ///   re-clustered** — no re-embedding — then the snapshot is re-saved
    ///   as v2 so the next start skips the clustering too;
    /// - IVF off but the snapshot clustered → the quantizer is detached,
    ///   so default retrieval stays byte-identical to [`Retriever::build`].
    pub fn build_or_load_with(
        state: &iostore::StateDir,
        ivf: Option<IvfParams>,
    ) -> (Self, IndexProvenance) {
        Self::build_or_load_tuned(state, ivf, None)
    }

    /// [`Retriever::build_or_load_with`] that also reconciles an SQ8
    /// scan-tier request against the snapshot:
    ///
    /// - snapshot already carries a codebook (v3) → served as-is, the
    ///   rerank pool is a runtime knob adjusted in place;
    /// - snapshot clustered but codebook-less (v2) → the tier is
    ///   **lazily trained** — no re-embedding, no re-clustering — and the
    ///   snapshot re-saved as v3 so the next start skips the training;
    /// - SQ8 off but the snapshot carries a codebook → the tier is
    ///   detached in memory (the v3 snapshot is left in place for
    ///   SQ8-enabled consumers), so retrieval stays byte-identical to the
    ///   f32 probe path.
    ///
    /// # Panics
    ///
    /// `sq8` without `ivf` panics, as in [`Retriever::build_tuned`].
    pub fn build_or_load_tuned(
        state: &iostore::StateDir,
        ivf: Option<IvfParams>,
        sq8: Option<Sq8Params>,
    ) -> (Self, IndexProvenance) {
        assert!(
            sq8.is_none() || ivf.is_some(),
            "SQ8 requires IVF clustering (set IvfParams too)"
        );
        let spec = Self::index_spec();
        let path = state.index_path();
        match iostore::load_index(&path, &spec) {
            Ok(mut index) => {
                let reclustered = match (ivf, index.ivf()) {
                    (None, None) => false,
                    (None, Some(_)) => {
                        index.disable_ivf();
                        false
                    }
                    (Some(p), Some(cur)) if cur.clusters() == p.clusters.clamp(1, index.len()) => {
                        index.set_nprobe(p.nprobe);
                        false
                    }
                    (Some(p), _) => {
                        index.enable_ivf(p.clusters, p.nprobe);
                        true
                    }
                };
                // SQ8 reconciliation runs after the IVF arm: re-clustering
                // drops any loaded codebook, so `(Some(p), None)` below
                // also covers "reclustered, retrain the tier".
                let retrained = match (sq8, index.sq8()) {
                    (None, None) => false,
                    (None, Some(_)) => {
                        index.disable_sq8();
                        false
                    }
                    (Some(p), Some(_)) => {
                        index.set_sq8_rerank_pool(p.rerank_pool);
                        false
                    }
                    (Some(p), None) => {
                        index.enable_sq8(p.rerank_pool);
                        true
                    }
                };
                if reclustered || retrained {
                    // Best-effort: persist the clustering/codebook for the
                    // next start; a failed save only costs that start a
                    // re-derivation, never correctness.
                    let _ = iostore::save_index(&path, &index, spec.corpus_hash);
                }
                (Retriever::from_index(index), IndexProvenance::Snapshot)
            }
            Err(err) => {
                let retriever = Retriever::build_tuned(ivf, sq8);
                let mut reason = err.to_string();
                if let Err(save_err) =
                    iostore::save_index(&path, retriever.index(), spec.corpus_hash)
                {
                    reason = format!("{reason}; snapshot save failed: {save_err}");
                }
                (retriever, IndexProvenance::Rebuilt(reason))
            }
        }
    }

    /// Number of indexed chunks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Retrieve top-`self.top_k` sources for a query, then self-reflect
    /// with the given (cheaper) model to drop irrelevant hits. Reflection
    /// calls run in parallel, as in the paper; verdicts are collected in
    /// hit order, so the kept set is identical at any thread count.
    pub fn retrieve(
        &self,
        query: &str,
        reflection_model: &dyn LanguageModel,
    ) -> Vec<GroundedSource> {
        self.retrieve_k(query, reflection_model, self.top_k)
    }

    /// [`Retriever::retrieve`] with an explicit `k`, so a shared, immutable
    /// retriever can serve agents with different `top_k` configurations.
    pub fn retrieve_k(
        &self,
        query: &str,
        reflection_model: &dyn LanguageModel,
        k: usize,
    ) -> Vec<GroundedSource> {
        let hits = self.index.search(query, k);
        // The reflection fan-out gets its own stage: it is most of a
        // fragment's CPU, and `retrieved`/`kept` make the filter's
        // selectivity visible per fragment.
        let reflect_start = std::time::Instant::now();
        let mut span = ioobserve::tracer().span_fine("stage.reflect");
        span.set_attr("retrieved", hits.len());
        let verdicts: Vec<(usize, bool)> = hits
            .par_iter()
            .map(|hit| {
                let entry = self.index.entry(hit.entry_idx);
                let prompt = format!(
                    "### TASK: filter\n## FRAGMENT\n{query}\n## SOURCE\n{}\n",
                    entry.text
                );
                let req = CompletionRequest::new(
                    "Decide whether the source is relevant to the fragment.",
                    prompt,
                );
                let verdict = reflection_model.complete(&req);
                (hit.entry_idx, verdict.text.starts_with("RELEVANT"))
            })
            .collect();

        let mut out: Vec<GroundedSource> = Vec::new();
        for (hit, (entry_idx, relevant)) in hits.iter().zip(verdicts) {
            if !relevant {
                continue;
            }
            let entry = self.index.entry(entry_idx);
            if out.iter().any(|s| s.doc_id.as_str() == &*entry.doc_id) {
                continue; // one citation per document
            }
            let doc = knowledge::get(&entry.doc_id).expect("indexed doc exists");
            out.push(GroundedSource {
                doc_id: entry.doc_id.to_string(),
                citation: entry.citation.to_string(),
                claims: doc.claims.to_vec(),
                score: hit.score,
            });
        }
        span.set_attr("kept", out.len());
        drop(span);
        ioobserve::metrics()
            .histogram("stage.reflect_ns")
            .record_duration(reflect_start.elapsed());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::SimLlm;

    #[test]
    fn index_covers_corpus() {
        let r = Retriever::build();
        assert!(!r.is_empty());
        assert!(r.len() >= 66, "at least one chunk per document");
    }

    #[test]
    fn stripe_query_grounds_stripe_claim() {
        let r = Retriever::build();
        let mini = SimLlm::new("gpt-4o-mini");
        let sources = r.retrieve(
            "the mean stripe width is 1.0 and the job used 1 of 64 available object \
             storage targets, serialising server load on a single OST",
            &mini,
        );
        assert!(!sources.is_empty());
        let claims: Vec<&str> = sources
            .iter()
            .flat_map(|s| s.claims.iter().copied())
            .collect();
        assert!(
            claims.contains(&knowledge::claims::STRIPE_WIDTH_PARALLELISM),
            "claims: {claims:?}"
        );
    }

    #[test]
    fn reflection_prunes_some_hits() {
        let r = Retriever::build();
        let mini = SimLlm::new("gpt-4o-mini");
        let query = "100% of the write operations fall within the 0 B to 100 B range; \
                     the application issues many frequent small write requests";
        let kept = r.retrieve(query, &mini);
        // Top-15 chunks retrieved; reflection plus per-doc dedup must prune.
        assert!(kept.len() < 15, "kept {}", kept.len());
        assert!(!kept.is_empty());
    }

    #[test]
    fn reference_lines_format() {
        let s = GroundedSource {
            doc_id: "k01".into(),
            citation: "[T, V 2021]".into(),
            claims: vec!["stripe_width_parallelism"],
            score: 0.5,
        };
        assert_eq!(
            s.reference_lines(),
            "REFERENCE claim=stripe_width_parallelism cite=[T, V 2021]\n"
        );
    }

    struct TempState(std::path::PathBuf);

    impl TempState {
        fn new(tag: &str) -> (Self, iostore::StateDir) {
            let dir = std::env::temp_dir().join(format!("rag-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let state = iostore::StateDir::new(&dir).unwrap();
            (TempState(dir), state)
        }
    }

    impl Drop for TempState {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn build_or_load_round_trips_through_the_snapshot() {
        let (_guard, state) = TempState::new("round-trip");
        // First call: no snapshot yet — builds fresh and writes one.
        let (first, provenance) = Retriever::build_or_load(&state);
        assert!(
            matches!(provenance, IndexProvenance::Rebuilt(_)),
            "{provenance:?}"
        );
        assert!(state.index_path().is_file(), "rebuild must save a snapshot");
        // Second call: served from the snapshot, bit-identical entries.
        let (second, provenance) = Retriever::build_or_load(&state);
        assert_eq!(provenance, IndexProvenance::Snapshot);
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first
            .index()
            .entries()
            .iter()
            .zip(second.index().entries())
            .enumerate()
        {
            assert_eq!(a.text, b.text);
            let bits_a: Vec<u32> = first
                .index()
                .vector(i)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            let bits_b: Vec<u32> = second
                .index()
                .vector(i)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn stale_snapshot_triggers_rebuild_and_resave() {
        let (_guard, state) = TempState::new("stale");
        let built = Retriever::build();
        // A snapshot recorded against a *different* corpus hash must not be
        // served — this is what a corpus edit between releases looks like.
        iostore::save_index(
            &state.index_path(),
            built.index(),
            knowledge::corpus_hash() ^ 0xdead,
        )
        .unwrap();
        let (_retriever, provenance) = Retriever::build_or_load(&state);
        match provenance {
            IndexProvenance::Rebuilt(reason) => {
                assert!(reason.contains("corpus"), "reason: {reason}")
            }
            other => panic!("expected rebuild, got {other:?}"),
        }
        // The rebuild healed the snapshot in place.
        let (_retriever, provenance) = Retriever::build_or_load(&state);
        assert_eq!(provenance, IndexProvenance::Snapshot);
    }

    /// IVF with `nprobe = clusters` (exact mode) must ground queries
    /// identically to the flat build — same sources, same scores.
    #[test]
    fn exact_ivf_retriever_grounds_identically_to_flat() {
        let flat = Retriever::build();
        let probed = Retriever::build_with(Some(IvfParams {
            clusters: 8,
            nprobe: 8,
        }));
        assert!(probed.index().ivf().is_some());
        let mini = SimLlm::new("gpt-4o-mini");
        for q in [
            "the mean stripe width is 1.0 on a single OST",
            "metadata operations dominate the runtime",
        ] {
            let a: Vec<(String, u32)> = flat
                .retrieve(q, &mini)
                .into_iter()
                .map(|s| (s.doc_id, s.score.to_bits()))
                .collect();
            let b: Vec<(String, u32)> = probed
                .retrieve(q, &mini)
                .into_iter()
                .map(|s| (s.doc_id, s.score.to_bits()))
                .collect();
            assert_eq!(a, b, "q={q:?}");
        }
    }

    /// A flat (v1-style) snapshot served to an IVF-configured daemon is
    /// lazily clustered — still a snapshot load, no re-embedding — and
    /// the clustering is persisted for the next start.
    #[test]
    fn flat_snapshot_is_lazily_clustered_and_resaved() {
        let (_guard, state) = TempState::new("lazy-ivf");
        // Write a flat snapshot, as a pre-IVF deployment would have.
        let (_flat, provenance) = Retriever::build_or_load(&state);
        assert!(matches!(provenance, IndexProvenance::Rebuilt(_)));

        let params = IvfParams::with_default_nprobe(16);
        let (probed, provenance) = Retriever::build_or_load_with(&state, Some(params));
        assert_eq!(provenance, IndexProvenance::Snapshot, "no rebuild");
        let ivf = probed.index().ivf().expect("lazily clustered");
        assert_eq!(ivf.nprobe(), params.nprobe);

        // Next start finds the clustering already in the snapshot…
        let (again, provenance) = Retriever::build_or_load_with(&state, Some(params));
        assert_eq!(provenance, IndexProvenance::Snapshot);
        assert_eq!(
            again.index().ivf().unwrap().assignments(),
            ivf.assignments(),
            "persisted clustering must be reused byte-identically"
        );

        // …while an IVF-off consumer of the same snapshot detaches it.
        let (flat_again, _) = Retriever::build_or_load(&state);
        assert!(flat_again.index().ivf().is_none());
    }

    /// SQ8 with `nprobe = clusters` and a pool covering every probed row
    /// (exact mode) must ground queries identically to the flat build —
    /// same sources, same scores, despite scanning int8 codes first.
    #[test]
    fn exact_sq8_retriever_grounds_identically_to_flat() {
        let flat = Retriever::build();
        let sq8 = Retriever::build_tuned(
            Some(IvfParams {
                clusters: 8,
                nprobe: 8,
            }),
            Some(Sq8Params {
                rerank_pool: flat.len(),
            }),
        );
        assert!(sq8.index().sq8().is_some());
        let mini = SimLlm::new("gpt-4o-mini");
        for q in [
            "the mean stripe width is 1.0 on a single OST",
            "metadata operations dominate the runtime",
        ] {
            let a: Vec<(String, u32)> = flat
                .retrieve(q, &mini)
                .into_iter()
                .map(|s| (s.doc_id, s.score.to_bits()))
                .collect();
            let b: Vec<(String, u32)> = sq8
                .retrieve(q, &mini)
                .into_iter()
                .map(|s| (s.doc_id, s.score.to_bits()))
                .collect();
            assert_eq!(a, b, "q={q:?}");
        }
    }

    /// A clustered-but-codebook-less (v2-style) snapshot served to an
    /// SQ8-configured daemon lazily trains the tier — no re-embedding, no
    /// re-clustering — and persists it as v3 for the next start.
    #[test]
    fn v2_snapshot_lazily_trains_sq8_and_resaves() {
        let (_guard, state) = TempState::new("lazy-sq8");
        let params = IvfParams::with_default_nprobe(16);
        // Write a clustered, codebook-less snapshot, as a pre-SQ8
        // deployment would have.
        let (clustered, _) = Retriever::build_or_load_with(&state, Some(params));
        let assignments = clustered.index().ivf().unwrap().assignments().to_vec();

        let sq8 = Some(Sq8Params { rerank_pool: 64 });
        let (tiered, provenance) = Retriever::build_or_load_tuned(&state, Some(params), sq8);
        assert_eq!(provenance, IndexProvenance::Snapshot, "no rebuild");
        let tier = tiered.index().sq8().expect("lazily trained");
        assert_eq!(tier.rerank_pool(), 64);
        assert_eq!(
            tiered.index().ivf().unwrap().assignments(),
            assignments.as_slice(),
            "training the tier must not re-cluster"
        );

        // Next start loads the codebook from the v3 snapshot bit-for-bit.
        let (again, provenance) = Retriever::build_or_load_tuned(&state, Some(params), sq8);
        assert_eq!(provenance, IndexProvenance::Snapshot);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|f| f.to_bits()).collect() };
        let loaded = again.index().sq8().unwrap();
        assert_eq!(bits(loaded.min()), bits(tier.min()));
        assert_eq!(bits(loaded.scale()), bits(tier.scale()));

        // …while an SQ8-off consumer of the same snapshot detaches the
        // tier but keeps the clustering.
        let (plain, _) = Retriever::build_or_load_with(&state, Some(params));
        assert!(plain.index().sq8().is_none());
        assert!(plain.index().ivf().is_some());
    }

    #[test]
    fn default_nprobe_is_an_eighth_of_clusters() {
        assert_eq!(IvfParams::with_default_nprobe(64).nprobe, 8);
        assert_eq!(IvfParams::with_default_nprobe(4).nprobe, 1);
    }

    #[test]
    fn retrieval_is_deterministic() {
        let r = Retriever::build();
        let mini = SimLlm::new("gpt-4o-mini");
        let q = "metadata operations dominate the runtime with many opens and stats";
        let a: Vec<String> = r.retrieve(q, &mini).into_iter().map(|s| s.doc_id).collect();
        let b: Vec<String> = r.retrieve(q, &mini).into_iter().map(|s| s.doc_id).collect();
        assert_eq!(a, b);
    }
}
