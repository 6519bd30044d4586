#![warn(missing_docs)]
//! Persistent state layer for the diagnosis pipeline.
//!
//! The pipeline (preprocess → RAG per-fragment diagnosis → tree merge) is
//! deterministic end-to-end, which makes both of its expensive artifacts
//! perfectly cacheable across process lifetimes:
//!
//! - **Diagnosis results** ([`ResultStore`]): an append-only NDJSON journal
//!   of `(trace fingerprint × model × config) → Diagnosis` records.
//!   Indexed on start (records stay on disk; memory holds byte offsets),
//!   read through by the in-memory LRU, compacted when duplicate records
//!   accumulate, and tolerant of a torn final line (a crash mid append
//!   skips the partial record instead of refusing to start).
//! - **The knowledge index** ([`snapshot`]): a versioned snapshot of the
//!   `VectorIndex` built over the 66-document expert corpus. The header
//!   carries a format version, the embedder configuration, the chunking
//!   hyper-parameters, and a corpus content hash, so a stale or mismatched
//!   snapshot is detected and rebuilt rather than silently served.
//!
//! Everything is plain newline-delimited JSON so state directories can be
//! inspected (and repaired) with standard text tools. Floating-point data
//! — embedding vectors — is stored as bit-exact hex, never decimal text,
//! so a snapshot-loaded index retrieves (and therefore diagnoses)
//! byte-identically to a freshly built one.

pub mod journal;
pub mod snapshot;

pub use journal::{ResultKey, ResultStore};
pub use snapshot::{load_index, save_index, IndexSpec, SnapshotError, SNAPSHOT_FORMAT_VERSION};

use std::io;
use std::path::{Path, PathBuf};

/// File name of the result journal inside a state directory.
pub const RESULTS_FILE: &str = "results.ndjson";
/// File name of the knowledge-index snapshot inside a state directory.
pub const INDEX_FILE: &str = "index.snap";

/// A daemon state directory: one directory holding the result journal and
/// the knowledge-index snapshot.
///
/// Layout:
///
/// ```text
/// <state-dir>/
///   results.ndjson   append-only (trace × model × config) → diagnosis journal
///   index.snap       versioned VectorIndex snapshot (header + entry lines)
/// ```
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Open (creating if necessary) a state directory.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(StateDir { root })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the knowledge-index snapshot.
    pub fn index_path(&self) -> PathBuf {
        self.root.join(INDEX_FILE)
    }

    /// Path of the result journal.
    pub fn results_path(&self) -> PathBuf {
        self.root.join(RESULTS_FILE)
    }

    /// Open the result journal, indexing every intact record.
    pub fn open_results(&self) -> io::Result<ResultStore> {
        ResultStore::open(self.results_path())
    }
}

/// Stable FNV-1a over a byte stream, shared by the journal and snapshot
/// fingerprints (matches `simllm::rng::stable_hash` for `&str` input).
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, self-cleaning temp directory (no tempfile crate offline).
    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("iostore-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_dir_paths_and_creation() {
        let tmp = testutil::TempDir::new("statedir");
        let nested = tmp.0.join("a/b");
        let state = StateDir::new(&nested).unwrap();
        assert!(nested.is_dir());
        assert_eq!(state.index_path(), nested.join(INDEX_FILE));
        assert_eq!(state.results_path(), nested.join(RESULTS_FILE));
        assert!(state.open_results().unwrap().is_empty());
    }

    #[test]
    fn fnv_matches_simllm_stable_hash() {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, b"collective buffering");
        assert_eq!(h, simllm::rng::stable_hash("collective buffering"));
    }
}
