//! Append-only NDJSON journal of completed diagnoses.
//!
//! One record per line:
//!
//! ```json
//! {"v": 1, "trace": "0x9f2c…", "model": "gpt-4o",
//!  "config": "AgentConfig { … }", "tool": "ioagent-gpt-4o",
//!  "text": "…full report…", "issues": ["small_write"],
//!  "references": ["[…]"]}
//! ```
//!
//! The journal is the fleet-lifetime result map: every distinct
//! `(trace fingerprint, model, config)` key ever diagnosed, with the last
//! record for a key winning. Records are appended (and flushed) as jobs
//! complete. Memory holds only an index — key fingerprint → the record's
//! byte range in the file, a few dozen bytes a key instead of the ~3 KB
//! record — and [`ResultStore::get`] reads a record back through its own
//! read handle, checking the full key it parsed against the one asked
//! for. Robustness rules:
//!
//! - A **torn final line** (crash mid-append) is skipped, not fatal.
//! - A corrupt or unknown-version line anywhere is skipped and counted.
//! - If any line was skipped — or the file does not end in a newline — the
//!   journal is compacted on open, so damage never accumulates and a torn
//!   tail can never swallow the next appended record.
//! - Appends of a key already stored with the same diagnosis are no-ops,
//!   and compaction rewrites one record per live key whenever the file
//!   grows past twice the live-entry count, rebuilding the index.
//!
//! Two keys whose 64-bit fingerprints collide share one index slot: the
//! later record shadows the earlier, whose lookups then miss (the key
//! check fails) and are recomputed. A collision can cost a cache hit,
//! never serve the wrong result.

use crate::{fnv1a, FNV_OFFSET};
use serde_json::{json, Value};
use simllm::Diagnosis;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tracebench::IssueLabel;

/// Journal record format version.
pub const JOURNAL_FORMAT_VERSION: i64 = 1;

/// Compaction is considered once the file holds this many raw records.
const COMPACT_MIN_RECORDS: usize = 64;

/// Key of one persisted result: the same triple the in-memory LRU uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Stable FNV-1a hash of the canonical trace text.
    pub trace_hash: u64,
    /// Backbone model profile name.
    pub model: String,
    /// Full agent configuration rendered as a stable string.
    pub config: String,
}

impl ResultKey {
    /// Hash of the key itself: the journal index key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.trace_hash.to_le_bytes());
        fnv1a(&mut h, self.model.as_bytes());
        fnv1a(&mut h, self.config.as_bytes());
        h
    }
}

/// Where one record's line sits in the journal file (newline excluded).
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    len: usize,
}

/// Disk-backed map of completed diagnoses.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    writer: BufWriter<File>,
    reader: File,
    /// Key fingerprint → the live record for that key.
    index: HashMap<u64, Slot>,
    /// File length: where the next record goes.
    end: u64,
    /// The one record most recently read or written — always the live
    /// record of its key — so [`ResultStore::get`] can hand out a
    /// reference.
    last: Option<(ResultKey, Diagnosis)>,
    /// Raw records currently in the file (≥ `index.len()` until compaction).
    file_records: usize,
    /// Lines skipped while loading (torn tail and/or corrupt records).
    skipped_lines: usize,
}

impl ResultStore {
    /// Open a journal, indexing every intact record. Creates the file if
    /// missing. A torn final line or corrupt interior lines are skipped and
    /// healed by an immediate compaction; they never refuse the open.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        let mut reader = File::open(&path)?;

        // Stream lines as *bytes*, not Strings: a torn tail can split a
        // multi-byte UTF-8 character (diagnosis text is not ASCII-only),
        // and that must skip one line, not fail the open.
        let mut index = HashMap::new();
        let mut file_records = 0usize;
        let mut skipped_lines = 0usize;
        let mut end = 0u64;
        let mut ends_in_newline = true;
        let mut lines = BufReader::new(&mut reader);
        let mut line = Vec::new();
        loop {
            line.clear();
            let read = lines.read_until(b'\n', &mut line)?;
            if read == 0 {
                break;
            }
            let offset = end;
            end += read as u64;
            ends_in_newline = line.last() == Some(&b'\n');
            if ends_in_newline {
                line.pop();
            }
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            match std::str::from_utf8(&line).ok().and_then(parse_record) {
                Some((key, _)) => {
                    let len = line.len();
                    index.insert(key.fingerprint(), Slot { offset, len });
                    file_records += 1;
                }
                None => skipped_lines += 1,
            }
        }
        drop(lines);

        let mut store = ResultStore {
            path,
            writer,
            reader,
            index,
            end,
            last: None,
            file_records,
            skipped_lines,
        };
        // Heal damage at open time: skipped lines mean the file holds
        // garbage, and a missing trailing newline means the next append
        // would glue itself onto the torn record.
        if store.skipped_lines > 0 || !ends_in_newline {
            store.compact()?;
        }
        Ok(store)
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Raw records in the journal file (drops back to [`ResultStore::len`]
    /// after compaction).
    pub fn file_records(&self) -> usize {
        self.file_records
    }

    /// Lines skipped while loading the journal (torn tail / corruption).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Current size of the journal file in bytes.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Look up a persisted diagnosis, reading its record back from disk.
    /// The reference points into a one-record buffer, valid until the
    /// next call that takes `&mut self`. A record that no longer parses,
    /// or whose key differs from `key` (a fingerprint collision), is a
    /// miss.
    pub fn get(&mut self, key: &ResultKey) -> Option<&Diagnosis> {
        let slot = *self.index.get(&key.fingerprint())?;
        if !matches!(&self.last, Some((k, _)) if k == key) {
            let (found, diagnosis) = self.read_record(slot).ok()??;
            if found != *key {
                return None;
            }
            self.last = Some((found, diagnosis));
        }
        self.last.as_ref().map(|(_, d)| d)
    }

    /// Persist one result: append a record and flush. Re-inserting a key
    /// with an unchanged diagnosis is a no-op; a changed diagnosis appends
    /// a superseding record (last record for a key wins on replay). The
    /// journal self-compacts once duplicates outnumber live entries.
    pub fn insert(&mut self, key: ResultKey, diagnosis: Diagnosis) -> io::Result<()> {
        if self.get(&key) == Some(&diagnosis) {
            return Ok(());
        }
        let append_start = std::time::Instant::now();
        let _span = ioobserve::tracer().span("journal.append");
        let _timer = AppendTimer {
            start: append_start,
        };
        let line = render_record(&key, &diagnosis);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let slot = Slot {
            offset: self.end,
            len: line.len(),
        };
        self.end += line.len() as u64 + 1;
        self.index.insert(key.fingerprint(), slot);
        self.last = Some((key, diagnosis));
        self.file_records += 1;
        if self.file_records >= COMPACT_MIN_RECORDS && self.file_records > 2 * self.index.len() {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrite the journal with exactly one record per live key, copying
    /// each live record's bytes and rebuilding the index over the new
    /// file. Writes a temp file and renames it over the journal, so a
    /// crash mid-compaction leaves the old journal intact.
    pub fn compact(&mut self) -> io::Result<()> {
        let compact_start = std::time::Instant::now();
        let mut span = ioobserve::tracer().span("journal.compact");
        span.set_attr("live_entries", self.index.len());
        ioobserve::metrics().counter("journal.compactions").inc();
        // Deterministic record order keeps compacted journals diffable.
        let mut live: Vec<(u64, Slot)> = self.index.iter().map(|(&fp, &s)| (fp, s)).collect();
        live.sort_unstable_by_key(|&(fp, _)| fp);
        let tmp = self.path.with_extension("ndjson.tmp");
        let mut index = HashMap::with_capacity(live.len());
        let mut end = 0u64;
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            let mut line = Vec::new();
            for (fp, slot) in live {
                self.read_line(slot, &mut line)?;
                w.write_all(&line)?;
                w.write_all(b"\n")?;
                index.insert(
                    fp,
                    Slot {
                        offset: end,
                        len: slot.len,
                    },
                );
                end += slot.len as u64 + 1;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.reader = File::open(&self.path)?;
        self.index = index;
        self.end = end;
        self.file_records = self.index.len();
        self.skipped_lines = 0;
        ioobserve::metrics()
            .histogram("journal.compact_ns")
            .record_duration(compact_start.elapsed());
        Ok(())
    }

    /// The raw bytes of the record at `slot`.
    fn read_line(&mut self, slot: Slot, line: &mut Vec<u8>) -> io::Result<()> {
        line.resize(slot.len, 0);
        self.reader.seek(SeekFrom::Start(slot.offset))?;
        self.reader.read_exact(line)
    }

    /// The record at `slot`, parsed (`None` if it no longer parses).
    fn read_record(&mut self, slot: Slot) -> io::Result<Option<(ResultKey, Diagnosis)>> {
        let mut line = Vec::new();
        self.read_line(slot, &mut line)?;
        Ok(std::str::from_utf8(&line).ok().and_then(parse_record))
    }
}

/// Records the append-latency histogram on every exit path of
/// [`ResultJournal::insert`] (including `?` early returns).
struct AppendTimer {
    start: std::time::Instant,
}

impl Drop for AppendTimer {
    fn drop(&mut self) {
        let m = ioobserve::metrics();
        m.counter("journal.appends").inc();
        m.histogram("journal.append_ns")
            .record_duration(self.start.elapsed());
    }
}

fn render_record(key: &ResultKey, diagnosis: &Diagnosis) -> String {
    let issues: Vec<Value> = diagnosis.issues.iter().map(|i| json!(i.key())).collect();
    let record = json!({
        "v": JOURNAL_FORMAT_VERSION,
        "trace": format!("0x{:016x}", key.trace_hash),
        "model": key.model,
        "config": key.config,
        "tool": diagnosis.tool,
        "text": diagnosis.text,
        "issues": issues,
        "references": diagnosis.references,
    });
    serde_json::to_string(&record).expect("serialize journal record")
}

fn parse_record(line: &str) -> Option<(ResultKey, Diagnosis)> {
    let value: Value = serde_json::from_str(line).ok()?;
    if value.get("v").and_then(Value::as_i64) != Some(JOURNAL_FORMAT_VERSION) {
        return None;
    }
    let trace = value.get("trace").and_then(Value::as_str)?;
    let trace_hash = u64::from_str_radix(trace.strip_prefix("0x")?, 16).ok()?;
    let model = value.get("model").and_then(Value::as_str)?.to_string();
    let config = value.get("config").and_then(Value::as_str)?.to_string();
    let tool = value.get("tool").and_then(Value::as_str)?.to_string();
    let text = value.get("text").and_then(Value::as_str)?.to_string();
    let issues = match value.get("issues")? {
        Value::Array(items) => items
            .iter()
            .map(|i| i.as_str().and_then(|s| s.parse::<IssueLabel>().ok()))
            .collect::<Option<Vec<IssueLabel>>>()?,
        _ => return None,
    };
    let references = match value.get("references")? {
        Value::Array(items) => items
            .iter()
            .map(|r| r.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()?,
        _ => return None,
    };
    Some((
        ResultKey {
            trace_hash,
            model,
            config,
        },
        Diagnosis {
            tool,
            text,
            issues,
            references,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn sample(n: u64) -> (ResultKey, Diagnosis) {
        (
            ResultKey {
                trace_hash: 0x1000 + n,
                model: "gpt-4o".into(),
                config: "AgentConfig { top_k: 15 }".into(),
            },
            Diagnosis {
                tool: "ioagent-gpt-4o".into(),
                text: format!("report {n}\nwith \"quotes\" and unicode — ✓"),
                issues: vec![IssueLabel::SmallWrite, IssueLabel::MisalignedWrite],
                references: vec!["[Striping, SC 2021]".into()],
            },
        )
    }

    #[test]
    fn round_trips_across_reopen() {
        let tmp = TempDir::new("journal-rt");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            for n in 0..5 {
                let (k, d) = sample(n);
                store.insert(k, d).unwrap();
            }
        }
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(store.skipped_lines(), 0);
        let (k, d) = sample(3);
        assert_eq!(store.get(&k), Some(&d));
    }

    #[test]
    fn duplicate_insert_is_a_noop_and_update_supersedes() {
        let tmp = TempDir::new("journal-dup");
        let path = tmp.0.join("results.ndjson");
        let mut store = ResultStore::open(&path).unwrap();
        let (k, d) = sample(1);
        store.insert(k.clone(), d.clone()).unwrap();
        store.insert(k.clone(), d.clone()).unwrap();
        assert_eq!(
            store.file_records(),
            1,
            "identical re-insert must not append"
        );
        let mut d2 = d.clone();
        d2.text.push_str("\nrevised");
        store.insert(k.clone(), d2.clone()).unwrap();
        assert_eq!(store.file_records(), 2);
        drop(store);
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get(&k).unwrap().text, d2.text, "last record wins");
    }

    #[test]
    fn torn_final_line_is_skipped_and_healed() {
        let tmp = TempDir::new("journal-torn");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            for n in 0..3 {
                let (k, d) = sample(n);
                store.insert(k, d).unwrap();
            }
        }
        // Simulate a crash mid-append: truncate the file inside the last
        // record.
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 25]).unwrap();

        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "intact records survive");
        // The open healed the file: a reopen sees a clean journal.
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!((store.len(), store.skipped_lines()), (2, 0));
        assert_eq!(store.file_records(), 2);
    }

    #[test]
    fn torn_tail_splitting_a_utf8_character_is_not_fatal() {
        let tmp = TempDir::new("journal-torn-utf8");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            let (k, d) = sample(0);
            store.insert(k, d).unwrap();
            let (k, d) = sample(1); // sample text ends "— ✓" (multi-byte)
            store.insert(k, d).unwrap();
        }
        // Truncate one byte into the last "✓" (e2 9c 93), so the file is
        // no longer valid UTF-8 as a whole.
        let raw = std::fs::read(&path).unwrap();
        let check = [0xe2u8, 0x9c, 0x93];
        let cut = (0..raw.len() - 2)
            .rev()
            .find(|&i| raw[i..i + 3] == check)
            .expect("sample text contains a ✓")
            + 1;
        assert!(
            std::str::from_utf8(&raw[..cut]).is_err(),
            "cut must split a char"
        );
        std::fs::write(&path, &raw[..cut]).unwrap();

        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "the intact record must survive");
        let (k, d) = sample(0);
        assert_eq!(store.get(&k), Some(&d));
        // Healed: reopen sees a clean single-record journal.
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!((store.len(), store.skipped_lines()), (1, 0));
    }

    #[test]
    fn corrupt_interior_line_is_skipped_not_fatal() {
        let tmp = TempDir::new("journal-mid");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            let (k, d) = sample(0);
            store.insert(k, d).unwrap();
            let (k, d) = sample(1);
            store.insert(k, d).unwrap();
        }
        let raw = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = raw.lines().collect();
        lines.insert(1, "{this is not json");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        let (k, d) = sample(0);
        assert_eq!(store.get(&k), Some(&d));
    }

    #[test]
    fn unknown_version_records_are_ignored() {
        let tmp = TempDir::new("journal-ver");
        let path = tmp.0.join("results.ndjson");
        std::fs::write(&path, "{\"v\": 99, \"trace\": \"0x1\"}\n").unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn compaction_collapses_superseded_records() {
        let tmp = TempDir::new("journal-compact");
        let path = tmp.0.join("results.ndjson");
        let mut store = ResultStore::open(&path).unwrap();
        let (k, d) = sample(0);
        // Supersede the same key many times; each revision appends.
        for rev in 0..COMPACT_MIN_RECORDS + 4 {
            let mut d = d.clone();
            d.text = format!("rev {rev}");
            store.insert(k.clone(), d).unwrap();
        }
        // 68 superseding appends, but auto-compaction keeps the file
        // bounded: it can never exceed the compaction threshold.
        assert!(
            store.file_records() <= COMPACT_MIN_RECORDS,
            "auto-compaction must bound journal growth, file has {} records",
            store.file_records()
        );
        assert!(
            store.file_records() < COMPACT_MIN_RECORDS + 4,
            "compaction must actually have run"
        );
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(&k).unwrap().text,
            format!("rev {}", COMPACT_MIN_RECORDS + 3)
        );
    }

    #[test]
    fn index_holds_offsets_and_survives_compaction() {
        let tmp = TempDir::new("journal-index");
        let path = tmp.0.join("results.ndjson");
        let mut store = ResultStore::open(&path).unwrap();
        for n in 0..5 {
            let (k, d) = sample(n);
            store.insert(k, d).unwrap();
        }
        let mut d1 = sample(1).1;
        d1.text = "superseded".into();
        store.insert(sample(1).0, d1.clone()).unwrap();
        assert_eq!(store.file_records(), 6);
        store.compact().unwrap();
        assert_eq!((store.len(), store.file_records()), (5, 5));
        // Every key reads back through the rebuilt index, in any order,
        // and appends after compaction land where the index says.
        for n in [4, 0, 3, 2] {
            let (k, d) = sample(n);
            assert_eq!(store.get(&k), Some(&d), "key {n}");
        }
        assert_eq!(store.get(&sample(1).0), Some(&d1), "last record wins");
        let (k, d) = sample(9);
        store.insert(k.clone(), d.clone()).unwrap();
        assert_eq!(store.get(&sample(0).0), Some(&sample(0).1));
        assert_eq!(store.get(&k), Some(&d));
        drop(store);
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!((store.len(), store.skipped_lines()), (6, 0));
        assert_eq!(store.get(&k), Some(&d));
    }

    #[test]
    fn lookup_verifies_the_full_key() {
        let tmp = TempDir::new("journal-collide");
        let path = tmp.0.join("results.ndjson");
        let mut store = ResultStore::open(&path).unwrap();
        let (a, da) = sample(0);
        let (b, _) = sample(1);
        store.insert(a.clone(), da.clone()).unwrap();
        // Force a fingerprint collision: b's index slot points at a's
        // record. The read-back key differs, so b misses.
        let slot = store.index[&a.fingerprint()];
        store.index.insert(b.fingerprint(), slot);
        assert_eq!(store.get(&b), None);
        assert_eq!(store.get(&a), Some(&da));
    }

    #[test]
    fn result_key_fingerprint_is_stable_and_distinct() {
        let (a, _) = sample(0);
        let (b, _) = sample(1);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
