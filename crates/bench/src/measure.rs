//! The one harness behind every `benches/*.rs` target: an interleaved
//! sampler, one quantile, the shared result helpers, one JSON writer that
//! records where a run happened, and one gate reporter.
//!
//! `--test` (what `cargo test` passes to harness-less bench targets) runs
//! one round per arm and skips both the JSON write and the gate;
//! `BENCH_GATE=1` turns the gate on for a full run.

use serde_json::Value;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vecindex::SearchHit;

/// Whether this is a `--test` smoke run.
pub fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// `full` rounds, or one in a `--test` smoke run.
pub fn rounds(full: usize) -> usize {
    if test_mode() {
        1
    } else {
        full
    }
}

/// One arm's wall-clock samples in seconds, in round order, so paired
/// estimators can compare round `r` of two arms.
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// The upper median, in seconds.
    pub fn median(&self) -> f64 {
        quantile(&self.0, 0.5)
    }

    /// The fastest sample, in seconds.
    pub fn min(&self) -> f64 {
        quantile(&self.0, 0.0)
    }

    /// Print `bench <label>: median … ms (min … ms)`.
    pub fn report(&self, label: &str) {
        println!(
            "bench {label}: median {:.3} ms (min {:.3} ms)",
            self.median() * 1e3,
            self.min() * 1e3
        );
    }
}

/// Time `N` arms interleaved: one untimed warm-up call per arm, then
/// `rounds` rounds that each run every arm once, round `r` starting at arm
/// `r mod N`. A burst of host noise then lands on all arms alike instead
/// of on whichever ran during it. One arm is the `N = 1` case.
pub fn interleave<const N: usize>(rounds: usize, mut arms: [&mut dyn FnMut(); N]) -> [Samples; N] {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut secs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    for round in 0..rounds.max(1) {
        for k in 0..N {
            let arm = (round + k) % N;
            let start = Instant::now();
            arms[arm]();
            secs[arm].push(start.elapsed().as_secs_f64());
        }
    }
    secs.map(Samples)
}

/// [`interleave`] with one arm, passing its result through `black_box`.
pub fn time<R>(rounds: usize, mut f: impl FnMut() -> R) -> Samples {
    let [samples] = interleave(
        rounds,
        [&mut || {
            black_box(f());
        }],
    );
    samples
}

/// The `q`-quantile by nearest rank: index `round((n - 1)·q)` of the
/// sorted values, ordered by `f64::total_cmp` so a NaN sorts last instead
/// of panicking. At `q = 0.5` that index is `n / 2` for every `n ≥ 1`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Run `f` inside a fresh shim pool `width` threads wide.
pub fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("build shim pool")
        .install(f)
}

/// Hits as (score bits, entry) pairs, for byte-identity assertions.
pub fn bits(hits: &[SearchHit]) -> Vec<(u32, usize)> {
    hits.iter()
        .map(|h| (h.score.to_bits(), h.entry_idx))
        .collect()
}

/// Mean recall@k of `approx` against the exact per-query top-k sets; a
/// query with no exact hits counts as fully recalled.
pub fn recall_at_k(exact: &[Vec<SearchHit>], approx: &[Vec<SearchHit>]) -> f64 {
    assert_eq!(exact.len(), approx.len());
    let total: f64 = exact
        .iter()
        .zip(approx)
        .map(|(e, a)| {
            let found = e
                .iter()
                .filter(|h| a.iter().any(|x| x.entry_idx == h.entry_idx))
                .count();
            if e.is_empty() {
                1.0
            } else {
                found as f64 / e.len() as f64
            }
        })
        .sum();
    total / exact.len().max(1) as f64
}

/// A bench's result file at the repository root, with the committed
/// baseline read before the run overwrites it.
pub struct Bench {
    path: PathBuf,
    baseline: Option<Value>,
}

impl Bench {
    /// The file `name` at the repository root.
    pub fn open(name: &str) -> Bench {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        let baseline = std::fs::read_to_string(&path)
            .ok()
            .and_then(|raw| serde_json::from_str(&raw).ok());
        Bench { path, baseline }
    }

    /// A number in the committed baseline, by `/`-separated field path
    /// (`"faults_on/p999_ms"`).
    pub fn baseline(&self, path: &str) -> Option<f64> {
        path.split('/')
            .try_fold(self.baseline.as_ref()?, |v, key| v.get(key))?
            .as_f64()
    }

    /// Stamp `record` with `generated_unix` and the host's provenance and
    /// write it. A `--test` run writes nothing. Returns the gate when the
    /// record was written and `BENCH_GATE` is set.
    pub fn write(&self, mut record: Value) -> Option<Gate> {
        let name = self.path.file_name().unwrap_or_default().to_string_lossy();
        if test_mode() {
            println!("bench {name}: ok (test mode, JSON/gate skipped)");
            return None;
        }
        let generated_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let fields = record.as_object_mut().expect("a bench record is an object");
        fields.insert("generated_unix".into(), serde_json::json!(generated_unix));
        fields.insert("provenance".into(), provenance());
        let text = serde_json::to_string(&record).expect("serialize bench record");
        std::fs::write(&self.path, format!("{text}\n")).expect("write bench record");
        println!("wrote {}", self.path.display());
        std::env::var("BENCH_GATE").is_ok().then(Gate::default)
    }
}

/// Where a run happened. A value that cannot be read is `"unknown"`; no
/// gate reads these fields.
fn provenance() -> Value {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|text| text.trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let nproc = std::thread::available_parallelism();
    let known = |v: Option<String>| v.unwrap_or_else(|| "unknown".into());
    serde_json::json!({
        "git_sha": known(output("git", &["rev-parse", "HEAD"])),
        "nproc": nproc.map_or(serde_json::json!("unknown"), |n| serde_json::json!(n.get())),
        "cpu": known(cpu),
        "rustc": known(output("rustc", &["-V"])),
        "avx2": cfg!(target_feature = "avx2"),
        "avx512f": cfg!(target_feature = "avx512f"),
    })
}

/// What the two-signal check concluded.
#[derive(Debug, PartialEq)]
pub(crate) enum Verdict {
    /// Within 2× of the committed baseline.
    Pass,
    /// Over 2× of the baseline, but the same-run ratio held: the host is
    /// slower, the code is not.
    SlowMachine,
    /// Over 2× of the baseline and the same-run ratio collapsed.
    Regressed,
    /// No committed baseline (or ratio floor) to compare with.
    NoBaseline,
}

/// The two-signal rule. A run regressed only when `measured` is more than
/// 2× the committed `baseline` AND the same-run `ratio` fell below
/// `ratio_floor`. The ratio is machine-independent, so a slower host that
/// inflates every arm alike cannot fail the gate, while a 2× slowdown of
/// one arm also halves its ratio and trips both signals.
pub(crate) fn two_signal(
    measured: f64,
    baseline: Option<f64>,
    ratio: f64,
    ratio_floor: Option<f64>,
) -> Verdict {
    let (Some(base), Some(floor)) = (baseline, ratio_floor) else {
        return Verdict::NoBaseline;
    };
    match (measured > 2.0 * base, ratio < floor) {
        (false, _) => Verdict::Pass,
        (true, false) => Verdict::SlowMachine,
        (true, true) => Verdict::Regressed,
    }
}

/// The same-run ratio floor: half the committed baseline's ratio, or
/// `fallback` when the baseline records none.
pub fn ratio_floor(baseline_ratio: Option<f64>, fallback: Option<f64>) -> Option<f64> {
    baseline_ratio.map(|r| r / 2.0).or(fallback)
}

/// Whether a tracing overhead fits the service budget: under 3% of the
/// untraced batch, or under a 5 ms absolute delta, which keeps a sub-noise
/// delta on a very fast batch from failing.
pub fn overhead_ok(pct: f64, delta: Duration) -> bool {
    pct < 0.03 || delta < Duration::from_millis(5)
}

/// Collects a gated run's checks, printing each with its value and
/// verdict; [`Gate::finish`] exits 1 if any failed.
#[derive(Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// A check that passes when `ok`; `what` names it and its value.
    pub fn check(&mut self, ok: bool, what: String) {
        if ok {
            println!("gate: OK {what}");
        } else {
            eprintln!("REGRESSION: {what}");
            self.failures.push(what);
        }
    }

    /// A machine-independent value that must reach `floor`.
    pub fn at_least(&mut self, what: &str, value: f64, floor: f64) {
        self.check(value >= floor, format!("{what} {value:.4} (floor {floor})"));
    }

    /// The two-signal check of `measured` against the committed
    /// `baseline`: it fails only when `measured` is over 2× the baseline
    /// AND the same-run `ratio` is below `ratio_floor`. Over 2× alone
    /// passes with a "slow machine" note; no baseline skips the check.
    pub fn two_signal(
        &mut self,
        what: &str,
        measured: f64,
        baseline: Option<f64>,
        ratio: f64,
        ratio_floor: Option<f64>,
    ) {
        let verdict = two_signal(measured, baseline, ratio, ratio_floor);
        let (Some(base), Some(floor)) = (baseline, ratio_floor) else {
            println!("gate: no committed baseline for {what}; skipping");
            return;
        };
        let line = format!(
            "{what} {measured:.3} vs committed baseline {base:.3} (2× bound), same-run ratio \
             {ratio:.2}x (floor {floor:.2}x)"
        );
        match verdict {
            Verdict::SlowMachine => println!("gate: OK {line}: slow machine, not a regression"),
            verdict => self.check(verdict == Verdict::Pass, line),
        }
    }

    /// Exit 1 if any check failed.
    pub fn finish(self) {
        if !self.failures.is_empty() {
            eprintln!("gate: {} check(s) failed", self.failures.len());
            std::process::exit(1);
        }
        println!("gate: all checks passed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(entry_idx: usize) -> SearchHit {
        SearchHit {
            entry_idx,
            score: 0.5,
        }
    }

    #[test]
    fn median_index_equals_the_upper_median_for_every_length() {
        for n in 1..=64usize {
            let values: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            assert_eq!(quantile(&values, 0.5), (n / 2) as f64, "n = {n}");
            assert_eq!(quantile(&values, 0.0), 0.0);
            assert_eq!(quantile(&values, 1.0), (n - 1) as f64);
        }
    }

    #[test]
    fn quantile_sorts_nan_last_instead_of_panicking() {
        let values = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert!(quantile(&values, 1.0).is_nan());
    }

    #[test]
    fn interleave_rotates_the_first_arm_after_one_warm_up_each() {
        let order = std::cell::RefCell::new(Vec::new());
        let [a, b, c] = interleave(
            3,
            [
                &mut || order.borrow_mut().push('a'),
                &mut || order.borrow_mut().push('b'),
                &mut || order.borrow_mut().push('c'),
            ],
        );
        assert_eq!(
            order.into_inner().iter().collect::<String>(),
            "abcabcbcacab"
        );
        assert!([a, b, c].iter().all(|s| s.0.len() == 3));
    }

    #[test]
    fn recall_counts_shared_entries_per_query() {
        let exact = vec![vec![hit(1), hit(2)], vec![], vec![hit(3), hit(4)]];
        let approx = vec![vec![hit(2), hit(9)], vec![hit(5)], vec![hit(4), hit(3)]];
        assert_eq!(recall_at_k(&exact, &approx), (0.5 + 1.0 + 1.0) / 3.0);
        assert_eq!(recall_at_k(&[], &[]), 0.0);
    }

    #[test]
    fn two_signal_verdicts() {
        use Verdict::*;
        // (measured, baseline, ratio, ratio floor) -> verdict
        let table = [
            (100.0, Some(40.0), 1.0, Some(2.0), Regressed),
            (100.0, Some(40.0), 3.0, Some(2.0), SlowMachine),
            (80.0, Some(40.0), 1.0, Some(2.0), Pass),
            (100.0, None, 1.0, Some(2.0), NoBaseline),
            (100.0, Some(40.0), 1.0, None, NoBaseline),
        ];
        for (measured, baseline, ratio, floor, verdict) in table {
            assert_eq!(two_signal(measured, baseline, ratio, floor), verdict);
            let mut gate = Gate::default();
            gate.two_signal("x", measured, baseline, ratio, floor);
            assert_eq!(gate.failures.len(), usize::from(verdict == Regressed));
        }
    }

    #[test]
    fn ratio_floor_halves_the_baseline_or_falls_back() {
        assert_eq!(ratio_floor(Some(8.0), Some(3.0)), Some(4.0));
        assert_eq!(ratio_floor(Some(8.0), None), Some(4.0));
        assert_eq!(ratio_floor(None, None), None);
        // Retrieval's fallback: a baseline without a recorded speedup
        // still fails a 2.9x run that is over 2× slower, not a 3.1x one.
        let floor = ratio_floor(None, Some(3.0));
        assert_eq!(floor, Some(3.0));
        assert_eq!(
            two_signal(900.0, Some(400.0), 2.9, floor),
            Verdict::Regressed
        );
        assert_eq!(
            two_signal(900.0, Some(400.0), 3.1, floor),
            Verdict::SlowMachine
        );
    }

    #[test]
    fn tracing_overhead_passes_under_3_percent_or_under_5_ms() {
        let ms = Duration::from_millis;
        assert!(overhead_ok(0.029, ms(50)));
        assert!(overhead_ok(0.50, ms(4)));
        assert!(!overhead_ok(0.03, ms(5)));
        assert!(!overhead_ok(0.10, ms(12)));
    }

    #[test]
    fn at_least_fails_below_the_floor_only() {
        let mut gate = Gate::default();
        gate.at_least("recall", 0.95, 0.95);
        gate.at_least("speedup", 3.0, 2.0);
        assert!(gate.failures.is_empty());
        gate.at_least("recall", 0.949, 0.95);
        assert_eq!(gate.failures.len(), 1);
    }
}
