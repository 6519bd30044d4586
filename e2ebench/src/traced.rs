//! Traced in-process replay: the per-layer budget of a request.
//!
//! The replay makes the calls the daemon makes for each request — parse
//! the line, re-write the trace canonically for the cache key, look the key
//! up in an LRU over an `iostore` journal, diagnose on a miss, append to
//! the journal, render the reply — with a span around each call. The
//! backbone model is wrapped so its completions become child spans of
//! `ioagent-core.diagnose`, sorted by their `### TASK:` header. The
//! reflection model inside `IoAgent` cannot be wrapped, so on every miss
//! the pre-processor and, per fragment, the query embedding, the index
//! search and `Retriever::retrieve_k` (with a wrapped reflection model) are
//! timed again on the same inputs, under a separate `probe` root that does
//! not count towards the request's total.

use crate::gate::Reference;
use crate::gen::{Input, Kind, Workload};
use crate::spans::{self, Recorder, SpanRecord};
use crate::stats::median;
use crate::Metric;
use ioagent_core::{AgentConfig, IoAgent, Retriever};
use ioagentd::protocol::{self, Request};
use ioagentd::{JobMetrics, JobResult, LruCache};
use iostore::{ResultKey, StateDir};
use simllm::{Completion, CompletionRequest, Diagnosis, LanguageModel, ModelProfile, SimLlm};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Daemon default LRU capacity, mirrored so hit behaviour matches.
const LRU_ENTRIES: usize = 256;
/// Repetitions of each set-up probe (the median is reported).
const SETUP_REPS: usize = 3;
/// Request id for spans that belong to no request (set-up probes).
const NO_REQUEST: u64 = u64::MAX;

/// The LLM tasks whose calls are counted and timed, by span name.
const TASKS: [(&str, &str); 4] = [
    ("transform", "simllm.transform"),
    ("filter", "simllm.filter"),
    ("diagnose", "simllm.diagnose"),
    ("merge", "simllm.merge"),
];

/// A model wrapper that records each completion as a span named after the
/// prompt's `### TASK:` header and tallies tokens.
struct TimedLlm<'r> {
    inner: SimLlm,
    recorder: &'r Recorder,
    input_tokens: AtomicU64,
    output_tokens: AtomicU64,
}

impl<'r> TimedLlm<'r> {
    fn new(model: &str, recorder: &'r Recorder) -> Self {
        TimedLlm {
            inner: SimLlm::new(model),
            recorder,
            input_tokens: AtomicU64::new(0),
            output_tokens: AtomicU64::new(0),
        }
    }

    fn tokens(&self) -> (u64, u64) {
        (
            self.input_tokens.load(Ordering::Relaxed),
            self.output_tokens.load(Ordering::Relaxed),
        )
    }
}

fn task_span(user_prompt: &str) -> &'static str {
    let task = user_prompt
        .lines()
        .find_map(|l| l.strip_prefix("### TASK: "))
        .unwrap_or("")
        .trim();
    TASKS
        .iter()
        .find(|(t, _)| *t == task)
        .map_or("simllm.other", |(_, span)| span)
}

impl LanguageModel for TimedLlm<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn complete(&self, request: &CompletionRequest) -> Completion {
        let completion = self
            .recorder
            .span(task_span(&request.user), || self.inner.complete(request));
        self.input_tokens
            .fetch_add(completion.input_tokens as u64, Ordering::Relaxed);
        self.output_tokens
            .fetch_add(completion.output_tokens as u64, Ordering::Relaxed);
        completion
    }
}

/// Cache key exactly as the daemon derives it.
fn result_key(trace: &darshan::DarshanTrace, model: &str, config: &AgentConfig) -> ResultKey {
    let canonical = darshan::write::write_text(trace);
    ResultKey {
        trace_hash: simllm::rng::stable_hash(&canonical),
        model: model.to_string(),
        config: format!("{config:?}"),
    }
}

/// What the replay measured besides spans.
#[derive(Default)]
struct Tally {
    fragments: u64,
    retrieved: u64,
    kept: u64,
    input_tokens: u64,
    output_tokens: u64,
}

/// Replay the first `requests` requests of `workload` under the recorder
/// and derive the per-layer metrics. `refs` supplies the primed diagnoses
/// for `repeat`. Spans are written to `spans_out`.
pub fn replay(
    workload: &Workload,
    requests: u64,
    refs: &BTreeMap<Input, Reference>,
    state_root: &Path,
    spans_out: &Path,
) -> io::Result<Vec<Metric>> {
    let corpus = workload.corpus();
    let state = StateDir::new(crate::daemon::fresh_dir(state_root, "traced")?)?;
    let (retriever, _) = Retriever::build_or_load_tuned(&state, None, None);
    let retriever = Arc::new(retriever);
    let config = AgentConfig::default();
    if !workload.primed().is_empty() {
        let mut store = state.open_results()?;
        for input in workload.primed() {
            let trace = darshan::parse::parse_text(&corpus.text(input)).expect("trace parses");
            let diagnosis: &Diagnosis = &refs[input].diagnosis;
            store.insert(
                result_key(&trace, input.model(), &config),
                diagnosis.clone(),
            )?;
        }
    }

    let recorder = Recorder::new();
    recorder.set_request(NO_REQUEST);
    for _ in 0..SETUP_REPS {
        recorder.span("iostore.snapshot_load", || {
            std::hint::black_box(
                iostore::load_index(&state.index_path(), &Retriever::index_spec())
                    .expect("snapshot written above loads"),
            )
        });
        recorder.span("iostore.journal_open", || state.open_results())?;
        recorder.span("ioagent-core.retriever_build", || {
            std::hint::black_box(Retriever::build())
        });
    }

    let mut store = state.open_results()?;
    let mut lru: LruCache<ResultKey, Diagnosis> = LruCache::new(LRU_ENTRIES);
    let embedder = ioembed::Embedder::default();
    let mut tally = Tally::default();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("width-1 pool");
    pool.install(|| -> io::Result<()> {
        for i in 0..requests {
            let request = workload.request(i);
            recorder.set_request(i);
            let cached = recorder.span("request", || -> io::Result<bool> {
                let parsed = recorder.span("ioagentd.protocol.parse_line", || {
                    protocol::parse_line(&request.line, "line")
                });
                let Ok(Request::Job(job)) = parsed else {
                    return Err(io::Error::other(format!("request r{i} did not parse")));
                };
                let key = recorder.span("darshan.write_text", || {
                    result_key(&job.trace, &job.model, &job.config)
                });
                let hit = recorder.span("ioagentd.cache.lookup", || {
                    lru.get(&key).or_else(|| {
                        let found = store.get(&key).cloned()?;
                        lru.insert(key.clone(), found.clone());
                        Some(found)
                    })
                });
                let cached = hit.is_some();
                let diagnosis = match hit {
                    Some(d) => d,
                    None => {
                        let model = TimedLlm::new(&job.model, &recorder);
                        let agent = IoAgent::with_shared_retriever(
                            &model,
                            job.config.clone(),
                            Arc::clone(&retriever),
                        );
                        let d =
                            recorder.span("ioagent-core.diagnose", || agent.diagnose(&job.trace));
                        let (input_tokens, output_tokens) = model.tokens();
                        let reflection = agent.reflection_usage();
                        tally.input_tokens += input_tokens + reflection.input_tokens as u64;
                        tally.output_tokens += output_tokens + reflection.output_tokens as u64;
                        recorder.span("iostore.journal_insert", || {
                            lru.insert(key.clone(), d.clone());
                            store.insert(key.clone(), d.clone())
                        })?;
                        d
                    }
                };
                let result = JobResult {
                    id: job.id.clone(),
                    diagnosis,
                    cached,
                    worker: 0,
                    metrics: JobMetrics::default(),
                    trace_id: format!("r{i}"),
                    failure: None,
                };
                recorder.span("ioagentd.protocol.render_result", || {
                    std::hint::black_box(protocol::render_result(&result))
                });
                Ok(cached)
            })?;
            if cached != (request.kind != Kind::New) {
                return Err(io::Error::other(format!(
                    "replayed request r{i}: cache outcome differs from the daemon's"
                )));
            }
            let value: serde_json::Value =
                serde_json::from_str(&request.line).map_err(|e| io::Error::other(e.to_string()))?;
            let text = value.get("trace").and_then(|t| t.as_str()).unwrap_or("");
            recorder.span("probe", || -> io::Result<()> {
                let trace =
                    recorder.span("darshan.parse_text", || darshan::parse::parse_text(text));
                let trace = trace.map_err(|e| io::Error::other(e.to_string()))?;
                if cached {
                    return Ok(());
                }
                let fragments = recorder.span("preprocessor.extract_fragments", || {
                    preprocessor::extract_fragments(&trace)
                });
                tally.fragments += fragments.len() as u64;
                let plain = SimLlm::new(request.input.model());
                let reflection = TimedLlm::new(&config.reflection_model, &recorder);
                for fragment in &fragments {
                    let query = ioagent_core::transform::to_natural_language(&plain, fragment);
                    recorder.span("embed.embed", || {
                        std::hint::black_box(embedder.embed(&query))
                    });
                    let hits = recorder.span("vecindex.search", || {
                        retriever.index().search(&query, config.top_k)
                    });
                    let kept = recorder.span("ioagent-core.rag.retrieve_k", || {
                        retriever.retrieve_k(&query, &reflection, config.top_k)
                    });
                    tally.retrieved += hits.len() as u64;
                    tally.kept += kept.len() as u64;
                }
                Ok(())
            })?;
        }
        Ok(())
    })?;

    let spans = recorder.into_spans();
    let mut file = io::BufWriter::new(std::fs::File::create(spans_out)?);
    spans::write_ndjson(&spans, &mut file)?;
    Ok(layer_metrics(&spans, requests, &tally))
}

fn layer_metrics(spans: &[SpanRecord], requests: u64, tally: &Tally) -> Vec<Metric> {
    let own = spans::self_times(spans);
    let mut total: HashMap<&str, (u64, u64, u64)> = HashMap::new(); // ns, self ns, count
    let mut setup: HashMap<&str, Vec<f64>> = HashMap::new();
    for (span, own_ns) in spans.iter().zip(&own) {
        if span.request == NO_REQUEST {
            setup
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64 / 1e6);
            continue;
        }
        let t = total.entry(span.name).or_default();
        t.0 += span.duration_ns();
        t.1 += own_ns;
        t.2 += 1;
    }
    let get = |name: &str| total.get(name).copied().unwrap_or_default();
    let runs = get("ioagent-core.diagnose").2;
    let per = |ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let per_request_us = |name: &str| per(get(name).0, requests);
    let per_run_us = |name: &str| per(get(name).0, runs);
    let per_run = |count: u64| {
        if runs == 0 {
            0.0
        } else {
            count as f64 / runs as f64
        }
    };
    let run_note = format!("per pipeline run, {runs} runs");
    let req_note = format!("per request, {requests} requests");

    let mut out = vec![Metric::new(
        "trace.request_ms",
        per(get("request").0, requests) / 1e3,
        "ms",
        &req_note,
    )];
    for name in [
        "ioagentd.protocol.parse_line",
        "darshan.parse_text",
        "darshan.write_text",
        "ioagentd.cache.lookup",
        "ioagentd.protocol.render_result",
    ] {
        out.push(Metric::new(
            &format!("{name}_us"),
            per_request_us(name),
            "us",
            &req_note,
        ));
    }
    out.push(Metric::new(
        "preprocessor.extract_fragments_us",
        per_run_us("preprocessor.extract_fragments"),
        "us",
        &run_note,
    ));
    out.push(Metric::new(
        "preprocessor.fragments_per_req",
        per_run(tally.fragments),
        "count",
        &run_note,
    ));
    for (task, span) in TASKS {
        out.push(Metric::new(
            &format!("simllm.{task}.calls_per_req"),
            per_run(get(span).2),
            "count",
            &run_note,
        ));
        out.push(Metric::new(
            &format!("simllm.{task}.us_per_req"),
            per_run_us(span),
            "us",
            &run_note,
        ));
    }
    out.push(Metric::new(
        "simllm.input_tokens_per_req",
        per_run(tally.input_tokens),
        "count",
        &run_note,
    ));
    out.push(Metric::new(
        "simllm.output_tokens_per_req",
        per_run(tally.output_tokens),
        "count",
        &run_note,
    ));
    let search = per_run_us("vecindex.search");
    let retrieve = per_run_us("ioagent-core.rag.retrieve_k");
    out.push(Metric::new(
        "embed.embed_us",
        per_run_us("embed.embed"),
        "us",
        &run_note,
    ));
    out.push(Metric::new("vecindex.search_us", search, "us", &run_note));
    out.push(Metric::new(
        "ioagent-core.rag.retrieve_k_us",
        retrieve,
        "us",
        &run_note,
    ));
    out.push(Metric::new(
        "ioagent-core.rag.reflect_us",
        retrieve - search,
        "us",
        "retrieve_k minus search, per pipeline run",
    ));
    out.push(Metric::new(
        "ioagent-core.rag.kept_ratio",
        if tally.retrieved == 0 {
            0.0
        } else {
            tally.kept as f64 / tally.retrieved as f64
        },
        "ratio",
        &format!("{} kept of {} retrieved", tally.kept, tally.retrieved),
    ));
    let diagnose = get("ioagent-core.diagnose");
    out.push(Metric::new(
        "ioagent-core.diagnose_us",
        per(diagnose.0, runs),
        "us",
        &run_note,
    ));
    // Diagnose time covered neither by its backbone-call children nor by
    // the layers probed separately on the same inputs.
    out.push(Metric::new(
        "ioagent-core.unattributed_us",
        per(diagnose.1, runs) - per_run_us("preprocessor.extract_fragments") - retrieve,
        "us",
        &run_note,
    ));
    out.push(Metric::new(
        "iostore.journal_insert_us",
        per_run_us("iostore.journal_insert"),
        "us",
        &run_note,
    ));
    for name in [
        "iostore.snapshot_load",
        "iostore.journal_open",
        "ioagent-core.retriever_build",
    ] {
        out.push(Metric::new(
            &format!("{name}_ms"),
            median(&setup[name]),
            "ms",
            &format!("median of {SETUP_REPS}"),
        ));
    }
    out
}
