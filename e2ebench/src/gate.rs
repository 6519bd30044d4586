//! Correctness gate: every successful reply must equal an untimed
//! in-process `IoAgent::diagnose` of the same trace and model.

use crate::gen::{Corpus, Input, Kind};
use ioagent_core::{AgentConfig, IoAgent, Retriever};
use simllm::{Diagnosis, SimLlm};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tracebench::IssueLabel;

/// The fields of one reply line the benchmark uses.
#[derive(Debug, Clone)]
pub struct Reply {
    /// `Some(kind)` for an error reply.
    pub error: Option<String>,
    /// Answered from the cache or journal.
    pub cached: bool,
    /// Simulated spend.
    pub cost_usd: f64,
    /// Time in the daemon's queue.
    pub queue_wait_ms: f64,
    /// Time executing (0 for submit-time cache hits).
    pub exec_ms: f64,
    /// Report text.
    pub text: String,
    /// Issue keys.
    pub issues: Vec<String>,
    /// Citations.
    pub references: Vec<String>,
}

/// Parse a reply line and check it answers request `id`.
pub fn parse_reply(line: &str, id: &str) -> Result<Reply, String> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("unparseable reply ({e}): {line:.200}"))?;
    let got = v.get("id").and_then(|x| x.as_str()).unwrap_or("");
    if got != id {
        return Err(format!("reply for {got:?} where {id:?} was expected"));
    }
    let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let strings = |k: &str| -> Vec<String> {
        v.get(k)
            .and_then(|x| x.as_array())
            .map(|a| {
                a.iter()
                    .filter_map(|s| s.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    if v.get("error").is_some() {
        let kind = v
            .get("error_kind")
            .and_then(|x| x.as_str())
            .unwrap_or("unknown");
        return Ok(Reply {
            error: Some(kind.to_string()),
            cached: false,
            cost_usd: 0.0,
            queue_wait_ms: 0.0,
            exec_ms: 0.0,
            text: String::new(),
            issues: Vec::new(),
            references: Vec::new(),
        });
    }
    Ok(Reply {
        error: None,
        cached: v.get("cached").and_then(|x| x.as_bool()) == Some(true),
        cost_usd: num("cost_usd"),
        queue_wait_ms: num("queue_wait_ms"),
        exec_ms: num("exec_ms"),
        text: v
            .get("text")
            .and_then(|x| x.as_str())
            .ok_or_else(|| format!("reply {id} has no text"))?
            .to_string(),
        issues: strings("issues"),
        references: strings("references"),
    })
}

/// The in-process answer for one input.
pub struct Reference {
    /// `IoAgent::diagnose` with the paper-default configuration.
    pub diagnosis: Diagnosis,
    /// `tracebench::check::reference_detect` of the same trace.
    pub labels: BTreeSet<IssueLabel>,
}

/// Compute references for `inputs` on `threads` threads, each pinned to a
/// width-1 rayon pool so they do not oversubscribe the machine. Threads
/// take the next input as they finish one, since costs vary by trace.
pub fn references(
    corpus: &Corpus,
    inputs: &BTreeSet<Input>,
    retriever: &Arc<Retriever>,
    threads: usize,
) -> BTreeMap<Input, Reference> {
    let inputs: Vec<Input> = inputs.iter().copied().collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, inputs.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(1)
                        .build()
                        .expect("width-1 pool");
                    let mut done = Vec::new();
                    pool.install(|| {
                        while let Some(input) = inputs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            done.push((*input, reference(corpus, input, retriever)));
                        }
                    });
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

fn reference(corpus: &Corpus, input: &Input, retriever: &Arc<Retriever>) -> Reference {
    let trace = darshan::parse::parse_text(&corpus.text(input)).expect("generated trace parses");
    let model = SimLlm::new(input.model());
    let agent =
        IoAgent::with_shared_retriever(&model, AgentConfig::default(), Arc::clone(retriever));
    Reference {
        diagnosis: agent.diagnose(&trace),
        labels: tracebench::check::reference_detect(&trace),
    }
}

/// Label quality of the successful replies against each request's own
/// trace: micro-averaged recall and precision.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Σ|reported ∩ reference| / Σ|reference|.
    pub recall: f64,
    /// Σ|reported ∩ reference| / Σ|reported|.
    pub precision: f64,
}

/// Check every successful reply against its reference and the cache
/// expectation of its request kind. Any mismatch is an error.
pub fn check(
    requests: &[(Input, Kind)],
    replies: &[Reply],
    refs: &BTreeMap<Input, Reference>,
) -> Result<Quality, String> {
    let (mut hit, mut reported, mut expected) = (0usize, 0usize, 0usize);
    for (i, ((input, kind), reply)) in requests.iter().zip(replies).enumerate() {
        if reply.error.is_some() {
            continue;
        }
        let r = refs
            .get(input)
            .ok_or_else(|| format!("request r{i}: no reference computed"))?;
        let d = &r.diagnosis;
        let issues: Vec<&str> = d.issues.iter().map(|l| l.key()).collect();
        if reply.text != d.text || reply.issues != issues || reply.references != d.references {
            return Err(format!(
                "request r{i} ({}): reply differs from the in-process diagnosis",
                input.model()
            ));
        }
        match kind {
            Kind::New if reply.cached => {
                return Err(format!("request r{i}: new content answered from the cache"))
            }
            Kind::Resubmit | Kind::Reformatted if !reply.cached => {
                return Err(format!(
                    "request r{i}: {kind:?} resubmission missed the cache"
                ))
            }
            _ => {}
        }
        let keys: BTreeSet<&str> = r.labels.iter().map(|l| l.key()).collect();
        hit += reply
            .issues
            .iter()
            .filter(|k| keys.contains(k.as_str()))
            .count();
        reported += reply.issues.len();
        expected += keys.len();
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Ok(Quality {
        recall: ratio(hit, expected),
        precision: ratio(hit, reported),
    })
}
