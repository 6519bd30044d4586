//! Golden content pin: the simulated model's output across versions.
//!
//! Every other suite compares two paths of the *same* build (engine vs
//! reference, traced vs untraced, 1 vs N threads). This one pins content
//! against a constant, so a change that shifts any completion — a
//! tokenisation detail in the reflection filter, an RNG draw moved, a
//! prompt byte altered — fails here even if it is self-consistent.
//!
//! It diagnoses all 40 TraceBench traces with two backbones under the
//! default `AgentConfig`, and folds into one FNV-1a fingerprint:
//!
//! - every diagnosis `text`, `issues` and `references`;
//! - backbone and reflection `Usage` (calls, input and output tokens);
//! - the text of every reflection-filter verdict, replayed through the
//!   same retriever and reflection model the agent uses.
//!
//! If a change is *meant* to alter content, recompute the constant and
//! say why in the change description.

use ioagent_core::{transform, AgentConfig, IoAgent, Retriever};
use simllm::rng::stable_hash;
use simllm::{Completion, CompletionRequest, LanguageModel, ModelProfile, SimLlm, Usage};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use tracebench::TraceBench;

/// Fingerprint of the whole log below, computed on the pre-optimisation
/// simulator and unchanged since.
const GOLDEN: u64 = 0x0c49_8959_8ac7_28ad;

const MODELS: [&str; 2] = ["gpt-4o", "llama-3.1-70b"];

/// A reflection model that keeps every verdict it hands out, keyed by the
/// prompt so the parallel fan-out's completion order does not matter.
struct Recording {
    inner: SimLlm,
    verdicts: Mutex<Vec<(u64, String)>>,
}

impl LanguageModel for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn complete(&self, request: &CompletionRequest) -> Completion {
        let c = self.inner.complete(request);
        self.verdicts
            .lock()
            .unwrap()
            .push((stable_hash(&request.user), c.text.clone()));
        c
    }
}

fn log_usage(log: &mut String, what: &str, u: Usage) {
    writeln!(
        log,
        "{what} calls={} in={} out={}",
        u.calls, u.input_tokens, u.output_tokens
    )
    .unwrap();
}

#[test]
fn diagnoses_usage_and_verdicts_match_the_golden_fingerprint() {
    let suite = TraceBench::generate();
    let retriever = Arc::new(Retriever::build());
    let config = AgentConfig::default();
    let mut log = String::new();
    let mut verdict_count = 0usize;
    for entry in &suite.entries {
        for model_name in MODELS {
            let model = SimLlm::new(model_name);
            let agent =
                IoAgent::with_shared_retriever(&model, config.clone(), Arc::clone(&retriever));
            let d = agent.diagnose(&entry.trace);
            writeln!(log, "## {} {model_name}", entry.spec.id).unwrap();
            log.push_str(&d.text);
            let issues: Vec<&str> = d.issues.iter().map(|i| i.key()).collect();
            writeln!(log, "\nissues={issues:?}\nrefs={:?}", d.references).unwrap();
            log_usage(&mut log, "backbone", model.usage());
            log_usage(&mut log, "reflection", agent.reflection_usage());

            // Replay the agent's retrieval path with a recording
            // reflection model: same queries, same hits, same prompts.
            let backbone = SimLlm::new(model_name);
            let reflection = Recording {
                inner: SimLlm::new(&config.reflection_model),
                verdicts: Mutex::new(Vec::new()),
            };
            for fragment in preprocessor::extract_fragments(&entry.trace) {
                let query = transform::to_natural_language(&backbone, &fragment);
                retriever.retrieve_k(&query, &reflection, config.top_k);
            }
            let mut verdicts = reflection.verdicts.into_inner().unwrap();
            verdicts.sort();
            verdict_count += verdicts.len();
            for (key, text) in verdicts {
                writeln!(log, "verdict {key:016x} {text}").unwrap();
            }
        }
    }
    assert_eq!(verdict_count, 18_840, "reflection calls over the suite");
    let fingerprint = stable_hash(&log);
    assert_eq!(
        fingerprint,
        GOLDEN,
        "content fingerprint drifted (0x{fingerprint:016x}, {} log bytes)",
        log.len()
    );
}
