//! Shared harness for regenerating every table and figure of the IOAgent
//! paper. Each `src/bin/*` binary prints one artifact; the benches in
//! `benches/` time the underlying pipelines through [`measure`].

pub mod measure;
pub mod synth;

use baselines::{Drishti, Ion};
use ioagent_core::IoAgent;
use judge::{Judge, ToolRun};
use simllm::{Diagnosis, SimLlm};
use tracebench::TraceBench;

/// The four competing tools of the paper's main evaluation, in Table IV row
/// order: Drishti, ION (gpt-4o), IOAgent-gpt-4o, IOAgent-llama-3.1-70B.
pub fn run_all_tools(suite: &TraceBench) -> Vec<ToolRun> {
    let drishti_run = ToolRun {
        tool: "Drishti".to_string(),
        diagnoses: suite
            .entries
            .iter()
            .map(|e| Drishti.diagnose(&e.trace))
            .collect(),
    };

    let ion_model = SimLlm::new("gpt-4o");
    let ion = Ion::new(&ion_model);
    let ion_run = ToolRun {
        tool: "ION".to_string(),
        diagnoses: suite
            .entries
            .iter()
            .map(|e| ion.diagnose(&e.trace))
            .collect(),
    };

    let gpt4o = SimLlm::new("gpt-4o");
    let agent_gpt4o = IoAgent::new(&gpt4o);
    let agent_gpt4o_run = ToolRun {
        tool: "IOAgent-gpt-4o".to_string(),
        diagnoses: suite
            .entries
            .iter()
            .map(|e| agent_gpt4o.diagnose(&e.trace))
            .collect(),
    };

    let llama = SimLlm::new("llama-3.1-70b");
    let agent_llama = IoAgent::new(&llama);
    let agent_llama_run = ToolRun {
        tool: "IOAgent-llama-3.1-70B".to_string(),
        diagnoses: suite
            .entries
            .iter()
            .map(|e| agent_llama.diagnose(&e.trace))
            .collect(),
    };

    vec![drishti_run, ion_run, agent_gpt4o_run, agent_llama_run]
}

/// Run the full Table IV pipeline: all tools over all 40 traces, judged by
/// GPT-4o with full augmentations and 4 permutations.
pub fn table4_evaluation(suite: &TraceBench) -> judge::Evaluation {
    let runs = run_all_tools(suite);
    let judge_model = SimLlm::new("gpt-4o");
    let judge = Judge::new(&judge_model);
    judge.evaluate(suite, &runs)
}

/// Per-tool label recall/precision over the suite (auxiliary diagnostics,
/// not a paper artifact but useful for EXPERIMENTS.md).
pub fn recall_precision(suite: &TraceBench, diagnoses: &[Diagnosis]) -> (f64, f64) {
    let mut hit = 0usize;
    let mut total = 0usize;
    let mut reported = 0usize;
    for (entry, d) in suite.entries.iter().zip(diagnoses) {
        let found = d.issue_set();
        reported += found.len();
        for l in entry.spec.labels {
            total += 1;
            if found.contains(l) {
                hit += 1;
            }
        }
    }
    let recall = hit as f64 / total.max(1) as f64;
    let precision = hit as f64 / reported.max(1) as f64;
    (recall, precision)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tools_produce_aligned_runs() {
        let mut suite = TraceBench::generate();
        suite.entries.truncate(4);
        let runs = run_all_tools(&suite);
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert_eq!(r.diagnoses.len(), 4, "{}", r.tool);
        }
    }
}
