//! End-to-end pipeline benchmarks: per-trace diagnosis latency for every
//! tool (the cost side of the paper's accuracy/cost trade-off discussion)
//! and the judge's per-sample ranking cost (Table IV's harness).

use baselines::{Drishti, Ion};
use ioagent_bench::measure;
use ioagent_core::IoAgent;
use judge::Judge;
use simllm::SimLlm;
use std::hint::black_box;
use tracebench::TraceBench;

fn main() {
    let rounds = measure::rounds(10);
    let suite = TraceBench::generate();

    // Per-trace diagnosis, the four tools interleaved on each trace.
    let gpt4o = SimLlm::new("gpt-4o");
    let llama = SimLlm::new("llama-3.1-70b");
    let ion = Ion::new(&gpt4o);
    let (agent_gpt4o, agent_llama) = (IoAgent::new(&gpt4o), IoAgent::new(&llama));
    // sb01_small_io is one of the smallest traces; io500_mdtest_hard_1 has
    // ~40k raw lines.
    for name in ["sb01_small_io", "io500_mdtest_hard_1"] {
        let trace = &suite.get(name).unwrap().trace;
        let samples = measure::interleave(
            rounds,
            [
                &mut || drop(black_box(Drishti.diagnose(trace))),
                &mut || drop(black_box(ion.diagnose(trace))),
                &mut || drop(black_box(agent_gpt4o.diagnose(trace))),
                &mut || drop(black_box(agent_llama.diagnose(trace))),
            ],
        );
        for (tool, s) in ["drishti", "ion_gpt4o", "ioagent_gpt4o", "ioagent_llama31"]
            .iter()
            .zip(&samples)
        {
            s.report(&format!("diagnose/{tool}/{name}"));
        }
    }

    // The judge's per-sample ranking cost (Table IV's harness).
    let mut six = TraceBench::generate();
    six.entries.truncate(6);
    let runs = ioagent_bench::run_all_tools(&six);
    let judge = Judge::new(&gpt4o);
    let candidates: Vec<&simllm::Diagnosis> = runs.iter().map(|r| &r.diagnoses[0]).collect();
    measure::time(rounds, || {
        judge.mean_ranks(&six.entries[0], judge::Criterion::Accuracy, &candidates)
    })
    .report("judge/rank_one_sample_4perms");
    measure::time(rounds, || judge.evaluate(&six, &runs))
        .report("judge/evaluate_6_traces_all_criteria");

    // The whole paper: TraceBench + 4 tools + judge, end to end.
    measure::time(rounds, || {
        ioagent_bench::table4_evaluation(&TraceBench::generate())
    })
    .report("table4/full_pipeline_40_traces");

    measure::time(rounds, TraceBench::generate).report("tracebench/generate_full_suite");
    measure::time(rounds, || {
        for e in &suite.entries {
            black_box(tracebench::reference_detect(&e.trace));
        }
    })
    .report("tracebench/reference_detect_all");
    let amrex = &suite.get("ra_amrex").unwrap().trace;
    measure::time(rounds, || {
        darshan::parse::parse_text(&darshan::write::write_text(amrex)).unwrap()
    })
    .report("tracebench/darshan_text_roundtrip_amrex");
}
