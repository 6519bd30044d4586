//! Merge-strategy benchmarks (the Fig. 6 time-overhead axis): the paper
//! notes the tree merge "introduces both additional time and monetary
//! overhead" versus a single flat merge — this quantifies it, alongside
//! the retention the overhead buys.

use ioagent_bench::measure;
use ioagent_core::merge::merge_blocks;
use ioagent_core::{MergeStrategy, SummaryBlock};
use simllm::SimLlm;
use std::hint::black_box;

fn blocks(n: usize) -> Vec<SummaryBlock> {
    (0..n)
        .map(|i| {
            SummaryBlock::new(
                format!("S{i}"),
                vec![format!(
                    "- POINT[k{i}] Issue: finding {i} with supporting data ;; REFS: [Doc {i}, V 2021]"
                )],
            )
        })
        .collect()
}

fn main() {
    let model = SimLlm::new("gpt-4o");
    for n in [4usize, 8, 13, 18] {
        let (model, input) = (&model, &blocks(n));
        let merge =
            |strategy| move || drop(black_box(merge_blocks(model, input.clone(), strategy)));
        let [tree, flat] = measure::interleave(
            measure::rounds(20),
            [
                &mut merge(MergeStrategy::Tree),
                &mut merge(MergeStrategy::Flat),
            ],
        );
        tree.report(&format!("merge/tree/{n}"));
        flat.report(&format!("merge/flat/{n}"));
    }
}
