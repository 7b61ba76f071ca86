//! Regenerates table(s) for experiment: set_ablation (A2). Pass `--quick` for the CI grid.

fn main() {
    amo_bench::experiment_main("exp_set_ablation", |s| {
        [amo_bench::experiments::exp_set_ablation(s)]
    });
}
