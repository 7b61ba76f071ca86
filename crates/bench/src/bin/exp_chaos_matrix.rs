//! Regenerates table(s) for experiment: the seeded chaos sweep — composed
//! fault schedules × every algorithm (E12). Pass `--quick` for the CI grid.

fn main() {
    amo_bench::experiment_main("exp_chaos_matrix", |s| {
        [amo_bench::experiments::exp_chaos_matrix(s)]
    });
}
