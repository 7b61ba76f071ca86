//! Regenerates every table of the experiment index (the table in
//! `amo_bench::experiments`) in order. Pass `--quick` for the CI-scale
//! grids; without it the full grids run.

fn main() {
    amo_bench::experiment_main("exp_all", amo_bench::experiments::run_all);
}
