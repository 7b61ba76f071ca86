//! One module per experiment. The table below is the experiment index;
//! DESIGN.md's ablations section describes A1, A2 and A4.
//!
//! | id | module | paper artefact |
//! |----|--------|----------------|
//! | E1 | [`effectiveness`] | Theorem 4.4 (exact worst-case effectiveness) |
//! | E2 | [`safety`] | Lemma 4.1 (at-most-once, all execution classes) |
//! | E3 | [`work`] | Theorem 5.6 (work `O(nm log n log m)` at `β = 3m²`) |
//! | E4 | [`iterative`] | Theorem 6.4 (IterativeKK effectiveness + work) |
//! | E5 | [`write_all`] | Theorem 7.1 (Write-All work + baseline crossover) |
//! | E6 | [`comparison`] | §1 ordering vs prior work |
//! | E7 | [`collisions`] | Lemma 5.5 (pairwise collision bound) |
//! | A1/A4 | [`ablations`] | DESIGN.md design-choice ablations |
//! | E8 | [`threads`] | real-thread safety and throughput vs m |
//! | E9 | [`scenario_matrix`] | cross-algorithm adversary matrix (scenario layer) |
//! | E10 | [`recovery_matrix`] | storage-fault × restart matrix (durable backend) |
//! | E12 | [`chaos_matrix`] | seeded chaos sweep (composed fault schedules, all stacks) |

pub mod ablations;
pub mod chaos_matrix;
pub mod collisions;
pub mod comparison;
pub mod effectiveness;
pub mod iterative;
pub mod recovery_matrix;
pub mod safety;
pub mod scenario_matrix;
pub mod threads;
pub mod work;
pub mod write_all;

pub use ablations::{exp_beta_ablation, exp_pick_ablation};
pub use chaos_matrix::exp_chaos_matrix;
pub use collisions::exp_collisions;
pub use comparison::exp_comparison;
pub use effectiveness::exp_effectiveness;
pub use iterative::exp_iterative;
pub use recovery_matrix::exp_recovery_matrix;
pub use safety::exp_safety;
pub use scenario_matrix::exp_scenario_matrix;
pub use threads::exp_threads;
pub use work::exp_work_kk;
pub use write_all::exp_write_all;

use crate::{Scale, Table};

/// Runs every experiment and returns all tables in index order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    tables.push(exp_effectiveness(scale));
    tables.push(exp_safety(scale));
    tables.push(exp_work_kk(scale));
    tables.extend(exp_iterative(scale));
    tables.extend(exp_write_all(scale));
    tables.push(exp_comparison(scale));
    tables.push(exp_collisions(scale));
    tables.push(exp_beta_ablation(scale));
    tables.push(exp_pick_ablation(scale));
    tables.push(exp_threads(scale));
    tables.push(exp_scenario_matrix(scale));
    tables.push(exp_recovery_matrix(scale));
    tables.push(exp_chaos_matrix(scale));
    tables
}
