//! Re-export of the simulation arena, which moved to `amo-sim` with the
//! unified scenario layer (the generic `run_scenario` driver leases from it
//! for every algorithm stack, so the pool lives next to the engine).
//!
//! [`FleetArena`] is re-exported here unchanged, so existing
//! `amo_core::FleetArena` / `amo_core::arena::FleetArena` callers keep
//! compiling.
//!
//! # Examples
//!
//! ```
//! use amo_core::{run_scenario_simulated_in, FleetArena, KkConfig};
//! use amo_sim::ScenarioSpec;
//!
//! let mut arena = FleetArena::new();
//! let spec = ScenarioSpec::round_robin_batched();
//! for n in [64usize, 128, 256] {
//!     let config = KkConfig::new(n, 4)?;
//!     let report = run_scenario_simulated_in(&mut arena, &config, &spec);
//!     assert!(report.violations.is_empty());
//! }
//! assert_eq!(arena.leases(), 3);
//! assert!(arena.reuses() >= 2, "buffers were recycled, not reallocated");
//! # Ok::<(), amo_core::ConfigError>(())
//! ```

pub use amo_sim::arena::FleetArena;
