//! # loadbalance — quantum-assisted application-level load balancing (§4.1)
//!
//! Reproduces the paper's Figure 4 simulation and its ablations:
//! `N` load balancers forward tasks to `M` servers each timestep. Type-C
//! tasks benefit from co-location (a server runs two of them
//! simultaneously); type-E tasks want isolation (served one at a time).
//!
//! The quantum strategy pairs load balancers; each pair uses pre-shared
//! classical randomness to pick two candidate servers per round and the
//! *flipped CHSH protocol* (`a ⊕ b = ¬(x ∧ y)`) to decide who goes where:
//! same server exactly when both tasks are type-C — correctly 85.36% of
//! the time, versus 75% for the best possible classical pairing.
//!
//! ## Modules
//!
//! - [`task`]: task types and workload generators (Bernoulli C/E as in the
//!   paper, plus multi-subtype and bursty generators for the caveat
//!   ablations).
//! - [`server`]: server queue disciplines — the paper's
//!   ("two type-C simultaneously first, then type-E one at a time") and
//!   alternates for the footnote-2 robustness claim.
//! - [`strategy`]: assignment strategies — uniform random, round-robin,
//!   power-of-two-choices, classical pairings, dedicated-server hybrid,
//!   and the quantum CHSH pairing (finite pair availability and Werner
//!   visibility, sampled by the one flipped-CHSH sampler
//!   [`games::chsh::flipped_bits`] that the shard, pipeline and serve
//!   paths share).
//! - [`sim`]: the timestep loop of Figure 4 (compatibility path: any
//!   strategy, caller-supplied RNG, `Vec<Server>` state).
//! - [`shard`]: the sharded, structure-of-arrays, batch-advanced engine
//!   for production-scale runs (1e6 servers), byte-identical at any
//!   worker/shard count.
//! - [`metrics`]: queue-length and waiting-time statistics, including the
//!   bounded deterministic wait reservoir.
//! - [`error`]: typed configuration/engine errors.
//! - [`degrade`]: graceful degradation — a hysteretic governor that
//!   watches pair delivery and falls back from quantum CHSH to classical
//!   coordination (and recovers) as the entanglement plane faults and
//!   heals.

pub mod degrade;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod server;
pub mod shard;
pub mod sim;
pub mod strategy;
pub mod task;

pub use degrade::{CoordinationMode, Degrading, FallbackGovernor, HysteresisConfig};
pub use error::SimError;
pub use metrics::{SimResult, WaitReservoir};
pub use server::{Discipline, Server};
pub use pipeline::PipelinePairedQuantum;
pub use shard::{run_scaled, ScaleConfig, ScaleStrategy};
pub use sim::{
    run_simulation, run_simulation_with, try_run_simulation, try_run_simulation_with, SimConfig,
};
pub use strategy::{AssignmentStrategy, PairDecision, Strategy};
pub use task::{ArrivalModel, Task, TaskType, Workload};
