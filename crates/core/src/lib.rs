//! # iniva
//!
//! The core of the reproduction of **"Iniva: Inclusive and
//! Incentive-compatible Vote Aggregation"** (DSN 2024, arXiv:2404.04948):
//!
//! * [`protocol`] — Algorithm 1: tree-based signature aggregation with ACK
//!   inclusion proofs and 2ND-CHANCE fallback paths, integrated into the
//!   chained-HotStuff substrate from `iniva-consensus` (the paper's
//!   Section VIII-A integration). Includes the `Iniva-No2C` ablation.
//! * [`rewards`] — the rewarding mechanism of Section V-B, reconstructing
//!   *how* each vote was collected from indivisible multiplicities, plus
//!   independent verification.
//! * [`incentives`] — the two-player game of Section VI with Equations 2–6
//!   and a checkable Theorem 3.
//! * [`omission`] — Theorem 4's closed forms and the structural
//!   attack-success predicates driving the Monte-Carlo experiments.
//!
//! ## Quickstart
//! ```
//! use iniva::protocol::{InivaConfig, InivaReplica};
//! use iniva_crypto::sim_scheme::SimScheme;
//! use iniva_net::{NetConfig, Simulation, SECS};
//! use std::sync::Arc;
//!
//! let n = 7;
//! let scheme = Arc::new(SimScheme::new(n, b"quickstart"));
//! let cfg = InivaConfig::for_tests(n, 2);
//! let replicas = (0..n as u32)
//!     .map(|id| InivaReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
//!     .collect();
//! let mut sim = Simulation::new(NetConfig::default(), replicas);
//! sim.run_until(1 * SECS);
//! assert!(sim.actor(0).chain.committed_height() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incentives;
pub mod omission;
pub mod protocol;
pub mod rewards;

pub use iniva_tree::Topology;
pub use protocol::{InivaConfig, InivaMsg, InivaReplica};
pub use rewards::{RewardDistribution, RewardParams};
