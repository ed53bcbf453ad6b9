//! # iniva-consensus
//!
//! A round-based chained-HotStuff consensus substrate with pluggable vote
//! aggregation, reproducing the framework the Iniva paper integrates with
//! (Section VIII-A: Iniva replaces the vote-aggregation module without
//! changing consensus, client or request handling).
//!
//! * [`types`] — blocks, quorum certificates, workload modeling.
//! * [`chain`] — block store, three-chain commit rule, metrics.
//! * [`audit`] — one cluster-wide check that replicas commit the same
//!   blocks.
//! * [`leader`] — round-robin and Carousel leader election.
//! * [`star`] — the baseline star-topology HotStuff replica (leader collects
//!   and verifies every vote individually).
//!
//! The Iniva tree-aggregation replica lives in the `iniva` crate and reuses
//! [`chain`], [`leader`] and [`types`] unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chain;
pub mod leader;
pub mod perf;
pub mod star;
pub mod types;

pub use chain::{ChainMetrics, ChainState, CommitSink};
pub use leader::{LeaderContext, LeaderPolicy};
pub use perf::PerfSummary;
pub use star::{ReplicaConfig, StarMsg, StarReplica};
pub use types::{quorum, vote_message, Block, BlockHash, Qc};
