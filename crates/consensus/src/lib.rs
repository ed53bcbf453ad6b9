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
//!
//! The one replica, `InivaReplica`, lives in the `iniva` crate and reuses
//! [`chain`], [`leader`] and [`types`] unchanged. The paper's HotStuff-star
//! baseline is that replica on a height-one tree (every member a child of
//! the root) whose root finalizes at its first quorum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chain;
pub mod leader;
pub mod perf;
pub mod types;

pub use chain::{ChainMetrics, ChainState, CommitSink};
pub use leader::{LeaderContext, LeaderPolicy};
pub use perf::PerfSummary;
pub use types::{quorum, vote_message, Block, BlockHash, Qc};
