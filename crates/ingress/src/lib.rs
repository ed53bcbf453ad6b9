//! Client ingress tier for the Iniva reproduction.
//!
//! Everything upstream of consensus lives here: the client wire
//! protocol ([`wire`]), the fee-ordered bounded [`mempool`] the
//! proposer drafts real blocks from, and per-connection token-bucket
//! admission control ([`limiter`]). The sockets are not here: client
//! connections are sessions on each replica's transport poller
//! (`iniva_transport::Transport::serve_clients`), which ties the three
//! together. The consensus side sees none of it directly — the only
//! coupling is the [`RequestSource`] hook on `ChainState`, which the
//! [`Mempool`] implements.
//!
//! Enable it on a live cluster with `ClusterBuilder::ingress` (shared
//! pool across in-process replicas) or `live_cluster --client-listen`
//! (one pool per process); the yardstick benchmark drives it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod limiter;
pub mod mempool;
pub mod wire;

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// The mempool's mutexes protect plain collections that stay
/// structurally valid at any point the holder could panic; propagating
/// poison would let one panicking client session take down `draft` /
/// `committed` on the consensus path with it.
pub(crate) fn relock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

pub use iniva_consensus::chain::RequestSource;
pub use limiter::TokenBucket;
pub use mempool::{CommitInbox, CommitNote, IngressOptions, IngressStats, Mempool};
pub use wire::{
    read_frame, write_frame, ClientMsg, SubmitStatus, MAX_CLIENT_FRAME, MAX_CLIENT_PAYLOAD,
};
