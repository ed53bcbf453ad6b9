//! Bounded, fee-ordered mempool with (client, nonce) dedup.
//!
//! The mempool is the bridge between untrusted client traffic and the
//! proposer: admission happens on ingress connection threads via
//! [`Mempool::submit`], and whichever replica currently proposes drains
//! it through the [`RequestSource`] hook (`draft` claims the
//! highest-fee entries for a block's sequence range, `committed`
//! settles a range once the commit rule fires and returns
//! submit-to-commit latencies, `release` re-queues the range of a block
//! that lost its height to another commit).
//!
//! Each sequence number names exactly one claim: a draft starting below
//! the highest sequence number drafted so far claims nothing. So the
//! entries under a block's range are that block's and no other's, and
//! neither a commit nor a release can settle or take back another
//! block's requests.
//!
//! Accounting invariant, preserved end to end:
//! `committed ≤ drafted − released ≤ admitted ≤ offered`. Every counter
//! below is monotone; a released entry that is drafted again counts in
//! `drafted` twice and in `released` once. The current queue depth is
//! `admitted − (drafted − released) − evicted`, and a drafted entry
//! commits, is released back to the queue, or — past the ledger bound
//! only — is abandoned.
//!
//! Policy:
//! - **ordering** — highest fee drafts first; FIFO within a fee level.
//! - **full** — a new submission evicts the cheapest queued entry only
//!   if it outbids it (strictly higher fee); the evicted client may
//!   resubmit. Otherwise the newcomer is shed with an explicit `Busy`.
//! - **dedup** — (client, nonce) pairs stay reserved from admission
//!   until commit, eviction or abandonment (a release keeps the
//!   reservation), so replayed submits get `Duplicate` instead of
//!   burning block space.
//! - **release** — a released entry goes back where it stood: its fee,
//!   its admission order and its admission time (latency still runs
//!   from there). The queue bound holds for it like for a submission.
//!
//! Blocks in this reproduction carry size-modeled payloads (`batch_start`,
//! `batch_len`, `payload_per_req`), so the mempool accounts for payload
//! *sizes* and fee ordering but drops the opaque payload bytes at
//! admission — what flows into a block is the admission itself.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use iniva_consensus::chain::RequestSource;
use iniva_consensus::types::Block;
use iniva_obs::{Counter, EventKind, Gauge, Histogram, Registry, Tracer};

use crate::wire::SubmitStatus;

/// Ingress tier configuration: mempool bounds plus the per-connection
/// admission rate. One struct serves the cluster builder, the TOML
/// config, and the CLI.
#[derive(Debug, Clone)]
pub struct IngressOptions {
    /// Maximum queued (admitted, not yet drafted) entries.
    pub capacity: usize,
    /// Sustained per-connection submit rate (submits/sec) enforced by a
    /// token bucket on each connection thread; `0` disables limiting.
    pub rate_per_client: u64,
    /// Token bucket depth: how large a burst a client may front-load.
    pub burst: u64,
}

impl Default for IngressOptions {
    fn default() -> Self {
        IngressOptions {
            capacity: 65_536,
            rate_per_client: 1_000,
            burst: 256,
        }
    }
}

/// An admitted entry waiting in the queue.
struct Queued {
    client: u64,
    nonce: u64,
    admitted_ns: u64,
}

/// A drafted entry awaiting commit, keyed by its block sequence number.
/// It keeps its queue place (`fee`, admission `order`) for a release.
struct Drafted {
    client: u64,
    nonce: u64,
    admitted_ns: u64,
    fee: u64,
    order: u64,
}

#[derive(Default)]
struct Inner {
    /// Admission order id → entry. Order ids are unique forever.
    queued: HashMap<u64, Queued>,
    /// (fee, Reverse(order)): max element = highest fee, oldest within
    /// the fee (drafting pops the back); min element = lowest fee,
    /// newest within the fee (eviction pops the front).
    by_fee: BTreeSet<(u64, Reverse<u64>)>,
    /// Reserved (client, nonce) pairs: queued or drafted-not-settled.
    dedup: HashSet<(u64, u64)>,
    /// seq → drafted entry, settled, released or abandoned.
    ledger: BTreeMap<u64, Drafted>,
    /// One past the highest seq ever drafted: every seq below it names
    /// a claim already, so a draft starting below it claims nothing.
    drafted_end: u64,
    next_order: u64,
}

/// Monotone counters snapshot; see the module docs for the invariant.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngressStats {
    /// Submits that reached admission (including ones shed there) plus
    /// rate-limited submits acked `Busy` on the connection thread.
    pub offered: u64,
    /// Submits admitted to the queue.
    pub admitted: u64,
    /// Submits refused as (client, nonce) replays.
    pub duplicates: u64,
    /// Submits acked `Busy` by the per-connection token bucket.
    pub shed_busy: u64,
    /// Submits acked `Busy` because the queue was full and the fee did
    /// not outbid the cheapest queued entry.
    pub shed_full: u64,
    /// Admitted entries later displaced by a higher-fee submission.
    pub evicted: u64,
    /// Entries drafted into proposed blocks.
    pub drafted: u64,
    /// Drafted entries whose block committed.
    pub committed: u64,
    /// Drafted entries put back in the queue because their block lost
    /// its height to another commit.
    pub released: u64,
    /// Drafted entries given up on: the oldest past the ledger bound.
    pub abandoned: u64,
    /// Current queue depth.
    pub depth: u64,
    /// Highest committed block height observed.
    pub committed_height: u64,
}

/// One commit notification for a followed connection: the submission
/// identified by `nonce` settled in the block at `height`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitNote {
    /// The client-chosen nonce of the committed submission.
    pub nonce: u64,
    /// Height of the block that carried it.
    pub height: u64,
}

/// Pending notifications beyond this are dropped oldest-first: a client
/// that stops reading cannot grow replica memory, and a dropped note
/// degrades to the pre-push world (the client falls back to `Query`).
const INBOX_CAP: usize = 4096;

/// A per-connection mailbox of [`CommitNote`]s, filled by
/// [`RequestSource::committed`] on whichever thread settles the block and
/// drained by the connection that called [`Mempool::follow`].
pub struct CommitInbox {
    notes: Mutex<VecDeque<CommitNote>>,
    /// Invoked (outside all locks) after new notes land, so a
    /// readiness-driven server can schedule a flush.
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl CommitInbox {
    fn new() -> CommitInbox {
        CommitInbox {
            notes: Mutex::new(VecDeque::new()),
            waker: Mutex::new(None),
        }
    }

    /// Installs the wakeup hook run after each push batch.
    pub fn set_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        *crate::relock(&self.waker) = Some(waker);
    }

    /// Takes every pending note.
    pub fn drain(&self) -> Vec<CommitNote> {
        crate::relock(&self.notes).drain(..).collect()
    }

    fn push(&self, note: CommitNote) {
        let mut g = crate::relock(&self.notes);
        if g.len() >= INBOX_CAP {
            g.pop_front();
        }
        g.push_back(note);
    }

    fn wake(&self) {
        if let Some(w) = crate::relock(&self.waker).as_ref() {
            // A waker is caller-supplied code running on the commit path;
            // if it panics, the panic must stop here — otherwise one broken
            // follower connection kills `committed()` for the whole node.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(w));
        }
    }
}

/// The shared mempool. In-process clusters share one instance across
/// every replica's ingress listener (mirroring the shared committee
/// keyring); multi-process deployments get one per process.
pub struct Mempool {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Drafted-but-unsettled entries beyond this are abandoned oldest
    /// first, bounding memory under sustained view failures.
    ledger_cap: usize,
    epoch: Instant,
    next_client: AtomicU64,
    committed_height: AtomicU64,
    /// client id → commit inbox, for connections that sent `Follow`.
    subscribers: Mutex<HashMap<u64, Arc<CommitInbox>>>,
    registry: Registry,
    offered: Counter,
    admitted: Counter,
    duplicates: Counter,
    shed_busy: Counter,
    shed_full: Counter,
    evicted: Counter,
    drafted: Counter,
    committed: Counter,
    released: Counter,
    abandoned: Counter,
    payload_bytes: Counter,
    depth: Gauge,
    height_gauge: Gauge,
    latency: Histogram,
    tracer: Mutex<Tracer>,
}

impl Mempool {
    /// Creates an empty mempool with the given bounds.
    pub fn new(opts: &IngressOptions) -> Mempool {
        let registry = Registry::new();
        Mempool {
            inner: Mutex::new(Inner::default()),
            capacity: opts.capacity.max(1),
            ledger_cap: opts.capacity.max(1).saturating_mul(4),
            epoch: Instant::now(),
            next_client: AtomicU64::new(0),
            committed_height: AtomicU64::new(0),
            subscribers: Mutex::new(HashMap::new()),
            offered: registry.counter("ingress.offered"),
            admitted: registry.counter("ingress.admitted"),
            duplicates: registry.counter("ingress.duplicates"),
            shed_busy: registry.counter("ingress.shed_busy"),
            shed_full: registry.counter("ingress.shed_full"),
            evicted: registry.counter("ingress.evicted"),
            drafted: registry.counter("ingress.drafted"),
            committed: registry.counter("ingress.committed"),
            released: registry.counter("ingress.released"),
            abandoned: registry.counter("ingress.abandoned"),
            payload_bytes: registry.counter("ingress.payload_bytes"),
            depth: registry.gauge("ingress.depth"),
            height_gauge: registry.gauge("ingress.committed_height"),
            latency: registry.histogram("ingress.submit_to_commit_ns"),
            registry,
            tracer: Mutex::new(Tracer::disabled()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Allocates a connection-scoped client id, unique across every
    /// server sharing this pool.
    pub fn next_client_id(&self) -> u64 {
        // ORDER: the counter only needs unique values; no other memory is
        // published through it.
        self.next_client.fetch_add(1, Ordering::Relaxed)
    }

    /// Attaches a tracer; drafts emit [`EventKind::IngressBatch`] and
    /// releases [`EventKind::IngressRelease`].
    pub fn set_tracer(&self, tracer: Tracer) {
        *crate::relock(&self.tracer) = tracer;
    }

    /// Admission decision for one submit. Counted as offered either way.
    pub fn submit(&self, client: u64, nonce: u64, fee: u64, payload_len: usize) -> SubmitStatus {
        self.offered.inc();
        let mut g = crate::relock(&self.inner);
        if !g.dedup.insert((client, nonce)) {
            self.duplicates.inc();
            return SubmitStatus::Duplicate;
        }
        if g.queued.len() >= self.capacity {
            // Full: the newcomer must outbid the cheapest queued entry.
            if g.by_fee.first().is_some_and(|&(low_fee, _)| low_fee < fee) {
                self.evict_cheapest(&mut g);
            } else {
                g.dedup.remove(&(client, nonce));
                self.shed_full.inc();
                return SubmitStatus::Busy;
            }
        }
        let order = g.next_order;
        g.next_order += 1;
        g.queued.insert(
            order,
            Queued {
                client,
                nonce,
                admitted_ns: self.now_ns(),
            },
        );
        g.by_fee.insert((fee, Reverse(order)));
        self.admitted.inc();
        self.payload_bytes.add(payload_len as u64);
        self.depth.set(g.queued.len() as u64);
        SubmitStatus::Accepted
    }

    /// Drops the cheapest queued entry (newest within its fee) and frees
    /// its nonce; `false` when nothing is queued.
    fn evict_cheapest(&self, g: &mut Inner) -> bool {
        let Some((_, Reverse(order))) = g.by_fee.pop_first() else {
            return false;
        };
        // by_fee and queued are kept in sync, but a desync must degrade to
        // a mis-counted eviction, not a panic on the submit path.
        if let Some(old) = g.queued.remove(&order) {
            g.dedup.remove(&(old.client, old.nonce));
        }
        self.evicted.inc();
        true
    }

    /// Records a submit shed by a connection's token bucket (the
    /// connection thread acks `Busy` without touching the queue).
    pub fn note_rate_limited(&self) {
        self.offered.inc();
        self.shed_busy.inc();
    }

    /// Highest committed block height settled through this pool.
    pub fn committed_height(&self) -> u64 {
        // ORDER: monotone watermark read for acks/queries; callers need no
        // happens-before with the commit that raised it.
        self.committed_height.load(Ordering::Relaxed)
    }

    /// The `ingress.*` metrics series (counters, depth gauge, and the
    /// submit-to-commit latency histogram).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The submit-to-commit latency histogram (nanoseconds).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Typed counters snapshot.
    pub fn stats(&self) -> IngressStats {
        IngressStats {
            offered: self.offered.get(),
            admitted: self.admitted.get(),
            duplicates: self.duplicates.get(),
            shed_busy: self.shed_busy.get(),
            shed_full: self.shed_full.get(),
            evicted: self.evicted.get(),
            drafted: self.drafted.get(),
            committed: self.committed.get(),
            released: self.released.get(),
            abandoned: self.abandoned.get(),
            depth: self.depth.get(),
            committed_height: self.committed_height(),
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        crate::relock(&self.inner).queued.len()
    }

    /// Subscribes `client`'s connection to commit pushes: every later
    /// settlement of one of its drafted submissions lands in the returned
    /// inbox (idempotent — a repeated `Follow` reuses the same inbox).
    pub fn follow(&self, client: u64) -> Arc<CommitInbox> {
        Arc::clone(
            crate::relock(&self.subscribers)
                .entry(client)
                .or_insert_with(|| Arc::new(CommitInbox::new())),
        )
    }

    /// Drops `client`'s subscription (connection closed).
    pub fn unfollow(&self, client: u64) {
        crate::relock(&self.subscribers).remove(&client);
    }
}

impl RequestSource for Mempool {
    fn draft(&self, start: u64, max: u32) -> u32 {
        let mut g = crate::relock(&self.inner);
        if start < g.drafted_end {
            return 0;
        }
        let mut n: u32 = 0;
        while n < max {
            let Some(&(fee, Reverse(order))) = g.by_fee.iter().next_back() else {
                break;
            };
            g.by_fee.remove(&(fee, Reverse(order)));
            // A by_fee/queued desync must skip the stale fee entry, not
            // panic on the proposer's draft path.
            let Some(e) = g.queued.remove(&order) else {
                continue;
            };
            g.ledger.insert(
                start + n as u64,
                Drafted {
                    client: e.client,
                    nonce: e.nonce,
                    admitted_ns: e.admitted_ns,
                    fee,
                    order,
                },
            );
            n += 1;
        }
        if n > 0 {
            g.drafted_end = start.saturating_add(n as u64);
        }
        // Bound drafted-but-unsettled state: abandon the oldest ranges
        // (their blocks died unreleased long ago — a dead proposer's, or
        // one past a state-transfer gap) and free the nonces.
        while g.ledger.len() > self.ledger_cap {
            let Some((_, d)) = g.ledger.pop_first() else {
                break; // len() > cap >= 1 implies non-empty; never panic here
            };
            g.dedup.remove(&(d.client, d.nonce));
            self.abandoned.inc();
        }
        if n > 0 {
            self.drafted.add(n as u64);
        }
        self.depth.set(g.queued.len() as u64);
        let depth = g.queued.len() as u64;
        drop(g);
        let tracer = crate::relock(&self.tracer).clone();
        if tracer.enabled() && n > 0 {
            tracer.emit(
                tracer.now(),
                EventKind::IngressBatch {
                    start,
                    len: n,
                    depth,
                },
            );
        }
        n
    }

    fn drafted_end(&self) -> u64 {
        crate::relock(&self.inner).drafted_end
    }

    fn release(&self, dead: &Block) {
        let end = dead.batch_start.saturating_add(dead.batch_len as u64);
        let mut g = crate::relock(&self.inner);
        let seqs: Vec<u64> = g
            .ledger
            .range(dead.batch_start..end)
            .map(|(&seq, _)| seq)
            .collect();
        let mut requeued = 0u32;
        for seq in seqs {
            let Some(d) = g.ledger.remove(&seq) else {
                continue;
            };
            g.queued.insert(
                d.order,
                Queued {
                    client: d.client,
                    nonce: d.nonce,
                    admitted_ns: d.admitted_ns,
                },
            );
            g.by_fee.insert((d.fee, Reverse(d.order)));
            requeued += 1;
        }
        // Past capacity the cheapest, newest entries give way, as they
        // would to a higher bid — a released one included.
        while g.queued.len() > self.capacity && self.evict_cheapest(&mut g) {}
        if requeued == 0 {
            return;
        }
        self.released.add(requeued as u64);
        self.depth.set(g.queued.len() as u64);
        drop(g);
        let tracer = crate::relock(&self.tracer).clone();
        if tracer.enabled() {
            tracer.emit(
                tracer.now(),
                EventKind::IngressRelease {
                    view: dead.view,
                    height: dead.height,
                    start: dead.batch_start,
                    len: dead.batch_len,
                    requeued,
                },
            );
        }
    }

    fn committed(&self, height: u64, start: u64, len: u32) -> Vec<u64> {
        let now = self.now_ns();
        let mut latencies = Vec::new();
        let mut settled: Vec<(u64, u64)> = Vec::new();
        let mut g = crate::relock(&self.inner);
        for seq in start..start.saturating_add(len as u64) {
            if let Some(d) = g.ledger.remove(&seq) {
                g.dedup.remove(&(d.client, d.nonce));
                settled.push((d.client, d.nonce));
                let lat = now.saturating_sub(d.admitted_ns);
                self.latency.record(lat);
                latencies.push(lat);
            }
        }
        drop(g);
        if !latencies.is_empty() {
            self.committed.add(latencies.len() as u64);
        }
        // ORDER: monotone watermark; readers only compare against it (see
        // `committed_height`), no other memory is published through it.
        self.committed_height.fetch_max(height, Ordering::Relaxed);
        self.height_gauge.raise(height);
        // Commit-push: deliver notes to followed connections. Inboxes are
        // collected under the subscriber lock but filled and woken outside
        // it, so a waker can never deadlock back into the mempool.
        if !settled.is_empty() {
            let mut notify: Vec<(Arc<CommitInbox>, u64)> = Vec::new();
            {
                let subs = crate::relock(&self.subscribers);
                if !subs.is_empty() {
                    for &(client, nonce) in &settled {
                        if let Some(inbox) = subs.get(&client) {
                            notify.push((Arc::clone(inbox), nonce));
                        }
                    }
                }
            }
            for (inbox, nonce) in &notify {
                inbox.push(CommitNote {
                    nonce: *nonce,
                    height,
                });
            }
            let mut woken: Vec<*const CommitInbox> = Vec::new();
            for (inbox, _) in &notify {
                let p = Arc::as_ptr(inbox);
                if !woken.contains(&p) {
                    woken.push(p);
                    inbox.wake();
                }
            }
        }
        latencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool(capacity: usize) -> Mempool {
        Mempool::new(&IngressOptions {
            capacity,
            ..IngressOptions::default()
        })
    }

    #[test]
    fn duplicate_nonces_rejected_until_committed() {
        let pool = small_pool(8);
        assert_eq!(pool.submit(1, 7, 10, 4), SubmitStatus::Accepted);
        assert_eq!(pool.submit(1, 7, 99, 4), SubmitStatus::Duplicate);
        // Still reserved while drafted.
        assert_eq!(pool.draft(0, 8), 1);
        assert_eq!(pool.submit(1, 7, 99, 4), SubmitStatus::Duplicate);
        // Freed after commit.
        assert_eq!(pool.committed(1, 0, 1).len(), 1);
        assert_eq!(pool.submit(1, 7, 99, 4), SubmitStatus::Accepted);
    }

    #[test]
    fn draft_pops_highest_fee_fifo_within_fee() {
        let pool = small_pool(8);
        pool.submit(0, 0, 5, 0);
        pool.submit(1, 0, 9, 0);
        pool.submit(2, 0, 5, 0);
        pool.submit(3, 0, 9, 0);
        assert_eq!(pool.draft(0, 3), 3);
        // seq 0 = fee 9 from client 1 (oldest of the 9s), seq 1 = fee 9
        // from client 3, seq 2 = fee 5 from client 0. Settle and check
        // which nonces free up in that order.
        pool.committed(1, 0, 2);
        assert_eq!(pool.submit(1, 0, 1, 0), SubmitStatus::Accepted);
        assert_eq!(pool.submit(3, 0, 1, 0), SubmitStatus::Accepted);
        assert_eq!(pool.submit(0, 0, 1, 0), SubmitStatus::Duplicate); // still drafted
    }

    #[test]
    fn full_pool_sheds_unless_outbid() {
        let pool = small_pool(2);
        assert_eq!(pool.submit(0, 0, 5, 0), SubmitStatus::Accepted);
        assert_eq!(pool.submit(1, 0, 7, 0), SubmitStatus::Accepted);
        // Equal fee does not displace.
        assert_eq!(pool.submit(2, 0, 5, 0), SubmitStatus::Busy);
        // A higher bid evicts the cheapest (client 0) and frees its nonce.
        assert_eq!(pool.submit(3, 0, 6, 0), SubmitStatus::Accepted);
        assert_eq!(pool.submit(0, 0, 8, 0), SubmitStatus::Accepted);
        let s = pool.stats();
        assert_eq!(s.shed_full, 1);
        assert_eq!(s.evicted, 2); // fee-6 entry evicted in turn by fee-8
        assert_eq!(s.depth, 2);
    }

    #[test]
    fn eviction_prefers_newest_within_cheapest_fee() {
        let pool = small_pool(2);
        pool.submit(0, 0, 5, 0);
        pool.submit(1, 0, 5, 0);
        assert_eq!(pool.submit(2, 0, 9, 0), SubmitStatus::Accepted);
        // Client 1 (newest fee-5) was evicted — its nonce is free again
        // (Busy, not Duplicate: the still-full pool sheds the low bid) —
        // while client 0 remains queued and dedup'd.
        assert_eq!(pool.submit(1, 0, 1, 0), SubmitStatus::Busy);
        assert_eq!(pool.submit(0, 0, 1, 0), SubmitStatus::Duplicate);
    }

    /// A block of `view` at `height` over the range `start..start+len`.
    fn block(view: u64, height: u64, start: u64, len: u32) -> Block {
        Block {
            view,
            height,
            parent: iniva_consensus::types::GENESIS_HASH,
            proposer: 0,
            batch_start: start,
            batch_len: len,
            payload_per_req: 0,
        }
    }

    #[test]
    fn accounting_invariant_holds_under_churn() {
        let pool = small_pool(16);
        let mut next = 0u64;
        for round in 0..40u64 {
            // Oversubscribed (evictions), with replays (duplicates).
            for i in 0..9u64 {
                let id = round * 9 + i;
                pool.submit(id % 8, id % 50, id % 13, 32);
            }
            let n = pool.draft(next, 7);
            assert_eq!(pool.draft(next, 7), 0, "a seq names one claim");
            let drafted = block(round + 1, round + 1, next, n);
            match round % 3 {
                0 => {
                    pool.committed(round + 1, next, n);
                }
                1 => {
                    // Lost its height: back to the queue, twice to no
                    // further effect.
                    pool.release(&drafted);
                    pool.release(&drafted);
                }
                _ => {} // still in flight
            }
            next += n as u64;
            let s = pool.stats();
            let net_drafted = s.drafted - s.released;
            assert!(s.committed <= net_drafted, "{s:?}");
            assert!(net_drafted <= s.admitted, "{s:?}");
            assert!(s.admitted <= s.offered, "{s:?}");
            assert_eq!(s.admitted - net_drafted - s.evicted, s.depth, "{s:?}");
            assert_eq!(s.depth, pool.depth() as u64, "{s:?}");
            assert_eq!(
                s.offered,
                s.admitted + s.duplicates + s.shed_full + s.shed_busy,
                "{s:?}"
            );
        }
        // Every way out of the queue and the ledger was taken (the
        // never-settled thirds overflow the ledger bound of 64).
        let s = pool.stats();
        assert!(s.released > 0 && s.evicted > 0 && s.abandoned > 0, "{s:?}");
        assert!(s.duplicates > 0 && s.shed_full > 0, "{s:?}");
    }

    /// A dead block's requests come back: to their old queue place, under
    /// their reserved nonces, with their admission time — once.
    mod release_tests {
        use super::*;

        #[test]
        fn a_release_requeues_in_the_old_fee_and_fifo_place() {
            let pool = small_pool(8);
            pool.submit(0, 0, 5, 0);
            pool.submit(1, 0, 9, 0);
            pool.submit(2, 0, 9, 0);
            assert_eq!(pool.draft(0, 2), 2); // clients 1 and 2
            pool.submit(3, 0, 9, 0); // same fee, admitted after them
            std::thread::sleep(std::time::Duration::from_millis(20));
            let dead = block(4, 3, 0, 2);
            pool.release(&dead);
            let s = pool.stats();
            assert_eq!((s.released, s.depth), (2, 4), "{s:?}");
            // Still reserved while re-queued: a replay is refused.
            assert_eq!(pool.submit(1, 0, 99, 0), SubmitStatus::Duplicate);
            assert_eq!(pool.submit(2, 0, 99, 0), SubmitStatus::Duplicate);
            // A second release changes nothing.
            pool.release(&dead);
            let again = pool.stats();
            assert_eq!((again.released, again.depth), (2, 4), "{again:?}");
            // Re-drafted ahead of client 3's equal bid, oldest first, under
            // fresh seqs: settle one seq at a time and see whose nonce
            // frees.
            assert_eq!(pool.draft(2, 4), 4);
            for (seq, client) in [(2, 1), (3, 2), (4, 3), (5, 0)] {
                assert_eq!(pool.submit(client, 0, 1, 0), SubmitStatus::Duplicate);
                let latencies = pool.committed(seq, seq, 1);
                assert_eq!(latencies.len(), 1);
                assert_eq!(pool.submit(client, 0, 1, 0), SubmitStatus::Accepted);
                if client == 1 || client == 2 {
                    assert!(
                        latencies[0] >= 20_000_000,
                        "latency runs from the first admission: {latencies:?}"
                    );
                }
            }
            assert_eq!(pool.stats().committed, 4);
        }

        #[test]
        fn a_stale_draft_below_the_high_water_drafts_nothing() {
            let pool = small_pool(8);
            for client in 0..4 {
                pool.submit(client, 0, 5, 0);
            }
            assert_eq!(pool.draft(10, 2), 2);
            assert_eq!(pool.drafted_end(), 12);
            // A proposer that never saw that block drafts the same or an
            // overlapping range: it claims nothing.
            assert_eq!(pool.draft(10, 2), 0);
            assert_eq!(pool.draft(11, 2), 0);
            assert_eq!(pool.draft(0, 2), 0);
            let s = pool.stats();
            assert_eq!((s.drafted, s.depth, s.abandoned), (2, 2, 0), "{s:?}");
            // The stale block's range [10, 12) — were it to die — takes back
            // the first block's entries only, and they are still whole.
            pool.release(&block(3, 2, 10, 2));
            assert_eq!(pool.stats().released, 2);
            assert_eq!(pool.draft(12, 8), 4);
            assert_eq!(pool.committed(3, 12, 4).len(), 4);
        }

        #[test]
        fn a_release_stays_inside_the_queue_bound() {
            let pool = small_pool(2);
            pool.submit(0, 0, 5, 0);
            pool.submit(1, 0, 5, 0);
            assert_eq!(pool.draft(0, 2), 2);
            pool.submit(2, 0, 9, 0);
            pool.submit(3, 0, 1, 0);
            pool.release(&block(1, 1, 0, 2));
            // Four entries for two slots: the cheapest (client 3) and the
            // newest of the fee-5 pair (client 1) give way.
            let s = pool.stats();
            assert_eq!((s.depth, s.released, s.evicted), (2, 2, 2), "{s:?}");
            assert_eq!(pool.submit(0, 0, 1, 0), SubmitStatus::Duplicate);
            assert_eq!(pool.submit(2, 0, 1, 0), SubmitStatus::Duplicate);
            // Freed (Busy, not Duplicate: the full pool sheds the low bid).
            assert_eq!(pool.submit(1, 0, 1, 0), SubmitStatus::Busy);
            assert_eq!(pool.submit(3, 0, 1, 0), SubmitStatus::Busy);
        }
    }

    #[test]
    fn committed_latencies_settle_once() {
        let pool = small_pool(8);
        pool.submit(0, 0, 1, 0);
        pool.submit(0, 1, 1, 0);
        assert_eq!(pool.draft(10, 8), 2);
        assert_eq!(pool.committed(3, 10, 2).len(), 2);
        // A second replica reporting the same range settles nothing new.
        assert_eq!(pool.committed(3, 10, 2).len(), 0);
        assert_eq!(pool.committed_height(), 3);
        assert_eq!(pool.latency().count(), 2);
    }

    #[test]
    fn followed_connections_get_commit_notes() {
        let pool = small_pool(8);
        let inbox = pool.follow(1);
        let woke = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&woke);
        inbox.set_waker(Box::new(move || {
            w.fetch_add(1, Ordering::SeqCst);
        }));
        pool.submit(1, 7, 10, 4);
        pool.submit(2, 3, 10, 4); // client 2 did not follow
        assert_eq!(pool.draft(0, 8), 2);
        pool.committed(5, 0, 2);
        assert_eq!(
            inbox.drain(),
            vec![CommitNote {
                nonce: 7,
                height: 5
            }]
        );
        assert!(woke.load(Ordering::SeqCst) >= 1, "waker never ran");
        // After unfollow, later commits are no longer delivered.
        pool.unfollow(1);
        pool.submit(1, 8, 10, 4);
        assert_eq!(pool.draft(2, 8), 1);
        pool.committed(6, 2, 1);
        assert!(inbox.drain().is_empty());
    }

    #[test]
    fn ledger_overflow_abandons_oldest_and_frees_nonces() {
        let pool = Mempool::new(&IngressOptions {
            capacity: 4,
            ..IngressOptions::default()
        });
        // ledger_cap = 16; draft 20 entries across failed views.
        for i in 0..20u64 {
            assert_eq!(pool.submit(9, i, 1, 0), SubmitStatus::Accepted);
            assert_eq!(pool.draft(i, 1), 1);
        }
        let s = pool.stats();
        assert_eq!(s.abandoned, 4);
        // The abandoned nonces (oldest four) are submittable again.
        assert_eq!(pool.submit(9, 0, 1, 0), SubmitStatus::Accepted);
        assert_eq!(pool.submit(9, 19, 1, 0), SubmitStatus::Duplicate);
    }

    /// Poisons `m` the way a real incident would: a thread panics while
    /// holding the guard.
    fn poison<T: Send>(m: &std::sync::Mutex<T>) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _g = m.lock().unwrap();
                    panic!("poison");
                })
                .join();
        });
        assert!(m.lock().is_err(), "mutex should be poisoned");
    }

    /// Regression: a panic on one server thread used to poison the pool
    /// and turn every later `submit`/`draft`/`committed` into a panic,
    /// taking down all client connections at once. `relock` recovers the
    /// guard, so the pool keeps serving.
    #[test]
    fn poisoned_pool_keeps_serving_submit_draft_commit() {
        let pool = small_pool(8);
        assert_eq!(pool.submit(1, 0, 10, 4), SubmitStatus::Accepted);
        poison(&pool.inner);
        assert_eq!(pool.submit(1, 1, 10, 4), SubmitStatus::Accepted);
        assert_eq!(pool.draft(0, 8), 2);
        assert_eq!(pool.committed(1, 0, 2).len(), 2);
        assert_eq!(pool.stats().committed, 2);
    }

    /// Regression: a follower's waker is caller-supplied code running on
    /// the commit path; one panicking waker used to unwind through
    /// `committed()` and kill settlement for the whole node.
    #[test]
    fn panicking_waker_does_not_unwind_into_committed() {
        let pool = small_pool(8);
        let inbox = pool.follow(1);
        inbox.set_waker(Box::new(|| panic!("broken follower")));
        assert_eq!(pool.submit(1, 0, 10, 4), SubmitStatus::Accepted);
        assert_eq!(pool.draft(0, 8), 1);
        // The waker panics inside this call; it must still settle.
        assert_eq!(pool.committed(1, 0, 1).len(), 1);
        assert_eq!(inbox.drain().len(), 1);
        // And the inbox stays usable afterwards.
        assert_eq!(pool.submit(1, 1, 10, 4), SubmitStatus::Accepted);
        assert_eq!(pool.draft(1, 8), 1);
        assert_eq!(pool.committed(2, 1, 1).len(), 1);
        assert_eq!(inbox.drain().len(), 1);
    }
}
