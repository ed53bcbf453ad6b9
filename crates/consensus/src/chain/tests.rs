use super::*;
use crate::leader::CAROUSEL_WINDOW_EPOCH;
use crate::types::vote_message;
use iniva_crypto::sim_scheme::SimScheme;

fn scheme() -> SimScheme {
    SimScheme::new(4, b"chain-test")
}

fn qc_for(s: &SimScheme, b: &Block) -> Qc<SimScheme> {
    let msg = vote_message(&b.hash(), b.view);
    let mut agg = s.sign(0, &msg);
    for i in 1..3 {
        agg = s.combine(&agg, &s.sign(i, &msg));
    }
    Qc {
        block_hash: b.hash(),
        view: b.view,
        height: b.height,
        agg,
    }
}

/// The window as `(height, hash)` pairs: in these short chains, the
/// whole committed prefix.
fn window_log(chain: &ChainState<SimScheme>) -> Vec<(u64, BlockHash)> {
    chain.window.iter().map(|e| (e.height, e.hash)).collect()
}

/// State transfer of a chunk of one: whether the block joined the prefix.
fn adopt_one(
    chain: &mut ChainState<SimScheme>,
    b: Block,
    qc: Qc<SimScheme>,
    s: &SimScheme,
) -> bool {
    chain.adopt_committed_batch(vec![(b, qc)], s).adopted == 1
}

fn extend(chain: &mut ChainState<SimScheme>, view: u64, s: &SimScheme) -> Block {
    let b = chain.draft_block(view, 0, 0, 0, 0);
    chain.insert_block(b.clone());
    chain.on_qc(qc_for(s, &b), 1000, s);
    b
}

#[test]
fn three_consecutive_views_commit() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    extend(&mut chain, 1, &s);
    assert_eq!(chain.committed_height(), 0);
    extend(&mut chain, 2, &s);
    assert_eq!(chain.committed_height(), 0);
    extend(&mut chain, 3, &s);
    // Blocks at views 1,2,3: the QC for view 3 commits the view-1 block.
    assert_eq!(chain.committed_height(), 1);
    extend(&mut chain, 4, &s);
    assert_eq!(chain.committed_height(), 2);
    // The window records the prefix in order.
    let log = window_log(&chain);
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].0, 1);
    assert_eq!(log[1].0, 2);
    assert_ne!(log[0].1, log[1].1);
}

#[test]
fn view_gap_delays_commit() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    extend(&mut chain, 1, &s);
    extend(&mut chain, 2, &s);
    extend(&mut chain, 5, &s); // gap: 2 -> 5
    assert_eq!(
        chain.committed_height(),
        0,
        "non-consecutive views must not commit"
    );
    extend(&mut chain, 6, &s);
    assert_eq!(chain.committed_height(), 0);
    extend(&mut chain, 7, &s);
    // 5,6,7 consecutive: commits the block from view 5 (height 3).
    assert_eq!(chain.committed_height(), 3);
}

#[test]
fn batching_respects_arrival_times() {
    let mut chain: ChainState<SimScheme> = ChainState::new(1000); // 1 req/ms
                                                                  // At t = 10 ms, 11 requests have arrived (0..=10).
    let b = chain.draft_block(1, 0, 10_000_000, 100, 64);
    assert_eq!(b.batch_len, 11);
    // Batch cap applies.
    let b = chain.draft_block(1, 0, 1_000_000_000, 100, 64);
    assert_eq!(b.batch_len, 100);
}

#[test]
fn pipelined_drafts_never_rebatch_uncommitted_ranges() {
    let chain: &mut ChainState<SimScheme> = &mut ChainState::new(1000); // 1 req/ms
    let s = scheme();
    // The 2-view commit pipeline: each block is drafted with the
    // previous one QC'd but **not yet committed** — the committed prefix
    // alone cannot see those in-flight ranges, only the draft cursor can.
    let b1 = chain.draft_block(1, 0, 1_000_000, 100, 64);
    assert_eq!((b1.batch_start, b1.batch_len), (0, 2));
    chain.insert_block(b1.clone());
    chain.on_qc(qc_for(&s, &b1), 1_500_000, &s);
    assert_eq!(chain.committed_height(), 0, "b1 is QC'd, not committed");
    let b2 = chain.draft_block(2, 1, 2_000_000, 100, 64);
    assert_eq!(
        b2.batch_start,
        b1.batch_start + b1.batch_len as u64,
        "draft cursor must skip the in-flight range"
    );
    chain.insert_block(b2.clone());
    chain.on_qc(qc_for(&s, &b2), 2_500_000, &s);
    // Nothing new arrived since b2's draft: an empty batch, not a
    // replay of b1/b2's requests (the pre-cursor code re-batched here).
    let b3 = chain.draft_block(3, 2, 2_000_000, 100, 64);
    assert_eq!(b3.batch_len, 0);
    chain.insert_block(b3.clone());
    chain.on_qc(qc_for(&s, &b3), 5_000_000, &s); // commits b1
                                                 // Two filler views flush b2 and b3 through the three-chain rule:
                                                 // the disjoint ranges count each request exactly once.
    let b4 = chain.draft_block(4, 0, 2_000_000, 100, 64);
    chain.insert_block(b4.clone());
    chain.on_qc(qc_for(&s, &b4), 5_000_000, &s); // commits b2
    let b5 = chain.draft_block(5, 0, 2_000_000, 100, 64);
    chain.insert_block(b5.clone());
    chain.on_qc(qc_for(&s, &b5), 6_000_000, &s); // commits b3
    assert_eq!(chain.committed_height(), 3, "b1..b3 committed");
    assert_eq!(
        chain.metrics.committed_reqs, 3,
        "each request commits exactly once"
    );
    assert_eq!(chain.metrics.last_commit_time, 6_000_000);
    assert_eq!(chain.metrics.commits_since(6_000_000), 1);
    assert_eq!(chain.metrics.commits_since(6_000_001), 0);
}

/// A replica that never received the block holding a request
/// source's latest claims still drafts past them: its own cursor
/// cannot see that range, the source's `drafted_end` can.
#[test]
fn drafts_start_past_the_sources_claimed_range() {
    struct Claimed(u64);
    impl RequestSource for Claimed {
        fn draft(&self, start: u64, max: u32) -> u32 {
            if start < self.0 {
                0
            } else {
                max
            }
        }
        fn drafted_end(&self) -> u64 {
            self.0
        }
        fn committed(&self, _: u64, _: u64, _: u32) -> Vec<u64> {
            Vec::new()
        }
    }
    let mut chain: ChainState<SimScheme> = ChainState::new(0);
    chain.set_request_source(Arc::new(Claimed(40)));
    let b = chain.draft_block(1, 0, 0, 5, 0);
    assert_eq!((b.batch_start, b.batch_len), (40, 5));
}

/// A replica that keeps drafting while nothing commits (its side of a
/// partition has no quorum) remembers a bounded number of drafts.
#[test]
fn remembered_drafts_stay_bounded_while_nothing_commits() {
    struct Endless;
    impl RequestSource for Endless {
        fn draft(&self, _: u64, max: u32) -> u32 {
            max
        }
        fn committed(&self, _: u64, _: u64, _: u32) -> Vec<u64> {
            Vec::new()
        }
    }
    let mut chain: ChainState<SimScheme> = ChainState::new(0);
    chain.set_request_source(Arc::new(Endless));
    for view in 1..=2 * RETAINED_COMMITS as u64 {
        let b = chain.draft_block(view, 0, 0, 1, 0);
        chain.insert_block(b);
    }
    assert_eq!(chain.proposed.len(), RETAINED_COMMITS);
}

#[test]
fn committed_requests_accumulate_latency() {
    let s = scheme();
    let mut chain = ChainState::new(1_000_000); // 1 req/µs
    for v in 1..=4 {
        let b = chain.draft_block(v, 0, v * 1_000_000, 10, 64);
        chain.insert_block(b.clone());
        chain.on_qc(qc_for(&s, &b), v * 1_000_000 + 500_000, &s);
    }
    assert!(chain.metrics.committed_reqs > 0);
    assert!(chain.metrics.mean_latency() > 0.0);
}

/// A sink that records everything it is shown.
#[derive(Default)]
struct RecordingSink {
    commits: std::sync::Arc<std::sync::Mutex<Vec<(u64, bool)>>>,
    views: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
}

impl CommitSink<SimScheme> for RecordingSink {
    fn committed(&mut self, items: &[(Block, Option<Qc<SimScheme>>)]) {
        self.commits
            .lock()
            .unwrap()
            .extend(items.iter().map(|(b, qc)| (b.height, qc.is_some())));
    }
    fn entered_view(&mut self, view: u64) {
        self.views.lock().unwrap().push(view);
    }
}

#[test]
fn sink_observes_commits_with_their_certificates() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    let sink = RecordingSink::default();
    let commits = std::sync::Arc::clone(&sink.commits);
    let views = std::sync::Arc::clone(&sink.views);
    chain.set_commit_sink(Box::new(sink));
    chain.note_view(1);
    for v in 1..=5 {
        extend(&mut chain, v, &s);
    }
    assert_eq!(chain.committed_height(), 3);
    // Each committed block was certified by an observed QC (the QC for
    // its child arrived via `extend`), so the sink saw proofs.
    assert_eq!(
        &*commits.lock().unwrap(),
        &[(1, true), (2, true), (3, true)]
    );
    assert_eq!(&*views.lock().unwrap(), &[1]);
    // The committed entries are servable for state transfer.
    for h in 1..=3 {
        let (b, qc) = chain.committed_entry(h).expect("entry retained");
        assert_eq!(b.height, h);
        assert_eq!(qc.block_hash, b.hash());
    }
    assert!(chain.committed_entry(4).is_none());
    assert!(chain.committed_entry(0).is_none());
}

#[test]
fn committed_tip_qc_tracks_commits_not_high_qc() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    assert!(chain.committed_tip_qc().is_none(), "no commit yet");
    extend(&mut chain, 1, &s);
    extend(&mut chain, 2, &s);
    assert!(
        chain.committed_tip_qc().is_none(),
        "high QC advanced but nothing committed"
    );
    extend(&mut chain, 3, &s); // commits height 1
    let qc = chain.committed_tip_qc().expect("committed tip QC retained");
    assert_eq!(qc.height, 1);
    assert_eq!(qc.view, 1);
    extend(&mut chain, 4, &s); // commits height 2
    assert_eq!(chain.committed_tip_qc().unwrap().height, 2);
}

#[test]
fn committed_proposers_ending_at_ignores_commits_past_the_boundary() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    assert!(chain.committed_proposers_ending_at(3, 3).is_empty());
    // Each view's block is proposed by a distinct replica.
    for v in 1..=6u64 {
        let mut b = chain.draft_block(v, 0, 0, 0, 0);
        b.proposer = v as u32;
        chain.insert_block(b.clone());
        chain.on_qc(qc_for(&s, &b), 1000, &s);
    }
    // Views 1..=6 commit heights 1..=4 (three-chain lag of 2).
    assert_eq!(chain.committed_height(), 4);
    // Boundary 2: heights (0, 2] regardless of how far the tip ran.
    assert_eq!(chain.committed_proposers_ending_at(2, 2), vec![1, 2]);
    // A replica one commit behind derives the same window for the same
    // boundary — the agreement property the quantization buys.
    let mut lagging = ChainState::new(1);
    for v in 1..=5u64 {
        let mut b = lagging.draft_block(v, 0, 0, 0, 0);
        b.proposer = v as u32;
        lagging.insert_block(b.clone());
        lagging.on_qc(qc_for(&s, &b), 1000, &s);
    }
    assert_eq!(lagging.committed_height(), 3);
    assert_eq!(
        lagging.committed_proposers_ending_at(2, 2),
        chain.committed_proposers_ending_at(2, 2)
    );
    // Boundary at the tip degenerates to the sliding window: the last
    // two committed blocks were proposed in views 3 and 4.
    assert_eq!(chain.committed_proposers_ending_at(4, 2), vec![3, 4]);
    // Asking for more than the chain holds returns all of it.
    assert_eq!(chain.committed_proposers_ending_at(4, 10), vec![1, 2, 3, 4]);
    // Boundary 0 (no epoch completed yet): empty window.
    assert!(chain.committed_proposers_ending_at(0, 2).is_empty());
}

/// Past the old fill-and-stop cap of the per-replica commit log, everything the
/// protocol reads back — the tip's certificate, a state-transfer
/// range, Carousel's sample — still tracks the tip, and memory holds
/// a window plus the in-flight blocks.
#[test]
fn reads_track_the_tip_past_the_old_log_cap() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    // One aggregate for every QC: the chain never verifies, and
    // signing 66k blocks would dominate a debug test run.
    let agg = qc_for(&s, &Block::genesis()).agg;
    let target = (COMMIT_POINTS_CAP + 1_000) as u64;
    let mut view = 0u64;
    while chain.committed_height() < target {
        view += 1;
        let mut b = chain.draft_block(view, 0, 0, 0, 0);
        b.proposer = (view % 4) as u32;
        chain.insert_block(b.clone());
        let qc = Qc {
            block_hash: b.hash(),
            view,
            height: b.height,
            agg: agg.clone(),
        };
        chain.on_qc(qc, view, &s);
    }
    let tip = chain.committed_height();
    assert_eq!(tip, target);
    assert_eq!(
        chain.metrics.commit_points.len(),
        COMMIT_POINTS_CAP,
        "progress curve cap"
    );

    let tip_qc = chain.committed_tip_qc().expect("the tip is certified");
    let (tip_block, _) = chain.committed_entry(tip).expect("tip retained");
    assert_eq!((tip_qc.height, tip_qc.block_hash), (tip, tip_block.hash()));

    let range = chain.committed_range(tip - 9, 10);
    let heights: Vec<u64> = range.iter().map(|(b, _)| b.height).collect();
    assert_eq!(heights, (tip - 9..=tip).collect::<Vec<_>>());
    assert!(range.iter().all(|(b, qc)| qc.block_hash == b.hash()));

    let f = 1; // (4 - 1) / 3
    let boundary = tip - tip % CAROUSEL_WINDOW_EPOCH;
    assert_eq!(
        chain.committed_proposers_ending_at(boundary, f),
        vec![(boundary % 4) as u32]
    );

    // In flight: the two QC'd blocks above the tip, and their QCs.
    assert_eq!(chain.window.len(), RETAINED_COMMITS);
    assert!(chain.window.iter().all(|e| e.qc.is_some()));
    assert!(chain.blocks.len() <= RETAINED_COMMITS + 2);
    assert!(chain.seen_qcs.len() <= 2);
    assert!(chain
        .committed_entry(tip - RETAINED_COMMITS as u64)
        .is_none());
}

#[test]
fn rehydrate_restores_prefix_without_counting_metrics() {
    let s = scheme();
    // Build a source chain and harvest its committed prefix + QCs.
    let mut source = ChainState::new(0);
    for v in 1..=6 {
        extend(&mut source, v, &s);
    }
    assert_eq!(source.committed_height(), 4);
    let prefix: Vec<(Block, Option<Qc<SimScheme>>)> = (1..=4)
        .map(|h| {
            let (b, qc) = source.committed_entry(h).unwrap();
            (b.clone(), Some(qc.clone()))
        })
        .collect();

    let mut recovered: ChainState<SimScheme> = ChainState::new(0);
    recovered.rehydrate(prefix);
    assert_eq!(recovered.committed_height(), 4);
    assert_eq!(recovered.metrics.recovered_blocks, 4);
    assert_eq!(recovered.metrics.committed_blocks, 0, "previous run's work");
    assert_eq!(recovered.metrics.commit_points.len(), 0);
    assert_eq!(window_log(&recovered).len(), 4);
    assert_eq!(window_log(&recovered), window_log(&source)[..4]);
    // The high QC is the certificate of the recovered tip, so the
    // replica proposes/votes from where it left off.
    assert_eq!(recovered.high_tip().1, 4);

    // A prefix that batched requests (1 req/ms, one view per ms): the
    // recovered leader's next draft starts where the prefix's batches
    // end, so it never re-proposes requests it already committed.
    let mut busy = ChainState::new(1000);
    for v in 1..=6 {
        let b = busy.draft_block(v, 0, v * 1_000_000, 100, 64);
        busy.insert_block(b.clone());
        busy.on_qc(qc_for(&s, &b), v * 1_000_000, &s);
    }
    let prefix: Vec<(Block, Option<Qc<SimScheme>>)> = (1..=4)
        .map(|h| {
            let (b, qc) = busy.committed_entry(h).unwrap();
            (b.clone(), Some(qc.clone()))
        })
        .collect();
    let end = batch_end(&prefix[3].0);
    assert_eq!(end, 5, "heights 1..=4 batched requests 0..5");
    let mut recovered: ChainState<SimScheme> = ChainState::new(1000);
    recovered.rehydrate(prefix);
    let next = recovered.draft_block(7, 0, 1_000_000_000, 100, 64);
    assert_eq!((next.batch_start, next.batch_len), (end, 100));
}

#[test]
fn adopt_committed_verifies_and_extends() {
    let s = scheme();
    let mut source = ChainState::new(0);
    for v in 1..=6 {
        extend(&mut source, v, &s);
    }
    assert_eq!(source.committed_height(), 4);
    let mut lagging: ChainState<SimScheme> = ChainState::new(0);
    let (b1, q1) = source.committed_entry(1).unwrap();
    let (b2, q2) = source.committed_entry(2).unwrap();
    let (b1, q1, b2, q2) = (b1.clone(), q1.clone(), b2.clone(), q2.clone());

    // A mismatched certificate is rejected.
    assert!(!adopt_one(&mut lagging, b2.clone(), q1.clone(), &s));
    assert!(adopt_one(&mut lagging, b1.clone(), q1.clone(), &s));
    assert!(adopt_one(&mut lagging, b2, q2, &s));
    assert_eq!(lagging.committed_height(), 2);
    assert_eq!(lagging.metrics.state_transfer_blocks, 2);
    assert_eq!(lagging.metrics.committed_blocks, 0);
    assert_eq!(window_log(&lagging), window_log(&source)[..2]);
    // Heights at or below the prefix are refused (already adopted).
    assert!(!adopt_one(&mut lagging, b1, q1, &s));
    // Gap adoption: height 4 grafts past a hole the server could not
    // prove, and the log stays ascending.
    let (b4, q4) = source.committed_entry(4).unwrap();
    let (b4, q4) = (b4.clone(), q4.clone());
    assert!(adopt_one(&mut lagging, b4, q4, &s));
    assert_eq!(lagging.committed_height(), 4);
    let heights: Vec<u64> = window_log(&lagging).iter().map(|&(h, _)| h).collect();
    assert_eq!(heights, vec![1, 2, 4]);
    // The range lookup serves around the hole.
    assert_eq!(lagging.committed_range(1, 10).len(), 3);
    assert_eq!(lagging.committed_range(3, 10).len(), 1);
}

#[test]
fn adopt_committed_batch_stops_at_first_invalid_entry() {
    let s = scheme();
    let mut source = ChainState::new(0);
    for v in 1..=7 {
        extend(&mut source, v, &s);
    }
    assert_eq!(source.committed_height(), 5);
    let entries: Vec<(Block, Qc<SimScheme>)> = (1..=5)
        .map(|h| {
            let (b, qc) = source.committed_entry(h).unwrap();
            (b.clone(), qc.clone())
        })
        .collect();

    // The clean chunk adopts wholesale in one batch — and hands the
    // whole adopted prefix to the durability sink in ONE batch call
    // (one fsync for a WAL sink), not one call per block.
    #[derive(Default)]
    struct BatchCountingSink {
        calls: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }
    impl CommitSink<SimScheme> for BatchCountingSink {
        fn committed(&mut self, items: &[(Block, Option<Qc<SimScheme>>)]) {
            self.calls.lock().unwrap().push(items.len());
        }
    }
    let mut lagging: ChainState<SimScheme> = ChainState::new(0);
    let sink = BatchCountingSink::default();
    let sink_calls = std::sync::Arc::clone(&sink.calls);
    lagging.set_commit_sink(Box::new(sink));
    let outcome = lagging.adopt_committed_batch(entries.clone(), &s);
    assert_eq!(outcome.adopted, 5);
    assert_eq!(outcome.verified_entries, 5);
    assert_eq!(outcome.verified_signers, 15, "3 signers per QC");
    assert_eq!(lagging.committed_height(), 5);
    assert_eq!(lagging.metrics.state_transfer_blocks, 5);
    assert_eq!(window_log(&lagging), window_log(&source));
    assert_eq!(
        &*sink_calls.lock().unwrap(),
        &[5],
        "one batch sink call for the whole chunk"
    );

    // A chunk whose third entry carries a forged QC adopts exactly the
    // two entries before it — cryptographic failure stops the chunk.
    let mut forged = entries.clone();
    forged[2].1.agg.mults = iniva_crypto::multisig::Multiplicities::singleton(0);
    let mut lagging: ChainState<SimScheme> = ChainState::new(0);
    assert_eq!(lagging.adopt_committed_batch(forged, &s).adopted, 2);
    assert_eq!(lagging.committed_height(), 2);

    // A structural mismatch (QC certifying the wrong block) stops the
    // chunk before any pairing-equivalent work on later entries, and
    // only the structurally surviving prefix is billed as verified.
    let mut swapped = entries.clone();
    let other_qc = entries[0].1.clone();
    swapped[1].1 = other_qc;
    let mut lagging: ChainState<SimScheme> = ChainState::new(0);
    let outcome = lagging.adopt_committed_batch(swapped, &s);
    assert_eq!(outcome.adopted, 1);
    assert_eq!(outcome.verified_entries, 1);
    assert_eq!(outcome.verified_signers, 3);
    assert_eq!(lagging.committed_height(), 1);

    // Batch and one-at-a-time adoption agree.
    let mut per_item: ChainState<SimScheme> = ChainState::new(0);
    for (b, qc) in entries {
        if !adopt_one(&mut per_item, b, qc, &s) {
            break;
        }
    }
    assert_eq!(per_item.committed_height(), 5);
    assert_eq!(window_log(&per_item), window_log(&source));
}

#[test]
fn stale_qc_does_not_regress() {
    let s = scheme();
    let mut chain = ChainState::new(0);
    let b1 = extend(&mut chain, 1, &s);
    extend(&mut chain, 2, &s);
    let high = chain.high_tip().1;
    // Replaying the old QC must not move the high block backwards.
    chain.on_qc(qc_for(&s, &b1), 99, &s);
    assert_eq!(chain.high_tip().1, high);
}

/// Which blocks go back to the request source: this replica's drafts
/// that lost their height to a commit, once each, through every
/// commit path — and nothing else.
mod release_tests {
    use super::*;
    use std::sync::Mutex;

    /// Claims every draft in full and records each settled and each
    /// released `(height, start, len)`.
    #[derive(Default)]
    struct Recorder {
        settled: Mutex<Vec<(u64, u64, u32)>>,
        released: Mutex<Vec<(u64, u64, u32)>>,
    }

    impl RequestSource for Recorder {
        fn draft(&self, _start: u64, max: u32) -> u32 {
            max
        }
        fn committed(&self, height: u64, start: u64, len: u32) -> Vec<u64> {
            self.settled.lock().unwrap().push((height, start, len));
            Vec::new()
        }
        fn release(&self, dead: &Block) {
            self.released
                .lock()
                .unwrap()
                .push((dead.height, dead.batch_start, dead.batch_len));
        }
    }

    impl Recorder {
        fn released(&self) -> Vec<(u64, u64, u32)> {
            self.released.lock().unwrap().clone()
        }
    }

    fn sourced() -> (ChainState<SimScheme>, Arc<Recorder>) {
        let mut chain = ChainState::new(0);
        let source = Arc::new(Recorder::default());
        chain.set_request_source(Arc::clone(&source) as Arc<dyn RequestSource>);
        (chain, source)
    }

    /// This replica drafts a block of five requests for `view` (one
    /// second per view) on its high QC and stores it, uncertified.
    fn draft(chain: &mut ChainState<SimScheme>, view: u64) -> Block {
        let b = chain.draft_block(view, 0, view * 1_000_000_000, 5, 0);
        chain.insert_block(b.clone());
        b
    }

    /// This replica's draft for `view`, certified.
    fn propose(chain: &mut ChainState<SimScheme>, view: u64, s: &SimScheme) -> Block {
        let b = draft(chain, view);
        chain.on_qc(qc_for(s, &b), 1000, s);
        b
    }

    /// Replica 2's block for `view` on `parent`, with a range of its
    /// own past `after`, stored and certified.
    fn foreign(
        chain: &mut ChainState<SimScheme>,
        view: u64,
        parent: &Block,
        after: u64,
        s: &SimScheme,
    ) -> Block {
        let b = Block {
            view,
            height: parent.height + 1,
            parent: parent.hash(),
            proposer: 2,
            batch_start: after,
            batch_len: 3,
            payload_per_req: 0,
        };
        chain.insert_block(b.clone());
        chain.on_qc(qc_for(s, &b), 1000, s);
        b
    }

    /// Views 1-2 certify b1 and b2; view 3's block `dead` never gets a
    /// QC (the next leader, its tree's root, is down); view 5's block
    /// at the same height does, and views 6-7 commit it.
    fn orphan_view_3(
        chain: &mut ChainState<SimScheme>,
        dead: impl FnOnce(&mut ChainState<SimScheme>, &Block) -> Block,
        s: &SimScheme,
    ) -> (Block, Block) {
        propose(chain, 1, s);
        let b2 = propose(chain, 2, s);
        let dead = dead(chain, &b2);
        assert_eq!(dead.height, 3);
        let winner = foreign(chain, 5, &b2, batch_end(&dead), s);
        assert_eq!(chain.committed_height(), 0);
        propose(chain, 6, s);
        propose(chain, 7, s);
        assert_eq!(chain.committed_height(), 3, "view 5's block committed");
        (dead, winner)
    }

    #[test]
    fn a_dead_own_block_is_released_once_by_the_three_chain_commit() {
        let s = scheme();
        let (mut chain, source) = sourced();
        let (dead, winner) = orphan_view_3(&mut chain, |c, _| draft(c, 3), &s);
        assert_eq!(
            source.released(),
            vec![(3, dead.batch_start, 5)],
            "released once, with its own range"
        );
        assert!(chain.block(&dead.hash()).is_none(), "dropped at once");
        assert!(chain.block(&winner.hash()).is_some());
        // More commits, the dead block's re-delivery included, release
        // nothing further.
        chain.insert_block(dead.clone());
        for v in 8..=12 {
            propose(&mut chain, v, &s);
        }
        assert_eq!(source.released().len(), 1);
        // Every committed range settled, and none is the dead one.
        let settled = source.settled.lock().unwrap().clone();
        assert_eq!(settled.len() as u64, chain.committed_height());
        assert!(settled
            .iter()
            .all(|&(_, start, _)| start != dead.batch_start));
    }

    #[test]
    fn a_dead_own_block_is_released_once_by_state_transfer() {
        let s = scheme();
        // What the rest of the cluster committed: heights 1..=4,
        // proposed by others.
        let mut others = ChainState::new(0);
        for v in 1..=6 {
            extend(&mut others, v, &s);
        }
        let chunk: Vec<(Block, Qc<SimScheme>)> = (1..=4)
            .map(|h| {
                let (b, qc) = others.committed_entry(h).unwrap();
                (b.clone(), qc.clone())
            })
            .collect();
        // This replica drafted its own height-1 block, which nobody
        // certified, then fell behind.
        let (mut chain, source) = sourced();
        let dead = draft(&mut chain, 1);
        assert_eq!(chain.adopt_committed_batch(chunk.clone(), &s).adopted, 4);
        assert_eq!(source.released(), vec![(1, dead.batch_start, 5)]);
        assert!(chain.block(&dead.hash()).is_none());
        for (b, _) in &chunk {
            assert!(chain.block(&b.hash()).is_some(), "adopted blocks stay");
        }
        // A repeated chunk adopts nothing and releases nothing.
        assert_eq!(chain.adopt_committed_batch(chunk, &s).adopted, 0);
        assert_eq!(source.released().len(), 1);
    }

    #[test]
    fn a_height_the_prefix_skipped_proves_nothing() {
        let s = scheme();
        let mut others = ChainState::new(0);
        for v in 1..=6 {
            extend(&mut others, v, &s);
        }
        let entry = |h: u64| {
            let (b, qc) = others.committed_entry(h).unwrap();
            (b.clone(), qc.clone())
        };
        let (mut chain, source) = sourced();
        assert_eq!(chain.adopt_committed_batch(vec![entry(1)], &s).adopted, 1);
        let unproven = draft(&mut chain, 9);
        assert_eq!(unproven.height, 2);
        // The peer serves heights 3 and 4 across a hole at 2: the block
        // committed there may be this replica's own.
        assert_eq!(
            chain
                .adopt_committed_batch(vec![entry(3), entry(4)], &s)
                .adopted,
            2
        );
        assert!(source.released().is_empty());
        assert!(chain.block(&unproven.hash()).is_some());
    }

    #[test]
    fn a_fault_free_chain_releases_nothing() {
        let s = scheme();
        let (mut chain, source) = sourced();
        for v in 1..=40 {
            propose(&mut chain, v, &s);
            assert!(chain.proposed.len() <= 2, "only the uncommitted drafts");
        }
        assert_eq!(chain.committed_height(), 38);
        assert!(source.released().is_empty());
        assert_eq!(source.settled.lock().unwrap().len(), 38);
    }

    #[test]
    fn a_dead_block_without_a_source_is_dropped_unreleased() {
        let s = scheme();
        let mut chain = ChainState::new(1_000);
        let (dead, _) = orphan_view_3(&mut chain, |c, _| draft(c, 3), &s);
        assert!(dead.batch_len > 0, "the synthetic model batched requests");
        assert!(chain.proposed.is_empty(), "nothing to release to");
        assert!(chain.block(&dead.hash()).is_none(), "dropped at once");
    }

    #[test]
    fn another_proposers_dead_block_is_dropped_unreleased() {
        let s = scheme();
        let (mut chain, source) = sourced();
        let (dead, _) = orphan_view_3(
            &mut chain,
            |c, parent| {
                // Replica 3's view-3 block, stored uncertified; it
                // claims the very range this replica drafts next.
                let b = Block {
                    view: 3,
                    height: parent.height + 1,
                    parent: parent.hash(),
                    proposer: 3,
                    batch_start: batch_end(parent),
                    batch_len: 5,
                    payload_per_req: 0,
                };
                c.insert_block(b.clone());
                b
            },
            &s,
        );
        assert!(source.released().is_empty());
        assert!(chain.block(&dead.hash()).is_none(), "dropped at once");
    }
}
