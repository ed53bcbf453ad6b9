use super::testkit::{chain, signed_prefix};
use super::*;
use iniva_crypto::multisig::Multiplicities;
use iniva_crypto::sim_scheme::{SimAggregate, SimScheme, Tag};
use iniva_net::sync::{StateResponse, MAX_STATE_RESPONSE_BYTES};
use iniva_net::wire::Codec;

/// A committed prefix of `count` chained blocks, each certified by a
/// QC carrying `signers` distinct signers (what a long-lived large
/// committee accumulates). Serving never verifies, so the aggregates
/// are constructed directly — `count × signers` sequential
/// sign/combine calls would be quadratic in the multiplicity-table
/// size and dominate test wall time at the sizes used here.
fn committed_prefix(count: u64, signers: u32) -> Vec<(Block, Option<Qc<SimScheme>>)> {
    let mults = Multiplicities::from_iter((0..signers).map(|s| (s, 1)));
    chain(count, 1)
        .into_iter()
        .map(|block| {
            let qc = Qc {
                block_hash: block.hash(),
                view: block.view,
                height: block.height,
                agg: SimAggregate {
                    tag: Tag(block.height as u128, 0),
                    mults: mults.clone(),
                },
            };
            (block, Some(qc))
        })
        .collect()
}

/// Serves one StateRequest against a replica holding `prefix`,
/// returning the responded chunk (None if nothing was sent).
fn serve(
    scheme: &Arc<SimScheme>,
    cfg: &InivaConfig,
    prefix: Vec<(Block, Option<Qc<SimScheme>>)>,
    from_height: u64,
) -> Option<StateResponse<Block, Qc<SimScheme>>> {
    let view = prefix.last().map_or(1, |(b, _)| b.view + 1);
    let mut replica = InivaReplica::recover(0, cfg.clone(), Arc::clone(scheme), prefix, view);
    let mut ctx = Context::external(0, 0);
    replica.handle_state_request(&mut ctx, 1, from_height);
    let effects = ctx.into_effects();
    let mut responses = effects.outbox.into_iter().map(|(to, msg, _)| {
        assert_eq!(to, 1);
        match msg {
            InivaMsg::StateResponse(resp) => resp,
            other => panic!("unexpected message {other:?}"),
        }
    });
    responses.next()
}

/// With a large committee the per-entry QC encoding dominates, and the
/// chunk must stop at the encoded-byte budget — well before the
/// MAX_STATE_BLOCKS count cap — with the boundary exactly tight: one
/// more entry would cross it.
#[test]
fn state_response_chunks_by_encoded_bytes_at_the_boundary() {
    let n = 200usize;
    let signers = 150u32;
    let scheme = Arc::new(SimScheme::new(n, b"state-sync"));
    let cfg = InivaConfig::for_tests(n, 2);
    let total = 300u64;
    let prefix = committed_prefix(total, signers);

    let resp = serve(&scheme, &cfg, prefix.clone(), 1).expect("a chunk is served");
    let served = resp.blocks.len() as u64;
    assert!(
        served < total,
        "byte budget must bind before the range ends"
    );
    assert!(served > 0);
    let body = resp.to_frame().len();
    assert!(
        body <= MAX_STATE_RESPONSE_BYTES,
        "encoded chunk {body} exceeds the byte budget"
    );
    // Tight at the boundary: the first unserved entry would not fit.
    let (next_block, next_qc) = &prefix[served as usize];
    let next = next_block.to_wire().len() + next_qc.as_ref().unwrap().to_wire().len();
    assert!(
        body + next > MAX_STATE_RESPONSE_BYTES,
        "chunk stopped early: {body} + {next} fits the budget"
    );

    // Follow-up rounds (the requester's gap detector re-fires) cover
    // the remainder: chunks tile the range without holes or overlap.
    let resp2 = serve(&scheme, &cfg, prefix.clone(), served + 1).expect("second chunk");
    assert_eq!(resp2.blocks[0].height, served + 1);
    let covered = served + resp2.blocks.len() as u64;
    assert!(covered > served, "second round advances");
}

/// A requester more than a window behind adopts the responder's
/// window across the gap, reaches its tip, then commits through the
/// three-chain rule like any replica. The responder, recovered from a
/// WAL twice the window long, holds only the window in memory.
#[test]
fn requester_adopts_the_window_across_the_gap_then_commits() {
    use iniva_consensus::chain::RETAINED_COMMITS;
    let scheme = Arc::new(SimScheme::new(4, b"window-gap"));
    let cfg = InivaConfig::for_tests(4, 2);
    let window = RETAINED_COMMITS as u64;
    let tip = 2 * window;
    // Heights 1..=tip+4; entry `i` is height `i + 1`.
    let chain = signed_prefix(&scheme, tip + 4, &[0, 1, 2]);
    let wal: Vec<(Block, Option<Qc<SimScheme>>)> = chain[..tip as usize]
        .iter()
        .map(|(b, qc)| (b.clone(), Some(qc.clone())))
        .collect();

    let mut responder = InivaReplica::recover(0, cfg.clone(), Arc::clone(&scheme), wal, tip);
    assert_eq!(responder.chain.metrics.recovered_blocks, tip);
    let registry = Registry::new();
    responder.chain.export(&registry);
    assert_eq!(registry.gauge("chain.retained_commits").get(), window);
    assert_eq!(registry.gauge("chain.retained_blocks").get(), window);
    assert!(responder.chain.committed_entry(window).is_none());
    assert!(responder.chain.committed_entry(window + 1).is_some());
    assert!(responder.chain.block(&chain[0].0.hash()).is_none());

    // The requester, at height 0, asks from height 1.
    let mut ctx = Context::external(0, 0);
    responder.handle_state_request(&mut ctx, 1, 1);
    let resp = match ctx.into_effects().outbox.pop() {
        Some((1, InivaMsg::StateResponse(resp), _)) => resp,
        other => panic!("expected one StateResponse, got {other:?}"),
    };
    assert_eq!(resp.blocks.first().map(|b| b.height), Some(window + 1));
    let mut requester = InivaReplica::new(1, cfg, Arc::clone(&scheme));
    let mut ctx = Context::external(1, 0);
    requester.handle_state_response(&mut ctx, 0, resp);
    assert_eq!(requester.chain.committed_height(), tip);
    assert_eq!(requester.chain.metrics.state_transfer_blocks, window);
    let first = requester
        .chain
        .committed_range(0, 1)
        .first()
        .map(|(b, _)| b.height);
    assert_eq!(first, Some(window + 1), "adopted across the gap");

    // Four more proposals, each carrying its parent's QC: the fourth
    // QC completes a three-chain over tip+1..=tip+3 and commits tip+1.
    for (block, _) in &chain[tip as usize..] {
        let parent_qc = chain[block.height as usize - 2].1.clone();
        requester.handle_proposal(&mut ctx, block.clone(), Some(parent_qc));
    }
    assert_eq!(requester.chain.committed_height(), tip + 1);
    assert_eq!(requester.chain.metrics.committed_blocks, 1);
}

/// A single entry larger than the whole budget must still ship —
/// alone — or the requester would be stranded behind it forever.
#[test]
fn oversized_single_entry_still_makes_progress() {
    // ~22k signers × 12 bytes/entry ≈ 264 KiB: one QC alone crosses
    // MAX_STATE_RESPONSE_BYTES (256 KiB).
    let n = 22_000usize;
    let scheme = Arc::new(SimScheme::new(n, b"state-sync-huge"));
    let cfg = InivaConfig::for_tests(n, 2);
    let prefix = committed_prefix(2, n as u32);
    let entry_bytes = prefix[0].0.to_wire().len() + prefix[0].1.as_ref().unwrap().to_wire().len();
    assert!(entry_bytes > MAX_STATE_RESPONSE_BYTES, "test premise");

    let resp = serve(&scheme, &cfg, prefix.clone(), 1).expect("progress");
    assert_eq!(resp.blocks.len(), 1, "exactly the oversized head entry");
    assert_eq!(resp.blocks[0].height, 1);
    let resp2 = serve(&scheme, &cfg, prefix, 2).expect("next round");
    assert_eq!(resp2.blocks[0].height, 2);
}
