//! Chain builders the protocol's test modules share.

use iniva_consensus::types::{vote_message, Block, Qc, GENESIS_HASH};
use iniva_crypto::multisig::VoteScheme;
use std::sync::Arc;

/// The empty height-1 block of `view`, extending genesis, proposed by 0.
pub(super) fn genesis_block(view: u64) -> Block {
    Block {
        view,
        height: 1,
        parent: GENESIS_HASH,
        proposer: 0,
        batch_start: 0,
        batch_len: 0,
        payload_per_req: 0,
    }
}

/// The block one view and one height above `parent`, proposed by 0.
pub(super) fn child_block(parent: &Block) -> Block {
    Block {
        view: parent.view + 1,
        height: parent.height + 1,
        parent: parent.hash(),
        ..genesis_block(1)
    }
}

/// `count` chained blocks from genesis, block `h` at view and height `h`,
/// proposed by `h % n` (so a recent-leader window over them is
/// non-trivial).
pub(super) fn chain(count: u64, n: u32) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    for h in 1..=count {
        let block = blocks.last().map_or(genesis_block(1), child_block);
        blocks.push(Block {
            proposer: (h % n as u64) as u32,
            ..block
        });
    }
    blocks
}

/// A genuine QC over `block`: each of `signers` signs its vote message
/// once, combined in order.
pub(super) fn qc_over<S: VoteScheme>(scheme: &Arc<S>, block: &Block, signers: &[u32]) -> Qc<S> {
    let msg = vote_message(&block.hash(), block.view);
    let agg = signers[1..]
        .iter()
        .fold(scheme.sign(signers[0], &msg), |agg, &s| {
            scheme.combine(&agg, &scheme.sign(s, &msg))
        });
    Qc {
        block_hash: block.hash(),
        view: block.view,
        height: block.height,
        agg,
    }
}

/// [`chain`] over the scheme's committee, each block certified by
/// [`qc_over`] with `signers`, so an adopting replica's verification
/// accepts it.
pub(super) fn signed_prefix<S: VoteScheme>(
    scheme: &Arc<S>,
    count: u64,
    signers: &[u32],
) -> Vec<(Block, Qc<S>)> {
    chain(count, scheme.committee_size() as u32)
        .into_iter()
        .map(|block| {
            let qc = qc_over(scheme, &block, signers);
            (block, qc)
        })
        .collect()
}
