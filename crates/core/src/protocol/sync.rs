//! State transfer: a replica behind the committed prefix asks a peer for
//! the committed blocks it is missing, and verifies them before adopting.

use super::{InivaMsg, InivaReplica};
use iniva_consensus::types::{Block, Qc};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::sync::{StateRequest, StateResponse, MAX_STATE_BLOCKS, MAX_STATE_RESPONSE_BYTES};
use iniva_net::wire::WireEncode;
use iniva_net::{Context, NodeId};
use iniva_obs::trace::EventKind;

/// How far the high QC may run ahead of the committed prefix before the
/// replica asks a peer for state transfer. The healthy pipeline keeps the
/// gap at 2 (the two uncommitted blocks of the three-chain rule), so 3+
/// means commits happened that this replica never saw.
const STATE_SYNC_GAP: u64 = 3;

impl<S: VoteScheme> InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    /// Sends a [`StateRequest`] to `from` when the high QC has run further
    /// ahead of the committed prefix than the pipeline explains
    /// ([`STATE_SYNC_GAP`]) — the catch-up trigger for replicas that
    /// restarted from their WAL or were partitioned past 2ND-CHANCE
    /// reach. Rate-limited: one request per prefix-advance or per
    /// view-timeout of silence, so a busy cluster is not flooded while a
    /// transfer is in flight.
    pub(super) fn maybe_request_state(&mut self, ctx: &mut Context<InivaMsg<S>>, from: NodeId) {
        if from == self.id {
            return;
        }
        let committed = self.chain.committed_height();
        let (_, high) = self.chain.high_tip();
        if high <= committed + STATE_SYNC_GAP {
            return;
        }
        let now = ctx.now();
        if let Some((at_height, at_time, target)) = self.last_state_request {
            let progressed = committed > at_height;
            let timed_out = now.saturating_sub(at_time) > self.cfg.view_timeout;
            if !progressed && !timed_out {
                return;
            }
            // The previous target went a full view-timeout without helping
            // (likely dead): retry only against a *different* peer, or the
            // limiter re-arms on the dead one and the gap never closes.
            if !progressed && timed_out && from == target {
                return;
            }
        }
        self.last_state_request = Some((committed, now, from));
        ctx.send(
            from,
            InivaMsg::StateRequest(StateRequest {
                from_height: committed + 1,
            }),
            16,
        );
    }

    /// Serves a [`StateRequest`]: committed blocks (with their QCs) from
    /// the requested height, bounded by **encoded bytes**
    /// ([`MAX_STATE_RESPONSE_BYTES`]) rather than block count — a QC's
    /// encoding grows with its signer set (48 bytes of compressed point
    /// plus per-signer entries under BLS), so a count-only cap could
    /// overshoot the frame budget on large committees. At least one entry
    /// always ships (progress even past an oversized one);
    /// [`MAX_STATE_BLOCKS`] still caps the entry count for the decoder's
    /// sake. An empty answerable range sends nothing — the requester
    /// retries against the next peer it hears from.
    pub(super) fn handle_state_request(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        from_height: u64,
    ) {
        if from == self.id {
            return;
        }
        let mut blocks = Vec::new();
        let mut qcs = Vec::new();
        let mut modeled = 4usize;
        let mut encoded = 4usize; // count prefix
        for (block, qc) in self.chain.committed_range(from_height, MAX_STATE_BLOCKS) {
            // Measuring by actually encoding costs a second serialization
            // when the transport later ships the response; accepted —
            // state transfer is a rare catch-up path, and arithmetic size
            // formulas would silently drift from the real codec.
            let entry = block.to_wire().len() + qc.to_wire().len();
            if !blocks.is_empty() && encoded + entry > MAX_STATE_RESPONSE_BYTES {
                break;
            }
            encoded += entry;
            modeled += block.wire_bytes() + qc.wire_bytes(&self.scheme);
            blocks.push(block.clone());
            qcs.push(qc.clone());
        }
        if blocks.is_empty() {
            return;
        }
        ctx.send(
            from,
            InivaMsg::StateResponse(StateResponse { blocks, qcs }),
            modeled,
        );
    }

    /// Adopts a [`StateResponse`] chunk: the whole chunk's QCs are
    /// verified in **one** multi-pairing batch (each QC certifies a
    /// distinct message, so the batch costs `1 + #blocks` Miller loops
    /// and a single final exponentiation instead of two Miller loops per
    /// block — see [`iniva_consensus::chain::ChainState::adopt_committed_batch`]);
    /// the first invalid or non-ascending entry stops the chunk (a height
    /// gap does not). A still-open gap re-triggers
    /// [`Self::maybe_request_state`] on the next QC observed.
    pub(super) fn handle_state_response(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        response: StateResponse<Block, Qc<S>>,
    ) {
        let items: Vec<(Block, Qc<S>)> = response.blocks.into_iter().zip(response.qcs).collect();
        if !items.is_empty() {
            let before = self.chain.committed_height();
            let outcome = self.chain.adopt_committed_batch(items, &self.scheme);
            // Bill only what actually reached crypto: a chunk rejected by
            // the cheap structural pass costs no pairing-equivalent time.
            if outcome.verified_entries > 0 {
                ctx.charge_cpu(
                    self.cfg
                        .cost
                        .verify_batch(outcome.verified_entries, outcome.verified_signers),
                );
            }
            if outcome.adopted > 0 {
                if let Some(obs) = &self.obs {
                    obs.state_chunks.inc();
                }
                self.tracer.emit(
                    ctx.now(),
                    EventKind::StateChunk {
                        from,
                        blocks: outcome.adopted as u64,
                    },
                );
            }
            self.trace_commits(ctx.now(), before);
        }
        self.update_carousel();
    }
}
