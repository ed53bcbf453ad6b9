//! The messages of Algorithm 1 and their wire codec.

use iniva_consensus::types::{Block, Qc};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::sync::{StateRequest, StateResponse};
use iniva_net::wire::{DecodeError, Decoder, Encoder, WireDecode, WireEncode};

/// Messages of the Iniva protocol (Algorithm 1).
#[derive(Debug)]
pub enum InivaMsg<S: VoteScheme> {
    /// Tree dissemination of a proposal with its justifying QC.
    Proposal {
        /// Proposed block.
        block: Block,
        /// QC certifying the parent (None only when extending genesis).
        qc: Option<Qc<S>>,
    },
    /// `SIGNATURE`: a vote or partial aggregate sent up the tree (or as a
    /// 2ND-CHANCE reply).
    Signature {
        /// View being voted.
        view: u64,
        /// The aggregate (single vote, subtree aggregate, or ACK echo).
        agg: S::Aggregate,
    },
    /// `ACK`: inclusion proof from a parent to its aggregated children.
    Ack {
        /// View.
        view: u64,
        /// The parent's subtree aggregate (contains the child's signature).
        agg: S::Aggregate,
    },
    /// `2ND-CHANCE`: the root re-solicits processes missing from its
    /// aggregate. Carries the block for processes that never received it.
    SecondChance {
        /// The block (processes that missed dissemination deliver it here —
        /// this is what makes Iniva's *Reliable Dissemination* hold).
        block: Block,
        /// Justifying QC for the block's parent.
        qc: Option<Qc<S>>,
    },
    /// State transfer: a replica behind the committed prefix (typically
    /// one that just restarted from its write-ahead log) asks a peer for
    /// the committed blocks it is missing.
    StateRequest(StateRequest),
    /// State transfer: a chunk of committed blocks, each paired with the
    /// QC certifying it, so the requester verifies before adopting.
    StateResponse(StateResponse<Block, Qc<S>>),
    /// `TIMEOUT` (HotStuff-style new-view exchange): broadcast when a view
    /// times out, carrying the sender's high QC so replicas that diverged
    /// during failed views converge on one certificate — and therefore one
    /// Carousel leader — within a single timeout round. The carried QC is
    /// verified before adoption; the unauthenticated `view` field is never
    /// trusted on its own (the pacemaker only fast-forwards to a view a
    /// *verified* QC proves the cluster reached).
    Timeout {
        /// The view that timed out at the sender.
        view: u64,
        /// The sender's highest known QC (None before any QC forms).
        high_qc: Option<Qc<S>>,
    },
}

impl<S: VoteScheme> Clone for InivaMsg<S> {
    fn clone(&self) -> Self {
        match self {
            InivaMsg::Proposal { block, qc } => InivaMsg::Proposal {
                block: block.clone(),
                qc: qc.clone(),
            },
            InivaMsg::Signature { view, agg } => InivaMsg::Signature {
                view: *view,
                agg: agg.clone(),
            },
            InivaMsg::Ack { view, agg } => InivaMsg::Ack {
                view: *view,
                agg: agg.clone(),
            },
            InivaMsg::SecondChance { block, qc } => InivaMsg::SecondChance {
                block: block.clone(),
                qc: qc.clone(),
            },
            InivaMsg::StateRequest(req) => InivaMsg::StateRequest(*req),
            InivaMsg::StateResponse(resp) => InivaMsg::StateResponse(StateResponse {
                blocks: resp.blocks.clone(),
                qcs: resp.qcs.clone(),
            }),
            InivaMsg::Timeout { view, high_qc } => InivaMsg::Timeout {
                view: *view,
                high_qc: high_qc.clone(),
            },
        }
    }
}

impl<S: VoteScheme> WireEncode for InivaMsg<S>
where
    S::Aggregate: WireEncode,
{
    fn encode(&self, enc: &mut Encoder) {
        match self {
            InivaMsg::Proposal { block, qc } => {
                enc.put_u8(0);
                block.encode(enc);
                enc.put_opt(qc);
            }
            InivaMsg::Signature { view, agg } => {
                enc.put_u8(1).put_u64(*view);
                agg.encode(enc);
            }
            InivaMsg::Ack { view, agg } => {
                enc.put_u8(2).put_u64(*view);
                agg.encode(enc);
            }
            InivaMsg::SecondChance { block, qc } => {
                enc.put_u8(3);
                block.encode(enc);
                enc.put_opt(qc);
            }
            InivaMsg::StateRequest(req) => {
                enc.put_u8(4);
                req.encode(enc);
            }
            InivaMsg::StateResponse(resp) => {
                enc.put_u8(5);
                resp.encode(enc);
            }
            InivaMsg::Timeout { view, high_qc } => {
                enc.put_u8(6).put_u64(*view);
                enc.put_opt(high_qc);
            }
        }
    }
}

impl<S: VoteScheme> WireDecode for InivaMsg<S>
where
    S::Aggregate: WireDecode,
{
    fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(InivaMsg::Proposal {
                block: Block::decode(dec)?,
                qc: dec.get_opt()?,
            }),
            1 => Ok(InivaMsg::Signature {
                view: dec.get_u64()?,
                agg: S::Aggregate::decode(dec)?,
            }),
            2 => Ok(InivaMsg::Ack {
                view: dec.get_u64()?,
                agg: S::Aggregate::decode(dec)?,
            }),
            3 => Ok(InivaMsg::SecondChance {
                block: Block::decode(dec)?,
                qc: dec.get_opt()?,
            }),
            4 => Ok(InivaMsg::StateRequest(StateRequest::decode(dec)?)),
            5 => Ok(InivaMsg::StateResponse(StateResponse::decode(dec)?)),
            6 => Ok(InivaMsg::Timeout {
                view: dec.get_u64()?,
                high_qc: dec.get_opt()?,
            }),
            tag => Err(DecodeError::InvalidTag {
                tag,
                context: "InivaMsg",
            }),
        }
    }
}
