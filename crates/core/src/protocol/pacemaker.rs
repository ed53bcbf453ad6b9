//! The pacemaker: view entry, the view timer, the `TIMEOUT` exchange, and
//! the replica's start.

use super::{InivaMsg, InivaReplica};
use iniva_consensus::types::Qc;
use iniva_crypto::multisig::VoteScheme;
use iniva_net::wire::WireEncode;
use iniva_net::{Context, NodeId};
use iniva_obs::trace::{EventKind, TimerKind};

pub(super) const TIMER_VIEW: u64 = 0;
pub(super) const TIMER_AGG: u64 = 1;
pub(super) const TIMER_SECOND_CHANCE: u64 = 2;
/// Fires right after a cut-through relay: the relayed proposal is taken up.
pub(super) const TIMER_RELAYED: u64 = 3;

/// The highest view a replica acts on. A view picks its tree through
/// `view + 1` and its timers through `view * 4 + kind`; stopping at an
/// eighth of the range leaves more view timeouts of headroom past a
/// hostile view jump than could ever fire, so neither overflows.
pub(super) const MAX_VIEW: u64 = u64::MAX / 8;

pub(super) fn timer_id(view: u64, kind: u64) -> u64 {
    view * 4 + kind
}

pub(super) fn timer_kind(id: u64) -> (u64, u64) {
    (id / 4, id % 4)
}

impl<S: VoteScheme> InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    pub(super) fn enter_view(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64, failed: bool) {
        if view <= self.current_view && self.chain.metrics.total_views > 0 {
            return;
        }
        self.current_view = view;
        self.chain.metrics.total_views += 1;
        if failed {
            self.chain.metrics.failed_views += 1;
        }
        if let Some(obs) = &self.obs {
            obs.views_entered.inc();
            if failed {
                obs.views_failed.inc();
            }
        }
        self.tracer.emit_with(ctx.now(), || EventKind::ViewEntered {
            view,
            leader: self.leader_of(view),
            failed,
        });
        // Durably record the pacemaker position (no-op without a sink): a
        // replica restarting from its WAL must not re-vote a view it
        // already entered.
        self.chain.note_view(view);
        ctx.set_timer(self.cfg.view_timeout, timer_id(view, TIMER_VIEW));
    }

    /// A fresh replica starts in view 1; a WAL-recovered one resumes at
    /// the view it had entered before the crash and waits to be contacted
    /// (its view timer keeps the pacemaker rotating if the cluster is gone
    /// too). Entering through `enter_view` (its guard passes here: no view
    /// has been counted yet) journals the starting view via
    /// `ChainState::note_view` — a replica crashing in view 1 must not
    /// restart believing it never entered it.
    pub(super) fn start(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let view = self.current_view;
        self.enter_view(ctx, view, false);
        if view == 1 && self.leader_of(1) == self.id {
            self.propose(ctx);
        }
    }

    /// The view timer of `view` fired: broadcast TIMEOUT and move on.
    pub(super) fn on_view_timer(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64) {
        if view != self.current_view {
            return;
        }
        self.tracer.emit(
            ctx.now(),
            EventKind::TimerFired {
                view,
                kind: TimerKind::View,
            },
        );
        // New-view exchange: broadcast our high QC so replicas that
        // diverged during the failed view converge on one certificate (and
        // one Carousel pool) before re-electing. Without this nothing
        // circulates QCs while views fail, and divergent replicas elect
        // divergent leaders indefinitely.
        let high_qc = self.chain.highest_qc().cloned();
        self.tracer.emit_with(ctx.now(), || EventKind::TimeoutSent {
            view,
            high_qc_view: high_qc.as_ref().map_or(0, |q| q.view),
        });
        let bytes = 16 + high_qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
        for peer in 0..self.cfg.n as u32 {
            if peer != self.id {
                ctx.send(
                    peer,
                    InivaMsg::Timeout {
                        view,
                        high_qc: high_qc.clone(),
                    },
                    bytes,
                );
            }
        }
        let next = self.current_view + 1;
        self.enter_view(ctx, next, true);
        if self.leader_of(next) == self.id {
            self.propose(ctx);
        }
    }

    /// Handles a peer's `TIMEOUT` broadcast: verifies the carried high QC
    /// and, if it beats the local one, adopts it — converging leader
    /// election with the sender — and fast-forwards the pacemaker to the
    /// view *the certificate proves* the cluster reached. Ordering is
    /// strict: cheap checks run before the pairing-equivalent
    /// verification, and nothing about the message is trusted until the QC
    /// verifies; in particular the unauthenticated `view` field alone never
    /// moves the pacemaker, so a hostile flood of far-future TIMEOUTs
    /// cannot drag honest replicas out of their views.
    pub(super) fn handle_timeout(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        timeout_view: u64,
        high_qc: Option<Qc<S>>,
    ) {
        if from == self.id {
            return;
        }
        let Some(qc) = high_qc else { return };
        // Dedup before crypto: a QC no better than what we hold teaches us
        // nothing (the height comparison mirrors `ChainState::on_qc`).
        if self
            .chain
            .highest_qc()
            .is_some_and(|held| qc.height <= held.height)
        {
            return;
        }
        if !self.verify_qc(ctx, timeout_view, &qc) {
            return;
        }
        let qc_view = qc.view;
        self.adopt_qc(ctx.now(), qc);
        self.tracer.emit(
            ctx.now(),
            EventKind::TimeoutQcAdopted {
                view: timeout_view,
                qc_view,
            },
        );
        // Certificate-anchored fast-forward: a verified QC for view `v`
        // proves a quorum reached `v`, so entering `v + 1` is safe and
        // re-synchronizes a replica whose pacemaker fell behind. (The
        // post-dispatch state-transfer probe then closes any committed-
        // prefix gap the adopted QC just revealed.)
        if qc_view >= self.current_view {
            let next = qc_view + 1;
            self.enter_view(ctx, next, false);
            // Same shape as the view-timer path: if the fast-forwarded view
            // elects this replica, proposing now saves a full timeout.
            if self.leader_of(next) == self.id {
                self.propose(ctx);
            }
        }
    }
}
