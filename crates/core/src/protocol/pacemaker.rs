//! The pacemaker: view entry, the view clock that arms the view timer,
//! the `TIMEOUT` exchange, and the replica's start.

use super::{InivaMsg, InivaReplica};
use iniva_consensus::types::Qc;
use iniva_crypto::multisig::VoteScheme;
use iniva_net::wire::WireEncode;
use iniva_net::{Context, NodeId, Time};
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

/// How a replica came to enter a view: what the view clock may learn
/// from the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Entry {
    /// The replica's start, fresh or recovered from its WAL.
    Start,
    /// A vote or a QC of the previous view moved the replica on.
    Certified,
    /// The previous view's timer fired.
    Timeout,
    /// The previous view's timer fired while its leader was known-silent:
    /// the view was skipped, or waited out for a leader that the record
    /// has called dead since.
    Skipped,
    /// A peer's `TIMEOUT` carried a QC that moved the pacemaker forward.
    FastForward,
}

/// A replica's view clock: the span of its recent views, smoothed the
/// way RFC 6298 smooths a round-trip time, and the run of views that
/// ended by timeout. A skipped view neither extends nor ends that run: a
/// known-silent leader's view says nothing about how fast the next leader
/// is. Soft state, never journaled: a replica rebuilt from its WAL starts
/// unmeasured.
#[derive(Debug, Default)]
pub(super) struct ViewClock {
    /// The smoothed span and its mean deviation (SRTT and RTTVAR), once
    /// a span was sampled.
    estimate: Option<(Time, Time)>,
    /// When the replica last entered a view, and how.
    last: Option<(Time, Entry)>,
    /// Views in a row that ended by timeout, skipped views not counted.
    failed_streak: u32,
}

impl ViewClock {
    /// Records an entry at `now`; `next` says it is into the view right
    /// after the current one. The span since the previous entry is a
    /// sample only when this entry is `Certified`, into the next view,
    /// and the previous one was neither a timeout, a skip nor the start
    /// (Karn's rule: a span that began at a timer or at the start
    /// measures the timer or the boot, not the view).
    pub(super) fn enter(&mut self, now: Time, entry: Entry, next: bool) {
        if let Some((then, previous)) = self.last {
            let sampled = entry == Entry::Certified
                && next
                && !matches!(previous, Entry::Timeout | Entry::Skipped | Entry::Start);
            if sampled {
                self.sample(now.saturating_sub(then));
            }
        }
        self.last = Some((now, entry));
        self.failed_streak = match entry {
            Entry::Timeout => self.failed_streak.saturating_add(1),
            Entry::Skipped => self.failed_streak,
            _ => 0,
        };
    }

    /// Folds one view span in with RFC 6298's gains: 1/8 for the mean,
    /// 1/4 for the deviation; the first span seeds both.
    fn sample(&mut self, span: Time) {
        self.estimate = Some(match self.estimate {
            None => (span, span / 2),
            Some((srtt, rttvar)) => (
                srtt - srtt / 8 + span / 8,
                rttvar - rttvar / 4 + srtt.abs_diff(span) / 4,
            ),
        });
    }

    /// The view timer to arm: `ceiling` until a span was sampled, then
    /// `min(ceiling, max(floor, 2·(SRTT + 4·RTTVAR)) << failed_streak)`,
    /// and never below `floor`, which wins over a smaller `ceiling`.
    pub(super) fn timeout(&self, floor: Time, ceiling: Time) -> Time {
        let Some((srtt, rttvar)) = self.estimate else {
            return ceiling;
        };
        let measured = srtt
            .saturating_add(rttvar.saturating_mul(4))
            .saturating_mul(2);
        let backoff = 1u64 << self.failed_streak.min(63);
        measured
            .max(floor)
            .saturating_mul(backoff)
            .min(ceiling)
            .max(floor)
    }
}

impl<S: VoteScheme> InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    /// Enters `view` after a vote or QC of the previous view and arms the
    /// view timer. Every other entry (the start, a timeout, a skip, a
    /// `TIMEOUT` fast-forward) goes through `enter` and arms it the same
    /// way.
    ///
    /// The timer starts at the ceiling, `cfg.view_timeout`, and follows
    /// the replica's measured view spans once it has one (see
    /// [`ViewClock`]), never below the floor
    /// [`Self::view_timeout_floor`]. It doubles per consecutive failed
    /// view, up to the ceiling, and resets on any other entry but a skip.
    ///
    /// A view whose leader is another member that is known-silent
    /// (`Silence::waived`) arms 0 instead. Its timer fires in the next turn, which broadcasts `TIMEOUT` and enters the next view,
    /// whose leader proposes on its high QC. The skipped view counts as
    /// failed, but it neither doubles the next timer nor resets the
    /// doubling: the view of a leader known to be silent says nothing about
    /// how fast the next leader is. Nor is the span after it sampled.
    ///
    /// Timers do not touch safety: what a replica votes for and what it
    /// commits depend on QCs and the three-chain rule alone, and a timer
    /// only moves it to a later view. Liveness and who leads a view
    /// depend on them. A timeout shorter than an honest-but-slow leader's
    /// view costs that leader its view and its leader reward, and three
    /// things bound that. The floor covers the paper's whole fallback
    /// path, so a view that legitimately runs the root's `2Δ·height`
    /// window and the 2ND-CHANCE timer δ never times out. A view that
    /// still fails doubles the next timer, so a leader slower than the
    /// estimate loses views only until the timer has grown past its span.
    /// And only a leader absent from each of the last `n` QCs is skipped,
    /// which a member that answers its roots within δ never is (the
    /// ruling on `maybe_second_chance_or_finalize`).
    pub(super) fn enter_view(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64) {
        self.enter(ctx, view, Entry::Certified);
    }

    /// [`Self::enter_view`] with the entry's cause spelled out; the view
    /// clock samples only a `Certified` one.
    fn enter(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64, entry: Entry) {
        if view <= self.current_view && self.chain.metrics.total_views > 0 {
            return;
        }
        let next = view == self.current_view + 1;
        self.clock.enter(ctx.now(), entry, next);
        let timeout_ns = if self.leader_waived(view) {
            0
        } else {
            self.clock
                .timeout(self.view_timeout_floor(), self.cfg.view_timeout)
        };
        let failed = matches!(entry, Entry::Timeout | Entry::Skipped);
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
            timeout_ns,
        });
        // Durably record the pacemaker position (no-op without a sink): a
        // replica restarting from its WAL must not re-vote a view it
        // already entered.
        self.chain.note_view(view);
        ctx.set_timer(timeout_ns, timer_id(view, TIMER_VIEW));
    }

    /// The shortest view timer a replica waits out for a leader: the root's
    /// `2Δ·height` aggregation window, the 2ND-CHANCE timer δ, and one more
    /// `2Δ` for the next proposal to reach a leaf through the relay. A view
    /// whose leader is known-silent is not waited out at all (see
    /// [`Self::enter_view`]).
    pub(super) fn view_timeout_floor(&self) -> Time {
        let root_height = Time::from(self.topology.height_of(0));
        2 * self.cfg.delta * (root_height + 1) + self.cfg.sc_timer()
    }

    /// A fresh replica starts in view 1; a WAL-recovered one resumes at
    /// the view it had entered before the crash and waits to be contacted
    /// (its view timer keeps the pacemaker rotating if the cluster is gone
    /// too). Entering through `enter` (its guard passes here: no view
    /// has been counted yet) journals the starting view via
    /// `ChainState::note_view` — a replica crashing in view 1 must not
    /// restart believing it never entered it.
    pub(super) fn start(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let view = self.current_view;
        self.enter(ctx, view, Entry::Start);
        if view == 1 && self.leader_of(1) == self.id {
            self.propose(ctx);
        }
    }

    /// Whether `view`'s leader is known-silent: the view is skipped.
    pub(super) fn leader_waived(&self, view: u64) -> bool {
        self.silence.waived(self.leader_of(view))
    }

    /// The view timer of `view` fired: broadcast TIMEOUT and move on. A
    /// view whose leader is known-silent by now counts as skipped.
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
        let entry = if self.leader_waived(view) {
            Entry::Skipped
        } else {
            Entry::Timeout
        };
        let next = self.current_view + 1;
        self.enter(ctx, next, entry);
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
            self.enter(ctx, next, Entry::FastForward);
            // Same shape as the view-timer path: if the fast-forwarded view
            // elects this replica, proposing now saves a full timeout.
            if self.leader_of(next) == self.id {
                self.propose(ctx);
            }
        }
    }
}
