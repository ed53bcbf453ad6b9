//! The view clock, driven by hand: each test enters views at chosen
//! times and reads the view timer `enter_view` armed from the handler's
//! effects. The clock arms the ceiling until it has timed a view, samples
//! only a certified entry into the next view that followed a certified
//! entry, stays between the floor and the ceiling (the floor winning),
//! doubles per failed view until an entry that is not a timeout, and skips
//! a known-silent leader's view at 0 without touching the doubling. Each
//! test names the broken rule it catches.

use super::pacemaker::{timer_id, TIMER_VIEW};
use super::testkit::{chain, qc_over};
use super::*;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_net::{ContextEffects, MILLIS};

const N: u32 = 21;

/// The replica under test. It leads views 10 and 31 under round robin,
/// and no test moves it into either by a timer or a fast-forward: a
/// leader entering its view proposes, votes and moves on at once.
const ID: u32 = 10;

/// `for_tests` with the ceiling raised to 1 s, so a measured value has
/// room above the 120 ms floor.
fn config() -> InivaConfig {
    InivaConfig {
        view_timeout: 1000 * MILLIS,
        ..InivaConfig::for_tests(N as usize, 4)
    }
}

/// The view timer `effects` armed, if they armed one for `view`.
fn armed_for(effects: &ContextEffects<InivaMsg<SimScheme>>, view: u64) -> Option<Time> {
    effects
        .timers
        .iter()
        .find(|&&(_, id)| id == timer_id(view, TIMER_VIEW))
        .map(|&(delay, _)| delay)
}

/// One replica and its scheme, its handlers called at chosen times.
struct Pace {
    r: InivaReplica<SimScheme>,
    scheme: Arc<SimScheme>,
}

impl Pace {
    fn new(cfg: InivaConfig) -> Self {
        let scheme = Arc::new(SimScheme::new(cfg.n, b"pacemaker"));
        let r = InivaReplica::new(ID, cfg, Arc::clone(&scheme));
        Pace { r, scheme }
    }

    /// Runs `handler` at `now` and returns the view timer it armed for
    /// the view the replica is in afterwards.
    fn at(
        &mut self,
        now: Time,
        handler: impl FnOnce(&mut InivaReplica<SimScheme>, &mut Context<InivaMsg<SimScheme>>),
    ) -> Time {
        let mut ctx = Context::external(self.r.id, now);
        handler(&mut self.r, &mut ctx);
        let view = self.r.current_view();
        armed_for(&ctx.into_effects(), view).expect("the entered view's timer is armed")
    }

    /// The replica's start, at `now`.
    fn start(&mut self, now: Time) -> Time {
        self.at(now, |r, ctx| r.on_start(ctx))
    }

    /// A vote or a QC moves the replica into `view` at `now`.
    fn certified(&mut self, now: Time, view: u64) -> Time {
        self.at(now, |r, ctx| r.enter_view(ctx, view))
    }

    /// The current view's timer fires at `now`.
    fn fire(&mut self, now: Time) -> Time {
        let view = self.r.current_view();
        assert_ne!(self.r.leader_of(view + 1), ID, "the replica does not lead");
        self.at(now, |r, ctx| r.on_view_timer(ctx, view))
    }

    /// A peer's `TIMEOUT` at `now` carries a QC for the current view,
    /// fast-forwarding the replica into the next one.
    fn fast_forward(&mut self, now: Time) -> Time {
        let view = self.r.current_view();
        assert_ne!(self.r.leader_of(view + 1), ID, "the replica does not lead");
        let block = chain(view, N).pop().expect("a block at the current view");
        let signers: Vec<u32> = (0..quorum(N as usize) as u32).collect();
        let qc = qc_over(&self.scheme, &block, &signers);
        let armed = self.at(now, |r, ctx| r.handle_timeout(ctx, 1, view, Some(qc)));
        assert_eq!(self.r.current_view(), view + 1, "the QC fast-forwarded");
        armed
    }

    /// Adopts the QCs of views `1..=count`, each signed by every member but
    /// `member`.
    fn silence(&mut self, member: u32, count: u64) {
        let signers: Vec<u32> = (0..N).filter(|&m| m != member).collect();
        for block in chain(count, N) {
            self.r.chain.insert_block(block.clone());
            self.r.adopt_qc(0, qc_over(&self.scheme, &block, &signers));
        }
    }

    /// Starts at 0 and enters one view per span in `spans`; returns the
    /// time of the last entry and the timer it armed.
    fn run(&mut self, spans: &[Time]) -> (Time, Time) {
        let mut now = 0;
        let mut armed = self.start(now);
        for span in spans {
            now += span;
            armed = self.certified(now, self.r.current_view() + 1);
        }
        (now, armed)
    }
}

/// A fresh replica and a `recover`ed one arm the ceiling: nothing has
/// been timed yet. Caught if the clock arms the floor or a default
/// estimate before its first sample.
#[test]
fn the_first_view_and_a_recovered_replica_arm_the_ceiling() {
    let cfg = config();
    let ceiling = cfg.view_timeout;
    let mut fresh = Pace::new(cfg.clone());
    assert_eq!(fresh.start(0), ceiling);
    assert_eq!(fresh.r.current_view(), 1);

    let scheme = Arc::new(SimScheme::new(cfg.n, b"pacemaker"));
    let mut recovered = Pace {
        r: InivaReplica::recover(ID, cfg, Arc::clone(&scheme), Vec::new(), 9),
        scheme,
    };
    assert_eq!(recovered.start(5 * MILLIS), ceiling);
    assert_eq!(recovered.r.current_view(), 9);
    // The span from the start to the first vote is not a view.
    assert_eq!(recovered.certified(6 * MILLIS, 10), ceiling);
}

/// The start is not sampled: a replica enters view 1 at 0 and votes a
/// millisecond later, and that span would put the first estimate at the
/// floor. Caught if the start skip is dropped: the 1 ms span seeds the
/// estimate and the view after the first real span arms 120 ms, not
/// `6 × 30` ms.
#[test]
fn the_start_view_is_not_sampled() {
    let mut p = Pace::new(config());
    let ceiling = config().view_timeout;
    assert_eq!(p.start(0), ceiling);
    assert_eq!(p.certified(MILLIS, 2), ceiling, "no sample yet");
    // The first sample seeds SRTT = 30 ms and RTTVAR = 15 ms:
    // 2·(30 + 4·15) = 180 ms.
    assert_eq!(p.certified(31 * MILLIS, 3), 180 * MILLIS);
}

/// A view entered by timeout, the view after it, a `TIMEOUT` fast-forward
/// into the next view and a certified jump past it are not sampled: each
/// leaves the estimate where it was. Caught if a timeout entry, the span
/// after one, a fast-forward, or a jump of more than one view is sampled.
#[test]
fn timeout_entries_fast_forwards_and_jumps_are_not_sampled() {
    let mut p = Pace::new(config());
    let (mut now, steady) = p.run(&[30 * MILLIS; 4]);
    assert!(steady > p.r.view_timeout_floor(), "{steady}");

    // The view times out after its full timer: entering the next view by
    // timeout backs off and samples nothing.
    now += steady;
    assert_eq!(p.fire(now), 2 * steady);
    // The next view certifies after 1 ms: the span began at a timer.
    now += MILLIS;
    let view = p.r.current_view();
    assert_eq!(
        p.certified(now, view + 1),
        steady,
        "backoff reset, no sample"
    );

    // A peer's TIMEOUT fast-forwards into the next view 2 ms later.
    now += 2 * MILLIS;
    assert_eq!(p.fast_forward(now), steady, "fast-forward not sampled");

    // A proposal three views ahead is voted 3 ms later.
    now += 3 * MILLIS;
    let view = p.r.current_view();
    assert_eq!(p.certified(now, view + 3), steady, "jump not sampled");

    // A certified entry into the next view after a certified one is.
    now += 30 * MILLIS;
    let view = p.r.current_view();
    assert!(
        p.certified(now, view + 1) < steady,
        "a 30 ms span is sampled"
    );
}

/// The armed timer never leaves [floor, ceiling]: 1 ms views arm the
/// floor, views longer than the ceiling arm the ceiling, and a ceiling
/// below the floor yields to the floor. Caught if either clamp is dropped
/// or the two are applied in the other order.
#[test]
fn the_armed_timer_stays_between_the_floor_and_the_ceiling() {
    let cfg = config();
    let floor = 120 * MILLIS;
    let mut fast = Pace::new(cfg.clone());
    assert_eq!(
        fast.r.view_timeout_floor(),
        floor,
        "2Δ·(height(root) + 1) + δ at Δ = 15 ms"
    );
    fast.run(&[MILLIS; 12]);
    let view = fast.r.current_view();
    assert_eq!(fast.certified(13 * MILLIS, view + 1), floor);

    let mut slow = Pace::new(cfg.clone());
    let (_, armed) = slow.run(&[900 * MILLIS; 6]);
    assert_eq!(armed, cfg.view_timeout);

    let mut low_ceiling = Pace::new(InivaConfig {
        view_timeout: 50 * MILLIS,
        ..cfg
    });
    let (_, armed) = low_ceiling.run(&[MILLIS; 6]);
    assert_eq!(armed, floor, "the floor wins over a smaller ceiling");
}

/// Each consecutive failed view doubles the timer, up to the ceiling, and
/// the next entry that is not a timeout — a QC, or a fast-forward —
/// arms the measured value again. Caught if the doubling, the ceiling on
/// it, or either reset is dropped.
#[test]
fn the_backoff_doubles_per_failed_view_and_resets_on_a_qc() {
    let mut p = Pace::new(config());
    let (mut now, base) = p.run(&[MILLIS; 12]);
    assert_eq!(base, 120 * MILLIS);
    let mut armed = base;
    for expected in [240, 480, 960, 1000, 1000] {
        now += armed;
        armed = p.fire(now);
        assert_eq!(armed, expected * MILLIS);
    }
    now += MILLIS;
    let view = p.r.current_view();
    assert_eq!(p.certified(now, view + 1), base, "a QC resets the backoff");

    now += base;
    assert_eq!(p.fire(now), 2 * base);
    now += MILLIS;
    assert_eq!(p.fast_forward(now), base, "a fast-forward resets it too");
}

/// The trace names the timer each view armed. Caught if `ViewEntered`
/// carries another value than the one set.
#[test]
fn view_entered_traces_the_armed_timer() {
    let mut p = Pace::new(config());
    p.r.set_observability(&Registry::new(), Tracer::new(ID, 64));
    let mut armed = vec![p.start(0)];
    let mut now = 0;
    for span in [MILLIS, 30 * MILLIS, 30 * MILLIS] {
        now += span;
        armed.push(p.certified(now, p.r.current_view() + 1));
    }
    now += armed[armed.len() - 1];
    armed.push(p.fire(now));
    let traced: Vec<Time> =
        p.r.tracer()
            .events()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                EventKind::ViewEntered { timeout_ns, .. } => Some(timeout_ns),
                _ => None,
            })
            .collect();
    assert_eq!(traced, armed);
    assert_eq!(
        armed,
        vec![
            1000 * MILLIS,
            1000 * MILLIS,
            180 * MILLIS,
            150 * MILLIS,
            300 * MILLIS
        ]
    );
}

/// A view whose leader is absent from the last `n` QCs arms its timer at
/// 0. When it fires, the replica enters the next view, and the skipped view
/// counts as failed. The skip leaves the doubling as it found it: a view
/// that timed out before it still doubles the view after it. With `n − 1`
/// absent QCs the view is waited out and doubles the timer as before.
/// Caught if the skip is dropped, taken at `n − 1`, or fed to the backoff
/// as a timeout or a reset.
#[test]
fn a_known_silent_leaders_view_is_skipped_and_leaves_the_backoff_alone() {
    // Views 1 to 5 certify; 5 times out into 6, which member 6 leads.
    let silent = 6;
    for (absent, skipped) in [(N as u64 - 1, false), (N as u64, true)] {
        let mut p = Pace::new(config());
        p.silence(silent, absent);
        let (mut now, steady) = p.run(&[30 * MILLIS; 4]);
        now += steady;
        let armed = p.fire(now);
        assert_eq!(p.r.leader_of(p.r.current_view()), silent);
        assert_eq!(armed, if skipped { 0 } else { 2 * steady }, "{absent}");
        now += armed;
        let next = p.fire(now);
        assert_eq!(next, if skipped { 2 } else { 4 } * steady, "{absent}");
        assert_eq!(p.r.current_view(), 7);
        assert_eq!(p.r.chain.metrics.failed_views, 2, "{absent}");
    }
}
