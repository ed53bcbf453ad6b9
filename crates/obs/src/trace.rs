//! Structured consensus event tracing: a bounded, per-replica ring
//! buffer of timestamped events, dumpable as JSONL.
//!
//! The tracer is **disabled by default and free when disabled**: a
//! disabled [`Tracer`] is a `None` and every emit call reduces to one
//! branch — no allocation, no lock, no clock read. Call sites whose
//! event payloads cost anything to build go through [`Tracer::emit_with`]
//! so the closure is never invoked unless tracing is on (the tier-1
//! tests assert this with a counting closure). When enabled, the ring
//! keeps the most recent `cap` events and counts what it sheds, so a
//! flood degrades coverage — never memory.
//!
//! Timestamps are nanoseconds on the node's runtime axis: virtual time
//! in simulation, time since the shared [`Runtime::with_epoch`] zero in
//! live clusters (`Runtime` propagates its epoch via [`Tracer::live`]).
//! Each dump carries the wall-clock instant its axis zero corresponds
//! to, which is what lets the timeline analyzer merge dumps from
//! separate processes whose epochs differ.
//!
//! [`Runtime::with_epoch`]: ../../iniva_transport/struct.Runtime.html

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use crate::json::push_json_str;

/// Which consensus timer fired (mirrors `core::protocol`'s timer kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The view timer — firing means the view failed.
    View,
    /// An aggregation wait timer at an internal/root node.
    Agg,
    /// The second-chance collection timer at the root.
    SecondChance,
}

impl TimerKind {
    fn tag(self) -> &'static str {
        match self {
            TimerKind::View => "view",
            TimerKind::Agg => "agg",
            TimerKind::SecondChance => "sc",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "view" => TimerKind::View,
            "agg" => TimerKind::Agg,
            "sc" => TimerKind::SecondChance,
            _ => return None,
        })
    }
}

/// One traced consensus/runtime occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The replica moved into `view` (whose leader it computed locally);
    /// `failed` is true when the previous view ended by timeout.
    ViewEntered {
        /// The view being entered.
        view: u64,
        /// The leader this replica expects for the view.
        leader: u32,
        /// Whether the previous view timed out rather than committed.
        failed: bool,
        /// The view timer armed on entry, in nanoseconds.
        timeout_ns: u64,
    },
    /// A protocol timer fired.
    TimerFired {
        /// View the timer belonged to.
        view: u64,
        /// Which timer.
        kind: TimerKind,
    },
    /// The leader broadcast a proposal.
    ProposalSent {
        /// Proposing view.
        view: u64,
        /// Block height proposed.
        height: u64,
        /// Requests batched into the block.
        txs: u32,
    },
    /// A replica received (and accepted for processing) a proposal.
    ProposalReceived {
        /// View of the proposal.
        view: u64,
        /// Block height.
        height: u64,
        /// Sender (the view's leader).
        leader: u32,
    },
    /// A batch of vote shares was verified (tree fold or root fold).
    VerifyBatch {
        /// View being aggregated.
        view: u64,
        /// Shares in the batch.
        items: u32,
        /// Wall-clock nanoseconds the verification took (real crypto
        /// cost; ~0 for the simulated scheme).
        wall_ns: u64,
        /// Modeled CPU nanoseconds charged to the runtime for the batch
        /// (the simulated scheme's cost; 0 under `tune_for_real_crypto`).
        charged_ns: u64,
    },
    /// The root opened a second-chance round for missing subtrees.
    SecondChance {
        /// View.
        view: u64,
        /// Replicas being offered the second chance.
        missing: u32,
        /// Of those, the known-silent ones (absent from the last `n`
        /// certified QCs) the root did not wait for.
        silent: u32,
    },
    /// A quorum certificate was assembled at the root.
    QcFormed {
        /// View certified.
        view: u64,
        /// Height certified.
        height: u64,
    },
    /// A block became committed under the three-chain rule.
    Committed {
        /// View in which the commit was observed.
        view: u64,
        /// Committed height.
        height: u64,
        /// The block hash's first 8 bytes, big-endian; `None` when the
        /// replica holds no certified block at the height. Dumped as 16
        /// hex digits (`""` when unknown), so no JSON reader rounds it.
        hash: Option<u64>,
    },
    /// A chaos-plan fault was injected on this node's runtime.
    FaultInjected {
        /// Human-readable fault description (`"crash"`, `"partition"`...).
        what: String,
    },
    /// The write-ahead log completed an fsync'd append.
    WalFsync {
        /// Wall-clock nanoseconds the write+fsync took.
        wall_ns: u64,
        /// Bytes appended.
        bytes: u64,
    },
    /// A state-transfer chunk of committed blocks was adopted.
    StateChunk {
        /// Peer that served the chunk.
        from: u32,
        /// Blocks adopted from it.
        blocks: u64,
    },
    /// This replica's view timed out and it broadcast a TIMEOUT message
    /// carrying its high QC (the HotStuff-style new-view exchange).
    TimeoutSent {
        /// The view that timed out.
        view: u64,
        /// View of the carried high QC (0 when the replica has none yet).
        high_qc_view: u64,
    },
    /// A QC carried by a peer's TIMEOUT message verified and was adopted,
    /// converging this replica's leader-election state with the sender's.
    TimeoutQcAdopted {
        /// The timed-out view the peer announced.
        view: u64,
        /// View of the adopted QC.
        qc_view: u64,
    },
    /// The proposer drafted a batch of admitted client requests out of
    /// the ingress mempool (live ingress only; the synthetic workload
    /// shows up in `ProposalSent.txs` instead).
    IngressBatch {
        /// First request sequence number claimed.
        start: u64,
        /// Requests drafted into the block.
        len: u32,
        /// Entries still queued in the mempool after the draft.
        depth: u64,
    },
    /// The mempool took back a dead block's requests: another block
    /// committed at its height (live ingress only).
    IngressRelease {
        /// View the dead block was proposed in.
        view: u64,
        /// Height it lost to the committed block.
        height: u64,
        /// First request sequence number of its range.
        start: u64,
        /// Length of its range.
        len: u32,
        /// Requests of the range put back in the queue.
        requeued: u32,
    },
}

/// A timestamped [`EventKind`] on the node's runtime time axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the node's time zero (virtual in sim, the
    /// shared runtime epoch in live clusters).
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serializes as one flat JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"at\": {}, \"k\": ", self.at);
        match &self.kind {
            EventKind::ViewEntered {
                view,
                leader,
                failed,
                timeout_ns,
            } => {
                s.push_str(&format!(
                    "\"view_entered\", \"view\": {view}, \"leader\": {leader}, \"failed\": {failed}, \"timeout_ns\": {timeout_ns}"
                ));
            }
            EventKind::TimerFired { view, kind } => {
                s.push_str(&format!(
                    "\"timer_fired\", \"view\": {view}, \"timer\": \"{}\"",
                    kind.tag()
                ));
            }
            EventKind::ProposalSent { view, height, txs } => {
                s.push_str(&format!(
                    "\"proposal_sent\", \"view\": {view}, \"height\": {height}, \"txs\": {txs}"
                ));
            }
            EventKind::ProposalReceived {
                view,
                height,
                leader,
            } => {
                s.push_str(&format!(
                    "\"proposal_received\", \"view\": {view}, \"height\": {height}, \"leader\": {leader}"
                ));
            }
            EventKind::VerifyBatch {
                view,
                items,
                wall_ns,
                charged_ns,
            } => {
                s.push_str(&format!(
                    "\"verify_batch\", \"view\": {view}, \"items\": {items}, \"wall_ns\": {wall_ns}, \"charged_ns\": {charged_ns}"
                ));
            }
            EventKind::SecondChance {
                view,
                missing,
                silent,
            } => {
                s.push_str(&format!(
                    "\"second_chance\", \"view\": {view}, \"missing\": {missing}, \"silent\": {silent}"
                ));
            }
            EventKind::QcFormed { view, height } => {
                s.push_str(&format!(
                    "\"qc_formed\", \"view\": {view}, \"height\": {height}"
                ));
            }
            EventKind::Committed { view, height, hash } => {
                let hash = hash.map_or(String::new(), |h| format!("{h:016x}"));
                s.push_str(&format!(
                    "\"committed\", \"view\": {view}, \"height\": {height}, \"hash\": \"{hash}\""
                ));
            }
            EventKind::FaultInjected { what } => {
                s.push_str("\"fault_injected\", \"what\": ");
                push_json_str(&mut s, what);
            }
            EventKind::WalFsync { wall_ns, bytes } => {
                s.push_str(&format!(
                    "\"wal_fsync\", \"wall_ns\": {wall_ns}, \"bytes\": {bytes}"
                ));
            }
            EventKind::StateChunk { from, blocks } => {
                s.push_str(&format!(
                    "\"state_chunk\", \"from\": {from}, \"blocks\": {blocks}"
                ));
            }
            EventKind::TimeoutSent { view, high_qc_view } => {
                s.push_str(&format!(
                    "\"timeout_sent\", \"view\": {view}, \"high_qc_view\": {high_qc_view}"
                ));
            }
            EventKind::TimeoutQcAdopted { view, qc_view } => {
                s.push_str(&format!(
                    "\"timeout_qc_adopted\", \"view\": {view}, \"qc_view\": {qc_view}"
                ));
            }
            EventKind::IngressBatch { start, len, depth } => {
                s.push_str(&format!(
                    "\"ingress_batch\", \"start\": {start}, \"len\": {len}, \"depth\": {depth}"
                ));
            }
            EventKind::IngressRelease {
                view,
                height,
                start,
                len,
                requeued,
            } => {
                s.push_str(&format!(
                    "\"ingress_release\", \"view\": {view}, \"height\": {height}, \"start\": {start}, \"len\": {len}, \"requeued\": {requeued}"
                ));
            }
        }
        s.push('}');
        s
    }

    /// Parses a line produced by [`Event::to_json`].
    ///
    /// # Errors
    /// Describes the first malformed or missing field.
    pub fn from_json(line: &str) -> Result<Event, String> {
        use crate::json::{field_u64, parse_flat_object, JsonVal};
        let pairs = parse_flat_object(line)?;
        let at = field_u64(&pairs, "at")?;
        let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let kind_tag = get("k")
            .and_then(JsonVal::as_str)
            .ok_or("missing event kind \"k\"")?;
        let u = |key: &str| field_u64(&pairs, key);
        let kind = match kind_tag {
            "view_entered" => EventKind::ViewEntered {
                view: u("view")?,
                leader: u("leader")? as u32,
                failed: get("failed")
                    .and_then(JsonVal::as_bool)
                    .ok_or("missing bool \"failed\"")?,
                timeout_ns: u("timeout_ns")?,
            },
            "timer_fired" => EventKind::TimerFired {
                view: u("view")?,
                kind: get("timer")
                    .and_then(JsonVal::as_str)
                    .and_then(TimerKind::from_tag)
                    .ok_or("bad \"timer\" tag")?,
            },
            "proposal_sent" => EventKind::ProposalSent {
                view: u("view")?,
                height: u("height")?,
                txs: u("txs")? as u32,
            },
            "proposal_received" => EventKind::ProposalReceived {
                view: u("view")?,
                height: u("height")?,
                leader: u("leader")? as u32,
            },
            "verify_batch" => EventKind::VerifyBatch {
                view: u("view")?,
                items: u("items")? as u32,
                wall_ns: u("wall_ns")?,
                charged_ns: u("charged_ns")?,
            },
            "second_chance" => EventKind::SecondChance {
                view: u("view")?,
                missing: u("missing")? as u32,
                silent: u("silent")? as u32,
            },
            "qc_formed" => EventKind::QcFormed {
                view: u("view")?,
                height: u("height")?,
            },
            "committed" => EventKind::Committed {
                view: u("view")?,
                height: u("height")?,
                hash: match get("hash").and_then(JsonVal::as_str) {
                    Some("") => None,
                    Some(hex) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                        u64::from_str_radix(hex, 16).ok()
                    }
                    _ => return Err("missing or malformed \"hash\"".into()),
                },
            },
            "fault_injected" => EventKind::FaultInjected {
                what: get("what")
                    .and_then(JsonVal::as_str)
                    .ok_or("missing \"what\"")?
                    .to_string(),
            },
            "wal_fsync" => EventKind::WalFsync {
                wall_ns: u("wall_ns")?,
                bytes: u("bytes")?,
            },
            "state_chunk" => EventKind::StateChunk {
                from: u("from")? as u32,
                blocks: u("blocks")?,
            },
            "timeout_sent" => EventKind::TimeoutSent {
                view: u("view")?,
                high_qc_view: u("high_qc_view")?,
            },
            "timeout_qc_adopted" => EventKind::TimeoutQcAdopted {
                view: u("view")?,
                qc_view: u("qc_view")?,
            },
            "ingress_batch" => EventKind::IngressBatch {
                start: u("start")?,
                len: u("len")? as u32,
                depth: u("depth")?,
            },
            "ingress_release" => EventKind::IngressRelease {
                view: u("view")?,
                height: u("height")?,
                start: u("start")?,
                len: u("len")? as u32,
                requeued: u("requeued")? as u32,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(Event { at, kind })
    }
}

struct TracerInner {
    node: u32,
    cap: usize,
    /// Wall-clock nanoseconds since the unix epoch at this tracer's
    /// time zero — the cross-process alignment anchor in dumps.
    wall_epoch_unix_ns: u64,
    /// Maps `Instant::now()` onto the event axis for threads that have
    /// no actor context clock (WAL, transport). `None` in simulation,
    /// where only explicit virtual timestamps make sense.
    clock: Option<Instant>,
    ring: Mutex<VecDeque<Event>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

/// A cheaply clonable handle to one node's event ring, or the disabled
/// no-op tracer (the default).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

impl Tracer {
    /// The disabled tracer: every emit is a single branch, nothing is
    /// stored, closures passed to [`Tracer::emit_with`] never run.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer for `node` keeping the most recent `cap`
    /// events. Timestamps must be supplied explicitly (simulation /
    /// actor-context time).
    ///
    /// # Panics
    /// If `cap` is zero.
    pub fn new(node: u32, cap: usize) -> Tracer {
        Self::build(node, cap, None, unix_now_ns())
    }

    /// An enabled tracer whose [`Tracer::now`] reads wall time relative
    /// to `epoch` — pass the same epoch as `Runtime::with_epoch` so WAL
    /// and transport events share the replica's axis.
    ///
    /// # Panics
    /// If `cap` is zero.
    pub fn live(node: u32, cap: usize, epoch: Instant) -> Tracer {
        let wall_epoch = unix_now_ns().saturating_sub(epoch.elapsed().as_nanos() as u64);
        Self::build(node, cap, Some(epoch), wall_epoch)
    }

    fn build(node: u32, cap: usize, clock: Option<Instant>, wall_epoch_unix_ns: u64) -> Tracer {
        assert!(cap > 0, "tracer ring capacity must be positive");
        Tracer {
            inner: Some(Arc::new(TracerInner {
                node,
                cap,
                wall_epoch_unix_ns,
                clock,
                ring: Mutex::new(VecDeque::with_capacity(cap.min(4096))),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this tracer's epoch (0 when disabled or when
    /// constructed without a clock).
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.inner {
            Some(inner) => match inner.clock {
                Some(epoch) => epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                None => 0,
            },
            None => 0,
        }
    }

    /// Records `kind` at time `at`. Use for payloads that are free to
    /// build; anything that allocates should go through
    /// [`Tracer::emit_with`].
    #[inline]
    pub fn emit(&self, at: u64, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.push(Event { at, kind });
        }
    }

    /// Records the event built by `f` at time `at` — `f` runs only when
    /// tracing is enabled, which is what keeps the disabled hot path
    /// allocation-free.
    #[inline]
    pub fn emit_with<F: FnOnce() -> EventKind>(&self, at: u64, f: F) {
        if let Some(inner) = &self.inner {
            inner.push(Event { at, kind: f() });
        }
    }

    /// The node id this tracer records for (0 when disabled).
    pub fn node(&self) -> u32 {
        self.inner.as_ref().map(|i| i.node).unwrap_or(0)
    }

    /// Total events ever recorded (including since-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.recorded.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Wall-clock unix nanoseconds corresponding to `at == 0`.
    pub fn wall_epoch_unix_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.wall_epoch_unix_ns)
            .unwrap_or(0)
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.ring.lock().unwrap().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The full dump: one metadata line, then one JSONL line per
    /// retained event. Empty string when disabled.
    pub fn dump_jsonl(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out = format!(
            "{{\"meta\": 1, \"node\": {}, \"wall_epoch_unix_ns\": {}, \"recorded\": {}, \"dropped\": {}}}\n",
            inner.node,
            inner.wall_epoch_unix_ns,
            self.recorded(),
            self.dropped(),
        );
        for ev in inner.ring.lock().unwrap().iter() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes [`Tracer::dump_jsonl`] to `path` (no-op when disabled).
    ///
    /// # Errors
    /// Propagates the underlying file I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if self.enabled() {
            std::fs::write(path, self.dump_jsonl())?;
        }
        Ok(())
    }
}

impl TracerInner {
    fn push(&self, ev: Event) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                at: 5,
                kind: EventKind::ViewEntered {
                    view: 1,
                    leader: 3,
                    failed: false,
                    timeout_ns: 120_000_000,
                },
            },
            Event {
                at: 6,
                kind: EventKind::TimerFired {
                    view: 1,
                    kind: TimerKind::SecondChance,
                },
            },
            Event {
                at: 7,
                kind: EventKind::ProposalSent {
                    view: 1,
                    height: 9,
                    txs: 100,
                },
            },
            Event {
                at: 8,
                kind: EventKind::ProposalReceived {
                    view: 1,
                    height: 9,
                    leader: 3,
                },
            },
            Event {
                at: 9,
                kind: EventKind::VerifyBatch {
                    view: 1,
                    items: 7,
                    wall_ns: 41_000_000,
                    charged_ns: 0,
                },
            },
            Event {
                at: 10,
                kind: EventKind::SecondChance {
                    view: 1,
                    missing: 2,
                    silent: 1,
                },
            },
            Event {
                at: 11,
                kind: EventKind::QcFormed { view: 1, height: 9 },
            },
            Event {
                at: 12,
                kind: EventKind::Committed {
                    view: 1,
                    height: 7,
                    hash: Some(0x00c0_ffee_0000_0001),
                },
            },
            Event {
                at: 12,
                kind: EventKind::Committed {
                    view: 1,
                    height: 8,
                    hash: None,
                },
            },
            Event {
                at: 13,
                kind: EventKind::FaultInjected {
                    what: "crash node 2".into(),
                },
            },
            Event {
                at: 14,
                kind: EventKind::WalFsync {
                    wall_ns: 180_000,
                    bytes: 4096,
                },
            },
            Event {
                at: 15,
                kind: EventKind::StateChunk {
                    from: 4,
                    blocks: 32,
                },
            },
            Event {
                at: 16,
                kind: EventKind::TimeoutSent {
                    view: 9,
                    high_qc_view: 7,
                },
            },
            Event {
                at: 17,
                kind: EventKind::TimeoutQcAdopted {
                    view: 9,
                    qc_view: 8,
                },
            },
            Event {
                at: 18,
                kind: EventKind::IngressRelease {
                    view: 9,
                    height: 6,
                    start: 700,
                    len: 100,
                    requeued: 98,
                },
            },
        ]
    }

    #[test]
    fn every_event_kind_roundtrips_through_json() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "{line}");
        }
        // A commit without its hash is a dump from before hashes were
        // traced: it no longer parses.
        let hashless = "{\"at\": 1, \"k\": \"committed\", \"view\": 1, \"height\": 2}";
        assert!(Event::from_json(hashless).is_err());
    }

    #[test]
    fn ring_stays_bounded_under_event_flood() {
        let t = Tracer::new(7, 1000);
        for i in 0..50_000u64 {
            t.emit(i, EventKind::QcFormed { view: i, height: i });
        }
        let events = t.events();
        assert_eq!(events.len(), 1000, "ring must hold exactly cap events");
        assert_eq!(t.recorded(), 50_000);
        assert_eq!(t.dropped(), 49_000);
        // The survivors are the most recent, in order.
        assert_eq!(events[0].at, 49_000);
        assert_eq!(events[999].at, 49_999);
        // And the dump stays proportional to cap, not to the flood.
        let dump = t.dump_jsonl();
        assert_eq!(dump.lines().count(), 1001, "meta line + cap events");
        assert!(dump.starts_with("{\"meta\": 1, \"node\": 7,"));
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        let mut built = 0u32;
        for _ in 0..100 {
            t.emit_with(0, || {
                built += 1;
                EventKind::QcFormed { view: 0, height: 0 }
            });
        }
        assert_eq!(built, 0, "disabled tracing must not construct events");
        assert!(!t.enabled());
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.events().len(), 0);
        assert_eq!(t.dump_jsonl(), "");
    }

    #[test]
    fn live_clock_advances_on_the_given_epoch() {
        let epoch = Instant::now();
        let t = Tracer::live(1, 16, epoch);
        let a = t.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.now();
        assert!(b > a, "clock must advance");
        assert!(t.wall_epoch_unix_ns() > 0);
        assert_eq!(Tracer::disabled().now(), 0);
    }
}
