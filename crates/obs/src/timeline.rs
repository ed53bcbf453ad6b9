//! Cross-replica view-timeline analysis: merges per-node trace dumps
//! onto one time axis and explains, view by view, where the time went.
//!
//! Dumps from one process share a `Runtime::with_epoch` zero and align
//! trivially. Dumps from separate processes (the TOML multi-process
//! mode) carry each node's wall-clock epoch instead, and wall clocks
//! can disagree; the merger therefore aligns in two steps — coarse, by
//! declared wall epoch, then refined by the median offset between
//! matching `Committed{height}` events against a reference node, which
//! cancels clock skew up to the (much smaller) commit-propagation
//! delay. The result is a per-view record of who led, when each
//! replica entered, when the proposal/QC/commits landed, and a budget
//! split of the view's wall time into network, verify and timer wait —
//! the decomposition the Carousel-collapse diagnosis needs.

use crate::json::{field_u64, parse_flat_object};
use crate::trace::{Event, EventKind, TimerKind};
use std::path::{Path, PathBuf};

/// One node's parsed trace dump.
#[derive(Debug, Clone)]
pub struct NodeDump {
    /// Replica id.
    pub node: u32,
    /// Wall-clock unix nanoseconds at this dump's `at == 0`.
    pub wall_epoch_unix_ns: u64,
    /// Events ever recorded by the tracer (ring may have shed some).
    pub recorded: u64,
    /// Events the ring shed.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

/// Parses a dump produced by `Tracer::dump_jsonl` (meta line + events).
///
/// # Errors
/// Names the offending line on any parse failure.
pub fn parse_dump(text: &str) -> Result<NodeDump, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, meta_line) = lines.next().ok_or("empty dump")?;
    let meta = parse_flat_object(meta_line).map_err(|e| format!("meta line: {e}"))?;
    if field_u64(&meta, "meta").is_err() {
        return Err("first line is not a dump meta record".into());
    }
    let mut dump = NodeDump {
        node: field_u64(&meta, "node")? as u32,
        wall_epoch_unix_ns: field_u64(&meta, "wall_epoch_unix_ns")?,
        recorded: field_u64(&meta, "recorded").unwrap_or(0),
        dropped: field_u64(&meta, "dropped").unwrap_or(0),
        events: Vec::new(),
    };
    for (idx, line) in lines {
        let ev = Event::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        dump.events.push(ev);
    }
    Ok(dump)
}

/// Reads every node's trace dump in `dir`: the files named
/// `trace-<id>.jsonl`, in ascending node id. Other files beside them —
/// `metrics-<id>.json`, the ingress tier's `ingress-trace.jsonl` — are
/// skipped.
///
/// # Errors
/// Names the directory when it cannot be listed or holds no dump, and the
/// file when one cannot be read or parsed.
pub fn read_dumps(dir: &Path) -> Result<Vec<NodeDump>, String> {
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<(u32, PathBuf)> = listing
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let id = name.strip_prefix("trace-")?.strip_suffix(".jsonl")?;
            Some((id.parse().ok()?, path))
        })
        .collect();
    if files.is_empty() {
        return Err(format!("no trace-<id>.jsonl in {}", dir.display()));
    }
    files.sort();
    files
        .iter()
        .map(|(_, path)| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            parse_dump(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// How a view ended, as far as the merged traces can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewOutcome {
    /// The cluster moved to the next view without a timeout.
    #[default]
    Advanced,
    /// Timed out with no replica ever seeing a proposal — a dead,
    /// partitioned or never-scheduled leader; the whole view is timer
    /// burn.
    FailedNoProposal,
    /// A proposal circulated but no QC formed before the timeout.
    FailedNoQuorum,
    /// A QC formed and the view still timed out somewhere.
    FailedAfterQc,
    /// The trace window ends inside this view.
    Unknown,
}

impl ViewOutcome {
    /// The outcome as the per-view table prints it.
    fn label(self) -> &'static str {
        match self {
            ViewOutcome::Advanced => "advanced",
            ViewOutcome::FailedNoProposal => "FAILED no-proposal",
            ViewOutcome::FailedNoQuorum => "FAILED no-quorum",
            ViewOutcome::FailedAfterQc => "FAILED after-QC",
            ViewOutcome::Unknown => "(window end)",
        }
    }
}

/// Where one view's wall time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewBudget {
    /// Full span of the view (first entry to first entry of the next).
    pub span_ns: u64,
    /// Proposal propagation: leader send to median receipt.
    pub network_ns: u64,
    /// Signature verification (max of wall and modeled-charge sums).
    pub verify_ns: u64,
    /// Everything else — aggregation-timer wait, second-chance wait,
    /// and for proposal-less views the entire view-timeout burn.
    pub timer_ns: u64,
}

/// One view of the merged timeline (times in ns on the reference axis).
#[derive(Debug, Clone, Default)]
pub struct ViewRecord {
    /// The view number.
    pub view: u64,
    /// Majority opinion of the view's leader among replicas that
    /// entered it.
    pub leader: Option<u32>,
    /// `(node, at)` for every replica's entry into the view.
    pub entered: Vec<(u32, i64)>,
    /// The view timer each entry armed, in `entered`'s order.
    pub armed_ns: Vec<u64>,
    /// When the leader broadcast, if traced.
    pub proposal_sent: Option<i64>,
    /// `(node, at)` proposal receipts.
    pub proposal_seen: Vec<(u32, i64)>,
    /// Earliest QC assembly.
    pub qc_at: Option<i64>,
    /// `(node, at, height)` commits observed during the view.
    pub commits: Vec<(u32, i64, u64)>,
    /// `(node, at)` view-timer expiries.
    pub timeouts: Vec<(u32, i64)>,
    /// Summed wall-clock verification ns across nodes.
    pub verify_wall_ns: u64,
    /// Summed modeled (charged) verification ns across nodes.
    pub verify_charged_ns: u64,
    /// Verification batches across nodes: every `VerifyBatch` event, the
    /// carried-QC checks and the fan-in batches alike.
    pub verify_batches: u32,
    /// Second-chance rounds opened.
    pub second_chances: u32,
    /// Known-silent members among those rounds' missing ones: the members
    /// the root did not wait for.
    pub silent: u32,
    /// End of the view on the reference axis (first entry into the
    /// next observed view, or the last event of this one).
    pub end: i64,
    /// Classification of how the view ended.
    pub outcome: ViewOutcome,
}

impl ViewRecord {
    /// First replica's entry time, if any replica entered.
    pub fn start(&self) -> Option<i64> {
        self.entered.iter().map(|&(_, at)| at).min()
    }

    /// The median view timer the replicas armed on entry, if any entered.
    pub fn armed_p50(&self) -> Option<u64> {
        median(self.armed_ns.clone())
    }

    /// Splits the view's span into network / verify / timer.
    pub fn budget(&self) -> ViewBudget {
        let Some(start) = self.start() else {
            return ViewBudget::default();
        };
        let span_ns = (self.end - start).max(0) as u64;
        let verify_ns = self.verify_wall_ns.max(self.verify_charged_ns).min(span_ns);
        let network_ns = match (self.proposal_sent, median_recv(&self.proposal_seen)) {
            (Some(sent), Some(recv)) => (recv - sent).max(0) as u64,
            _ => 0,
        }
        .min(span_ns.saturating_sub(verify_ns));
        ViewBudget {
            span_ns,
            network_ns,
            verify_ns,
            timer_ns: span_ns - network_ns - verify_ns,
        }
    }
}

fn median_recv(seen: &[(u32, i64)]) -> Option<i64> {
    median(seen.iter().map(|&(_, at)| at).collect())
}

/// The upper median of `v`, `None` when it is empty.
fn median<T: Ord + Copy>(mut v: Vec<T>) -> Option<T> {
    v.sort_unstable();
    v.get(v.len() / 2).copied()
}

/// The merged cross-replica timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Replicas that contributed a dump, ascending.
    pub nodes: Vec<u32>,
    /// Per-node alignment offsets applied (ns added to that node's
    /// timestamps to land on the reference axis), ascending by node.
    pub offsets_ns: Vec<(u32, i64)>,
    /// Views in ascending order.
    pub views: Vec<ViewRecord>,
    /// Committed events per node, ascending by node.
    pub per_node_commits: Vec<(u32, u64)>,
    /// Events shed by any ring (coverage warning when nonzero).
    pub dropped_events: u64,
}

impl Timeline {
    /// Merges per-node dumps onto the reference axis (see module docs
    /// for the two-step alignment).
    pub fn merge(dumps: &[NodeDump]) -> Timeline {
        let mut dumps: Vec<&NodeDump> = dumps.iter().collect();
        dumps.sort_by_key(|d| d.node);
        let Some(reference) = dumps
            .iter()
            .max_by_key(|d| (d.events.len(), std::cmp::Reverse(d.node)))
        else {
            return Timeline::default();
        };

        // Commit anchor table of the reference node: height -> at.
        let ref_commits: Vec<(u64, i64)> = reference
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Committed { height, .. } => Some((height, e.at as i64)),
                _ => None,
            })
            .collect();

        let mut offsets = Vec::new();
        for d in &dumps {
            // Coarse: declared wall epochs.
            let coarse = d.wall_epoch_unix_ns as i64 - reference.wall_epoch_unix_ns as i64;
            // Refined: median residual over matching committed heights.
            let residuals: Vec<i64> = d
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Committed { height, .. } => ref_commits
                        .iter()
                        .find(|&&(h, _)| h == height)
                        .map(|&(_, ref_at)| (e.at as i64 + coarse) - ref_at),
                    _ => None,
                })
                .collect();
            let refine = if residuals.len() >= 3 {
                median(residuals).unwrap_or(0)
            } else {
                0
            };
            offsets.push((d.node, coarse - refine));
        }

        // Bucket aligned events per view.
        let mut views: std::collections::BTreeMap<u64, ViewRecord> = Default::default();
        let mut leader_votes: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
        let mut failed_entries: std::collections::BTreeMap<u64, bool> = Default::default();
        let mut per_node_commits = Vec::new();
        let mut dropped_events = 0;
        for d in &dumps {
            let off = offsets
                .iter()
                .find(|&&(n, _)| n == d.node)
                .map(|&(_, o)| o)
                .unwrap_or(0);
            dropped_events += d.dropped;
            let mut commits = 0u64;
            for ev in &d.events {
                let at = ev.at as i64 + off;
                match &ev.kind {
                    EventKind::ViewEntered {
                        view,
                        leader,
                        failed,
                        timeout_ns,
                    } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.entered.push((d.node, at));
                        r.armed_ns.push(*timeout_ns);
                        leader_votes.entry(*view).or_default().push(*leader);
                        if *failed && *view > 0 {
                            *failed_entries.entry(*view - 1).or_default() = true;
                        }
                    }
                    EventKind::TimerFired { view, kind } => {
                        if *kind == TimerKind::View {
                            let r = views.entry(*view).or_default();
                            r.view = *view;
                            r.timeouts.push((d.node, at));
                        }
                    }
                    EventKind::ProposalSent { view, .. } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.proposal_sent = Some(r.proposal_sent.map_or(at, |prev| prev.min(at)));
                    }
                    EventKind::ProposalReceived { view, .. } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.proposal_seen.push((d.node, at));
                    }
                    EventKind::VerifyBatch {
                        view,
                        wall_ns,
                        charged_ns,
                        ..
                    } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.verify_wall_ns += wall_ns;
                        r.verify_charged_ns += charged_ns;
                        r.verify_batches += 1;
                    }
                    EventKind::SecondChance { view, silent, .. } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.second_chances += 1;
                        r.silent += silent;
                    }
                    EventKind::QcFormed { view, .. } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.qc_at = Some(r.qc_at.map_or(at, |prev| prev.min(at)));
                    }
                    EventKind::Committed { view, height, .. } => {
                        let r = views.entry(*view).or_default();
                        r.view = *view;
                        r.commits.push((d.node, at, *height));
                        commits += 1;
                    }
                    EventKind::FaultInjected { .. }
                    | EventKind::WalFsync { .. }
                    | EventKind::StateChunk { .. }
                    | EventKind::TimeoutSent { .. }
                    | EventKind::TimeoutQcAdopted { .. }
                    | EventKind::IngressBatch { .. }
                    | EventKind::IngressRelease { .. } => {}
                }
            }
            per_node_commits.push((d.node, commits));
        }

        // Close out each view: end time and outcome.
        let ordered: Vec<u64> = views.keys().copied().collect();
        for (i, v) in ordered.iter().enumerate() {
            let next_start = ordered
                .get(i + 1)
                .and_then(|nv| views.get(nv).and_then(|r| r.start()));
            let r = views.get_mut(v).expect("key enumerated from map");
            let last_own = r
                .entered
                .iter()
                .chain(r.proposal_seen.iter())
                .chain(r.timeouts.iter())
                .map(|&(_, at)| at)
                .chain(r.commits.iter().map(|&(_, at, _)| at))
                .chain(r.qc_at)
                .chain(r.proposal_sent)
                .max()
                .unwrap_or(0);
            r.end = next_start.unwrap_or(last_own);
            let failed = failed_entries.get(v).copied().unwrap_or(false) || !r.timeouts.is_empty();
            r.leader = leader_majority(leader_votes.get(v));
            r.outcome = if failed {
                if r.proposal_sent.is_none() && r.proposal_seen.is_empty() {
                    ViewOutcome::FailedNoProposal
                } else if r.qc_at.is_none() {
                    ViewOutcome::FailedNoQuorum
                } else {
                    ViewOutcome::FailedAfterQc
                }
            } else if ordered.get(i + 1).is_some() {
                ViewOutcome::Advanced
            } else {
                ViewOutcome::Unknown
            };
        }

        Timeline {
            nodes: dumps.iter().map(|d| d.node).collect(),
            offsets_ns: offsets,
            views: views.into_values().collect(),
            per_node_commits,
            dropped_events,
        }
    }

    /// The per-view table (`view_timeline --views`): one row per view
    /// with its leader, budget split, the median view timer its replicas
    /// armed, how many replicas entered it, the commits, verification
    /// batches and known-silent members it saw, and its outcome.
    pub fn render_views(&self) -> String {
        let mut out = format!(
            "{:>6} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7}  outcome\n",
            "view",
            "leader",
            "span ms",
            "net ms",
            "verify",
            "timer",
            "armed ms",
            "entered",
            "commits",
            "batches",
            "silent"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        for r in &self.views {
            let b = r.budget();
            out.push_str(&format!(
                "{:>6} {:>7} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>9} {:>8} {:>8} {:>8} {:>7}  {}\n",
                r.view,
                r.leader.map_or("?".into(), |l| l.to_string()),
                ms(b.span_ns),
                ms(b.network_ns),
                ms(b.verify_ns),
                ms(b.timer_ns),
                r.armed_p50()
                    .map_or("?".into(), |ns| format!("{:.1}", ms(ns))),
                r.entered.len(),
                r.commits.len(),
                r.verify_batches,
                r.silent,
                r.outcome.label(),
            ));
        }
        out
    }

    /// Aggregated accounting over the whole run.
    pub fn summary(&self) -> TimelineSummary {
        let mut s = TimelineSummary {
            nodes: self.nodes.clone(),
            per_node_commits: self.per_node_commits.clone(),
            dropped_events: self.dropped_events,
            ..Default::default()
        };
        let mut advanced_batches: Vec<u32> = Vec::new();
        let mut advanced_armed: Vec<u64> = Vec::new();
        let mut failed_armed: Vec<u64> = Vec::new();
        for r in &self.views {
            let b = r.budget();
            s.views_total += 1;
            if r.outcome == ViewOutcome::Advanced {
                advanced_batches.push(r.verify_batches);
                advanced_armed.extend(r.armed_p50());
            }
            s.commits += r.commits.len() as u64;
            match r.outcome {
                ViewOutcome::Advanced | ViewOutcome::Unknown => {
                    s.advanced_budget.add(b);
                }
                ViewOutcome::FailedNoProposal
                | ViewOutcome::FailedNoQuorum
                | ViewOutcome::FailedAfterQc => {
                    s.views_failed += 1;
                    match r.outcome {
                        ViewOutcome::FailedNoProposal => s.failed_no_proposal += 1,
                        ViewOutcome::FailedNoQuorum => s.failed_no_quorum += 1,
                        _ => s.failed_after_qc += 1,
                    }
                    s.failed_budget.add(b);
                    failed_armed.extend(r.armed_p50());
                }
            }
        }
        s.advanced_batches_p50 = median(advanced_batches);
        s.advanced_armed_p50 = median(advanced_armed);
        s.failed_armed_p50 = median(failed_armed);
        s
    }
}

/// Checks that the dumps agree: `Committed` events with a hash at one
/// height carry the same hash. Only the traces are read, so the dumps of
/// separate processes are checked like those of one. Returns how many
/// heights more than one replica reported.
///
/// # Errors
/// Names both replicas, the height and both hashes of the first conflict.
pub fn check_agreement(dumps: &[NodeDump]) -> Result<usize, String> {
    // height -> (first reporter, its hash, whether another replica agreed)
    let mut first: std::collections::BTreeMap<u64, (u32, u64, bool)> = Default::default();
    for d in dumps {
        for ev in &d.events {
            let EventKind::Committed { height, hash, .. } = ev.kind else {
                continue;
            };
            let Some(hash) = hash else { continue };
            let (owner, seen, shared) = first.entry(height).or_insert((d.node, hash, false));
            if *seen != hash {
                return Err(format!(
                    "replicas {owner} and {} committed different blocks at height {height} \
                     ({seen:016x} vs {hash:016x})",
                    d.node
                ));
            }
            *shared |= *owner != d.node;
        }
    }
    Ok(first.values().filter(|e| e.2).count())
}

fn leader_majority(votes: Option<&Vec<u32>>) -> Option<u32> {
    let votes = votes?;
    let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
    for &v in votes {
        *counts.entry(v).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(leader, _)| leader)
}

/// Summed [`ViewBudget`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSum {
    /// Total span.
    pub span_ns: u64,
    /// Total network share.
    pub network_ns: u64,
    /// Total verify share.
    pub verify_ns: u64,
    /// Total timer share.
    pub timer_ns: u64,
}

impl BudgetSum {
    fn add(&mut self, b: ViewBudget) {
        self.span_ns += b.span_ns;
        self.network_ns += b.network_ns;
        self.verify_ns += b.verify_ns;
        self.timer_ns += b.timer_ns;
    }
}

/// Run-level accounting produced by [`Timeline::summary`].
#[derive(Debug, Clone, Default)]
pub struct TimelineSummary {
    /// Replicas that contributed dumps.
    pub nodes: Vec<u32>,
    /// Views observed.
    pub views_total: u64,
    /// Views that ended in a timeout.
    pub views_failed: u64,
    /// Failed views where no proposal was ever observed.
    pub failed_no_proposal: u64,
    /// Failed views where a proposal circulated but no QC formed.
    pub failed_no_quorum: u64,
    /// Failed views despite a formed QC.
    pub failed_after_qc: u64,
    /// Commit events across all nodes.
    pub commits: u64,
    /// `(node, commits)` ascending by node.
    pub per_node_commits: Vec<(u32, u64)>,
    /// Time accounting over views that advanced.
    pub advanced_budget: BudgetSum,
    /// Time accounting over views that failed.
    pub failed_budget: BudgetSum,
    /// Median verification batches per view that advanced (`None` when
    /// none did).
    pub advanced_batches_p50: Option<u32>,
    /// Median over views that advanced of the view timer their replicas
    /// armed (each view's median), in ns.
    pub advanced_armed_p50: Option<u64>,
    /// The same median over views that failed.
    pub failed_armed_p50: Option<u64>,
    /// Ring-shed events across dumps (nonzero = partial coverage).
    pub dropped_events: u64,
}

impl TimelineSummary {
    /// A human-readable report of the accounting.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        let total_span = self.advanced_budget.span_ns + self.failed_budget.span_ns;
        let mut out = String::new();
        out.push_str(&format!(
            "views: {} total, {} failed ({:.1}%)\n",
            self.views_total,
            self.views_failed,
            pct(self.views_failed, self.views_total),
        ));
        out.push_str(&format!(
            "time: {:.1} ms traced, {:.1} ms ({:.1}%) inside failed views\n",
            ms(total_span),
            ms(self.failed_budget.span_ns),
            pct(self.failed_budget.span_ns, total_span),
        ));
        out.push_str(&format!(
            "failed-view causes: {} no-proposal (dead leader), {} no-quorum, {} after-QC\n",
            self.failed_no_proposal, self.failed_no_quorum, self.failed_after_qc,
        ));
        let fb = self.failed_budget;
        out.push_str(&format!(
            "failed-view budget: timer {:.1} ms ({:.1}%), network {:.1} ms, verify {:.1} ms\n",
            ms(fb.timer_ns),
            pct(fb.timer_ns, fb.span_ns.max(1)),
            ms(fb.network_ns),
            ms(fb.verify_ns),
        ));
        let ab = self.advanced_budget;
        out.push_str(&format!(
            "advanced-view budget: timer {:.1} ms ({:.1}%), network {:.1} ms, verify {:.1} ms\n",
            ms(ab.timer_ns),
            pct(ab.timer_ns, ab.span_ns.max(1)),
            ms(ab.network_ns),
            ms(ab.verify_ns),
        ));
        if let Some(batches) = self.advanced_batches_p50 {
            out.push_str(&format!(
                "verify batches per advanced view: median {batches}\n"
            ));
        }
        let armed = |p50: Option<u64>| p50.map_or("-".into(), |ns| format!("{:.1} ms", ms(ns)));
        out.push_str(&format!(
            "view timer armed: median {} in advanced views, {} in failed views\n",
            armed(self.advanced_armed_p50),
            armed(self.failed_armed_p50),
        ));
        out.push_str(&format!("commits observed: {} (", self.commits));
        for (i, (n, c)) in self.per_node_commits.iter().enumerate() {
            out.push_str(&format!("{}n{n}:{c}", if i > 0 { " " } else { "" }));
        }
        out.push_str(")\n");
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "warning: {} events shed by full rings — coverage is partial\n",
                self.dropped_events
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a dump where node enters views 0..n at `view * view_ms`,
    /// the leader (view % 3) proposes 1 ms in, everyone sees it 2 ms
    /// in, QC at 5 ms, commit of height view at 6 ms.
    fn scripted_dump(node: u32, wall_epoch: u64, views: u64, skew_ns: u64) -> NodeDump {
        const MS: u64 = 1_000_000;
        let mut events = Vec::new();
        for v in 0..views {
            let t0 = v * 20 * MS + skew_ns;
            events.push(Event {
                at: t0,
                kind: EventKind::ViewEntered {
                    view: v,
                    leader: (v % 3) as u32,
                    failed: false,
                    timeout_ns: 400 * MS,
                },
            });
            if node == (v % 3) as u32 {
                events.push(Event {
                    at: t0 + MS,
                    kind: EventKind::ProposalSent {
                        view: v,
                        height: v + 1,
                        txs: 10,
                    },
                });
            }
            events.push(Event {
                at: t0 + 2 * MS,
                kind: EventKind::ProposalReceived {
                    view: v,
                    height: v + 1,
                    leader: (v % 3) as u32,
                },
            });
            events.push(Event {
                at: t0 + 5 * MS,
                kind: EventKind::VerifyBatch {
                    view: v,
                    items: 3,
                    wall_ns: MS,
                    charged_ns: 0,
                },
            });
            if v >= 2 {
                events.push(Event {
                    at: t0 + 6 * MS,
                    kind: EventKind::Committed {
                        view: v,
                        height: v - 1,
                        hash: Some(v - 1),
                    },
                });
            }
        }
        NodeDump {
            node,
            wall_epoch_unix_ns: wall_epoch,
            recorded: events.len() as u64,
            dropped: 0,
            events,
        }
    }

    #[test]
    fn dump_roundtrips_through_jsonl() {
        use crate::trace::Tracer;
        let t = Tracer::new(3, 64);
        t.emit(
            9,
            EventKind::ViewEntered {
                view: 1,
                leader: 0,
                failed: true,
                timeout_ns: 240_000_000,
            },
        );
        t.emit(11, EventKind::QcFormed { view: 1, height: 4 });
        let dump = parse_dump(&t.dump_jsonl()).unwrap();
        assert_eq!(dump.node, 3);
        assert_eq!(dump.recorded, 2);
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[1].at, 11);
        assert!(parse_dump("").is_err());
        assert!(parse_dump("{\"at\": 1}").is_err(), "meta line required");
    }

    #[test]
    fn read_dumps_takes_node_traces_only_and_names_a_bad_file() {
        use crate::trace::Tracer;
        let dir = std::env::temp_dir().join(format!("iniva-obs-dumps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_dumps(&dir)
            .unwrap_err()
            .contains("no trace-<id>.jsonl"));
        for node in [10, 2, 0] {
            let path = dir.join(format!("trace-{node}.jsonl"));
            std::fs::write(path, Tracer::new(node, 8).dump_jsonl()).unwrap();
        }
        // Neither of these is a node's consensus trace.
        std::fs::write(dir.join("ingress-trace.jsonl"), "not a dump").unwrap();
        std::fs::write(dir.join("metrics-0.json"), "{}").unwrap();
        let nodes: Vec<u32> = read_dumps(&dir).unwrap().iter().map(|d| d.node).collect();
        assert_eq!(nodes, vec![0, 2, 10], "ascending node id");

        std::fs::write(dir.join("trace-3.jsonl"), "{\"at\": 1}").unwrap();
        let err = read_dumps(&dir).unwrap_err();
        assert!(err.contains("trace-3.jsonl"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_aligns_same_epoch_dumps() {
        let e = 1_700_000_000_000_000_000;
        let dumps: Vec<NodeDump> = (0..3).map(|n| scripted_dump(n, e, 6, 0)).collect();
        let tl = Timeline::merge(&dumps);
        assert_eq!(tl.nodes, vec![0, 1, 2]);
        assert!(tl.offsets_ns.iter().all(|&(_, o)| o == 0));
        assert_eq!(tl.views.len(), 6);
        let v3 = tl.views.iter().find(|r| r.view == 3).unwrap();
        assert_eq!(v3.leader, Some(0));
        assert_eq!(v3.entered.len(), 3);
        assert_eq!(v3.outcome, ViewOutcome::Advanced);
        assert!(v3.proposal_sent.is_some());
        let b = v3.budget();
        assert_eq!(b.span_ns, 20_000_000, "views are 20 ms apart");
        assert_eq!(b.network_ns, 1_000_000, "send at +1ms, receipt at +2ms");
        assert_eq!(b.verify_ns, 3_000_000, "three nodes, 1 ms each");
        assert_eq!(b.timer_ns, 16_000_000);
        let s = tl.summary();
        assert_eq!(s.views_failed, 0);
        assert_eq!(s.commits, 4 * 3);
        assert!(s.render().contains("0 failed"));
    }

    /// The `batches` column and the summary's median read the merged
    /// `VerifyBatch` count: three nodes verify once per view, and node 0
    /// verifies `view` more times.
    #[test]
    fn batches_are_tabled_per_view_and_their_median_summarized() {
        let e = 1_700_000_000_000_000_000;
        let mut dumps: Vec<NodeDump> = (0..3).map(|n| scripted_dump(n, e, 6, 0)).collect();
        for v in 0..6u64 {
            for _ in 0..v {
                dumps[0].events.push(Event {
                    at: v * 20_000_000 + 7_000_000,
                    kind: EventKind::VerifyBatch {
                        view: v,
                        items: 1,
                        wall_ns: 0,
                        charged_ns: 0,
                    },
                });
            }
        }
        dumps[0].events.sort_by_key(|ev| ev.at);
        let tl = Timeline::merge(&dumps);
        let table = tl.render_views();
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        let end = header.find("batches").unwrap() + "batches".len();
        let column: Vec<&str> = lines
            .map(|row| row[..end].split_whitespace().last().unwrap())
            .collect();
        assert_eq!(column, vec!["3", "4", "5", "6", "7", "8"]);
        // View 5 ends the window: the median is over views 0..=4.
        let s = tl.summary();
        assert_eq!(s.advanced_batches_p50, Some(5));
        assert!(s
            .render()
            .contains("verify batches per advanced view: median 5\n"));
    }

    /// The `armed ms` column prints each view's median armed timer across
    /// replicas, and the summary takes the median of those over advanced
    /// and over failed views apart: node `m` arms `(6 − view)·10 + m` ms,
    /// and view 4's timer fires.
    #[test]
    fn armed_timers_are_tabled_per_view_and_their_medians_summarized() {
        const MS: u64 = 1_000_000;
        let e = 1_700_000_000_000_000_000;
        let mut dumps: Vec<NodeDump> = (0..3).map(|n| scripted_dump(n, e, 6, 0)).collect();
        for d in &mut dumps {
            for ev in &mut d.events {
                if let EventKind::ViewEntered {
                    view, timeout_ns, ..
                } = &mut ev.kind
                {
                    *timeout_ns = ((6 - *view) * 10 + u64::from(d.node)) * MS;
                }
            }
        }
        dumps[1].events.push(Event {
            at: 4 * 20 * MS + 19 * MS,
            kind: EventKind::TimerFired {
                view: 4,
                kind: TimerKind::View,
            },
        });
        dumps[1].events.sort_by_key(|ev| ev.at);
        let tl = Timeline::merge(&dumps);
        let table = tl.render_views();
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        let end = header.find("armed ms").unwrap() + "armed ms".len();
        let column: Vec<&str> = lines
            .map(|row| row[..end].split_whitespace().last().unwrap())
            .collect();
        assert_eq!(column, vec!["61.0", "51.0", "41.0", "31.0", "21.0", "11.0"]);
        // Views 0 to 3 advanced, view 4 failed, view 5 ends the window and
        // counts in neither.
        let s = tl.summary();
        assert_eq!(s.views_failed, 1);
        assert_eq!(s.advanced_armed_p50, Some(51 * MS));
        assert_eq!(s.failed_armed_p50, Some(21 * MS));
        assert!(s.render().contains(
            "view timer armed: median 51.0 ms in advanced views, 21.0 ms in failed views\n"
        ));
    }

    #[test]
    fn merge_cancels_wall_clock_skew_via_commit_anchors() {
        let e = 1_700_000_000_000_000_000u64;
        const MS: u64 = 1_000_000;
        // Node 1's wall clock runs 250 ms fast: its declared epoch is
        // late by 250 ms while its events describe the same real
        // moments. Node 2's clock is 40 ms slow. With ≥3 common commit
        // heights the refinement should cancel both.
        let dumps = vec![
            scripted_dump(0, e, 8, 0),
            scripted_dump(1, e + 250 * MS, 8, 0),
            scripted_dump(2, e.saturating_sub(40 * MS), 8, 0),
        ];
        let tl = Timeline::merge(&dumps);
        let off: std::collections::BTreeMap<u32, i64> = tl.offsets_ns.iter().copied().collect();
        assert_eq!(off[&0], 0);
        assert_eq!(off[&1], 0, "skew fully cancelled by commit anchors");
        assert_eq!(off[&2], 0);
        // Every view's entries must therefore coincide across nodes.
        for r in &tl.views {
            let ats: Vec<i64> = r.entered.iter().map(|&(_, at)| at).collect();
            let spread = ats.iter().max().unwrap() - ats.iter().min().unwrap();
            assert_eq!(spread, 0, "view {} entries misaligned", r.view);
        }
    }

    #[test]
    fn agreement_compares_commit_hashes_across_dumps() {
        let e = 1_700_000_000_000_000_000u64;
        let mut dumps = vec![scripted_dump(0, e, 6, 0), scripted_dump(1, e, 6, 0)];
        assert_eq!(check_agreement(&dumps), Ok(4), "heights 1..=4 agree");
        // One flipped hash on node 1 at height 3.
        for ev in &mut dumps[1].events {
            if let EventKind::Committed {
                height: 3,
                hash: Some(h),
                ..
            } = &mut ev.kind
            {
                *h ^= 1;
            }
        }
        let err = check_agreement(&dumps).unwrap_err();
        assert!(
            err.contains("replicas 0 and 1") && err.contains("height 3"),
            "{err}"
        );
        // A commit without a hash is not compared.
        for ev in &mut dumps[1].events {
            if let EventKind::Committed { hash, .. } = &mut ev.kind {
                *hash = None;
            }
        }
        assert_eq!(check_agreement(&dumps), Ok(0));
    }

    #[test]
    fn failed_views_classified_and_budgeted_as_timer_burn() {
        let e = 1_700_000_000_000_000_000u64;
        const MS: u64 = 1_000_000;
        // Node 0 and 1 enter view 0, see nothing, time out after 400 ms
        // and enter view 1 flagged failed; view 1 advances normally.
        let mk = |node: u32| {
            let mut events = vec![Event {
                at: 0,
                kind: EventKind::ViewEntered {
                    view: 0,
                    leader: 2,
                    failed: false,
                    timeout_ns: 400 * MS,
                },
            }];
            events.push(Event {
                at: 400 * MS,
                kind: EventKind::TimerFired {
                    view: 0,
                    kind: TimerKind::View,
                },
            });
            events.push(Event {
                at: 400 * MS + 1,
                kind: EventKind::ViewEntered {
                    view: 1,
                    leader: 0,
                    failed: true,
                    timeout_ns: 800 * MS,
                },
            });
            NodeDump {
                node,
                wall_epoch_unix_ns: e,
                recorded: events.len() as u64,
                dropped: 3,
                events,
            }
        };
        let tl = Timeline::merge(&[mk(0), mk(1)]);
        let v0 = tl.views.iter().find(|r| r.view == 0).unwrap();
        assert_eq!(v0.outcome, ViewOutcome::FailedNoProposal);
        assert_eq!(v0.leader, Some(2), "the dead leader is still named");
        let b = v0.budget();
        assert_eq!(b.span_ns, 400 * MS + 1);
        assert_eq!(
            b.timer_ns, b.span_ns,
            "proposal-less view is pure timer burn"
        );
        let s = tl.summary();
        assert_eq!(s.views_failed, 1);
        assert_eq!(s.failed_no_proposal, 1);
        assert_eq!(s.dropped_events, 6);
        assert!(
            s.render().contains("warning"),
            "shed events must be called out"
        );
    }
}
