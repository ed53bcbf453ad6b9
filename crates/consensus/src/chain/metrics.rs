//! What the chain counts, and its export into a telemetry registry.

use super::{batch_end, ChainState};
use crate::types::Block;
use iniva_crypto::multisig::VoteScheme;
use iniva_net::Time;

/// Cap on recorded per-request latency samples (for percentile metrics);
/// past it only the running sum continues, so long simulator runs don't
/// grow without bound while short live-cluster runs get exact percentiles.
pub const LATENCY_SAMPLE_CAP: usize = 100_000;

/// Cap on the recorded progress curve ([`ChainMetrics::commit_points`]):
/// past it the curve stops growing.
pub const COMMIT_POINTS_CAP: usize = 65_536;

/// Per-chain metrics harvested by the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct ChainMetrics {
    /// Committed client requests.
    pub committed_reqs: u64,
    /// Sum of request latencies (commit time − arrival time), ns.
    pub latency_sum: u128,
    /// Per-request latency samples (ns), first [`LATENCY_SAMPLE_CAP`] only.
    pub latency_samples: Vec<u64>,
    /// Committed blocks.
    pub committed_blocks: u64,
    /// Sum of distinct signers over all QCs formed/observed.
    pub qc_signers_sum: u64,
    /// Number of QCs counted in `qc_signers_sum`.
    pub qc_count: u64,
    /// Views entered via timeout (failed views).
    pub failed_views: u64,
    /// Total views entered.
    pub total_views: u64,
    /// When the most recent commit landed (ns of run time; 0 = never).
    /// Chaos harnesses assert on this to show a cluster resumed
    /// committing *after* a heal, not merely that totals grew.
    pub last_commit_time: Time,
    /// When each commit landed, ascending (first [`COMMIT_POINTS_CAP`]
    /// commits) — the chain's progress curve.
    pub commit_points: Vec<Time>,
    /// Committed blocks rehydrated from a write-ahead log at startup
    /// (excluded from `committed_blocks` and the progress curve: they were
    /// committed by a *previous* incarnation of this replica).
    pub recovered_blocks: u64,
    /// Committed blocks adopted from peers via state transfer (also
    /// excluded from `committed_blocks`/`commit_points`, so those keep
    /// meaning "commits this replica reached through the protocol").
    pub state_transfer_blocks: u64,
    /// How many of `latency_samples` have been fed to the registry
    /// histogram already (see [`ChainState::export`]).
    pub exported_latency_samples: usize,
}

impl ChainMetrics {
    /// Mean request latency in nanoseconds (0 if nothing committed).
    pub fn mean_latency(&self) -> f64 {
        if self.committed_reqs == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.committed_reqs as f64
        }
    }

    /// Median request latency in nanoseconds over the recorded samples
    /// (0 if nothing committed).
    pub fn median_latency(&self) -> f64 {
        if self.latency_samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latency_samples.clone();
        let mid = sorted.len() / 2;
        let (_, m, _) = sorted.select_nth_unstable(mid);
        *m as f64
    }

    /// Mean QC size (distinct signers).
    pub fn mean_qc_size(&self) -> f64 {
        if self.qc_count == 0 {
            0.0
        } else {
            self.qc_signers_sum as f64 / self.qc_count as f64
        }
    }

    /// Fraction of views that failed.
    pub fn failed_view_fraction(&self) -> f64 {
        if self.total_views == 0 {
            0.0
        } else {
            self.failed_views as f64 / self.total_views as f64
        }
    }

    /// Blocks committed at or after `t` (from the recorded progress
    /// curve) — the chaos harness's "did it resume after the heal" hook.
    pub fn commits_since(&self, t: Time) -> u64 {
        self.commit_points.iter().filter(|&&at| at >= t).count() as u64
    }
}

impl<S: VoteScheme> ChainState<S> {
    /// Counts `block`, committed through the protocol at `now`, and the
    /// submit-to-commit latency of each of its requests: measured by a live
    /// mempool on its own clock as it settles the range (a shared pool
    /// settles a range once), or else derived from the arrival schedule.
    pub(super) fn count_commit(&mut self, block: &Block, now: Time) {
        let latencies = match &self.source {
            Some(src) => src.committed(block.height, block.batch_start, block.batch_len),
            None if self.ns_per_req > 0 => (block.batch_start..batch_end(block))
                .map(|seq| now.saturating_sub(seq.saturating_mul(self.ns_per_req)))
                .collect(),
            None => Vec::new(),
        };
        let m = &mut self.metrics;
        m.last_commit_time = now;
        if m.commit_points.len() < COMMIT_POINTS_CAP {
            m.commit_points.push(now);
        }
        m.committed_blocks += 1;
        m.committed_reqs += block.batch_len as u64;
        for latency in latencies {
            m.latency_sum += latency as u128;
            if m.latency_samples.len() < LATENCY_SAMPLE_CAP {
                m.latency_samples.push(latency);
            }
        }
    }

    /// Mirrors the chain's cumulative stats into `registry` under the
    /// `chain.` prefix, feeds the recorded per-request latencies into a
    /// `chain.commit_latency_ns` histogram, and sets the two retention
    /// gauges: `chain.retained_commits` (entries in the window, at most
    /// [`super::RETAINED_COMMITS`]) and `chain.retained_blocks` (the block
    /// store: the window plus the uncommitted blocks above it). Counters
    /// are stored (not added), so re-exporting the same metrics is
    /// idempotent; the histogram only ingests samples recorded since the
    /// last export.
    pub fn export(&mut self, registry: &iniva_obs::Registry) {
        let m = &mut self.metrics;
        for (name, value) in [
            ("chain.committed_reqs", m.committed_reqs),
            ("chain.committed_blocks", m.committed_blocks),
            ("chain.failed_views", m.failed_views),
            ("chain.total_views", m.total_views),
            ("chain.qc_signers_sum", m.qc_signers_sum),
            ("chain.qc_count", m.qc_count),
            ("chain.recovered_blocks", m.recovered_blocks),
            ("chain.state_transfer_blocks", m.state_transfer_blocks),
        ] {
            registry.counter(name).store(value);
        }
        let hist = registry.histogram("chain.commit_latency_ns");
        for &ns in &m.latency_samples[m.exported_latency_samples..] {
            hist.record(ns);
        }
        m.exported_latency_samples = m.latency_samples.len();
        registry
            .gauge("chain.retained_commits")
            .set(self.window.len() as u64);
        registry
            .gauge("chain.retained_blocks")
            .set(self.blocks.len() as u64);
    }
}
