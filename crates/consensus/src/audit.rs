//! One commit audit for a whole cluster: every replica reports each block
//! it joins to its committed prefix, and the audit checks, as the reports
//! arrive, that no two replicas commit different blocks at one height —
//! the safety property of the protocol.
//!
//! The audit keeps one `(height, hash)` entry per height for the cluster,
//! not one per replica and height, so a 21-replica cluster that commits
//! faster grows one record, not 21.

use crate::types::BlockHash;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Heights the audit remembers: ≈ 20 minutes of `tree21` commits. Past it
/// the lowest height is forgotten, so a replica reporting a height below
/// every remembered one goes unchecked; every height above keeps being
/// checked however long the cluster runs.
const AUDITED_HEIGHTS: usize = 65_536;

/// The cluster's record of its committed prefix (see the module docs).
/// Shared by every replica of the cluster behind an `Arc`.
#[derive(Debug, Default)]
pub struct CommitAudit {
    /// Every update leaves the record valid, so a lock poisoned by a
    /// replica thread that panicked elsewhere is recovered, not fatal.
    state: Mutex<Audit>,
}

#[derive(Debug, Default)]
struct Audit {
    /// The first block reported at each height, and which replica
    /// reported it.
    first: BTreeMap<u64, (BlockHash, u32)>,
    /// The first disagreement found.
    divergence: Option<String>,
}

impl CommitAudit {
    /// An empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks replica `member`'s commit of `hash` at `height` against the
    /// first block any replica reported there, or records it as that
    /// first block. Reporting the same block twice changes nothing.
    pub fn record(&self, member: u32, height: u64, hash: BlockHash) {
        let mut audit = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match audit.first.get(&height) {
            Some(&(first, owner)) if first != hash => {
                audit.divergence.get_or_insert_with(|| {
                    format!("replicas {owner} and {member} disagree at height {height}")
                });
            }
            Some(_) => {}
            None => {
                let full = audit.first.len() >= AUDITED_HEIGHTS;
                if full
                    && audit
                        .first
                        .first_key_value()
                        .is_some_and(|(&low, _)| height < low)
                {
                    return;
                }
                audit.first.insert(height, (hash, member));
                if full {
                    audit.first.pop_first();
                }
            }
        }
    }

    /// `Ok` while every report agreed, or the first disagreement.
    ///
    /// # Errors
    /// Names the two replicas and the height of the first disagreement.
    pub fn check(&self) -> Result<(), String> {
        let audit = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        audit.divergence.clone().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heights(audit: &CommitAudit) -> usize {
        audit.state.lock().unwrap().first.len()
    }

    #[test]
    fn agreeing_reports_pass_and_a_conflict_is_named() {
        let audit = CommitAudit::new();
        for member in 0..3 {
            for height in 1..=5 {
                audit.record(member, height, [height as u8; 32]);
            }
        }
        assert_eq!(audit.check(), Ok(()));
        assert_eq!(heights(&audit), 5, "one entry per height, not per replica");
        audit.record(2, 4, [9; 32]);
        audit.record(1, 5, [9; 32]);
        assert_eq!(
            audit.check(),
            Err("replicas 0 and 2 disagree at height 4".into()),
            "the first disagreement is kept"
        );
    }

    #[test]
    fn the_window_slides_and_keeps_checking_new_heights() {
        let audit = CommitAudit::new();
        let top = AUDITED_HEIGHTS as u64 + 10;
        for height in 1..=top {
            audit.record(0, height, [height as u8; 32]);
        }
        assert_eq!(heights(&audit), AUDITED_HEIGHTS);
        // Below the window: forgotten, so not checked.
        audit.record(1, 5, [0xee; 32]);
        assert_eq!(audit.check(), Ok(()));
        assert_eq!(heights(&audit), AUDITED_HEIGHTS);
        // At the top the check still bites.
        audit.record(1, top, [0xee; 32]);
        assert!(audit.check().is_err());
    }
}
