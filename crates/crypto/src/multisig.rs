//! Indivisible multi-signatures with multiplicities.
//!
//! The Iniva protocol relies on two properties of its signature scheme,
//! abstracted here as the [`VoteScheme`] trait:
//!
//! * **Indivisibility** — given an aggregate, no party can recover or remove
//!   a constituent signature (Boneh et al.'s k-element aggregate extraction
//!   assumption; proven equivalent to Diffie–Hellman for BLS by
//!   Coron–Naccache). The API never exposes decomposition.
//! * **Multiplicity** — the same signature may be folded in more than once
//!   (`agg(σ1^2, σ2^2, σi^3)`), and verification checks the exact
//!   multiplicity vector. Iniva uses multiplicities to prove *how* a vote
//!   was collected (tree aggregation vs 2ND-CHANCE fallback).

use iniva_net::wire::{DecodeError, Decoder, Encoder, WireDecode, WireEncode};
use std::cmp::Ordering;
use std::fmt;

/// Stable identity of a committee member (index into the committee; roles
/// and tree positions are reshuffled every view, identities are not).
pub type SignerId = u32;

/// Largest multiplicity a decoded wire aggregate may claim per signer.
///
/// Honest multiplicities are tiny — tree aggregation folds a child in
/// twice and the internal node's own share `#children + 1` times (paper
/// Eq. 1), so anything beyond committee size is already implausible. The
/// cap exists for hostility, not plausibility: a count near `u64::MAX`
/// would make a later `merge`/`scale` wrap (release) or panic (debug)
/// inside an unsuspecting combine far from the decode site. `u32::MAX`
/// leaves orders of magnitude of headroom over any honest value while
/// keeping every in-memory sum of distinct-signer counts far from
/// overflow.
pub const MAX_MULTIPLICITY: u64 = u32::MAX as u64;

/// A multiset of signers: who is inside an aggregate, and how many times.
///
/// Stored as one `Vec` sorted by signer with nonzero counts — the
/// canonical wire order, so encoding is a straight walk and a clone is a
/// single allocation (every replica retains every block's QC).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Multiplicities(Vec<(SignerId, u64)>);

impl Multiplicities {
    /// The empty multiset.
    pub fn new() -> Self {
        Multiplicities(Vec::new())
    }

    /// A singleton multiset `{signer: 1}`.
    pub fn singleton(signer: SignerId) -> Self {
        Multiplicities(vec![(signer, 1)])
    }

    /// Adds `count` occurrences of `signer`. Saturating: combining
    /// near-`u64::MAX` counts (reachable only through hostile inputs —
    /// decode already caps each entry at [`MAX_MULTIPLICITY`]) pins at
    /// `u64::MAX` instead of wrapping or panicking.
    pub fn add(&mut self, signer: SignerId, count: u64) {
        if count == 0 {
            return;
        }
        match self.0.binary_search_by_key(&signer, |&(s, _)| s) {
            Ok(i) => self.0[i].1 = self.0[i].1.saturating_add(count),
            Err(i) => self.0.insert(i, (signer, count)),
        }
    }

    /// Pointwise sum of two multisets (saturating per entry).
    pub fn merge(&self, other: &Self) -> Self {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a[i].0, a[i].1.saturating_add(b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Multiplicities(out)
    }

    /// Scales every multiplicity by `k` (saturating per entry).
    pub fn scale(&self, k: u64) -> Self {
        if k == 0 {
            return Multiplicities::new();
        }
        Multiplicities(
            self.0
                .iter()
                .map(|&(s, c)| (s, c.saturating_mul(k)))
                .collect(),
        )
    }

    /// Multiplicity of `signer` (0 if absent).
    pub fn get(&self, signer: SignerId) -> u64 {
        self.0
            .binary_search_by_key(&signer, |&(s, _)| s)
            .map_or(0, |i| self.0[i].1)
    }

    /// True if `signer` appears at least once.
    pub fn contains(&self, signer: SignerId) -> bool {
        self.get(signer) > 0
    }

    /// Number of distinct signers.
    pub fn distinct(&self) -> usize {
        self.0.len()
    }

    /// Sum of all multiplicities (saturating — a hostile multiset at the
    /// per-entry cap must not overflow the sum either).
    pub fn total(&self) -> u64 {
        self.0
            .iter()
            .fold(0u64, |acc, &(_, c)| acc.saturating_add(c))
    }

    /// Iterates `(signer, multiplicity)` in signer order.
    pub fn iter(&self) -> impl Iterator<Item = (SignerId, u64)> + '_ {
        self.0.iter().copied()
    }

    /// The distinct signers, in order.
    pub fn signers(&self) -> impl Iterator<Item = SignerId> + '_ {
        self.0.iter().map(|&(s, _)| s)
    }

    /// True when no signer is present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<(SignerId, u64)> for Multiplicities {
    fn from_iter<T: IntoIterator<Item = (SignerId, u64)>>(iter: T) -> Self {
        let mut m = Multiplicities::new();
        for (s, c) in iter {
            m.add(s, c);
        }
        m
    }
}

impl WireEncode for Multiplicities {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0.len() as u32);
        for &(signer, count) in &self.0 {
            enc.put_u32(signer).put_u64(count);
        }
    }
}

/// Encoded size of one `(signer, count)` entry.
const ENTRY_WIRE_BYTES: usize = 4 + 8;

impl WireDecode for Multiplicities {
    fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
        let n = dec.get_u32()? as usize;
        // CAP: at most the entries the remaining input can hold, so a
        // hostile count cannot reserve more than the frame it arrived in.
        let mut entries = Vec::with_capacity(n.min(dec.remaining() / ENTRY_WIRE_BYTES));
        for _ in 0..n {
            let signer = dec.get_u32()?;
            let count = dec.get_u64()?;
            // The encoder emits strictly ascending signers with nonzero
            // counts; reject anything else so decode(encode(m)) == m is the
            // *only* accepted byte representation (canonical form — callers
            // compare aggregates by their encodings).
            if count == 0 || entries.last().is_some_and(|&(p, _)| signer <= p) {
                return Err(DecodeError::Malformed {
                    context:
                        "non-canonical Multiplicities entry (unsorted, duplicate or zero count)",
                });
            }
            // Cap hostile counts at the wire boundary: a value near
            // `u64::MAX` is never honest and exists only to overflow a
            // later combine (`add`/`merge`/`scale` saturate as defense in
            // depth, but rejecting here keeps poisoned multisets out of
            // protocol state entirely).
            if count > MAX_MULTIPLICITY {
                return Err(DecodeError::Malformed {
                    context: "Multiplicities count exceeds MAX_MULTIPLICITY",
                });
            }
            entries.push((signer, count));
        }
        Ok(Multiplicities(entries))
    }
}

impl fmt::Display for Multiplicities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}^{c}")?;
        }
        write!(f, "}}")
    }
}

/// The result of verifying a batch of aggregates in one shot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every aggregate in every group verified against its group message.
    AllValid,
    /// At least one aggregate failed; the culprits are listed as
    /// `(group_index, item_index)` pairs, ascending. Every aggregate *not*
    /// listed verified correctly — callers keep the survivors without
    /// re-verifying them.
    Invalid(Vec<(usize, usize)>),
}

impl BatchOutcome {
    /// True when nothing in the batch failed.
    pub fn all_valid(&self) -> bool {
        matches!(self, BatchOutcome::AllValid)
    }

    /// The culprit list (empty when all valid).
    pub fn culprits(&self) -> &[(usize, usize)] {
        match self {
            BatchOutcome::AllValid => &[],
            BatchOutcome::Invalid(c) => c,
        }
    }
}

/// An indivisible multi-signature scheme with multiplicity-aware
/// aggregation, as assumed by the Iniva protocol (Section III of the paper).
///
/// A scheme value holds the whole committee's key material — a *simulation
/// keyring*. In a deployment each node would own only its secret; the
/// protocol logic in the `iniva` crate only ever signs with the local node's
/// id, so the abstraction does not leak authority into the protocol.
pub trait VoteScheme {
    /// An aggregate signature (also represents a single vote: an aggregate
    /// with one signer of multiplicity 1).
    type Aggregate: Clone + fmt::Debug;

    /// Signs `msg` as `signer`, producing a multiplicity-1 aggregate.
    fn sign(&self, signer: SignerId, msg: &[u8]) -> Self::Aggregate;

    /// Aggregates two aggregates (multiplicities add; indivisible result).
    fn combine(&self, a: &Self::Aggregate, b: &Self::Aggregate) -> Self::Aggregate;

    /// Folds an aggregate in `k` times (`k >= 1`).
    fn scale(&self, a: &Self::Aggregate, k: u64) -> Self::Aggregate;

    /// Verifies the aggregate against `msg` and its claimed multiplicities.
    fn verify(&self, msg: &[u8], agg: &Self::Aggregate) -> bool;

    /// Verifies many aggregates at once, grouped by message: `msg_groups`
    /// pairs each message with every aggregate claimed to sign it.
    ///
    /// Semantics are exactly "[`Self::verify`] per item": the outcome's
    /// culprit list names precisely the items per-item verification would
    /// reject. The default does run per item; schemes whose verification
    /// is pairing-based override it with a random-linear-combination
    /// multi-pairing (two Miller loops per batch instead of two per item,
    /// one shared final exponentiation) plus bisection to isolate culprits
    /// on failure — see `BlsScheme`.
    fn verify_batch(&self, msg_groups: &[(&[u8], &[Self::Aggregate])]) -> BatchOutcome {
        let mut bad = Vec::new();
        for (gi, (msg, aggs)) in msg_groups.iter().enumerate() {
            for (ai, agg) in aggs.iter().enumerate() {
                if !self.verify(msg, agg) {
                    bad.push((gi, ai));
                }
            }
        }
        if bad.is_empty() {
            BatchOutcome::AllValid
        } else {
            BatchOutcome::Invalid(bad)
        }
    }

    /// The claimed signer multiset of an aggregate.
    fn multiplicities<'a>(&self, agg: &'a Self::Aggregate) -> &'a Multiplicities;

    /// Committee size.
    fn committee_size(&self) -> usize;
}

/// A [`VoteScheme`] that can run over a real wire.
///
/// The live TCP runtime (`iniva-transport`), the write-ahead log
/// (`iniva-storage`) and the example binaries are generic over this bound
/// instead of hard-pinning a scheme: the aggregate type carries the
/// [`wire`](iniva_net::wire) codec impls (declared as supertrait bounds,
/// so `S: WireScheme` elaborates them at every use site), the keyring is
/// rebuildable on any process from `(n, seed)` common knowledge, and
/// everything is shareable across transport threads. Both the calibrated
/// [`SimScheme`](crate::sim_scheme::SimScheme) stand-in and the real
/// pairing-crypto [`BlsScheme`](crate::bls::BlsScheme) implement it, which
/// is what lets one cluster harness ship either scheme's aggregates as
/// actual frame bytes.
///
/// (This trait would naturally sit next to the codec in `iniva_net::wire`,
/// but `iniva-net` cannot name [`VoteScheme`] without a dependency cycle —
/// the codec crate is below the crypto crate — so it lives here, beside
/// the trait it refines.)
pub trait WireScheme:
    VoteScheme<Aggregate: WireEncode + WireDecode + Send + 'static> + Send + Sync + 'static
{
    /// CLI / log name of the scheme (`"sim"`, `"bls"`).
    const NAME: &'static str;

    /// True when the scheme's signing/verification burns real CPU inside
    /// the protocol handlers (pairings) rather than relying on the
    /// calibrated cost model. Launchers use this to retune timers and
    /// zero the modeled cost (`InivaConfig::tune_for_real_crypto` in the
    /// `iniva` crate) — keyed on the scheme definition, not on string
    /// comparisons at call sites, so a future real-crypto scheme cannot
    /// silently run with sim-calibrated timers.
    const REAL_CRYPTO: bool = false;

    /// Rebuilds the committee keyring every replica derives from common
    /// knowledge: committee size and the shared seed.
    fn new_committee(n: usize, seed: &[u8]) -> Self;

    /// Mirrors the scheme's cumulative verification stats into a metrics
    /// registry (no-op by default; the BLS scheme exports its
    /// multi-pairing probe counter). Harnesses call this at dump time, so
    /// it must be idempotent — store, don't add.
    fn export_observability(&self, _registry: &iniva_obs::Registry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_merge_and_scale() {
        let a = Multiplicities::from_iter([(1, 2), (2, 2)]);
        let b = Multiplicities::from_iter([(2, 1), (3, 4)]);
        let m = a.merge(&b);
        assert_eq!(m.get(1), 2);
        assert_eq!(m.get(2), 3);
        assert_eq!(m.get(3), 4);
        assert_eq!(m.total(), 9);
        assert_eq!(m.distinct(), 3);
        let s = a.scale(3);
        assert_eq!(s.get(1), 6);
        assert_eq!(s.scale(0).total(), 0);
    }

    #[test]
    fn zero_counts_not_stored() {
        let mut m = Multiplicities::new();
        m.add(5, 0);
        assert!(m.is_empty());
        assert!(!m.contains(5));
    }

    #[test]
    fn display_is_compact() {
        let m = Multiplicities::from_iter([(1, 2), (7, 3)]);
        assert_eq!(m.to_string(), "{1^2, 7^3}");
    }

    #[test]
    fn wire_roundtrip_including_empty() {
        use iniva_net::wire::Codec;
        for m in [
            Multiplicities::new(),
            Multiplicities::singleton(3),
            Multiplicities::from_iter([(0, 1), (4, 2), (90, 7)]),
        ] {
            assert_eq!(Multiplicities::from_frame(m.to_frame()).unwrap(), m);
        }
    }

    #[test]
    fn hostile_counts_saturate_instead_of_wrapping() {
        // In-memory combines of extreme counts (defense in depth behind
        // the decode cap) must neither panic in debug nor wrap in release.
        let mut m = Multiplicities::new();
        m.add(1, u64::MAX - 1);
        m.add(1, 5);
        assert_eq!(m.get(1), u64::MAX);
        let a = Multiplicities::from_iter([(1, u64::MAX), (2, 3)]);
        let b = Multiplicities::from_iter([(1, u64::MAX), (2, u64::MAX - 1)]);
        let merged = a.merge(&b);
        assert_eq!(merged.get(1), u64::MAX);
        assert_eq!(merged.get(2), u64::MAX);
        assert_eq!(merged.total(), u64::MAX, "total saturates too");
        let scaled = Multiplicities::from_iter([(7, MAX_MULTIPLICITY)]).scale(u64::MAX);
        assert_eq!(scaled.get(7), u64::MAX);
    }

    #[test]
    fn wire_rejects_overflowing_count() {
        use iniva_net::wire::Codec;
        // A count just past the cap is Malformed; the cap itself decodes.
        for (count, ok) in [
            (MAX_MULTIPLICITY, true),
            (MAX_MULTIPLICITY + 1, false),
            (u64::MAX, false),
        ] {
            let mut enc = Encoder::new();
            enc.put_u32(1);
            enc.put_u32(3).put_u64(count);
            let got = Multiplicities::from_frame(enc.finish());
            if ok {
                assert_eq!(got.unwrap().get(3), count);
            } else {
                assert!(
                    matches!(got, Err(DecodeError::Malformed { .. })),
                    "count {count} must be rejected"
                );
            }
        }
    }

    /// Wire bytes of `entries` in the order given (canonical only when
    /// that order is ascending).
    fn entry_bytes<'a>(
        entries: impl ExactSizeIterator<Item = (&'a SignerId, &'a u64)>,
    ) -> bytes::Bytes {
        let mut enc = Encoder::new();
        enc.put_u32(entries.len() as u32);
        for (&signer, &count) in entries {
            enc.put_u32(signer).put_u64(count);
        }
        enc.finish()
    }

    proptest::proptest! {
        /// The sorted-`Vec` representation against a `BTreeMap` model over
        /// random `add`/`merge`/`scale` sequences, with counts at both ends
        /// of the range: same contents in the same order, same saturation,
        /// same bytes on the wire, and decode accepting exactly those bytes.
        #[test]
        fn vec_backed_multiset_matches_btreemap_model(
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec(
                        (0u32..8, 0u64..6, proptest::prelude::any::<bool>()),
                        0..5,
                    ),
                    0u64..4,
                ),
                0..12,
            )
        ) {
            use iniva_net::wire::Codec;
            use proptest::{prop_assert, prop_assert_eq};
            use std::collections::BTreeMap;

            fn model_add(model: &mut BTreeMap<SignerId, u64>, signer: SignerId, count: u64) {
                if count > 0 {
                    let c = model.entry(signer).or_insert(0);
                    *c = c.saturating_add(count);
                }
            }
            let mut m = Multiplicities::new();
            let mut model: BTreeMap<SignerId, u64> = BTreeMap::new();
            for (kind, entries, k) in ops {
                let entries: Vec<(SignerId, u64)> = entries
                    .into_iter()
                    .map(|(s, c, huge)| (s, if huge { u64::MAX - c } else { c }))
                    .collect();
                match kind {
                    0 => {
                        for &(s, c) in &entries {
                            m.add(s, c);
                            model_add(&mut model, s, c);
                        }
                    }
                    1 => {
                        m = m.merge(&Multiplicities::from_iter(entries.iter().copied()));
                        for &(s, c) in &entries {
                            model_add(&mut model, s, c);
                        }
                    }
                    _ => {
                        m = m.scale(k);
                        if k == 0 {
                            model.clear();
                        }
                        for c in model.values_mut() {
                            *c = c.saturating_mul(k);
                        }
                    }
                }
                let want: Vec<(SignerId, u64)> = model.iter().map(|(&s, &c)| (s, c)).collect();
                prop_assert_eq!(m.iter().collect::<Vec<_>>(), want);
                prop_assert_eq!(
                    m.signers().collect::<Vec<_>>(),
                    model.keys().copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(m.distinct(), model.len());
                prop_assert_eq!(m.is_empty(), model.is_empty());
                prop_assert_eq!(
                    m.total(),
                    model.values().fold(0u64, |acc, &c| acc.saturating_add(c))
                );
                for s in 0..8 {
                    prop_assert_eq!(m.get(s), model.get(&s).copied().unwrap_or(0));
                    prop_assert_eq!(m.contains(s), model.contains_key(&s));
                }
                let bytes = entry_bytes(model.iter());
                prop_assert_eq!(m.to_frame(), bytes.clone());
                let decoded = Multiplicities::from_frame(bytes);
                if model.values().all(|&c| c <= MAX_MULTIPLICITY) {
                    prop_assert_eq!(decoded, Ok(m.clone()));
                } else {
                    prop_assert!(matches!(decoded, Err(DecodeError::Malformed { .. })));
                }
                if model.len() >= 2 {
                    // The same entries in descending order are not canonical.
                    let reversed = entry_bytes(model.iter().rev());
                    prop_assert!(Multiplicities::from_frame(reversed).is_err());
                }
            }
        }
    }

    #[test]
    fn default_verify_batch_agrees_with_per_item_verify() {
        use crate::sim_scheme::SimScheme;
        let s = SimScheme::new(4, b"batch-default");
        let m1: &[u8] = b"msg-1";
        let m2: &[u8] = b"msg-2";
        let good1 = s.sign(0, m1);
        let mut forged = s.sign(1, m1);
        forged.mults = Multiplicities::singleton(2);
        let good2 = s.sign(3, m2);
        let groups: Vec<(&[u8], &[_])> = vec![
            (m1, std::slice::from_ref(&good1)),
            (m1, std::slice::from_ref(&forged)),
            (m2, std::slice::from_ref(&good2)),
        ];
        assert_eq!(s.verify_batch(&groups), BatchOutcome::Invalid(vec![(1, 0)]));
        let all_good: Vec<(&[u8], &[_])> = vec![
            (m1, std::slice::from_ref(&good1)),
            (m2, std::slice::from_ref(&good2)),
        ];
        assert!(s.verify_batch(&all_good).all_valid());
    }

    #[test]
    fn wire_rejects_non_canonical_entries() {
        use iniva_net::wire::Codec;
        // Duplicate signer.
        let mut enc = Encoder::new();
        enc.put_u32(2);
        enc.put_u32(5).put_u64(1);
        enc.put_u32(5).put_u64(2);
        assert!(matches!(
            Multiplicities::from_frame(enc.finish()),
            Err(DecodeError::Malformed { .. })
        ));
        // Zero count.
        let mut enc = Encoder::new();
        enc.put_u32(1);
        enc.put_u32(5).put_u64(0);
        assert!(matches!(
            Multiplicities::from_frame(enc.finish()),
            Err(DecodeError::Malformed { .. })
        ));
        // Unsorted entries: would decode to a value whose re-encoding
        // differs from the input bytes, breaking canonical-form equality.
        let mut enc = Encoder::new();
        enc.put_u32(2);
        enc.put_u32(7).put_u64(1);
        enc.put_u32(5).put_u64(1);
        assert!(matches!(
            Multiplicities::from_frame(enc.finish()),
            Err(DecodeError::Malformed { .. })
        ));
        // Truncated entry list.
        let mut enc = Encoder::new();
        enc.put_u32(3);
        enc.put_u32(5).put_u64(1);
        assert_eq!(
            Multiplicities::from_frame(enc.finish()),
            Err(DecodeError::UnexpectedEnd)
        );
    }
}
