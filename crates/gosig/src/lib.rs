//! # iniva-gosig
//!
//! A model of **Gosig**'s randomized gossip-based vote aggregation
//! (Li et al. \[15\]), as simulated in the Iniva paper's Section VII-B to
//! quantify targeted vote-omission and the effect of free-riding.
//!
//! Model (paper Sections II-B.3 / IV-D): every round each process sends its
//! best current aggregate to `k` uniformly random peers. Knowledge is a pool
//! of *indivisible parcels* (signer sets); disjoint parcels can be combined,
//! overlapping ones cannot. Behaviours:
//!
//! * **honest** processes aggregate everything they see;
//! * **free-riders** skip aggregation (and its costly verification) and
//!   gossip only their own signature;
//! * **attackers** collude: they drop the victim's individual signature and
//!   never forward parcels containing the victim;
//! * the **greedy** attacker variant additionally seeds the victim with
//!   attacker signatures in round one, entangling the victim's outgoing
//!   parcels with signatures the attacker can always re-supply — making the
//!   victim's parcels cheap to discard.
//!
//! Committees are limited to `n <= 128` so parcels are `u128` bitmasks
//! (the paper simulates `n = 100`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Behaviour of a process in the gossip rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behaviour {
    /// Aggregates and forwards everything.
    Honest,
    /// Forwards only its own signature (no aggregation work).
    FreeRider,
    /// Colluding attacker (drops/withholds the victim's signature).
    Attacker,
}

/// Configuration of one Gosig aggregation instance.
#[derive(Debug, Clone)]
pub struct GosigConfig {
    /// Committee size (`<= 128`).
    pub n: usize,
    /// Gossip fan-out per round.
    pub k: usize,
    /// Number of gossip rounds (enough for full dissemination:
    /// `~log2(n) + slack`).
    pub rounds: usize,
    /// Fraction of processes controlled by the attacker.
    pub m: f64,
    /// Fraction of *correct* processes that free-ride.
    pub free_riding: f64,
    /// Greedy attacker variant (seeds the victim with attacker signatures).
    pub greedy: bool,
    /// Extra gossip rounds an *honest* leader waits after first reaching
    /// quorum coverage before assembling the QC (an adversarial leader
    /// stops immediately — it wants the earliest, least-entangled pool).
    pub grace_rounds: usize,
}

impl GosigConfig {
    /// The paper's baseline: `n = 100`, no free-riding.
    pub fn paper(k: usize, m: f64) -> Self {
        GosigConfig {
            n: 100,
            k,
            rounds: 10,
            m,
            free_riding: 0.0,
            greedy: false,
            grace_rounds: 2,
        }
    }
}

/// Outcome of one simulated aggregation instance.
#[derive(Debug, Clone, Copy)]
pub struct RoundOutcome {
    /// Whether the victim's signature is missing from the final QC.
    pub victim_omitted: bool,
    /// Non-victim processes excluded from the final QC (collateral).
    pub collateral: u32,
    /// Whether a QC (quorum) could be formed at all.
    pub qc_formed: bool,
    /// Whether the round's leader was an attacker.
    pub attacker_leader: bool,
}

/// Simulates one full aggregation instance. The victim is a non-attacker;
/// role assignment (attackers, free-riders, leader) is drawn from `rng`,
/// mirroring the paper's "random assignment of processes to the attacker
/// and the victim role".
pub fn simulate(cfg: &GosigConfig, rng: &mut StdRng) -> RoundOutcome {
    let n = cfg.n;
    assert!(n <= 128, "bitmask model supports n <= 128");
    let quorum = n - (n - 1) / 3;

    // Assign roles.
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    let attacker_count = (cfg.m * n as f64).round() as usize;
    let attackers: HashSet<usize> = ids[..attacker_count].iter().copied().collect();
    let victim = ids[attacker_count]; // first non-attacker
    let correct: Vec<usize> = ids[attacker_count..].to_vec();
    let fr_count = (cfg.free_riding * correct.len() as f64).round() as usize;
    let free_riders: HashSet<usize> = correct
        .iter()
        .copied()
        .filter(|p| *p != victim)
        .take(fr_count)
        .collect();
    let leader = ids[rng.gen_range(0..n)];

    let behaviour = |p: usize| -> Behaviour {
        if attackers.contains(&p) {
            Behaviour::Attacker
        } else if free_riders.contains(&p) {
            Behaviour::FreeRider
        } else {
            Behaviour::Honest
        }
    };

    let victim_bit: u128 = 1 << victim;

    // Pools of indivisible parcels per process; everyone starts with its own
    // signature.
    let mut pools: Vec<HashSet<u128>> = (0..n).map(|p| HashSet::from([1u128 << p])).collect();

    // Greedy attacker: seed the victim with all attacker signatures before
    // round one, so the victim's aggregate gets entangled with signatures
    // the attacker can re-supply at no cost.
    if cfg.greedy {
        for &a in &attackers {
            pools[victim].insert(1u128 << a);
        }
    }

    // Gossip until the leader can assemble a quorum (plus `grace_rounds`
    // for an honest leader) or the round budget runs out. Inclusion is a
    // race — exactly the probabilistic-inclusion property the paper
    // attributes to Gosig.
    let attacker_leader = attackers.contains(&leader);
    let mut rounds_since_quorum: Option<usize> = None;
    for _ in 0..cfg.rounds {
        {
            let parcels: Vec<u128> = pools[leader].iter().copied().collect();
            let coverage = union_all(&parcels);
            if coverage.count_ones() as usize >= quorum {
                let since = rounds_since_quorum.get_or_insert(0);
                let patience = if attacker_leader { 0 } else { cfg.grace_rounds };
                if *since >= patience {
                    break;
                }
                *since += 1;
            }
        }
        // Compute what each process sends this round.
        let mut sends: Vec<(usize, u128)> = Vec::with_capacity(n * cfg.k);
        for (p, pool) in pools.iter().enumerate() {
            let share = match behaviour(p) {
                Behaviour::Honest => {
                    let parcels: Vec<u128> = pool.iter().copied().collect();
                    union_all(&parcels)
                }
                Behaviour::FreeRider => 1u128 << p,
                Behaviour::Attacker => {
                    // Forward the best aggregate that excludes the victim.
                    let parcels: Vec<u128> = pool.iter().copied().collect();
                    union_all(
                        &parcels
                            .iter()
                            .copied()
                            .filter(|q| q & victim_bit == 0)
                            .collect::<Vec<_>>(),
                    )
                }
            };
            if share == 0 {
                continue;
            }
            for _ in 0..cfg.k {
                let to = rng.gen_range(0..n);
                sends.push((to, share));
            }
        }
        for (to, share) in sends {
            if behaviour(to) == Behaviour::Attacker && share == victim_bit {
                continue; // attackers discard the victim's individual signature
            }
            pools[to].insert(share);
        }
    }

    // The leader assembles the final QC from its pool. Aggregates combine
    // with multiplicity (BLS), so the honest QC is the *union* of the pool;
    // an attacker leader instead unions only victim-free parcels.
    let parcels: Vec<u128> = pools[leader].iter().copied().collect();
    let reachable = union_all(&parcels);
    let qc = if attacker_leader {
        let without = union_all(
            &parcels
                .iter()
                .copied()
                .filter(|p| p & victim_bit == 0)
                .collect::<Vec<_>>(),
        );
        if (without.count_ones() as usize) >= quorum {
            without
        } else {
            reachable
        }
    } else {
        reachable
    };

    let covered = qc.count_ones() as usize;
    let victim_omitted = qc & victim_bit == 0;
    // Collateral counts *intentional* exclusions: processes present in the
    // leader's pool but left out of the QC. Signatures that never reached
    // the leader (probabilistic inclusion) are not collateral.
    let reachable_count = reachable.count_ones() as usize;
    let excluded_on_purpose = reachable_count - covered;
    let victim_reachable = reachable & victim_bit != 0;
    let collateral = excluded_on_purpose as u32 - u32::from(victim_omitted && victim_reachable);
    RoundOutcome {
        victim_omitted,
        collateral,
        qc_formed: covered >= quorum,
        attacker_leader,
    }
}

/// Union of all parcels (BLS multiplicities let overlapping aggregates
/// combine, so everything a process holds is jointly includable).
fn union_all(parcels: &[u128]) -> u128 {
    parcels.iter().fold(0, |acc, p| acc | p)
}

/// Estimates the c-omission probability over `trials` independent
/// instances: the fraction where the victim was omitted from a formed QC
/// with collateral at most `max_collateral`.
pub fn omission_probability(
    cfg: &GosigConfig,
    max_collateral: u32,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..trials {
        let o = simulate(cfg, &mut rng);
        if o.qc_formed && o.victim_omitted && o.collateral <= max_collateral {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(k: usize, m: f64) -> GosigConfig {
        GosigConfig {
            n: 40,
            k,
            rounds: 12,
            m,
            free_riding: 0.0,
            greedy: false,
            grace_rounds: 2,
        }
    }

    #[test]
    fn union_combines_everything() {
        let parcels = [0b0011u128, 0b1100, 0b0110, 0b1_0000];
        assert_eq!(union_all(&parcels), 0b1_1111);
        assert_eq!(union_all(&[]), 0);
    }

    #[test]
    fn no_attacker_means_near_full_inclusion() {
        // Inclusion in Gosig is probabilistic even fault-free (paper
        // Section IV-D), but with grace rounds it should be rare to miss.
        let cfg = small(3, 0.0);
        let p = omission_probability(&cfg, 200, 400, 1);
        assert!(
            p < 0.08,
            "honest gossip should usually include the victim (p = {p})"
        );
    }

    #[test]
    fn qc_always_forms_with_honest_majority() {
        let cfg = small(3, 0.1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(simulate(&cfg, &mut rng).qc_formed);
        }
    }

    #[test]
    fn free_riding_increases_omission() {
        let base = GosigConfig {
            free_riding: 0.0,
            ..small(2, 0.1)
        };
        let fr = GosigConfig {
            free_riding: 0.3,
            ..small(2, 0.1)
        };
        let p0 = omission_probability(&base, 200, 400, 7);
        let p1 = omission_probability(&fr, 200, 400, 7);
        assert!(
            p1 > p0,
            "free-riding must make omission easier ({p0} vs {p1})"
        );
    }

    #[test]
    fn larger_k_reduces_unbounded_omission() {
        let k2 = omission_probability(&small(2, 0.1), 200, 400, 9);
        let k4 = omission_probability(&small(4, 0.1), 200, 400, 9);
        assert!(
            k4 <= k2 + 0.02,
            "more redundancy cannot hurt ({k2} vs {k4})"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = small(2, 0.1);
        assert_eq!(
            omission_probability(&cfg, 0, 100, 5),
            omission_probability(&cfg, 0, 100, 5)
        );
    }

    #[test]
    fn attacker_leader_fraction_matches_m() {
        let cfg = small(3, 0.2);
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 2000;
        let hits = (0..trials)
            .filter(|_| simulate(&cfg, &mut rng).attacker_leader)
            .count();
        let frac = hits as f64 / trials as f64;
        assert!(
            (frac - 0.2).abs() < 0.05,
            "leader should be attacker ~m of the time ({frac})"
        );
    }
}
