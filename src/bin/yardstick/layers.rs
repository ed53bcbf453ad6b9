//! Layer probes: each is a timed loop around one public call of one
//! layer, so a later change to that layer shows here before (or without)
//! moving an end-to-end number. A probe reports the median of
//! [`BATCHES`] batches and prints its operation count.

use crate::stats::{median, Metric};
use iniva::protocol::InivaMsg;
use iniva::rewards::{distribute, RewardParams};
use iniva_consensus::types::{Block, Qc};
use iniva_crypto::bls::{BlsAggregate, BlsScheme};
use iniva_crypto::multisig::{Multiplicities, VoteScheme};
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::{ClientMsg, IngressOptions, Mempool, RequestSource};
use iniva_net::wire::Codec;
use iniva_storage::ChainWal;
use iniva_transport::dedup::DedupCache;
use iniva_transport::frame::parse_frame;
use iniva_tree::{Role, TreeView};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

const BATCHES: usize = 5;

struct Probes {
    out: Vec<Metric>,
}

impl Probes {
    /// Records `name` from per-batch wall times of `ops` operations each.
    fn record(&mut self, name: &str, unit: &'static str, ops: usize, batch_ns: &[f64]) {
        let per_unit = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            _ => 1e6,
        };
        let per_op: Vec<f64> = batch_ns
            .iter()
            .map(|ns| ns / ops as f64 / per_unit)
            .collect();
        let value = median(&per_op);
        println!(
            "layer {name} = {value:.3} {unit} (median of {} batches of {ops} ops)",
            batch_ns.len()
        );
        self.out.push(Metric::new(name, value, unit));
    }

    /// Times [`BATCHES`] batches of `ops` calls of `op`.
    fn time(&mut self, name: &str, unit: &'static str, ops: usize, mut op: impl FnMut()) {
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ops {
                    op();
                }
                t.elapsed().as_nanos() as f64
            })
            .collect();
        self.record(name, unit, ops, &batches);
    }
}

/// A chain of `count` blocks from height `first`, each with a three-vote QC.
fn chain(scheme: &SimScheme, first: u64, count: u64) -> Vec<(Block, Option<Qc<SimScheme>>)> {
    (first..first + count)
        .map(|height| {
            let block = Block {
                view: height,
                height,
                parent: [height as u8; 32],
                proposer: (height % 4) as u32,
                batch_start: height * 100,
                batch_len: 100,
                payload_per_req: 64,
            };
            let hash = block.hash();
            let agg = (1..3).fold(scheme.sign(0, &hash), |agg, signer| {
                scheme.combine(&agg, &scheme.sign(signer, &hash))
            });
            let qc = Qc {
                block_hash: hash,
                view: height,
                height,
                agg,
            };
            (block, Some(qc))
        })
        .collect()
}

fn crypto(p: &mut Probes) {
    p.time("crypto.keygen_ms", "ms", 1, || {
        black_box(BlsScheme::new(4, black_box(b"yardstick-keygen")));
    });
    let scheme = BlsScheme::new(4, b"yardstick");
    let msg: &[u8] = b"yardstick vote message";
    let votes: Vec<BlsAggregate> = (0..4).map(|signer| scheme.sign(signer, msg)).collect();
    // Eight aggregates over the one message, as a root folds them: four
    // votes and four pairwise combinations.
    let mut eight = votes.clone();
    eight.extend((0..4).map(|i| scheme.combine(&votes[i], &votes[(i + 1) % 4])));
    // The first verification fills the hash-to-curve cache, as the first
    // vote of a view does; every later one in the view hits it.
    assert!(scheme.verify(msg, &votes[0]), "probe signature verifies");
    let wire = eight[4].to_frame();

    p.time("crypto.sign_us", "us", 20, || {
        black_box(scheme.sign(1, black_box(msg)));
    });
    p.time("crypto.verify_us", "us", 4, || {
        black_box(scheme.verify(msg, black_box(&eight[4])));
    });
    p.time("crypto.verify_batch8_us", "us", 2, || {
        assert!(scheme.verify_batch(&[(msg, &eight[..])]).all_valid());
    });
    p.time("crypto.combine_us", "us", 2000, || {
        black_box(scheme.combine(black_box(&votes[0]), black_box(&votes[1])));
    });
    p.time("crypto.agg_decode_us", "us", 20, || {
        black_box(BlsAggregate::from_frame(wire.clone()).expect("own encoding decodes"));
    });
}

fn codecs(p: &mut Probes) {
    let sim = SimScheme::new(21, b"yardstick");
    let msg = InivaMsg::<SimScheme>::Signature {
        view: 42,
        agg: sim.combine(&sim.sign(3, b"vote"), &sim.sign(4, b"vote")),
    };
    let wire = msg.to_frame();
    p.time("net.encode_ns", "ns", 100_000, || {
        black_box(black_box(&msg).to_frame());
    });
    p.time("net.decode_ns", "ns", 100_000, || {
        black_box(InivaMsg::<SimScheme>::from_frame(wire.clone()).expect("own encoding decodes"));
    });

    let submit = ClientMsg::Submit {
        fee: 12,
        nonce: 7,
        payload: vec![0x5a; 64].into(),
    }
    .to_frame();
    p.time("ingress.wire_decode_ns", "ns", 100_000, || {
        black_box(ClientMsg::from_frame(submit.clone()).expect("own encoding decodes"));
    });

    // One peer frame as it sits in a receive buffer: length, sequence, body.
    let mut peer = Vec::new();
    peer.extend_from_slice(&(8 + wire.len() as u32).to_le_bytes());
    peer.extend_from_slice(&9u64.to_le_bytes());
    peer.extend_from_slice(&wire);
    p.time("transport.frame_parse_ns", "ns", 1_000_000, || {
        black_box(parse_frame(black_box(&peer)).expect("well-formed frame"));
    });
    let mut dedup = DedupCache::new(4096);
    let mut seq = 0u64;
    p.time("transport.dedup_ns", "ns", 200_000, || {
        seq += 1;
        black_box(dedup.insert(1, 0, seq));
    });
}

/// Admission, drafting and settling of 10 000 requests per batch, in
/// blocks of 100 as the proposer drafts them.
fn mempool(p: &mut Probes) {
    const REQS: usize = 10_000;
    let pool = Mempool::new(&IngressOptions {
        capacity: 65_536,
        rate_per_client: 0,
        burst: 1,
    });
    let (mut submit, mut draft, mut settle) = (Vec::new(), Vec::new(), Vec::new());
    for batch in 0..BATCHES {
        let first = (batch * REQS) as u64;
        let t = Instant::now();
        for nonce in first..first + REQS as u64 {
            black_box(pool.submit(0, nonce, 10 + nonce % 4, 64));
        }
        submit.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for block in 0..(REQS / 100) as u64 {
            assert_eq!(pool.draft(first + block * 100, 100), 100);
        }
        draft.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for block in 0..(REQS / 100) as u64 {
            black_box(pool.committed(first / 100 + block + 1, first + block * 100, 100));
        }
        settle.push(t.elapsed().as_nanos() as f64);
    }
    p.record("ingress.submit_ns", "ns", REQS, &submit);
    p.record("ingress.draft_ns_per_req", "ns", REQS, &draft);
    p.record("ingress.settle_ns_per_req", "ns", REQS, &settle);
}

/// WAL appends (fsync included) and recovery, in a directory of the
/// probe's own under `tmp` that is removed afterwards.
fn storage(p: &mut Probes, tmp: &Path) -> io::Result<()> {
    let scheme = SimScheme::new(4, b"yardstick");
    let dir = tmp.join("probe-wal");
    let (mut wal, _) = ChainWal::<SimScheme>::open(&dir.join("append"))?;
    let blocks = chain(&scheme, 1, (BATCHES * 20 + BATCHES * 10 * 8) as u64);
    let mut next = blocks.iter();
    let mut failure = None;
    p.time("storage.append_us", "us", 20, || {
        let (block, qc) = next.next().expect("enough blocks were built");
        if let Err(e) = wal.append_commit(block, qc.as_ref()) {
            failure = Some(e);
        }
    });
    let mut rest = next.as_slice().chunks(8);
    p.time("storage.append_batch8_us", "us", 10, || {
        if let Err(e) = wal.append_batch(rest.next().expect("enough blocks were built")) {
            failure = Some(e);
        }
    });
    drop(wal);

    let (mut wal, _) = ChainWal::<SimScheme>::open(&dir.join("recover"))?;
    for batch in chain(&scheme, 1, 2000).chunks(100) {
        wal.append_batch(batch)?;
    }
    drop(wal);
    p.time("storage.recover_ms", "ms", 1, || {
        match ChainWal::<SimScheme>::open(&dir.join("recover")) {
            Ok((_, recovered)) => assert_eq!(recovered.commits.len(), 2000),
            Err(e) => failure = Some(e),
        }
    });
    std::fs::remove_dir_all(&dir)?;
    failure.map_or(Ok(()), Err)
}

fn tree_and_rewards(p: &mut Probes) {
    let seed = [7u8; 32];
    let mut view = 0u64;
    p.time("tree.build_us", "us", 2000, || {
        view += 1;
        black_box(TreeView::build(21, 4, &seed, view).expect("21 replicas, 4 internal"));
    });
    // The fault-free QC of that tree: the root once, a leaf twice, an
    // internal node once more than it has children.
    let tree = TreeView::build(21, 4, &seed, 1).expect("21 replicas, 4 internal");
    let mults: Multiplicities = (0..21)
        .map(|member| {
            let mult = match tree.role_of(member) {
                Role::Root => 1,
                Role::Internal => tree.children_of(member).len() as u64 + 1,
                Role::Leaf => 2,
            };
            (member, mult)
        })
        .collect();
    let params = RewardParams::default();
    p.time("core.rewards_us", "us", 2000, || {
        black_box(distribute(&tree, black_box(&mults), &params, 1.0));
    });
}

/// Runs every probe; `tmp` is an empty directory of the run's own.
pub fn probe_all(tmp: &Path) -> io::Result<Vec<Metric>> {
    let mut p = Probes { out: Vec::new() };
    crypto(&mut p);
    codecs(&mut p);
    mempool(&mut p);
    storage(&mut p, tmp)?;
    tree_and_rewards(&mut p);
    Ok(p.out)
}
