//! Microbenchmarks of the from-scratch BLS12-381 substrate. These measured
//! costs calibrate the discrete-event simulator's cost model (relative
//! magnitudes; see `iniva_net::cost::CostModel`).

use criterion::{criterion_group, criterion_main, Criterion};
use iniva_crypto::bls::BlsScheme;
use iniva_crypto::multisig::VoteScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_crypto::{g1, g2, pairing, sha256};
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("bls12-381");
    g.sample_size(10);

    let scheme = BlsScheme::new(8, b"bench");
    let msg = b"benchmark block";

    g.bench_function("sha256_1kib", |b| {
        let data = vec![0xa5u8; 1024];
        b.iter(|| sha256::sha256(black_box(&data)))
    });
    g.bench_function("hash_to_g1", |b| {
        b.iter(|| g1::hash_to_curve(black_box(msg)))
    });
    g.bench_function("g1_scalar_mul", |b| {
        let p = g1::generator();
        b.iter(|| black_box(&p).mul_u64(0xdead_beef_1234))
    });
    g.bench_function("pairing", |b| {
        let p = g1::generator();
        let q = g2::generator();
        b.iter(|| pairing::pairing(black_box(&p), black_box(&q)))
    });
    g.bench_function("bls_sign", |b| b.iter(|| scheme.sign(0, black_box(msg))));
    g.bench_function("bls_verify_single", |b| {
        let sig = scheme.sign(0, msg);
        b.iter(|| assert!(scheme.verify(black_box(msg), &sig)))
    });
    g.bench_function("bls_aggregate_4_with_multiplicity", |b| {
        let sigs: Vec<_> = (0..4).map(|i| scheme.sign(i, msg)).collect();
        b.iter(|| {
            let mut agg = scheme.scale(&sigs[0], 2);
            for s in &sigs[1..] {
                agg = scheme.combine(&agg, &scheme.scale(s, 2));
            }
            agg
        })
    });
    g.bench_function("bls_verify_aggregate_4", |b| {
        let mut agg = scheme.sign(0, msg);
        for i in 1..4 {
            agg = scheme.combine(&agg, &scheme.sign(i, msg));
        }
        b.iter(|| assert!(scheme.verify(black_box(msg), &agg)))
    });
    // Batch verification: the 8-aggregate same-message shape a view's
    // fan-in concentrates at the tree root. The individual cell verifies
    // the same 8 aggregates one by one (16 Miller loops, 8 final
    // exponentiations); the batch cell collapses them into one
    // random-linear-combination multi-pairing (2 Miller loops, 1 final
    // exponentiation, plus 8 cheap 128-bit scalar muls).
    g.bench_function("bls_verify_individual_8", |b| {
        let sigs: Vec<_> = (0..8).map(|i| scheme.sign(i, msg)).collect();
        b.iter(|| {
            for sig in &sigs {
                assert!(scheme.verify(black_box(msg), sig));
            }
        })
    });
    g.bench_function("bls_verify_batch_8", |b| {
        let sigs: Vec<_> = (0..8).map(|i| scheme.sign(i, msg)).collect();
        b.iter(|| {
            let groups: Vec<(&[u8], &[_])> = vec![(black_box(msg).as_slice(), sigs.as_slice())];
            assert!(scheme.verify_batch(&groups).all_valid())
        })
    });
    g.bench_function("bls_verify_batch_8_one_forged_bisect", |b| {
        let mut sigs: Vec<_> = (0..8).map(|i| scheme.sign(i, msg)).collect();
        sigs[5].mults = iniva_crypto::multisig::Multiplicities::singleton(6);
        b.iter(|| {
            let groups: Vec<(&[u8], &[_])> = vec![(black_box(msg).as_slice(), sigs.as_slice())];
            assert_eq!(scheme.verify_batch(&groups).culprits(), &[(0usize, 5usize)])
        })
    });
    // The state-transfer shape: 8 QCs over 8 *distinct* messages — still
    // one shared final exponentiation, 9 Miller loops instead of 16.
    g.bench_function("bls_verify_batch_8_distinct_msgs", |b| {
        let msgs: Vec<Vec<u8>> = (0..8u64)
            .map(|v| [msg, &v.to_be_bytes()[..]].concat())
            .collect();
        let sigs: Vec<_> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| scheme.sign(i as u32, m))
            .collect();
        b.iter(|| {
            let groups: Vec<(&[u8], &[_])> = msgs
                .iter()
                .zip(&sigs)
                .map(|(m, s)| (m.as_slice(), std::slice::from_ref(s)))
                .collect();
            assert!(scheme.verify_batch(black_box(&groups)).all_valid())
        })
    });
    g.finish();

    // Ablation: the simulation scheme used by Monte-Carlo experiments.
    let mut g = c.benchmark_group("sim-scheme-ablation");
    let sim = SimScheme::new(8, b"bench");
    g.bench_function("sim_sign", |b| b.iter(|| sim.sign(0, black_box(msg))));
    g.bench_function("sim_verify_aggregate_4", |b| {
        let mut agg = sim.sign(0, msg);
        for i in 1..4 {
            agg = sim.combine(&agg, &sim.sign(i, msg));
        }
        b.iter(|| assert!(sim.verify(black_box(msg), &agg)))
    });
    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
