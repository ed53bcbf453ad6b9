use super::*;
use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
use iniva_net::sync::{StateRequest, StateResponse};
use iniva_net::wire::{Codec, DecodeError};

fn sample_block() -> Block {
    Block {
        view: 3,
        height: 2,
        parent: [9u8; 32],
        proposer: 1,
        batch_start: 77,
        batch_len: 10,
        payload_per_req: 64,
    }
}

fn sample_qc(s: &SimScheme, b: &Block) -> Qc<SimScheme> {
    let msg = vote_message(&b.hash(), b.view);
    let agg = s.combine(&s.sign(0, &msg), &s.scale(&s.sign(2, &msg), 2));
    Qc {
        block_hash: b.hash(),
        view: b.view,
        height: b.height,
        agg,
    }
}

fn variants() -> Vec<InivaMsg<SimScheme>> {
    let s = SimScheme::new(4, b"wire-tests");
    let b = sample_block();
    let qc = sample_qc(&s, &b);
    let agg = s.combine(&s.sign(1, b"m"), &s.sign(3, b"m"));
    vec![
        InivaMsg::Proposal {
            block: b.clone(),
            qc: Some(qc.clone()),
        },
        InivaMsg::Proposal {
            block: b.clone(),
            qc: None,
        },
        InivaMsg::Signature {
            view: 5,
            agg: agg.clone(),
        },
        InivaMsg::Ack { view: 6, agg },
        InivaMsg::SecondChance {
            block: b.clone(),
            qc: Some(qc.clone()),
        },
        InivaMsg::StateRequest(StateRequest { from_height: 42 }),
        InivaMsg::StateResponse(StateResponse {
            blocks: vec![b.clone(), b],
            qcs: vec![qc.clone(), qc.clone()],
        }),
        InivaMsg::Timeout {
            view: 7,
            high_qc: Some(qc),
        },
        InivaMsg::Timeout {
            view: 8,
            high_qc: None,
        },
    ]
}

fn assert_msg_eq(a: &InivaMsg<SimScheme>, b: &InivaMsg<SimScheme>) {
    // InivaMsg has no PartialEq (aggregates are scheme-defined);
    // compare through the canonical encoding instead.
    assert_eq!(&a.to_frame()[..], &b.to_frame()[..]);
}

#[test]
fn every_variant_roundtrips() {
    for m in variants() {
        let frame = m.to_frame();
        let back: InivaMsg<SimScheme> = Codec::from_frame(frame).unwrap();
        assert_msg_eq(&m, &back);
    }
}

#[test]
fn truncation_never_panics() {
    for m in variants() {
        let frame = m.to_frame();
        for cut in 0..frame.len() {
            assert!(
                InivaMsg::<SimScheme>::from_frame(frame.slice(0..cut)).is_err(),
                "prefix of {cut} bytes decoded as a full message"
            );
        }
    }
}

#[test]
fn trailing_bytes_rejected() {
    for m in variants() {
        let mut enc = iniva_net::wire::Encoder::new();
        m.encode(&mut enc);
        enc.put_u8(0);
        assert!(matches!(
            InivaMsg::<SimScheme>::from_frame(enc.finish()),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }
}

#[test]
fn unknown_discriminant_rejected() {
    let mut enc = iniva_net::wire::Encoder::new();
    enc.put_u8(9).put_u64(1);
    assert!(matches!(
        InivaMsg::<SimScheme>::from_frame(enc.finish()),
        Err(DecodeError::InvalidTag { tag: 9, .. })
    ));
}

#[test]
fn decoded_aggregates_still_verify() {
    let s = SimScheme::new(4, b"wire-tests");
    let msg = b"payload";
    let agg = s.combine(&s.sign(0, msg), &s.sign(1, msg));
    let m: InivaMsg<SimScheme> = InivaMsg::Signature { view: 2, agg };
    let back: InivaMsg<SimScheme> = Codec::from_frame(m.to_frame()).unwrap();
    match back {
        InivaMsg::Signature { view, agg } => {
            assert_eq!(view, 2);
            assert!(s.verify(msg, &agg));
        }
        other => panic!("wrong variant {other:?}"),
    }
}

#[allow(clippy::extra_unused_type_parameters)]
fn assert_codec<T: Codec>() {}

#[test]
fn protocol_messages_satisfy_the_codec_contract() {
    // Compile-time check that both backends can ship these enums,
    // under either vote scheme.
    use iniva_crypto::bls::{BlsAggregate, BlsScheme};
    assert_codec::<InivaMsg<SimScheme>>();
    assert_codec::<SimAggregate>();
    assert_codec::<Qc<SimScheme>>();
    assert_codec::<InivaMsg<BlsScheme>>();
    assert_codec::<BlsAggregate>();
    assert_codec::<Qc<BlsScheme>>();
    assert_codec::<Block>();
}
