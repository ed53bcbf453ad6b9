//! Adversarial wire-codec tests across every `Codec` impl the transport
//! can ship: property-based round-trips plus truncated, trailing and
//! oversized-length-prefix inputs, asserting clean `DecodeError`s — never
//! a panic — for `InivaMsg`, `Qc`, `SimAggregate`,
//! `BlsAggregate` (48-byte compressed G1 points, with off-curve and
//! non-subgroup rejection), `Multiplicities` and the
//! fully-untrusted client protocol `ClientMsg` (bit-flip canonicality,
//! oversized-payload rejection).
//!
//! The transport drops a connection whose peer sends an undecodable body;
//! a panicking decoder would instead let one malformed frame take down
//! the whole replica. These tests are the contract that keeps that
//! failure mode closed as codecs evolve.

use iniva::protocol::InivaMsg;
use iniva_consensus::types::{vote_message, Block, Qc};
use iniva_crypto::bls::{BlsAggregate, BlsScheme};
use iniva_crypto::multisig::{Multiplicities, VoteScheme};
use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
use iniva_ingress::{ClientMsg, SubmitStatus, MAX_CLIENT_PAYLOAD};
use iniva_net::wire::{Codec, DecodeError, Encoder};
use iniva_transport::frame::{self, FrameParse, HANDSHAKE_BYTES, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Reference whole-buffer parse: every complete frame in `buf`, plus the
/// offset where the partial tail (if any) begins. `Err` on corrupt
/// framing.
#[allow(clippy::type_complexity)]
fn parse_stream(buf: &[u8]) -> Result<(Vec<(u64, Vec<u8>)>, usize), ()> {
    let mut frames = Vec::new();
    let mut offset = 0;
    loop {
        match frame::parse_frame(&buf[offset..]) {
            Ok(FrameParse::Incomplete) => return Ok((frames, offset)),
            Ok(FrameParse::Complete {
                consumed,
                seq,
                body,
            }) => {
                frames.push((seq, buf[offset + body.start..offset + body.end].to_vec()));
                offset += consumed;
            }
            Err(_) => return Err(()),
        }
    }
}

/// Encodes one transport frame as the wire layout states it,
/// `[len:u32-le][seq:u64-le][body]` with `len = 8 + body.len()`: the
/// reference the parser and `frame::encode` are both checked against.
fn encode_frame(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&((body.len() + 8) as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Exhaustive prefix truncation: every strict prefix of a valid frame
/// must decode to an error, never panic, never a value.
fn assert_truncation_clean<M: Codec>(frame: &bytes::Bytes, what: &str) {
    for cut in 0..frame.len() {
        assert!(
            M::from_frame(frame.slice(0..cut)).is_err(),
            "{what}: {cut}-byte prefix of a {}-byte frame decoded",
            frame.len()
        );
    }
}

/// Trailing garbage after a complete message must be rejected (a frame is
/// one message, not a stream position).
fn assert_trailing_rejected<M: Codec>(msg: &M, what: &str) {
    let mut enc = Encoder::new();
    msg.encode(&mut enc);
    enc.put_u8(0xA5);
    assert!(
        matches!(
            M::from_frame(enc.finish()),
            Err(DecodeError::TrailingBytes { .. })
        ),
        "{what}: trailing byte not rejected"
    );
}

fn scheme(n: usize) -> SimScheme {
    SimScheme::new(n, b"codec-adversarial")
}

/// One shared BLS committee: key derivation costs real scalar mults, so
/// proptest cases reuse it instead of rebuilding per case.
fn bls_scheme() -> &'static BlsScheme {
    static SCHEME: OnceLock<BlsScheme> = OnceLock::new();
    SCHEME.get_or_init(|| BlsScheme::new(8, b"codec-adversarial"))
}

/// A BLS aggregate with arbitrary (valid) multiplicity structure.
fn arb_bls_aggregate(s: &BlsScheme, signers: &[u32], mults: &[u64]) -> BlsAggregate {
    let msg = b"adversarial";
    let mut agg: Option<BlsAggregate> = None;
    for (&signer, &mult) in signers.iter().zip(mults) {
        let part = s.scale(
            &s.sign(signer % s.committee_size() as u32, msg),
            mult % 7 + 1,
        );
        agg = Some(match agg {
            None => part,
            Some(a) => s.combine(&a, &part),
        });
    }
    agg.unwrap_or_else(|| s.sign(0, msg))
}

fn arb_block(seed: (u64, u64, u8, u32, u64, u32)) -> Block {
    let (view, height, parent_byte, proposer, batch_start, batch_len) = seed;
    Block {
        view,
        height,
        parent: [parent_byte; 32],
        proposer: proposer % 64,
        batch_start,
        batch_len: batch_len % 10_000,
        payload_per_req: 64,
    }
}

/// An aggregate with arbitrary (valid) multiplicity structure.
fn arb_aggregate(s: &SimScheme, signers: &[u32], mults: &[u64]) -> SimAggregate {
    let msg = b"adversarial";
    let mut agg: Option<SimAggregate> = None;
    for (&signer, &mult) in signers.iter().zip(mults) {
        let part = s.scale(
            &s.sign(signer % s.committee_size() as u32, msg),
            mult % 7 + 1,
        );
        agg = Some(match agg {
            None => part,
            Some(a) => s.combine(&a, &part),
        });
    }
    agg.unwrap_or_else(|| s.sign(0, msg))
}

fn arb_qc(s: &SimScheme, b: &Block, signers: &[u32], mults: &[u64]) -> Qc<SimScheme> {
    let _ = vote_message(&b.hash(), b.view);
    Qc {
        block_hash: b.hash(),
        view: b.view,
        height: b.height,
        agg: arb_aggregate(s, signers, mults),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn iniva_msg_roundtrips_and_survives_mutation(
        blk in (any::<u64>(), any::<u64>(), any::<u8>(), any::<u32>(), any::<u64>(), any::<u32>()),
        signers in proptest::collection::vec(any::<u32>(), 1..6),
        mults in proptest::collection::vec(any::<u64>(), 6..7),
        variant in 0u8..4,
    ) {
        let s = scheme(8);
        let b = arb_block(blk);
        let mults6: Vec<u64> = mults.iter().cycle().take(signers.len()).copied().collect();
        let qc = arb_qc(&s, &b, &signers, &mults6);
        let agg = arb_aggregate(&s, &signers, &mults6);
        let msg: InivaMsg<SimScheme> = match variant {
            0 => InivaMsg::Proposal { block: b.clone(), qc: Some(qc) },
            1 => InivaMsg::Signature { view: b.view, agg },
            2 => InivaMsg::Ack { view: b.view, agg },
            _ => InivaMsg::SecondChance { block: b.clone(), qc: None },
        };
        let frame = msg.to_frame();
        let back = InivaMsg::<SimScheme>::from_frame(frame.clone()).expect("round-trip");
        prop_assert_eq!(&back.to_frame()[..], &frame[..], "canonical re-encoding");
        assert_truncation_clean::<InivaMsg<SimScheme>>(&frame, "InivaMsg");
        assert_trailing_rejected(&msg, "InivaMsg");
    }

    #[test]
    fn qc_aggregate_and_multiplicities_roundtrip(
        blk in (any::<u64>(), any::<u64>(), any::<u8>(), any::<u32>(), any::<u64>(), any::<u32>()),
        signers in proptest::collection::vec(any::<u32>(), 1..8),
        mults in proptest::collection::vec(any::<u64>(), 8..9),
    ) {
        let s = scheme(16);
        let b = arb_block(blk);
        let mults8: Vec<u64> = mults.iter().cycle().take(signers.len()).copied().collect();
        let qc = arb_qc(&s, &b, &signers, &mults8);
        let agg = arb_aggregate(&s, &signers, &mults8);

        let frame = qc.to_frame();
        let back = Qc::<SimScheme>::from_frame(frame.clone()).expect("Qc round-trip");
        prop_assert_eq!(&back.to_frame()[..], &frame[..]);
        assert_truncation_clean::<Qc<SimScheme>>(&frame, "Qc");
        assert_trailing_rejected(&qc, "Qc");

        let frame = agg.to_frame();
        prop_assert_eq!(SimAggregate::from_frame(frame.clone()).expect("agg round-trip"), agg.clone());
        assert_truncation_clean::<SimAggregate>(&frame, "SimAggregate");
        assert_trailing_rejected(&agg, "SimAggregate");

        let m = s.multiplicities(&agg).clone();
        let frame = m.to_frame();
        prop_assert_eq!(Multiplicities::from_frame(frame.clone()).expect("mults round-trip"), m.clone());
        assert_truncation_clean::<Multiplicities>(&frame, "Multiplicities");
        assert_trailing_rejected(&m, "Multiplicities");
    }

    #[test]
    fn random_bytes_never_panic_any_codec(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Fuzz every decoder with arbitrary bytes: errors are fine (and
        // expected), panics are the bug. A rare random buffer may decode
        // as some type — that is not a defect, only UB/panics would be.
        let bytes = bytes::Bytes::from(payload);
        let _ = InivaMsg::<SimScheme>::from_frame(bytes.clone());
        let _ = Qc::<SimScheme>::from_frame(bytes.clone());
        let _ = SimAggregate::from_frame(bytes.clone());
        let _ = Multiplicities::from_frame(bytes.clone());
        let _ = InivaMsg::<BlsScheme>::from_frame(bytes.clone());
        let _ = Qc::<BlsScheme>::from_frame(bytes.clone());
        let _ = BlsAggregate::from_frame(bytes.clone());
        let _ = ClientMsg::from_frame(bytes);
    }

    /// Every `ClientMsg` variant round-trips canonically and rejects
    /// truncation and trailing bytes — clients are fully untrusted, so
    /// this codec is the first line the transport holds against them.
    #[test]
    fn client_msg_roundtrips_and_survives_mutation(
        fee in any::<u64>(),
        nonce in any::<u64>(),
        height in any::<u64>(),
        committed in any::<bool>(),
        status in 0u8..3,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        variant in 0u8..6,
    ) {
        let msg = match variant {
            0 => ClientMsg::Submit {
                fee,
                nonce,
                payload: bytes::Bytes::from(payload),
            },
            1 => ClientMsg::SubmitAck {
                nonce,
                status: match status {
                    0 => SubmitStatus::Accepted,
                    1 => SubmitStatus::Busy,
                    _ => SubmitStatus::Duplicate,
                },
            },
            2 => ClientMsg::Query { height },
            3 => ClientMsg::QueryResponse {
                height,
                committed_height: nonce,
                committed,
            },
            4 => ClientMsg::Follow,
            _ => ClientMsg::Committed { nonce, height },
        };
        let frame = msg.to_frame();
        let back = ClientMsg::from_frame(frame.clone()).expect("round-trip");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(&back.to_frame()[..], &frame[..], "canonical re-encoding");
        assert_truncation_clean::<ClientMsg>(&frame, "ClientMsg");
        assert_trailing_rejected(&msg, "ClientMsg");
    }

    /// Any single bit flipped in a `ClientMsg` frame either fails to
    /// decode cleanly or decodes to a message that re-encodes to exactly
    /// the mutated bytes — i.e. the codec stays canonical and total under
    /// mutation, so a hostile client can never wedge the decoder or craft
    /// two byte forms of one message.
    #[test]
    fn client_msg_bit_flips_decode_cleanly(
        nonce in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        byte_seed in any::<u16>(),
        bit in 0u8..8,
    ) {
        let msg = ClientMsg::Submit {
            fee: 7,
            nonce,
            payload: bytes::Bytes::from(payload),
        };
        let frame = msg.to_frame();
        let mut mutated = frame.to_vec();
        let idx = byte_seed as usize % mutated.len();
        mutated[idx] ^= 1 << bit;
        let mutated = bytes::Bytes::from(mutated);
        match ClientMsg::from_frame(mutated.clone()) {
            Err(_) => {} // clean rejection: bad tag, bad length, overrun
            Ok(back) => prop_assert_eq!(
                &back.to_frame()[..],
                &mutated[..],
                "bit {} of byte {} produced a non-canonical decode",
                bit,
                idx
            ),
        }
    }

    /// Submit payloads over [`MAX_CLIENT_PAYLOAD`] are rejected at decode
    /// no matter how much the hostile length prefix claims — before any
    /// allocation proportional to the claim.
    #[test]
    fn client_msg_oversized_payload_rejected(
        claim in (MAX_CLIENT_PAYLOAD as u32 + 1)..u32::MAX,
    ) {
        let mut enc = Encoder::new();
        enc.put_u8(0).put_u64(1).put_u64(2).put_u32(claim);
        prop_assert!(matches!(
            ClientMsg::from_frame(enc.finish()),
            Err(DecodeError::Malformed { .. })
        ));
    }

    /// The incremental frame parser must be feed-order independent: a
    /// stream of frames delivered in arbitrary-sized chunks (with the
    /// partial tail carried between feeds, as the reactor's read path
    /// does) yields exactly the frames a single whole-buffer parse
    /// yields — same seqs, same bodies, same order, nothing left over.
    #[test]
    fn frame_parser_incremental_feed_equals_whole_buffer(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        seqs in proptest::collection::vec(any::<u64>(), 6..7),
        chunk in 1usize..17,
    ) {
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(seqs[i], body));
            expect.push((seqs[i], body.clone()));
        }

        let (whole, tail) = parse_stream(&stream).expect("valid stream");
        prop_assert_eq!(tail, stream.len(), "whole parse left bytes behind");
        prop_assert_eq!(&whole, &expect);

        // Chunked feed: `chunk` bytes at a time, partial tail carried.
        let mut pending: Vec<u8> = Vec::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            pending.extend_from_slice(piece);
            let (frames, consumed) = parse_stream(&pending).expect("valid prefix");
            got.extend(frames);
            pending.drain(..consumed);
        }
        prop_assert!(pending.is_empty(), "bytes stuck in the carry buffer");
        prop_assert_eq!(got, expect);
    }

    /// Every strict prefix of a valid frame parses `Incomplete` — the
    /// parser never misreads a split boundary as corruption or as a
    /// shorter frame.
    #[test]
    fn frame_parser_all_split_boundaries_incomplete(
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let framed = encode_frame(seq, &body);
        prop_assert_eq!(frame::encode(seq, &body).as_ref(), Some(&framed));
        for cut in 0..framed.len() {
            prop_assert!(
                matches!(frame::parse_frame(&framed[..cut]), Ok(FrameParse::Incomplete)),
                "prefix of {cut}/{} bytes did not parse Incomplete",
                framed.len()
            );
        }
        match frame::parse_frame(&framed).expect("complete frame") {
            FrameParse::Complete { consumed, seq: got, body: range } => {
                prop_assert_eq!(consumed, framed.len());
                prop_assert_eq!(got, seq);
                prop_assert_eq!(&framed[range], &body[..]);
            }
            FrameParse::Incomplete => prop_assert!(false, "full frame parsed Incomplete"),
        }
    }

    /// A hostile length prefix (under the 8-byte seq floor or over
    /// [`MAX_FRAME_BYTES`]) is rejected the moment the 4 length bytes are
    /// buffered — before the claimed bytes arrive, so a 4 GiB claim never
    /// causes a 4 GiB buffer. In-range claims with missing bytes are
    /// `Incomplete`, never an error and never an over-read.
    #[test]
    fn frame_parser_hostile_lengths_rejected_without_overread(
        claim in any::<u32>(),
        seq in any::<u64>(),
    ) {
        let mut buf = claim.to_le_bytes().to_vec();
        if !(8..=MAX_FRAME_BYTES).contains(&claim) {
            prop_assert!(frame::parse_frame(&buf).is_err(), "length {claim} accepted");
            buf.extend_from_slice(&seq.to_le_bytes());
            prop_assert!(frame::parse_frame(&buf).is_err(), "length {claim} accepted with seq");
        } else {
            prop_assert!(
                matches!(frame::parse_frame(&buf).unwrap(), FrameParse::Incomplete),
                "in-range length {claim} with missing body must be Incomplete"
            );
        }
    }

    /// The handshake parser across every split boundary: strict prefixes
    /// are `None` (wait for more), the full 13 bytes decode the node and
    /// epoch, trailing frame bytes are untouched, and corruption in any
    /// of the magic/version bytes is rejected only once 13 bytes are
    /// buffered (never a false positive on a partial read).
    #[test]
    fn handshake_parser_incremental_feed(
        node in any::<u32>(),
        epoch in any::<u32>(),
        trailer in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let hs = frame::handshake_bytes(node, epoch);
        for cut in 0..hs.len() {
            prop_assert!(
                matches!(frame::parse_handshake(&hs[..cut]), Ok(None)),
                "handshake prefix of {cut} bytes did not wait for more"
            );
        }
        let (consumed, got_node, got_epoch) =
            frame::parse_handshake(&hs).unwrap().expect("complete handshake");
        prop_assert_eq!((consumed, got_node, got_epoch), (HANDSHAKE_BYTES, node, epoch));

        // Bytes after the handshake (the first frames) are not consumed.
        let mut buf = hs.to_vec();
        buf.extend_from_slice(&trailer);
        let (consumed, ..) = frame::parse_handshake(&buf).unwrap().expect("complete");
        prop_assert_eq!(consumed, HANDSHAKE_BYTES);

        // Corrupt magic or version: clean rejection at 13 bytes.
        for idx in 0..5 {
            let mut bad = hs;
            bad[idx] ^= 0x01;
            prop_assert!(
                matches!(frame::parse_handshake(&bad[..hs.len() - 1]), Ok(None)),
                "corruption at byte {idx} rejected before the handshake completed"
            );
            prop_assert!(
                frame::parse_handshake(&bad).is_err(),
                "corrupt byte {idx} accepted"
            );
        }
    }
}

// Real pairing crypto makes each case orders of magnitude costlier than
// the sim-scheme cases above; a handful of cases still covers the codec
// paths (the *crypto* is covered by iniva-crypto's own tests).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bls_aggregate_and_qc_roundtrip(
        blk in (any::<u64>(), any::<u64>(), any::<u8>(), any::<u32>(), any::<u64>(), any::<u32>()),
        signers in proptest::collection::vec(any::<u32>(), 1..5),
        mults in proptest::collection::vec(any::<u64>(), 5..6),
    ) {
        let s = bls_scheme();
        let b = arb_block(blk);
        let mults5: Vec<u64> = mults.iter().cycle().take(signers.len()).copied().collect();
        let agg = arb_bls_aggregate(s, &signers, &mults5);

        let frame = agg.to_frame();
        let back = BlsAggregate::from_frame(frame.clone()).expect("agg round-trip");
        prop_assert_eq!(&back.to_frame()[..], &frame[..], "canonical re-encoding");
        prop_assert_eq!(&back, &agg);
        assert_truncation_clean::<BlsAggregate>(&frame, "BlsAggregate");
        assert_trailing_rejected(&agg, "BlsAggregate");

        let qc: Qc<BlsScheme> = Qc {
            block_hash: b.hash(),
            view: b.view,
            height: b.height,
            agg: agg.clone(),
        };
        let frame = qc.to_frame();
        let back = Qc::<BlsScheme>::from_frame(frame.clone()).expect("Qc round-trip");
        prop_assert_eq!(&back.to_frame()[..], &frame[..]);
        assert_truncation_clean::<Qc<BlsScheme>>(&frame, "Qc<BlsScheme>");
        assert_trailing_rejected(&qc, "Qc<BlsScheme>");

        let msg: InivaMsg<BlsScheme> = InivaMsg::Proposal { block: b.clone(), qc: Some(qc) };
        let frame = msg.to_frame();
        let back = InivaMsg::<BlsScheme>::from_frame(frame.clone()).expect("msg round-trip");
        prop_assert_eq!(&back.to_frame()[..], &frame[..]);
        assert_truncation_clean::<InivaMsg<BlsScheme>>(&frame, "InivaMsg<BlsScheme>");
        assert_trailing_rejected(&msg, "InivaMsg<BlsScheme>");
    }

    /// Any single bit flipped anywhere in a BLS signature frame must
    /// either fail to decode (off-curve / non-subgroup / non-canonical)
    /// or decode to an aggregate that no longer verifies — a frame-level
    /// integrity property real pairing crypto provides and the sim scheme
    /// only models.
    #[test]
    fn bls_frame_bit_flips_never_verify(
        byte_seed in any::<u16>(),
        bit in 0u8..8,
    ) {
        let s = bls_scheme();
        let msg = b"bit-flip";
        let agg = s.combine(&s.sign(1, msg), &s.scale(&s.sign(4, msg), 2));
        prop_assert!(s.verify(msg, &agg));
        let frame = agg.to_frame();
        let mut bytes = frame.to_vec();
        let idx = byte_seed as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        match BlsAggregate::from_frame(bytes::Bytes::from(bytes)) {
            Err(_) => {} // clean rejection: off-curve, bad flags, bad mults
            Ok(mutated) => prop_assert!(
                !s.verify(msg, &mutated),
                "bit {bit} of byte {idx} flipped yet the aggregate still verifies"
            ),
        }
    }
}

/// Off-curve and non-subgroup compressed points must be rejected at
/// *decode* time — before a hostile point can reach pairing code.
#[test]
fn bls_rejects_off_curve_and_non_subgroup_points() {
    use iniva_crypto::g1;

    let s = bls_scheme();
    let agg = s.sign(0, b"m");
    let valid = agg.to_frame();

    // x with no curve solution: scan deterministically from the valid
    // point's x until x^3 + 4 is a non-residue, splice it into the frame.
    let mut probe = valid.to_vec();
    loop {
        // Walk the low byte of x (big-endian: byte 47).
        probe[47] = probe[47].wrapping_add(1);
        let mut arr = [0u8; 48];
        arr.copy_from_slice(&probe[..48]);
        if g1::deserialize_compressed(&arr).is_none() {
            break;
        }
    }
    assert!(matches!(
        BlsAggregate::from_frame(bytes::Bytes::from(probe)),
        Err(DecodeError::Malformed { .. })
    ));

    // A non-subgroup curve point: g1's own decoder rejects it, and so
    // must the aggregate decoder wrapping it. (Constructed exactly as in
    // iniva-crypto's g1 tests: perturb x until on-curve but r·P ≠ ∞.)
    let bad_point_bytes = non_subgroup_g1_compressed();
    let mut frame = bad_point_bytes.to_vec();
    frame.extend_from_slice(&valid[48..]); // reuse the valid mults tail
    assert!(matches!(
        BlsAggregate::from_frame(bytes::Bytes::from(frame)),
        Err(DecodeError::Malformed { .. })
    ));

    // Clearing the compressed flag is non-canonical even with intact x.
    let mut frame = valid.to_vec();
    frame[0] &= 0x7f;
    assert!(BlsAggregate::from_frame(bytes::Bytes::from(frame)).is_err());
}

/// A compressed encoding of a curve point outside the order-r subgroup.
fn non_subgroup_g1_compressed() -> [u8; 48] {
    use iniva_crypto::fields::Fp;
    use iniva_crypto::g1;
    let four = Fp::from_u64(4);
    let mut x = Fp::from_u64(1);
    loop {
        let rhs = x.square().mul(&x).add(&four);
        if rhs.sqrt().is_some() {
            let mut bytes = [0u8; 48];
            bytes.copy_from_slice(&x.to_be_bytes());
            bytes[0] |= 0x80;
            // Some sign choice of a y-solution exists; whichever sign, the
            // point is on the curve. If it happens to be in the subgroup,
            // keep scanning.
            if g1::deserialize_compressed(&bytes).is_none() {
                return bytes;
            }
            let mut flipped = bytes;
            flipped[0] |= 0x20;
            if g1::deserialize_compressed(&flipped).is_none() {
                return flipped;
            }
        }
        x = x.add(&Fp::from_u64(1));
    }
}

/// An oversized length prefix (a `Multiplicities` entry count or byte
/// string claiming more than the buffer holds) must error cleanly instead
/// of allocating or panicking — the attack a malicious peer would mount
/// against a length-prefixed decoder.
#[test]
fn oversized_length_prefixes_rejected() {
    // Multiplicities claiming u32::MAX entries with a 1-byte body.
    let mut enc = Encoder::new();
    enc.put_u32(u32::MAX).put_u8(1);
    assert!(Multiplicities::from_frame(enc.finish()).is_err());

    // A Block's implicit fixed-width fields truncated to nothing.
    assert!(Block::from_frame(bytes::Bytes::new()).is_err());

    // An InivaMsg::Signature whose aggregate multiplicity table claims
    // far more entries than the frame carries.
    let mut enc = Encoder::new();
    enc.put_u8(1).put_u64(3); // Signature, view 3
    enc.put_u128(1).put_u128(2); // tag lanes
    enc.put_u32(1_000_000); // 1M claimed (signer, count) entries
    enc.put_u32(0).put_u64(1); // ... but only one present
    assert!(InivaMsg::<SimScheme>::from_frame(enc.finish()).is_err());
}

/// Non-canonical multiplicity encodings (unsorted, duplicated or
/// zero-count signers) are rejected: aggregates are compared by encoding,
/// so accepting two byte forms of one multiset would break equality.
#[test]
fn non_canonical_multiplicities_rejected() {
    // Unsorted signers.
    let mut enc = Encoder::new();
    enc.put_u32(2);
    enc.put_u32(5).put_u64(1);
    enc.put_u32(3).put_u64(1);
    assert!(Multiplicities::from_frame(enc.finish()).is_err());

    // Duplicate signer.
    let mut enc = Encoder::new();
    enc.put_u32(2);
    enc.put_u32(4).put_u64(1);
    enc.put_u32(4).put_u64(2);
    assert!(Multiplicities::from_frame(enc.finish()).is_err());

    // Zero count.
    let mut enc = Encoder::new();
    enc.put_u32(1);
    enc.put_u32(4).put_u64(0);
    assert!(Multiplicities::from_frame(enc.finish()).is_err());
}

/// A hostile peer sending a multiplicity count near `u64::MAX` must be
/// stopped at decode: before the [`MAX_MULTIPLICITY`] cap, such a count
/// survived into protocol state and made a later `merge`/`scale` combine
/// wrap in release builds (panic in debug). The cap also rides inside
/// full aggregates — the shapes that actually cross the wire.
#[test]
fn overflowing_multiplicity_counts_rejected_at_decode() {
    use iniva_crypto::multisig::MAX_MULTIPLICITY;
    for hostile in [MAX_MULTIPLICITY + 1, u64::MAX / 2, u64::MAX] {
        let mut enc = Encoder::new();
        enc.put_u32(1);
        enc.put_u32(2).put_u64(hostile);
        assert!(
            Multiplicities::from_frame(enc.finish()).is_err(),
            "count {hostile} must be rejected"
        );

        // Embedded in a SimAggregate (the sim transport's wire shape).
        let s = scheme(4);
        let honest = s.sign(2, b"m");
        let mut enc = Encoder::new();
        enc.put_u128(honest.tag.0).put_u128(honest.tag.1);
        enc.put_u32(1);
        enc.put_u32(2).put_u64(hostile);
        assert!(SimAggregate::from_frame(enc.finish()).is_err());

        // Embedded in a BlsAggregate (the real-crypto wire shape).
        let bls = bls_scheme();
        let point = bls.sign(1, b"m").point;
        let mut enc = Encoder::new();
        enc.put_array(&iniva_crypto::g1::serialize_compressed(&point));
        enc.put_u32(1);
        enc.put_u32(1).put_u64(hostile);
        assert!(BlsAggregate::from_frame(enc.finish()).is_err());
    }
    // The cap itself decodes (boundary inclusive).
    let mut enc = Encoder::new();
    enc.put_u32(1);
    enc.put_u32(2).put_u64(MAX_MULTIPLICITY);
    assert_eq!(
        Multiplicities::from_frame(enc.finish()).unwrap().get(2),
        MAX_MULTIPLICITY
    );
}
