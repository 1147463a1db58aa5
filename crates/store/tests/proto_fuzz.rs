//! Robustness fuzzing of the `sla-serve` wire protocol.
//!
//! The contract for hostile wire input: **arbitrary frames never panic** —
//! [`decode_message`] returns a typed [`SnapshotError`] and [`read_message`]
//! a typed [`ProtoError`] — and **every accepted frame is round-trip
//! stable**: re-encoding the decoded message and decoding it again gives the
//! same message.
//!
//! The fuzzer starts from the encoded frames of one message of every kind
//! and applies seeded byte edits (overwrites, insertions, deletions,
//! truncation). Most edits of a sealed frame only break its checksum, so a
//! second mode mutates the body and re-seals it, which drives the decoder
//! itself through mutated tags, counts, strings and options. A third mode
//! mutates the length prefix and the byte stream that `read_message` reads.

use proptest::prelude::*;
use sla_atpg::{AbortReason, AtpgOptions, FaultStatus};
use sla_core::LearnOptions;
use sla_snapshot::codec::Writer;
use sla_store::proto::{
    decode_message, encode_message, read_message, write_message, FaultSpec, Message, ProtoError,
    Request, Summary,
};
use sla_store::CacheOutcome;

/// The frame limit of the protocol (256 MiB).
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Length of the trailing checksum of a sealed frame.
const CHECKSUM_LEN: usize = 8;

/// One message of every kind.
fn base_messages() -> Vec<Message> {
    vec![
        Message::Request(Request {
            name: "s27".to_string(),
            bench: "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n".to_string(),
            faults: vec![
                FaultSpec::Output {
                    node: "a".to_string(),
                    stuck_at: true,
                },
                FaultSpec::Input {
                    gate: "b".to_string(),
                    pin: 0,
                    stuck_at: false,
                },
            ],
            learn: Some(LearnOptions::builder().cross_frame(true).build()),
            atpg: AtpgOptions::builder().backtrack_limit(7).build(),
        }),
        Message::Request(Request {
            name: String::new(),
            bench: String::new(),
            faults: Vec::new(),
            learn: None,
            atpg: AtpgOptions::default(),
        }),
        Message::Verdict {
            index: 3,
            status: FaultStatus::Aborted(AbortReason::Budget),
        },
        Message::Done(Summary {
            total_faults: 10,
            detected: 7,
            untestable: 2,
            aborted: 1,
            backtracks: 100,
            decisions: 2000,
            sequences: 7,
            test_vectors: 31,
            budget_spent: 2100,
            cache: CacheOutcome::Miss,
            learn_work_units: 12,
        }),
        Message::Error("bad request".to_string()),
        Message::Shutdown,
    ]
}

/// Bytes the mutator writes, biased toward values that hit decision points:
/// small tags and booleans, length-field extremes and the magic's letters.
const POOL: &[u8] = &[
    0, 1, 2, 3, 4, 5, 6, 0x7f, 0x80, 0xfe, 0xff, b'S', b'L', b'A', b'F',
];

/// Applies `edits` seeded mutations to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut TestRng, edits: usize) {
    for _ in 0..edits {
        let pick = |rng: &mut TestRng| POOL[(rng.next_u64() as usize) % POOL.len()];
        match rng.next_u64() % 4 {
            0 if !bytes.is_empty() => {
                let idx = (rng.next_u64() as usize) % bytes.len();
                bytes[idx] = pick(rng);
            }
            1 => {
                let idx = (rng.next_u64() as usize) % (bytes.len() + 1);
                let b = pick(rng);
                bytes.insert(idx, b);
            }
            2 if !bytes.is_empty() => {
                let idx = (rng.next_u64() as usize) % bytes.len();
                bytes.remove(idx);
            }
            3 if !bytes.is_empty() => {
                let keep = (rng.next_u64() as usize) % bytes.len();
                bytes.truncate(keep);
            }
            _ => {}
        }
    }
}

/// Re-seals `body` (a frame without its checksum) with a valid checksum.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes_raw(body);
    w.seal()
}

/// Decodes `frame`: an error is the typed rejection this test asks for, and
/// an accepted message must survive encode → decode unchanged.
fn check_decode(frame: &[u8]) {
    if let Ok(msg) = decode_message(frame) {
        let again = decode_message(&encode_message(&msg));
        assert!(again.is_ok(), "re-encoded {msg:?} fails to decode");
        assert_eq!(again.ok(), Some(msg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated sealed frames decode to `Ok` or a typed error, never a
    /// panic.
    #[test]
    fn mutated_frames_never_panic(seed in 0u64..100_000, edits in 1usize..12) {
        let mut rng = TestRng::new(seed);
        let bases = base_messages();
        let base = &bases[(rng.next_u64() as usize) % bases.len()];
        let mut frame = encode_message(base);
        mutate(&mut frame, &mut rng, edits);
        check_decode(&frame);
    }

    /// Mutated bodies under a valid checksum reach the decoder proper:
    /// mutated tags, counts, strings and options must still give `Ok` or a
    /// typed error.
    #[test]
    fn resealed_mutated_bodies_never_panic(seed in 0u64..100_000, edits in 1usize..12) {
        let mut rng = TestRng::new(seed ^ 0x5eed_f00d);
        let bases = base_messages();
        let base = &bases[(rng.next_u64() as usize) % bases.len()];
        let frame = encode_message(base);
        let mut body = frame[..frame.len() - CHECKSUM_LEN].to_vec();
        mutate(&mut body, &mut rng, edits);
        check_decode(&seal(&body));
    }

    /// A byte stream of length-prefixed frames, mutated anywhere (prefix
    /// included), reads as messages, a clean end, or a typed error; a
    /// prefix over the frame limit is always `Oversize`.
    #[test]
    fn mutated_streams_read_as_typed_errors(seed in 0u64..100_000, edits in 0usize..8) {
        let mut rng = TestRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut stream = Vec::new();
        for msg in base_messages() {
            write_message(&mut stream, &msg).expect("write to vec");
        }
        mutate(&mut stream, &mut rng, edits);
        if rng.next_u64().is_multiple_of(4) {
            // Claim an oversize frame in the first prefix.
            let claim = MAX_FRAME + 1 + (rng.next_u64() % 1024) as u32;
            stream.splice(0..4.min(stream.len()), claim.to_le_bytes());
            let mut cursor = stream.as_slice();
            prop_assert!(matches!(
                read_message(&mut cursor),
                Err(ProtoError::Oversize(n)) if n == claim
            ));
        } else {
            read_all(&stream);
        }
    }
}

/// Reads `stream` message by message until a clean end or a stream error;
/// every message read must survive write → read unchanged.
fn read_all(stream: &[u8]) {
    let mut cursor = stream;
    // Every read consumes at least the 4-byte prefix, so this ends.
    loop {
        match read_message(&mut cursor) {
            Ok(Some(msg)) => {
                let mut again = Vec::new();
                write_message(&mut again, &msg).expect("write to vec");
                let back = read_message(&mut again.as_slice());
                assert!(matches!(&back, Ok(Some(m)) if *m == msg));
            }
            Ok(None) => break,
            Err(ProtoError::Io(_) | ProtoError::Oversize(_)) => break,
            // A bad frame is consumed whole; the stream continues.
            Err(ProtoError::Frame(_)) => {}
        }
    }
}

/// Every proper prefix of every valid frame is rejected as a typed error,
/// and every valid frame with one extra byte is too.
#[test]
fn truncated_and_extended_frames_are_typed_errors() {
    for msg in base_messages() {
        let frame = encode_message(&msg);
        for len in 0..frame.len() {
            assert!(
                decode_message(&frame[..len]).is_err(),
                "{msg:?} cut at {len}"
            );
        }
        let mut body = frame[..frame.len() - CHECKSUM_LEN].to_vec();
        body.push(0);
        assert!(
            decode_message(&seal(&body)).is_err(),
            "{msg:?} plus one byte"
        );
        let mut stream = Vec::new();
        write_message(&mut stream, &msg).expect("write to vec");
        for len in 1..stream.len() {
            assert!(
                matches!(read_message(&mut &stream[..len]), Err(ProtoError::Io(_))),
                "{msg:?} stream cut at {len}"
            );
        }
    }
}
