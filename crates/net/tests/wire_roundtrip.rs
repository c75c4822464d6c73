//! Property tests for the wire codec: `decode(encode(c)) == c` for every
//! [`Compressed`] variant (including empty and 1-element payloads), and
//! `encode(c).len() == c.wire_bytes()` so the traffic counters account
//! exactly the bytes that cross a transport.

use cdsgd_compress::{pack_1bit, pack_2bit, BufferPool, Compressed};
use cdsgd_net::wire::{
    decode_compressed, decode_head, decode_msg, decode_msg_pooled, encode_compressed_into,
    encode_compressed_parts, encode_msg_into, encode_push_parts, pull_reply_frame_bytes,
    push_frame_bytes, FrameHead, WireMsg, FRAME_PREFIX_BYTES,
};
use proptest::prelude::*;

/// Encode, check the size invariant, decode, check equality.
fn assert_round_trip(c: &Compressed) {
    let mut buf = Vec::new();
    encode_compressed_into(c, &mut buf);
    assert_eq!(
        buf.len(),
        c.wire_bytes(),
        "encoded length must equal wire_bytes for {c:?}"
    );
    assert_eq!(&decode_compressed(&buf).unwrap(), c, "round trip of {c:?}");
    // The two-part encoding is the same byte string, split.
    let mut head = Vec::new();
    let tail = encode_compressed_parts(c, &mut head);
    head.extend_from_slice(tail);
    assert_eq!(head, buf, "head ++ tail of {c:?}");
}

proptest! {
    #[test]
    fn raw_round_trips(v in prop::collection::vec(-10.0f32..10.0, 0..48)) {
        assert_round_trip(&Compressed::Raw(v));
    }

    #[test]
    fn two_bit_round_trips(syms in prop::collection::vec(0u8..3, 0..130), thr in 0.01f32..4.0) {
        let c = Compressed::TwoBit {
            threshold: thr,
            packed: pack_2bit(&syms),
            len: syms.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn one_bit_round_trips(bits in prop::collection::vec(any::<bool>(), 0..130), scale in 0.01f32..4.0) {
        let c = Compressed::OneBit {
            scale,
            signs: pack_1bit(&bits),
            len: bits.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn qsgd_round_trips(raw in prop::collection::vec(any::<u8>(), 0..90), levels in 1u8..120, norm in 0.01f32..8.0) {
        // Derive codes in [-levels, levels] from arbitrary bytes.
        let span = 2 * levels as i32 + 1;
        let codes: Vec<i8> = raw
            .iter()
            .map(|&b| (b as i32 % span - levels as i32) as i8)
            .collect();
        let c = Compressed::Qsgd {
            norm,
            levels,
            codes,
            len: raw.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn qsgd_wide_levels_round_trip(raw in prop::collection::vec(any::<i8>(), 0..64), levels in 128u8..=255) {
        // For levels >= 128 every i8 is a legal code; symbols need 9 bits
        // and straddle byte boundaries.
        let c = Compressed::Qsgd {
            norm: 1.0,
            levels,
            codes: raw.clone(),
            len: raw.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn topk_round_trips(values in prop::collection::vec(-4.0f32..4.0, 0..40), idx_raw in prop::collection::vec(any::<u32>(), 0..40), extra in 1usize..16) {
        // Strictly ascending indices, as `TopKSparsifier` emits them and
        // the decoder requires.
        let k = values.len().min(idx_raw.len());
        let len = k + extra;
        let mut indices: Vec<u32> = idx_raw[..k].iter().map(|&r| r % len as u32).collect();
        indices.sort_unstable();
        indices.dedup();
        let c = Compressed::TopK {
            values: values[..indices.len()].to_vec(),
            indices,
            len,
        };
        assert_round_trip(&c);
    }

    #[test]
    fn push_frames_round_trip_with_exact_sizes(v in prop::collection::vec(-2.0f32..2.0, 0..32), worker in 0u32..64, key in 0u32..64) {
        let payload = Compressed::Raw(v);
        let msg = WireMsg::Push { worker, key, payload: payload.clone() };
        let mut buf = Vec::new();
        encode_msg_into(&msg, &mut buf);
        prop_assert_eq!(
            buf.len() + FRAME_PREFIX_BYTES,
            push_frame_bytes(payload.wire_bytes())
        );
        prop_assert_eq!(decode_msg(&buf).unwrap(), msg.clone());
        let mut head = Vec::new();
        let tail = encode_push_parts(worker, key, &payload, &mut head);
        head.extend_from_slice(tail);
        prop_assert_eq!(&head, &buf);
        // Decoding into pooled storage gives the same message and uses
        // the buffer the pool was holding.
        let pool = BufferPool::new();
        pool.put_f32(Vec::with_capacity(64));
        prop_assert_eq!(decode_msg_pooled(&buf, &pool).unwrap(), msg);
        prop_assert_eq!((pool.hits(), pool.misses()), (1, 0));
        // What a landing reads first: the head the bulk completes.
        let (head, bulk) = buf.split_at(FrameHead::BYTES);
        let len = payload.len();
        prop_assert_eq!(decode_head(head, bulk.len()), Ok(FrameHead::Push { worker, key, len, raw: true }));
    }

    #[test]
    fn pull_reply_frames_round_trip_with_exact_sizes(w in prop::collection::vec(-2.0f32..2.0, 0..32), key in 0u32..64, version in 0u64..1000) {
        let msg = WireMsg::PullReply { key, min_version: version, weights: w.clone().into() };
        let mut buf = Vec::new();
        encode_msg_into(&msg, &mut buf);
        prop_assert_eq!(buf.len() + FRAME_PREFIX_BYTES, pull_reply_frame_bytes(w.len()));
        prop_assert_eq!(decode_msg(&buf).unwrap(), msg);
        let (head, bulk) = buf.split_at(FrameHead::BYTES);
        let len = w.len();
        prop_assert_eq!(decode_head(head, bulk.len()), Ok(FrameHead::PullReply { key, min_version: version, len }));
    }
}

#[test]
fn one_element_payloads_round_trip() {
    assert_round_trip(&Compressed::Raw(vec![3.25]));
    assert_round_trip(&Compressed::TwoBit {
        threshold: 0.5,
        packed: pack_2bit(&[2]),
        len: 1,
    });
    assert_round_trip(&Compressed::OneBit {
        scale: 1.0,
        signs: pack_1bit(&[true]),
        len: 1,
    });
    assert_round_trip(&Compressed::Qsgd {
        norm: 1.0,
        levels: 4,
        codes: vec![-4],
        len: 1,
    });
    assert_round_trip(&Compressed::TopK {
        indices: vec![0],
        values: vec![-1.5],
        len: 1,
    });
}

#[test]
fn top_k_indices_that_do_not_ascend_strictly_are_a_decode_error() {
    // A descending pair and a repeated index: both encode, neither
    // decodes — the server's block pass walks the pairs in index order.
    for indices in [vec![3, 0], vec![2, 2]] {
        let c = Compressed::TopK {
            indices,
            values: vec![1.0, -1.0],
            len: 5,
        };
        let mut buf = Vec::new();
        encode_compressed_into(&c, &mut buf);
        assert!(
            matches!(decode_compressed(&buf), Err(cdsgd_net::NetError::Decode(_))),
            "{c:?} decoded"
        );
    }
}

#[test]
fn reserved_tag_3_is_a_decode_error() {
    // Tag 3 belonged to a retired codec. A well-formed payload of that
    // shape (header, scalar, packed symbols) must be refused, not
    // reinterpreted as one of the live 2-bit variants.
    let mut buf = Vec::new();
    buf.extend_from_slice(&((3u32 << 29) | 4).to_le_bytes());
    buf.extend_from_slice(&1.0f32.to_le_bytes());
    buf.push(0b01_10_00_01);
    assert!(matches!(
        decode_compressed(&buf),
        Err(cdsgd_net::NetError::Decode(_))
    ));
}

#[test]
fn reserved_collective_phases_4_and_5_are_a_decode_error() {
    // Phases 4 and 5 belonged to a retired tree all-reduce. A well-formed
    // f32 frame in either must be refused, while the same frame in a live
    // chunk phase decodes.
    use cdsgd_net::wire::{decode_collective, encode_collective_into, COLLECTIVE_GATHER};
    for phase in [COLLECTIVE_GATHER, 4, 5] {
        let mut buf = Vec::new();
        encode_collective_into(phase, 0, &[1.0, -2.0, 0.5], &mut buf);
        let decoded = decode_collective(&buf);
        if phase == COLLECTIVE_GATHER {
            assert_eq!(decoded.map(|f| f.len()).ok(), Some(3));
        } else {
            assert!(
                matches!(decoded, Err(cdsgd_net::NetError::Decode(_))),
                "phase {phase} decoded"
            );
        }
    }
}

#[test]
fn each_answered_request_has_one_reply_kind_and_the_rest_none() {
    use cdsgd_net::wire::{answered, answers};
    use std::sync::Arc;
    let weights: Arc<[f32]> = Arc::from(vec![1.0f32; 2]);
    // One message of every kind: whether a shard answers it, and how
    // many kinds in this table answer it as a request.
    let table = [
        (
            WireMsg::Push {
                worker: 1,
                key: 3,
                payload: Compressed::Raw(vec![1.0]),
            },
            false,
            0,
        ),
        (
            WireMsg::Pull {
                key: 3,
                min_version: 5,
            },
            true,
            1,
        ),
        (
            WireMsg::PullReply {
                key: 3,
                min_version: 5,
                weights: Arc::clone(&weights),
            },
            true,
            0,
        ),
        (WireMsg::SetLr { lr: 0.5 }, false, 0),
        (WireMsg::Snapshot, true, 1),
        (
            WireMsg::SnapshotReply {
                weights: vec![vec![1.0]],
                versions: vec![2],
            },
            true,
            0,
        ),
        (WireMsg::Shutdown, false, 0),
        (WireMsg::Register { worker: 1 }, true, 1),
        (WireMsg::RegisterAck { versions: vec![2] }, true, 0),
        (WireMsg::Heartbeat { worker: 1 }, false, 0),
        (WireMsg::Leave { worker: 1 }, false, 0),
        (WireMsg::CancelJoin { worker: 1 }, false, 0),
        (WireMsg::Checkpoint, true, 1),
        (WireMsg::CheckpointAck { round: Some(2) }, true, 0),
    ];
    let kinds: std::collections::HashSet<_> = table
        .iter()
        .map(|(m, ..)| std::mem::discriminant(m))
        .collect();
    assert_eq!(kinds.len(), table.len(), "one row per kind");
    for (request, is_answered, replies) in &table {
        assert_eq!(answered(request), *is_answered, "{request:?}");
        let n = table
            .iter()
            .filter(|(reply, ..)| answers(request, reply))
            .count();
        assert_eq!(n, *replies, "reply kinds answering {request:?}");
    }
    // Of the answered kinds, exactly the four requests expect a reply;
    // the six fire-and-forget kinds expect none.
    assert_eq!(table.iter().filter(|(_, _, r)| *r == 1).count(), 4);
    assert_eq!(table.iter().filter(|(_, a, _)| !a).count(), 6);
    // A pull reply for another key or version answers nothing.
    let pull = WireMsg::Pull {
        key: 3,
        min_version: 5,
    };
    for (key, min_version) in [(4, 5), (3, 4), (3, 6)] {
        let weights = Arc::clone(&weights);
        let reply = WireMsg::PullReply {
            key,
            min_version,
            weights,
        };
        assert!(!answers(&pull, &reply), "{reply:?} answered {pull:?}");
    }
}
