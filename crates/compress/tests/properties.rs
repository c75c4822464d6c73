//! Property-based tests for the compression codecs: error-feedback mass
//! conservation, ternary output domains, and packing round-trips hold for
//! arbitrary gradient streams.

use cdsgd_compress::{
    decompress, decompress_add, pack_1bit, pack_2bit, unpack_1bit, unpack_2bit, AdaptiveTwoBit,
    BufferPool, Compressed, GradientCompressor, NoCompression, OneBitQuantizer, QsgdQuantizer,
    TopKSparsifier, TwoBitQuantizer,
};
use proptest::prelude::*;

fn grads(len: usize, rounds: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-2.0f32..2.0, len..=len), 1..=rounds)
}

fn decode(c: &Compressed) -> Vec<f32> {
    let mut out = vec![0.0; c.len()];
    decompress(c, &mut out);
    out
}

proptest! {
    #[test]
    fn pack2_round_trip(syms in prop::collection::vec(0u8..4, 0..200)) {
        prop_assert_eq!(unpack_2bit(&pack_2bit(&syms), syms.len()), syms);
    }

    #[test]
    fn pack1_round_trip(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        prop_assert_eq!(unpack_1bit(&pack_1bit(&bits), bits.len()), bits);
    }

    #[test]
    fn two_bit_outputs_in_ternary_domain(g in prop::collection::vec(-5.0f32..5.0, 1..64), thr in 0.1f32..2.0) {
        let mut q = TwoBitQuantizer::new(thr);
        for v in decode(&q.compress(0, &g)) {
            prop_assert!(v == 0.0 || (v - thr).abs() < 1e-6 || (v + thr).abs() < 1e-6);
        }
    }

    #[test]
    fn two_bit_mass_conservation(stream in grads(8, 12), thr in 0.2f32..1.0) {
        // sum of decoded transmissions + final residual == sum of gradients,
        // elementwise, over any gradient stream.
        let mut q = TwoBitQuantizer::new(thr);
        let n = 8;
        let mut sent = vec![0.0f32; n];
        let mut total = vec![0.0f32; n];
        for g in &stream {
            for (t, &x) in total.iter_mut().zip(g) { *t += x; }
            for (s, d) in sent.iter_mut().zip(decode(&q.compress(0, g))) { *s += d; }
        }
        let res = q.residuals().get(0).unwrap();
        for i in 0..n {
            prop_assert!((sent[i] + res[i] - total[i]).abs() < 1e-3,
                "slot {}: sent {} + residual {} != total {}", i, sent[i], res[i], total[i]);
        }
    }

    #[test]
    fn two_bit_step_semantics(stream in grads(4, 20), thr in 0.2f32..1.0) {
        // Per-step contract of the MXNet scheme: exactly one quantum of
        // ±thr is removed when |corrected| >= thr (so the residual shrinks
        // by thr toward zero), and the full corrected value is retained
        // when |corrected| < thr. Note the residual is NOT bounded by thr
        // in general — a stream of gradients larger than thr accumulates
        // faster than one quantum/step drains; that unbounded delay is the
        // accuracy problem CD-SGD's k-step correction addresses.
        let mut q = TwoBitQuantizer::new(thr);
        let n = 4;
        let mut prev_res = vec![0.0f32; n];
        for g in &stream {
            let corrected: Vec<f32> = g.iter().zip(&prev_res).map(|(&a, &b)| a + b).collect();
            q.compress(0, g);
            let res = q.residuals().get(0).unwrap().to_vec();
            for i in 0..n {
                let x = corrected[i];
                if x >= thr {
                    prop_assert!((res[i] - (x - thr)).abs() < 1e-4);
                } else if x <= -thr {
                    prop_assert!((res[i] - (x + thr)).abs() < 1e-4);
                } else {
                    prop_assert!((res[i] - x).abs() < 1e-4);
                    prop_assert!(res[i].abs() < thr + 1e-4);
                }
            }
            prev_res = res;
        }
    }

    #[test]
    fn one_bit_mass_conservation(stream in grads(6, 10)) {
        let mut q = OneBitQuantizer::new();
        let n = 6;
        let mut sent = vec![0.0f32; n];
        let mut total = vec![0.0f32; n];
        for g in &stream {
            for (t, &x) in total.iter_mut().zip(g) { *t += x; }
            for (s, d) in sent.iter_mut().zip(decode(&q.compress(0, g))) { *s += d; }
        }
        let res = q.residuals().get(0).unwrap();
        for i in 0..n {
            prop_assert!((sent[i] + res[i] - total[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn topk_mass_conservation(stream in grads(10, 10), ratio in 0.1f64..1.0) {
        let mut s = TopKSparsifier::new(ratio);
        let n = 10;
        let mut sent = vec![0.0f32; n];
        let mut total = vec![0.0f32; n];
        for g in &stream {
            for (t, &x) in total.iter_mut().zip(g) { *t += x; }
            for (sv, d) in sent.iter_mut().zip(decode(&s.compress(0, g))) { *sv += d; }
        }
        let res = s.residuals().get(0).unwrap();
        for i in 0..n {
            prop_assert!((sent[i] + res[i] - total[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn topk_sends_exactly_k(g in prop::collection::vec(-2.0f32..2.0, 1..64), ratio in 0.05f64..1.0) {
        let mut s = TopKSparsifier::new(ratio);
        let k = s.k_for(g.len());
        if let Compressed::TopK { indices, values, .. } = s.compress(0, &g) {
            prop_assert_eq!(indices.len(), k);
            prop_assert_eq!(values.len(), k);
            // Indices strictly increasing (deterministic wire order).
            for w in indices.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        } else {
            prop_assert!(false, "wrong variant");
        }
    }

    #[test]
    fn qsgd_decode_bounded_by_norm(g in prop::collection::vec(-3.0f32..3.0, 1..64), seed in 0u64..100) {
        let mut q = QsgdQuantizer::new(4, seed);
        let norm = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        for v in decode(&q.compress(0, &g)) {
            prop_assert!(v.abs() <= norm * (1.0 + 1e-5) + 1e-6);
        }
    }

    #[test]
    fn compress_into_is_bit_identical_and_recycle_safe(stream in grads(12, 8)) {
        // For every codec: compress_into over payloads recycled between
        // rounds through a pre-dirtied pool produces payloads identical
        // to `compress` (the same encode over fresh storage), and
        // decompress_add over those recycled-buffer payloads matches
        // decompress-then-add bit for bit. This is the "not one ULP"
        // contract the server's buffer reuse relies on.
        let pairs: Vec<(Box<dyn GradientCompressor>, Box<dyn GradientCompressor>)> = vec![
            (Box::new(NoCompression), Box::new(NoCompression)),
            (Box::new(TwoBitQuantizer::new(0.5)), Box::new(TwoBitQuantizer::new(0.5))),
            (Box::new(AdaptiveTwoBit::new(1.0)), Box::new(AdaptiveTwoBit::new(1.0))),
            (Box::new(OneBitQuantizer::new()), Box::new(OneBitQuantizer::new())),
            (Box::new(QsgdQuantizer::new(4, 7)), Box::new(QsgdQuantizer::new(4, 7))),
            (Box::new(TopKSparsifier::new(0.3)), Box::new(TopKSparsifier::new(0.3))),
            (
                Box::new(TopKSparsifier::new(0.3).with_momentum(0.9)),
                Box::new(TopKSparsifier::new(0.3).with_momentum(0.9)),
            ),
        ];
        for (mut plain, mut pooled) in pairs {
            let pool = BufferPool::new();
            // Dirty the free lists so compress_into must fully overwrite
            // whatever storage it is handed.
            pool.put_f32(vec![13.37; 5]);
            pool.put_bytes(vec![0xAB; 37]);
            pool.put_i8(vec![-77; 11]);
            pool.put_u32(vec![u32::MAX; 3]);
            let n = 12;
            let mut acc_ref = vec![0.25f32; n];
            let mut acc_pooled = acc_ref.clone();
            for g in &stream {
                let a = plain.compress(0, g);
                let b = pooled.compress_into(0, g, &pool);
                prop_assert_eq!(&a, &b, "codec {}", plain.name());
                let mut tmp = vec![0.0f32; n];
                decompress(&a, &mut tmp);
                for (acc, t) in acc_ref.iter_mut().zip(&tmp) { *acc += t; }
                decompress_add(&b, &mut acc_pooled);
                b.recycle(&pool);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&acc_ref), bits(&acc_pooled), "codec {}", plain.name());
        }
    }

    #[test]
    fn wire_bytes_match_payload(g in prop::collection::vec(-2.0f32..2.0, 1..256)) {
        // Each codec's advertised wire_bytes(n) equals the actual payload's
        // wire_bytes() (residual state does not change the wire size).
        let n = g.len();
        let mut two = TwoBitQuantizer::new(0.5);
        prop_assert_eq!(two.compress(0, &g).wire_bytes(), two.wire_bytes(n));
        let mut one = OneBitQuantizer::new();
        prop_assert_eq!(one.compress(0, &g).wire_bytes(), one.wire_bytes(n));
        let mut qs = QsgdQuantizer::new(4, 0);
        prop_assert_eq!(qs.compress(0, &g).wire_bytes(), qs.wire_bytes(n));
        let mut tk = TopKSparsifier::new(0.25);
        prop_assert_eq!(tk.compress(0, &g).wire_bytes(), tk.wire_bytes(n));
    }
}
