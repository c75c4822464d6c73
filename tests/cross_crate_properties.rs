//! Property-based integration tests spanning crates: the parameter
//! server, the compression codecs and the training stack must agree on
//! invariants for arbitrary inputs.

use cdsgd_compress::{Compressed, GradientCompressor, TwoBitQuantizer};
use cdsgd_net::wire::{pull_reply_frame_bytes, push_frame_bytes};
use cdsgd_ps::{ParamClient, ParamServer, ServerConfig};
use proptest::prelude::*;

proptest! {
    // Proptest spawns threads per case; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn server_applies_eq10_for_any_gradients(
        grads in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 4..=4), 1..4),
        lr in 0.01f32..1.0,
    ) {
        // Push each round's gradient from one worker; final weights must
        // equal -lr * sum(grads) elementwise.
        let ps = ParamServer::start(vec![vec![0.0; 4]], ServerConfig::new(1, lr));
        let c = ps.client();
        for (r, g) in grads.iter().enumerate() {
            c.push(0, 0, Compressed::Raw(g.clone())).unwrap();
            c.pull(0, r as u64 + 1).unwrap();
        }
        let (w, versions) = c.snapshot().unwrap();
        prop_assert_eq!(versions[0], grads.len() as u64);
        for i in 0..4 {
            let expect: f32 = -lr * grads.iter().map(|g| g[i]).sum::<f32>();
            prop_assert!((w[0][i] - expect).abs() < 1e-4 * (1.0 + expect.abs()));
        }
        ps.shutdown();
    }

    #[test]
    fn aggregation_is_worker_order_invariant(
        ga in prop::collection::vec(-2.0f32..2.0, 3..=3),
        gb in prop::collection::vec(-2.0f32..2.0, 3..=3),
    ) {
        // Whether worker 0 or worker 1 pushes first must not matter.
        let run = |first_a: bool| {
            let ps = ParamServer::start(vec![vec![0.0; 3]], ServerConfig::new(2, 0.5));
            let c = ps.client();
            if first_a {
                c.push(0, 0, Compressed::Raw(ga.clone())).unwrap();
                c.push(1, 0, Compressed::Raw(gb.clone())).unwrap();
            } else {
                c.push(1, 0, Compressed::Raw(gb.clone())).unwrap();
                c.push(0, 0, Compressed::Raw(ga.clone())).unwrap();
            }
            let w = c.pull(0, 1).unwrap();
            ps.shutdown();
            w
        };
        prop_assert_eq!(run(true), run(false));
    }

    #[test]
    fn compressed_push_equals_decode_then_raw_push(
        g in prop::collection::vec(-2.0f32..2.0, 6..=6),
        thr in 0.1f32..1.0,
    ) {
        // Pushing a 2-bit payload must move the weights exactly as much
        // as pushing its decoded f32 values raw.
        let mut q = TwoBitQuantizer::new(thr);
        let payload = q.compress(0, &g);
        let mut decoded = vec![0.0f32; g.len()];
        cdsgd_compress::decompress(&payload, &mut decoded);

        let ps1 = ParamServer::start(vec![vec![0.0; 6]], ServerConfig::new(1, 0.3));
        let c1 = ps1.client();
        c1.push(0, 0, payload).unwrap();
        let w_compressed = c1.pull(0, 1).unwrap();
        ps1.shutdown();

        let ps2 = ParamServer::start(vec![vec![0.0; 6]], ServerConfig::new(1, 0.3));
        let c2 = ps2.client();
        c2.push(0, 0, Compressed::Raw(decoded)).unwrap();
        let w_raw = c2.pull(0, 1).unwrap();
        ps2.shutdown();

        prop_assert_eq!(w_compressed, w_raw);
    }

    #[test]
    fn traffic_counter_matches_payload_sizes(
        n in 1usize..64,
        rounds in 1usize..4,
    ) {
        // The server charges the exact encoded frame size (the bytes
        // `cdsgd-net` would put on a socket), not the bare payload.
        let ps = ParamServer::start(vec![vec![0.0; n]], ServerConfig::new(1, 0.1));
        let c = ps.client();
        let mut q = TwoBitQuantizer::new(0.5);
        let grad = vec![0.7f32; n];
        let mut expected = 0u64;
        for r in 0..rounds {
            let payload = q.compress(0, &grad);
            expected += push_frame_bytes(payload.wire_bytes()) as u64;
            c.push(0, 0, payload).unwrap();
            c.pull(0, r as u64 + 1).unwrap();
        }
        prop_assert_eq!(ps.stats().bytes_pushed(), expected);
        prop_assert_eq!(
            ps.stats().bytes_pulled(),
            (rounds * pull_reply_frame_bytes(n)) as u64
        );
        ps.shutdown();
    }
}
