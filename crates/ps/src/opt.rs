//! Server-side optimizer layer: how one aggregate round turns the summed
//! gradient into the next weight snapshot.
//!
//! The paper's update rule (eq. 10) is plain SGD — `W ← W − η/N · Σg` —
//! and every reproduction experiment uses [`PlainSgd`]. [`HeavyBall`] and
//! [`Nesterov`] are extension optimizers for the benchmark harness; they
//! plug in behind the same trait so adding another server-side rule never
//! touches the aggregation loop.
//!
//! The shard runs a round as one pass over its key, block by block: each
//! block's gradient is summed into a small stack buffer and handed to
//! [`ServerOpt::apply_block`] with the block's offset, so the summed
//! gradient never exists key-sized. Per-element state (a velocity) is
//! indexed by that offset.

use crate::spares::zeroed_snapshot;
use cdsgd_tensor::kernel;
use std::sync::Arc;

/// The per-key server update rule. One instance per key (state such as a
/// momentum buffer is key-local), driven once per completed aggregate
/// round by the server loop.
pub trait ServerOpt: Send {
    /// Build elements `at..at + next.len()` of the next weights into
    /// `next` — every element is written, none is read — from the same
    /// elements of the current weights (`weights`) and of the aggregated
    /// (summed, not averaged) gradient (`acc`). `step` is the effective
    /// rate `η / N`, so plain SGD is `w − step · g`. A round hands in each
    /// block of its key once; the server builds into a snapshot nobody
    /// else holds, so outstanding pulls keep their old version.
    fn apply_block(&mut self, at: usize, next: &mut [f32], weights: &[f32], acc: &[f32], step: f32);

    /// Build the whole next snapshot into `next`: one block at offset 0.
    fn apply_into(&mut self, next: &mut [f32], weights: &[f32], acc: &[f32], step: f32) {
        self.apply_block(0, next, weights, acc, step);
    }

    /// [`ServerOpt::apply_into`] a fresh shared snapshot: one allocation,
    /// written once.
    fn apply(&mut self, weights: &[f32], acc: &[f32], step: f32) -> Arc<[f32]> {
        let mut next = zeroed_snapshot(weights.len());
        let slot = Arc::get_mut(&mut next).expect("a fresh snapshot has one owner");
        self.apply_into(slot, weights, acc, step);
        next
    }

    /// Human-readable optimizer name (run labels / logs).
    fn name(&self) -> &'static str;

    /// Serialize the optimizer's mutable state for a durable checkpoint.
    /// Stateless optimizers return an empty vec (the default).
    fn export_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restore state previously produced by [`ServerOpt::export_state`].
    /// Stateless optimizers ignore it (the default).
    fn import_state(&mut self, _state: &[f32]) {}
}

/// Plain SGD — the paper's eq. 10, stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlainSgd;

impl ServerOpt for PlainSgd {
    fn apply_block(
        &mut self,
        _at: usize,
        next: &mut [f32],
        weights: &[f32],
        acc: &[f32],
        step: f32,
    ) {
        kernel::sgd_step(next, weights, acc, step);
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Classic heavy-ball (Polyak) momentum on the aggregated gradient:
/// `v ← μv + g`, `w ← w − step · v`.
#[derive(Debug, Default, Clone)]
pub struct HeavyBall {
    momentum: f32,
    velocity: Vec<f32>,
}

impl HeavyBall {
    /// Heavy-ball with momentum factor `momentum` (typically 0.9).
    pub fn new(momentum: f32) -> Self {
        Self {
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl ServerOpt for HeavyBall {
    fn apply_block(
        &mut self,
        at: usize,
        next: &mut [f32],
        weights: &[f32],
        acc: &[f32],
        step: f32,
    ) {
        let v = velocity_block(&mut self.velocity, at, acc.len());
        kernel::decay_add(v, self.momentum, acc);
        kernel::sgd_step(next, weights, v, step);
    }

    fn name(&self) -> &'static str {
        "heavy-ball"
    }

    fn export_state(&self) -> Vec<f32> {
        self.velocity.clone()
    }

    fn import_state(&mut self, state: &[f32]) {
        self.velocity = state.to_vec();
    }
}

/// Nesterov accelerated gradient in the standard deep-learning form
/// (as in PyTorch's `SGD(nesterov=True)`): `v ← μv + g`, then the applied
/// direction is the *look-ahead* `g + μv`, so the step anticipates where
/// the velocity is taking the weights.
#[derive(Debug, Default, Clone)]
pub struct Nesterov {
    momentum: f32,
    velocity: Vec<f32>,
}

impl Nesterov {
    /// Nesterov momentum with factor `momentum` (typically 0.9).
    pub fn new(momentum: f32) -> Self {
        Self {
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl ServerOpt for Nesterov {
    fn apply_block(
        &mut self,
        at: usize,
        next: &mut [f32],
        weights: &[f32],
        acc: &[f32],
        step: f32,
    ) {
        let v = velocity_block(&mut self.velocity, at, acc.len());
        kernel::decay_add(v, self.momentum, acc);
        kernel::nesterov_step(next, weights, acc, v, step, self.momentum);
    }

    fn name(&self) -> &'static str {
        "nesterov"
    }

    fn export_state(&self) -> Vec<f32> {
        self.velocity.clone()
    }

    fn import_state(&mut self, state: &[f32]) {
        self.velocity = state.to_vec();
    }
}

/// Elements `at..at + n` of a momentum velocity. A fresh key's velocity
/// is empty and grows with zeros as its first round walks the blocks; a
/// restored one already covers the key (`Shard::new` refuses any other
/// length).
fn velocity_block(velocity: &mut Vec<f32>, at: usize, n: usize) -> &mut [f32] {
    if velocity.len() < at + n {
        velocity.resize(at + n, 0.0);
    }
    &mut velocity[at..at + n]
}

/// A copyable optimizer *choice*, carried in [`crate::ServerConfig`]
/// (which stays `Copy`) and instantiated per key when the server starts —
/// the same spec-vs-instance split as `cd_sgd::Codec`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ServerOptKind {
    /// Plain SGD (the paper's rule, and the default).
    #[default]
    PlainSgd,
    /// Heavy-ball momentum.
    HeavyBall {
        /// Momentum factor μ.
        momentum: f32,
    },
    /// Nesterov momentum.
    Nesterov {
        /// Momentum factor μ.
        momentum: f32,
    },
}

impl ServerOptKind {
    /// Instantiate the optimizer for one key.
    pub fn build(&self) -> Box<dyn ServerOpt> {
        match self {
            ServerOptKind::PlainSgd => Box::new(PlainSgd),
            ServerOptKind::HeavyBall { momentum } => Box::new(HeavyBall::new(*momentum)),
            ServerOptKind::Nesterov { momentum } => Box::new(Nesterov::new(*momentum)),
        }
    }

    /// Short name for run labels.
    pub fn name(&self) -> &'static str {
        match self {
            ServerOptKind::PlainSgd => "sgd",
            ServerOptKind::HeavyBall { .. } => "heavy-ball",
            ServerOptKind::Nesterov { .. } => "nesterov",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_matches_eq10() {
        let mut opt = PlainSgd;
        let w = opt.apply(&[1.0, 2.0], &[10.0, -10.0], 0.1);
        assert_eq!(*w, [0.0, 3.0]);
    }

    #[test]
    fn heavy_ball_accumulates_velocity() {
        let mut opt = HeavyBall::new(0.9);
        // v=1, w=-1; then v=1.9, w=-2.9 (the server.rs momentum test).
        let w1 = opt.apply(&[0.0], &[1.0], 1.0);
        assert!((w1[0] + 1.0).abs() < 1e-6);
        let w2 = opt.apply(&w1, &[1.0], 1.0);
        assert!((w2[0] + 2.9).abs() < 1e-6);
    }

    #[test]
    fn nesterov_takes_the_lookahead_step() {
        let mut opt = Nesterov::new(0.9);
        // v=1, d = 1 + 0.9·1 = 1.9, w = -1.9;
        // then v=1.9, d = 1 + 0.9·1.9 = 2.71, w = -4.61.
        let w1 = opt.apply(&[0.0], &[1.0], 1.0);
        assert!((w1[0] + 1.9).abs() < 1e-6);
        let w2 = opt.apply(&w1, &[1.0], 1.0);
        assert!((w2[0] + 4.61).abs() < 1e-5);
    }

    #[test]
    fn zero_momentum_heavy_ball_degenerates_to_sgd() {
        let mut hb = HeavyBall::new(0.0);
        let mut sgd = PlainSgd;
        let w = [0.5f32, -0.25, 3.0];
        let g = [1.0f32, 2.0, -4.0];
        assert_eq!(hb.apply(&w, &g, 0.1), sgd.apply(&w, &g, 0.1));
    }

    #[test]
    fn momentum_state_round_trips_through_export() {
        let mut opt = HeavyBall::new(0.9);
        opt.apply(&[0.0, 0.0], &[1.0, -2.0], 1.0);
        let saved = opt.export_state();
        assert_eq!(saved, vec![1.0, -2.0]);

        // A fresh instance restored from the export continues identically.
        let mut fresh = HeavyBall::new(0.9);
        fresh.import_state(&saved);
        let cont = opt.apply(&[0.0, 0.0], &[1.0, 1.0], 1.0);
        let rest = fresh.apply(&[0.0, 0.0], &[1.0, 1.0], 1.0);
        assert_eq!(*cont, *rest);

        // Stateless SGD exports nothing.
        assert!(PlainSgd.export_state().is_empty());
    }

    #[test]
    fn apply_into_a_dirty_snapshot_is_apply_bit_for_bit() {
        // Three rounds per optimizer, `apply` on one instance and
        // `apply_into` a buffer full of NaN on its twin: same weights,
        // same exported state, specials included.
        let acc = [1.0f32, -0.0, f32::INFINITY, -3.5, f32::NAN];
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [
            ServerOptKind::PlainSgd,
            ServerOptKind::HeavyBall { momentum: 0.9 },
            ServerOptKind::Nesterov { momentum: 0.9 },
        ] {
            let (mut a, mut b) = (kind.build(), kind.build());
            let mut w: Arc<[f32]> = Arc::from([0.5f32, -0.0, 2.0, 0.0, 1.0]);
            for _ in 0..3 {
                let mut next = [f32::NAN; 5];
                b.apply_into(&mut next, &w, &acc, 0.1);
                w = a.apply(&w, &acc, 0.1);
                assert_eq!(bits(&w), bits(&next), "{}", kind.name());
                assert_eq!(bits(&a.export_state()), bits(&b.export_state()));
            }
        }
    }

    #[test]
    fn kind_builds_and_names() {
        assert_eq!(ServerOptKind::default(), ServerOptKind::PlainSgd);
        for (kind, name) in [
            (ServerOptKind::PlainSgd, "sgd"),
            (ServerOptKind::HeavyBall { momentum: 0.9 }, "heavy-ball"),
            (ServerOptKind::Nesterov { momentum: 0.9 }, "nesterov"),
        ] {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.build().name(), name);
        }
    }
}
