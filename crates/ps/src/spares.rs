//! Recycled weight snapshots: where the next version of a key is built.
//!
//! A snapshot is an `Arc<[f32]>` that is never written once anybody else
//! can see it. Whoever builds one per round — the server's aggregate
//! update, a networked client decoding a pull reply — would otherwise
//! allocate a model-sized buffer every round and free another. Instead
//! the builder keeps the snapshots it retired and writes the next one
//! through [`Arc::get_mut`] into one whose readers have all let go. That
//! call is the whole safety argument: it succeeds only while the builder
//! holds the sole reference, so a puller, a queued reply or a model still
//! reading an old version simply keeps it out of circulation (and alive)
//! until it drops it.

use std::sync::Arc;

/// Retired snapshots kept per key. One is enough when every reader moves
/// on within a round; the second absorbs a reader that lags one more.
const MAX_SPARES: usize = 2;

/// A snapshot of `len` zeros that only the caller holds (the exact-size
/// collect allocates the `Arc` once, with no `Vec` in between).
pub(crate) fn zeroed_snapshot(len: usize) -> Arc<[f32]> {
    std::iter::repeat_n(0.0, len).collect()
}

/// One key's retired snapshots.
#[derive(Default)]
pub(crate) struct Spares(Vec<Arc<[f32]>>);

impl Spares {
    /// A snapshot of `len` elements that nobody else holds, contents
    /// unspecified: a retired one that is unique again, else a fresh
    /// allocation.
    pub(crate) fn take(&mut self, len: usize) -> Arc<[f32]> {
        let free = |s: &mut Arc<[f32]>| s.len() == len && Arc::get_mut(s).is_some();
        match self.0.iter_mut().position(free) {
            Some(i) => self.0.swap_remove(i),
            None => zeroed_snapshot(len),
        }
    }

    /// Keep `snapshot` (possibly still read elsewhere) for a later
    /// [`Spares::take`]; dropped instead when enough are kept already.
    pub(crate) fn retire(&mut self, snapshot: Arc<[f32]>) {
        if self.0.len() < MAX_SPARES {
            self.0.push(snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_held_snapshot_is_never_handed_out_and_a_released_one_is() {
        let mut spares = Spares::default();
        let held = zeroed_snapshot(4);
        let at = held.as_ptr();
        spares.retire(Arc::clone(&held));
        // Still read elsewhere: the builder gets other storage.
        let other = spares.take(4);
        assert_ne!(other.as_ptr(), at);
        spares.retire(other);
        drop(held);
        // A length that matches nothing kept is a fresh allocation too.
        assert_eq!(spares.take(3).len(), 3);
        // Both kept snapshots are unique now; each comes back once.
        let mut got = [spares.take(4).as_ptr(), spares.take(4).as_ptr()];
        got.sort();
        assert!(got.contains(&at));
        assert_ne!(got[0], got[1]);
    }

    #[test]
    fn at_most_two_are_kept() {
        let mut spares = Spares::default();
        for _ in 0..5 {
            spares.retire(zeroed_snapshot(1));
        }
        assert_eq!(spares.0.len(), MAX_SPARES);
    }
}
