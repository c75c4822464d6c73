//! The emulated network link: one FIFO reservation schedule per shard.
//!
//! [`crate::ServerConfig::delay_per_byte`] emulates one link that every
//! transfer of a shard shares, pushes in and pull replies out. A
//! transfer of `bytes` books the link for `bytes × delay_per_byte`,
//! starting when it is booked or when the transfer booked before it
//! ends, whichever is later — `max(now, free_at) + bytes / bandwidth` —
//! and its receiver waits until the booked end. No thread sleeps on the
//! link's behalf: a push waits in its shard's in-flight queue
//! (`crate::server`) until the first thread to run the shard after its
//! booked end delivers it, that thread decodes, sums and steps while the
//! link carries the next transfer, and a waiter that wakes late delays
//! itself, never the schedule.

use crate::server::ServerConfig;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A shard's emulated link (see the module docs). Without emulation
/// (`delay_per_byte == 0`) it books nothing and takes no lock.
pub(crate) struct Link {
    /// Seconds per byte.
    delay_per_byte: f64,
    /// When the last booked transfer ends.
    free_at: Mutex<Instant>,
}

impl Link {
    pub(crate) fn new(cfg: &ServerConfig) -> Self {
        Self {
            // A negative or NaN delay emulates nothing, as zero does.
            delay_per_byte: cfg.delay_per_byte.max(0.0),
            free_at: Mutex::new(Instant::now()),
        }
    }

    /// Book `bytes` on the link: the instant their transfer ends, or
    /// `None` without emulation.
    pub(crate) fn reserve(&self, bytes: usize) -> Option<Instant> {
        if self.delay_per_byte == 0.0 {
            return None;
        }
        // The one critical section cannot panic.
        let mut free_at = self.free_at.lock().unwrap_or_else(PoisonError::into_inner);
        let start = (*free_at).max(Instant::now());
        *free_at = start + Duration::from_secs_f64(self.delay_per_byte * bytes as f64);
        Some(*free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn link(delay_per_byte: f64) -> Link {
        let mut cfg = ServerConfig::new(1, 1.0);
        cfg.delay_per_byte = delay_per_byte;
        Link::new(&cfg)
    }

    #[test]
    fn without_emulation_nothing_is_booked() {
        let none = link(0.0);
        assert_eq!(none.reserve(1 << 20), None);
        assert_eq!(none.reserve(0), None);
        assert_eq!(link(-1.0).reserve(1), None);
        assert_eq!(link(f64::NAN).reserve(1), None);
    }

    #[test]
    fn concurrent_bookings_never_overlap_and_each_lasts_its_bytes() {
        // 1 µs per byte: 1 ms and 3 ms transfers, booked far faster than
        // the link carries them.
        const DELAY: f64 = 1e-6;
        let link = Arc::new(link(DELAY));
        let start = Arc::new(Barrier::new(2));
        let threads: Vec<_> = [1_000usize, 3_000]
            .into_iter()
            .map(|bytes| {
                let (link, start) = (Arc::clone(&link), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..20)
                        .map(|_| {
                            let called = Instant::now();
                            let end = link.reserve(bytes).unwrap();
                            (end, called, Instant::now(), bytes)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut booked: Vec<_> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        booked.sort_by_key(|b| b.0);
        let mut prev_end: Option<Instant> = None;
        for (end, called, returned, bytes) in booked {
            let lasts = Duration::from_secs_f64(DELAY * bytes as f64);
            // The transfer starts once the link is free and no earlier
            // than its booking began, no later than its booking returned.
            let earliest = prev_end.map_or(called, |p| p.max(called));
            let latest = prev_end.map_or(returned, |p| p.max(returned));
            assert!(
                earliest + lasts <= end && end <= latest + lasts,
                "a {bytes}-byte booking ends at {end:?}, outside [{:?}, {:?}]",
                earliest + lasts,
                latest + lasts
            );
            prev_end = Some(end);
        }
    }
}
