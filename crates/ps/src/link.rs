//! The emulated network link: one FIFO reservation schedule per shard.
//!
//! [`crate::ServerConfig::delay_per_byte`] emulates one link that every
//! transfer of a shard shares, pushes in and pull replies out. A
//! transfer of `bytes` books the link for `bytes × delay_per_byte`,
//! starting when it is booked or when the transfer booked before it
//! ends, whichever is later — `max(now, free_at) + bytes / bandwidth` —
//! and its receiver waits until the booked end. No thread sleeps on the
//! link's behalf: the shard thread decodes, sums and steps while the
//! link carries the next transfer, and a waiter that wakes late delays
//! itself, never the schedule.

use crate::server::ServerConfig;
use std::sync::Mutex;
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
        self.reserve_then(bytes, |at| at)
    }

    /// Book `bytes` and hand the booked end to `then` while the link is
    /// still held, so whatever `then` enqueues lands in booking order.
    pub(crate) fn reserve_then<R>(
        &self,
        bytes: usize,
        then: impl FnOnce(Option<Instant>) -> R,
    ) -> R {
        if self.delay_per_byte == 0.0 {
            return then(None);
        }
        let mut free_at = self.free_at.lock().expect("link poisoned");
        let start = (*free_at).max(Instant::now());
        *free_at = start + Duration::from_secs_f64(self.delay_per_byte * bytes as f64);
        then(Some(*free_at))
    }
}

/// Block until `at`, the end a transfer was booked for: at once for
/// `None` or an instant already past.
pub(crate) fn wait_until(at: Option<Instant>) {
    if let Some(left) = at.and_then(|at| at.checked_duration_since(Instant::now())) {
        std::thread::sleep(left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ShardTx;
    use cdsgd_compress::Compressed;
    use cdsgd_net::wire::{push_frame_bytes, WireMsg};
    use std::sync::{mpsc, Arc, Barrier};

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

    #[test]
    fn a_push_takes_its_channel_place_in_booking_order() {
        let (tx, rx) = mpsc::channel();
        let shard = ShardTx::new(tx, Arc::new(link(1e-6)));
        let threads: Vec<_> = (0..4)
            .map(|worker| {
                let shard = shard.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let payload = Compressed::Raw(vec![0.0; 1 + worker as usize]);
                        let push = WireMsg::Push {
                            worker,
                            key: 0,
                            payload,
                        };
                        shard.send(0, push, None).unwrap();
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        drop(shard);
        let mut prev: Option<Instant> = None;
        let mut received = 0;
        for (_, msg, _, at) in rx {
            let WireMsg::Push { payload, .. } = msg else {
                panic!("only pushes were sent")
            };
            let at = at.expect("an emulated link books every push");
            let lasts =
                Duration::from_secs_f64(1e-6 * push_frame_bytes(payload.wire_bytes()) as f64);
            if let Some(prev) = prev {
                assert!(
                    at >= prev + lasts,
                    "a push sits in the channel ahead of an earlier booking"
                );
            }
            prev = Some(at);
            received += 1;
        }
        assert_eq!(received, 200);
    }
}
