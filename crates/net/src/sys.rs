//! The two things the networked path needs that safe `std` has no
//! operation for — and the only non-test `unsafe` in `cdsgd-net` and
//! `cdsgd-ps`:
//!
//! - **Blocking on readiness.** [`Poller`] is `poll(2)` over a set of
//!   descriptors, declared as a three-line `extern "C"`; [`wake_pair`] is
//!   the self-pipe an event loop adds to that set so another thread can
//!   end the wait without touching a socket. The pipe is a non-blocking
//!   `UnixStream` pair, so creating, writing, draining and closing it are
//!   all safe `std` calls.
//! - **Viewing `f32`s as the bytes the wire carries.**
//!   [`f32s_as_le_bytes`] borrows a weight or gradient slice as its
//!   little-endian encoding, which on a little-endian host is the memory
//!   itself; it returns `None` elsewhere and callers fall back to
//!   [`crate::wire::put_f32s`]. [`f32s_as_le_bytes_mut`] is the receive
//!   side's twin: a frame's bulk is read straight into typed storage
//!   through it, and where it is `None` the frame takes the byte path.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// The same values on every unix `std` supports.
const POLLIN: std::ffi::c_short = 0x001;
const POLLOUT: std::ffi::c_short = 0x004;

/// A reusable `poll(2)` descriptor set. Level-triggered: a descriptor
/// that is still readable (or a wake that was not drained) ends the next
/// [`Poller::wait`] at once, so readiness is never lost between a pass
/// over the connections and the wait that follows it.
#[derive(Default)]
pub struct Poller {
    fds: Vec<PollFd>,
}

impl Poller {
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every registered descriptor (the allocation is kept).
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Wait for `fd` to become readable, closed or failed — and, when
    /// `writable` is set, for it to accept output again.
    pub fn add(&mut self, fd: RawFd, writable: bool) {
        self.fds.push(PollFd {
            fd,
            events: if writable { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        });
    }

    /// Whether the `index`-th descriptor added since the last
    /// [`Poller::clear`] was reported ready by the last wait.
    pub fn is_ready(&self, index: usize) -> bool {
        self.fds[index].revents != 0
    }

    /// Block until a registered descriptor is ready or `timeout` elapses
    /// (`None` waits forever). Returns how many are ready: 0 on timeout.
    pub fn wait(&mut self, timeout: Option<Duration>) -> std::io::Result<usize> {
        // Round up so a sub-millisecond remainder cannot spin at 0 ms.
        let ms = timeout.map_or(-1, |t| {
            t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
        });
        loop {
            // SAFETY: `fds` is an exclusively borrowed `Vec` of
            // `#[repr(C)]` records laid out as `struct pollfd`; the
            // pointer and length describe exactly its initialised
            // elements, and the kernel writes only their `revents`.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// The writing end of a wake pipe: cheap to clone, safe to call from any
/// thread, never blocks.
#[derive(Clone)]
pub struct Waker(Arc<UnixStream>);

impl Waker {
    /// End the owner's current (or next) [`Poller::wait`]. Make the work
    /// visible *before* calling this: the owner drains the pipe first and
    /// looks for work second. A full pipe already guarantees a wake-up,
    /// so the `WouldBlock` it reports is not an error.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// The reading end of a wake pipe, owned by the thread that waits.
pub struct WakeRx(UnixStream);

impl WakeRx {
    /// The descriptor to [`Poller::add`].
    pub fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }

    /// Consume every pending wake. Call after the wait and before
    /// looking for work, so a wake that races the look is kept for the
    /// next wait instead of lost.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.0).read(&mut sink), Ok(n) if n == sink.len()) {}
    }
}

/// A connected wake pipe.
pub fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker(Arc::new(tx)), WakeRx(rx)))
}

/// `values` as the little-endian bytes the wire carries, without copying
/// — `None` on a big-endian host, where the encoding is not the memory.
pub fn f32s_as_le_bytes(values: &[f32]) -> Option<&[u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `f32` has no padding and `u8` has alignment 1 and no
        // invalid bit patterns, so the `4 * len` bytes behind a live
        // `&[f32]` are readable as `u8`s for the same lifetime; on a
        // little-endian host they are exactly `to_le_bytes` per element.
        Some(unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = values;
        None
    }
}

/// The mutable twin of [`f32s_as_le_bytes`]: `values` as bytes a `read`
/// can fill with little-endian `f32`s, which then *are* the values — how
/// a received bulk lands in typed storage with no pass of its own
/// ([`crate::Landing`]). `None` on a big-endian host.
pub fn f32s_as_le_bytes_mut(values: &mut [f32]) -> Option<&mut [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `f32s_as_le_bytes`, and every bit pattern is a
        // valid `f32`, so any bytes written through the view leave valid
        // values; the exclusive borrow of `values` is held for as long as
        // the view lives, so nothing else reads or writes them meanwhile.
        Some(unsafe {
            std::slice::from_raw_parts_mut(
                values.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(values),
            )
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = values;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn byte_view_is_the_le_encoding() {
        let values = [1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE, 3.0e38];
        let encoded: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        // A view exactly where the host is little-endian, and then it is
        // the encoding.
        let view = f32s_as_le_bytes(&values);
        assert_eq!(view.is_some(), cfg!(target_endian = "little"));
        assert_eq!(view.unwrap_or(&encoded), encoded);
        assert_eq!(f32s_as_le_bytes(&[]).map(<[u8]>::len), Some(0));
        // Bytes written through the mutable view decode as those values.
        let mut landed = [0.0f32; 5];
        if let Some(bytes) = f32s_as_le_bytes_mut(&mut landed) {
            bytes.copy_from_slice(&encoded);
            assert_eq!(landed.map(f32::to_bits), values.map(f32::to_bits));
        }
        assert_eq!(
            f32s_as_le_bytes_mut(&mut landed).is_some(),
            cfg!(target_endian = "little")
        );
    }

    #[test]
    fn wake_ends_a_wait_and_is_level_triggered() {
        let (waker, rx) = wake_pair().unwrap();
        let mut poller = Poller::new();
        poller.add(rx.fd(), false);
        assert_eq!(poller.wait(Some(Duration::from_millis(20))).unwrap(), 0);
        // A wake written before the wait starts is not lost...
        waker.wake();
        waker.wake();
        assert_eq!(poller.wait(None).unwrap(), 1);
        // ...stays pending until drained...
        assert_eq!(poller.wait(None).unwrap(), 1);
        rx.drain();
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap(), 0);
        // ...and reaches a wait already in progress from another thread.
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || waker.clone().wake());
        assert_eq!(poller.wait(Some(Duration::from_secs(10))).unwrap(), 1);
        assert!(t0.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn a_flood_of_wakes_never_blocks_the_waker() {
        let (waker, rx) = wake_pair().unwrap();
        for _ in 0..100_000 {
            waker.wake();
        }
        rx.drain();
        let mut poller = Poller::new();
        poller.add(rx.fd(), false);
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn poller_reports_socket_writability_only_when_asked() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new();
        poller.add(a.as_raw_fd(), false);
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap(), 0);
        poller.clear();
        poller.add(a.as_raw_fd(), true);
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap(), 1);
    }
}
