//! Decoder fuzz suite: whatever bytes arrive off a socket, the wire
//! decoders return a message or a typed error — never a panic — and never
//! ask the allocator for more than 4× their input plus 4 KiB. A counting
//! global allocator measures every byte one decode call requests.
//!
//! Beside plain arbitrary bytes, the generators build frames that get
//! past the first checks — a real opcode, a payload header of any tag and
//! length, and often exactly the bytes that header's codec wants — since
//! that is where a count read off the wire can size an allocation.

use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::wire::{
    decode_collective, decode_head, decode_msg, decode_msg_pooled, FrameHead, WireMsg,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting per thread the bytes requested while
/// [`asked`] measures.
struct Counting;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ASKED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's locals may be gone while it exits.
    let _ = MEASURING.try_with(|on| {
        if on.get() {
            let _ = ASKED.try_with(|a| a.set(a.get().saturating_add(bytes)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning what it returned and the bytes it asked the
/// allocator for.
fn asked<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ASKED.with(|a| a.set(0));
    MEASURING.with(|on| on.set(true));
    let out = f();
    MEASURING.with(|on| on.set(false));
    (out, ASKED.with(Cell::get))
}

/// Feed `frame` to every frame decoder; each may answer anything but a
/// panic, within the allocation bound.
fn decode_everywhere(frame: &[u8], pool: &BufferPool) {
    let bound = 4 * frame.len() + 4096;
    let (_, n) = asked(|| decode_msg(frame));
    assert!(
        n <= bound,
        "decode_msg asked for {n} bytes on {} bytes",
        frame.len()
    );
    let (_, n) = asked(|| decode_msg_pooled(frame, pool));
    assert!(
        n <= bound,
        "decode_msg_pooled asked for {n} bytes on {} bytes",
        frame.len()
    );
    let (_, n) = asked(|| decode_collective(frame).map(|f| f.len()));
    assert!(
        n <= bound,
        "decode_collective asked for {n} bytes on {} bytes",
        frame.len()
    );
}

/// Payload bytes a codec's decoder accepts after its header fields for
/// `len` elements (`k` pairs for Top-k), if that is few enough to build.
fn payload_bytes(tag: u32, len: usize, levels: u8, k: usize) -> Option<usize> {
    let n = match tag {
        0 => 4 * len,
        1 => len.div_ceil(4),
        2 => len.div_ceil(8),
        4 => {
            let bits = (2 * levels as usize + 1)
                .next_power_of_two()
                .trailing_zeros() as usize;
            (len * bits).div_ceil(8)
        }
        5 => 8 * k,
        _ => return None,
    };
    (n <= 4096).then_some(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_within_bounds(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        decode_everywhere(&bytes, &BufferPool::new());
    }

    #[test]
    fn an_opcode_and_a_count_decode_or_fail_within_bounds(
        op in 0u8..16,
        count in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Every message whose first field sizes what follows: register
        // acks, snapshot replies, and whatever a stray opcode makes of it.
        let mut frame = vec![op];
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&tail);
        decode_everywhere(&frame, &BufferPool::new());
    }

    #[test]
    fn push_payloads_of_every_tag_decode_or_fail_within_bounds(
        tag in 0u32..8,
        len_bits in 0u32..30,
        len_raw in any::<u32>(),
        scalar in any::<u32>(),
        levels in 0u8..4,
        exact in any::<bool>(),
        fill in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Opcode, worker, key, a header of any tag and length, the codec's
        // scalar (threshold, scale or norm) and QSGD's level count, then
        // either exactly the bytes that header asks for or arbitrary ones.
        let len = (len_raw & ((1u32 << len_bits) - 1)) as usize;
        let mut frame = vec![0u8, 1, 0, 0, 0, 2, 0, 0, 0];
        frame.extend_from_slice(&((tag << 29) | len as u32).to_le_bytes());
        let k = fill.len() / 8;
        let rest = match payload_bytes(tag, len, levels, k) {
            Some(n) if exact => n,
            _ => fill.len(),
        };
        if matches!(tag, 1 | 2 | 4) {
            frame.extend_from_slice(&scalar.to_le_bytes());
        }
        if tag == 4 {
            frame.push(levels);
        }
        frame.extend(fill.iter().copied().cycle().take(rest));
        decode_everywhere(&frame, &BufferPool::new());
    }

    #[test]
    fn top_k_pushes_decode_only_with_strictly_ascending_indices(
        len in 1u32..64,
        raw in prop::collection::vec(any::<u32>(), 0..12),
        value in any::<u32>(),
    ) {
        // In-range indices in any order, repeats included: a push decodes
        // exactly when they ascend strictly, and then as sent.
        let indices: Vec<u32> = raw.iter().map(|i| i % len).collect();
        let mut frame = vec![0u8, 1, 0, 0, 0, 2, 0, 0, 0];
        frame.extend_from_slice(&((5u32 << 29) | len).to_le_bytes());
        for &i in &indices {
            frame.extend_from_slice(&i.to_le_bytes());
            frame.extend_from_slice(&value.to_le_bytes());
        }
        decode_everywhere(&frame, &BufferPool::new());
        let ascending = indices.windows(2).all(|w| w[0] < w[1]);
        match decode_msg(&frame) {
            Ok(WireMsg::Push { payload: Compressed::TopK { indices: got, .. }, .. }) => {
                prop_assert!(ascending, "decoded unordered indices {:?}", got);
                prop_assert_eq!(got, indices);
            }
            other => prop_assert!(!ascending, "{:?} refused: {:?}", indices, other),
        }
    }

    #[test]
    fn collective_frames_decode_or_fail_within_bounds(
        phase in 0u8..8,
        index in any::<u32>(),
        count in any::<u32>(),
        small in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let count = if small { count % 32 } else { count };
        let mut frame = vec![0xC5, phase];
        frame.extend_from_slice(&index.to_le_bytes());
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&tail);
        decode_everywhere(&frame, &BufferPool::new());
    }

    #[test]
    fn the_landed_decode_reads_any_head_and_offered_length(
        op in 0u8..4,
        fields in prop::collection::vec(any::<u8>(), 0..16),
        rest in any::<u32>(),
    ) {
        // A push or pull-reply opcode (or a neighbour) and arbitrary
        // fields, against whatever bulk length the transport reports:
        // the head alone is read, so nothing is reserved for `rest`.
        let mut head = vec![op];
        head.extend_from_slice(&fields);
        let rest = rest as usize;
        let (parsed, n) = asked(|| decode_head(&head, rest));
        assert!(n <= 4096, "decode_head asked for {n} bytes");
        match parsed {
            Ok(FrameHead::Push { len, raw: true, .. }) | Ok(FrameHead::PullReply { len, .. }) => {
                prop_assert_eq!(head.len(), FrameHead::BYTES);
                prop_assert_eq!(4 * len, rest);
            }
            Ok(FrameHead::Push { raw: false, .. }) => prop_assert_eq!(head.len(), FrameHead::BYTES),
            Err(_) => {}
        }
    }
}
