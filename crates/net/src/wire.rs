//! The wire codec: byte-exact encodings for [`Compressed`] payloads and
//! the framed parameter-server messages built from them.
//!
//! # Payload encoding
//!
//! Every [`Compressed`] variant already pays a uniform 4-byte element-count
//! header in [`Compressed::wire_bytes`]; the codec realises that header as
//! a little-endian `u32` whose top 3 bits carry the variant tag and whose
//! low 29 bits carry the element count (2-bit-quantized ResNet-50 is ~25M
//! elements per model, so 2^29 − 1 elements per *key* is far beyond any
//! real tensor). The encoding is therefore self-describing **and** exactly
//! `wire_bytes()` long — the invariant `encode(c).len() == c.wire_bytes()`
//! is pinned by tests and keeps the traffic counters honest now that bytes
//! really exist.
//!
//! # Message framing
//!
//! Messages ([`WireMsg`]) are one opcode byte plus fixed-width fields plus
//! an optional payload, and travel as length-prefixed frames: a `u32`
//! little-endian body length followed by the body. The frame prefix is
//! accounted by [`FRAME_PREFIX_BYTES`]; [`push_frame_bytes`] /
//! [`pull_reply_frame_bytes`] report the exact on-the-wire size of the two
//! hot-path messages so the server's `TrafficStats`-style accounting can
//! use real frame sizes instead of estimates.

use crate::error::NetError;
use crate::sys::f32s_as_le_bytes;
use cdsgd_compress::{BufferPool, Compressed};
use std::sync::Arc;

/// Variant tags carried in the top 3 bits of the payload header. Tag 3
/// is reserved (a retired codec's): it decodes to [`NetError::Decode`].
const TAG_RAW: u32 = 0;
const TAG_TWO_BIT: u32 = 1;
const TAG_ONE_BIT: u32 = 2;
const TAG_QSGD: u32 = 4;
const TAG_TOPK: u32 = 5;

/// Low 29 bits of the payload header hold the element count.
const LEN_BITS: u32 = 29;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;

/// Maximum element count a payload header can carry.
pub const MAX_PAYLOAD_ELEMS: usize = LEN_MASK as usize;

/// Bytes of the `u32` length prefix each frame carries on the wire.
pub const FRAME_PREFIX_BYTES: usize = 4;

/// Largest frame body a transport will accept (1 GiB): large enough for a
/// raw f32 push of any real model key, small enough to reject a corrupted
/// length prefix before allocating.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Message opcodes (first body byte of every frame).
const OP_PUSH: u8 = 0;
const OP_PULL: u8 = 1;
const OP_PULL_REPLY: u8 = 2;
const OP_SET_LR: u8 = 3;
const OP_SNAPSHOT: u8 = 4;
const OP_SNAPSHOT_REPLY: u8 = 5;
const OP_SHUTDOWN: u8 = 6;
const OP_REGISTER: u8 = 7;
const OP_REGISTER_ACK: u8 = 8;
const OP_HEARTBEAT: u8 = 9;
const OP_LEAVE: u8 = 10;
const OP_CHECKPOINT: u8 = 11;
const OP_CHECKPOINT_ACK: u8 = 12;
const OP_CANCEL_JOIN: u8 = 13;

/// A decoded parameter-server message.
///
/// `worker`/`key` are `u32` on the wire (4 billion workers or keys per
/// shard is beyond any deployment this repo targets); versions are `u64`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Worker → server: one gradient payload for `key`.
    Push {
        worker: u32,
        key: u32,
        payload: Compressed,
    },
    /// Worker → server: request `key`'s weights at exactly `min_version`.
    Pull { key: u32, min_version: u64 },
    /// Server → worker: the weights answering a [`WireMsg::Pull`]; echoes
    /// the *requested* version so the client can match outstanding pulls
    /// even when the server raced one aggregate ahead. The weights are
    /// the shared snapshot a waiting pull is handed: landed there by the
    /// socket's read, or decoded into it once.
    PullReply {
        key: u32,
        min_version: u64,
        weights: Arc<[f32]>,
    },
    /// Control → server: change the global learning rate.
    SetLr { lr: f32 },
    /// Control → server: request all weights and per-key versions.
    Snapshot,
    /// Server → control: answer to [`WireMsg::Snapshot`].
    SnapshotReply {
        weights: Vec<Vec<f32>>,
        versions: Vec<u64>,
    },
    /// Control → server: stop serving (the deployment-level kill switch
    /// for the `psd` process; distinct from a client disconnecting).
    Shutdown,
    /// Worker → server: join the membership as `worker`. The server
    /// admits the worker into the quorum and answers with
    /// [`WireMsg::RegisterAck`]; until the ack arrives the worker must
    /// not push (its rounds are not yet counted).
    Register { worker: u32 },
    /// Server → worker: admission granted. Carries the per-key versions
    /// at the instant of admission — the joiner's first pull targets
    /// exactly these, so it can never trip the server's one-round lag
    /// limit.
    RegisterAck { versions: Vec<u64> },
    /// Worker → server: liveness signal for `worker`, for membership
    /// timeout supervision between pushes (pushes also count).
    Heartbeat { worker: u32 },
    /// Worker → server: graceful departure of `worker`. The server
    /// drains any queued pushes from it and shrinks the quorum instead
    /// of declaring the worker lost.
    Leave { worker: u32 },
    /// Worker → server: roll back this connection's own tentative
    /// registration of `worker` — a two-phase cross-shard join revoking
    /// the shards it admitted after a later shard failed. Unlike
    /// [`WireMsg::Leave`], the server honours it only when this exact
    /// connection's registration *promoted* the worker into the active
    /// set, so a rollback trailing a reconnect's re-registration cannot
    /// demote an established member.
    CancelJoin { worker: u32 },
    /// Control → server: write a durable checkpoint of the current shard
    /// state now (requires the server to have been started with a
    /// checkpoint directory). Answered by [`WireMsg::CheckpointAck`].
    Checkpoint,
    /// Server → control: answer to [`WireMsg::Checkpoint`]. `round` is
    /// the uniform key version the snapshot captured, or `None` if the
    /// server could not write one (no checkpoint directory, skewed key
    /// versions, or an I/O failure — details go to the server's stderr).
    CheckpointAck { round: Option<u64> },
}

/// Whether a shard answers `msg`: the four requests that expect an
/// answer, and the server-to-client kinds, which are answered with the
/// error that retires the connection that sent them. The other six are
/// fire-and-forget.
pub fn answered(msg: &WireMsg) -> bool {
    !matches!(
        msg,
        WireMsg::Push { .. }
            | WireMsg::SetLr { .. }
            | WireMsg::Heartbeat { .. }
            | WireMsg::Leave { .. }
            | WireMsg::CancelJoin { .. }
            | WireMsg::Shutdown
    )
}

/// Whether `reply` answers `request`: the one reply kind of each of the
/// four answered requests, and for a pull only the reply that echoes its
/// `(key, min_version)`. Every client layer that matches replies to
/// requests asks this, and nothing else.
pub fn answers(request: &WireMsg, reply: &WireMsg) -> bool {
    match (request, reply) {
        (
            WireMsg::Pull { key, min_version },
            WireMsg::PullReply {
                key: k,
                min_version: v,
                ..
            },
        ) => (key, min_version) == (k, v),
        (WireMsg::Snapshot, WireMsg::SnapshotReply { .. })
        | (WireMsg::Register { .. }, WireMsg::RegisterAck { .. })
        | (WireMsg::Checkpoint, WireMsg::CheckpointAck { .. }) => true,
        _ => false,
    }
}

/// Exact wire size of a push frame carrying a payload of
/// `payload_wire_bytes` (= [`Compressed::wire_bytes`]): length prefix +
/// opcode + worker + key + payload.
pub fn push_frame_bytes(payload_wire_bytes: usize) -> usize {
    FRAME_PREFIX_BYTES + 1 + 4 + 4 + payload_wire_bytes
}

/// Exact wire size of a pull-reply frame carrying `n` f32 weights:
/// length prefix + opcode + key + version + payload. This is what the
/// server's traffic accounting charges per served pull — header included,
/// unlike the bare `4 * n` estimate it replaces.
pub fn pull_reply_frame_bytes(n: usize) -> usize {
    FRAME_PREFIX_BYTES + 1 + 4 + 8 + 4 * n
}

/// Largest frame body a worker or controller can legitimately send a
/// shard whose longest key holds `max_key_len` weights: a push of the
/// most verbose payload for that key (Top-k keeping every element, 8
/// bytes each; a raw f32 push is half that). Its 13 header bytes alone
/// already cover every control frame (the longest, a pull request, is 13
/// bytes). A server bounds its inbound connections by this, so a hostile
/// length prefix is refused before anything is reserved for it.
pub fn max_inbound_body_bytes(max_key_len: usize) -> usize {
    1 + 4 + 4 + 4 + 8 * max_key_len
}

// ---------------------------------------------------------------------------
// Collective chunk frames
// ---------------------------------------------------------------------------
//
// Collective links (ring all-reduce, decentralized neighbor
// exchange — see `cdsgd_ps::collective`) carry their own frame family,
// deliberately disjoint from the parameter-server opcodes above: a
// peer-to-peer link accidentally wired into a PS port fails decoding
// immediately instead of mis-parsing. The body is
// `[tag][phase][index u32][count u32][payload]` where `index` is a
// chunk index or the sender's rank depending on `phase`,
// and `count` is the f32 element count for chunk phases (payload is
// `4·count` little-endian f32s) or the raw byte length for
// [`COLLECTIVE_EXCHANGE`] payloads.

/// Leading tag byte of every collective frame. Chosen outside the
/// PS opcode range so cross-wired connections fail fast.
pub const TAG_COLLECTIVE_FRAME: u8 = 0xC5;

/// Handshake: `index` carries the sender's rank, no payload. The first
/// frame on every TCP collective link, so the accepting member can check
/// which rank dialed it.
pub const COLLECTIVE_HELLO: u8 = 0;
/// Ring scatter-reduce step: `index` is the chunk index, payload f32s.
pub const COLLECTIVE_SCATTER: u8 = 1;
/// Ring all-gather step: `index` is the chunk index, payload f32s.
pub const COLLECTIVE_GATHER: u8 = 2;
/// Decentralized neighbor exchange: payload is an opaque byte blob
/// (typically an encoded [`Compressed`] stream), `count` its length.
pub const COLLECTIVE_EXCHANGE: u8 = 3;
// Phases 4 and 5 are reserved: a retired tree all-reduce sent them, so
// they are refused on decode and never given a new meaning.

/// Fixed header bytes of a collective frame body (tag + phase + index +
/// count), before the payload.
pub const COLLECTIVE_HEADER_BYTES: usize = 10;

/// Exact on-the-wire size of a collective chunk frame carrying `n` f32
/// elements: length prefix + header + payload.
pub fn collective_frame_bytes(n: usize) -> usize {
    FRAME_PREFIX_BYTES + COLLECTIVE_HEADER_BYTES + 4 * n
}

/// Append a collective f32-chunk frame body (`phase` one of the chunk
/// phases) to `buf` (not cleared).
pub fn encode_collective_into(phase: u8, index: u32, values: &[f32], buf: &mut Vec<u8>) {
    let tail = encode_collective_parts(phase, index, values, buf);
    buf.extend_from_slice(tail);
}

/// A collective f32-chunk frame body in two parts, for
/// [`crate::Transport::send_parts`]: the 10-byte header is appended to
/// `buf` (not cleared) and the returned tail is `values`' own bytes, so a
/// chunk goes from the gradient buffer to the socket without a staging
/// copy. `buf ++ tail` is what [`encode_collective_into`] appends.
pub fn encode_collective_parts<'a>(
    phase: u8,
    index: u32,
    values: &'a [f32],
    buf: &mut Vec<u8>,
) -> &'a [u8] {
    buf.push(TAG_COLLECTIVE_FRAME);
    buf.push(phase);
    put_u32(buf, index);
    put_u32(buf, values.len() as u32);
    f32s_as_le_bytes(values).unwrap_or_else(|| {
        put_f32s(buf, values);
        &[]
    })
}

/// Append a [`COLLECTIVE_EXCHANGE`] (or [`COLLECTIVE_HELLO`]) frame body
/// carrying an opaque byte payload to `buf` (not cleared).
pub fn encode_collective_bytes_into(phase: u8, index: u32, payload: &[u8], buf: &mut Vec<u8>) {
    buf.push(TAG_COLLECTIVE_FRAME);
    buf.push(phase);
    put_u32(buf, index);
    put_u32(buf, payload.len() as u32);
    buf.extend_from_slice(payload);
}

/// A decoded view over one collective frame body. The payload stays
/// borrowed so chunk receives can fold straight into the caller's
/// buffers without an intermediate allocation.
pub struct CollectiveFrame<'a> {
    pub phase: u8,
    pub index: u32,
    payload: &'a [u8],
    /// Element count for chunk phases, byte count for exchange/hello.
    count: usize,
}

impl<'a> CollectiveFrame<'a> {
    /// Number of f32 elements in a chunk-phase payload.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw payload bytes (exchange phases).
    pub fn bytes(&self) -> &'a [u8] {
        self.payload
    }

    /// The payload as 4-byte little-endian f32 windows. Errors if the
    /// frame is not a chunk phase of exactly `n` elements.
    fn f32_windows(&self, n: usize) -> Result<std::slice::ChunksExact<'a, u8>, NetError> {
        if self.payload.len() != 4 * self.count {
            return Err(NetError::Decode(format!(
                "collective chunk of {} elems carries {} payload bytes",
                self.count,
                self.payload.len()
            )));
        }
        if n != self.count {
            return Err(NetError::Decode(format!(
                "collective chunk of {} elems, expected {n}",
                self.count
            )));
        }
        Ok(self.payload.chunks_exact(4))
    }

    /// Decode the f32 payload into `out`, overwriting it. Errors if the
    /// frame is not a chunk phase of exactly `out.len()` elements.
    pub fn read_f32_into(&self, out: &mut [f32]) -> Result<(), NetError> {
        let windows = self.f32_windows(out.len())?;
        for (o, raw) in out.iter_mut().zip(windows) {
            *o = f32::from_le_bytes(raw.try_into().unwrap());
        }
        Ok(())
    }

    /// `acc[i] += payload[i]`, read straight from the frame: one IEEE
    /// add per element in index order, so the result has the bits of
    /// [`CollectiveFrame::read_f32_into`] followed by an elementwise
    /// add. Same length check as `read_f32_into`.
    pub fn add_f32_into(&self, acc: &mut [f32]) -> Result<(), NetError> {
        let windows = self.f32_windows(acc.len())?;
        for (a, raw) in acc.iter_mut().zip(windows) {
            *a += f32::from_le_bytes(raw.try_into().unwrap());
        }
        Ok(())
    }

    /// Decode the f32 payload appended onto `out`.
    pub fn read_f32_append(&self, out: &mut Vec<f32>) -> Result<(), NetError> {
        let start = out.len();
        out.resize(start + self.count, 0.0);
        self.read_f32_into(&mut out[start..])
    }
}

/// Decode one collective frame body. Exchange/hello payloads are
/// validated against their byte count; chunk payloads against their
/// element count.
pub fn decode_collective(bytes: &[u8]) -> Result<CollectiveFrame<'_>, NetError> {
    let mut cur = Cursor::new(bytes);
    let tag = cur.u8()?;
    if tag != TAG_COLLECTIVE_FRAME {
        return Err(NetError::Decode(format!(
            "not a collective frame (tag {tag:#04x}, want {TAG_COLLECTIVE_FRAME:#04x})"
        )));
    }
    let phase = cur.u8()?;
    if phase > COLLECTIVE_EXCHANGE {
        return Err(NetError::Decode(format!(
            "unknown collective phase {phase}"
        )));
    }
    let index = cur.u32()?;
    let count = cur.u32()? as usize;
    let payload = cur.take(cur.remaining())?;
    let expect = match phase {
        COLLECTIVE_HELLO | COLLECTIVE_EXCHANGE => count,
        _ => 4 * count,
    };
    if payload.len() != expect {
        return Err(NetError::Decode(format!(
            "collective phase {phase} count {count} expects {expect} payload bytes, have {}",
            payload.len()
        )));
    }
    Ok(CollectiveFrame {
        phase,
        index,
        payload,
        count,
    })
}

// ---------------------------------------------------------------------------
// little-endian primitives
// ---------------------------------------------------------------------------
//
// Public: the durable-checkpoint codecs in `cdsgd-ps` and `cd-sgd` reuse
// these so checkpoint files and wire frames share one byte convention.

/// Append a little-endian `u32` to `buf`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64` to `buf`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f32` to `buf`.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `values` as little-endian `f32`s to `buf`, byte for byte what
/// one [`put_f32`] per element writes: a block copy of the slice's own
/// bytes where the host is little-endian, a per-element encode (the
/// exact-size iterator lets `extend` reserve once) where it is not.
pub fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    match f32s_as_le_bytes(values) {
        Some(bytes) => buf.extend_from_slice(bytes),
        None => buf.extend(values.iter().flat_map(|v| v.to_le_bytes())),
    }
}

/// The `f32`s a run of little-endian bytes encodes (`raw.len()` must be
/// a multiple of 4). Exact-size, so collecting it allocates once.
fn le_f32s(raw: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// returns [`NetError::Decode`] on underrun instead of panicking, so
/// corrupted frames (and corrupted checkpoint files) surface as errors.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Decode(format!(
                "truncated: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, NetError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, NetError> {
        Ok(le_f32s(self.take(4 * n)?).collect())
    }
}

// ---------------------------------------------------------------------------
// Compressed payload codec
// ---------------------------------------------------------------------------

/// Bits per QSGD code symbol for a given level count — mirrors the
/// fixed-width accounting in [`Compressed::wire_bytes`].
fn qsgd_bits(levels: u8) -> usize {
    (2 * levels as usize + 1)
        .next_power_of_two()
        .trailing_zeros() as usize
}

fn header(tag: u32, len: usize) -> u32 {
    assert!(
        len <= MAX_PAYLOAD_ELEMS,
        "payload of {len} elements exceeds the 29-bit wire header"
    );
    (tag << LEN_BITS) | len as u32
}

/// Append the exact wire encoding of `c` to `buf` (which is *not*
/// cleared). Appends precisely [`Compressed::wire_bytes`] bytes.
///
/// # Panics
/// As [`encode_compressed_parts`].
pub fn encode_compressed_into(c: &Compressed, buf: &mut Vec<u8>) {
    let tail = encode_compressed_parts(c, buf);
    buf.extend_from_slice(tail);
}

/// The wire encoding of `c` in two parts, for a two-part send: the
/// header (and whatever has to be transformed to be encoded) is appended
/// to `buf`, and the returned tail — borrowed from `c`, possibly empty —
/// is the rest. `buf ++ tail` is byte for byte what
/// [`encode_compressed_into`] appends: the bulk of a raw, 2-bit, 1-bit
/// or ternary payload is already its own encoding and is never copied.
///
/// # Panics
/// Panics if the payload violates its own construction invariants
/// (element count over 2^29 − 1, QSGD code outside `[-levels, levels]`,
/// or a Top-k index/value length mismatch) — these cannot come from the
/// codecs in `cdsgd-compress`, only from hand-built payloads.
pub fn encode_compressed_parts<'a>(c: &'a Compressed, buf: &mut Vec<u8>) -> &'a [u8] {
    match c {
        Compressed::Raw(v) => {
            put_u32(buf, header(TAG_RAW, v.len()));
            f32s_as_le_bytes(v).unwrap_or_else(|| {
                put_f32s(buf, v);
                &[]
            })
        }
        Compressed::TwoBit {
            threshold,
            packed,
            len,
        } => {
            put_u32(buf, header(TAG_TWO_BIT, *len));
            put_f32(buf, *threshold);
            packed
        }
        Compressed::OneBit { scale, signs, len } => {
            put_u32(buf, header(TAG_ONE_BIT, *len));
            put_f32(buf, *scale);
            signs
        }
        Compressed::Qsgd {
            norm,
            levels,
            codes,
            len,
        } => {
            assert_eq!(codes.len(), *len, "QSGD code count must equal len");
            put_u32(buf, header(TAG_QSGD, *len));
            put_f32(buf, *norm);
            buf.push(*levels);
            let bits = qsgd_bits(*levels);
            // LSB-first bit packing of the biased symbols code + levels,
            // each in [0, 2·levels] and hence within `bits` bits.
            let mut acc: u64 = 0;
            let mut nbits: usize = 0;
            for &code in codes {
                let sym = code as i32 + *levels as i32;
                assert!(
                    (0..=2 * *levels as i32).contains(&sym),
                    "QSGD code {code} outside [-levels, levels] for levels {levels}"
                );
                acc |= (sym as u64) << nbits;
                nbits += bits;
                while nbits >= 8 {
                    buf.push(acc as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                buf.push(acc as u8);
            }
            &[]
        }
        Compressed::TopK {
            indices,
            values,
            len,
        } => {
            assert_eq!(
                indices.len(),
                values.len(),
                "Top-k index/value length mismatch"
            );
            put_u32(buf, header(TAG_TOPK, *len));
            for (&i, &v) in indices.iter().zip(values) {
                put_u32(buf, i);
                put_f32(buf, v);
            }
            &[]
        }
    }
}

/// Decode a payload from `bytes`, consuming the entire slice.
///
/// The encoding is self-delimiting *given* the slice length (the frame
/// layer always hands the payload as the tail of a frame), so any surplus
/// or deficit of bytes is a [`NetError::Decode`]. Every structural
/// invariant the in-memory decoders rely on (enough packed bytes for the
/// element count, Top-k indices in range) is validated here so a hostile
/// or corrupted frame cannot panic the server.
pub fn decode_compressed(bytes: &[u8]) -> Result<Compressed, NetError> {
    decode_compressed_in(bytes, None)
}

/// [`decode_compressed`] with the payload's storage drawn from `pool`
/// when there is one — the server decodes pushes into the buffers its
/// aggregation loop recycles, so a steady-state round allocates nothing.
fn decode_compressed_in(bytes: &[u8], pool: Option<&BufferPool>) -> Result<Compressed, NetError> {
    let mut cur = Cursor::new(bytes);
    let head = cur.u32()?;
    let tag = head >> LEN_BITS;
    let len = (head & LEN_MASK) as usize;
    let byte_vec = |raw: &[u8]| {
        let mut v = pool.map_or_else(Vec::new, BufferPool::take_bytes);
        v.extend_from_slice(raw);
        v
    };
    match tag {
        TAG_RAW => {
            if cur.remaining() != 4 * len {
                return Err(NetError::Decode(format!(
                    "raw payload of {len} elems needs {} bytes, have {}",
                    4 * len,
                    cur.remaining()
                )));
            }
            let mut v = pool.map_or_else(Vec::new, BufferPool::take_f32);
            v.extend(le_f32s(cur.take(4 * len)?));
            Ok(Compressed::Raw(v))
        }
        TAG_TWO_BIT => {
            let threshold = cur.f32()?;
            let raw = cur.take(cur.remaining())?;
            if raw.len() * 4 < len {
                return Err(NetError::Decode(format!(
                    "{} packed bytes cannot hold {len} 2-bit symbols",
                    raw.len()
                )));
            }
            Ok(Compressed::TwoBit {
                threshold,
                packed: byte_vec(raw),
                len,
            })
        }
        TAG_ONE_BIT => {
            let scale = cur.f32()?;
            let raw = cur.take(cur.remaining())?;
            if raw.len() * 8 < len {
                return Err(NetError::Decode(format!(
                    "{} sign bytes cannot hold {len} 1-bit symbols",
                    raw.len()
                )));
            }
            Ok(Compressed::OneBit {
                scale,
                signs: byte_vec(raw),
                len,
            })
        }
        TAG_QSGD => {
            let norm = cur.f32()?;
            let levels = cur.u8()?;
            // 0 levels would make every symbol 0 bits wide: no payload
            // byte could bound `len`, and the codes below are `len` long.
            if levels == 0 {
                return Err(NetError::Decode("QSGD payload with 0 levels".into()));
            }
            let bits = qsgd_bits(levels);
            let expect = (len * bits).div_ceil(8);
            if cur.remaining() != expect {
                return Err(NetError::Decode(format!(
                    "QSGD payload of {len} codes at {bits} bits needs {expect} bytes, have {}",
                    cur.remaining()
                )));
            }
            let packed = cur.take(expect)?;
            let mut codes = pool.map_or_else(Vec::new, BufferPool::take_i8);
            codes.reserve(len);
            let mut acc: u64 = 0;
            let mut nbits: usize = 0;
            let mut next = 0usize;
            let mask: u64 = (1 << bits) - 1;
            for _ in 0..len {
                while nbits < bits {
                    acc |= (packed[next] as u64) << nbits;
                    next += 1;
                    nbits += 8;
                }
                let sym = (acc & mask) as i32;
                acc >>= bits;
                nbits -= bits;
                let code = sym - levels as i32;
                if !(i8::MIN as i32..=i8::MAX as i32).contains(&code) {
                    return Err(NetError::Decode(format!(
                        "QSGD symbol {sym} out of i8 code range for levels {levels}"
                    )));
                }
                codes.push(code as i8);
            }
            Ok(Compressed::Qsgd {
                norm,
                levels,
                codes,
                len,
            })
        }
        TAG_TOPK => {
            if !cur.remaining().is_multiple_of(8) {
                return Err(NetError::Decode(format!(
                    "Top-k payload of {} bytes is not a whole number of (u32, f32) pairs",
                    cur.remaining()
                )));
            }
            let k = cur.remaining() / 8;
            let mut indices = pool.map_or_else(Vec::new, BufferPool::take_u32);
            let mut values = pool.map_or_else(Vec::new, BufferPool::take_f32);
            indices.reserve(k);
            values.reserve(k);
            for _ in 0..k {
                let i = cur.u32()?;
                if i as usize >= len {
                    return Err(NetError::Decode(format!(
                        "Top-k index {i} out of range for {len} elements"
                    )));
                }
                // The server's block pass walks the pairs in index order.
                if let Some(&prev) = indices.last().filter(|&&prev| prev >= i) {
                    return Err(NetError::Decode(format!(
                        "Top-k index {i} follows {prev}; indices must ascend strictly"
                    )));
                }
                indices.push(i);
                values.push(cur.f32()?);
            }
            Ok(Compressed::TopK {
                indices,
                values,
                len,
            })
        }
        t => Err(NetError::Decode(format!("unknown payload tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// message codec
// ---------------------------------------------------------------------------

/// Encode a push message body into `buf` (cleared first).
pub fn encode_push_into(worker: u32, key: u32, payload: &Compressed, buf: &mut Vec<u8>) {
    let tail = encode_push_parts(worker, key, payload, buf);
    buf.extend_from_slice(tail);
}

/// A push message body in two parts, for [`crate::Transport::send_parts`]
/// — the worker hot path: the head (opcode, routing, payload header) goes
/// into `buf` (cleared first), the returned tail is the payload's bulk,
/// borrowed from `payload` (see [`encode_compressed_parts`]). `buf ++
/// tail` is exactly what [`encode_push_into`] produces.
pub fn encode_push_parts<'a>(
    worker: u32,
    key: u32,
    payload: &'a Compressed,
    buf: &mut Vec<u8>,
) -> &'a [u8] {
    buf.clear();
    buf.push(OP_PUSH);
    put_u32(buf, worker);
    put_u32(buf, key);
    encode_compressed_parts(payload, buf)
}

/// Encode a pull-reply body into `buf` (cleared first). Takes the weight
/// slice by reference so the server can frame an `Arc<[f32]>` snapshot
/// without materialising a `Vec`.
pub fn encode_pull_reply_into(key: u32, min_version: u64, weights: &[f32], buf: &mut Vec<u8>) {
    encode_pull_reply_head_into(key, min_version, buf);
    put_f32s(buf, weights);
}

/// Encode everything of a pull-reply body *before* the weights into
/// `buf` (cleared first): the head of a two-part send whose tail is the
/// shared snapshot itself ([`crate::Tail::F32s`]), so one snapshot
/// answers any number of connections without being encoded once.
pub fn encode_pull_reply_head_into(key: u32, min_version: u64, buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(OP_PULL_REPLY);
    put_u32(buf, key);
    put_u64(buf, min_version);
}

/// Encode any [`WireMsg`] into `buf` (cleared first): the one message
/// encoder, each kind's bytes written in its arm. A push and a pull reply
/// are the bytes of their two-part forms joined ([`encode_push_parts`],
/// [`encode_pull_reply_head_into`]), which the hot paths send unjoined.
///
/// # Panics
/// If a snapshot reply's weights and versions differ in key count, or a
/// push payload breaks its own invariants ([`encode_compressed_parts`]).
pub fn encode_msg_into(msg: &WireMsg, buf: &mut Vec<u8>) {
    buf.clear();
    match msg {
        WireMsg::Push {
            worker,
            key,
            payload,
        } => encode_push_into(*worker, *key, payload, buf),
        WireMsg::Pull { key, min_version } => {
            buf.push(OP_PULL);
            put_u32(buf, *key);
            put_u64(buf, *min_version);
        }
        WireMsg::PullReply {
            key,
            min_version,
            weights,
        } => encode_pull_reply_into(*key, *min_version, weights, buf),
        WireMsg::SetLr { lr } => {
            buf.push(OP_SET_LR);
            put_f32(buf, *lr);
        }
        WireMsg::Snapshot => buf.push(OP_SNAPSHOT),
        // Key count, then per key its version, length and raw weights.
        WireMsg::SnapshotReply { weights, versions } => {
            assert_eq!(weights.len(), versions.len(), "snapshot key count mismatch");
            buf.push(OP_SNAPSHOT_REPLY);
            put_u32(buf, weights.len() as u32);
            for (w, &v) in weights.iter().zip(versions) {
                put_u64(buf, v);
                put_u32(buf, w.len() as u32);
                put_f32s(buf, w);
            }
        }
        WireMsg::Shutdown => buf.push(OP_SHUTDOWN),
        WireMsg::Register { worker } => {
            buf.push(OP_REGISTER);
            put_u32(buf, *worker);
        }
        // Key count, then one version per key.
        WireMsg::RegisterAck { versions } => {
            buf.push(OP_REGISTER_ACK);
            put_u32(buf, versions.len() as u32);
            for &v in versions {
                put_u64(buf, v);
            }
        }
        WireMsg::Heartbeat { worker } => {
            buf.push(OP_HEARTBEAT);
            put_u32(buf, *worker);
        }
        WireMsg::Leave { worker } => {
            buf.push(OP_LEAVE);
            put_u32(buf, *worker);
        }
        WireMsg::CancelJoin { worker } => {
            buf.push(OP_CANCEL_JOIN);
            put_u32(buf, *worker);
        }
        WireMsg::Checkpoint => buf.push(OP_CHECKPOINT),
        // A success byte, then the captured round only on success.
        WireMsg::CheckpointAck { round } => {
            buf.push(OP_CHECKPOINT_ACK);
            match round {
                Some(r) => {
                    buf.push(1);
                    put_u64(buf, *r);
                }
                None => buf.push(0),
            }
        }
    }
}

/// Decode one frame body into a [`WireMsg`], consuming the entire slice.
pub fn decode_msg(bytes: &[u8]) -> Result<WireMsg, NetError> {
    decode_msg_in(bytes, None)
}

/// [`decode_msg`] with a push payload's storage drawn from `pool` (the
/// one the receiver recycles aggregated payloads into).
pub fn decode_msg_pooled(bytes: &[u8], pool: &BufferPool) -> Result<WireMsg, NetError> {
    decode_msg_in(bytes, Some(pool))
}

/// What the head of a push or a pull reply says, read before the rest of
/// its frame: enough to route it and to size — or refuse — storage for
/// its payload. A frame whose bulk landed outside the frame buffer (see
/// [`crate::Landing`]) is decoded as its head plus the storage the bulk
/// landed in: `Push { .. raw: true }` and `len` f32s make
/// `WireMsg::Push` with a `Compressed::Raw` payload, `PullReply` and `len`
/// weights make `WireMsg::PullReply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameHead {
    /// A push whose payload header declares `len` elements, whatever its
    /// codec; `raw` when the payload is those `len` f32s themselves.
    Push {
        worker: u32,
        key: u32,
        len: usize,
        raw: bool,
    },
    /// A pull reply of `len` weights.
    PullReply {
        key: u32,
        min_version: u64,
        len: usize,
    },
}

impl FrameHead {
    /// Body bytes of the head: opcode, worker, key and payload header, or
    /// opcode, key and version — 13 either way.
    pub const BYTES: usize = 13;
}

/// The landed decode: the [`FrameHead`] of a frame whose first
/// [`FrameHead::BYTES`] body bytes are `head` and whose other `rest`
/// bytes are still to come. A raw push must declare exactly `rest / 4`
/// elements and a pull reply bring whole f32s; any other frame or a head
/// that does not parse is a [`NetError::Decode`] — such a frame is read,
/// and decoded or refused, whole. Reads the head only: nothing is
/// reserved, whatever `rest` claims.
pub fn decode_head(head: &[u8], rest: usize) -> Result<FrameHead, NetError> {
    let mut cur = Cursor::new(head);
    let parsed = match cur.u8()? {
        OP_PUSH => {
            let (worker, key, header) = (cur.u32()?, cur.u32()?, cur.u32()?);
            let (tag, len) = (header >> LEN_BITS, (header & LEN_MASK) as usize);
            if tag == TAG_RAW && rest != 4 * len {
                return Err(NetError::Decode(format!(
                    "raw push of {len} elements followed by {rest} bytes"
                )));
            }
            FrameHead::Push {
                worker,
                key,
                len,
                raw: tag == TAG_RAW,
            }
        }
        OP_PULL_REPLY => {
            let (key, min_version) = (cur.u32()?, cur.u64()?);
            if !rest.is_multiple_of(4) {
                return Err(NetError::Decode(format!(
                    "pull reply followed by {rest} bytes, not whole f32s"
                )));
            }
            FrameHead::PullReply {
                key,
                min_version,
                len: rest / 4,
            }
        }
        op => {
            return Err(NetError::Decode(format!(
                "opcode {op} has no head to land a bulk after"
            )))
        }
    };
    if cur.remaining() != 0 {
        return Err(NetError::Decode(format!(
            "{}-byte head, want {}",
            head.len(),
            FrameHead::BYTES
        )));
    }
    Ok(parsed)
}

/// `count` entries of at least `each` bytes from `cur`, or the
/// [`NetError::Decode`] for a count the bytes left cannot hold — checked
/// before anything is reserved for them.
fn bounded(cur: &Cursor, count: u32, each: usize) -> Result<usize, NetError> {
    let count = count as usize;
    if count > cur.remaining() / each {
        return Err(NetError::Decode(format!(
            "{count} entries of at least {each} bytes in {} bytes",
            cur.remaining()
        )));
    }
    Ok(count)
}

fn decode_msg_in(bytes: &[u8], pool: Option<&BufferPool>) -> Result<WireMsg, NetError> {
    let mut cur = Cursor::new(bytes);
    let op = cur.u8()?;
    let msg = match op {
        OP_PUSH => {
            let worker = cur.u32()?;
            let key = cur.u32()?;
            let payload = decode_compressed_in(cur.take(cur.remaining())?, pool)?;
            WireMsg::Push {
                worker,
                key,
                payload,
            }
        }
        OP_PULL => WireMsg::Pull {
            key: cur.u32()?,
            min_version: cur.u64()?,
        },
        OP_PULL_REPLY => {
            let key = cur.u32()?;
            let min_version = cur.u64()?;
            if !cur.remaining().is_multiple_of(4) {
                return Err(NetError::Decode(format!(
                    "pull reply body of {} bytes is not whole f32s",
                    cur.remaining()
                )));
            }
            // One pass from the frame into the shared allocation the
            // waiting pull is handed (exact-size collect: no `Vec`
            // between).
            WireMsg::PullReply {
                key,
                min_version,
                weights: le_f32s(cur.take(cur.remaining())?).collect(),
            }
        }
        OP_SET_LR => WireMsg::SetLr { lr: cur.f32()? },
        OP_SNAPSHOT => WireMsg::Snapshot,
        OP_SNAPSHOT_REPLY => {
            // Per key at least its version and length.
            let count = cur.u32()?;
            let keys = bounded(&cur, count, 12)?;
            let mut weights = Vec::with_capacity(keys);
            let mut versions = Vec::with_capacity(keys);
            for _ in 0..keys {
                versions.push(cur.u64()?);
                let n = cur.u32()? as usize;
                weights.push(cur.f32s(n)?);
            }
            WireMsg::SnapshotReply { weights, versions }
        }
        OP_SHUTDOWN => WireMsg::Shutdown,
        OP_REGISTER => WireMsg::Register { worker: cur.u32()? },
        OP_REGISTER_ACK => {
            let count = cur.u32()?;
            let keys = bounded(&cur, count, 8)?;
            let mut versions = Vec::with_capacity(keys);
            for _ in 0..keys {
                versions.push(cur.u64()?);
            }
            WireMsg::RegisterAck { versions }
        }
        OP_HEARTBEAT => WireMsg::Heartbeat { worker: cur.u32()? },
        OP_LEAVE => WireMsg::Leave { worker: cur.u32()? },
        OP_CANCEL_JOIN => WireMsg::CancelJoin { worker: cur.u32()? },
        OP_CHECKPOINT => WireMsg::Checkpoint,
        OP_CHECKPOINT_ACK => {
            let ok = cur.u8()?;
            let round = match ok {
                0 => None,
                1 => Some(cur.u64()?),
                b => {
                    return Err(NetError::Decode(format!(
                        "checkpoint ack success byte must be 0 or 1, got {b}"
                    )))
                }
            };
            WireMsg::CheckpointAck { round }
        }
        o => return Err(NetError::Decode(format!("unknown opcode {o}"))),
    };
    if cur.remaining() != 0 {
        return Err(NetError::Decode(format!(
            "{} trailing bytes after message",
            cur.remaining()
        )));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(c: &Compressed) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_compressed_into(c, &mut buf);
        buf
    }

    #[test]
    fn every_variant_round_trips_and_matches_wire_bytes() {
        let variants = vec![
            Compressed::Raw(vec![1.0, -2.5, 0.0]),
            Compressed::Raw(vec![]),
            Compressed::TwoBit {
                threshold: 0.5,
                packed: vec![0b0110_0001, 0b10],
                len: 5,
            },
            Compressed::OneBit {
                scale: 1.25,
                signs: vec![0b1010_1010],
                len: 8,
            },
            Compressed::Qsgd {
                norm: 3.0,
                levels: 4,
                codes: vec![-4, -1, 0, 2, 4],
                len: 5,
            },
            Compressed::TopK {
                indices: vec![0, 7],
                values: vec![1.5, -0.25],
                len: 9,
            },
            Compressed::TopK {
                indices: vec![],
                values: vec![],
                len: 0,
            },
        ];
        for c in variants {
            let bytes = encode(&c);
            assert_eq!(bytes.len(), c.wire_bytes(), "wire size invariant: {c:?}");
            assert_eq!(decode_compressed(&bytes).unwrap(), c, "round trip: {c:?}");
        }
    }

    #[test]
    fn qsgd_nine_bit_symbols_round_trip() {
        // levels = 255 forces 9-bit symbols spanning byte boundaries.
        let c = Compressed::Qsgd {
            norm: 1.0,
            levels: 255,
            codes: vec![-128, 127, 0, -1, 55],
            len: 5,
        };
        let bytes = encode(&c);
        assert_eq!(bytes.len(), c.wire_bytes());
        assert_eq!(decode_compressed(&bytes).unwrap(), c);
    }

    #[test]
    fn corrupted_payloads_error_instead_of_panicking() {
        // Truncated raw payload.
        let mut bytes = encode(&Compressed::Raw(vec![1.0, 2.0]));
        bytes.pop();
        assert!(matches!(
            decode_compressed(&bytes),
            Err(NetError::Decode(_))
        ));
        // Unknown tag.
        let bogus = ((7u32 << LEN_BITS) | 1).to_le_bytes().to_vec();
        assert!(matches!(
            decode_compressed(&bogus),
            Err(NetError::Decode(_))
        ));
        // Top-k index out of range.
        let evil = encode(&Compressed::TopK {
            indices: vec![2],
            values: vec![1.0],
            len: 8,
        });
        let mut evil_oob = evil.clone();
        evil_oob[4..8].copy_from_slice(&100u32.to_le_bytes());
        assert!(matches!(
            decode_compressed(&evil_oob),
            Err(NetError::Decode(_))
        ));
        // 2-bit payload with too few packed bytes for its element count.
        let mut short = encode(&Compressed::TwoBit {
            threshold: 0.5,
            packed: vec![0; 4],
            len: 16,
        });
        short.truncate(short.len() - 2);
        assert!(matches!(
            decode_compressed(&short),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            WireMsg::Push {
                worker: 3,
                key: 11,
                payload: Compressed::Raw(vec![0.5, -0.5]),
            },
            WireMsg::Pull {
                key: 2,
                min_version: 40,
            },
            WireMsg::PullReply {
                key: 2,
                min_version: 40,
                weights: vec![1.0, 2.0, 3.0].into(),
            },
            WireMsg::SetLr { lr: 0.05 },
            WireMsg::Snapshot,
            WireMsg::SnapshotReply {
                weights: vec![vec![1.0], vec![], vec![2.0, 3.0]],
                versions: vec![4, 0, 9],
            },
            WireMsg::Shutdown,
            WireMsg::Register { worker: 5 },
            WireMsg::RegisterAck {
                versions: vec![0, 7, 12],
            },
            WireMsg::RegisterAck { versions: vec![] },
            WireMsg::Heartbeat { worker: 5 },
            WireMsg::Leave { worker: 2 },
            WireMsg::CancelJoin { worker: 9 },
            WireMsg::Checkpoint,
            WireMsg::CheckpointAck { round: Some(24) },
            WireMsg::CheckpointAck { round: None },
        ];
        let mut buf = Vec::new();
        for m in msgs {
            encode_msg_into(&m, &mut buf);
            assert_eq!(decode_msg(&buf).unwrap(), m, "round trip: {m:?}");
        }
    }

    #[test]
    fn frame_size_helpers_match_actual_encodings() {
        let payload = Compressed::TwoBit {
            threshold: 0.5,
            packed: vec![0; 16],
            len: 64,
        };
        let mut buf = Vec::new();
        encode_push_into(1, 2, &payload, &mut buf);
        assert_eq!(
            buf.len() + FRAME_PREFIX_BYTES,
            push_frame_bytes(payload.wire_bytes())
        );

        let weights = vec![0.0f32; 33];
        encode_pull_reply_into(7, 12, &weights, &mut buf);
        assert_eq!(
            buf.len() + FRAME_PREFIX_BYTES,
            pull_reply_frame_bytes(weights.len())
        );
    }

    #[test]
    fn inbound_limit_covers_every_client_to_server_frame() {
        // The most verbose push of an n-element key, and every control
        // frame even when the shard's longest key is empty.
        let n = 5usize;
        let dense_topk = Compressed::TopK {
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
            len: n,
        };
        let mut buf = Vec::new();
        for payload in [dense_topk, Compressed::Raw(vec![1.0; n])] {
            encode_push_into(u32::MAX, u32::MAX, &payload, &mut buf);
            assert!(buf.len() <= max_inbound_body_bytes(n));
        }
        for msg in [
            WireMsg::Pull {
                key: u32::MAX,
                min_version: u64::MAX,
            },
            WireMsg::SetLr { lr: 0.5 },
            WireMsg::Snapshot,
            WireMsg::Shutdown,
            WireMsg::Register { worker: u32::MAX },
            WireMsg::Heartbeat { worker: u32::MAX },
            WireMsg::Leave { worker: u32::MAX },
            WireMsg::CancelJoin { worker: u32::MAX },
            WireMsg::Checkpoint,
        ] {
            encode_msg_into(&msg, &mut buf);
            assert!(buf.len() <= max_inbound_body_bytes(0), "{msg:?}");
        }
    }

    #[test]
    fn a_head_is_read_as_the_message_its_landed_bulk_completes() {
        let weights = [1.0f32, -0.0, f32::INFINITY];
        let mut frame = Vec::new();
        encode_pull_reply_into(3, 9, &weights, &mut frame);
        let (head, bulk) = frame.split_at(FrameHead::BYTES);
        let reply = FrameHead::PullReply {
            key: 3,
            min_version: 9,
            len: 3,
        };
        assert_eq!(decode_head(head, bulk.len()), Ok(reply));
        encode_push_into(4, 2, &Compressed::Raw(weights.to_vec()), &mut frame);
        let (head, bulk) = frame.split_at(FrameHead::BYTES);
        let push = |len, raw| FrameHead::Push {
            worker: 4,
            key: 2,
            len,
            raw,
        };
        assert_eq!(decode_head(head, bulk.len()), Ok(push(3, true)));
        // A raw push's declared length must be what follows; a
        // compressed one declares its element count, whatever follows.
        assert!(decode_head(head, bulk.len() - 4).is_err());
        let two_bit = Compressed::TwoBit {
            threshold: 0.5,
            packed: vec![0; 2],
            len: 7,
        };
        encode_push_into(4, 2, &two_bit, &mut frame);
        assert_eq!(decode_head(&frame[..13], 6), Ok(push(7, false)));
        // A reply of part-f32s, a head of the wrong size, and every other
        // message are not landed.
        encode_pull_reply_into(3, 9, &weights, &mut frame);
        assert!(decode_head(&frame[..13], 5).is_err());
        assert!(decode_head(&frame[..12], 12).is_err());
        assert!(decode_head(&frame[..14], 12).is_err());
        encode_msg_into(
            &WireMsg::Pull {
                key: 3,
                min_version: 9,
            },
            &mut frame,
        );
        assert!(decode_head(&frame, 8).is_err());
    }

    #[test]
    fn qsgd_with_zero_levels_is_refused_before_anything_is_reserved() {
        // 18 bytes declaring 2^29 - 1 codes of 0 bits each: every length
        // check passes with no packed byte, so the decoder used to
        // reserve and fill half a gigabyte of codes.
        let mut bytes = ((TAG_QSGD << LEN_BITS) | LEN_MASK).to_le_bytes().to_vec();
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.push(0);
        assert!(matches!(
            decode_compressed(&bytes),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn a_register_ack_count_past_its_bytes_is_refused() {
        // Five bytes claiming 2^32 - 1 versions used to abort the
        // process: the reservation for them could not be made.
        let frame = [OP_REGISTER_ACK, 0xff, 0xff, 0xff, 0xff];
        assert!(matches!(decode_msg(&frame), Err(NetError::Decode(_))));
        // One version short of the count is refused too.
        let mut frame = Vec::new();
        let versions = vec![1, 2];
        encode_msg_into(&WireMsg::RegisterAck { versions }, &mut frame);
        frame[1] = 3;
        assert!(matches!(decode_msg(&frame), Err(NetError::Decode(_))));
    }

    #[test]
    fn a_snapshot_reply_count_past_its_bytes_is_refused() {
        let frame = [OP_SNAPSHOT_REPLY, 0xff, 0xff, 0xff, 0xff];
        assert!(matches!(decode_msg(&frame), Err(NetError::Decode(_))));
        // Two empty keys take 24 bytes; a third cannot fit in them.
        let mut frame = Vec::new();
        let (weights, versions) = (vec![vec![], vec![]], vec![1, 2]);
        encode_msg_into(&WireMsg::SnapshotReply { weights, versions }, &mut frame);
        frame[1] = 3;
        assert!(matches!(decode_msg(&frame), Err(NetError::Decode(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_msg_into(
            &WireMsg::Pull {
                key: 1,
                min_version: 2,
            },
            &mut buf,
        );
        buf.push(0);
        assert!(matches!(decode_msg(&buf), Err(NetError::Decode(_))));
    }

    #[test]
    fn collective_chunk_round_trips_exactly() {
        let values = [1.5f32, -0.25, f32::MIN_POSITIVE, 3.0e8];
        let mut buf = Vec::new();
        encode_collective_into(COLLECTIVE_SCATTER, 7, &values, &mut buf);
        assert_eq!(
            buf.len() + FRAME_PREFIX_BYTES,
            collective_frame_bytes(values.len())
        );
        let frame = decode_collective(&buf).unwrap();
        assert_eq!(frame.phase, COLLECTIVE_SCATTER);
        assert_eq!(frame.index, 7);
        assert_eq!(frame.len(), 4);
        let mut out = [0.0f32; 4];
        frame.read_f32_into(&mut out).unwrap();
        // Bit-exact round trip: the wire must never perturb f32 chunks,
        // or cross-backend bit-identity (DESIGN.md §16) breaks.
        for (a, b) in out.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn collective_exchange_carries_opaque_bytes() {
        let payload = [9u8, 8, 7, 6, 5];
        let mut buf = Vec::new();
        encode_collective_bytes_into(COLLECTIVE_EXCHANGE, 2, &payload, &mut buf);
        let frame = decode_collective(&buf).unwrap();
        assert_eq!(frame.phase, COLLECTIVE_EXCHANGE);
        assert_eq!(frame.index, 2);
        assert_eq!(frame.bytes(), &payload);
    }

    #[test]
    fn collective_decode_rejects_corruption() {
        // Wrong leading tag: a PS frame body must not parse.
        let mut buf = Vec::new();
        encode_msg_into(
            &WireMsg::Pull {
                key: 1,
                min_version: 2,
            },
            &mut buf,
        );
        assert!(decode_collective(&buf).is_err());
        // Truncated payload.
        let mut buf = Vec::new();
        encode_collective_into(COLLECTIVE_GATHER, 0, &[1.0, 2.0], &mut buf);
        buf.pop();
        assert!(decode_collective(&buf).is_err());
        // Unknown phase.
        let mut buf = Vec::new();
        encode_collective_bytes_into(99, 0, &[], &mut buf);
        assert!(decode_collective(&buf).is_err());
        // Chunk length mismatch at read time.
        let mut buf = Vec::new();
        encode_collective_into(COLLECTIVE_SCATTER, 0, &[1.0, 2.0], &mut buf);
        let frame = decode_collective(&buf).unwrap();
        let mut out = [0.0f32; 3];
        assert!(frame.read_f32_into(&mut out).is_err());
    }
}
