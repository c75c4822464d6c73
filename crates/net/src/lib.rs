//! `cdsgd-net`: the wire protocol and pluggable transports that let the
//! CD-SGD parameter server move gradients over real byte streams.
//!
//! The crate has two layers, over one small module of what safe `std`
//! lacks:
//!
//! - [`wire`] — byte-exact codecs for [`cdsgd_compress::Compressed`]
//!   payloads (invariant: `encode(c).len() == c.wire_bytes()`) and the
//!   framed [`wire::WireMsg`] messages built from them.
//! - [`transport`] — the [`transport::Transport`] trait and its one
//!   implementation, [`transport::FrameStream`]: length-prefixed frames
//!   over a byte stream, which is a TCP socket ([`transport::TcpTransport`],
//!   `TCP_NODELAY`, bounded retry with exponential backoff) or one end of
//!   an in-process Unix socket pair ([`transport::loopback_pair`]) — the
//!   *same* code either way.
//! - [`sys`] — `poll(2)` with a wake pipe, so an event loop blocks on
//!   readiness instead of sleeping, and the `f32`-slice-as-wire-bytes
//!   views behind the two-part send and the landed receive
//!   ([`transport::Landing`]). All of the crate's `unsafe` is here.
//!
//! The parameter-server glue (server acceptor loop, remote client) lives
//! in `cdsgd-ps::net`, keeping this crate dependent only on
//! `cdsgd-compress` so anything can speak the protocol.

pub mod error;
pub mod fault;
pub mod sys;
pub mod transport;
pub mod wire;

pub use error::NetError;
pub use fault::{FaultPlan, FaultyTransport};
pub use sys::{wake_pair, Poller, WakeRx, Waker};
pub use transport::{
    loopback_pair, FrameStream, Landing, NetConfig, ReconnectConfig, Tail, TcpAcceptor,
    TcpTransport, Transport, RECONNECT_BACKOFF_CAP,
};
pub use wire::{
    decode_compressed, decode_msg, encode_compressed_into, encode_msg_into, pull_reply_frame_bytes,
    push_frame_bytes, WireMsg, FRAME_PREFIX_BYTES, MAX_FRAME_BYTES,
};

pub use wire::{
    collective_frame_bytes, decode_collective, encode_collective_bytes_into,
    encode_collective_into, encode_collective_parts, CollectiveFrame, COLLECTIVE_EXCHANGE,
    COLLECTIVE_GATHER, COLLECTIVE_HEADER_BYTES, COLLECTIVE_HELLO, COLLECTIVE_SCATTER,
    TAG_COLLECTIVE_FRAME,
};
