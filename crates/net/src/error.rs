//! The typed error surface for everything that crosses a transport.

use std::fmt;

/// Errors produced by the wire codec, the transports, and the networked
/// parameter-server client/server built on top of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An underlying I/O failure (socket write/read error other than the
    /// cases mapped to the more specific variants below).
    Io(String),
    /// A receive deadline elapsed with no complete frame available. The
    /// partial state (if any) is preserved; the same call may be retried.
    Timeout,
    /// The peer is gone: it closed the connection at a frame boundary,
    /// or hung up so that a write found the pipe broken or a read found
    /// the connection reset.
    Closed,
    /// Bytes arrived but did not parse as a valid frame or payload.
    Decode(String),
    /// Connecting failed after the configured retries.
    Connect {
        addr: String,
        attempts: u32,
        last: String,
    },
    /// The parameter server is no longer reachable (its thread exited or
    /// the connection to it is gone). The in-process client maps dropped
    /// channel endpoints here, so a dead server surfaces as a recoverable
    /// error instead of a worker-thread panic.
    ServerGone,
    /// A worker replica died (exited with an error, panicked, or went
    /// silent past a deadline) and the synchronous round it owed can never
    /// complete. Produced by the trainer's supervisor when a worker thread
    /// is lost, and by the server's round deadline when a push never
    /// arrives; `round` is the first aggregate round the failure left
    /// unfinishable.
    WorkerLost {
        /// Id of the lost worker.
        id: usize,
        /// First round that can no longer complete.
        round: u64,
    },
    /// A request sent across shards did not complete cleanly on every
    /// shard. For a two-phase `register`, the join was already rolled
    /// back on the shards that had admitted the worker before this error
    /// returned; for the best-effort kinds (`leave`, `cancel_join`,
    /// `heartbeat`, `set_lr`, `shutdown`), every shard was still
    /// attempted.
    Membership {
        /// The request that failed, e.g. `"register"` or `"heartbeat"`.
        op: &'static str,
        /// Shard indices that failed, in shard order.
        shards: Vec<usize>,
        /// The last underlying per-shard failure.
        last: Box<NetError>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::Timeout => write!(f, "transport deadline elapsed"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Decode(e) => write!(f, "wire decode error: {e}"),
            NetError::Connect {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "failed to connect to {addr} after {attempts} attempts: {last}"
            ),
            NetError::ServerGone => write!(f, "parameter server is gone"),
            NetError::WorkerLost { id, round } => {
                write!(f, "worker {id} lost; round {round} cannot complete")
            }
            NetError::Membership { op, shards, last } => {
                write!(f, "{op} failed on shard(s) {shards:?}: {last}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout,
            // A peer that hung up, seen from either direction. An aborted
            // connection (`ConnectionAborted`, what `accept` reports for a
            // peer that left before it was accepted) stays an `Io`: only a
            // listener's closer may stop an accept loop with `Closed`.
            ErrorKind::UnexpectedEof | ErrorKind::BrokenPipe | ErrorKind::ConnectionReset => {
                NetError::Closed
            }
            _ => NetError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_kinds_map_to_variants() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            NetError::from(Error::new(ErrorKind::TimedOut, "t")),
            NetError::Timeout
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::WouldBlock, "w")),
            NetError::Timeout
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::UnexpectedEof, "e")),
            NetError::Closed
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::BrokenPipe, "b")),
            NetError::Closed
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::ConnectionReset, "r")),
            NetError::Closed
        );
        assert!(matches!(
            NetError::from(Error::new(ErrorKind::ConnectionAborted, "a")),
            NetError::Io(_)
        ));
        assert!(matches!(
            NetError::from(Error::new(ErrorKind::PermissionDenied, "p")),
            NetError::Io(_)
        ));
    }

    #[test]
    fn worker_lost_display_names_the_worker_and_round() {
        let e = NetError::WorkerLost { id: 3, round: 17 };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("17"), "{s}");
    }

    #[test]
    fn membership_display_names_op_shards_and_cause() {
        let e = NetError::Membership {
            op: "register",
            shards: vec![1, 3],
            last: Box::new(NetError::Closed),
        };
        let s = e.to_string();
        assert!(
            s.contains("register") && s.contains('1') && s.contains('3') && s.contains("closed"),
            "{s}"
        );
    }

    #[test]
    fn display_is_informative() {
        let e = NetError::Connect {
            addr: "127.0.0.1:9".into(),
            attempts: 3,
            last: "refused".into(),
        };
        let s = e.to_string();
        assert!(s.contains("127.0.0.1:9") && s.contains("3") && s.contains("refused"));
    }
}
