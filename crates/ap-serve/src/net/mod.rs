//! The network front door: TCP serving over a length-prefixed binary
//! protocol.
//!
//! The paper positions the AP as a shared datacenter accelerator that a front
//! end streams similarity queries into (§VI); everything below this module
//! ends at the in-process [`crate::ServiceRuntime`]. This module is the
//! missing entry point:
//!
//! ```text
//!               TCP (loopback or the datacenter fabric)
//!  ApClient ──Submit{corr, options, query}──▶ connection thread ──admit──▶ ServiceRuntime
//!     ▲                                       (one per connection)        (queue,
//!     │                                                                    workers)
//!     └──Completed{corr, neighbors} ◀── the ticket's callback, on the ◀─────┘
//!        Failed{corr, typed error}       thread that resolves it
//! ```
//!
//! * [`Frame`] / [`FrameBuffer`] — the wire codec: magic + version +
//!   length-prefixed frames carrying full [`binvec::QueryOptions`] per query
//!   (priority, deadline budget, bound, execution preference all travel),
//!   decoding into typed [`binvec::WireError`]s — never a panic, never an
//!   allocation sized by a hostile declared length.
//! * [`ApServer`] — accepts connections, decodes frames, feeds the runtime;
//!   one thread per connection. Each admitted ticket's callback writes its
//!   response frame on the thread that resolves it — a runtime worker, or
//!   the connection thread for a cache hit or an expired deadline — so no
//!   thread waits on a single ticket. A frame that takes two seconds to
//!   write drops the connection, so a peer that stops reading cannot hold a
//!   worker. Graceful shutdown stops reading new frames but drains every
//!   in-flight ticket before closing sockets.
//! * [`ApClient`] — the blocking client: pipelined `submit`/`recv_completion`
//!   or one-shot `search`, live-corpus mutations (`insert`/`delete` one-shots
//!   and their pipelined forms), `ping`, and a remote [`StatsFrame`]
//!   snapshot. Every blocking read and write is bounded by a configurable
//!   I/O timeout that surfaces as the typed [`NetError::Timeout`] instead of
//!   hanging on a stalled server.

mod client;
mod frame;
mod server;

pub use client::{ApClient, RetryPolicy, DEFAULT_IO_TIMEOUT};
pub use frame::{Frame, FrameBuffer, StatsFrame, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
pub use server::ApServer;

use binvec::{SearchError, WireError};
use std::fmt;
use std::time::Duration;

/// Everything that can go wrong on the client side of a connection.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed.
    Io(std::io::Error),
    /// A blocking read or write exceeded the client's configured I/O
    /// timeout — the server stalled (or the network did) without closing the
    /// connection, which a plain blocking read would wait on forever.
    Timeout {
        /// The configured timeout that elapsed.
        after: Duration,
    },
    /// The peer sent bytes that are not valid protocol.
    Wire(WireError),
    /// The query itself failed — the server answered with a typed
    /// [`SearchError`] instead of neighbors.
    Query(SearchError),
    /// The peer violated the protocol state machine (e.g. closed mid-query).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Timeout { after } => write!(f, "timed out after {after:?}"),
            Self::Wire(e) => write!(f, "wire protocol error: {e}"),
            Self::Query(e) => write!(f, "query failed: {e}"),
            Self::Protocol(reason) => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Wire(e) => Some(e),
            Self::Query(e) => Some(e),
            Self::Timeout { .. } | Self::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<SearchError> for NetError {
    fn from(e: SearchError) -> Self {
        Self::Query(e)
    }
}
