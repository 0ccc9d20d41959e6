//! The blocking client side of the wire protocol.

use super::frame::{Frame, FrameBuffer, StatsFrame};
use super::NetError;
use binvec::{BinaryVector, MutAck, Neighbor, QueryOptions, SearchError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Read chunk size for the client's socket reads.
const READ_CHUNK: usize = 16 * 1024;

/// Bounded exponential backoff for transparently reconnecting and retrying
/// *idempotent* client operations ([`ApClient::ping`], [`ApClient::stats`],
/// [`ApClient::search`]) after a transient transport fault — a timed-out
/// read, a connection reset, or a server that hung up mid-stream.
///
/// Retrying is strictly opt-in via [`ApClient::set_retry`]: mutations
/// (`insert`/`delete`) are never retried, because a lost ack does not mean a
/// lost mutation — resubmitting could apply it twice. A retried search is
/// resubmitted under a fresh correlation id on the new connection, so a stale
/// completion from the dead connection can never be confused for the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff slept before the first reconnect.
    pub initial_backoff: Duration,
    /// Backoff cap: doubling stops here.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Overrides the total attempt budget (including the first attempt).
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// Overrides the backoff before the first reconnect.
    pub fn with_initial_backoff(mut self, backoff: Duration) -> Self {
        self.initial_backoff = backoff;
        self
    }

    /// Overrides the backoff cap.
    pub fn with_max_backoff(mut self, backoff: Duration) -> Self {
        self.max_backoff = backoff;
        self
    }

    /// The backoff slept before reconnect attempt `attempt` (1-based):
    /// `initial_backoff · 2^(attempt−1)`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        self.initial_backoff
            .saturating_mul(1 << doublings)
            .min(self.max_backoff)
    }
}

/// Default bound on any single blocking socket read or write. Generous enough
/// for a saturated server draining a deep queue, but finite: a stalled server
/// surfaces as a typed [`NetError::Timeout`] instead of a read that never
/// returns.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking TCP client for [`super::ApServer`].
///
/// Two usage shapes:
///
/// * **One-shot**: [`Self::search`] submits a query and blocks until *its*
///   answer arrives (out-of-order completions for other in-flight queries are
///   stashed and served later).
/// * **Pipelined**: call [`Self::submit`] repeatedly to put many queries in
///   flight on one connection, then collect answers in completion order with
///   [`Self::recv_completion`] — this is how `apbench`'s `pipelined_lanes`
///   workload keeps the server's queue full from a single socket.
pub struct ApClient {
    stream: TcpStream,
    frames: FrameBuffer,
    chunk: Vec<u8>,
    scratch: Vec<u8>,
    /// Frames that arrived while waiting for a different correlation id.
    inbox: VecDeque<(u64, Frame)>,
    next_correlation: u64,
    io_timeout: Option<Duration>,
    /// The resolved peer address, kept so [`Self::reconnect`] can redial.
    peer: SocketAddr,
    retry: Option<RetryPolicy>,
}

impl ApClient {
    /// Connects to a server with the [`DEFAULT_IO_TIMEOUT`] on every blocking
    /// read and write.
    ///
    /// # Errors
    /// Whatever the TCP connect or socket configuration returns.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects with an explicit I/O timeout; `None` restores the historical
    /// unbounded blocking reads (a stalled server then hangs the caller).
    ///
    /// # Errors
    /// Whatever the TCP connect or socket configuration returns.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream,
            frames: FrameBuffer::new(),
            chunk: vec![0u8; READ_CHUNK],
            scratch: Vec::with_capacity(4096),
            inbox: VecDeque::new(),
            next_correlation: 1, // 0 is the server's connection-fault farewell
            io_timeout,
            peer,
            retry: None,
        })
    }

    /// Enables (`Some`) or disables (`None`, the default) transparent
    /// reconnect-and-retry of the idempotent operations — see [`RetryPolicy`].
    pub fn set_retry(&mut self, retry: Option<RetryPolicy>) {
        self.retry = retry;
    }

    /// The configured retry policy (`None` = retries disabled).
    pub fn retry(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Drops the current connection and dials the same peer again, resetting
    /// the frame reassembly buffer and discarding stashed completions (their
    /// correlations died with the old connection). In-flight pipelined work
    /// is lost; correlation ids keep counting up, so ids from the old
    /// connection are never reused on the new one.
    ///
    /// # Errors
    /// Whatever the TCP connect or socket configuration returns.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.stream = stream;
        self.frames = FrameBuffer::new();
        self.inbox.clear();
        Ok(())
    }

    /// Whether `error` is a transient transport fault a reconnect can cure:
    /// a timeout, a reset/aborted/refused connection, or a server that
    /// closed the stream mid-frame. Typed query failures and protocol
    /// violations are not — the server answered, just not with neighbors.
    fn retryable(error: &NetError) -> bool {
        match error {
            NetError::Timeout { .. } => true,
            NetError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::UnexpectedEof
            ),
            NetError::Protocol(reason) => reason.contains("closed the connection"),
            NetError::Wire(_) | NetError::Query(_) => false,
        }
    }

    /// Runs `op`, reconnecting and re-running on retryable faults per the
    /// configured policy. With no policy this is just `op` once.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let Some(policy) = self.retry else {
            return op(self);
        };
        let mut outcome = op(self);
        for attempt in 1..policy.attempts.max(1) {
            match &outcome {
                Err(error) if Self::retryable(error) => {}
                _ => break,
            }
            std::thread::sleep(policy.backoff(attempt));
            outcome = match self.reconnect() {
                // A failed redial is itself retryable (ConnectionRefused):
                // the next attempt backs off further and tries again.
                Err(e) => Err(NetError::Io(e)),
                Ok(()) => op(self),
            };
        }
        outcome
    }

    /// Rebounds every subsequent blocking read and write by `io_timeout`
    /// (`None` for unbounded).
    ///
    /// # Errors
    /// Whatever the socket configuration returns.
    pub fn set_io_timeout(&mut self, io_timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(io_timeout)?;
        self.stream.set_write_timeout(io_timeout)?;
        self.io_timeout = io_timeout;
        Ok(())
    }

    /// The currently configured I/O timeout (`None` = unbounded).
    pub fn io_timeout(&self) -> Option<Duration> {
        self.io_timeout
    }

    /// Maps a socket error to the typed timeout when the configured bound is
    /// what fired. A timed-out blocking socket reports `WouldBlock` or
    /// `TimedOut` depending on the platform; both mean the deadline elapsed.
    fn io_error(&self, e: std::io::Error) -> NetError {
        match (self.io_timeout, e.kind()) {
            (Some(after), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                NetError::Timeout { after }
            }
            _ => NetError::Io(e),
        }
    }

    /// Submits a query without waiting for its answer; returns the
    /// correlation id its eventual `Completed`/`Failed` frame will carry.
    ///
    /// # Errors
    /// [`NetError::Io`] if the socket write fails.
    pub fn submit(&mut self, query: BinaryVector, options: QueryOptions) -> Result<u64, NetError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        self.send(correlation, &Frame::Submit { options, query })?;
        Ok(correlation)
    }

    /// Blocks for the next query completion (in server completion order, not
    /// submission order) and returns its correlation id alongside the typed
    /// per-query outcome.
    ///
    /// # Errors
    /// [`NetError::Io`] / [`NetError::Wire`] on transport faults,
    /// [`NetError::Protocol`] if the server hangs up or sends a non-completion
    /// frame.
    pub fn recv_completion(
        &mut self,
    ) -> Result<(u64, Result<Vec<Neighbor>, SearchError>), NetError> {
        let (correlation, frame) = match self.inbox.pop_front() {
            Some(entry) => entry,
            None => self.next_frame_blocking()?,
        };
        match frame {
            Frame::Completed { neighbors } => Ok((correlation, Ok(neighbors))),
            Frame::Failed { error } if correlation == 0 => {
                // Correlation 0 is the server's farewell for a faulted
                // connection, not a per-query outcome.
                Err(NetError::Protocol(format!(
                    "server failed the connection: {error}"
                )))
            }
            Frame::Failed { error } => Ok((correlation, Err(error))),
            other => Err(NetError::Protocol(format!(
                "expected a completion frame, got {}",
                frame_name(&other)
            ))),
        }
    }

    /// Submits one query and blocks until its answer arrives. Completions for
    /// other in-flight queries observed while waiting are stashed for later
    /// [`Self::recv_completion`] calls.
    ///
    /// With a [`RetryPolicy`] configured, a transient transport fault
    /// reconnects and resubmits the query under a fresh correlation id —
    /// queries are idempotent, so a resubmission at worst answers twice and
    /// the stale answer died with the old connection.
    ///
    /// # Errors
    /// Transport faults as [`NetError::Io`]/[`NetError::Wire`]/
    /// [`NetError::Protocol`]; a typed per-query failure as
    /// [`NetError::Query`].
    pub fn search(
        &mut self,
        query: BinaryVector,
        options: QueryOptions,
    ) -> Result<Vec<Neighbor>, NetError> {
        self.with_retries(|client| client.search_once(query.clone(), options))
    }

    fn search_once(
        &mut self,
        query: BinaryVector,
        options: QueryOptions,
    ) -> Result<Vec<Neighbor>, NetError> {
        let want = self.submit(query, options)?;
        let (correlation, frame) = self.wait_for(want)?;
        debug_assert_eq!(correlation, want);
        match frame {
            Frame::Completed { neighbors } => Ok(neighbors),
            Frame::Failed { error } => Err(NetError::Query(error)),
            other => Err(NetError::Protocol(format!(
                "expected a completion frame, got {}",
                frame_name(&other)
            ))),
        }
    }

    /// Round-trips a `Ping` and returns the measured latency. Reconnects and
    /// retries transient transport faults when a [`RetryPolicy`] is set.
    ///
    /// # Errors
    /// Transport faults; [`NetError::Protocol`] if the reply is not `Pong`.
    pub fn ping(&mut self) -> Result<Duration, NetError> {
        self.with_retries(Self::ping_once)
    }

    fn ping_once(&mut self) -> Result<Duration, NetError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        let started = Instant::now();
        self.send(correlation, &Frame::Ping)?;
        let (_, frame) = self.wait_for(correlation)?;
        match frame {
            Frame::Pong => Ok(started.elapsed()),
            other => Err(NetError::Protocol(format!(
                "expected Pong, got {}",
                frame_name(&other)
            ))),
        }
    }

    /// Fetches the server's runtime configuration + statistics snapshot.
    /// Reconnects and retries transient transport faults when a
    /// [`RetryPolicy`] is set.
    ///
    /// # Errors
    /// Transport faults; [`NetError::Protocol`] if the reply is not `Stats`.
    pub fn stats(&mut self) -> Result<StatsFrame, NetError> {
        self.with_retries(Self::stats_once)
    }

    fn stats_once(&mut self) -> Result<StatsFrame, NetError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        self.send(correlation, &Frame::StatsRequest)?;
        let (_, frame) = self.wait_for(correlation)?;
        match frame {
            Frame::Stats(snapshot) => Ok(*snapshot),
            other => Err(NetError::Protocol(format!(
                "expected Stats, got {}",
                frame_name(&other)
            ))),
        }
    }

    /// Appends a vector to the server's live corpus and blocks for its ack.
    ///
    /// # Errors
    /// Transport faults; [`NetError::Query`] if the server refused the
    /// mutation (e.g. a frozen-corpus backend answers
    /// [`SearchError::Unsupported`]).
    pub fn insert(
        &mut self,
        vector: BinaryVector,
        options: QueryOptions,
    ) -> Result<MutAck, NetError> {
        let correlation = self.submit_insert(vector, options)?;
        self.wait_ack(correlation)
    }

    /// Tombstones a stable id out of the server's live corpus and blocks for
    /// its ack.
    ///
    /// # Errors
    /// Transport faults; [`NetError::Query`] on a typed refusal.
    pub fn delete(&mut self, id: u64, options: QueryOptions) -> Result<MutAck, NetError> {
        let correlation = self.submit_delete(id, options)?;
        self.wait_ack(correlation)
    }

    /// Submits an insert without waiting for its ack; returns the correlation
    /// id its eventual `MutAck`/`Failed` frame will carry.
    ///
    /// # Errors
    /// [`NetError::Io`] / [`NetError::Timeout`] if the socket write fails.
    pub fn submit_insert(
        &mut self,
        vector: BinaryVector,
        options: QueryOptions,
    ) -> Result<u64, NetError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        self.send(correlation, &Frame::Insert { options, vector })?;
        Ok(correlation)
    }

    /// Submits a delete without waiting for its ack; returns the correlation
    /// id its eventual `MutAck`/`Failed` frame will carry.
    ///
    /// # Errors
    /// [`NetError::Io`] / [`NetError::Timeout`] if the socket write fails.
    pub fn submit_delete(&mut self, id: u64, options: QueryOptions) -> Result<u64, NetError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        self.send(correlation, &Frame::Delete { options, id })?;
        Ok(correlation)
    }

    /// Blocks until the mutation submitted under `correlation` resolves.
    /// Completions for other in-flight work observed while waiting are
    /// stashed, so acks and query completions interleave freely on one
    /// connection.
    ///
    /// # Errors
    /// Transport faults; [`NetError::Query`] on a typed refusal;
    /// [`NetError::Protocol`] if the reply is not a mutation outcome.
    pub fn wait_ack(&mut self, correlation: u64) -> Result<MutAck, NetError> {
        let (_, frame) = self.wait_for(correlation)?;
        match frame {
            Frame::MutAck(ack) => Ok(ack),
            Frame::Failed { error } => Err(NetError::Query(error)),
            other => Err(NetError::Protocol(format!(
                "expected a mutation ack, got {}",
                frame_name(&other)
            ))),
        }
    }

    fn send(&mut self, correlation: u64, frame: &Frame) -> Result<(), NetError> {
        self.scratch.clear();
        frame.encode(correlation, &mut self.scratch);
        self.stream
            .write_all(&self.scratch)
            .map_err(|e| self.io_error(e))?;
        Ok(())
    }

    /// Blocks until the frame with `want` arrives, stashing every other frame
    /// in the inbox in arrival order.
    fn wait_for(&mut self, want: u64) -> Result<(u64, Frame), NetError> {
        if let Some(at) = self.inbox.iter().position(|(c, _)| *c == want) {
            return Ok(self.inbox.remove(at).expect("indexed inbox entry"));
        }
        loop {
            let (correlation, frame) = self.next_frame_blocking()?;
            if correlation == want {
                return Ok((correlation, frame));
            }
            if correlation == 0 {
                if let Frame::Failed { error } = frame {
                    return Err(NetError::Protocol(format!(
                        "server failed the connection: {error}"
                    )));
                }
            }
            self.inbox.push_back((correlation, frame));
        }
    }

    /// Reads from the socket until one whole frame decodes.
    fn next_frame_blocking(&mut self) -> Result<(u64, Frame), NetError> {
        loop {
            if let Some((correlation, frame)) = self.frames.next_frame()? {
                return Ok((correlation, frame));
            }
            let n = self
                .stream
                .read(&mut self.chunk)
                .map_err(|e| self.io_error(e))?;
            if n == 0 {
                return Err(NetError::Protocol(
                    "server closed the connection mid-stream".to_string(),
                ));
            }
            self.frames.feed(&self.chunk[..n]);
        }
    }
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Ping => "Ping",
        Frame::Pong => "Pong",
        Frame::Submit { .. } => "Submit",
        Frame::Completed { .. } => "Completed",
        Frame::Failed { .. } => "Failed",
        Frame::StatsRequest => "StatsRequest",
        Frame::Stats(_) => "Stats",
        Frame::Insert { .. } => "Insert",
        Frame::Delete { .. } => "Delete",
        Frame::MutAck(_) => "MutAck",
    }
}
