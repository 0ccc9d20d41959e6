//! The TCP server: an accept loop and one thread per connection. That thread
//! decodes frames and admits tickets; whichever thread resolves a ticket
//! writes its response frame.

use super::frame::{Frame, FrameBuffer, StatsFrame};
use crate::runtime::{ServiceRuntime, TicketResult, Work};
use crate::stats::ServiceStats;
use binvec::{Mutation, SearchError};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked socket reads wake to check for shutdown. Bounds
/// shutdown latency; responses never wait on this tick.
const POLL_TICK: Duration = Duration::from_millis(20);

/// How long writing one frame may take. Runtime workers write responses, so
/// a peer that stops reading holds a worker for at most this long per frame;
/// then its connection is dropped and later frames to it are skipped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long `shutdown` waits on each of its two wake connects to its own
/// listener before giving up on the accept thread.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Read chunk size for connection readers.
const READ_CHUNK: usize = 16 * 1024;

/// A TCP front door over a [`ServiceRuntime`].
///
/// `bind` spawns the accept loop; each accepted connection gets **one**
/// thread that decodes frames and admits each query or mutation as a runtime
/// ticket. The ticket's callback writes its `Completed`/`MutAck`/`Failed`
/// frame on whichever thread resolves it — the runtime worker, or the
/// connection thread itself for a cache hit or an expired deadline — so
/// responses go out in completion order, matched to requests by correlation
/// id, and no thread ever blocks on a single ticket. A peer that stops
/// reading is disconnected once one frame to it has taken two seconds to
/// write.
///
/// Failure containment per connection: a malformed byte stream fails *that
/// connection* with a typed [`Frame::Failed`] farewell (correlation id 0) and
/// a close — the server, the runtime, and every other connection keep
/// serving. A well-formed frame carrying an invalid query (bad dims, zero k,
/// expired deadline, full queue) gets its typed per-query [`Frame::Failed`]
/// response and the connection continues.
///
/// [`Self::shutdown`] is graceful: stop accepting, stop *reading* new
/// queries, but every ticket already in flight is drained and its response
/// written before the sockets close.
pub struct ApServer {
    local_addr: SocketAddr,
    runtime: Arc<ServiceRuntime>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accepted: Arc<AtomicU64>,
}

impl ApServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// accepting connections that feed `runtime`.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidInput`] for a zero-worker runtime — no
    /// server thread calls [`ServiceRuntime::poll`], so every client would
    /// wait forever — and whatever binding the listener returns.
    pub fn bind(addr: impl ToSocketAddrs, runtime: Arc<ServiceRuntime>) -> std::io::Result<Self> {
        if runtime.worker_count() == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a zero-worker runtime is driven by its caller's poll(); \
                 serving it over the network needs at least one worker",
            ));
        }
        // A blocking accept: a new connection is taken the moment it
        // arrives. `shutdown` wakes it with a connection of its own.
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accepted = Arc::new(AtomicU64::new(0));

        let accept_handle = {
            let runtime = Arc::clone(&runtime);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let accepted = Arc::clone(&accepted);
            std::thread::Builder::new()
                .name("ap-net-accept".to_string())
                .spawn(move || {
                    loop {
                        let accept = listener.accept();
                        if shutdown.load(Ordering::Acquire) {
                            // The shutdown wake, or a client that raced it:
                            // either way the server no longer serves.
                            break;
                        }
                        match accept {
                            Ok((stream, _peer)) => {
                                let index = accepted.fetch_add(1, Ordering::Relaxed) + 1;
                                let runtime = Arc::clone(&runtime);
                                let shutdown = Arc::clone(&shutdown);
                                let spawned = std::thread::Builder::new()
                                    .name(format!("ap-net-conn-{index}"))
                                    .spawn(move || serve_connection(stream, &runtime, &shutdown));
                                let mut registry = connections.lock().expect("connection registry");
                                // Release finished connections' threads, so a
                                // long-lived server keeps only live ones:
                                // dropping a finished thread's handle frees
                                // it as a join would.
                                registry.retain(|handle| !handle.is_finished());
                                // A failed spawn dropped the stream with its
                                // closure: that peer sees a close, and the
                                // loop keeps accepting.
                                if let Ok(handle) = spawned {
                                    registry.push(handle);
                                }
                            }
                            // Transient accept failures (out of descriptors,
                            // an aborted handshake): back off, then retry.
                            Err(_) => std::thread::sleep(POLL_TICK),
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Self {
            local_addr,
            runtime,
            shutdown,
            accept_handle: Some(accept_handle),
            connections,
            accepted,
        })
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The runtime this server feeds.
    pub fn runtime(&self) -> &Arc<ServiceRuntime> {
        &self.runtime
    }

    /// Connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Gracefully shuts the server down: stop accepting, stop reading new
    /// frames, drain every in-flight ticket (each one's callback writes its
    /// response), close the sockets, join the threads. The runtime
    /// itself is left running — it belongs to the caller.
    ///
    /// Returns the runtime's statistics snapshot at shutdown.
    ///
    /// The accept loop blocks in `accept()`, so shutdown wakes it by
    /// connecting to the listener itself, trying twice with a 100 ms
    /// timeout each. If both connects fail (the address filters
    /// them, or the backlog is full), the accept thread is left behind
    /// rather than joined: until the next connection reaches it, it keeps
    /// the port bound and holds its reference to the runtime.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_impl();
        self.runtime.stats()
    }

    fn shutdown_impl(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            let wake = wake_addr(self.local_addr);
            let woken = (0..2).any(|_| TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok());
            if woken {
                let _ = handle.join();
            }
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.connections.lock().expect("connection registry"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ApServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Where `shutdown` connects to wake the accept loop: the listening address,
/// with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// The write half of one connection, shared by its thread and every runtime
/// thread that resolves one of its tickets, plus the count of tickets whose
/// response is still owed.
struct FrameSink {
    writer: Mutex<Writer>,
    in_flight: Mutex<usize>,
    drained: Condvar,
}

/// The socket's write half; the mutex around it keeps frames whole on the
/// stream.
struct Writer {
    stream: TcpStream,
    scratch: Vec<u8>,
    /// Set by a failed or timed-out write. The stream may hold a partial
    /// frame, so nothing more is written and the socket is shut down.
    broken: bool,
}

impl FrameSink {
    fn new(stream: TcpStream) -> Self {
        Self {
            writer: Mutex::new(Writer {
                stream,
                scratch: Vec::with_capacity(4096),
                broken: false,
            }),
            in_flight: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    /// Writes one frame. A failed write — the peer is gone, or the frame
    /// took [`WRITE_TIMEOUT`] — breaks the sink and shuts the socket down,
    /// which also ends the connection's read loop; later sends are no-ops.
    fn send(&self, correlation: u64, frame: &Frame) {
        let mut writer = self.writer.lock().expect("frame sink poisoned");
        if writer.broken {
            return;
        }
        let Writer {
            stream, scratch, ..
        } = &mut *writer;
        scratch.clear();
        frame.encode(correlation, scratch);
        if write_frame(stream, scratch).is_err() {
            writer.broken = true;
            let _ = writer.stream.shutdown(Shutdown::Both);
        }
    }

    /// Counts one ticket whose response this connection owes.
    fn track(&self) {
        *self.in_flight.lock().expect("frame sink poisoned") += 1;
    }

    /// Settles one counted ticket.
    fn settle(&self) {
        let mut in_flight = self.in_flight.lock().expect("frame sink poisoned");
        *in_flight -= 1;
        if *in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every counted ticket has settled.
    fn wait_drained(&self) {
        let mut in_flight = self.in_flight.lock().expect("frame sink poisoned");
        while *in_flight > 0 {
            in_flight = self.drained.wait(in_flight).expect("frame sink poisoned");
        }
    }
}

/// Writes all of `bytes` within [`WRITE_TIMEOUT`], however the peer paces its
/// reads. The socket's own timeout (set to [`WRITE_TIMEOUT`] when the
/// connection opens) bounds each `write` call, so a peer reading a trickle at
/// a time would hold the writer indefinitely; after a partial write the
/// timeout is cut to what is left of the budget, and restored once the frame
/// is out. Usually one `write` takes the whole frame.
fn write_frame(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut rest = bytes;
    let mut cut = false;
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !rest.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            stream.set_write_timeout(Some(left))?;
            cut = true;
        }
    }
    if cut {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    }
    Ok(())
}

/// One connection, start to finish, on its one thread: read and admit until
/// EOF, a protocol fault or server shutdown; then wait for every admitted
/// ticket's response to be written, and only then close the socket.
fn serve_connection(stream: TcpStream, runtime: &Arc<ServiceRuntime>, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the shutdown poll tick.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let sink = Arc::new(FrameSink::new(write_half));
    read_loop(&stream, runtime, shutdown, &sink);
    // The graceful drain contract: reading has stopped, but every admitted
    // ticket still writes its response before the socket closes.
    sink.wait_drained();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decodes and handles request frames until EOF, a protocol fault, or server
/// shutdown.
fn read_loop(
    mut stream: &TcpStream,
    runtime: &Arc<ServiceRuntime>,
    shutdown: &AtomicBool,
    sink: &Arc<FrameSink>,
) {
    let mut frames = FrameBuffer::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => {
                frames.feed(&chunk[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(Some((correlation, frame))) => {
                            if !handle_frame(correlation, frame, runtime, sink) {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(wire_error) => {
                            // A byte stream that failed to decode cannot be
                            // resynchronized: answer with a typed farewell on
                            // the reserved correlation id 0 and fail the
                            // connection. Never a panic, and the declared
                            // lengths were bounds-checked before any buffer
                            // grew from them.
                            sink.send(
                                0,
                                &Frame::Failed {
                                    error: SearchError::Backend {
                                        backend: "wire".to_string(),
                                        reason: wire_error.to_string(),
                                    },
                                },
                            );
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll tick: re-check shutdown
            }
            Err(_) => return,
        }
    }
}

/// Handles one decoded frame. Returns `false` when the connection must end.
fn handle_frame(
    correlation: u64,
    frame: Frame,
    runtime: &ServiceRuntime,
    sink: &Arc<FrameSink>,
) -> bool {
    match frame {
        Frame::Ping => sink.send(correlation, &Frame::Pong),
        Frame::StatsRequest => {
            let snapshot = StatsFrame {
                backend: runtime.backend_name(),
                metrics: runtime.stats().metrics(),
            };
            sink.send(correlation, &Frame::Stats(Box::new(snapshot)));
        }
        Frame::Submit { options, query } => {
            admit(correlation, Work::Query(query), &options, runtime, sink);
        }
        // Mutations ride the same admission path as queries: a ticket that
        // resolves into a `MutAck` (or a typed `Failed`).
        Frame::Insert { options, vector } => {
            let insert = Work::Mutation(Mutation::Insert { vector });
            admit(correlation, insert, &options, runtime, sink);
        }
        Frame::Delete { options, id } => {
            let delete = Work::Mutation(Mutation::Delete { id: id as usize });
            admit(correlation, delete, &options, runtime, sink);
        }
        // Response frames arriving at the server are a protocol violation by
        // the peer: answer typed, then fail the connection.
        Frame::Pong
        | Frame::Completed { .. }
        | Frame::Failed { .. }
        | Frame::Stats(_)
        | Frame::MutAck(_) => {
            sink.send(
                correlation,
                &Frame::Failed {
                    error: SearchError::Backend {
                        backend: "wire".to_string(),
                        reason: "response frame sent to server".to_string(),
                    },
                },
            );
            return false;
        }
    }
    true
}

/// Admits one ticket whose callback writes its response frame. The ticket is
/// counted before admission, since the callback may run before `admit`
/// returns. A refusal (bad dims, zero k, full queue, a shut-down runtime)
/// never fires the callback: it is settled here and its typed failure
/// answered inline, and the connection lives on.
fn admit(
    correlation: u64,
    work: Work,
    options: &binvec::QueryOptions,
    runtime: &ServiceRuntime,
    sink: &Arc<FrameSink>,
) {
    sink.track();
    let owed = Arc::clone(sink);
    let admitted = runtime.admit(work, options, move |result| {
        owed.send(correlation, &response(result));
        owed.settle();
    });
    if let Err(error) = admitted {
        sink.settle();
        sink.send(correlation, &Frame::Failed { error });
    }
}

/// The response frame for a resolved ticket: a mutation's ack, a query's
/// neighbors, or the typed failure.
fn response(result: TicketResult) -> Frame {
    match result {
        Ok(completed) => match completed.mutation {
            Some(ack) => Frame::MutAck(ack),
            None => Frame::Completed {
                neighbors: completed.neighbors,
            },
        },
        Err(failed) => Frame::Failed {
            error: failed.error,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimilarityBackend;
    use crate::net::ApClient;
    use crate::runtime::RuntimeConfig;
    use baselines::LinearScan;
    use binvec::generate::uniform_dataset;

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let data = uniform_dataset(20, 16, 91);
        let runtime = Arc::new(
            ServiceRuntime::try_new(RuntimeConfig::default().with_workers(1), move |_| {
                Ok(Box::new(LinearScan::new(data.clone())) as Box<dyn SimilarityBackend>)
            })
            .unwrap(),
        );
        let server = ApServer::bind("127.0.0.1:0", runtime).unwrap();
        for _ in 0..50 {
            let mut client = ApClient::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
        }
        assert_eq!(server.connections_accepted(), 50);
        let registered = server.connections.lock().unwrap().len();
        assert!(
            registered <= 5,
            "{registered} connection handles kept for one live connection"
        );
        server.shutdown();
    }
}
