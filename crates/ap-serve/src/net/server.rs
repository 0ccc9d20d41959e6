//! The TCP server: accept loop, per-connection reader threads, and a
//! waker-driven writer multiplexing completions back by correlation id.

use super::completion::CompletionSet;
use super::frame::{Frame, FrameBuffer, StatsFrame};
use crate::runtime::{ServiceRuntime, TicketHandle, TicketResult};
use crate::stats::ServiceStats;
use binvec::{Mutation, SearchError};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked socket reads and idle writers wake to check for
/// shutdown. Bounds shutdown latency; completions themselves are waker-driven
/// and never wait on this tick.
const POLL_TICK: Duration = Duration::from_millis(20);

/// How long `shutdown` waits on each of its two wake connects to its own
/// listener before giving up on the accept thread.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Read chunk size for connection readers.
const READ_CHUNK: usize = 16 * 1024;

/// A TCP front door over a [`ServiceRuntime`].
///
/// `bind` spawns the accept loop; each accepted connection gets a **reader**
/// thread (decode frames → submit to the runtime) and a **writer** thread
/// (a [`CompletionSet`] multiplexing every in-flight ticket of that
/// connection, writing `Completed`/`Failed` frames as tickets resolve — in
/// completion order, matched to requests by correlation id, never blocking on
/// any single ticket).
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
                                accepted.fetch_add(1, Ordering::Relaxed);
                                let runtime = Arc::clone(&runtime);
                                let shutdown = Arc::clone(&shutdown);
                                let index = accepted.load(Ordering::Relaxed);
                                let handle = std::thread::Builder::new()
                                    .name(format!("ap-net-conn-{index}"))
                                    .spawn(move || serve_connection(stream, &runtime, &shutdown))
                                    .expect("spawn connection thread");
                                connections
                                    .lock()
                                    .expect("connection registry")
                                    .push(handle);
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
    /// frames, drain every in-flight ticket (each connection writes its
    /// remaining responses), close the sockets, join the threads. The runtime
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

/// What the reader hands the writer for one admitted submission.
struct Registration {
    correlation: u64,
    handle: TicketHandle,
}

/// Serializes whole frames onto the connection's write half. The reader
/// writes its direct replies (`Pong`, `Stats`, per-query `Failed`) and the
/// writer thread writes completions; the mutex keeps frames atomic on the
/// stream.
struct FrameSink {
    stream: Mutex<(TcpStream, Vec<u8>)>,
    broken: AtomicBool,
}

impl FrameSink {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Mutex::new((stream, Vec::with_capacity(4096))),
            broken: AtomicBool::new(false),
        }
    }

    /// Writes one frame; a failed write marks the sink broken (the peer is
    /// gone) and later writes become no-ops so draining stays cheap.
    fn send(&self, correlation: u64, frame: &Frame) {
        if self.broken.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.stream.lock().expect("frame sink poisoned");
        let (stream, scratch) = &mut *guard;
        scratch.clear();
        frame.encode(correlation, scratch);
        if stream.write_all(scratch).is_err() {
            self.broken.store(true, Ordering::Relaxed);
        }
    }
}

/// One connection, start to finish: runs on the reader thread, spawns the
/// writer thread, and only returns once both sides are drained and the
/// socket is closed.
fn serve_connection(stream: TcpStream, runtime: &Arc<ServiceRuntime>, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the shutdown poll tick.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let sink = Arc::new(FrameSink::new(write_half));
    let (register_tx, register_rx) = mpsc::channel::<Registration>();
    let writer = {
        let sink = Arc::clone(&sink);
        std::thread::Builder::new()
            .name("ap-net-writer".to_string())
            .spawn(move || writer_loop(&sink, register_rx))
            .expect("spawn connection writer")
    };

    read_loop(&stream, runtime, shutdown, &sink, &register_tx);

    // Dropping the registration channel tells the writer no more tickets are
    // coming; it drains the in-flight set, writes the remaining responses,
    // and exits — only then is the socket shut down. That is the graceful
    // drain contract.
    drop(register_tx);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decodes and handles request frames until EOF, a protocol fault, or server
/// shutdown.
fn read_loop(
    mut stream: &TcpStream,
    runtime: &Arc<ServiceRuntime>,
    shutdown: &AtomicBool,
    sink: &FrameSink,
    register_tx: &mpsc::Sender<Registration>,
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
                            if !handle_frame(correlation, frame, runtime, sink, register_tx) {
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
    runtime: &Arc<ServiceRuntime>,
    sink: &FrameSink,
    register_tx: &mpsc::Sender<Registration>,
) -> bool {
    match frame {
        Frame::Ping => {
            sink.send(correlation, &Frame::Pong);
            true
        }
        Frame::StatsRequest => {
            let snapshot = StatsFrame {
                backend: runtime.backend_name(),
                metrics: runtime.stats().metrics(),
            };
            sink.send(correlation, &Frame::Stats(Box::new(snapshot)));
            true
        }
        Frame::Submit { options, query } => {
            match runtime.try_submit_with(query, &options) {
                Ok(handle) => {
                    // The writer owns delivery from here. If the writer died
                    // (sink broken), the handle is dropped and the runtime
                    // still resolves the ticket internally.
                    let _ = register_tx.send(Registration {
                        correlation,
                        handle,
                    });
                }
                // Admission refused (bad dims, zero k, expired deadline,
                // queue full): the typed per-query failure goes straight
                // back and the connection lives on.
                Err(error) => sink.send(correlation, &Frame::Failed { error }),
            }
            true
        }
        // Mutations ride the same admission path as queries: a ticket whose
        // resolution the writer turns into a `MutAck` (or typed `Failed`).
        Frame::Insert { options, vector } => {
            submit_mutation(
                correlation,
                Mutation::Insert { vector },
                &options,
                runtime,
                sink,
                register_tx,
            );
            true
        }
        Frame::Delete { options, id } => {
            submit_mutation(
                correlation,
                Mutation::Delete { id: id as usize },
                &options,
                runtime,
                sink,
                register_tx,
            );
            true
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
            false
        }
    }
}

/// The connection's completion multiplexer: every in-flight ticket lives in
/// one [`CompletionSet`]; resolved tickets are written back as
/// `Completed`/`Failed` frames in completion order. Exits once the reader has
/// hung up **and** the set is drained.
fn writer_loop(sink: &FrameSink, register_rx: mpsc::Receiver<Registration>) {
    let mut set: CompletionSet<u64> = CompletionSet::new();
    let mut reader_alive = true;
    while reader_alive || !set.is_empty() {
        // Ingest new registrations without blocking.
        loop {
            match register_rx.try_recv() {
                Ok(registration) => set.register(registration.handle, registration.correlation),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    reader_alive = false;
                    break;
                }
            }
        }
        // Deliver whatever resolved.
        for (correlation, result) in set.drain_ready() {
            write_result(sink, correlation, result);
        }
        // Park on the signal that can actually arrive next.
        if !set.is_empty() {
            for (correlation, result) in set.wait_ready(POLL_TICK) {
                write_result(sink, correlation, result);
            }
        } else if reader_alive {
            match register_rx.recv_timeout(POLL_TICK) {
                Ok(registration) => set.register(registration.handle, registration.correlation),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => reader_alive = false,
            }
        }
    }
}

/// Admits one mutation; a refusal answers with the typed failure inline.
fn submit_mutation(
    correlation: u64,
    mutation: Mutation,
    options: &binvec::QueryOptions,
    runtime: &Arc<ServiceRuntime>,
    sink: &FrameSink,
    register_tx: &mpsc::Sender<Registration>,
) {
    match runtime.try_submit_mutation(mutation, options) {
        Ok(handle) => {
            let _ = register_tx.send(Registration {
                correlation,
                handle,
            });
        }
        Err(error) => sink.send(correlation, &Frame::Failed { error }),
    }
}

fn write_result(sink: &FrameSink, correlation: u64, result: TicketResult) {
    let frame = match result {
        // A mutation ticket resolves with its ack; a query ticket with its
        // neighbors.
        Ok(completed) => match completed.mutation {
            Some(ack) => Frame::MutAck(ack),
            None => Frame::Completed {
                neighbors: completed.neighbors,
            },
        },
        Err(failed) => Frame::Failed {
            error: failed.error,
        },
    };
    sink.send(correlation, &frame);
}
