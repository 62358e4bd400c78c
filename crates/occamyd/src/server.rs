//! The socket front-end: accepts TCP or Unix-domain connections and
//! speaks the line-delimited JSON protocol on each.
//!
//! Per connection, one reader thread parses requests and feeds the
//! service, and one writer thread drains the connection's reply channel
//! — so slow clients only slow themselves down, and replies from
//! concurrent jobs interleave safely (each reply is one atomic line).
//!
//! Robustness posture: protocol errors (malformed/oversized/truncated
//! lines, schema violations) are answered with a typed
//! `protocol_error` reply and the connection *survives*; only transport
//! failures drop it. A `shutdown` request (or [`ServerHandle::stop`])
//! stops intake, sheds the queued backlog with typed replies, finishes
//! in-flight runs and joins every thread.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::protocol::{
    read_frame, read_frame_interruptible, ProtocolError, ProtocolErrorKind, Reply, Request,
    MAX_LINE_BYTES,
};
use crate::service::{Service, ServiceConfig};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, e.g. `127.0.0.1:7177`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint spec: `unix:<path>` or `tcp:<addr>` (a bare
    /// spec containing `:` but no scheme is treated as a TCP address).
    ///
    /// # Errors
    ///
    /// Returns a description of an unusable spec.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if addr.is_empty() || !addr.contains(':') {
            return Err(format!("endpoint `{spec}` is neither unix:<path> nor <host>:<port>"));
        }
        Ok(Endpoint::Tcp(addr.to_owned()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn split(&self) -> std::io::Result<(Stream, Stream)> {
        match self {
            Stream::Tcp(s) => Ok((Stream::Tcp(s.try_clone()?), Stream::Tcp(s.try_clone()?))),
            Stream::Unix(s) => Ok((Stream::Unix(s.try_clone()?), Stream::Unix(s.try_clone()?))),
        }
    }

    fn set_read_timeout(&self, dur: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(dur)),
            Stream::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A handle on the running daemon.
pub struct ServerHandle {
    /// The endpoint actually bound (for `tcp:host:0` this carries the
    /// kernel-assigned port).
    pub endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    service: Arc<Service>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    unix_path: Option<PathBuf>,
}

/// Binds `endpoint` and serves until [`ServerHandle::stop`] (or a
/// client `shutdown` request).
///
/// # Errors
///
/// Returns the bind error as a string (the CLI maps it to the
/// connection/protocol exit code).
pub fn serve(endpoint: &Endpoint, config: ServiceConfig) -> Result<ServerHandle, String> {
    let (listener, bound, unix_path) = match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let actual = l
                .local_addr()
                .map(|a| Endpoint::Tcp(a.to_string()))
                .unwrap_or_else(|_| endpoint.clone());
            (Listener::Tcp(l), actual, None)
        }
        Endpoint::Unix(path) => {
            // A stale socket file from a dead daemon would make bind
            // fail forever; remove it only if nothing answers there.
            if path.exists() && UnixStream::connect(path).is_err() {
                let _ = std::fs::remove_file(path);
            }
            let l = UnixListener::bind(path)
                .map_err(|e| format!("bind {}: {e}", path.display()))?;
            (Listener::Unix(l), endpoint.clone(), Some(path.clone()))
        }
    };

    let service = Arc::new(Service::start(config));
    let stop = Arc::new(AtomicBool::new(false));
    let conn_threads = Arc::new(Mutex::new(Vec::new()));

    let accept_thread = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let conn_threads = Arc::clone(&conn_threads);
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true).map_err(|e| e.to_string())?,
            Listener::Unix(l) => l.set_nonblocking(true).map_err(|e| e.to_string())?,
        }
        std::thread::spawn(move || accept_loop(&listener, &service, &stop, &conn_threads))
    };

    Ok(ServerHandle {
        endpoint: bound,
        stop,
        service,
        accept_thread: Some(accept_thread),
        conn_threads,
        unix_path,
    })
}

impl ServerHandle {
    /// Signals the daemon to stop accepting, shed queued work, finish
    /// in-flight runs, and joins every thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.service.shutdown();
        // Graceful drain: let every in-flight run reach its terminal
        // (and its journal record) before the connection threads that
        // deliver the replies are joined.
        self.service.drain_workers();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads = {
            let mut guard =
                self.conn_threads.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for t in threads {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Whether a shutdown has been requested (by [`ServerHandle::stop`]
    /// or a client's `shutdown` op).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Blocks until a shutdown is requested, polling at `tick`.
    pub fn wait(&self, tick: Duration) {
        while !self.stopping() {
            std::thread::sleep(tick);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Installs `SIGTERM`/`SIGINT` handlers that set (and return) a global
/// termination flag, so a daemonized server can turn an operator's
/// `kill` into a graceful drain: stop admission, finish or checkpoint
/// in-flight jobs, flush the journal, exit 0.
///
/// The handler body is a single atomic store — async-signal-safe by
/// construction. Idempotent; later calls return the same flag.
#[cfg(unix)]
pub fn install_termination_flag() -> &'static AtomicBool {
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    // libc is always linked on unix; declaring `signal` directly keeps
    // the crate std-only.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    &TERM
}

fn accept_loop(
    listener: &Listener,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    conn_threads: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::SeqCst) {
        let accepted = match listener {
            // Replies are small line frames: send each at once instead of
            // holding it for the peer's (delayed) ACK.
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                let handle = std::thread::spawn(move || {
                    // A connection failing to set up or erroring is its
                    // own problem; the daemon keeps serving others.
                    let _ = serve_connection(&stream, &service, &stop);
                    stream.shutdown();
                });
                conn_threads
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One connection: reader parses and dispatches; a writer thread owns
/// the socket's write half and serializes replies from all of the
/// connection's jobs.
fn serve_connection(
    stream: &Stream,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let (read_half, write_half) = stream.split()?;
    // The read timeout doubles as the shutdown poll interval.
    read_half.set_read_timeout(Duration::from_millis(100))?;
    let (tx, rx) = channel::<Reply>();
    // Shared with the service's watch subscription (if this connection
    // opens one): counts event frames accepted but not yet written, so
    // the service can drop frames for a slow reader instead of letting
    // the channel grow without bound.
    let pending_events = Arc::new(AtomicUsize::new(0));
    let writer_pending = Arc::clone(&pending_events);
    let writer_thread = std::thread::spawn(move || writer_loop(write_half, &rx, &writer_pending));

    let mut reader = BufReader::new(read_half);
    loop {
        let frame = read_frame_interruptible(&mut reader, MAX_LINE_BYTES, || {
            stop.load(Ordering::SeqCst)
        });
        let line = match frame {
            Ok(Some(line)) => line,
            Ok(None) => break, // clean EOF
            Err(ProtocolError { kind: ProtocolErrorKind::Io, .. }) => break,
            Err(e) => {
                // The offending line was consumed; report and carry on.
                let _ = tx.send(Reply::ProtocolError {
                    kind: e.kind.tag().into(),
                    detail: e.detail,
                });
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse_line(&line) {
            Ok(Request::Submit { tenant, id, job }) => service.submit(&tenant, &id, job, &tx),
            Ok(Request::Cancel { tenant, id }) => {
                if !service.cancel(&tenant, &id) {
                    let _ = tx.send(Reply::Error {
                        id,
                        kind: "not_found".into(),
                        detail: "no active job with that id".into(),
                    });
                }
            }
            Ok(Request::Stats { tenant, prefix }) => {
                let _ = tx.send(Reply::Stats {
                    payload: service.stats_value(tenant.as_deref(), prefix.as_deref()),
                });
            }
            Ok(Request::Watch { tenant, buffer }) => {
                let cap =
                    service.watch(tenant, buffer, tx.clone(), Arc::clone(&pending_events));
                let _ = tx.send(Reply::Watching { buffer: cap });
            }
            Ok(Request::Ping) => {
                let _ = tx.send(Reply::Pong);
            }
            Ok(Request::Shutdown) => {
                let _ = tx.send(Reply::ShuttingDown);
                service.shutdown();
                stop.store(true, Ordering::SeqCst);
                break;
            }
            Err(e) => {
                let _ = tx.send(Reply::ProtocolError {
                    kind: e.kind.tag().into(),
                    detail: e.detail,
                });
            }
        }
    }
    drop(tx);
    let _ = writer_thread.join();
    Ok(())
}

fn writer_loop(half: Stream, rx: &Receiver<Reply>, pending_events: &AtomicUsize) {
    let mut out = BufWriter::new(half);
    while let Ok(reply) = rx.recv() {
        if matches!(reply, Reply::Event { .. }) {
            // Acknowledge the frame to the watch backpressure counter
            // whether or not the write succeeds — the slot is free.
            pending_events.fetch_sub(1, Ordering::AcqRel);
        }
        let line = reply.to_line();
        if out.write_all(line.as_bytes()).is_err()
            || out.write_all(b"\n").is_err()
            || out.flush().is_err()
        {
            // The peer is gone; stop writing. Senders never block (the
            // channel is unbounded) and the service can finish.
            break;
        }
    }
    // Discard whatever already arrived, then drop the receiver: a watch
    // subscription held by the service keeps its `Sender` alive until a
    // send fails, so a blocking drain here would never terminate. After
    // the drop, the service's next emit errors and prunes the watcher.
    while let Ok(reply) = rx.try_recv() {
        if matches!(reply, Reply::Event { .. }) {
            pending_events.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A synchronous protocol client (used by `occamy submit`, the load
/// generator and the smoke tests).
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the connection error as a string.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, String> {
        let stream = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                // A request goes out as its line and then its newline;
                // with Nagle's algorithm the newline would wait for the
                // daemon's delayed ACK of the line.
                s.set_nodelay(true).map_err(|e| format!("connect {addr}: {e}"))?;
                Stream::Tcp(s)
            }
            Endpoint::Unix(path) => Stream::Unix(
                UnixStream::connect(path)
                    .map_err(|e| format!("connect {}: {e}", path.display()))?,
            ),
        };
        let (read_half, write_half) = stream.split().map_err(|e| e.to_string())?;
        Ok(Client { reader: BufReader::new(read_half), writer: write_half })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Returns the transport error as a string.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        let line = request.to_line();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Receives the next reply line (blocking).
    ///
    /// # Errors
    ///
    /// Returns a description of EOF, transport or protocol failures.
    pub fn recv(&mut self) -> Result<Reply, String> {
        match read_frame(&mut self.reader, MAX_LINE_BYTES) {
            Ok(Some(line)) => Reply::parse_line(&line).map_err(|e| e.to_string()),
            Ok(None) => Err("connection closed by the daemon".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Receives replies until the terminal reply for job `id` arrives.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::recv`] failures.
    pub fn wait_terminal(&mut self, id: &str) -> Result<Reply, String> {
        loop {
            let reply = self.recv()?;
            match &reply {
                Reply::ProtocolError { kind, detail } => {
                    return Err(format!("protocol error ({kind}): {detail}"))
                }
                r if r.is_terminal() && r.id() == Some(id) => return Ok(reply),
                _ => {}
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_parse_and_display() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").expect("unix"),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7177").expect("tcp"),
            Endpoint::Tcp("127.0.0.1:7177".into())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:0").expect("bare tcp"),
            Endpoint::Tcp("127.0.0.1:0".into())
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("nonsense").is_err());
        assert_eq!(Endpoint::parse("unix:/a/b").expect("unix").to_string(), "unix:/a/b");
        assert_eq!(Endpoint::parse("1.2.3.4:5").expect("tcp").to_string(), "tcp:1.2.3.4:5");
    }
}
