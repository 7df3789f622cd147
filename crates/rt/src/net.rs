//! Length-prefixed framed [`crate::json`] messaging over TCP.
//!
//! The cluster mode's wire layer: the coordinator and its workers
//! exchange JSON documents, each prefixed by a 4-byte big-endian
//! length. Reusing `rt::json` keeps the protocol debuggable (every
//! frame is a single readable line) and keeps `rt` dependency-free,
//! in the same spirit as [`crate::http`]'s hand-rolled HTTP/1.1.
//!
//! Design points, all of which the adversarial fuzz suite leans on:
//!
//! * **Bounded frames** — a length prefix larger than the connection's
//!   `max_frame` is rejected *before* any allocation, so a hostile or
//!   corrupt peer cannot OOM the process with a 4 GiB announcement.
//! * **Read/write deadlines** — both directions run under socket
//!   timeouts ([`Conn::set_io_timeout`]), so a stalled peer surfaces
//!   as [`io::ErrorKind::WouldBlock`]/`TimedOut` instead of pinning a
//!   thread forever.
//! * **Versioned hello** — each side opens with a
//!   `{"net":"hello","version":N,"role":R}` frame; a version mismatch
//!   is a permanent, clearly-worded error rather than a cryptic parse
//!   failure halfway into the session.
//! * **Failure classification** — [`NetError::is_transient`] splits
//!   environmental failures (resets, refusals, timeouts: reconnect and
//!   retry) from protocol failures (oversized frames, bad JSON, version
//!   skew: give up), the matrix the coordinator's dispatch loop applies.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, Json};

/// Wire protocol version carried in every hello frame. Bump on any
/// incompatible message-shape change.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default ceiling on a single frame's payload, generous enough for a
/// dataset-bearing setup message but far below anything that could
/// exhaust memory.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Default socket read/write deadline for a connection.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`Listener::accept_timeout`] sleeps between polls of its
/// non-blocking accept.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Everything that can go wrong on a framed connection.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket error (includes timeouts).
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A frame announced a length above the connection's ceiling.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// This connection's ceiling.
        max: usize,
    },
    /// The frame payload was not valid JSON.
    Parse(json::ParseError),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u64,
        /// The version the peer announced.
        theirs: u64,
    },
    /// The peer sent something structurally wrong (not a hello when one
    /// was expected, a non-UTF-8 payload, an unexpected role).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Closed => f.write_str("connection closed by peer"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte ceiling")
            }
            NetError::Parse(e) => write!(f, "bad frame payload: {e}"),
            NetError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}"
            ),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A frame that parses but does not decode is a protocol error,
/// permanent like any other.
impl From<json::DecodeError> for NetError {
    fn from(e: json::DecodeError) -> Self {
        NetError::Protocol(e.to_string())
    }
}

impl NetError {
    /// Whether a retry (reconnect, backoff, re-dispatch) may plausibly
    /// succeed. Environmental failures — resets, refusals, timeouts, a
    /// peer that simply went away — are transient; protocol failures —
    /// oversized frames, unparseable payloads, version skew — are
    /// permanent: the peers will disagree identically on every retry.
    pub fn is_transient(&self) -> bool {
        match self {
            NetError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::Interrupted
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::NotConnected
            ),
            NetError::Closed => true,
            NetError::FrameTooLarge { .. }
            | NetError::Parse(_)
            | NetError::VersionMismatch { .. }
            | NetError::Protocol(_) => false,
        }
    }
}

/// Writes one frame: 4-byte big-endian payload length, then the
/// compact JSON bytes.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] when the serialized payload exceeds
/// `max_frame`; otherwise any underlying I/O error.
pub fn write_frame(w: &mut impl Write, value: &Json, max_frame: usize) -> Result<(), NetError> {
    let payload = value.to_string();
    let bytes = payload.as_bytes();
    if bytes.len() > max_frame {
        return Err(NetError::FrameTooLarge {
            len: bytes.len(),
            max: max_frame,
        });
    }
    let len = (bytes.len() as u32).to_be_bytes();
    w.write_all(&len)?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame written by [`write_frame`].
///
/// A clean EOF before any prefix byte is [`NetError::Closed`]; EOF in
/// the middle of a frame is an [`io::ErrorKind::UnexpectedEof`] I/O
/// error. The announced length is validated against `max_frame`
/// *before* the payload buffer is allocated.
///
/// # Errors
///
/// [`NetError::Closed`], [`NetError::FrameTooLarge`],
/// [`NetError::Parse`], [`NetError::Protocol`] (non-UTF-8 payload), or
/// an underlying I/O error.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Json, NetError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(NetError::Closed),
            Ok(0) => {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_frame {
        return Err(NetError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| NetError::Protocol("frame payload is not UTF-8".to_string()))?;
    Json::parse(text).map_err(NetError::Parse)
}

/// The opening frame each side sends: protocol version plus a role
/// label the peer can sanity-check.
pub fn hello_frame(role: &str) -> Json {
    Json::object()
        .insert("net", "hello")
        .insert("version", PROTOCOL_VERSION)
        .insert("role", role)
}

/// Validates a received hello frame, returning the peer's role.
///
/// # Errors
///
/// [`NetError::Protocol`] when the frame is not a hello or announces
/// an unexpected role; [`NetError::VersionMismatch`] on version skew.
pub fn check_hello(frame: &Json, expect_role: Option<&str>) -> Result<String, NetError> {
    if frame.get("net").and_then(Json::as_str) != Some("hello") {
        return Err(NetError::Protocol("expected a hello frame".to_string()));
    }
    let theirs = frame
        .get("version")
        .and_then(Json::as_f64)
        .ok_or_else(|| NetError::Protocol("hello frame has no version".to_string()))?
        as u64;
    if theirs != PROTOCOL_VERSION {
        return Err(NetError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs,
        });
    }
    let role = frame
        .get("role")
        .and_then(Json::as_str)
        .ok_or_else(|| NetError::Protocol("hello frame has no role".to_string()))?
        .to_string();
    if let Some(expected) = expect_role {
        if role != expected {
            return Err(NetError::Protocol(format!(
                "expected peer role {expected:?}, got {role:?}"
            )));
        }
    }
    Ok(role)
}

/// A framed TCP connection: a socket plus its frame-size ceiling.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    max_frame: usize,
}

impl Conn {
    /// Connects to `addr` with a connect deadline, applying `timeout`
    /// as the socket read/write deadline and `max_frame` as the frame
    /// ceiling.
    ///
    /// # Errors
    ///
    /// Any resolution or connection failure as [`NetError::Io`].
    pub fn connect(
        addr: &str,
        timeout: Duration,
        max_frame: usize,
    ) -> Result<Self, NetError> {
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(NetError::Io)?
            .collect();
        let first = resolved.first().ok_or_else(|| {
            NetError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("{addr} resolved to no addresses"),
            ))
        })?;
        let stream = TcpStream::connect_timeout(first, timeout)?;
        Self::from_stream(stream, max_frame, Some(timeout))
    }

    /// Wraps an accepted stream, applying the deadline and ceiling.
    ///
    /// # Errors
    ///
    /// Any socket-option failure as [`NetError::Io`].
    pub fn from_stream(
        stream: TcpStream,
        max_frame: usize,
        timeout: Option<Duration>,
    ) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        let conn = Self { stream, max_frame };
        conn.set_io_timeout(timeout)?;
        Ok(conn)
    }

    /// Sets (or clears) the read *and* write deadline. A blocked peer
    /// then surfaces as `TimedOut`/`WouldBlock` instead of hanging the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Any socket-option failure.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// The peer's address.
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one framed message.
    ///
    /// # Errors
    ///
    /// See [`write_frame`].
    pub fn send(&mut self, value: &Json) -> Result<(), NetError> {
        write_frame(&mut self.stream, value, self.max_frame)
    }

    /// Receives one framed message.
    ///
    /// # Errors
    ///
    /// See [`read_frame`].
    pub fn recv(&mut self) -> Result<Json, NetError> {
        read_frame(&mut self.stream, self.max_frame)
    }

    /// Client side of the versioned handshake: send our hello, read and
    /// validate the peer's. Returns the peer's role.
    ///
    /// # Errors
    ///
    /// Any frame error, or [`NetError::VersionMismatch`] /
    /// [`NetError::Protocol`] from validation.
    pub fn handshake_client(
        &mut self,
        role: &str,
        expect_peer_role: Option<&str>,
    ) -> Result<String, NetError> {
        self.send(&hello_frame(role))?;
        let reply = self.recv()?;
        check_hello(&reply, expect_peer_role)
    }

    /// Server side of the versioned handshake: read and validate the
    /// peer's hello, then send ours. Returns the peer's role.
    ///
    /// # Errors
    ///
    /// Any frame error, or [`NetError::VersionMismatch`] /
    /// [`NetError::Protocol`] from validation. On version mismatch the
    /// server still sends its own hello first, so the client learns the
    /// server's version instead of seeing a bare disconnect.
    pub fn handshake_server(
        &mut self,
        role: &str,
        expect_peer_role: Option<&str>,
    ) -> Result<String, NetError> {
        let theirs = self.recv()?;
        let checked = check_hello(&theirs, expect_peer_role);
        // Always answer: a mismatched client deserves to know why.
        self.send(&hello_frame(role))?;
        checked
    }
}

/// A non-blocking accept loop over a bound TCP listener, polled with a
/// deadline so serving threads can observe a stop flag between polls —
/// the same shape [`crate::http`]'s accept slots use.
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// switches the listener to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let inner = TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(Self { inner })
    }

    /// The bound address (reports the kernel-chosen port after binding
    /// port 0).
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Waits up to `timeout` for one connection. Returns `Ok(None)` on
    /// timeout, so callers can interleave accepts with stop-flag checks.
    ///
    /// # Errors
    ///
    /// Any accept failure other than `WouldBlock`.
    pub fn accept_timeout(
        &self,
        timeout: Duration,
    ) -> io::Result<Option<(TcpStream, SocketAddr)>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.inner.accept() {
                Ok((stream, addr)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Some((stream, addr)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if std::time::Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(ACCEPT_POLL.min(timeout));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let msg = Json::object().insert("kind", "evaluate").insert("id", 7);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg, DEFAULT_MAX_FRAME).unwrap();
        let got = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(got.to_string(), msg.to_string());
        // Prefix is big-endian payload length.
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(len, buf.len() - 4);
    }

    #[test]
    fn oversized_announcement_rejected_before_allocation() {
        // 4 GiB announcement followed by nothing: must fail on the
        // ceiling check, not attempt the allocation or the read.
        let mut buf = 0xFFFF_FFF0u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let err = read_frame(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(
            err,
            NetError::FrameTooLarge { len: 0xFFFF_FFF0, max: 1024 }
        ));
        assert!(!err.is_transient());
    }

    #[test]
    fn oversized_payload_rejected_on_write() {
        let msg = Json::String("x".repeat(64));
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &msg, 16).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }));
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let msg = Json::object().insert("k", 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg, DEFAULT_MAX_FRAME).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap_err();
        match err {
            NetError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_closed_and_transient() {
        let err = read_frame(&mut Cursor::new(&[]), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::Closed));
        assert!(err.is_transient());
    }

    #[test]
    fn hello_validation() {
        let ok = hello_frame("worker");
        assert_eq!(check_hello(&ok, Some("worker")).unwrap(), "worker");
        assert!(matches!(
            check_hello(&ok, Some("coordinator")).unwrap_err(),
            NetError::Protocol(_)
        ));
        let skew = Json::object()
            .insert("net", "hello")
            .insert("version", PROTOCOL_VERSION + 1)
            .insert("role", "worker");
        let err = check_hello(&skew, None).unwrap_err();
        assert!(matches!(err, NetError::VersionMismatch { .. }));
        assert!(!err.is_transient());
        assert!(matches!(
            check_hello(&Json::object().insert("net", "goodbye"), None).unwrap_err(),
            NetError::Protocol(_)
        ));
    }

    #[test]
    fn loopback_handshake_and_round_trip() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener
                .accept_timeout(Duration::from_secs(10))
                .unwrap()
                .expect("client connects");
            let mut conn =
                Conn::from_stream(stream, DEFAULT_MAX_FRAME, Some(Duration::from_secs(10)))
                    .unwrap();
            let role = conn.handshake_server("worker", Some("coordinator")).unwrap();
            assert_eq!(role, "coordinator");
            let req = conn.recv().unwrap();
            let id = req.get("id").and_then(Json::as_f64).unwrap();
            conn.send(&Json::object().insert("echo", id)).unwrap();
        });
        let mut conn = Conn::connect(
            &addr.to_string(),
            Duration::from_secs(10),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let role = conn.handshake_client("coordinator", Some("worker")).unwrap();
        assert_eq!(role, "worker");
        conn.send(&Json::object().insert("id", 42)).unwrap();
        let reply = conn.recv().unwrap();
        assert_eq!(reply.get("echo").and_then(Json::as_f64), Some(42.0));
        server.join().unwrap();
    }

    #[test]
    fn read_deadline_classifies_transient() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Server accepts but never writes; the client's recv must time
        // out instead of hanging.
        let mut conn = Conn::connect(
            &addr.to_string(),
            Duration::from_secs(10),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let (_held, _) = listener
            .accept_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("server sees the connection");
        conn.set_io_timeout(Some(Duration::from_millis(50))).unwrap();
        let err = conn.recv().unwrap_err();
        assert!(err.is_transient(), "deadline should classify transient: {err}");
    }
}
