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
//! * **Bounded frames** — a length prefix larger than the reading
//!   connection's `max_frame` is rejected *before* any allocation, so a
//!   hostile or corrupt peer cannot OOM the process with a 4 GiB
//!   announcement. The ceiling is the reader's: each side announces
//!   its own in its hello, and [`Conn::send`] refuses a payload above
//!   the peer's before writing a byte, as a permanent error — the peer
//!   would drop the connection on the prefix, and every resend would
//!   fail the same way. So a worker started with a larger ceiling
//!   receives frames above the default one, and a smaller one is
//!   never sent what it would drop.
//! * **Read/write deadlines** — both directions run under socket
//!   timeouts ([`Conn::set_io_timeout`]), so a stalled peer surfaces
//!   as [`io::ErrorKind::WouldBlock`]/`TimedOut` instead of pinning a
//!   thread forever.
//! * **Versioned hello** — each side opens with a
//!   `{"net":"hello","version":N,"role":R,"max_frame":M}` frame; a
//!   version mismatch is a permanent, clearly-worded error rather than
//!   a cryptic parse failure halfway into the session.
//! * **Failure classification** — [`NetError::is_transient`] splits
//!   environmental failures (resets, refusals, timeouts: reconnect and
//!   retry) from protocol failures (oversized frames, bad JSON, version
//!   skew: give up), the matrix the coordinator's dispatch loop applies.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::json::{self, Cursor, Json};

/// Wire protocol version carried in every hello frame. Bump on any
/// incompatible message-shape change.
pub const PROTOCOL_VERSION: u64 = 4;

/// Default ceiling on a single frame's payload, generous enough for a
/// dataset-bearing setup message but far below anything that could
/// exhaust memory.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Default socket read/write deadline for a connection.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything that can go wrong on a framed connection.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket error (includes timeouts).
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A frame announced a length above the reader's ceiling, or a
    /// payload to write is longer than the peer's announced ceiling or
    /// than the 4-byte prefix can announce.
    FrameTooLarge {
        /// Payload length.
        len: usize,
        /// The ceiling it exceeds.
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
/// compact JSON bytes. Whether the frame is too large is the reader's
/// call ([`read_frame`]'s `max_frame`, which [`Conn::send`] checks
/// against the peer's hello before writing).
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] when the serialized payload does not fit
/// the 4-byte length prefix; otherwise any underlying I/O error.
pub fn write_frame(w: &mut impl Write, value: &Json) -> Result<(), NetError> {
    write_payload(w, value.to_string().as_bytes())
}

fn write_payload(w: &mut impl Write, bytes: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(bytes.len()).map_err(|_| NetError::FrameTooLarge {
        len: bytes.len(),
        max: u32::MAX as usize,
    })?;
    w.write_all(&len.to_be_bytes())?;
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

/// The opening frame each side sends: protocol version, a role label
/// the peer can sanity-check, and the sender's ceiling on the frames it
/// reads.
pub fn hello_frame(role: &str, max_frame: usize) -> Json {
    Json::object()
        .insert("net", "hello")
        .insert("version", PROTOCOL_VERSION)
        .insert("role", role)
        .insert("max_frame", max_frame)
}

/// Validates a received hello frame, returning the peer's role and
/// frame ceiling. The frame decodes strictly: `net` is `"hello"`,
/// `version` an integer, `role` a string and `max_frame` an integer;
/// the version is compared before `max_frame` is read, so an older
/// peer is told about the version skew.
///
/// # Errors
///
/// [`NetError::Protocol`], naming the field, when the frame is not a
/// well-formed hello or announces an unexpected role;
/// [`NetError::VersionMismatch`] when a well-formed hello announces
/// another version.
pub fn check_hello(frame: &Json, expect_role: Option<&str>) -> Result<(String, usize), NetError> {
    let j = Cursor::root(frame);
    let net = j.field("net")?;
    if net.str()? != "hello" {
        return Err(net.expected("\"hello\"").into());
    }
    let (version, role): (u64, String) = (j.get("version")?, j.get("role")?);
    if version != PROTOCOL_VERSION {
        return Err(NetError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let max_frame = j.get("max_frame")?;
    if let Some(expected) = expect_role {
        if role != expected {
            return Err(NetError::Protocol(format!(
                "expected peer role {expected:?}, got {role:?}"
            )));
        }
    }
    Ok((role, max_frame))
}

/// A framed TCP connection: a socket, the ceiling on the frames it
/// reads, and the ceiling the peer announced for the frames it sends.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    max_frame: usize,
    /// The peer's hello `max_frame`; before the handshake, the most a
    /// length prefix can announce.
    peer_max_frame: usize,
}

impl Conn {
    /// Connects to `addr` with a connect deadline, applying `timeout`
    /// as the socket read/write deadline and `max_frame` as the ceiling
    /// on received frames.
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
        let conn = Self {
            stream,
            max_frame,
            peer_max_frame: u32::MAX as usize,
        };
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

    /// Sends one framed message, unless its payload is above the
    /// ceiling the peer announced in its hello: the peer would drop the
    /// connection on the prefix, so nothing is written.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] (permanent) for a payload above the
    /// peer's ceiling; otherwise see [`write_frame`].
    pub fn send(&mut self, value: &Json) -> Result<(), NetError> {
        let payload = value.to_string();
        if payload.len() > self.peer_max_frame {
            return Err(NetError::FrameTooLarge {
                len: payload.len(),
                max: self.peer_max_frame,
            });
        }
        write_payload(&mut self.stream, payload.as_bytes())
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
    /// validate the peer's, and keep its frame ceiling. Returns the
    /// peer's role.
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
        self.send(&hello_frame(role, self.max_frame))?;
        let reply = self.recv()?;
        let (peer_role, peer_max_frame) = check_hello(&reply, expect_peer_role)?;
        self.peer_max_frame = peer_max_frame;
        Ok(peer_role)
    }

    /// Server side of the versioned handshake: read and validate the
    /// peer's hello, then send ours, and keep the peer's frame ceiling.
    /// Returns the peer's role.
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
        self.send(&hello_frame(role, self.max_frame))?;
        let (peer_role, peer_max_frame) = checked?;
        self.peer_max_frame = peer_max_frame;
        Ok(peer_role)
    }
}

/// A non-blocking TCP listener whose accept waits with a deadline, so
/// serving threads can observe a stop flag between waits — the cluster
/// worker's loop and [`crate::http`]'s accept slots both use it.
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

    /// Waits up to `timeout` for one connection and accepts it as a
    /// blocking stream. On unix the wait is `poll(2)` on the listener,
    /// so it returns as soon as a connection is pending. Returns
    /// `Ok(None)` on timeout, so callers can interleave accepts with
    /// stop-flag checks.
    ///
    /// # Errors
    ///
    /// Any accept or wait failure other than `WouldBlock` and `EINTR`.
    pub fn accept_timeout(
        &self,
        timeout: Duration,
    ) -> io::Result<Option<(TcpStream, SocketAddr)>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.inner.accept() {
                Ok((stream, addr)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Some((stream, addr)));
                }
                // A wake-up with nothing to accept (EINTR, or another
                // thread took the connection) just waits again.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    wait_readable(&self.inner, left)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Blocks until `listener` has a pending connection or `timeout`
/// passes (rounded up to whole milliseconds). An interrupted wait
/// returns early; the caller's accept loop then waits again.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) -> io::Result<()> {
    use std::ffi::{c_int, c_short};
    use std::os::unix::io::AsRawFd;

    /// libc's `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    /// libc's `nfds_t`: `unsigned int` on Apple targets and the BSDs,
    /// `unsigned long` elsewhere (Linux, Android, illumos).
    #[cfg(any(
        target_vendor = "apple",
        target_os = "dragonfly",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd"
    ))]
    type Nfds = std::ffi::c_uint;
    #[cfg(not(any(
        target_vendor = "apple",
        target_os = "dragonfly",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd"
    )))]
    type Nfds = std::ffi::c_ulong;
    extern "C" {
        /// libc's `poll(2)`; std already links libc on unix, so the
        /// symbol resolves without a crates.io dependency.
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `fd` is one initialized `pollfd` that outlives the call,
    // matching `nfds = 1`, and its descriptor is the borrowed
    // listener's, open for the whole call.
    if unsafe { poll(&mut fd, 1, ms) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Without `poll(2)`, sleeps a tick of at most 10 ms; the caller's
/// accept loop then tries again.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) -> io::Result<()> {
    std::thread::sleep(timeout.min(Duration::from_millis(10)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let msg = Json::object().insert("kind", "evaluate").insert("id", 7);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
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

    /// The ceiling is the reader's: a frame above the default ceiling
    /// is written, a reader with a larger ceiling takes it, and one with
    /// a smaller ceiling refuses it.
    #[test]
    fn the_reader_decides_whether_a_frame_is_too_large() {
        let msg = Json::String("x".repeat(DEFAULT_MAX_FRAME));
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let len = buf.len() - 4;
        assert!(len > DEFAULT_MAX_FRAME);
        let got = read_frame(&mut Cursor::new(&buf), len).unwrap();
        assert_eq!(got.as_str().map(str::len), Some(DEFAULT_MAX_FRAME));
        let err = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(
            err,
            NetError::FrameTooLarge {
                max: DEFAULT_MAX_FRAME,
                ..
            }
        ));
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let msg = Json::object().insert("k", 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
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
        let ok = hello_frame("worker", 4096);
        assert_eq!(
            check_hello(&ok, Some("worker")).unwrap(),
            ("worker".to_string(), 4096)
        );
        assert!(matches!(
            check_hello(&ok, Some("coordinator")).unwrap_err(),
            NetError::Protocol(_)
        ));
        // A newer peer and the previous version are both refused by
        // version, at the hello, before any frame of theirs is decoded.
        for theirs in [PROTOCOL_VERSION + 1, PROTOCOL_VERSION - 1] {
            let skew = Json::object()
                .insert("net", "hello")
                .insert("version", theirs)
                .insert("role", "worker")
                .insert("max_frame", 4096);
            match check_hello(&skew, None) {
                Err(err @ NetError::VersionMismatch { ours, theirs: t }) => {
                    assert_eq!((ours, t), (PROTOCOL_VERSION, theirs));
                    assert!(!err.is_transient());
                }
                other => panic!("v{theirs}: expected a version mismatch, got {other:?}"),
            }
        }
        assert!(matches!(
            check_hello(&Json::object().insert("net", "goodbye"), None).unwrap_err(),
            NetError::Protocol(_)
        ));
    }

    /// A hello decodes strictly: a fractional or negative version, or a
    /// mistyped field, is a protocol error naming the field, never a
    /// version the peer did not announce.
    #[test]
    fn malformed_hellos_are_protocol_errors_naming_the_field() {
        let hello = |version: Json| {
            Json::object()
                .insert("net", "hello")
                .insert("version", version)
                .insert("role", "worker")
        };
        let current = || hello(Json::Number(PROTOCOL_VERSION as f64));
        let version = "version: expected an integer in 0..=9007199254740992";
        for (frame, want) in [
            (hello(Json::Number(1.5)), format!("{version}, got 1.5")),
            (hello(Json::Number(1.9)), format!("{version}, got 1.9")),
            (hello(Json::Number(2.5)), format!("{version}, got 2.5")),
            (hello(Json::Number(-1.0)), format!("{version}, got -1")),
            (
                hello(Json::String("2".into())),
                format!("{version}, got a string"),
            ),
            (
                Json::object()
                    .insert("net", "hello")
                    .insert("version", PROTOCOL_VERSION)
                    .insert("role", 7),
                "role: expected a string, got 7".to_string(),
            ),
            (
                Json::object()
                    .insert("net", "hello")
                    .insert("role", "worker"),
                "missing field \"version\"".to_string(),
            ),
            (
                current().insert("max_frame", "65536"),
                "max_frame: expected an integer in 0..=9007199254740992, got a string".to_string(),
            ),
            (
                current().insert("max_frame", -1),
                "max_frame: expected an integer in 0..=9007199254740992, got -1".to_string(),
            ),
            (current(), "missing field \"max_frame\"".to_string()),
            (
                Json::object().insert("net", "goodbye"),
                "net: expected \"hello\", got a string".to_string(),
            ),
            (
                Json::object().insert("net", 1).insert("version", 2),
                "net: expected a string, got 1".to_string(),
            ),
        ] {
            match check_hello(&frame, None) {
                Err(NetError::Protocol(msg)) => assert_eq!(msg, want, "{frame}"),
                other => panic!("{frame}: expected a protocol error, got {other:?}"),
            }
        }
        // A well-formed hello from another version is version skew,
        // even from a v2 peer, whose hello has no `max_frame`.
        for theirs in [0, 1, 2, 3, 5] {
            match check_hello(&hello(Json::Number(theirs as f64)), None) {
                Err(NetError::VersionMismatch { ours: 4, theirs: t }) => assert_eq!(t, theirs),
                other => panic!("v{theirs}: expected a version mismatch, got {other:?}"),
            }
        }
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

    /// A send above the ceiling the peer announced writes nothing and
    /// fails permanently: the next frame is the first the peer reads.
    #[test]
    fn send_above_the_peers_ceiling_writes_nothing() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener
                .accept_timeout(Duration::from_secs(10))
                .unwrap()
                .expect("client connects");
            let mut conn = Conn::from_stream(stream, 128, Some(Duration::from_secs(10))).unwrap();
            conn.handshake_server("worker", Some("coordinator"))
                .unwrap();
            conn.recv().unwrap()
        });
        let mut conn = Conn::connect(
            &addr.to_string(),
            Duration::from_secs(10),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        conn.handshake_client("coordinator", Some("worker"))
            .unwrap();
        let big = Json::String("x".repeat(200));
        match conn.send(&big).unwrap_err() {
            err @ NetError::FrameTooLarge { len: 202, max: 128 } => {
                assert!(!err.is_transient());
                assert_eq!(
                    err.to_string(),
                    "frame of 202 bytes exceeds the 128-byte ceiling"
                );
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        let small = Json::object().insert("id", 1);
        conn.send(&small).unwrap();
        assert_eq!(server.join().unwrap().to_string(), small.to_string());
    }

    /// A connection made while `accept_timeout` waits is returned then,
    /// long before the timeout, as a blocking stream.
    #[test]
    fn accept_timeout_returns_a_connection_made_while_it_waits() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let mut stream = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            stream.write_all(b"x").unwrap();
            stream
        });
        let start = Instant::now();
        let (mut stream, _) = listener
            .accept_timeout(Duration::from_secs(60))
            .unwrap()
            .expect("the client's connection");
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(30), "waited {waited:?}");
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
        client.join().unwrap();
    }

    #[test]
    fn accept_timeout_returns_none_once_the_timeout_passes() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let timeout = Duration::from_millis(30);
        let start = Instant::now();
        assert!(listener.accept_timeout(timeout).unwrap().is_none());
        assert!(start.elapsed() >= timeout);
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
