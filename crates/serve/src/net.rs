//! The network serving tier: a non-blocking TCP front over the
//! [`ServeHandle`] pool, plus the matching load-generator client.
//!
//! The server is one single-threaded `poll(2)` readiness loop,
//! hand-rolled over raw `extern "C"` syscalls (the vendored environment
//! has no libc crate), that owns every socket and feeds decoded requests into the existing
//! worker pool. Workers wake the loop back through a self-pipe, once
//! per finished batch (see `ServeHandle::with_notifier`), so the loop
//! never blocks on anything but the poller. `poll(2)` is the readiness
//! call every unix has, so the tier runs on unix only: elsewhere
//! [`NetServer::run`] returns [`std::io::ErrorKind::Unsupported`]. The
//! frame codec and the load generator are portable.
//!
//! ## Wire protocol
//!
//! Length-prefixed binary frames, reusing the bank codec primitives
//! (`Encoder`/`Decoder` payloads, FNV-1a checksums):
//!
//! ```text
//! +--------+----------+------------------+------------------+
//! | kind   | len      | checksum         | payload          |
//! | u16 LE | u32 LE   | u64 LE FNV-1a    | len bytes        |
//! +--------+----------+------------------+------------------+
//! ```
//!
//! The checksum covers `kind ‖ len ‖ payload`, so a corrupted kind or
//! length never masquerades as a different valid frame. Payloads are
//! codec payloads: requests carry `str cut_id` + `[f64] signature`,
//! responses carry a status byte + the **exact serve output line** the
//! stdin front-end would print — which is what makes TCP responses
//! byte-identical to `ftd serve` and `ftd diagnose --requests` (the CI
//! `cmp` oracle).
//!
//! ## Flow control
//!
//! Responses go back in request order per connection (pipelining).
//! Each connection has a bounded in-flight budget and a write-buffer
//! high-water mark; crossing either deregisters read interest until the
//! pool and the peer catch up, so a slow reader costs bounded memory,
//! never an OOM. On shutdown (signal or [`ShutdownHandle::shutdown`])
//! the listener closes first, in-flight requests finish, responses
//! flush, and only then do connections close — bounded by
//! [`NetConfig::drain_deadline`].
//!

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::codec::{checksum_parts, CodecError, Decoder, Encoder};
use crate::obs::{MetricsRegistry, NetMetrics};
use crate::pool::{ServeHandle, ServeResult};
use crate::store::{BankStore, DiagnosisRequest};
use ft_core::Signature;

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Bytes in a frame header: `u16` kind + `u32` payload length + `u64`
/// FNV-1a checksum over `kind ‖ len ‖ payload`.
pub const FRAME_HEADER_LEN: usize = 14;

/// Hard per-frame payload cap (1 MiB): anything larger is rejected from
/// the header alone, before buffering a body.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;

/// Client → server: one diagnosis request (`str` CUT id + `[f64]`
/// signature coordinates, both in codec payload encoding).
pub const FRAME_REQUEST: u16 = 1;
/// Server → client: one diagnosis response — a status byte (0 ok,
/// 1 error) plus the exact tab-separated serve output line.
pub const FRAME_RESPONSE: u16 = 2;
/// Client → server: asks for a stats frame (empty payload).
pub(crate) const FRAME_STATS_REQUEST: u16 = 3;
/// Server → client: Prometheus text exposition of the live registry.
pub(crate) const FRAME_STATS: u16 = 4;
/// Server → client: terminal protocol-error report (`str` message);
/// the server closes the connection after flushing it.
pub const FRAME_ERROR: u16 = 5;

/// Human-readable name for a frame kind (`"unknown"` for anything
/// outside the protocol) — used in error attribution and metrics.
pub fn frame_name(kind: u16) -> &'static str {
    match kind {
        FRAME_REQUEST => "request",
        FRAME_RESPONSE => "response",
        FRAME_STATS_REQUEST => "stats-request",
        FRAME_STATS => "stats",
        FRAME_ERROR => "error",
        _ => "unknown",
    }
}

fn frame_checksum(kind: u16, len: u32, payload: &[u8]) -> u64 {
    checksum_parts(&[&kind.to_le_bytes(), &len.to_le_bytes(), payload])
}

/// Encodes one frame (header + payload). Panics if `payload` exceeds
/// [`MAX_FRAME_PAYLOAD`] — callers control payload sizes.
pub(crate) fn encode_frame(kind: u16, payload: &[u8]) -> Vec<u8> {
    build_frame(kind, payload.len(), |out| out.extend_from_slice(payload))
}

/// Builds one frame in a single allocation: the header, the `len`
/// payload bytes that `put` appends, and the checksum patched into the
/// header last. Panics if `len` exceeds [`MAX_FRAME_PAYLOAD`].
fn build_frame(kind: u16, len: usize, put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    assert!(
        len <= MAX_FRAME_PAYLOAD as usize,
        "frame payload over the wire cap"
    );
    let len32 = len as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&len32.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    put(&mut out);
    debug_assert_eq!(
        out.len(),
        FRAME_HEADER_LEN + len,
        "payload length as declared"
    );
    let checksum = frame_checksum(kind, len32, &out[FRAME_HEADER_LEN..]);
    out[6..FRAME_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// One whole decoded frame: `(kind, payload, consumed)` — the caller
/// drops `consumed` bytes off the front of its read buffer.
pub(crate) type DecodedFrame<'a> = (u16, &'a [u8], usize);

/// Tries to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds a valid prefix; read more bytes.
/// * `Ok(Some((kind, payload, consumed)))` — one whole frame; the
///   caller drops `consumed` bytes off the front.
/// * `Err((kind, error))` — the stream is corrupt at the front; `kind`
///   is whatever the (possibly corrupt) header claimed, for
///   attribution. The connection cannot be resynchronized.
///
/// # Errors
///
/// Returns the claimed frame kind plus a [`FrameError`] when the front
/// of `buf` is not a valid frame (oversized length, checksum mismatch,
/// or unknown kind).
pub fn decode_frame(buf: &[u8]) -> Result<Option<DecodedFrame<'_>>, (u16, FrameError)> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let kind = u16::from_le_bytes([buf[0], buf[1]]);
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err((
            kind,
            FrameError::Oversized {
                len,
                max: MAX_FRAME_PAYLOAD,
            },
        ));
    }
    let total = FRAME_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let stored = u64::from_le_bytes(buf[6..14].try_into().expect("8 header bytes"));
    let payload = &buf[FRAME_HEADER_LEN..total];
    let computed = frame_checksum(kind, len, payload);
    if stored != computed {
        return Err((kind, FrameError::ChecksumMismatch { stored, computed }));
    }
    if !(FRAME_REQUEST..=FRAME_ERROR).contains(&kind) {
        return Err((kind, FrameError::UnknownKind(kind)));
    }
    Ok(Some((kind, payload, total)))
}

/// Encodes a diagnosis request frame.
pub fn encode_request(request: &DiagnosisRequest) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(&request.cut_id);
    enc.put_f64s(request.signature.coords());
    encode_frame(FRAME_REQUEST, &enc.into_payload())
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// [`FrameError::Malformed`] with the underlying [`CodecError`] text.
pub fn decode_request(payload: &[u8]) -> Result<DiagnosisRequest, FrameError> {
    let mut dec = Decoder::over(payload);
    let inner = |e: CodecError| FrameError::Malformed(e.to_string());
    let cut_id = dec.get_str().map_err(inner)?;
    let coords = dec.get_f64s().map_err(inner)?;
    dec.finish().map_err(inner)?;
    Ok(DiagnosisRequest::new(cut_id, Signature::new(coords)))
}

/// Appended in place of whatever [`clip_text`] cut off.
const TRUNCATION_MARK: &str = "\n# truncated to fit the frame cap\n";

/// Clips `text` to at most `max` bytes (on a char boundary), replacing
/// the tail with [`TRUNCATION_MARK`] when anything was cut. Server
/// frame payloads echo peer-controlled input (a response line carries
/// the request's CUT id) or grow with registry contents (the stats
/// exposition), so every server-side encode path clips rather than
/// trusting itself to stay under [`MAX_FRAME_PAYLOAD`] — an oversized
/// body must degrade, never hit the [`encode_frame`] cap and panic the
/// event loop.
fn clip_text(text: &str, max: usize) -> Cow<'_, str> {
    if text.len() <= max {
        return Cow::Borrowed(text);
    }
    let mut end = max - TRUNCATION_MARK.len();
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    Cow::Owned(format!("{}{}", &text[..end], TRUNCATION_MARK))
}

/// Encodes a response frame: status byte (0 ok, 1 error) + the serve
/// output line (clipped, with a truncation mark, in the pathological
/// case of a line that would overflow the frame cap). The payload is laid out
/// as `Encoder::put_u8` + `Encoder::put_str` would, straight into
/// the frame buffer.
pub fn encode_response(line: &str, is_error: bool) -> Vec<u8> {
    // Payload overhead: 1 status byte + 4-byte string length prefix.
    const OVERHEAD: usize = 5;
    let line = clip_text(line, MAX_FRAME_PAYLOAD as usize - OVERHEAD);
    build_frame(FRAME_RESPONSE, OVERHEAD + line.len(), |out| {
        out.push(u8::from(is_error));
        out.extend_from_slice(&(line.len() as u32).to_le_bytes());
        out.extend_from_slice(line.as_bytes());
    })
}

/// Decodes a response frame payload into `(is_error, line)`.
///
/// # Errors
///
/// [`FrameError::Malformed`] with the underlying [`CodecError`] text.
pub fn decode_response(payload: &[u8]) -> Result<(bool, String), FrameError> {
    let mut dec = Decoder::over(payload);
    let inner = |e: CodecError| FrameError::Malformed(e.to_string());
    let status = dec.get_u8().map_err(inner)?;
    let line = dec.get_str().map_err(inner)?;
    dec.finish().map_err(inner)?;
    Ok((status != 0, line))
}

/// Encodes a single-string frame (`FRAME_STATS` or [`FRAME_ERROR`]).
/// Oversized text — a Prometheus snapshot can outgrow the wire cap —
/// is clipped, with a truncation mark, instead of panicking.
pub fn encode_text_frame(kind: u16, text: &str) -> Vec<u8> {
    let mut enc = Encoder::new();
    // Payload overhead: the 4-byte string length prefix.
    enc.put_str(&clip_text(text, MAX_FRAME_PAYLOAD as usize - 4));
    encode_frame(kind, &enc.into_payload())
}

/// Decodes a single-string frame payload.
///
/// # Errors
///
/// [`FrameError::Malformed`] with the underlying [`CodecError`] text.
pub fn decode_text_frame(payload: &[u8]) -> Result<String, FrameError> {
    let mut dec = Decoder::over(payload);
    let inner = |e: CodecError| FrameError::Malformed(e.to_string());
    let text = dec.get_str().map_err(inner)?;
    dec.finish().map_err(inner)?;
    Ok(text)
}

/// Renders the serve output line for one pool result: stdin `ftd
/// serve`, the TCP tier, `ftd loadgen --out` and the integration tests
/// all route through this one function, so the byte-identity oracle has
/// a single source of truth.
pub fn response_line(cut_id: &str, result: &ServeResult) -> String {
    match result {
        Ok(diagnosis) => crate::cli::render_diagnosis_line(cut_id, diagnosis),
        Err(e) => format!("{cut_id}\terror\t{e}"),
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header claims a payload over the wire cap.
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The cap ([`MAX_FRAME_PAYLOAD`]).
        max: u32,
    },
    /// The kind tag is outside the protocol.
    UnknownKind(u16),
    /// The stored checksum does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum carried in the header.
        stored: u64,
        /// Checksum computed over `kind ‖ len ‖ payload`.
        computed: u64,
    },
    /// The frame decoded but its payload did not (codec error text),
    /// or a structurally valid frame arrived in the wrong direction.
    Malformed(String),
}

impl FrameError {
    /// Stable short label for metrics
    /// (`net_protocol_errors_total{kind=…}`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FrameError::Oversized { .. } => "oversized",
            FrameError::UnknownKind(_) => "unknown-kind",
            FrameError::ChecksumMismatch { .. } => "checksum",
            FrameError::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            FrameError::Malformed(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Errors surfaced by the network tier, attributed the way
/// [`CodecError`] attributes bank failures: protocol errors name the
/// peer address and the frame kind they arrived in.
#[derive(Debug)]
pub enum NetError {
    /// An OS-level failure, with what the tier was doing at the time.
    Io {
        /// What was being attempted (`"bind"`, `"poll wait"`, …).
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A peer sent bytes that are not a valid frame.
    Protocol {
        /// The peer's socket address.
        peer: String,
        /// Frame-kind name the corrupt bytes claimed (or arrived in).
        frame: &'static str,
        /// What was wrong with them.
        error: FrameError,
    },
}

impl NetError {
    fn io(context: impl Into<String>) -> impl FnOnce(io::Error) -> NetError {
        let context = context.into();
        move |source| NetError::Io { context, source }
    }

    /// Stable short label for metrics: the frame-error label, or
    /// `"io"`.
    pub(crate) fn kind_label(&self) -> &'static str {
        match self {
            NetError::Io { .. } => "io",
            NetError::Protocol { error, .. } => error.label(),
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { context, source } => write!(f, "{context}: {source}"),
            NetError::Protocol { peer, frame, error } => {
                write!(f, "peer {peer}: bad {frame} frame: {error}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Protocol { error, .. } => Some(error),
        }
    }
}

// ---------------------------------------------------------------------
// Raw syscalls (no libc crate in the vendored environment)
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(crate) struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` on
    /// macOS and the BSDs.
    #[cfg(target_os = "linux")]
    pub(crate) type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(crate) type Nfds = std::os::raw::c_uint;

    extern "C" {
        pub(crate) fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        pub(crate) fn pipe(fds: *mut c_int) -> c_int;
        pub(crate) fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        pub(crate) fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub(crate) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub(crate) fn close(fd: c_int) -> c_int;
        pub(crate) fn signal(signum: c_int, handler: usize) -> usize;
    }

    pub(crate) const POLLIN: i16 = 0x1;
    pub(crate) const POLLOUT: i16 = 0x4;
    pub(crate) const POLLERR: i16 = 0x8;
    pub(crate) const POLLHUP: i16 = 0x10;
    pub(crate) const POLLNVAL: i16 = 0x20;

    pub(crate) const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub(crate) const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub(crate) const O_NONBLOCK: c_int = 0x4;

    pub(crate) const SIGINT: c_int = 2;
    pub(crate) const SIGTERM: c_int = 15;
}

// ---------------------------------------------------------------------
// Poller: poll(2), the one readiness call every unix has
// ---------------------------------------------------------------------

#[cfg(unix)]
pub(crate) use poller::{Event, Poller};

#[cfg(unix)]
mod poller {
    use super::sys;
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// One readiness report from [`Poller::wait`].
    pub(crate) struct Event {
        pub token: u64,
        pub readable: bool,
        pub writable: bool,
    }

    /// Readiness poller over raw fds, keyed by caller tokens. The
    /// registrations are the `pollfd` array itself, handed to `poll(2)`
    /// as is; `tokens[i]` names `fds[i]`.
    #[derive(Default)]
    pub(crate) struct Poller {
        fds: Vec<sys::PollFd>,
        tokens: Vec<u64>,
    }

    fn interest(read: bool, write: bool) -> i16 {
        (if read { sys::POLLIN } else { 0 }) | (if write { sys::POLLOUT } else { 0 })
    }

    /// Millisecond timeout for `poll(2)`: `None` blocks forever; a
    /// sub-millisecond remainder rounds **up** so a pending timer never
    /// busy-spins.
    fn timeout_ms(timeout: Option<Duration>) -> c_int {
        match timeout {
            None => -1,
            Some(d) => {
                d.as_millis().min(i32::MAX as u128) as c_int
                    + c_int::from(
                        d.subsec_nanos() % 1_000_000 != 0 && d.as_millis() < i32::MAX as u128,
                    )
            }
        }
    }

    impl Poller {
        fn slot(&self, fd: RawFd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        /// Registers `fd`, which must not be registered already.
        pub(crate) fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) {
            debug_assert!(self.slot(fd).is_none(), "fd {fd} registered twice");
            self.fds.push(sys::PollFd {
                fd,
                events: interest(read, write),
                revents: 0,
            });
            self.tokens.push(token);
        }

        pub(crate) fn modify(&mut self, fd: RawFd, read: bool, write: bool) {
            if let Some(i) = self.slot(fd) {
                self.fds[i].events = interest(read, write);
            }
        }

        pub(crate) fn remove(&mut self, fd: RawFd) {
            if let Some(i) = self.slot(fd) {
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
            }
        }

        /// Waits for readiness, filling `out` (cleared first). A signal
        /// interruption reports zero events instead of an error, so the
        /// caller re-checks its shutdown flag.
        pub(crate) fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<Event>,
        ) -> io::Result<()> {
            out.clear();
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` `#[repr(C)]` entries laid out as `struct
            // pollfd`; `poll(2)` writes only their `revents` fields and
            // keeps no pointer after it returns. Exercised by
            // `poller_tracks_interest_and_removal` and every
            // `tests/net_serve.rs` test.
            let n = unsafe {
                sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as sys::Nfds,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (fd, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = fd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                        != 0,
                    writable: bits & (sys::POLLOUT | sys::POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

/// A nonblocking self-pipe: the read end wakes the poller, the write
/// end is poked by pool workers and signal handlers.
#[cfg(unix)]
#[derive(Debug)]
struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

#[cfg(unix)]
impl WakePipe {
    fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live two-element `c_int` array, exactly
        // what `pipe(2)` writes. Exercised by every event-loop start
        // (`tests/net_serve.rs`) and `poller_tracks_interest_and_removal`.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            // SAFETY: `F_SETFL` takes one `int` argument, which is what
            // is passed; `fd` came from the `pipe(2)` above and is still
            // open. No pointer is involved. Exercised with `pipe` above.
            if unsafe { sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                // SAFETY: both fds came from the successful `pipe(2)`
                // above and no `WakePipe` owns them yet, so each is
                // closed exactly once, here. No test can make `fcntl`
                // fail on a fresh pipe; the invariant is the one `Drop`
                // relies on below.
                unsafe {
                    sys::close(fds[0]);
                    sys::close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// Reads pending wake bytes off the pipe (level-triggered pollers
    /// re-report anything left behind).
    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `buf` is a live 64-byte stack buffer and `count`
            // is its length, so `read(2)` writes only inside it;
            // `read_fd` stays open while `self` lives. Exercised by
            // `poller_tracks_interest_and_removal` and every wake of
            // the event loop.
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 || (n as usize) < buf.len() {
                break;
            }
        }
    }

    /// Writes one wake byte. A full pipe already holds a pending wake,
    /// so a failed write loses nothing.
    fn poke(&self) {
        let byte = [1u8];
        // SAFETY: `byte` is a live one-byte buffer that `write(2)` only
        // reads, and `write_fd` stays open while `self` lives (see
        // `Drop`). Async-signal-safe, which `drain_on_signal` needs.
        // Exercised by every batch completion and
        // `ShutdownHandle::shutdown` in `tests/net_serve.rs`, and by
        // `shutdown_after_run_pokes_only_its_own_pipe`.
        unsafe { sys::write(self.write_fd, byte.as_ptr().cast(), 1) };
    }
}

#[cfg(unix)]
impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: `WakePipe` owns both fds from `new` on and closes them
        // only here, once. Its one instance lives in `ShutdownShared`,
        // and every poker — each `ShutdownHandle` clone (the signal
        // target among them) and the pool notifier — holds the `Arc`
        // around it, so no `write(2)` can reach these fds once they
        // close: they close when the server and its last handle drop.
        // Exercised by every `tests/net_serve.rs` server that stops and
        // by `shutdown_after_run_pokes_only_its_own_pipe`.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// ---------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ShutdownShared {
    flag: AtomicBool,
    /// The event loop's self-pipe, created with the server. Pokers hold
    /// this struct's `Arc`, which keeps the pipe's fds open.
    #[cfg(unix)]
    wake: WakePipe,
}

/// Requests a graceful drain of a running [`NetServer`] from any thread
/// (or signal handler): stop accepting, finish in-flight requests,
/// flush, close. Cloneable; all clones target the same server.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<ShutdownShared>,
}

impl ShutdownHandle {
    fn new() -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            shared: Arc::new(ShutdownShared {
                flag: AtomicBool::new(false),
                #[cfg(unix)]
                wake: WakePipe::new()?,
            }),
        })
    }

    /// Flips the drain flag and wakes the event loop. Safe to call
    /// repeatedly, from any thread, from a signal handler (it only does
    /// an atomic store and a `write(2)`), and after the server stopped.
    pub fn shutdown(&self) {
        self.shared.flag.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        self.shared.wake.poke();
    }

    /// Whether a drain has been requested.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shared.flag.load(Ordering::SeqCst)
    }
}

#[cfg(unix)]
static SIGNAL_TARGET: std::sync::OnceLock<ShutdownHandle> = std::sync::OnceLock::new();

#[cfg(unix)]
extern "C" fn drain_on_signal(_sig: std::os::raw::c_int) {
    // Async-signal-safe: an atomic store and a write(2), nothing else.
    if let Some(handle) = SIGNAL_TARGET.get() {
        handle.shutdown();
    }
}

/// Installs SIGINT/SIGTERM handlers that trigger a graceful drain on
/// `handle`'s server — `kill -TERM` (or Ctrl-C) finishes in-flight
/// requests, flushes, and lets `ftd serve --listen` exit 0. First
/// installation wins for the life of the process. No-op off unix.
pub(crate) fn install_signal_drain(handle: &ShutdownHandle) {
    #[cfg(unix)]
    {
        let _ = SIGNAL_TARGET.set(handle.clone());
        // SAFETY: the handler is the address of `drain_on_signal`, an
        // `extern "C" fn(c_int)` that lives as long as the program and
        // does only async-signal-safe work (an atomic store and
        // `write(2)`); `sighandler_t` is a pointer-sized function
        // pointer, which `usize` matches. Exercised by the CI TCP smoke,
        // which sends SIGTERM and expects exit 0.
        unsafe {
            sys::signal(sys::SIGINT, drain_on_signal as *const () as usize);
            sys::signal(sys::SIGTERM, drain_on_signal as *const () as usize);
        }
    }
    #[cfg(not(unix))]
    {
        let _ = handle;
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Tunables for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Pool worker threads (at least 1).
    pub workers: usize,
    /// Per-connection in-flight request budget: parsing pauses (read
    /// interest drops) while this many responses are pending.
    pub max_inflight: usize,
    /// Per-connection unsent-bytes high-water mark with the same
    /// effect: a peer that stops reading stalls its own connection.
    pub write_highwater: usize,
    /// Period of the [`BankStore::refresh`] timer tick;
    /// [`Duration::ZERO`] disables the tick.
    pub refresh_interval: Duration,
    /// How long a graceful drain waits for connections to finish
    /// before force-closing them.
    pub drain_deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_inflight: 128,
            write_highwater: 1 << 20,
            refresh_interval: Duration::from_secs(1),
            drain_deadline: Duration::from_secs(10),
        }
    }
}

/// What a finished [`NetServer::run`] saw.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests answered (including per-request error lines).
    pub served: u64,
    /// Answered requests that carried an error line.
    pub errors: u64,
    /// Frames that killed their connection (malformed / oversized /
    /// checksum-failed / misdirected).
    pub protocol_errors: u64,
}

/// The non-blocking TCP serving tier: one readiness loop over all
/// connections, feeding the [`ServeHandle`] pool.
///
/// ```no_run
/// use std::sync::Arc;
/// use ft_serve::{BankStore, EngineConfig, MetricsRegistry};
/// use ft_serve::net::{NetConfig, NetServer};
///
/// let store = Arc::new(BankStore::in_memory(EngineConfig::default()));
/// let registry = Arc::new(MetricsRegistry::new());
/// let server = NetServer::bind("127.0.0.1:0", store, &registry, NetConfig::default())?;
/// let shutdown = server.shutdown_handle(); // e.g. hand to a signal handler
/// let summary = server.run()?;             // blocks until drained
/// # let _ = (shutdown, summary);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct NetServer {
    listener: TcpListener,
    store: Arc<BankStore>,
    registry: Arc<MetricsRegistry>,
    config: NetConfig,
    shutdown: ShutdownHandle,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:4174"`; port 0 picks a free one)
    /// and creates the event loop's self-pipe.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind or the pipe fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<BankStore>,
        registry: &Arc<MetricsRegistry>,
        config: NetConfig,
    ) -> Result<NetServer, NetError> {
        let listener = TcpListener::bind(addr).map_err(NetError::io("bind"))?;
        Ok(NetServer {
            listener,
            store,
            registry: Arc::clone(registry),
            config,
            shutdown: ShutdownHandle::new().map_err(NetError::io("wake pipe"))?,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.listener
            .local_addr()
            .map_err(NetError::io("local addr"))
    }

    /// A handle that triggers a graceful drain of [`NetServer::run`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Runs the server until a drain completes; returns what it served.
    /// This is the one TCP server: a `poll(2)` readiness loop, so it
    /// runs on unix only.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on a fatal loop error (poller or listener —
    /// never an individual connection), and off unix with
    /// [`io::ErrorKind::Unsupported`].
    pub fn run(self) -> Result<NetSummary, NetError> {
        #[cfg(unix)]
        {
            self.run_event_loop()
        }
        #[cfg(not(unix))]
        {
            Err(NetError::Io {
                context: "serve".into(),
                source: io::Error::new(
                    io::ErrorKind::Unsupported,
                    "the TCP tier needs poll(2), so it runs on unix only",
                ),
            })
        }
    }

    #[cfg(unix)]
    fn run_event_loop(self) -> Result<NetSummary, NetError> {
        let NetServer {
            listener,
            store,
            registry,
            config,
            shutdown,
        } = self;
        use std::os::unix::io::AsRawFd;

        listener
            .set_nonblocking(true)
            .map_err(NetError::io("listener nonblock"))?;
        let metrics = registry
            .is_enabled()
            .then(|| NetMetrics::from_registry(&registry));
        // The notifier holds the pipe's `Arc`, like every other poker.
        let shared = Arc::clone(&shutdown.shared);
        let handle = ServeHandle::with_notifier(
            Arc::clone(&store),
            config.workers,
            &registry,
            Arc::new(move || shared.wake.poke()),
        );
        let wake = &shutdown.shared.wake;

        let mut poller = Poller::default();
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false);
        poller.add(wake.read_fd, TOKEN_WAKE, true, false);

        let mut lp = EventLoop {
            poller,
            conns: HashMap::new(),
            submissions: VecDeque::new(),
            handle,
            registry: Arc::clone(&registry),
            metrics,
            config: config.clone(),
            next_token: FIRST_CONN_TOKEN,
            summary: NetSummary::default(),
        };
        let mut listener = Some(listener);
        let mut draining = false;
        let mut deadline: Option<Instant> = None;
        let mut next_refresh = (config.refresh_interval > Duration::ZERO)
            .then(|| Instant::now() + config.refresh_interval);
        let mut events: Vec<Event> = Vec::new();

        loop {
            if shutdown.is_shutdown() && !draining {
                draining = true;
                deadline = Some(Instant::now() + config.drain_deadline);
                next_refresh = None;
                if let Some(l) = listener.take() {
                    // Connections whose handshake already completed sit
                    // in the accept backlog; closing the listener would
                    // RST them. Adopt them into the drain first.
                    lp.accept_all(&l);
                    lp.poller.remove(l.as_raw_fd());
                    // Dropping closes the socket: no new connections.
                }
            }
            if draining && lp.conns.is_empty() {
                break;
            }

            let now = Instant::now();
            let mut timeout: Option<Duration> =
                next_refresh.map(|t| t.saturating_duration_since(now));
            if let Some(d) = deadline {
                let until = d.saturating_duration_since(now);
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            lp.poller
                .wait(timeout, &mut events)
                .map_err(NetError::io("poll wait"))?;

            let mut touched: Vec<u64> = Vec::new();
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => wake.drain(),
                    TOKEN_LISTENER => {
                        if let Some(l) = &listener {
                            lp.accept_all(l);
                        }
                    }
                    token => {
                        if let Some(conn) = lp.conns.get_mut(&token) {
                            if ev.readable {
                                read_into(conn, &lp.metrics);
                            }
                            let _ = ev.writable; // pump retries the write either way
                            touched.push(token);
                        }
                    }
                }
            }
            touched.extend(lp.absorb_completions());
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                lp.pump(token);
            }

            if let Some(t) = next_refresh {
                if Instant::now() >= t {
                    lp.handle.store().refresh();
                    if let Some(m) = &lp.metrics {
                        m.refresh_ticks.inc();
                    }
                    next_refresh = Some(Instant::now() + config.refresh_interval);
                }
            }
            if draining {
                if let Some(d) = deadline {
                    if Instant::now() >= d && !lp.conns.is_empty() {
                        let stragglers: Vec<u64> = lp.conns.keys().copied().collect();
                        for token in stragglers {
                            lp.close_conn(token);
                        }
                    }
                }
            }
        }

        let EventLoop {
            handle, summary, ..
        } = lp;
        drop(handle); // joins the workers (discarding any orphaned runs)
        Ok(summary)
    }
}

#[cfg(unix)]
fn report_protocol_error(
    peer: &str,
    frame: &'static str,
    error: &FrameError,
    metrics: &Option<NetMetrics>,
) {
    let err = NetError::Protocol {
        peer: peer.to_string(),
        frame,
        error: error.clone(),
    };
    eprintln!("ftd net: {err}");
    if let Some(m) = metrics {
        m.record_protocol_error(peer, err.kind_label());
    }
}

// ---------------------------------------------------------------------
// Event loop internals (unix)
// ---------------------------------------------------------------------

#[cfg(unix)]
const TOKEN_LISTENER: u64 = 0;
#[cfg(unix)]
const TOKEN_WAKE: u64 = 1;
#[cfg(unix)]
const FIRST_CONN_TOKEN: u64 = 2;

/// One queued reply slot. Replies leave in queue order; a diagnosis
/// slot's body arrives when its pool batch completes, a stats or error
/// slot is born with its body.
#[cfg(unix)]
struct Reply {
    received: Instant,
    body: Option<Vec<u8>>,
    /// Whether this reply samples the wire-latency histogram — true
    /// only for diagnosis requests, so stats and error frames never
    /// skew `net_request_wire_us`.
    measure: bool,
}

#[cfg(unix)]
struct Conn {
    stream: TcpStream,
    fd: std::os::unix::io::RawFd,
    peer: String,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    queue: VecDeque<Reply>,
    /// Peer half-closed (or a protocol error poisoned the stream):
    /// stop reading, finish pending replies, flush, close.
    read_closed: bool,
    /// Fatal socket error: close as soon as control returns.
    dead: bool,
    /// Read interest dropped under backpressure.
    stalled: bool,
    want_read: bool,
    want_write: bool,
}

#[cfg(unix)]
impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.queue.is_empty() && self.unsent() == 0)
    }
}

/// One pool submission's bookkeeping: which connection it came from and
/// the CUT id of each request, in order (needed to render lines).
#[cfg(unix)]
struct Submission {
    conn: u64,
    cuts: Vec<String>,
}

#[cfg(unix)]
struct EventLoop {
    poller: Poller,
    conns: HashMap<u64, Conn>,
    submissions: VecDeque<Submission>,
    handle: ServeHandle,
    registry: Arc<MetricsRegistry>,
    metrics: Option<NetMetrics>,
    config: NetConfig,
    next_token: u64,
    summary: NetSummary,
}

#[cfg(unix)]
impl EventLoop {
    fn accept_all(&mut self, listener: &TcpListener) {
        use std::os::unix::io::AsRawFd;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.add(fd, token, true, false);
                    self.summary.accepted += 1;
                    if let Some(m) = &self.metrics {
                        m.accepted.inc();
                        m.active_connections.add(1);
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            peer: peer.to_string(),
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            queue: VecDeque::new(),
                            read_closed: false,
                            dead: false,
                            stalled: false,
                            want_read: true,
                            want_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // transient (EMFILE, reset mid-accept, …)
            }
        }
    }

    /// Collects every completed pool batch into its connection's reply
    /// queue; returns the touched connection tokens.
    fn absorb_completions(&mut self) -> Vec<u64> {
        let mut touched = Vec::new();
        while let Some(results) = self.handle.try_drain_one() {
            let sub = self
                .submissions
                .pop_front()
                .expect("one submission per pool batch");
            self.summary.served += results.len() as u64;
            self.summary.errors += results.iter().filter(|r| r.is_err()).count() as u64;
            if let Some(conn) = self.conns.get_mut(&sub.conn) {
                fill_replies(conn, &sub.cuts, &results);
                touched.push(sub.conn);
            }
            // A closed connection's results are simply dropped.
        }
        touched
    }

    /// Makes all progress possible on one connection: parse newly read
    /// frames (submitting a pool batch), move completed replies to the
    /// write buffer, write, and either close or update poller interest.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let before = (conn.rbuf.len(), conn.queue.len(), conn.unsent());
            let mut batch = Vec::new();
            let mut cuts = Vec::new();
            self.summary.protocol_errors += parse_frames(
                conn,
                &self.config,
                &self.registry,
                &self.metrics,
                &mut batch,
                &mut cuts,
            );
            flush_ready(conn, &self.metrics);
            write_some(conn, &self.metrics);
            let progressed = (conn.rbuf.len(), conn.queue.len(), conn.unsent()) != before;
            if !batch.is_empty() {
                self.handle.submit(batch);
                self.submissions.push_back(Submission { conn: token, cuts });
            }
            if !progressed {
                break;
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.finished() {
            self.close_conn(token);
        } else {
            update_interest(conn, &mut self.poller, &self.metrics, &self.config);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(conn.fd);
            if let Some(m) = &self.metrics {
                m.closed.inc();
                m.active_connections.sub(1);
            }
            // Dropping the stream closes the socket.
        }
    }
}

/// The most one frame needs: [`read_into`] stops reading once a
/// connection's read buffer holds this much, leaving the rest in the
/// kernel, where TCP pushes back on the peer.
#[cfg(unix)]
const READ_CAP: usize = FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD as usize;

/// Reads what the socket has, until the read buffer reaches
/// [`READ_CAP`]. A buffer at the cap holds a whole frame, so the next
/// parse either consumes it or fills the in-flight budget, which stalls
/// the connection's reads until replies drain.
#[cfg(unix)]
fn read_into(conn: &mut Conn, metrics: &Option<NetMetrics>) {
    if conn.read_closed || conn.dead {
        return;
    }
    let mut chunk = [0u8; 16 * 1024];
    while conn.rbuf.len() < READ_CAP {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if let Some(m) = metrics {
                    m.bytes_in.add(n as u64);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Decodes complete frames off `conn.rbuf` up to the in-flight budget.
/// Requests go into `batch`/`cuts`; stats requests answer immediately
/// in-order; a corrupt frame queues a terminal error reply and poisons
/// the read side. Returns how many protocol errors occurred (0 or 1).
#[cfg(unix)]
fn parse_frames(
    conn: &mut Conn,
    config: &NetConfig,
    registry: &MetricsRegistry,
    metrics: &Option<NetMetrics>,
    batch: &mut Vec<DiagnosisRequest>,
    cuts: &mut Vec<String>,
) -> u64 {
    let mut consumed = 0usize;
    let failure = loop {
        // EOF does not gate parsing: bytes already buffered at
        // half-close are complete, valid requests and must be answered
        // (an unfinished trailing frame is simply abandoned).
        if conn.dead || conn.queue.len() >= config.max_inflight {
            break None;
        }
        enum Parsed {
            Request(DiagnosisRequest),
            Stats,
        }
        let step: Result<(Parsed, usize), (&'static str, FrameError)> =
            match decode_frame(&conn.rbuf[consumed..]) {
                Ok(None) => break None,
                Ok(Some((FRAME_REQUEST, payload, used))) => match decode_request(payload) {
                    Ok(request) => Ok((Parsed::Request(request), used)),
                    Err(error) => Err(("request", error)),
                },
                Ok(Some((FRAME_STATS_REQUEST, _, used))) => Ok((Parsed::Stats, used)),
                Ok(Some((other, _, _))) => Err((
                    frame_name(other),
                    FrameError::Malformed(format!("unexpected {} frame", frame_name(other))),
                )),
                Err((kind, error)) => Err((frame_name(kind), error)),
            };
        match step {
            Ok((parsed, used)) => {
                consumed += used;
                match parsed {
                    Parsed::Request(request) => {
                        if let Some(m) = metrics {
                            m.requests.inc();
                        }
                        cuts.push(request.cut_id.clone());
                        batch.push(request);
                        conn.queue.push_back(Reply {
                            received: Instant::now(),
                            body: None,
                            measure: true,
                        });
                    }
                    Parsed::Stats => {
                        let text = registry.snapshot().to_prometheus();
                        conn.queue.push_back(Reply {
                            received: Instant::now(),
                            body: Some(encode_text_frame(FRAME_STATS, &text)),
                            measure: false,
                        });
                    }
                }
            }
            Err((frame, error)) => break Some((frame, error)),
        }
    };
    if let Some((frame, error)) = failure {
        report_protocol_error(&conn.peer, frame, &error, metrics);
        // Terminal reply queued *behind* anything already accepted:
        // earlier requests on this connection still answer, then the
        // error flushes and the connection closes. One bad frame never
        // touches any other connection.
        conn.queue.push_back(Reply {
            received: Instant::now(),
            body: Some(encode_text_frame(FRAME_ERROR, &error.to_string())),
            measure: false,
        });
        conn.read_closed = true;
        conn.rbuf.clear();
        return 1;
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    0
}

/// Fills the next `results.len()` body-less reply slots of `conn` with
/// rendered response frames (global submission order preserves each
/// connection's arrival order, so slots and results line up exactly).
#[cfg(unix)]
fn fill_replies(conn: &mut Conn, cuts: &[String], results: &[ServeResult]) {
    let mut filled = 0usize;
    for reply in conn.queue.iter_mut() {
        if filled == results.len() {
            break;
        }
        if reply.body.is_none() {
            let result = &results[filled];
            let line = response_line(&cuts[filled], result);
            reply.body = Some(encode_response(&line, result.is_err()));
            filled += 1;
        }
    }
    debug_assert_eq!(filled, results.len(), "reply slots match the batch");
}

/// Moves completed replies, in order, from the queue to the write
/// buffer; records wire latency at that moment.
#[cfg(unix)]
fn flush_ready(conn: &mut Conn, metrics: &Option<NetMetrics>) {
    while let Some(front) = conn.queue.front() {
        let Some(body) = &front.body else { break };
        conn.wbuf.extend_from_slice(body);
        if front.measure {
            if let Some(m) = metrics {
                m.wire_latency
                    .record(front.received.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
        }
        conn.queue.pop_front();
    }
    // Reclaim consumed prefix once it dominates the buffer.
    if conn.wpos > 0 && conn.wpos * 2 >= conn.wbuf.len() {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}

/// Writes as much buffered output as the socket accepts.
#[cfg(unix)]
fn write_some(conn: &mut Conn, metrics: &Option<NetMetrics>) {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.wpos += n;
                if let Some(m) = metrics {
                    m.bytes_out.add(n as u64);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
}

/// Recomputes backpressure state and poller interest for `conn`.
#[cfg(unix)]
fn update_interest(
    conn: &mut Conn,
    poller: &mut Poller,
    metrics: &Option<NetMetrics>,
    config: &NetConfig,
) {
    let throttled =
        conn.queue.len() >= config.max_inflight || conn.unsent() >= config.write_highwater;
    if throttled && !conn.stalled {
        conn.stalled = true;
        if let Some(m) = metrics {
            m.backpressure_stalls.inc();
        }
    } else if !throttled {
        conn.stalled = false;
    }
    let want_read = !conn.read_closed && !conn.stalled;
    let want_write = conn.unsent() > 0;
    if want_read != conn.want_read || want_write != conn.want_write {
        conn.want_read = want_read;
        conn.want_write = want_write;
        poller.modify(conn.fd, want_read, want_write);
    }
}

// ---------------------------------------------------------------------
// Load generator (client side)
// ---------------------------------------------------------------------

/// Tunables for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent connections.
    pub connections: usize,
    /// Pipeline depth: requests in flight per connection.
    pub depth: usize,
    /// Total requests to send (0 = one pass over the request list).
    /// Requests are dealt round-robin across connections, cycling the
    /// list as needed.
    pub total: usize,
    /// Capture response lines (single connection only — with one
    /// connection, captured lines are in exact request order, which is
    /// what the byte-identity `cmp` consumes).
    pub capture: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            connections: 4,
            depth: 16,
            total: 0,
            capture: false,
        }
    }
}

/// What one [`run_loadgen`] run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections actually used.
    pub connections: usize,
    /// Pipeline depth per connection.
    pub depth: usize,
    /// Requests sent.
    pub requests: u64,
    /// Responses received.
    pub responses: u64,
    /// Responses that carried an error line.
    pub error_lines: u64,
    /// Wall time of the whole run, seconds.
    pub elapsed_s: f64,
    /// Throughput: responses / elapsed.
    pub rps: f64,
    /// Median request→response latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Bytes written to the server.
    pub bytes_out: u64,
    /// Bytes read from the server.
    pub bytes_in: u64,
    /// Response lines in request order (only with
    /// [`LoadgenConfig::capture`] on a single connection).
    pub lines: Option<Vec<String>>,
}

struct ConnOutcome {
    latencies_us: Vec<u64>,
    error_lines: u64,
    bytes_out: u64,
    bytes_in: u64,
    lines: Option<Vec<String>>,
}

/// Connects with retry until `timeout` — smooths over the startup race
/// of a just-spawned `ftd serve --listen` in scripts and CI.
///
/// # Errors
///
/// The last connect error once `timeout` is exhausted.
pub(crate) fn connect_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Drives pipelined traffic at a running server and measures it.
///
/// Each connection runs on one thread, in rounds: one write fills every
/// free pipeline slot, its requests stamped just before it (the write
/// after the last frame half-closes); then one read, whose whole
/// response frames are all timed against the instant it returned. A
/// request's latency thus runs from its write to the read that
/// completed its response, and waiting for a free slot never counts.
/// Request *i* of the run goes to connection `i % connections`, so with
/// one connection the stream order is exactly the input order.
///
/// A connection reads only between its writes, so a write the server
/// cannot take in at once waits until the server has answered enough of
/// it. That wait ends whatever the server's `max_inflight` is, as long
/// as the replies to `depth` requests fit in the socket buffers plus the
/// server's [`NetConfig::write_highwater`].
///
/// # Errors
///
/// [`NetError::Io`] if a connection fails mid-run, [`NetError::Protocol`]
/// if the server answers with anything but response frames.
pub fn run_loadgen(
    addr: &str,
    requests: &[DiagnosisRequest],
    config: &LoadgenConfig,
) -> Result<LoadgenReport, NetError> {
    if requests.is_empty() {
        return Err(NetError::Io {
            context: "loadgen".into(),
            source: io::Error::new(io::ErrorKind::InvalidInput, "no requests"),
        });
    }
    let total = if config.total == 0 {
        requests.len()
    } else {
        config.total
    };
    let connections = config.connections.clamp(1, total);
    let depth = config.depth.max(1);
    let capture = config.capture && connections == 1;

    let start = Instant::now();
    let mut threads = Vec::with_capacity(connections);
    for c in 0..connections {
        let count = total / connections + usize::from(c < total % connections);
        let frames: Vec<Vec<u8>> = (0..count)
            .map(|k| encode_request(&requests[(c + k * connections) % requests.len()]))
            .collect();
        let addr = addr.to_string();
        threads.push(std::thread::spawn(move || {
            drive_connection(&addr, frames, depth, capture)
        }));
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut error_lines = 0u64;
    let mut bytes_out = 0u64;
    let mut bytes_in = 0u64;
    let mut lines = capture.then(Vec::new);
    for thread in threads {
        let outcome = thread.join().map_err(|_| NetError::Io {
            context: "loadgen connection thread".into(),
            source: io::Error::other("panicked"),
        })??;
        latencies.extend(outcome.latencies_us);
        error_lines += outcome.error_lines;
        bytes_out += outcome.bytes_out;
        bytes_in += outcome.bytes_in;
        if let (Some(all), Some(got)) = (&mut lines, outcome.lines) {
            all.extend(got);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[rank] as f64
    };
    Ok(LoadgenReport {
        connections,
        depth,
        requests: total as u64,
        responses: latencies.len() as u64,
        error_lines,
        elapsed_s: elapsed,
        rps: if elapsed > 0.0 {
            latencies.len() as f64 / elapsed
        } else {
            0.0
        },
        p50_us: quantile(0.50),
        p90_us: quantile(0.90),
        p99_us: quantile(0.99),
        bytes_out,
        bytes_in,
        lines,
    })
}

fn drive_connection(
    addr: &str,
    frames: Vec<Vec<u8>>,
    depth: usize,
    capture: bool,
) -> Result<ConnOutcome, NetError> {
    let mut stream =
        connect_retry(addr, Duration::from_secs(10)).map_err(NetError::io("connect"))?;
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map_or_else(|_| addr.to_string(), |a| a.to_string());
    let protocol = |frame, error| NetError::Protocol {
        peer: peer.clone(),
        frame,
        error,
    };
    let mut outcome = ConnOutcome {
        latencies_us: Vec::with_capacity(frames.len()),
        error_lines: 0,
        bytes_out: 0,
        bytes_in: 0,
        lines: capture.then(Vec::new),
    };
    // The send instant of every request in flight, oldest first.
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(depth);
    let mut next = 0usize;
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf: Vec<u8> = Vec::new();
    loop {
        if in_flight.len() < depth && next < frames.len() {
            let end = frames.len().min(next + depth - in_flight.len());
            let now = Instant::now();
            for frame in &frames[next..end] {
                wbuf.extend_from_slice(frame);
                in_flight.push_back(now);
            }
            next = end;
            stream
                .write_all(&wbuf)
                .map_err(NetError::io("loadgen write"))?;
            outcome.bytes_out += wbuf.len() as u64;
            wbuf.clear();
            if next == frames.len() {
                // Half-close tells the server this stream is done: it
                // finishes the pipeline, flushes, and closes — the
                // graceful-drain path.
                stream
                    .shutdown(Shutdown::Write)
                    .map_err(NetError::io("loadgen half-close"))?;
            }
        }
        if in_flight.is_empty() {
            return Ok(outcome);
        }
        let read = read_once(&mut stream, &mut rbuf).map_err(|source| NetError::Io {
            context: format!(
                "loadgen read after {} of {} responses",
                outcome.latencies_us.len(),
                frames.len()
            ),
            source,
        })?;
        let received = Instant::now();
        outcome.bytes_in += read as u64;
        let mut consumed = 0usize;
        while let Some((kind, payload, used)) = decode_frame(&rbuf[consumed..])
            .map_err(|(kind, error)| protocol(frame_name(kind), error))?
        {
            consumed += used;
            match (kind, in_flight.pop_front()) {
                (FRAME_RESPONSE, Some(sent)) => {
                    let (is_error, line) =
                        decode_response(payload).map_err(|error| protocol("response", error))?;
                    let micros = received.duration_since(sent).as_micros();
                    let micros = u64::try_from(micros).unwrap_or(u64::MAX);
                    outcome.latencies_us.push(micros);
                    outcome.error_lines += u64::from(is_error);
                    if let Some(lines) = &mut outcome.lines {
                        lines.push(line);
                    }
                }
                (FRAME_ERROR, _) => {
                    let detail = decode_text_frame(payload)
                        .unwrap_or_else(|e| format!("undecodable error frame: {e}"));
                    let error = FrameError::Malformed(format!("server reported: {detail}"));
                    return Err(protocol("error", error));
                }
                // A response with no request in flight is unexpected too.
                (other, _) => {
                    let error = FrameError::Malformed("unexpected frame".into());
                    return Err(protocol(frame_name(other), error));
                }
            }
        }
        rbuf.drain(..consumed);
    }
}

/// Appends what one `read(2)` returns to `rbuf`, retrying a read a
/// signal interrupted; returns how many bytes arrived. Both callers
/// still await a frame, so the end of the stream is
/// [`io::ErrorKind::UnexpectedEof`].
fn read_once(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                rbuf.extend_from_slice(&chunk[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Fetches the server's Prometheus stats over a fresh connection.
///
/// # Errors
///
/// [`NetError::Io`] on connect/read failure, [`NetError::Protocol`] if
/// the reply is not a stats frame.
pub fn fetch_stats(addr: &str) -> Result<String, NetError> {
    let mut stream =
        connect_retry(addr, Duration::from_secs(10)).map_err(NetError::io("connect"))?;
    let peer = stream
        .peer_addr()
        .map_or_else(|_| addr.to_string(), |a| a.to_string());
    let protocol = |frame, error| NetError::Protocol {
        peer: peer.clone(),
        frame,
        error,
    };
    stream
        .write_all(&encode_frame(FRAME_STATS_REQUEST, &[]))
        .map_err(NetError::io("stats request"))?;
    stream
        .shutdown(Shutdown::Write)
        .map_err(NetError::io("stats half-close"))?;
    let mut rbuf = Vec::new();
    loop {
        match decode_frame(&rbuf).map_err(|(kind, error)| protocol(frame_name(kind), error))? {
            None => {
                read_once(&mut stream, &mut rbuf).map_err(NetError::io("stats read"))?;
            }
            Some((FRAME_STATS, payload, _)) => {
                return decode_text_frame(payload).map_err(|error| protocol("stats", error))
            }
            Some((other, _, _)) => {
                let error = FrameError::Malformed("expected a stats frame".into());
                return Err(protocol(frame_name(other), error));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> DiagnosisRequest {
        DiagnosisRequest::new("cut-7", Signature::new(vec![0.25, -1.5, 3.75]))
    }

    #[test]
    fn frames_roundtrip_every_kind() {
        let req = sample_request();
        let frame = encode_request(&req);
        let (kind, payload, consumed) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(kind, FRAME_REQUEST);
        assert_eq!(consumed, frame.len());
        assert_eq!(decode_request(payload).unwrap(), req);

        let frame = encode_response("cut-7\tR2\t25\t-3.5\tR2", false);
        let (kind, payload, _) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(kind, FRAME_RESPONSE);
        assert_eq!(
            decode_response(payload).unwrap(),
            (false, "cut-7\tR2\t25\t-3.5\tR2".to_string())
        );

        let frame = encode_frame(FRAME_STATS_REQUEST, &[]);
        let (kind, payload, _) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!((kind, payload.len()), (FRAME_STATS_REQUEST, 0));

        for kind in [FRAME_STATS, FRAME_ERROR] {
            let frame = encode_text_frame(kind, "some text\nwith lines");
            let (got, payload, _) = decode_frame(&frame).unwrap().unwrap();
            assert_eq!(got, kind);
            assert_eq!(decode_text_frame(payload).unwrap(), "some text\nwith lines");
        }
    }

    #[test]
    fn partial_frames_ask_for_more() {
        let frame = encode_request(&sample_request());
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes decoded: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_caught() {
        let frame = encode_request(&sample_request());
        let original = decode_frame(&frame).unwrap().unwrap();
        let original = (original.0, original.1.to_vec());
        for i in 0..frame.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = frame.clone();
                bad[i] ^= flip;
                match decode_frame(&bad) {
                    // A length corruption may leave a valid prefix
                    // (waiting for bytes that never come) — but must
                    // never produce the original frame.
                    Ok(None) => assert!((2..6).contains(&i), "byte {i} silently vanished"),
                    Ok(Some((kind, payload, _))) => {
                        assert!(
                            (kind, payload.to_vec()) != original,
                            "byte {i} flip decoded identically"
                        );
                        panic!("byte {i} flip passed the checksum");
                    }
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn oversized_server_text_clips_instead_of_panicking() {
        // A stats snapshot bigger than the wire cap (e.g. from many
        // labeled counters) must encode to a valid, decodable frame —
        // never trip the encode_frame assert on the event loop.
        let big = "x".repeat(MAX_FRAME_PAYLOAD as usize + 4096);
        let frame = encode_text_frame(FRAME_STATS, &big);
        assert!(frame.len() <= FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD as usize);
        let (kind, payload, _) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(kind, FRAME_STATS);
        let text = decode_text_frame(payload).unwrap();
        assert!(
            text.ends_with(TRUNCATION_MARK),
            "truncation must be visible"
        );
        assert!(text.starts_with("xxx"));

        // Same guarantee for response lines (a near-cap CUT id echoes
        // back into the line) — and clipping respects char boundaries.
        let line = "é".repeat(MAX_FRAME_PAYLOAD as usize);
        let frame = encode_response(&line, false);
        assert!(frame.len() <= FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD as usize);
        let (kind, payload, _) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(kind, FRAME_RESPONSE);
        let (is_error, got) = decode_response(payload).unwrap();
        assert!(!is_error);
        assert!(got.ends_with(TRUNCATION_MARK));

        // Under the cap nothing changes.
        let small = encode_text_frame(FRAME_STATS, "ok");
        let (_, payload, _) = decode_frame(&small).unwrap().unwrap();
        assert_eq!(decode_text_frame(payload).unwrap(), "ok");
    }

    #[test]
    fn encode_response_matches_the_encoder_composition() {
        // The frame as an `Encoder` payload copied into `encode_frame`:
        // `encode_response` must write the same bytes in one buffer.
        let composed = |line: &str, is_error: bool| {
            let mut enc = Encoder::new();
            enc.put_u8(u8::from(is_error));
            enc.put_str(&clip_text(line, MAX_FRAME_PAYLOAD as usize - 5));
            encode_frame(FRAME_RESPONSE, &enc.into_payload())
        };
        let clipped = "é".repeat(MAX_FRAME_PAYLOAD as usize / 2 + 7);
        assert!(clipped.len() > MAX_FRAME_PAYLOAD as usize - 5);
        for (line, is_error) in [
            ("cut-7\tR2\t25.000000000000004\t0.125\tR2,R3", false),
            ("ghost\terror\tunknown CUT `ghost`", true),
            (clipped.as_str(), false),
        ] {
            assert_eq!(
                encode_response(line, is_error),
                composed(line, is_error),
                "{}-byte line, error {is_error}",
                line.len()
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_after_run_pokes_only_its_own_pipe() {
        let store = Arc::new(BankStore::in_memory(crate::EngineConfig::default()));
        let registry = Arc::new(MetricsRegistry::noop());
        let config = NetConfig {
            workers: 1,
            ..NetConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", store, &registry, config).unwrap();
        let handle = server.shutdown_handle();
        let running = std::thread::spawn(move || server.run());
        handle.shutdown();
        running.join().unwrap().unwrap();
        handle.shared.wake.drain();

        // `run` has returned and the server is gone, so fds it closed
        // would be reused by these pipes. A late shutdown must poke only
        // the pipe this handle keeps open.
        let fresh: Vec<WakePipe> = (0..4).map(|_| WakePipe::new().unwrap()).collect();
        handle.shutdown();
        handle.shutdown();
        let mut poller = Poller::default();
        for (token, pipe) in fresh.iter().enumerate() {
            poller.add(pipe.read_fd, token as u64, true, false);
        }
        poller.add(handle.shared.wake.read_fd, 99, true, false);
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(50)), &mut events)
            .unwrap();
        let woken: Vec<u64> = events.iter().map(|e| e.token).collect();
        assert_eq!(woken, [99], "only the server's own pipe holds a byte");
    }

    #[test]
    fn oversized_frames_reject_from_the_header() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&FRAME_REQUEST.to_le_bytes());
        bad.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        bad.extend_from_slice(&[0u8; 8]);
        match decode_frame(&bad) {
            Err((kind, FrameError::Oversized { len, max })) => {
                assert_eq!(kind, FRAME_REQUEST);
                assert_eq!(len, MAX_FRAME_PAYLOAD + 1);
                assert_eq!(max, MAX_FRAME_PAYLOAD);
            }
            other => panic!("expected oversized rejection, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kinds_fail_after_the_checksum() {
        // A checksummed frame of kind 99: the checksum passes, the kind
        // doesn't — proving corruption attribution runs first.
        let frame = encode_frame(99, b"xyz");
        match decode_frame(&frame) {
            Err((99, FrameError::UnknownKind(99))) => {}
            other => panic!("expected unknown kind, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_stream_reassembles_at_every_split_point() {
        let requests = [
            DiagnosisRequest::new("a", Signature::new(vec![1.0, 2.0])),
            DiagnosisRequest::new("bb", Signature::new(vec![-0.5])),
            DiagnosisRequest::new("ccc", Signature::new(vec![0.0, 9.25, -7.0, 1e-9])),
        ];
        let stream: Vec<u8> = requests.iter().flat_map(encode_request).collect();
        for cut in 0..=stream.len() {
            let mut rbuf: Vec<u8> = Vec::new();
            let mut decoded: Vec<DiagnosisRequest> = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                rbuf.extend_from_slice(part);
                loop {
                    match decode_frame(&rbuf).expect("valid stream") {
                        None => break,
                        Some((kind, payload, consumed)) => {
                            assert_eq!(kind, FRAME_REQUEST);
                            decoded.push(decode_request(payload).unwrap());
                            rbuf.drain(..consumed);
                        }
                    }
                }
            }
            assert_eq!(decoded, requests, "split at byte {cut}");
            assert!(rbuf.is_empty());
        }
    }

    #[test]
    fn net_error_display_names_peer_and_frame() {
        let err = NetError::Protocol {
            peer: "10.0.0.7:51324".into(),
            frame: "request",
            error: FrameError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
        };
        let text = err.to_string();
        assert!(text.contains("10.0.0.7:51324"), "{text}");
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("checksum"), "{text}");
        assert_eq!(err.kind_label(), "checksum");
        assert_eq!(
            NetError::Protocol {
                peer: String::new(),
                frame: "x",
                error: FrameError::Oversized { len: 9, max: 1 },
            }
            .kind_label(),
            "oversized"
        );
        assert_eq!(
            NetError::Protocol {
                peer: String::new(),
                frame: "x",
                error: FrameError::UnknownKind(7),
            }
            .kind_label(),
            "unknown-kind"
        );
        assert_eq!(
            NetError::Protocol {
                peer: String::new(),
                frame: "x",
                error: FrameError::Malformed("nope".into()),
            }
            .kind_label(),
            "malformed"
        );
    }

    #[cfg(unix)]
    #[test]
    fn poller_tracks_interest_and_removal() {
        let mut poller = Poller::default();
        let (a, b) = (WakePipe::new().unwrap(), WakePipe::new().unwrap());
        poller.add(a.read_fd, 41, true, false);
        poller.add(b.read_fd, 42, true, false);
        let mut events = Vec::new();
        let ms = |n| Some(Duration::from_millis(n));
        poller.wait(ms(10), &mut events).unwrap();
        assert!(events.is_empty(), "nothing written yet");

        b.poke();
        poller.wait(ms(1000), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable && !events[0].writable);

        // The byte stays unread throughout: only interest hides it.
        poller.modify(b.read_fd, false, false);
        poller.wait(ms(10), &mut events).unwrap();
        assert!(events.is_empty(), "interest dropped");
        poller.modify(b.read_fd, true, false);
        poller.wait(ms(1000), &mut events).unwrap();
        assert_eq!(events.len(), 1, "interest restored");

        // Removing the first entry moves the last into its slot; its
        // token must move with it.
        poller.remove(a.read_fd);
        poller.wait(ms(1000), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        poller.remove(b.read_fd);
        poller.wait(ms(10), &mut events).unwrap();
        assert!(events.is_empty(), "removed fd reports nothing");
        b.drain();
    }
}
