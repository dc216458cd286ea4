//! The serving front end: one non-blocking readiness loop over the
//! [`ServeHandle`] pool, plus the matching TCP load-generator client.
//!
//! The server is one single-threaded `poll(2)` readiness loop,
//! hand-rolled over raw `extern "C"` syscalls (the vendored environment
//! has no libc crate), that owns every connection and feeds decoded
//! requests into the existing worker pool. Workers wake the loop back
//! through a self-pipe, once per finished batch (see
//! `ServeHandle::with_notifier`), so the loop never blocks on anything
//! but the poller. `poll(2)` is the readiness call every unix has, so
//! the loop runs on unix only: elsewhere [`NetServer::run`] returns
//! [`std::io::ErrorKind::Unsupported`]. The codecs and the load
//! generator are portable.
//!
//! A connection is generic over its byte stream and its codec, so one
//! connection core — parsing under the in-flight budget, the reply
//! queue, backpressure and the close rule — serves both front ends:
//!
//! * TCP sockets speak binary frames (below), accepted off a listener;
//! * stdin `ftd serve` is one more connection of the same loop, with no
//!   listener: request lines in on fd 0, response lines out on stdout
//!   (`LineCodec`). Neither fd is made non-blocking: fd 0 is read only
//!   when a zero-timeout poll finds it readable, and stdout takes
//!   blocking writes.
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
//! stdin front end prints — which is what makes TCP responses
//! byte-identical to `ftd serve` and `ftd diagnose --requests` (the CI
//! `cmp` oracle).
//!
//! ## Flow control
//!
//! Responses go back in request order per connection (pipelining).
//! Each connection has a bounded in-flight budget and a write-buffer
//! high-water mark; crossing either deregisters read interest until the
//! pool and the peer catch up, so a slow reader costs bounded memory,
//! never an OOM. A pass of the parser over a connection's buffered
//! input submits one pool batch, capped by the in-flight budget. On
//! shutdown (signal or [`ShutdownHandle::shutdown`]) the listener
//! closes first, in-flight requests finish, responses flush, and only
//! then do connections close — bounded by [`NetConfig::drain_deadline`].
//! Stdin serving has no listener: it ends when its one connection does.
//!

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};

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
// Request lines
// ---------------------------------------------------------------------

/// Parses one request line — `CUT_ID X1 X2 ...`, whitespace-separated —
/// into a [`DiagnosisRequest`]. Blank lines and `#` comments yield
/// `None`. This is the one reader of the line format: stdin `ftd serve`,
/// `ftd diagnose --requests` and `ftd loadgen` all parse through it.
///
/// # Errors
///
/// A message naming line `lineno` and, for a bad coordinate, its token.
pub(crate) fn parse_request_line(
    line: &str,
    lineno: usize,
) -> Result<Option<DiagnosisRequest>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let cut_id = tokens.next().expect("non-empty line has a first token");
    let coords: Vec<f64> = tokens
        .map(|t| {
            t.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("request line {lineno}: bad signature coordinate `{t}`"))
        })
        .collect::<Result<_, _>>()?;
    if coords.is_empty() {
        return Err(format!(
            "request line {lineno}: no signature coordinates after the CUT id"
        ));
    }
    Ok(Some(DiagnosisRequest::new(cut_id, Signature::new(coords))))
}

// ---------------------------------------------------------------------
// Codecs: how a connection's bytes become requests and answers
// ---------------------------------------------------------------------

/// The most input one connection buffers: one maximal frame. The event
/// loop stops reading a connection whose unparsed input reaches it,
/// leaving the rest in the kernel, where TCP pushes back on a peer; a
/// request line must end within it too, so the cap bounds memory on
/// stdin as it does on TCP.
const READ_CAP: usize = FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD as usize;

/// One item decoded off the front of a connection's input.
pub(crate) enum Item {
    /// A diagnosis request, answered in arrival order.
    Request(DiagnosisRequest),
    /// A request for the live Prometheus exposition.
    Stats,
    /// Bytes that carry nothing to answer: a blank or comment line.
    Skip,
}

/// A connection's wire format: how buffered input splits into
/// [`Item`]s, and what goes back for each. Frames serve TCP, lines
/// serve stdin. Connections are generic over their codec, so the
/// per-request path makes no dynamic call.
pub(crate) trait Codec {
    /// Why input could not be decoded, before it names its peer.
    type Fault;

    /// Decodes one item off the front of `buf`, returning it with the
    /// bytes it used, or `Ok(None)` until `buf` holds a whole one.
    /// `eof` says no more input will come. A fault is terminal: the
    /// stream cannot be resynchronised.
    fn decode(&mut self, buf: &[u8], eof: bool) -> Result<Option<(Item, usize)>, Self::Fault>;

    /// Appends the reply carrying one request's answer to `out`.
    fn answer(&self, cut_id: &str, result: &ServeResult, out: &mut Vec<u8>);

    /// Answers a stats request: the reply to queue, or `None` when the
    /// exposition goes elsewhere.
    fn stats(&self, registry: &MetricsRegistry) -> Option<Vec<u8>>;

    /// Turns a fault into the error it ends `peer`'s connection with,
    /// and the terminal reply, if any, that tells the peer.
    fn refuse(&self, fault: Self::Fault, peer: &str) -> (NetError, Option<Vec<u8>>);
}

/// The TCP wire: checksummed binary frames (see the module docs).
#[derive(Default)]
pub(crate) struct FrameCodec;

impl Codec for FrameCodec {
    /// The frame kind the corrupt bytes claimed, and what was wrong.
    type Fault = (&'static str, FrameError);

    fn decode(&mut self, buf: &[u8], _eof: bool) -> Result<Option<(Item, usize)>, Self::Fault> {
        // A trailing partial frame at EOF is simply abandoned.
        match decode_frame(buf) {
            Ok(None) => Ok(None),
            Ok(Some((FRAME_REQUEST, payload, used))) => match decode_request(payload) {
                Ok(request) => Ok(Some((Item::Request(request), used))),
                Err(error) => Err(("request", error)),
            },
            Ok(Some((FRAME_STATS_REQUEST, _, used))) => Ok(Some((Item::Stats, used))),
            Ok(Some((other, _, _))) => Err((
                frame_name(other),
                FrameError::Malformed(format!("unexpected {} frame", frame_name(other))),
            )),
            Err((kind, error)) => Err((frame_name(kind), error)),
        }
    }

    fn answer(&self, cut_id: &str, result: &ServeResult, out: &mut Vec<u8>) {
        out.extend_from_slice(&encode_response(
            &response_line(cut_id, result),
            result.is_err(),
        ));
    }

    fn stats(&self, registry: &MetricsRegistry) -> Option<Vec<u8>> {
        Some(encode_text_frame(
            FRAME_STATS,
            &registry.snapshot().to_prometheus(),
        ))
    }

    fn refuse(&self, (frame, error): Self::Fault, peer: &str) -> (NetError, Option<Vec<u8>>) {
        let reply = encode_text_frame(FRAME_ERROR, &error.to_string());
        let error = NetError::Protocol {
            peer: peer.to_string(),
            frame,
            error,
        };
        (error, Some(reply))
    }
}

/// The stdin wire: one request per line in ([`parse_request_line`]),
/// one [`response_line`] plus `\n` out per request. A `!stats` line
/// prints the live exposition to stderr, so stdout carries diagnoses
/// only. A last line without `\n` at EOF is still a request; a line
/// whose `\n` does not come within [`READ_CAP`] bytes is refused.
#[derive(Default)]
pub(crate) struct LineCodec {
    /// Lines decoded so far; errors name the line they are on.
    lineno: usize,
}

/// The in-band control line that asks for a stats snapshot.
const STATS_LINE: &str = "!stats";

impl Codec for LineCodec {
    /// The message, naming the line.
    type Fault = String;

    fn decode(&mut self, buf: &[u8], eof: bool) -> Result<Option<(Item, usize)>, Self::Fault> {
        let window = &buf[..buf.len().min(READ_CAP)];
        let (line, used) = match window.iter().position(|&b| b == b'\n') {
            Some(end) => (&buf[..end], end + 1),
            None if buf.len() >= READ_CAP => {
                return Err(format!(
                    "request line {}: no newline within the {READ_CAP}-byte line cap",
                    self.lineno + 1
                ))
            }
            None if eof && !buf.is_empty() => (buf, buf.len()),
            None => return Ok(None),
        };
        self.lineno += 1;
        let line = std::str::from_utf8(line)
            .map_err(|_| format!("request line {}: not UTF-8", self.lineno))?;
        if line.trim() == STATS_LINE {
            return Ok(Some((Item::Stats, used)));
        }
        Ok(Some(match parse_request_line(line, self.lineno)? {
            Some(request) => (Item::Request(request), used),
            None => (Item::Skip, used),
        }))
    }

    fn answer(&self, cut_id: &str, result: &ServeResult, out: &mut Vec<u8>) {
        out.extend_from_slice(response_line(cut_id, result).as_bytes());
        out.push(b'\n');
    }

    fn stats(&self, registry: &MetricsRegistry) -> Option<Vec<u8>> {
        if registry.is_enabled() {
            eprint!("{}", registry.snapshot().to_prometheus());
        } else {
            eprintln!("ftd serve: metrics disabled (run with --stats-file); !stats ignored");
        }
        None
    }

    fn refuse(&self, fault: Self::Fault, _peer: &str) -> (NetError, Option<Vec<u8>>) {
        // The message goes to stderr once the lines before it are
        // answered: it is what the stdin server exits with.
        (NetError::RequestLine(fault), None)
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

/// Errors surfaced by the serving loop and the load generator,
/// attributed the way [`CodecError`] attributes bank failures: protocol
/// errors name the peer address and the frame kind they arrived in, and
/// request-line errors the line.
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
    /// A stdin request line that cannot be served: the message names
    /// the line and, for a bad coordinate, its token.
    RequestLine(String),
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
            NetError::RequestLine(_) => "request-line",
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
            NetError::RequestLine(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Protocol { error, .. } => Some(error),
            NetError::RequestLine(_) => None,
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

    /// One readiness report from [`Poller::wait`]: the token's fd is
    /// ready for what it was registered for, and `readable` says whether
    /// that includes a read (or EOF, or an error).
    pub(crate) struct Event {
        pub token: u64,
        pub readable: bool,
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
/// installation wins for the life of the process.
#[cfg(unix)]
pub(crate) fn install_signal_drain(handle: &ShutdownHandle) {
    let _ = SIGNAL_TARGET.set(handle.clone());
    // SAFETY: the handler is the address of `drain_on_signal`, an
    // `extern "C" fn(c_int)` that lives as long as the program and does
    // only async-signal-safe work (an atomic store and `write(2)`);
    // `sighandler_t` is a pointer-sized function pointer, which `usize`
    // matches. Exercised by the CI TCP smoke, which sends SIGTERM and
    // expects exit 0.
    unsafe {
        sys::signal(sys::SIGINT, drain_on_signal as *const () as usize);
        sys::signal(sys::SIGTERM, drain_on_signal as *const () as usize);
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
            self.run_with_tick(|| {})
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

    /// [`NetServer::run`], calling `on_tick` after each refresh tick.
    #[cfg(unix)]
    pub(crate) fn run_with_tick(self, on_tick: impl FnMut()) -> Result<NetSummary, NetError> {
        let NetServer {
            listener,
            store,
            registry,
            config,
            shutdown,
        } = self;
        EventLoop::new(store, &registry, &config, &shutdown).run(
            Some(listener),
            EventLoop::accept_all,
            &shutdown,
            on_tick,
        )
    }
}

/// Serves stdin: request lines in on fd 0, response lines out on stdout,
/// through the event loop with that one connection and no listener,
/// calling `on_tick` after each refresh tick. Returns once the last
/// request line is answered and written, or once stdout closes.
///
/// # Errors
///
/// [`NetError::RequestLine`] for a line that cannot be served (every
/// line before it is answered first), [`NetError::Io`] for a failed read
/// of stdin or write of stdout (a closed stdout is no error), or a fatal
/// loop error.
#[cfg(unix)]
pub(crate) fn serve_stdin(
    store: Arc<BankStore>,
    registry: &Arc<MetricsRegistry>,
    config: &NetConfig,
    on_tick: impl FnMut(),
) -> Result<NetSummary, NetError> {
    let shutdown = ShutdownHandle::new().map_err(NetError::io("wake pipe"))?;
    let stdio = StdStreams::open().map_err(NetError::io("stdio"))?;
    let fd = stdio.input.as_raw_fd();
    let mut lp = EventLoop::new(store, registry, config, &shutdown);
    lp.add_conn(stdio, LineCodec::default(), fd, "stdio".to_string());
    lp.run(None, |_, _| {}, &shutdown, on_tick)
}

/// Stdin and stdout as one connection's byte stream. Neither fd is made
/// non-blocking, since either may be a terminal or a pipe that another
/// process shares. A read first asks a zero-timeout poll whether fd 0 is
/// readable and reports `WouldBlock` when it is not, so the event loop
/// never blocks in it; a write blocks until stdout takes the bytes, as
/// stdin serving has no other connection to starve.
#[cfg(unix)]
struct StdStreams {
    /// Duplicates of fds 0 and 1: reads and writes bypass std's
    /// buffers, and dropping them closes neither.
    input: std::fs::File,
    output: std::fs::File,
    ready: Poller,
    events: Vec<Event>,
}

#[cfg(unix)]
impl StdStreams {
    fn open() -> io::Result<StdStreams> {
        use std::os::fd::AsFd;
        let input = std::fs::File::from(io::stdin().as_fd().try_clone_to_owned()?);
        let output = std::fs::File::from(io::stdout().as_fd().try_clone_to_owned()?);
        let mut ready = Poller::default();
        ready.add(input.as_raw_fd(), 0, true, false);
        Ok(StdStreams {
            input,
            output,
            ready,
            events: Vec::with_capacity(1),
        })
    }
}

#[cfg(unix)]
impl Read for StdStreams {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.ready.wait(Some(Duration::ZERO), &mut self.events)?;
        if self.events.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.input.read(buf)
    }
}

#[cfg(unix)]
impl Write for StdStreams {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
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
/// slot's answer arrives when its pool batch completes, a stats or error
/// slot is born with its bytes.
#[cfg(unix)]
struct Reply {
    received: Instant,
    body: Body,
}

/// What a reply slot holds.
#[cfg(unix)]
enum Body {
    /// A request still with the pool.
    Awaiting,
    /// A request's CUT id and result, rendered as the reply reaches the
    /// write buffer. Only these sample the wire-latency histogram, so
    /// stats and error replies never skew `net_request_wire_us`.
    Answer(String, ServeResult),
    /// A reply born whole: stats, or a terminal error.
    Ready(Vec<u8>),
}

/// One connection of the event loop: a byte stream `S` (a TCP socket,
/// stdin/stdout, or a scripted stand-in in tests) spoken in codec `C`.
/// The rules around the stream — parsing under the in-flight budget,
/// the reply queue, backpressure and the close rule — are the same for
/// every stream and codec.
#[cfg(unix)]
struct Conn<S, C> {
    stream: S,
    codec: C,
    token: u64,
    fd: RawFd,
    peer: String,
    /// Input read; bytes before `rpos` are parsed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Output; bytes before `wpos` are written.
    wbuf: Vec<u8>,
    wpos: usize,
    queue: VecDeque<Reply>,
    /// Requests with the pool: the in-flight budget counts these, so a
    /// batch's answers free it before they are rendered and written.
    awaiting: usize,
    /// Peer half-closed (or a protocol error poisoned the stream):
    /// stop reading, finish pending replies, flush, close.
    read_closed: bool,
    /// Fatal stream error: close as soon as control returns.
    dead: bool,
    /// Read interest dropped under backpressure.
    stalled: bool,
    /// The (read, write) interest registered with the poller; with
    /// neither, the fd is not registered at all.
    interest: (bool, bool),
    /// What ended the connection, if it was more than a peer leaving.
    failure: Option<NetError>,
}

#[cfg(unix)]
impl<S: Read + Write, C: Codec> Conn<S, C> {
    fn new(stream: S, codec: C, token: u64, fd: RawFd, peer: String) -> Self {
        Conn {
            stream,
            codec,
            token,
            fd,
            peer,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            queue: VecDeque::new(),
            awaiting: 0,
            read_closed: false,
            dead: false,
            stalled: false,
            interest: (true, false),
            failure: None,
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.queue.is_empty() && self.unsent() == 0)
    }

    /// What a pump pass moves: input parsed, replies queued, output
    /// written.
    fn progress(&self) -> (usize, usize, usize) {
        (self.rpos, self.queue.len(), self.unsent())
    }

    /// Ends the connection on a stream error. A peer that went away is
    /// no failure; anything else is recorded.
    fn fail(&mut self, op: &str, error: io::Error) {
        self.dead = true;
        use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
        if !matches!(
            error.kind(),
            BrokenPipe | ConnectionReset | ConnectionAborted
        ) {
            self.failure.get_or_insert(NetError::Io {
                context: format!("{} {op}", self.peer),
                source: error,
            });
        }
    }

    /// Reads what the stream has, until the unparsed input reaches
    /// [`READ_CAP`]. Input at the cap holds a whole frame (or refuses a
    /// line), so the next parse either consumes it or fills the
    /// in-flight budget, which stalls the connection's reads until
    /// replies drain.
    fn read_into(&mut self, metrics: &Option<NetMetrics>) {
        if self.read_closed || self.dead {
            return;
        }
        // Reclaim the parsed prefix once it dominates the buffer, so
        // each input byte moves at most once on average.
        if self.rpos > 0 && self.rpos * 2 >= self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        while self.rbuf.len() - self.rpos < READ_CAP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if let Some(m) = metrics {
                        m.bytes_in.add(n as u64);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail("read", e);
                    break;
                }
            }
        }
    }

    /// Decodes buffered input up to the in-flight budget: one parse
    /// pass, whose requests go into `batch`/`cuts` as one pool batch.
    /// Stats requests answer immediately, in order; a fault queues the
    /// codec's terminal reply and poisons the read side. Returns how
    /// many protocol errors occurred (0 or 1).
    fn parse(
        &mut self,
        max_inflight: usize,
        registry: &MetricsRegistry,
        metrics: &Option<NetMetrics>,
        batch: &mut Vec<DiagnosisRequest>,
        cuts: &mut Vec<String>,
    ) -> u64 {
        let fault = loop {
            // EOF does not gate parsing: input buffered before it is
            // whole requests that must be answered.
            if self.dead || self.awaiting >= max_inflight {
                break None;
            }
            match self.codec.decode(&self.rbuf[self.rpos..], self.read_closed) {
                Ok(None) => break None,
                Ok(Some((item, used))) => {
                    self.rpos += used;
                    let body = match item {
                        Item::Request(request) => {
                            if let Some(m) = metrics {
                                m.requests.inc();
                            }
                            cuts.push(request.cut_id.clone());
                            batch.push(request);
                            self.awaiting += 1;
                            Body::Awaiting
                        }
                        Item::Stats => match self.codec.stats(registry) {
                            Some(bytes) => Body::Ready(bytes),
                            None => continue,
                        },
                        Item::Skip => continue,
                    };
                    self.queue.push_back(Reply {
                        received: Instant::now(),
                        body,
                    });
                }
                Err(fault) => break Some(fault),
            }
        };
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        let Some(fault) = fault else {
            return 0;
        };
        let (error, reply) = self.codec.refuse(fault, &self.peer);
        if let Some(m) = metrics {
            m.record_protocol_error(&self.peer, error.kind_label());
        }
        // The terminal reply queues *behind* everything already
        // accepted: earlier requests on this connection still answer,
        // then it flushes and the connection closes. One bad input never
        // touches any other connection.
        if let Some(bytes) = reply {
            self.queue.push_back(Reply {
                received: Instant::now(),
                body: Body::Ready(bytes),
            });
        }
        self.failure = Some(error);
        self.read_closed = true;
        self.rbuf.clear();
        self.rpos = 0;
        1
    }

    /// Fills the next `results.len()` awaiting reply slots (global
    /// submission order preserves each connection's arrival order, so
    /// slots and results line up exactly).
    fn fill_replies(&mut self, cuts: Vec<String>, results: Vec<ServeResult>) {
        let mut answers = cuts.into_iter().zip(results);
        for reply in self.queue.iter_mut() {
            if !matches!(reply.body, Body::Awaiting) {
                continue;
            }
            let Some((cut, result)) = answers.next() else {
                break;
            };
            reply.body = Body::Answer(cut, result);
            self.awaiting -= 1;
        }
        debug_assert!(answers.next().is_none(), "reply slots match the batch");
    }

    /// Moves completed replies, in order, from the queue to the write
    /// buffer, rendering answers as they go; records wire latency at
    /// that moment.
    fn flush_ready(&mut self, metrics: &Option<NetMetrics>) {
        while self
            .queue
            .front()
            .is_some_and(|r| !matches!(r.body, Body::Awaiting))
        {
            let reply = self.queue.pop_front().expect("front checked above");
            match reply.body {
                Body::Answer(cut, result) => {
                    self.codec.answer(&cut, &result, &mut self.wbuf);
                    if let Some(m) = metrics {
                        m.wire_latency.record(
                            reply.received.elapsed().as_micros().min(u64::MAX as u128) as u64,
                        );
                    }
                }
                Body::Ready(bytes) => self.wbuf.extend_from_slice(&bytes),
                Body::Awaiting => unreachable!("the loop stops at an awaiting reply"),
            }
        }
        // Reclaim consumed prefix once it dominates the buffer.
        if self.wpos > 0 && self.wpos * 2 >= self.wbuf.len() {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Writes as much buffered output as the stream accepts.
    fn write_some(&mut self, metrics: &Option<NetMetrics>) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.fail("write", io::ErrorKind::WriteZero.into());
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    if let Some(m) = metrics {
                        m.bytes_out.add(n as u64);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail("write", e);
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// Recomputes backpressure state and poller interest. An fd with no
    /// interest leaves the poller: a pipe whose writer is gone reports
    /// `POLLHUP` whatever was asked, which would spin the loop.
    fn update_interest(
        &mut self,
        poller: &mut Poller,
        metrics: &Option<NetMetrics>,
        config: &NetConfig,
    ) {
        let throttled =
            self.awaiting >= config.max_inflight || self.unsent() >= config.write_highwater;
        if throttled && !self.stalled {
            self.stalled = true;
            if let Some(m) = metrics {
                m.backpressure_stalls.inc();
            }
        } else if !throttled {
            self.stalled = false;
        }
        let interest = (!self.read_closed && !self.stalled, self.unsent() > 0);
        if interest == self.interest {
            return;
        }
        match (self.interest, interest) {
            (_, (false, false)) => poller.remove(self.fd),
            ((false, false), (read, write)) => poller.add(self.fd, self.token, read, write),
            (_, (read, write)) => poller.modify(self.fd, read, write),
        }
        self.interest = interest;
    }
}

/// One pool submission's bookkeeping: which connection it came from and
/// the CUT id of each request, in order (needed to render lines).
#[cfg(unix)]
struct Submission {
    conn: u64,
    cuts: Vec<String>,
}

/// The readiness loop over connections that all speak codec `C` over
/// streams `S`.
#[cfg(unix)]
struct EventLoop<S, C> {
    poller: Poller,
    conns: HashMap<u64, Conn<S, C>>,
    submissions: VecDeque<Submission>,
    handle: ServeHandle,
    registry: Arc<MetricsRegistry>,
    metrics: Option<NetMetrics>,
    config: NetConfig,
    next_token: u64,
    summary: NetSummary,
    /// Log each connection's failure as it closes, rather than keep the
    /// first as the loop's result.
    log_failures: bool,
    failure: Option<NetError>,
}

#[cfg(unix)]
impl<S: Read + Write, C: Codec> EventLoop<S, C> {
    /// A loop with no connection yet: the pool, woken through
    /// `shutdown`'s self-pipe, which the poller watches.
    fn new(
        store: Arc<BankStore>,
        registry: &Arc<MetricsRegistry>,
        config: &NetConfig,
        shutdown: &ShutdownHandle,
    ) -> Self {
        let metrics = registry
            .is_enabled()
            .then(|| NetMetrics::from_registry(registry));
        // The notifier holds the pipe's `Arc`, like every other poker.
        let shared = Arc::clone(&shutdown.shared);
        let handle = ServeHandle::with_notifier(
            store,
            config.workers,
            registry,
            Arc::new(move || shared.wake.poke()),
        );
        let mut poller = Poller::default();
        poller.add(shutdown.shared.wake.read_fd, TOKEN_WAKE, true, false);
        EventLoop {
            poller,
            conns: HashMap::new(),
            submissions: VecDeque::new(),
            handle,
            registry: Arc::clone(registry),
            metrics,
            config: config.clone(),
            next_token: FIRST_CONN_TOKEN,
            summary: NetSummary::default(),
            log_failures: false,
            failure: None,
        }
    }

    fn add_conn(&mut self, stream: S, codec: C, fd: RawFd, peer: String) {
        let token = self.next_token;
        self.next_token += 1;
        self.poller.add(fd, token, true, false);
        self.summary.accepted += 1;
        if let Some(m) = &self.metrics {
            m.accepted.inc();
            m.active_connections.add(1);
        }
        self.conns
            .insert(token, Conn::new(stream, codec, token, fd, peer));
    }

    /// Runs until the loop has no listener and no connection: with a
    /// listener (`accept` takes its connections), until a drain
    /// completes; without one, until the connections it started with
    /// close.
    fn run(
        mut self,
        mut listener: Option<TcpListener>,
        accept: impl Fn(&mut Self, &TcpListener),
        shutdown: &ShutdownHandle,
        mut on_tick: impl FnMut(),
    ) -> Result<NetSummary, NetError> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)
                .map_err(NetError::io("listener nonblock"))?;
            self.poller.add(l.as_raw_fd(), TOKEN_LISTENER, true, false);
        }
        // A server on a listener logs a failed connection and serves on;
        // a loop over its own connections ends with the first failure.
        self.log_failures = listener.is_some();
        let wake = &shutdown.shared.wake;
        let refresh = self.config.refresh_interval;
        let mut draining = false;
        let mut deadline: Option<Instant> = None;
        let mut next_refresh = (refresh > Duration::ZERO).then(|| Instant::now() + refresh);
        let mut events: Vec<Event> = Vec::new();

        loop {
            if shutdown.is_shutdown() && !draining {
                draining = true;
                deadline = Some(Instant::now() + self.config.drain_deadline);
                next_refresh = None;
                if let Some(l) = listener.take() {
                    // Connections whose handshake already completed sit
                    // in the accept backlog; closing the listener would
                    // RST them. Adopt them into the drain first.
                    accept(&mut self, &l);
                    self.poller.remove(l.as_raw_fd());
                    // Dropping closes the socket: no new connections.
                }
            }
            if listener.is_none() && self.conns.is_empty() {
                break;
            }

            let now = Instant::now();
            let mut timeout: Option<Duration> =
                next_refresh.map(|t| t.saturating_duration_since(now));
            if let Some(d) = deadline {
                let until = d.saturating_duration_since(now);
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            self.poller
                .wait(timeout, &mut events)
                .map_err(NetError::io("poll wait"))?;

            let mut touched: Vec<u64> = Vec::new();
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => wake.drain(),
                    TOKEN_LISTENER => {
                        if let Some(l) = &listener {
                            accept(&mut self, l);
                        }
                    }
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.readable {
                                conn.read_into(&self.metrics);
                            }
                            // pump retries the write either way
                            touched.push(token);
                        }
                    }
                }
            }
            touched.extend(self.absorb_completions());
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.pump(token);
            }

            if let Some(t) = next_refresh {
                if Instant::now() >= t {
                    self.handle.store().refresh();
                    if let Some(m) = &self.metrics {
                        m.refresh_ticks.inc();
                    }
                    on_tick();
                    next_refresh = Some(Instant::now() + refresh);
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d && !self.conns.is_empty() {
                    let stragglers: Vec<u64> = self.conns.keys().copied().collect();
                    for token in stragglers {
                        self.close_conn(token);
                    }
                }
            }
        }

        let EventLoop {
            handle,
            summary,
            failure,
            ..
        } = self;
        drop(handle); // joins the workers (discarding any orphaned runs)
        failure.map_or(Ok(summary), Err)
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
                conn.fill_replies(sub.cuts, results);
                touched.push(sub.conn);
            }
            // A closed connection's results are simply dropped.
        }
        touched
    }

    /// Makes all progress possible on one connection: parse buffered
    /// input and submit it as a pool batch, move completed replies to
    /// the write buffer, write, and either close or update poller
    /// interest. The batch goes to the pool before the connection's
    /// finished answers are rendered and written, so the pool works
    /// while the loop does.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let before = conn.progress();
            let mut batch = Vec::new();
            let mut cuts = Vec::new();
            self.summary.protocol_errors += conn.parse(
                self.config.max_inflight,
                &self.registry,
                &self.metrics,
                &mut batch,
                &mut cuts,
            );
            if !batch.is_empty() {
                self.handle.submit(batch);
                self.submissions.push_back(Submission { conn: token, cuts });
            }
            conn.flush_ready(&self.metrics);
            conn.write_some(&self.metrics);
            if conn.progress() == before {
                break;
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.finished() {
            self.close_conn(token);
        } else {
            conn.update_interest(&mut self.poller, &self.metrics, &self.config);
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.remove(conn.fd);
        if let Some(m) = &self.metrics {
            m.closed.inc();
            m.active_connections.sub(1);
        }
        match conn.failure {
            Some(e) if self.log_failures => eprintln!("ftd net: {e}"),
            Some(e) => {
                self.failure.get_or_insert(e);
            }
            None => {}
        }
        // Dropping the stream closes the socket.
    }
}

#[cfg(unix)]
impl EventLoop<TcpStream, FrameCodec> {
    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    self.add_conn(stream, FrameCodec, fd, peer.to_string());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // transient (EMFILE, reset mid-accept, …)
            }
        }
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
/// A round's write takes only what the socket accepts at once, and the
/// rest waits for the next round, after the read. A server that stops
/// reading (its `max_inflight` requests or
/// [`NetConfig::write_highwater`] bytes of replies are pending) holds
/// answers, so that read returns, and the client never waits on a
/// write the server cannot take until it is read from: any depth
/// finishes.
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
    // Writes never wait; only the read of a round blocks (see
    // `run_loadgen`).
    let blocking =
        |stream: &TcpStream, on: bool| stream.set_nonblocking(!on).map_err(NetError::io("loadgen"));
    blocking(&stream, false)?;
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
    // Frames stamped but not yet all written; bytes before `wpos` are.
    let mut wbuf: Vec<u8> = Vec::new();
    let mut wpos = 0usize;
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
        }
        if wpos < wbuf.len() {
            let wrote = write_available(&mut stream, &wbuf[wpos..])
                .map_err(NetError::io("loadgen write"))?;
            outcome.bytes_out += wrote as u64;
            wpos += wrote;
            if wpos == wbuf.len() {
                wbuf.clear();
                wpos = 0;
                if next == frames.len() {
                    // Half-close tells the server this stream is done:
                    // it finishes the pipeline, flushes, and closes —
                    // the graceful-drain path.
                    stream
                        .shutdown(Shutdown::Write)
                        .map_err(NetError::io("loadgen half-close"))?;
                }
            }
        }
        if in_flight.is_empty() {
            return Ok(outcome);
        }
        blocking(&stream, true)?;
        let read = read_once(&mut stream, &mut rbuf).map_err(|source| NetError::Io {
            context: format!(
                "loadgen read after {} of {} responses",
                outcome.latencies_us.len(),
                frames.len()
            ),
            source,
        })?;
        let received = Instant::now();
        blocking(&stream, false)?;
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

/// Writes what the non-blocking `stream` takes of `bytes` at once, and
/// returns how much that was.
fn write_available(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<usize> {
    let mut wrote = 0usize;
    while wrote < bytes.len() {
        match stream.write(&bytes[wrote..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => wrote += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(wrote)
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
        assert!(events[0].readable);

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

    /// Deterministic connection tests: a scripted stream stands in for
    /// the socket (or stdin/stdout), so short reads and writes,
    /// `WouldBlock` and EOF land at chosen offsets instead of wherever
    /// the kernel puts them.
    #[cfg(unix)]
    mod scripted {
        use super::super::*;
        use std::cell::RefCell;
        use std::rc::Rc;

        /// One step of a scripted stream's input.
        enum Step {
            Bytes(Vec<u8>),
            Block,
            Eof,
        }

        /// A byte stream that reads its script and records what is
        /// written to it: each write takes at most `write_max` bytes,
        /// and with `block_writes` every other write call reports
        /// `WouldBlock` first.
        struct Scripted {
            input: VecDeque<Step>,
            write_max: usize,
            block_writes: bool,
            blocked_last: bool,
            out: Rc<RefCell<Vec<u8>>>,
        }

        impl Scripted {
            fn new(input: Vec<Step>) -> Self {
                Scripted {
                    input: input.into(),
                    write_max: usize::MAX,
                    block_writes: false,
                    blocked_last: false,
                    out: Rc::default(),
                }
            }
        }

        impl Read for Scripted {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                // An empty piece is no read at all (a read of 0 is EOF).
                while matches!(self.input.front(), Some(Step::Bytes(b)) if b.is_empty()) {
                    self.input.pop_front();
                }
                match self.input.pop_front() {
                    Some(Step::Bytes(mut bytes)) => {
                        let n = bytes.len().min(buf.len());
                        buf[..n].copy_from_slice(&bytes[..n]);
                        if n < bytes.len() {
                            self.input.push_front(Step::Bytes(bytes.split_off(n)));
                        }
                        Ok(n)
                    }
                    Some(Step::Block) => Err(io::ErrorKind::WouldBlock.into()),
                    Some(Step::Eof) => {
                        self.input.push_front(Step::Eof);
                        Ok(0)
                    }
                    // Open, with nothing more to say yet.
                    None => Err(io::ErrorKind::WouldBlock.into()),
                }
            }
        }

        impl Write for Scripted {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.block_writes && !self.blocked_last {
                    self.blocked_last = true;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.blocked_last = false;
                let n = buf.len().min(self.write_max);
                self.out.borrow_mut().extend_from_slice(&buf[..n]);
                Ok(n)
            }

            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        /// A two-CUT in-memory store, requests over both CUTs plus one
        /// for a CUT it does not hold, and their answers.
        fn fixture() -> (Arc<BankStore>, Vec<DiagnosisRequest>, Vec<ServeResult>) {
            let store = Arc::new(BankStore::in_memory(crate::EngineConfig::default()));
            let tv = ft_core::TestVector::pair(0.5, 2.0);
            let mut requests = Vec::new();
            for (cut, order, seed) in [("a", 2, 11), ("b", 3, 12)] {
                let bank = crate::synthetic::synthetic_circuit_bank(order, 10.0, 9, &tv).unwrap();
                for sig in crate::synthetic::synthetic_queries(bank.trajectory_set(), 3, seed) {
                    requests.push(DiagnosisRequest::new(cut, sig));
                }
                store.insert_bank(cut, bank).unwrap();
            }
            requests.swap(1, 4);
            requests.push(DiagnosisRequest::new(
                "missing",
                Signature::new(vec![0.5, -0.5]),
            ));
            let results = requests.iter().map(|r| store.diagnose(r)).collect();
            (store, requests, results)
        }

        /// How a codec writes requests and reads answers in the tests.
        trait Wire: Codec + Default {
            fn request(request: &DiagnosisRequest) -> Vec<u8>;

            fn answers(requests: &[DiagnosisRequest], results: &[ServeResult]) -> Vec<u8> {
                let mut out = Vec::new();
                for (request, result) in requests.iter().zip(results) {
                    Self::default().answer(&request.cut_id, result, &mut out);
                }
                out
            }
        }

        impl Wire for FrameCodec {
            fn request(request: &DiagnosisRequest) -> Vec<u8> {
                encode_request(request)
            }
        }

        impl Wire for LineCodec {
            fn request(request: &DiagnosisRequest) -> Vec<u8> {
                let coords: Vec<String> = request
                    .signature
                    .coords()
                    .iter()
                    .map(f64::to_string)
                    .collect();
                format!("{} {}\n", request.cut_id, coords.join(" ")).into_bytes()
            }
        }

        fn stream_of<W: Wire>(requests: &[DiagnosisRequest]) -> Vec<u8> {
            requests.iter().flat_map(W::request).collect()
        }

        /// Runs one connection over `stream` through the event loop's
        /// own steps (read while it wants to, absorb finished batches,
        /// pump) until it closes; returns what it wrote and the failure
        /// it ended with.
        fn drive<C: Codec>(
            store: &Arc<BankStore>,
            codec: C,
            stream: Scripted,
            max_inflight: usize,
        ) -> (Vec<u8>, Option<NetError>) {
            let out = Rc::clone(&stream.out);
            let shutdown = ShutdownHandle::new().unwrap();
            let registry = Arc::new(MetricsRegistry::noop());
            let config = NetConfig {
                workers: 2,
                max_inflight,
                refresh_interval: Duration::ZERO,
                ..NetConfig::default()
            };
            let mut lp = EventLoop::new(Arc::clone(store), &registry, &config, &shutdown);
            lp.add_conn(stream, codec, -1, "script".to_string());
            let deadline = Instant::now() + Duration::from_secs(30);
            while !lp.conns.is_empty() {
                assert!(Instant::now() < deadline, "the connection never finished");
                for conn in lp.conns.values_mut() {
                    if conn.interest.0 {
                        conn.read_into(&None);
                    }
                    assert!(conn.rbuf.len() - conn.rpos < READ_CAP + 16 * 1024);
                }
                let mut touched = lp.absorb_completions();
                touched.extend(lp.conns.keys().copied());
                touched.sort_unstable();
                touched.dedup();
                for token in touched {
                    lp.pump(token);
                }
                std::thread::yield_now();
            }
            let bytes = out.borrow().clone();
            (bytes, lp.failure.take())
        }

        /// All of `bytes` in one piece, then EOF.
        fn whole(bytes: Vec<u8>) -> Vec<Step> {
            vec![Step::Bytes(bytes), Step::Eof]
        }

        fn one_byte_writes<W: Wire>(
            store: &Arc<BankStore>,
            reqs: &[DiagnosisRequest],
            res: &[ServeResult],
        ) {
            let mut stream = Scripted::new(whole(stream_of::<W>(reqs)));
            stream.write_max = 1;
            let (out, failure) = drive(store, W::default(), stream, 4);
            assert!(failure.is_none(), "{failure:?}");
            assert_eq!(out, W::answers(reqs, res));
        }

        #[test]
        fn writes_that_take_one_byte_per_call_deliver_every_answer() {
            let (store, reqs, res) = fixture();
            one_byte_writes::<FrameCodec>(&store, &reqs, &res);
            one_byte_writes::<LineCodec>(&store, &reqs, &res);
        }

        fn would_block_everywhere<W: Wire>(
            store: &Arc<BankStore>,
            reqs: &[DiagnosisRequest],
            res: &[ServeResult],
        ) {
            // A storm: every read of one byte is followed by a
            // `WouldBlock`, and so is every write.
            let mut input = Vec::new();
            for byte in stream_of::<W>(reqs) {
                input.push(Step::Bytes(vec![byte]));
                input.push(Step::Block);
            }
            input.push(Step::Eof);
            let mut stream = Scripted::new(input);
            stream.block_writes = true;
            let (out, failure) = drive(store, W::default(), stream, 3);
            assert!(failure.is_none(), "{failure:?}");
            assert_eq!(out, W::answers(reqs, res));
        }

        #[test]
        fn would_block_between_every_read_and_every_write_changes_nothing() {
            let (store, reqs, res) = fixture();
            would_block_everywhere::<FrameCodec>(&store, &reqs, &res);
            would_block_everywhere::<LineCodec>(&store, &reqs, &res);
        }

        fn split_everywhere<W: Wire>(
            store: &Arc<BankStore>,
            reqs: &[DiagnosisRequest],
            res: &[ServeResult],
        ) {
            let reqs = &reqs[..3];
            let bytes = stream_of::<W>(reqs);
            let expected = W::answers(reqs, &res[..3]);
            for cut in 0..=bytes.len() {
                let input = vec![
                    Step::Bytes(bytes[..cut].to_vec()),
                    Step::Block,
                    Step::Bytes(bytes[cut..].to_vec()),
                    Step::Eof,
                ];
                let (out, failure) = drive(store, W::default(), Scripted::new(input), 128);
                assert!(failure.is_none(), "split at byte {cut}: {failure:?}");
                assert_eq!(out, expected, "split at byte {cut}");
            }
        }

        #[test]
        fn pipelined_input_split_at_every_byte_offset_is_answered_whole() {
            let (store, reqs, res) = fixture();
            split_everywhere::<FrameCodec>(&store, &reqs, &res);
            split_everywhere::<LineCodec>(&store, &reqs, &res);
        }

        #[test]
        fn eof_after_two_and_a_half_requests_answers_exactly_two() {
            let (store, reqs, res) = fixture();

            // Frames: the half frame at EOF is abandoned.
            let mut bytes = stream_of::<FrameCodec>(&reqs[..2]);
            let third = FrameCodec::request(&reqs[2]);
            bytes.extend_from_slice(&third[..third.len() / 2]);
            let (out, failure) = drive(&store, FrameCodec, Scripted::new(whole(bytes)), 128);
            assert!(failure.is_none(), "{failure:?}");
            assert_eq!(out, FrameCodec::answers(&reqs[..2], &res[..2]));

            // Lines: a last line without `\n` is still a request, so a
            // line torn after its CUT id is refused, naming its line,
            // after the two whole lines are answered.
            let mut bytes = stream_of::<LineCodec>(&reqs[..2]);
            bytes.extend_from_slice(reqs[2].cut_id.as_bytes());
            let (out, failure) = drive(
                &store,
                LineCodec::default(),
                Scripted::new(whole(bytes)),
                128,
            );
            assert_eq!(out, LineCodec::answers(&reqs[..2], &res[..2]));
            let failure = failure.expect("the torn line is refused").to_string();
            assert!(failure.starts_with("request line 3: "), "{failure}");
        }

        #[test]
        fn lines_skip_stats_and_comments_and_answer_a_last_line_without_newline() {
            let (store, reqs, res) = fixture();
            let mut bytes = Vec::new();
            for (i, request) in reqs.iter().enumerate() {
                match i {
                    1 => bytes.extend_from_slice(b"!stats\n"),
                    2 => bytes.extend_from_slice(b"\n  # a comment\n\r\n"),
                    _ => {}
                }
                bytes.extend_from_slice(&LineCodec::request(request));
            }
            assert_eq!(bytes.pop(), Some(b'\n'));
            let (out, failure) = drive(
                &store,
                LineCodec::default(),
                Scripted::new(whole(bytes)),
                128,
            );
            assert!(failure.is_none(), "{failure:?}");
            assert_eq!(out, LineCodec::answers(&reqs, &res));
        }

        #[test]
        fn a_line_longer_than_the_cap_is_refused_after_the_lines_before_it() {
            let (store, reqs, res) = fixture();
            let mut bytes = stream_of::<LineCodec>(&reqs[..2]);
            bytes.extend(std::iter::repeat_n(b'7', 2 * READ_CAP));
            bytes.extend_from_slice(&LineCodec::request(&reqs[2]));
            let input = bytes
                .chunks(4096)
                .map(|c| Step::Bytes(c.to_vec()))
                .chain([Step::Eof])
                .collect();
            let (out, failure) = drive(&store, LineCodec::default(), Scripted::new(input), 128);
            assert_eq!(out, LineCodec::answers(&reqs[..2], &res[..2]));
            let failure = failure.expect("the long line is refused").to_string();
            assert!(failure.starts_with("request line 3: "), "{failure}");
            assert!(failure.contains(&format!("{READ_CAP}-byte")), "{failure}");
            assert!(
                failure.len() < 200,
                "the refusal echoed the line: {failure}"
            );
        }

        #[test]
        fn a_bad_frame_is_answered_with_an_error_frame_after_the_frames_before_it() {
            let (store, reqs, res) = fixture();
            let mut bytes = stream_of::<FrameCodec>(&reqs[..2]);
            let mut bad = FrameCodec::request(&reqs[2]);
            *bad.last_mut().unwrap() ^= 0x40;
            bytes.extend_from_slice(&bad);
            bytes.extend_from_slice(&FrameCodec::request(&reqs[3]));
            let (out, failure) = drive(&store, FrameCodec, Scripted::new(whole(bytes)), 128);
            let mut expected = FrameCodec::answers(&reqs[..2], &res[..2]);
            let Some(NetError::Protocol { peer, frame, error }) = failure else {
                panic!("a bad frame is a protocol error: {failure:?}");
            };
            assert_eq!((peer.as_str(), frame), ("script", "request"));
            expected.extend_from_slice(&encode_text_frame(FRAME_ERROR, &error.to_string()));
            assert_eq!(out, expected);
        }
    }
}
