//! Self-contained binary codec for trajectory banks.
//!
//! The vendored `serde` is a marker-only shim (see `vendor/README.md`),
//! so persistence is hand-rolled: a versioned container layout with
//! length-prefixed fields and checksums, decoded by a
//! corruption-detecting reader that never trusts a length it has not
//! bounds-checked.
//!
//! ## Container layout, format v3 (sectioned)
//!
//! ```text
//! offset    size  field
//! 0         8     magic  b"FTBANK\r\n"
//! 8         2     format version (u16 LE) = 3
//! 10        4     section count n (u32 LE)
//! 14        8     FNV-1a 64 checksum of the count (bytes 10..14)
//!                 concatenated with the table (bytes 22..22+18n)
//! 22        18*n  section table: per section
//!                   +0  type tag (u16 LE)
//!                   +2  payload length in bytes (u64 LE)
//!                   +10 FNV-1a 64 checksum of the payload (u64 LE)
//! 22+18n    ...   section payloads, concatenated in table order
//! ```
//!
//! Each section is independently checksummed, so corruption is detected
//! *and attributed* to the section it hit, and a reader that does not
//! understand a section's type tag skips it (forward compatibility: new
//! optional sections never break old readers of the same major version).
//! The container's total length must equal the header + table + declared
//! payloads exactly.
//!
//! The trajectory section stores its points in fixed-stride
//! little-endian runs (see `bank.rs` for the payload layout). v3 is the
//! only version written and read: every reader refuses any other
//! version with [`CodecError::UnsupportedVersion`].
//!
//! Within any payload every variable-length field carries a `u32 LE`
//! count prefix; scalars are fixed-width little-endian. All reads are
//! bounds-checked and a decode must consume the payload exactly.

use std::fmt;
use std::path::{Path, PathBuf};

/// Container magic. The `\r\n` tail catches text-mode transfer mangling,
/// PNG-style.
pub(crate) const BANK_MAGIC: [u8; 8] = *b"FTBANK\r\n";

/// The container format version, the only one written and read
/// (sectioned, fixed-stride trajectory payload).
pub(crate) const BANK_VERSION: u16 = 3;

/// Size of the fixed container header in bytes (magic, version, section
/// count, table checksum) — the section table follows.
pub(crate) const CONTAINER_HEADER_LEN: usize = 8 + 2 + 4 + 8;

/// Size of one section-table entry in bytes (type, length, checksum).
pub(crate) const SECTION_ENTRY_LEN: usize = 2 + 8 + 8;

/// Section type: the single-fault dictionary (required).
pub const SECTION_DICTIONARY: u16 = 1;

/// Section type: the materialised trajectory set (required).
pub const SECTION_TRAJECTORIES: u16 = 2;

/// Section type: an optional multi-fault dictionary.
pub(crate) const SECTION_MULTIFAULT: u16 = 3;

/// Human-readable name of a section type tag.
pub fn section_name(kind: u16) -> &'static str {
    match kind {
        SECTION_DICTIONARY => "dictionary",
        SECTION_TRAJECTORIES => "trajectories",
        SECTION_MULTIFAULT => "multifault",
        _ => "unknown",
    }
}

/// Checks the magic and returns the container's declared format version
/// without validating anything else, so a reader can refuse a version it
/// does not read before parsing the section table.
///
/// # Errors
///
/// [`CodecError::Truncated`] when even the magic + version do not fit,
/// [`CodecError::BadMagic`] when the magic is wrong.
pub(crate) fn peek_version(container: &[u8]) -> Result<u16, CodecError> {
    if container.len() < 10 {
        return Err(CodecError::Truncated {
            needed: 10,
            available: container.len(),
        });
    }
    if container[..8] != BANK_MAGIC {
        return Err(CodecError::BadMagic);
    }
    Ok(u16::from_le_bytes([container[8], container[9]]))
}

/// Errors surfaced while encoding to or decoding from the container
/// format.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The container does not start with `BANK_MAGIC`.
    BadMagic,
    /// The container's format version is not `BANK_VERSION`, the one
    /// every reader reads.
    UnsupportedVersion {
        /// The version the container declares.
        found: u16,
    },
    /// The container or a field within it is shorter than declared.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The section table does not match its header checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A section's payload does not match its table checksum — the
    /// corruption is attributed to that section.
    SectionChecksumMismatch {
        /// Type tag of the corrupted section.
        kind: u16,
        /// Checksum stored in the section table.
        stored: u64,
        /// Checksum recomputed over the section payload.
        computed: u64,
    },
    /// A required section is absent from the container.
    MissingSection(u16),
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes(usize),
    /// A field violated a structural invariant (bad tag, bad UTF-8,
    /// inconsistent counts, non-finite value where one is required, …).
    Malformed(String),
    /// An error raised while reading or decoding a named file — wraps the
    /// underlying error with the offending path, so multi-shard loads can
    /// report *which* bank failed.
    InFile {
        /// The file being read.
        path: PathBuf,
        /// The underlying failure.
        source: Box<CodecError>,
    },
}

impl CodecError {
    /// Wraps this error with the path of the file it occurred in. A
    /// second wrap is a no-op, so callers can annotate defensively.
    pub(crate) fn in_file(self, path: impl AsRef<Path>) -> CodecError {
        match self {
            CodecError::InFile { .. } => self,
            other => CodecError::InFile {
                path: path.as_ref().to_path_buf(),
                source: Box::new(other),
            },
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "bank I/O error: {e}"),
            CodecError::BadMagic => write!(f, "not a trajectory bank (bad magic)"),
            CodecError::UnsupportedVersion { found } => write!(
                f,
                "unsupported bank format version {found} (this reader reads v{BANK_VERSION} \
                 banks)"
            ),
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated bank: needed {needed} bytes, found {available}"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "bank payload corrupted: checksum {computed:#018x} != stored {stored:#018x}"
            ),
            CodecError::SectionChecksumMismatch {
                kind,
                stored,
                computed,
            } => write!(
                f,
                "bank section {kind} ({}) corrupted: checksum {computed:#018x} != stored \
                 {stored:#018x}",
                section_name(*kind)
            ),
            CodecError::MissingSection(kind) => write!(
                f,
                "bank is missing required section {kind} ({})",
                section_name(*kind)
            ),
            CodecError::TrailingBytes(n) => write!(f, "bank payload has {n} trailing bytes"),
            CodecError::Malformed(what) => write!(f, "malformed bank: {what}"),
            CodecError::InFile { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::InFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// FNV-1a 64-bit checksum — small, dependency-free, and plenty to catch
/// the bit rot and truncation a dictionary artifact can suffer on disk.
pub fn checksum(bytes: &[u8]) -> u64 {
    checksum_parts(&[bytes])
}

/// [`checksum`] over the concatenation of `parts`, without materialising
/// it (used for the table checksum, which covers the section count and
/// the table bytes).
pub(crate) fn checksum_parts(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Appends length-prefixed little-endian fields to a payload buffer.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty payload.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Appends a raw byte.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (LE).
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (LE) — exact, so a
    /// round trip is bit-identical.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds `u32::MAX` bytes.
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string fits u32 length prefix"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds `u32::MAX` elements.
    pub(crate) fn put_f64s(&mut self, xs: &[f64]) {
        self.put_u32(u32::try_from(xs.len()).expect("slice fits u32 length prefix"));
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Current payload length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The raw payload bytes encoded so far — the body of one section
    /// (hand to [`ContainerBuilder::push_section`]).
    pub(crate) fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

/// Assembles a sectioned container stamped with the current format
/// version (`BANK_VERSION`): push type-tagged payloads, then
/// [`finish`](ContainerBuilder::finish) seals the header and section
/// table. Encoding is deterministic — identical sections in identical
/// order yield identical bytes.
#[derive(Debug, Default)]
pub struct ContainerBuilder {
    sections: Vec<(u16, Vec<u8>)>,
}

impl ContainerBuilder {
    /// A builder holding no sections yet.
    pub fn new() -> Self {
        ContainerBuilder::default()
    }

    /// Appends a section. Sections are written in push order; readers
    /// locate them by type tag, so order carries no meaning.
    pub fn push_section(&mut self, kind: u16, payload: Vec<u8>) {
        self.sections.push((kind, payload));
    }

    /// Seals the container: magic, version, section count, table
    /// checksum, section table, then the payloads back-to-back.
    pub fn finish(self) -> Vec<u8> {
        let count = u32::try_from(self.sections.len()).expect("section count fits u32");
        let mut table = Vec::with_capacity(self.sections.len() * SECTION_ENTRY_LEN);
        let mut body_len = 0usize;
        for (kind, payload) in &self.sections {
            table.extend_from_slice(&kind.to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&checksum(payload).to_le_bytes());
            body_len += payload.len();
        }
        let count_le = count.to_le_bytes();
        let table_ck = checksum_parts(&[&count_le, &table]);

        let mut out = Vec::with_capacity(CONTAINER_HEADER_LEN + table.len() + body_len);
        out.extend_from_slice(&BANK_MAGIC);
        out.extend_from_slice(&BANK_VERSION.to_le_bytes());
        out.extend_from_slice(&count_le);
        out.extend_from_slice(&table_ck.to_le_bytes());
        out.extend_from_slice(&table);
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// One entry of a parsed section table. It holds no borrow of the
/// container bytes, so a table parsed from a file's prefix can locate a
/// section the reader has not read yet (see [`SectionTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section's type tag.
    pub kind: u16,
    /// Absolute byte offset of the payload within the container.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Checksum stored in the section table.
    pub stored_checksum: u64,
}

impl SectionEntry {
    /// The payload bytes this entry describes, sliced out of the
    /// container the table was parsed from.
    pub fn payload<'a>(&self, container: &'a [u8]) -> &'a [u8] {
        &container[self.offset..self.offset + self.len]
    }

    /// The per-section checksum rule: `computed`, the checksum of this
    /// entry's payload, must equal the one stored in the table.
    ///
    /// # Errors
    ///
    /// [`CodecError::SectionChecksumMismatch`], attributed to the
    /// entry's type tag.
    pub(crate) fn check(&self, computed: u64) -> Result<(), CodecError> {
        if computed != self.stored_checksum {
            return Err(CodecError::SectionChecksumMismatch {
                kind: self.kind,
                stored: self.stored_checksum,
                computed,
            });
        }
        Ok(())
    }
}

/// A structurally validated section table that owns no borrow of the
/// container: magic, version, table checksum, and exact payload tiling
/// are verified eagerly by [`SectionTable::parse`] (or, from a file's
/// first bytes, `SectionTable::parse_prefix`), while each section's
/// payload FNV is verified only when a reader asks for that section
/// (`SectionTable::find` / `SectionTable::require`). A reader can
/// therefore read and check the one section it needs and leave the rest
/// of the file unread. This is the one parser of the container frame:
/// the heap reader, the shard reader and `ftd bank-info` all go through
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionTable {
    entries: Vec<SectionEntry>,
    total_len: usize,
}

impl SectionTable {
    /// Parses and structurally validates a v3 container's header and
    /// section table, touching none of the payload bytes:
    /// `SectionTable::parse_prefix` over the whole container.
    ///
    /// # Errors
    ///
    /// As `SectionTable::parse_prefix`.
    pub fn parse(container: &[u8]) -> Result<Self, CodecError> {
        SectionTable::parse_prefix(container, container.len())
    }

    /// The length of the prefix (header + section table) that
    /// [`SectionTable::parse_prefix`] needs, read from the header alone
    /// and bounded by `total_len`, the length of the container. A reader
    /// reads the header, then exactly this many bytes, and never sizes a
    /// buffer by a count it has not bounded by the file.
    ///
    /// # Errors
    ///
    /// Magic/version violations, or [`CodecError::Truncated`] when the
    /// header is short or the declared table runs past `total_len`.
    pub(crate) fn prefix_len(header: &[u8], total_len: usize) -> Result<usize, CodecError> {
        let found = peek_version(header)?;
        if found != BANK_VERSION {
            return Err(CodecError::UnsupportedVersion { found });
        }
        if header.len() < CONTAINER_HEADER_LEN {
            return Err(CodecError::Truncated {
                needed: CONTAINER_HEADER_LEN,
                available: header.len(),
            });
        }
        let count = u32::from_le_bytes(header[10..14].try_into().expect("4 bytes")) as usize;
        let table_end =
            CONTAINER_HEADER_LEN.saturating_add(count.saturating_mul(SECTION_ENTRY_LEN));
        if table_end > total_len {
            return Err(CodecError::Truncated {
                needed: table_end,
                available: total_len,
            });
        }
        Ok(table_end)
    }

    /// Parses and structurally validates the header and section table of
    /// a container `total_len` bytes long, from its first bytes alone:
    /// `prefix` must hold at least the [`prefix_len`](Self::prefix_len)
    /// bytes the header declares. No payload byte is read; every section
    /// must lie within `total_len`, and the sections must tile it
    /// exactly.
    ///
    /// # Errors
    ///
    /// Magic/version violations, a table checksum mismatch
    /// ([`CodecError::ChecksumMismatch`]), or any size inconsistency (the
    /// container must equal header + table + declared payloads exactly).
    pub(crate) fn parse_prefix(prefix: &[u8], total_len: usize) -> Result<Self, CodecError> {
        let table_end = SectionTable::prefix_len(prefix, total_len)?;
        if prefix.len() < table_end {
            return Err(CodecError::Truncated {
                needed: table_end,
                available: prefix.len(),
            });
        }
        let table = &prefix[CONTAINER_HEADER_LEN..table_end];
        let stored = u64::from_le_bytes(prefix[14..22].try_into().expect("8 bytes"));
        let computed = checksum_parts(&[&prefix[10..14], table]);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }

        let mut entries = Vec::with_capacity(table.len() / SECTION_ENTRY_LEN);
        let mut offset = table_end;
        for entry in table.chunks_exact(SECTION_ENTRY_LEN) {
            let kind = u16::from_le_bytes(entry[0..2].try_into().expect("2 bytes"));
            let len = u64::from_le_bytes(entry[2..10].try_into().expect("8 bytes"));
            let stored_checksum = u64::from_le_bytes(entry[10..18].try_into().expect("8 bytes"));
            let available = (total_len - offset) as u64;
            if len > available {
                return Err(CodecError::Truncated {
                    needed: offset.saturating_add(usize::try_from(len).unwrap_or(usize::MAX)),
                    available: total_len,
                });
            }
            let len = len as usize;
            entries.push(SectionEntry {
                kind,
                offset,
                len,
                stored_checksum,
            });
            offset += len;
        }
        if offset != total_len {
            return Err(CodecError::TrailingBytes(total_len - offset));
        }
        Ok(SectionTable { entries, total_len })
    }

    /// The table entries, in table order (payload checksums not yet
    /// verified).
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// The unique entry of type `kind`, located structurally: no
    /// payload byte is read and no checksum verified. This is the lookup
    /// the shard reader uses before it reads the section, and the one
    /// `find` builds on. `Ok(None)` when the container has no such section (an
    /// *optional* section being absent is not an error).
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] when the type tag appears more than
    /// once.
    pub fn locate(&self, kind: u16) -> Result<Option<&SectionEntry>, CodecError> {
        let mut found: Option<&SectionEntry> = None;
        for e in &self.entries {
            if e.kind == kind {
                if found.is_some() {
                    return Err(CodecError::Malformed(format!(
                        "duplicate section {kind} ({})",
                        section_name(kind)
                    )));
                }
                found = Some(e);
            }
        }
        Ok(found)
    }

    /// The payload `entry` describes within `container` (the same bytes
    /// the table was parsed from), after verifying its checksum with
    /// [`SectionEntry::check`].
    ///
    /// # Errors
    ///
    /// [`CodecError::SectionChecksumMismatch`], attributed to the
    /// entry's type tag, on payload corruption.
    ///
    /// # Panics
    ///
    /// Panics if `container` is not the byte sequence this table was
    /// parsed from (length mismatch).
    pub(crate) fn verify<'a>(
        &self,
        container: &'a [u8],
        entry: &SectionEntry,
    ) -> Result<&'a [u8], CodecError> {
        assert_eq!(
            container.len(),
            self.total_len,
            "section table used against a different container"
        );
        let payload = entry.payload(container);
        entry.check(checksum(payload))?;
        Ok(payload)
    }

    /// Locates the unique section of type `kind` in `container` and
    /// verifies its payload checksum: [`locate`](SectionTable::locate)
    /// then [`verify`](SectionTable::verify).
    ///
    /// # Errors
    ///
    /// As [`locate`](SectionTable::locate) and
    /// [`verify`](SectionTable::verify).
    ///
    /// # Panics
    ///
    /// As [`verify`](SectionTable::verify).
    pub(crate) fn find<'a>(
        &self,
        container: &'a [u8],
        kind: u16,
    ) -> Result<Option<&'a [u8]>, CodecError> {
        self.locate(kind)?
            .map(|entry| self.verify(container, entry))
            .transpose()
    }

    /// [`SectionTable::find`] for a *required* section.
    ///
    /// # Errors
    ///
    /// As [`SectionTable::find`], plus [`CodecError::MissingSection`]
    /// when the section is absent.
    pub(crate) fn require<'a>(
        &self,
        container: &'a [u8],
        kind: u16,
    ) -> Result<&'a [u8], CodecError> {
        self.find(container, kind)?
            .ok_or(CodecError::MissingSection(kind))
    }
}

/// Bounds-checked reader over a verified container payload.
#[derive(Debug)]
pub(crate) struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over a bare payload slice (a section body whose
    /// checksum [`SectionTable::find`] already verified).
    pub(crate) fn over(payload: &'a [u8]) -> Self {
        Decoder {
            buf: payload,
            pos: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated {
            needed: usize::MAX,
            available: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated {
                needed: end,
                available: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of payload.
    pub(crate) fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (LE).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of payload.
    pub(crate) fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads an `f64` bit pattern (LE).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of payload.
    pub(crate) fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed count and sanity-checks it against the
    /// bytes remaining (each element at least `elem_size` bytes), so a
    /// corrupt count cannot trigger a huge allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the declared count cannot fit in
    /// the remaining payload.
    pub(crate) fn get_count(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let n = self.get_u32()? as usize;
        let needed = n.saturating_mul(elem_size.max(1));
        let available = self.buf.len() - self.pos;
        if needed > available {
            // `needed` may have saturated to `usize::MAX` on a poisoned
            // count: saturate the report too instead of overflowing
            // (`pos + needed` panics in debug builds) — the error is the
            // contract here, not a crash.
            return Err(CodecError::Truncated {
                needed: self.pos.saturating_add(needed),
                available: self.buf.len(),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::Malformed`] on invalid
    /// UTF-8.
    pub(crate) fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Malformed("string field is not valid UTF-8".into()))
    }

    /// Reads a length-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the declared length overruns the
    /// payload.
    pub(crate) fn get_f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.get_count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when bytes are left over.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::TrailingBytes(self.buf.len() - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(3);
        enc.put_u32(77);
        enc.put_f64(-2.5);
        enc.put_str("R3+20%");
        enc.put_f64s(&[0.0, 1.5, f64::MAX]);
        enc.into_payload()
    }

    #[test]
    fn primitive_round_trip() {
        let bytes = sample_payload();
        let mut dec = Decoder::over(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 3);
        assert_eq!(dec.get_u32().unwrap(), 77);
        assert_eq!(dec.get_f64().unwrap(), -2.5);
        assert_eq!(dec.get_str().unwrap(), "R3+20%");
        assert_eq!(dec.get_f64s().unwrap(), vec![0.0, 1.5, f64::MAX]);
        assert_eq!(dec.remaining(), 0);
        dec.finish().unwrap();
    }

    #[test]
    fn oversized_count_rejected_before_allocating() {
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX); // declares ~4 billion elements
        let bytes = enc.into_payload();
        let mut dec = Decoder::over(&bytes);
        assert!(matches!(dec.get_f64s(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn poisoned_count_saturates_instead_of_overflowing() {
        // A corrupt count whose `count × elem_size` product saturates to
        // `usize::MAX` must come back as a `Truncated` error — not a
        // debug-build overflow panic in `pos + needed`.
        let mut enc = Encoder::new();
        enc.put_u8(0xaa); // advance pos past 0 so the add could overflow
        enc.put_u32(u32::MAX);
        let bytes = enc.into_payload();
        let mut dec = Decoder::over(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xaa);
        match dec.get_count(usize::MAX) {
            Err(CodecError::Truncated { needed, available }) => {
                assert_eq!(needed, usize::MAX);
                assert_eq!(available, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = sample_payload();
        let mut dec = Decoder::over(&bytes);
        let _ = dec.get_u8().unwrap();
        assert!(matches!(dec.finish(), Err(CodecError::TrailingBytes(_))));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(2);
        enc.put_u8(0xff);
        enc.put_u8(0xfe);
        let bytes = enc.into_payload();
        let mut dec = Decoder::over(&bytes);
        assert!(matches!(dec.get_str(), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn checksum_parts_matches_concatenation() {
        assert_eq!(checksum_parts(&[b"ab", b"cd"]), checksum(b"abcd"));
        assert_eq!(checksum_parts(&[b"", b"abcd", b""]), checksum(b"abcd"));
    }

    fn sample_container() -> Vec<u8> {
        let mut b = ContainerBuilder::new();
        b.push_section(SECTION_DICTIONARY, b"dict-payload".to_vec());
        b.push_section(SECTION_TRAJECTORIES, b"traj".to_vec());
        b.push_section(0x7ff0, b"future-section".to_vec());
        assert_eq!(b.sections.len(), 3);
        b.finish()
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_container();
        bytes[0] ^= 0xff;
        assert!(matches!(
            SectionTable::parse(&bytes),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn container_round_trips_sections() {
        let bytes = sample_container();
        assert_eq!(peek_version(&bytes).unwrap(), BANK_VERSION);
        let table = SectionTable::parse(&bytes).unwrap();
        assert_eq!(table.entries().len(), 3);
        assert_eq!(table.total_len, bytes.len());
        assert!(table
            .entries()
            .iter()
            .all(|e| table.verify(&bytes, e).is_ok()));
        assert_eq!(
            table.require(&bytes, SECTION_DICTIONARY).unwrap(),
            b"dict-payload"
        );
        assert_eq!(
            table.require(&bytes, SECTION_TRAJECTORIES).unwrap(),
            b"traj"
        );
        assert_eq!(
            table.find(&bytes, 0x7ff0).unwrap(),
            Some(&b"future-section"[..])
        );
        assert_eq!(table.find(&bytes, SECTION_MULTIFAULT).unwrap(), None);
        assert!(matches!(
            table.require(&bytes, SECTION_MULTIFAULT),
            Err(CodecError::MissingSection(SECTION_MULTIFAULT))
        ));
    }

    #[test]
    fn table_corruption_is_detected() {
        let bytes = sample_container();
        // Every byte of count + table checksum + table entries.
        for pos in 10..CONTAINER_HEADER_LEN + 3 * SECTION_ENTRY_LEN {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                SectionTable::parse(&corrupt).is_err(),
                "table flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_detected() {
        let bytes = sample_container();
        for cut in [0, 9, CONTAINER_HEADER_LEN - 1, bytes.len() - 1] {
            assert!(SectionTable::parse(&bytes[..cut]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SectionTable::parse(&padded).is_err());
    }

    #[test]
    fn duplicate_section_rejected_on_access() {
        let mut b = ContainerBuilder::new();
        b.push_section(SECTION_DICTIONARY, b"a".to_vec());
        b.push_section(SECTION_DICTIONARY, b"b".to_vec());
        b.push_section(SECTION_TRAJECTORIES, b"t".to_vec());
        let bytes = b.finish();
        let table = SectionTable::parse(&bytes).unwrap();
        // The structural lookup and the checksummed one share the rule.
        assert!(matches!(
            table.locate(SECTION_DICTIONARY),
            Err(CodecError::Malformed(_))
        ));
        assert!(matches!(
            table.require(&bytes, SECTION_DICTIONARY),
            Err(CodecError::Malformed(_))
        ));
        assert_eq!(table.require(&bytes, SECTION_TRAJECTORIES).unwrap(), b"t");
    }

    #[test]
    fn section_table_verifies_payload_lazily() {
        let bytes = sample_container();
        let traj_off = SectionTable::parse(&bytes).unwrap().entries()[1].offset;
        let mut corrupt = bytes.clone();
        corrupt[traj_off] ^= 0x01;
        // Parsing never touches payloads, so corruption parses fine…
        let table = SectionTable::parse(&corrupt).unwrap();
        assert!(table.require(&corrupt, SECTION_DICTIONARY).is_ok());
        // …and is attributed on first access to the hit section.
        assert!(matches!(
            table.require(&corrupt, SECTION_TRAJECTORIES),
            Err(CodecError::SectionChecksumMismatch {
                kind: SECTION_TRAJECTORIES,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "different container")]
    fn section_table_rejects_foreign_container() {
        let bytes = sample_container();
        let table = SectionTable::parse(&bytes).unwrap();
        let _ = table.find(&bytes[..bytes.len() - 1], SECTION_DICTIONARY);
    }

    #[test]
    fn sectioned_parser_accepts_v3_only() {
        let bytes = sample_container();
        assert_eq!(peek_version(&bytes).unwrap(), BANK_VERSION);
        assert!(SectionTable::parse(&bytes).is_ok());
        // Every other version is rejected — v1 (the deleted monolithic
        // format), v2 (the deleted length-prefixed trajectory payload)
        // and an unknown future one — with the one message stating what
        // this reader reads. The version field sits outside the table
        // checksum, so the rest of the container is well formed.
        for version in [1u16, 2, 4] {
            let mut bytes = sample_container();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            let err = SectionTable::parse(&bytes).unwrap_err();
            assert!(
                matches!(err, CodecError::UnsupportedVersion { found } if found == version),
                "{err:?}"
            );
            assert!(err.to_string().contains("reads v3 banks"), "{err}");
        }
    }

    #[test]
    fn prefix_parse_bounds_the_table_by_the_file() {
        let bytes = sample_container();
        let table_end =
            SectionTable::prefix_len(&bytes[..CONTAINER_HEADER_LEN], bytes.len()).unwrap();
        assert_eq!(table_end, CONTAINER_HEADER_LEN + 3 * SECTION_ENTRY_LEN);
        // The prefix alone parses to the same table as the container.
        assert_eq!(
            SectionTable::parse_prefix(&bytes[..table_end], bytes.len()).unwrap(),
            SectionTable::parse(&bytes).unwrap()
        );
        // A prefix shorter than the table it declares is truncated.
        assert!(matches!(
            SectionTable::parse_prefix(&bytes[..table_end - 1], bytes.len()),
            Err(CodecError::Truncated { .. })
        ));
        // A table that would run past the file, or sections that do not
        // tile it, are refused against the file length.
        assert!(matches!(
            SectionTable::prefix_len(&bytes[..CONTAINER_HEADER_LEN], table_end - 1),
            Err(CodecError::Truncated { .. })
        ));
        assert!(SectionTable::parse_prefix(&bytes[..table_end], bytes.len() + 1).is_err());
        assert!(SectionTable::parse_prefix(&bytes[..table_end], bytes.len() - 1).is_err());
    }

    #[test]
    fn in_file_wraps_once_and_names_the_path() {
        let err = CodecError::BadMagic.in_file("/tmp/shard-a.ftb");
        let msg = err.to_string();
        assert!(msg.contains("/tmp/shard-a.ftb"), "{msg}");
        assert!(msg.contains("bad magic"), "{msg}");
        // Re-wrapping keeps the original path.
        let rewrapped = err.in_file("/tmp/other.ftb");
        assert!(rewrapped.to_string().contains("shard-a"), "{rewrapped}");
        assert!(std::error::Error::source(&rewrapped).is_some());
    }
}
