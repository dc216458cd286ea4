//! The trajectory bank: the offline phase's artifacts, persisted.
//!
//! A bank packages a [`FaultDictionary`] (the expensive fault-simulation
//! product) with the [`TrajectorySet`] materialised at the deployed test
//! vector — and, optionally, a [`MultiFaultDictionary`] — so the online
//! phase loads everything from disk instead of re-simulating.
//! Serialisation uses the sectioned [`codec`](crate::codec) container
//! (one type-tagged, independently checksummed section per artifact;
//! unknown sections are skipped). Every structural invariant is
//! re-checked on load before any panicking constructor runs, so a
//! hostile or corrupt file yields a [`CodecError`], never a panic.
//!
//! ## Trajectory section payload, format v3
//!
//! All fields little-endian; `off` is relative to the payload start.
//!
//! ```text
//! off       size          field
//! 0         4+8·n_tv      test-vector omegas (u32 count, then f64s)
//! …         4             trajectory count n_traj (u32)
//! …         4             signature dimension dim (u32)
//! …         4             total point count P (u32)
//! …         …             n_traj × component name (u32 len + UTF-8)
//! …         4             pad_len (u32, 0..=7)
//! …         pad_len       zero padding, sized so the next offset is
//!                         8-byte aligned *in the container file*
//! A         4·(n_traj+1)  point-offset table: prefix sums of points
//!                         per trajectory (first 0, last P, step ≥ 2)
//! …         0 or 4        zero pad iff n_traj+1 is odd (keeps D 8-aligned)
//! D         8·P           deviations (f64), concatenated per trajectory
//! C         8·P·dim       point coordinates (f64), point-major
//! ```
//!
//! The writer chooses `pad_len` so the absolute container offset of `A`
//! is a multiple of 8. Readers check the padding fields but do not
//! depend on them: they decode `D` and `C` with `f64::from_le_bytes`, at
//! any alignment, into packed storage ([`PackedTrajectories`]). The
//! padding stays so that files remain byte-identical to those earlier
//! builds wrote.
//!
//! v3 is the only format written and read: [`TrajectoryBank::from_bytes`]
//! and the shard reader ([`MappedBank`]) refuse any other version.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use ft_circuit::Probe;
use ft_core::{trajectories_from_dictionary, PackedTrajectories, TestVector, TrajectorySet};
use ft_faults::{
    DeviationGrid, DictionaryEntry, FaultDictionary, FaultUniverse, MultiFault,
    MultiFaultDictionary, MultiFaultEntry, ParametricFault,
};
use ft_numerics::{FrequencyGrid, Spacing};

use crate::codec::{
    checksum, CodecError, ContainerBuilder, Decoder, Encoder, SectionEntry, SectionTable,
    CONTAINER_HEADER_LEN, SECTION_DICTIONARY, SECTION_ENTRY_LEN, SECTION_MULTIFAULT,
    SECTION_TRAJECTORIES,
};
use crate::store::FileGen;

/// Probe encoding tags.
const PROBE_NODE: u8 = 0;
const PROBE_DIFFERENTIAL: u8 = 1;

/// Spacing encoding tags.
const SPACING_LINEAR: u8 = 0;
const SPACING_LOGARITHMIC: u8 = 1;

fn ensure(cond: bool, what: &str) -> Result<(), CodecError> {
    if cond {
        Ok(())
    } else {
        Err(CodecError::Malformed(what.into()))
    }
}

/// A persistent diagnosis artifact: fault dictionary + the trajectory
/// set of the deployed test vector, plus an optional multi-fault
/// dictionary riding along in its own container section.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryBank {
    dict: FaultDictionary,
    set: TrajectorySet,
    multifault: Option<MultiFaultDictionary>,
}

impl TrajectoryBank {
    /// Builds a bank by materialising the dictionary's trajectories at
    /// `tv` — the offline step of the serving pipeline.
    pub fn build(dict: FaultDictionary, tv: &TestVector) -> Self {
        let set = trajectories_from_dictionary(&dict, tv);
        TrajectoryBank {
            dict,
            set,
            multifault: None,
        }
    }

    /// Attaches a multi-fault dictionary, persisted through the bank's
    /// `MultiFaultSection` on save.
    pub fn with_multifault(mut self, multifault: MultiFaultDictionary) -> Self {
        self.multifault = Some(multifault);
        self
    }

    /// The fault dictionary.
    #[inline]
    pub fn dictionary(&self) -> &FaultDictionary {
        &self.dict
    }

    /// The trajectory set served by this bank.
    #[inline]
    pub fn trajectory_set(&self) -> &TrajectorySet {
        &self.set
    }

    /// The trajectory set, without the dictionaries: what an engine
    /// over this bank keeps.
    pub fn into_trajectory_set(self) -> TrajectorySet {
        self.set
    }

    /// The attached multi-fault dictionary, if any.
    #[inline]
    pub fn multifault_dictionary(&self) -> Option<&MultiFaultDictionary> {
        self.multifault.as_ref()
    }

    /// The deployed test vector.
    #[inline]
    pub fn test_vector(&self) -> &TestVector {
        self.set.test_vector()
    }

    /// Serialises the bank into a sectioned **v3** container: a
    /// dictionary section, a fixed-stride trajectory section (see the
    /// module docs for the layout), and — when present — a
    /// multi-fault section, each independently checksummed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let dict_payload = encode_dictionary(&self.dict);
        // The v3 trajectory payload pads itself to an 8-byte-aligned
        // absolute file offset, so the writer must know where the
        // payload will land: after the header, the section table
        // (dictionary + trajectories + optional multifault), and the
        // dictionary payload.
        let n_sections = 2 + usize::from(self.multifault.is_some());
        let traj_offset =
            CONTAINER_HEADER_LEN + n_sections * SECTION_ENTRY_LEN + dict_payload.len();
        let mut builder = ContainerBuilder::new();
        builder.push_section(SECTION_DICTIONARY, dict_payload);
        builder.push_section(
            SECTION_TRAJECTORIES,
            encode_trajectory_set_v3(&self.set, traj_offset),
        );
        if let Some(mfd) = &self.multifault {
            builder.push_section(SECTION_MULTIFAULT, encode_multifault(mfd));
        }
        builder.finish()
    }

    /// Deserialises a bank, verifying the container header, checksums,
    /// and every structural and content invariant of the decoded data.
    /// Unknown sections are skipped, and the optional multi-fault
    /// section is decoded when present.
    ///
    /// # Errors
    ///
    /// Any corruption or inconsistency yields a [`CodecError`], attributed
    /// to the section it hit; any other format version is
    /// [`CodecError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let table = SectionTable::parse(bytes)?;
        let dict = decode_payload(table.require(bytes, SECTION_DICTIONARY)?, decode_dictionary)?;
        let set = decode_trajectories(table.require(bytes, SECTION_TRAJECTORIES)?)?;
        set.validate_deep().map_err(CodecError::Malformed)?;
        let multifault = table
            .find(bytes, SECTION_MULTIFAULT)?
            .map(|payload| decode_payload(payload, decode_multifault))
            .transpose()?;
        Ok(TrajectoryBank {
            dict,
            set,
            multifault,
        })
    }

    /// Writes the bank to a file and returns the number of bytes written.
    ///
    /// The bytes go to `<path>.tmp`, which is then renamed over `path`.
    /// The rename replaces the file atomically, so a reader that opens
    /// `path` during a save reads the old bank or the new one, never a
    /// short or mixed file, and a handle held open on the old file keeps
    /// reading the old bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, annotated with the path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<usize, CodecError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let bytes = self.to_bytes();
        std::fs::write(&tmp, &bytes)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| CodecError::from(e).in_file(path))?;
        Ok(bytes.len())
    }

    /// Reads and verifies a bank from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and every decode error of
    /// [`TrajectoryBank::from_bytes`], annotated with the path — so a
    /// multi-shard store always knows *which* bank file failed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        let path = path.as_ref();
        std::fs::read(path)
            .map_err(CodecError::from)
            .and_then(|bytes| TrajectoryBank::from_bytes(&bytes))
            .map_err(|e| e.in_file(path))
    }
}

/// The facts of a shard file read for serving: its path, its
/// generation, its trajectory section's table entry and the checksum of
/// the bytes read.
///
/// Unlike [`TrajectoryBank::load`], opening reads the container header,
/// the section table and the trajectory section, and nothing else. The
/// trajectory section is checksummed while its bytes are in hand and
/// decoded into packed storage ([`PackedTrajectories`]);
/// [`DiagnosisEngine::open`](crate::DiagnosisEngine::open) runs
/// [`MappedBank::verify_trajectory_payload`] and
/// [`TrajectorySet::validate_deep`] before the set serves. A loaded set
/// is an owned copy: rewriting or truncating the file afterwards cannot
/// change it.
///
/// Diagnosis reads the trajectory section alone, so that section's
/// payload length is all a served shard holds
/// ([`resident_bytes`](MappedBank::resident_bytes)). The dictionary and
/// multi-fault sections are never read; the offline tools that want them
/// use [`TrajectoryBank::load`].
///
/// The [`TrajectorySet`] is returned by value from
/// [`open`](MappedBank::open) so the caller (the engine) owns exactly
/// one copy.
#[derive(Debug)]
pub struct MappedBank {
    /// Names the file in `verify_trajectory_payload`'s error.
    path: PathBuf,
    generation: FileGen,
    /// The trajectory section's table entry.
    trajectories: SectionEntry,
    /// Checksum of the trajectory payload as read at open.
    trajectory_checksum: u64,
}

impl MappedBank {
    /// Opens the shard at `path`: reads the header, the section table
    /// and the trajectory section, and returns the handle with the
    /// decoded trajectory set. Whatever the header declares, `open`
    /// allocates at most the file's length, and it keeps no file
    /// descriptor open.
    ///
    /// # Errors
    ///
    /// I/O failures, a format version other than v3
    /// ([`CodecError::UnsupportedVersion`]), header/table validation
    /// failures, and any structural violation of the trajectory section,
    /// annotated with `path`. A trajectory checksum mismatch is reported by
    /// [`verify_trajectory_payload`](MappedBank::verify_trajectory_payload);
    /// corruption confined to the other sections is never seen.
    pub fn open(path: impl AsRef<Path>) -> Result<(MappedBank, TrajectorySet), CodecError> {
        let path = path.as_ref();
        MappedBank::open_inner(path).map_err(|e| e.in_file(path))
    }

    fn open_inner(path: &Path) -> Result<(MappedBank, TrajectorySet), CodecError> {
        let mut file = File::open(path)?;
        // The generation comes from the descriptor the bytes are read
        // from, so it describes exactly the file that was read.
        let generation = FileGen::from_metadata(&file.metadata()?)?;
        let total_len = usize::try_from(generation.len())
            .map_err(|_| CodecError::Malformed("file exceeds the address space".into()))?;
        let mut prefix = vec![0u8; CONTAINER_HEADER_LEN.min(total_len)];
        file.read_exact(&mut prefix)?;
        // The table length is bounded by the file before it is read.
        let table_end = SectionTable::prefix_len(&prefix, total_len)?;
        prefix.resize(table_end, 0);
        file.read_exact(&mut prefix[CONTAINER_HEADER_LEN..])?;
        let table = SectionTable::parse_prefix(&prefix, total_len)?;
        let entry = *table
            .locate(SECTION_TRAJECTORIES)?
            .ok_or(CodecError::MissingSection(SECTION_TRAJECTORIES))?;
        let mut payload = vec![0u8; entry.len];
        file.seek(SeekFrom::Start(entry.offset as u64))?;
        file.read_exact(&mut payload)?;
        let trajectory_checksum = checksum(&payload);
        let set = decode_trajectories(&payload)?;
        Ok((
            MappedBank {
                path: path.to_path_buf(),
                generation,
                trajectories: entry,
                trajectory_checksum,
            },
            set,
        ))
    }

    /// Compares the trajectory section's checksum, computed when `open`
    /// read it, with the one the section table stores.
    /// [`DiagnosisEngine::open`](crate::DiagnosisEngine::open) calls
    /// this, so a corrupt shard is rejected before any diagnosis reads
    /// its trajectories.
    ///
    /// # Errors
    ///
    /// [`CodecError::SectionChecksumMismatch`] attributed to the
    /// trajectory section, annotated with the shard path.
    pub fn verify_trajectory_payload(&self) -> Result<(), CodecError> {
        self.trajectories
            .check(self.trajectory_checksum)
            .map_err(|e| e.in_file(&self.path))
    }

    /// Bytes this shard holds while it serves: the trajectory section's
    /// payload length, fixed at open. The store's memory budget accounts
    /// each shard with this.
    pub fn resident_bytes(&self) -> u64 {
        self.trajectories.len as u64
    }

    /// The shard file's generation, captured from the descriptor its
    /// bytes were read from.
    pub fn generation(&self) -> FileGen {
        self.generation
    }
}

// --- section payload encoders/decoders ------------------------------
//
// Each artifact has a symmetric `encode_*`/`decode_*` pair over bare
// payload bytes, one checksummed container section each.

/// Runs `decode` over a whole section payload, rejecting trailing bytes.
fn decode_payload<T>(
    payload: &[u8],
    decode: fn(&mut Decoder) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut dec = Decoder::over(payload);
    let value = decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

fn encode_grid_into(enc: &mut Encoder, grid: &FrequencyGrid) {
    enc.put_u8(match grid.spacing() {
        Spacing::Linear => SPACING_LINEAR,
        Spacing::Logarithmic => SPACING_LOGARITHMIC,
    });
    enc.put_f64s(grid.frequencies());
}

fn decode_grid(dec: &mut Decoder) -> Result<FrequencyGrid, CodecError> {
    let spacing = match dec.get_u8()? {
        SPACING_LINEAR => Spacing::Linear,
        SPACING_LOGARITHMIC => Spacing::Logarithmic,
        tag => {
            return Err(CodecError::Malformed(format!("unknown spacing tag {tag}")));
        }
    };
    let freqs = dec.get_f64s()?;
    ensure(!freqs.is_empty(), "frequency grid is empty")?;
    ensure(
        freqs.iter().all(|w| w.is_finite() && *w > 0.0),
        "grid frequencies must be positive and finite",
    )?;
    ensure(
        freqs.windows(2).all(|w| w[0] < w[1]),
        "grid frequencies must be strictly increasing",
    )?;
    Ok(FrequencyGrid::from_parts(freqs, spacing))
}

fn encode_probe_into(enc: &mut Encoder, probe: &Probe) {
    match probe {
        Probe::Node(n) => {
            enc.put_u8(PROBE_NODE);
            enc.put_str(n);
        }
        Probe::Differential(p, n) => {
            enc.put_u8(PROBE_DIFFERENTIAL);
            enc.put_str(p);
            enc.put_str(n);
        }
    }
}

fn decode_probe(dec: &mut Decoder) -> Result<Probe, CodecError> {
    match dec.get_u8()? {
        PROBE_NODE => Ok(Probe::Node(dec.get_str()?)),
        PROBE_DIFFERENTIAL => Ok(Probe::Differential(dec.get_str()?, dec.get_str()?)),
        tag => Err(CodecError::Malformed(format!("unknown probe tag {tag}"))),
    }
}

/// Reads one length-prefixed response vector and checks it against the
/// grid length and finiteness — shared by golden and entry responses.
/// (Error strings are built only on failure: this runs once per
/// dictionary entry, so the happy path must not allocate messages.)
fn decode_response(dec: &mut Decoder, grid_len: usize, what: &str) -> Result<Vec<f64>, CodecError> {
    let xs = dec.get_f64s()?;
    if xs.len() != grid_len {
        return Err(CodecError::Malformed(format!(
            "{what} length must match the grid"
        )));
    }
    if !xs.iter().all(|x| x.is_finite()) {
        return Err(CodecError::Malformed(format!("{what} must be finite")));
    }
    Ok(xs)
}

fn encode_dictionary(dict: &FaultDictionary) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_grid_into(&mut enc, dict.grid());
    enc.put_f64s(dict.golden_db());
    enc.put_str(dict.input());
    encode_probe_into(&mut enc, dict.probe());
    let universe = dict.universe();
    enc.put_u32(universe.components().len() as u32);
    for comp in universe.components() {
        enc.put_str(comp);
    }
    enc.put_f64(universe.grid().max_pct());
    enc.put_f64(universe.grid().step_pct());
    // The entries mirror the universe's fault enumeration (an
    // invariant `FaultDictionary::from_parts` re-asserts), so only
    // the responses need storing.
    enc.put_u32(dict.entries().len() as u32);
    for entry in dict.entries() {
        enc.put_f64s(entry.magnitude_db());
    }
    enc.into_payload()
}

fn decode_dictionary(dec: &mut Decoder) -> Result<FaultDictionary, CodecError> {
    let grid = decode_grid(dec)?;
    let golden_db = decode_response(dec, grid.len(), "golden response")?;
    let input = dec.get_str()?;
    let probe = decode_probe(dec)?;

    let n_components = dec.get_count(5)?; // len prefix + ≥1 byte per name
    let mut components = Vec::with_capacity(n_components);
    for _ in 0..n_components {
        components.push(dec.get_str()?);
    }
    ensure(!components.is_empty(), "universe has no components")?;
    let max_pct = dec.get_f64()?;
    let step_pct = dec.get_f64()?;
    ensure(
        max_pct.is_finite()
            && step_pct.is_finite()
            && step_pct > 0.0
            && step_pct <= max_pct
            && max_pct < 100.0,
        "deviation grid must satisfy 0 < step <= max < 100",
    )?;
    // Bound the fault enumeration before materialising it, so a
    // crafted step cannot make `FaultUniverse::new` allocate an
    // astronomically large fault list (or overflow its capacity).
    ensure(
        max_pct / step_pct <= 5_000.0,
        "deviation grid is implausibly fine",
    )?;
    let universe = FaultUniverse::new(&components, DeviationGrid::new(max_pct, step_pct));

    let n_entries = dec.get_count(4)?;
    ensure(
        n_entries == universe.len(),
        "entry count must match the universe",
    )?;
    let mut entries = Vec::with_capacity(n_entries);
    for fault in universe.faults() {
        let magnitude_db = decode_response(dec, grid.len(), "entry response")?;
        entries.push(DictionaryEntry::new(fault.clone(), magnitude_db));
    }
    Ok(FaultDictionary::from_parts(
        grid, golden_db, entries, universe, input, probe,
    ))
}

/// Encodes a trajectory set as the **v3** aligned payload (module docs
/// show the layout). `section_offset` is the absolute container offset
/// the payload will be written at — the padding is computed against it
/// so the offset table, deviations, and coordinates land 8-byte aligned
/// in the file.
fn encode_trajectory_set_v3(set: &TrajectorySet, section_offset: usize) -> Vec<u8> {
    let n_traj = set.len();
    let dim = set.dim();
    let total_points: usize = set.views().map(|v| v.point_count()).sum();

    let mut enc = Encoder::new();
    enc.put_f64s(set.test_vector().omegas());
    enc.put_u32(n_traj as u32);
    enc.put_u32(dim as u32);
    enc.put_u32(u32::try_from(total_points).expect("point count fits u32"));
    for v in set.views() {
        enc.put_str(v.component());
    }
    // +4 for the pad_len field itself.
    let aligned_start = section_offset + enc.len() + 4;
    let pad = (8 - aligned_start % 8) % 8;
    enc.put_u32(pad as u32);
    for _ in 0..pad {
        enc.put_u8(0);
    }

    let mut running = 0u32;
    enc.put_u32(0);
    for v in set.views() {
        running += v.point_count() as u32;
        enc.put_u32(running);
    }
    if (n_traj + 1) % 2 == 1 {
        enc.put_u32(0); // keep the deviation region 8-byte aligned
    }
    for v in set.views() {
        for &d in v.deviations_pct() {
            enc.put_f64(d);
        }
    }
    for v in set.views() {
        for i in 0..v.point_count() {
            for &x in v.point(i) {
                enc.put_f64(x);
            }
        }
    }
    enc.into_payload()
}

/// The structurally parsed shape of a v3 trajectory payload: everything
/// the header region declares, plus the payload-relative byte offsets of
/// the two `f64` regions. Parsing is O(header + n_traj) and touches no
/// region byte.
struct V3Layout {
    omegas: Vec<f64>,
    components: Vec<String>,
    /// Prefix sums of per-trajectory point counts (`n_traj + 1` values).
    point_offsets: Vec<u32>,
    devs_off: usize,
    coords_off: usize,
    dim: usize,
}

/// Parses and structurally validates a v3 trajectory payload:
/// bounds, counts, UTF-8 names, zero padding, offset-table
/// monotonicity, and exact region tiling. Region contents (deviation
/// ordering, finiteness) are deliberately not read — that is
/// `validate_deep`'s job.
fn parse_v3_trajectory_payload(payload: &[u8]) -> Result<V3Layout, CodecError> {
    let mut dec = Decoder::over(payload);
    let omegas = dec.get_f64s()?;
    ensure(!omegas.is_empty(), "test vector is empty")?;
    ensure(
        omegas.iter().all(|w| w.is_finite() && *w > 0.0),
        "test frequencies must be positive and finite",
    )?;
    let n_traj = dec.get_u32()? as usize;
    ensure(n_traj > 0, "bank holds no trajectories")?;
    let dim = dec.get_u32()? as usize;
    ensure(dim > 0, "trajectory dimension must be positive")?;
    ensure(
        dim.is_multiple_of(omegas.len()),
        "trajectory dimension must be a multiple of the test-vector length",
    )?;
    let total_points = dec.get_u32()? as usize;
    // Each trajectory needs ≥ 2 points and each point 8·dim coordinate
    // bytes, so both counts are bounded by the payload before any
    // allocation sized by them.
    ensure(
        total_points >= 2 * n_traj,
        "total point count below two points per trajectory",
    )?;
    ensure(
        total_points
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .is_some_and(|bytes| bytes <= payload.len()),
        "declared point count exceeds the payload",
    )?;
    let mut components = Vec::with_capacity(n_traj.min(payload.len() / 4));
    for _ in 0..n_traj {
        components.push(dec.get_str()?);
    }
    let pad = dec.get_u32()? as usize;
    ensure(pad < 8, "v3 alignment padding must be 0..=7 bytes")?;
    let mut pad_bytes = [0u8; 8];
    for b in pad_bytes.iter_mut().take(pad) {
        *b = dec.get_u8()?;
    }
    ensure(
        pad_bytes.iter().all(|b| *b == 0),
        "v3 alignment padding must be zero",
    )?;

    let mut point_offsets = Vec::with_capacity(n_traj + 1);
    for _ in 0..=n_traj {
        point_offsets.push(dec.get_u32()?);
    }
    ensure(
        point_offsets[0] == 0,
        "v3 point-offset table must start at zero",
    )?;
    ensure(
        // Widened: a hostile offset near u32::MAX must not wrap.
        point_offsets
            .windows(2)
            .all(|w| u64::from(w[0]) + 2 <= u64::from(w[1])),
        "v3 point offsets must grow by at least two per trajectory",
    )?;
    ensure(
        point_offsets[n_traj] as usize == total_points,
        "v3 point-offset table does not cover the declared points",
    )?;
    if (n_traj + 1) % 2 == 1 {
        ensure(dec.get_u32()? == 0, "v3 offset-table padding must be zero")?;
    }
    let devs_off = payload.len() - dec.remaining();
    let coords_off = devs_off + 8 * total_points;
    let end = coords_off + 8 * total_points * dim;
    if end != payload.len() {
        return Err(if end > payload.len() {
            CodecError::Truncated {
                needed: end,
                available: payload.len(),
            }
        } else {
            CodecError::TrailingBytes(payload.len() - end)
        });
    }
    Ok(V3Layout {
        omegas,
        components,
        point_offsets,
        devs_off,
        coords_off,
        dim,
    })
}

/// Decodes a v3 trajectory payload into packed storage — the one
/// trajectory decoder, shared by [`TrajectoryBank::from_bytes`] and
/// [`MappedBank::open`]. The structure is validated first
/// ([`parse_v3_trajectory_payload`]); the two `f64` regions are then
/// decoded with `f64::from_le_bytes`, at any alignment. Content
/// (finiteness, deviation ordering) is left to
/// [`TrajectorySet::validate_deep`], which every reader runs before the
/// set serves.
fn decode_trajectories(payload: &[u8]) -> Result<TrajectorySet, CodecError> {
    let layout = parse_v3_trajectory_payload(payload)?;
    let f64s = |off: usize, n: usize| -> Vec<f64> {
        payload[off..off + 8 * n]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect()
    };
    let total_points = layout.point_offsets[layout.components.len()] as usize;
    let devs = f64s(layout.devs_off, total_points);
    let coords = f64s(layout.coords_off, total_points * layout.dim);
    let packed = PackedTrajectories::new(
        layout.components,
        layout.point_offsets,
        devs,
        coords,
        layout.dim,
    )
    .map_err(|e| CodecError::Malformed(e.to_string()))?;
    Ok(TrajectorySet::from_packed(
        TestVector::new(layout.omegas),
        packed,
    ))
}

fn encode_multifault(mfd: &MultiFaultDictionary) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_grid_into(&mut enc, mfd.grid());
    enc.put_f64s(mfd.golden_db());
    enc.put_str(mfd.input());
    encode_probe_into(&mut enc, mfd.probe());
    enc.put_u32(mfd.entries().len() as u32);
    for entry in mfd.entries() {
        let faults = entry.fault().faults();
        enc.put_u32(faults.len() as u32);
        for f in faults {
            enc.put_str(f.component());
            enc.put_f64(f.percent());
        }
        enc.put_f64s(entry.magnitude_db());
    }
    enc.into_payload()
}

fn decode_multifault(dec: &mut Decoder) -> Result<MultiFaultDictionary, CodecError> {
    let grid = decode_grid(dec)?;
    let golden_db = decode_response(dec, grid.len(), "multifault golden response")?;
    let input = dec.get_str()?;
    let probe = decode_probe(dec)?;

    // Each entry needs at least the order prefix, one fault (len prefix
    // + ≥1-byte name + percent), and the response length prefix.
    let n_entries = dec.get_count(4 + 4 + 4 + 1 + 8 + 4)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        // Each constituent fault costs ≥ 13 bytes (name prefix + ≥1
        // byte + percent), bounding the order before allocation.
        let order = dec.get_count(13)?;
        ensure(order > 0, "multi-fault needs at least one fault")?;
        let mut faults: Vec<ParametricFault> = Vec::with_capacity(order);
        for _ in 0..order {
            let component = dec.get_str()?;
            ensure(!component.is_empty(), "multi-fault component is empty")?;
            let percent = dec.get_f64()?;
            ensure(
                percent.is_finite() && percent > -100.0,
                "multi-fault deviation must be finite and > -100%",
            )?;
            ensure(
                faults.iter().all(|f| f.component() != component),
                "multi-fault repeats a component",
            )?;
            faults.push(ParametricFault::from_percent(component, percent));
        }
        let magnitude_db = decode_response(dec, grid.len(), "multifault entry response")?;
        entries.push(MultiFaultEntry::new(MultiFault::new(faults), magnitude_db));
    }
    Ok(MultiFaultDictionary::from_parts(
        grid, golden_db, entries, input, probe,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DiagnosisEngine, EngineConfig};
    use ft_core::{FaultTrajectory, Signature};
    use ft_numerics::FrequencyGrid;

    fn rc_bank() -> TrajectoryBank {
        let mut ckt = ft_circuit::Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(1.0, 1e6, 15);
        let dict =
            FaultDictionary::build(&ckt, &universe, "V1", &Probe::node("out"), &grid).unwrap();
        TrajectoryBank::build(dict, &TestVector::pair(100.0, 1e4))
    }

    #[test]
    fn round_trip_is_identity() {
        let bank = rc_bank();
        let bytes = bank.to_bytes();
        let back = TrajectoryBank::from_bytes(&bytes).unwrap();
        assert_eq!(bank, back);
        // And encoding is deterministic.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn save_load_round_trip() {
        let bank = rc_bank();
        let path = std::env::temp_dir().join("ft_serve_bank_test.ftb");
        bank.save(&path).unwrap();
        let back = TrajectoryBank::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bank, back);
    }

    #[test]
    fn differential_probe_round_trips() {
        let bank = rc_bank();
        let dict = bank.dictionary();
        let diff = FaultDictionary::from_parts(
            dict.grid().clone(),
            dict.golden_db().to_vec(),
            dict.entries().to_vec(),
            dict.universe().clone(),
            dict.input().to_string(),
            Probe::differential("in", "out"),
        );
        let bank = TrajectoryBank {
            dict: diff,
            set: bank.trajectory_set().clone(),
            multifault: None,
        };
        let back = TrajectoryBank::from_bytes(&bank.to_bytes()).unwrap();
        assert_eq!(bank, back);
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_harmless() {
        // Corruption anywhere in the container must surface as an error
        // (header fields and payload are both covered; a flip can never
        // silently yield a *different valid* bank).
        let bank = rc_bank();
        let bytes = bank.to_bytes();
        // Sample positions across the container, always including the
        // magic, version, section count, table checksum, and both
        // section-table entries (2 sections × 18 bytes from offset 22).
        for pos in (0..bytes.len()).step_by(97).chain([0, 9, 13, 21, 30, 48]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                TrajectoryBank::from_bytes(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncated_file_is_detected() {
        let bytes = rc_bank().to_bytes();
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(TrajectoryBank::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn load_missing_file_is_io_error_naming_the_path() {
        let err = TrajectoryBank::load("/nonexistent/bank.ftb").unwrap_err();
        match &err {
            CodecError::InFile { path, source } => {
                assert_eq!(path.to_string_lossy(), "/nonexistent/bank.ftb");
                assert!(matches!(**source, CodecError::Io(_)));
            }
            other => panic!("expected InFile, got {other:?}"),
        }
        assert!(err.to_string().contains("/nonexistent/bank.ftb"));
    }

    fn rc_multifault() -> MultiFaultDictionary {
        let mut ckt = ft_circuit::Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::new(40.0, 20.0));
        MultiFaultDictionary::build_pairs(
            &ckt,
            &universe,
            "V1",
            &Probe::node("out"),
            &FrequencyGrid::log_space(1.0, 1e5, 9),
        )
        .unwrap()
    }

    #[test]
    fn multifault_dictionary_round_trips_byte_identically() {
        let bank = rc_bank().with_multifault(rc_multifault());
        assert!(bank.multifault_dictionary().is_some());
        let bytes = bank.to_bytes();
        let back = TrajectoryBank::from_bytes(&bytes).unwrap();
        assert_eq!(bank, back);
        assert_eq!(
            bank.multifault_dictionary(),
            back.multifault_dictionary(),
            "multi-fault dictionary must survive the round trip"
        );
        // Byte-identical re-encode — the acceptance criterion.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn multifault_section_every_flip_detected() {
        let bank = rc_bank().with_multifault(rc_multifault());
        let bytes = bank.to_bytes();
        for pos in (0..bytes.len()).step_by(89).chain([0, 21, 40, 58]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                TrajectoryBank::from_bytes(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn mapped_open_matches_heap_load() {
        let bank = rc_bank().with_multifault(rc_multifault());
        let path = std::env::temp_dir().join("ft_serve_mapped_open_test.ftb");
        bank.save(&path).unwrap();
        let (mapped, set) = MappedBank::open(&path).unwrap();
        assert_eq!(&set, bank.trajectory_set());
        mapped.verify_trajectory_payload().unwrap();
        set.validate_deep().unwrap();
        // A served shard holds its trajectory section and nothing else.
        let bytes = bank.to_bytes();
        let table = SectionTable::parse(&bytes).unwrap();
        let traj = table.locate(SECTION_TRAJECTORIES).unwrap().unwrap();
        assert_eq!(mapped.resident_bytes(), traj.len as u64);
        assert_eq!(mapped.generation(), FileGen::probe(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_corruption_outside_trajectories_is_deferred_and_attributed() {
        let bank = rc_bank().with_multifault(rc_multifault());
        let bytes = bank.to_bytes();
        let dict_off = SectionTable::parse(&bytes).unwrap().entries()[0].offset;
        let mut corrupt = bytes;
        corrupt[dict_off] ^= 0x01;

        let path = std::env::temp_dir().join("ft_serve_mapped_lazy_corrupt_test.ftb");
        std::fs::write(&path, &corrupt).unwrap();
        // The served load succeeds — the trajectory section is intact,
        // and the dictionary bytes are never read — and diagnoses.
        let (engine, _) = DiagnosisEngine::open(&path, EngineConfig::default()).unwrap();
        assert_eq!(engine.trajectory_set(), bank.trajectory_set());
        let reference =
            DiagnosisEngine::new(bank.trajectory_set().clone(), EngineConfig::default());
        let sig = Signature::new(vec![0.3, -0.2]);
        assert_eq!(engine.diagnose(&sig), reference.diagnose(&sig));
        // The full load, which tools use, attributes the hit to the
        // dictionary section and names the shard file.
        let err = TrajectoryBank::load(&path).expect_err("corruption must surface");
        let msg = err.to_string();
        assert!(msg.contains("dictionary"), "{msg}");
        assert!(msg.contains("mapped_lazy_corrupt"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_v3_region_corruption_is_caught_by_deferred_verification() {
        // A flipped coordinate byte still decodes, so the open succeeds;
        // the checksum it took is compared by the verification pass
        // engines run before serving, which must catch it.
        let bank = rc_bank();
        let bytes = bank.to_bytes();
        let traj = SectionTable::parse(&bytes).unwrap().entries()[1];
        // Last byte of the trajectory payload = deep inside the
        // coordinate region.
        let hit = traj.offset + traj.len - 1;
        let mut corrupt = bytes;
        corrupt[hit] ^= 0x01;
        let path = std::env::temp_dir().join("ft_serve_mapped_v3_region_corrupt_test.ftb");
        std::fs::write(&path, &corrupt).unwrap();
        let (mapped, set) = MappedBank::open(&path).unwrap();
        assert_eq!(set.len(), bank.trajectory_set().len());
        let err = mapped
            .verify_trajectory_payload()
            .expect_err("region corruption must fail verification");
        assert!(err.to_string().contains("trajectories"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_structural_corruption_fails_open() {
        // A truncated payload must fail the open itself; a region that
        // sits off its 8-byte file alignment must still decode
        // losslessly, through the same decoder.
        let bank = rc_bank();
        let bytes = bank.to_bytes();
        let path = std::env::temp_dir().join("ft_serve_v3_structural_test.ftb");

        // Truncation anywhere in the file.
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() / 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(MappedBank::open(&path).is_err(), "cut at {cut} opened");
        }

        // Misalignment: re-encode the trajectory payload as if the
        // section sat 4 bytes later. Its internal padding then differs
        // by 4 mod 8, so against the offset the container actually
        // assigns, the f64 regions land 4-byte aligned at best — the
        // shape a tool splicing sections without re-padding produces.
        // The checksums are valid (the builder recomputes them), so
        // the data is intact: both readers must load it unchanged.
        let table = SectionTable::parse(&bytes).unwrap();
        let traj = table.entries()[1];
        let dict_payload = table.require(&bytes, SECTION_DICTIONARY).unwrap().to_vec();
        let layout = parse_v3_trajectory_payload(traj.payload(&bytes)).unwrap();
        assert_eq!((traj.offset + layout.devs_off) % 8, 0, "writer aligns");
        let skewed = encode_trajectory_set_v3(bank.trajectory_set(), traj.offset + 4);
        let mut b = ContainerBuilder::new();
        b.push_section(SECTION_DICTIONARY, dict_payload);
        b.push_section(SECTION_TRAJECTORIES, skewed);
        let misaligned = b.finish();
        let skewed = SectionTable::parse(&misaligned).unwrap().entries()[1];
        let skewed_layout = parse_v3_trajectory_payload(skewed.payload(&misaligned)).unwrap();
        assert_ne!(
            (skewed.offset + skewed_layout.devs_off) % 8,
            0,
            "skew must defeat the padding"
        );
        std::fs::write(&path, &misaligned).unwrap();
        let (_, set) = MappedBank::open(&path).expect("misaligned container still opens");
        assert_eq!(&set, bank.trajectory_set(), "the decode is lossless");
        let back = TrajectoryBank::from_bytes(&misaligned).expect("heap decode tolerates shift");
        assert_eq!(back.trajectory_set(), bank.trajectory_set());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_per_section_corruption_is_attributed() {
        // One flipped byte per section, each attributed to the section
        // it hit by the heap loader.
        let bank = rc_bank().with_multifault(rc_multifault());
        let bytes = bank.to_bytes();
        let table = SectionTable::parse(&bytes).unwrap();
        let sections = table.entries();
        let hits: Vec<(usize, &str)> = vec![
            (sections[0].offset, "dictionary"),
            (
                // Mid-payload: inside the trajectory f64 regions.
                sections[1].offset + sections[1].len / 2,
                "trajectories",
            ),
            (sections[2].offset, "multifault"),
        ];
        for (pos, name) in hits {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            let err = TrajectoryBank::from_bytes(&corrupt)
                .expect_err("corruption must surface on heap load");
            assert!(
                err.to_string().contains(name),
                "flip at {pos}: expected attribution to {name}, got {err}"
            );
        }
    }

    #[test]
    fn v3_round_trip_with_multifault_is_identical() {
        let bank = rc_bank().with_multifault(rc_multifault());
        let v3 = bank.to_bytes();
        let back = TrajectoryBank::from_bytes(&v3).unwrap();
        assert_eq!(bank, back);
        assert_eq!(v3, back.to_bytes(), "v3 encoding is deterministic");
    }

    /// Encodes a minimal single-component bank by hand as a v3
    /// container — a hand-written dictionary section plus the writer's
    /// trajectory section — letting tests inject hostile dictionary
    /// values the public API can never produce.
    fn hostile_bank(step_pct: f64) -> Vec<u8> {
        let mut dict = Encoder::new();
        dict.put_u8(1); // logarithmic spacing
        dict.put_f64s(&[1.0, 2.0]);
        dict.put_f64s(&[-3.0, -9.0]); // golden
        dict.put_str("V1");
        dict.put_u8(0); // node probe
        dict.put_str("out");
        dict.put_u32(1); // one component
        dict.put_str("R1");
        dict.put_f64(40.0); // max_pct
        dict.put_f64(step_pct);
        let n_entries = if step_pct == 10.0 { 8 } else { 0 };
        dict.put_u32(n_entries);
        for _ in 0..n_entries {
            dict.put_f64s(&[-2.0, -8.0]);
        }
        let dict = dict.into_payload();
        let p = |x: f64, y: f64| Signature::new(vec![x, y]);
        let set = TrajectorySet::new(
            TestVector::new(vec![1.0, 2.0]),
            vec![FaultTrajectory::new(
                "R1",
                vec![-10.0, 0.0, 10.0],
                vec![p(-1.0, -1.0), p(0.0, 0.0), p(1.0, 1.0)],
            )],
        );
        let traj_offset = CONTAINER_HEADER_LEN + 2 * SECTION_ENTRY_LEN + dict.len();
        let mut b = ContainerBuilder::new();
        b.push_section(SECTION_DICTIONARY, dict);
        b.push_section(
            SECTION_TRAJECTORIES,
            encode_trajectory_set_v3(&set, traj_offset),
        );
        b.finish()
    }

    #[test]
    fn hand_encoded_baseline_decodes() {
        // Sanity-check the hostile encoder against the real format.
        let bank = TrajectoryBank::from_bytes(&hostile_bank(10.0)).unwrap();
        assert_eq!(bank.trajectory_set().len(), 1);
        assert_eq!(bank.dictionary().entries().len(), 8);
    }

    #[test]
    fn hostile_fields_error_instead_of_panicking() {
        // Implausibly fine deviation grid: must not attempt to
        // enumerate ~10^300 faults. (Hostile trajectory fields are
        // covered on both read paths by
        // `hostile_v3_fields_error_on_both_read_paths`.)
        assert!(TrajectoryBank::from_bytes(&hostile_bank(5e-324)).is_err());
        assert!(TrajectoryBank::from_bytes(&hostile_bank(1e-9)).is_err());
    }

    /// Payload-relative offsets of the v3 trajectory header fields the
    /// hostile cases patch.
    struct V3Fields {
        /// `n_traj`; `dim` and `total_points` follow at +4 and +8.
        n_traj_at: usize,
        pad_len_at: usize,
        pad_len: usize,
        /// The point-offset table, `n_traj + 1` `u32`s.
        offsets_at: usize,
        coords_at: usize,
    }

    fn v3_fields(payload: &[u8]) -> V3Fields {
        let u32_at = |off: usize| {
            u32::from_le_bytes(payload[off..off + 4].try_into().expect("4 bytes")) as usize
        };
        let n_traj_at = 4 + 8 * u32_at(0);
        let mut pad_len_at = n_traj_at + 12;
        for _ in 0..u32_at(n_traj_at) {
            pad_len_at += 4 + u32_at(pad_len_at);
        }
        V3Fields {
            n_traj_at,
            pad_len_at,
            pad_len: u32_at(pad_len_at),
            offsets_at: pad_len_at + 4 + u32_at(pad_len_at),
            coords_at: parse_v3_trajectory_payload(payload)
                .expect("writer output parses")
                .coords_off,
        }
    }

    /// A v3 container for [`rc_bank`] whose trajectory payload `patch`
    /// rewrites before the container is sealed, so every checksum stays
    /// valid and only the v3 structural and content checks stand between
    /// the hostile field and the readers. An unknown filler section in
    /// front of the trajectories is sized so the payload carries 7 pad
    /// bytes while its regions still land 8-byte aligned.
    fn hostile_v3(patch: impl FnOnce(&mut [u8], &V3Fields)) -> Vec<u8> {
        let bank = rc_bank();
        let dict = encode_dictionary(bank.dictionary());
        let (filler, mut traj) = (0..8)
            .map(|filler| {
                let offset = CONTAINER_HEADER_LEN + 3 * SECTION_ENTRY_LEN + dict.len() + filler;
                (
                    filler,
                    encode_trajectory_set_v3(bank.trajectory_set(), offset),
                )
            })
            .find(|(_, traj)| v3_fields(traj).pad_len == 7)
            .expect("one of eight filler lengths leaves 7 pad bytes");
        let fields = v3_fields(&traj);
        patch(&mut traj, &fields);
        let mut b = ContainerBuilder::new();
        b.push_section(SECTION_DICTIONARY, dict);
        b.push_section(0x7ff0, vec![0; filler]);
        b.push_section(SECTION_TRAJECTORIES, traj);
        b.finish()
    }

    #[test]
    fn hand_patched_v3_baseline_loads_packed() {
        // Sanity-check the hostile v3 builder: unpatched, both readers
        // load it back to the set it was built from.
        let bytes = hostile_v3(|_, _| {});
        let bank = TrajectoryBank::from_bytes(&bytes).unwrap();
        assert_eq!(bank.trajectory_set(), rc_bank().trajectory_set());
        let path = std::env::temp_dir().join("ft_serve_hostile_v3_baseline_test.ftb");
        std::fs::write(&path, &bytes).unwrap();
        let (engine, _) = DiagnosisEngine::open(&path, EngineConfig::default()).unwrap();
        assert_eq!(engine.trajectory_set(), bank.trajectory_set());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_v3_fields_error_on_both_read_paths() {
        fn put_u32(payload: &mut [u8], at: usize, v: u32) {
            payload[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "n_traj = u32::MAX",
                hostile_v3(|p, f| put_u32(p, f.n_traj_at, u32::MAX)),
            ),
            (
                "dim = u32::MAX",
                hostile_v3(|p, f| put_u32(p, f.n_traj_at + 4, u32::MAX)),
            ),
            // Even, so it passes the test-vector multiple check and meets
            // the payload-size bound instead.
            (
                "dim = u32::MAX - 1",
                hostile_v3(|p, f| put_u32(p, f.n_traj_at + 4, u32::MAX - 1)),
            ),
            (
                "total_points = u32::MAX",
                hostile_v3(|p, f| put_u32(p, f.n_traj_at + 8, u32::MAX)),
            ),
            (
                "pad_len = 8",
                hostile_v3(|p, f| put_u32(p, f.pad_len_at, 8)),
            ),
            (
                "a non-zero pad byte",
                hostile_v3(|p, f| p[f.pad_len_at + 4 + f.pad_len - 1] = 0x5a),
            ),
            // Would wrap the offsets' growth check in u32 and slice
            // backwards.
            (
                "a point offset of u32::MAX - 1",
                hostile_v3(|p, f| put_u32(p, f.offsets_at + 4, u32::MAX - 1)),
            ),
            (
                "a NaN coordinate",
                hostile_v3(|p, f| {
                    p[f.coords_at..f.coords_at + 8].copy_from_slice(&f64::NAN.to_le_bytes())
                }),
            ),
            (
                "an infinite coordinate",
                hostile_v3(|p, f| {
                    p[f.coords_at..f.coords_at + 8].copy_from_slice(&f64::INFINITY.to_le_bytes())
                }),
            ),
        ];
        let path = std::env::temp_dir().join("ft_serve_hostile_v3_test.ftb");
        for (what, bytes) in cases {
            assert!(
                TrajectoryBank::from_bytes(&bytes).is_err(),
                "heap reader accepted {what}"
            );
            // The served engine refuses it at open or, for content the
            // decoder does not judge, at validate_deep.
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                DiagnosisEngine::open(&path, EngineConfig::default()).is_err(),
                "served load accepted {what}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
