//! The durable delta journal.
//!
//! An append-only on-disk log of [`CorpusDelta`]s — the filtered
//! source updates treated as a first-class, replayable stream rather
//! than a transient mutation. A file header, then one binary frame
//! per record, each delta in the [`obs_model::codec`] encoding:
//!
//! ```text
//! file    := "OBS-JRN" version(1 byte) frame*
//! frame   := len(u32) seq(u64) crc(u32) hcrc(u32) payload[len]
//!            ╰──────────── 20-byte header ─────────╯
//! ```
//!
//! All integers are little-endian.
//!
//! * `seq` — contiguous sequence number; replay refuses a log with a
//!   gap or regression (that's corruption, not a crash);
//! * `crc` — IEEE CRC-32 of the payload, so a bit-flipped record is
//!   detected rather than decoded into garbage;
//! * `hcrc` — CRC-32 of `len ‖ seq ‖ crc`, so a damaged length can
//!   never send the reader to a wrong frame boundary.
//!
//! A file that does not start with the header — every JSON-era
//! journal among them — is refused as
//! [`JournalError::UnsupportedFormat`], never migrated. A file that
//! holds only a strict prefix of the header is an empty journal: the
//! crash came between its creation and its first append.
//!
//! **Torn-tail tolerance:** a crash mid-append leaves at most one
//! damaged frame, and only at the end of the file. Replay drops it —
//! the delta was never acknowledged as durable — and
//! [`DeltaJournal::open`] heals the file to the end of the last
//! intact frame, in three cases:
//!
//! * the file ends inside a frame, its header included;
//! * the last frame's payload fails its CRC (only zero bytes, if
//!   any, follow it);
//! * only zero bytes follow the last intact frame (a file extended
//!   before its data blocks reached the disk).
//!
//! Any other damage is [`JournalError::Corrupt`]: a header whose
//! `hcrc` fails with anything but zeros after it, a payload that
//! fails its CRC with a later frame after it, a sequence gap, or a
//! verified payload that does not decode.
//!
//! **Group commit:** [`DeltaJournal::append_batch`] is the only
//! writer: it appends any number of frames, each encoded and written
//! through one reused buffer, and makes them durable under **one**
//! fsync — the amortization that turns a burst of crawl ticks from N
//! disk syncs into one, while a bulk load never holds more than one
//! frame in memory. The batch is all-or-nothing: if any write or the
//! sync fails, the batch is truncated back out, so a retry re-claims
//! the exact same sequence numbers and recovery never replays an
//! unacknowledged record.
//!
//! **Compaction:** once a checkpoint image covers every record,
//! [`DeltaJournal::compact`] truncates the file to its header and
//! syncs it: one fsync and no read. Sequence numbers keep rising
//! across compactions; the owner re-pins the position of an empty
//! journal with [`DeltaJournal::resume_at`].

// Replay determinism (clippy.toml bans hash-ordered containers and
// the wall clock here): replaying this log must rebuild a
// byte-identical engine, so nothing here may depend on hash order or
// the wall clock.
#![warn(clippy::disallowed_types)]
// Checked indexing only: every commit and recovery reads and writes
// frames through here.
#![warn(clippy::indexing_slicing)]

use obs_model::codec::{DecodeError, Reader};
use obs_model::{CorpusDelta, SequencedDelta};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Magic and format version: the first bytes of every journal file.
pub(crate) const FILE_HEADER: [u8; 8] = *b"OBS-JRN\x01";

/// Bytes of a frame before its payload: `len`, `seq`, `crc`, `hcrc`.
const FRAME_HEADER: usize = 20;

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A record *before* the final one is damaged, or sequence
    /// numbers are not contiguous — the log cannot be trusted.
    Corrupt {
        /// 1-based frame number of the damage.
        record: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The file does not start with this format's header: a
    /// JSON-era journal, another format version, or not a journal.
    /// Refused untouched rather than migrated.
    UnsupportedFormat {
        /// The bytes found where the header belongs.
        found: Vec<u8>,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { record, reason } => {
                write!(f, "journal corrupt at record {record}: {reason}")
            }
            JournalError::UnsupportedFormat { found } => write!(
                f,
                "not a journal of this format: expected header \"{}\", found \"{}\"",
                FILE_HEADER.escape_ascii(),
                found.escape_ascii()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Every intact record, in sequence order.
    pub records: Vec<SequencedDelta>,
    /// Whether a torn tail (a cut or damaged final frame, zero fill,
    /// or a cut file header) was dropped.
    pub torn_tail_dropped: bool,
    /// Byte length of the intact prefix — the whole file when no
    /// tail was torn, 0 when not even the file header is whole.
    /// Healing truncates to exactly here.
    pub clean_len: u64,
}

impl JournalReplay {
    /// Sequence of the last intact record (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table of
/// the reflected IEEE polynomial, and `CRC_TABLES[k][b]` advances
/// `CRC_TABLES[0][b]` by `k` more zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time, where an index out of bounds fails the build"
)]
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// IEEE CRC-32 (the polynomial every zip/png reader uses),
/// bit-reflected, eight bytes per step through [`CRC_TABLES`].
#[expect(
    clippy::indexing_slicing,
    reason = "fixed offsets into 8-byte chunks and byte-valued indexes into 256-entry tables"
)]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one frame — header and `delta`'s payload — into `frame`,
/// replacing what it held.
fn encode_frame(seq: u64, delta: &CorpusDelta, frame: &mut Vec<u8>) -> Result<(), JournalError> {
    frame.clear();
    frame.resize(FRAME_HEADER, 0);
    delta.encode_into(frame);
    let (slot, payload) = frame.split_at_mut(FRAME_HEADER);
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::other("delta encodes to over 4 GiB"))?;
    let crc = crc32(payload);
    let head: &mut [u8; FRAME_HEADER] = slot
        .try_into()
        .map_err(|_| std::io::Error::other("frame header slot of the wrong size"))?;
    head[0..4].copy_from_slice(&len.to_le_bytes());
    head[4..12].copy_from_slice(&seq.to_le_bytes());
    head[12..16].copy_from_slice(&crc.to_le_bytes());
    let hcrc = crc32(&head[..16]);
    head[16..20].copy_from_slice(&hcrc.to_le_bytes());
    Ok(())
}

/// The fields of the frame header at the start of `bytes`: `len`,
/// `seq`, `crc` and `hcrc`.
fn frame_header(bytes: &[u8]) -> Result<(u32, u64, u32, u32), DecodeError> {
    let mut r = Reader::new(bytes);
    Ok((r.u32_le()?, r.u64_le()?, r.u32_le()?, r.u32_le()?))
}

/// One verified frame's place in the file.
#[derive(Debug)]
struct Frame {
    seq: u64,
    /// The payload's bytes, right after the frame header; its end is
    /// the frame's end.
    payload: Range<usize>,
}

/// Every intact frame of a journal file, found and checksummed
/// without decoding a payload.
#[derive(Debug, Default)]
struct Scan {
    frames: Vec<Frame>,
    torn: bool,
    clean_len: usize,
}

fn corrupt(record: usize, reason: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        record,
        reason: reason.into(),
    }
}

/// Splits a journal file into its frames by the rules of the module
/// docs: a torn tail ends the scan, any other damage fails it.
fn scan(bytes: &[u8]) -> Result<Scan, JournalError> {
    let head = bytes.get(..FILE_HEADER.len()).unwrap_or(bytes);
    if !FILE_HEADER.starts_with(head) {
        return Err(JournalError::UnsupportedFormat {
            found: head.to_vec(),
        });
    }
    if head.len() < FILE_HEADER.len() {
        return Ok(Scan {
            torn: !head.is_empty(),
            ..Scan::default()
        });
    }
    let mut scan = Scan {
        clean_len: FILE_HEADER.len(),
        ..Scan::default()
    };
    while scan.clean_len < bytes.len() {
        let record = scan.frames.len() + 1;
        let start = scan.clean_len;
        let rest = bytes.get(start..).unwrap_or_default();
        let zeros_from = |at: usize| bytes.get(at..).is_some_and(|t| t.iter().all(|&b| b == 0));
        let Ok((len, seq, crc, hcrc)) = frame_header(rest) else {
            // The file ends inside the frame header.
            scan.torn = true;
            break;
        };
        if rest.get(..16).map(crc32) != Some(hcrc) {
            if zeros_from(start) {
                scan.torn = true;
                break;
            }
            return Err(corrupt(record, "frame header checksum mismatch"));
        }
        let payload_start = start + FRAME_HEADER;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| payload_start.checked_add(len))
            .filter(|&end| end <= bytes.len());
        let Some(end) = end else {
            // The header is whole and verified, its payload is not
            // all there: the file ends inside the frame.
            scan.torn = true;
            break;
        };
        let actual = crc32(bytes.get(payload_start..end).unwrap_or_default());
        if actual != crc {
            if zeros_from(end) {
                scan.torn = true;
                break;
            }
            return Err(corrupt(
                record,
                format!("payload crc mismatch: stored {crc:08x}, computed {actual:08x}"),
            ));
        }
        if let Some(prev) = scan.frames.last() {
            if seq != prev.seq.wrapping_add(1) {
                return Err(corrupt(
                    record,
                    format!(
                        "sequence gap: expected {}, found {seq}",
                        prev.seq.wrapping_add(1)
                    ),
                ));
            }
        }
        scan.frames.push(Frame {
            seq,
            payload: payload_start..end,
        });
        scan.clean_len = end;
    }
    Ok(scan)
}

/// The append handle over a journal file.
///
/// Writes go straight to the [`File`] — no userspace write buffer —
/// and every handle is in append mode. Every frame reaches the
/// kernel in one write as soon as it is encoded and is immediately
/// visible in the file's length, so failure handling only ever has
/// to reason about file bytes (truncate back to the batch's clean
/// length, and the next append lands there), never about a stale
/// buffered tail that could fuse with a retry's bytes. Throughput is
/// bounded by the one fsync per batch, not by write syscalls, so
/// buffering would buy nothing.
///
/// ```
/// use obs_live::DeltaJournal;
/// use obs_model::CorpusDelta;
///
/// let path = std::env::temp_dir()
///     .join(format!("doc_journal_{}.journal", std::process::id()));
/// let mut journal = DeltaJournal::create(&path)?;
/// // One record under one fsync: durable, and acknowledged, once
/// // this returns.
/// let range = journal.append_batch(&[&CorpusDelta::new()])?;
/// assert_eq!(range, Some((1, 1)));
///
/// // Replay sees exactly the acknowledged records.
/// let replay = DeltaJournal::replay_path(&path)?;
/// assert_eq!(replay.records.len(), 1);
/// assert_eq!(replay.records[0].seq, 1);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), obs_live::JournalError>(())
/// ```
#[derive(Debug)]
pub struct DeltaJournal {
    path: PathBuf,
    file: File,
    /// Sequence the next appended record will carry.
    next_seq: u64,
    /// Records currently in the file (post-compaction, post-recovery).
    len: usize,
    /// Pending injected fsync failures (durability fault injection
    /// for tests; see [`DeltaJournal::inject_sync_failures`]).
    sync_faults: u32,
}

impl DeltaJournal {
    /// Creates a fresh journal holding only the file header,
    /// truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<DeltaJournal, JournalError> {
        let path = path.as_ref().to_path_buf();
        // `OpenOptions` refuses `append` with `truncate`.
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(0)?;
        file.write_all(&FILE_HEADER)?;
        Ok(DeltaJournal {
            path,
            file,
            next_seq: 1,
            len: 0,
            sync_faults: 0,
        })
    }

    /// Opens an existing journal (or creates an empty one), replaying
    /// it to find the append position. A torn tail is physically
    /// truncated away, and a missing or cut file header rewritten, so
    /// the file is clean for future appends; the replay of
    /// everything intact is returned alongside the handle.
    pub fn open(path: impl AsRef<Path>) -> Result<(DeltaJournal, JournalReplay), JournalError> {
        let path = path.as_ref().to_path_buf();
        let replay = match Self::replay_path(&path) {
            Ok(replay) => replay,
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                JournalReplay::default()
            }
            Err(e) => return Err(e),
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if replay.torn_tail_dropped || replay.clean_len == 0 {
            // Heal by truncating to the end of the last intact frame:
            // O(1), and the durable prefix keeps its exact original
            // bytes. With no whole file header, start it afresh.
            file.set_len(replay.clean_len)?;
            if replay.clean_len == 0 {
                file.write_all(&FILE_HEADER)?;
            }
            file.sync_data()?;
        }
        Ok((
            DeltaJournal {
                path,
                file,
                next_seq: replay.last_seq() + 1,
                len: replay.records.len(),
                sync_faults: 0,
            },
            replay,
        ))
    }

    /// Reads, verifies and decodes every record of the journal at
    /// `path` without taking an append handle. Tolerates (and
    /// reports) a torn tail; fails on any other damage.
    pub fn replay_path(path: impl AsRef<Path>) -> Result<JournalReplay, JournalError> {
        let bytes = std::fs::read(path.as_ref())?;
        let scan = scan(&bytes)?;
        let mut records = Vec::with_capacity(scan.frames.len());
        for (i, frame) in scan.frames.iter().enumerate() {
            let payload = bytes.get(frame.payload.clone()).unwrap_or_default();
            let delta = CorpusDelta::decode(payload)
                .map_err(|e| corrupt(i + 1, format!("undecodable delta: {e}")))?;
            records.push(SequencedDelta::new(frame.seq, delta));
        }
        Ok(JournalReplay {
            records,
            torn_tail_dropped: scan.torn,
            clean_len: scan.clean_len as u64,
        })
    }

    /// Appends `deltas` as one *group commit*: every record gets its
    /// own contiguous sequence number and is written as soon as it is
    /// encoded, through one reused frame buffer, and one fsync makes
    /// the batch durable. Returns the `(first, last)` sequence range,
    /// or `None` for an empty batch (which touches neither the file
    /// nor the sequence).
    ///
    /// All-or-nothing: if encoding or writing any record, or the
    /// sync, fails, the file is truncated back to its pre-batch length
    /// and the counters stay put — no record of the batch survives to
    /// be replayed, and a retry re-claims the same sequence numbers.
    pub fn append_batch(
        &mut self,
        deltas: &[&CorpusDelta],
    ) -> Result<Option<(u64, u64)>, JournalError> {
        if deltas.is_empty() {
            return Ok(None);
        }
        let first = self.next_seq;
        // With no write buffer, the file's length *is* the clean
        // pre-batch position.
        let clean_len = self.file.metadata()?.len();
        if let Err(e) = self.write_durably(first, deltas) {
            // Best effort: if the truncate also fails, the file and
            // the counters have diverged and only a re-open can
            // reconcile them; the original error wins either way.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort undo; the encode, write or sync error wins"
            )]
            let _ = self.file.set_len(clean_len);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort undo; the encode, write or sync error wins"
            )]
            let _ = self.file.sync_data();
            return Err(e);
        }
        self.next_seq += deltas.len() as u64;
        self.len += deltas.len();
        Ok(Some((first, self.next_seq - 1)))
    }

    /// Encodes and writes each record in turn, numbered from `first`,
    /// then fsyncs them all, failing instead of syncing while injected
    /// faults are armed.
    fn write_durably(&mut self, first: u64, deltas: &[&CorpusDelta]) -> Result<(), JournalError> {
        let mut frame = Vec::new();
        for (seq, delta) in (first..).zip(deltas) {
            encode_frame(seq, delta, &mut frame)?;
            self.file.write_all(&frame)?;
        }
        if self.sync_faults > 0 {
            self.sync_faults -= 1;
            return Err(JournalError::Io(std::io::Error::other(
                "injected fsync failure",
            )));
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// Arms the next `n` fsyncs to fail deterministically (the batch's
    /// bytes are already in the file, exactly as a real failed fsync
    /// would leave them). Durability fault injection for tests, in the
    /// same spirit as `obs_wrappers::FaultPlan`.
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.sync_faults = n;
    }

    /// Drops every record — legal once a checkpoint covers them all —
    /// by truncating the file to its header and syncing it. Returns
    /// how many records were dropped. The next append keeps the
    /// sequence; a crash before the truncation is durable leaves
    /// records the checkpoint covers, which recovery skips.
    pub fn compact(&mut self) -> Result<usize, JournalError> {
        let dropped = self.len;
        if dropped > 0 {
            self.file.set_len(FILE_HEADER.len() as u64)?;
            self.file.sync_data()?;
            self.len = 0;
        }
        Ok(dropped)
    }

    /// Number of records currently in the file.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the records currently in the file: its length past
    /// the file header.
    pub fn bytes(&self) -> Result<u64, JournalError> {
        let len = self.file.metadata()?.len();
        Ok(len.saturating_sub(FILE_HEADER.len() as u64))
    }

    /// Whether the file currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence number the next append will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Fast-forwards the next append sequence to `next_seq` (never
    /// backwards). A fully-compacted journal file carries no records,
    /// so on re-open its derived position restarts at 1; the owner —
    /// who knows the stream position from its checkpoint — uses this
    /// to keep sequence numbers rising monotonically across
    /// compact-then-crash-then-recover cycles.
    pub fn resume_at(&mut self, next_seq: u64) {
        self.next_seq = self.next_seq.max(next_seq);
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{PostId, SourceId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "obs_live_journal_{}_{}_{}.journal",
            std::process::id(),
            tag,
            n
        ))
    }

    /// A fresh journal holding `records` committed sample records.
    fn journal_with(tag: &str, records: u32) -> (PathBuf, DeltaJournal) {
        let path = temp_path(tag);
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..records {
            commit(&mut journal, i);
        }
        (path, journal)
    }

    /// Journals one record as a one-delta group commit (durable on
    /// return) and hands back its sequence number.
    fn commit(journal: &mut DeltaJournal, post: u32) -> u64 {
        let (seq, _) = journal
            .append_batch(&[&sample_delta(post)])
            .unwrap()
            .expect("a one-delta batch is never empty");
        seq
    }

    fn sample_delta(post: u32) -> CorpusDelta {
        let mut d = CorpusDelta::new();
        d.add_doc(PostId::new(post), SourceId::new(0), format!("doc {post}"));
        d.note_engagement(SourceId::new(0), 1, 0);
        d
    }

    /// The byte range of each frame of the journal at `path`.
    fn frame_ranges(path: &Path) -> Vec<Range<usize>> {
        let bytes = std::fs::read(path).unwrap();
        let scan = scan(&bytes).unwrap();
        assert!(!scan.torn);
        scan.frames
            .iter()
            .map(|f| f.payload.start - FRAME_HEADER..f.payload.end)
            .collect()
    }

    /// The reference CRC-32: one bit per step, no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_known_answer_and_the_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length 0–64 at every start alignment of the 8-byte
        // step.
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "{start}+{len}");
            }
        }
    }

    #[test]
    fn append_batch_replay_roundtrips() {
        let path = temp_path("roundtrip");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..5 {
            let seq = commit(&mut journal, i);
            assert_eq!(seq, u64::from(i) + 1);
        }
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.next_seq(), 6);

        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.last_seq(), 5);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.delta, sample_delta(i as u32));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_zero_filled_tail_is_torn_and_healed() {
        let (path, _) = journal_with("zero_tail", 2);
        let intact = std::fs::read(&path).unwrap();

        // A crash can leave the file extended over blocks that never
        // reached the disk: zeros, shorter or longer than a header.
        for zeros in [1, FRAME_HEADER, 4096] {
            let mut torn = intact.clone();
            torn.resize(intact.len() + zeros, 0);
            std::fs::write(&path, &torn).unwrap();
            let replay = DeltaJournal::replay_path(&path).unwrap();
            assert!(replay.torn_tail_dropped, "{zeros} zeros");
            assert_eq!(replay.clean_len, intact.len() as u64);

            // Re-opening heals it and appends continue.
            let (mut journal, _) = DeltaJournal::open(&path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), intact);
            assert_eq!(commit(&mut journal, 7), 3);
            std::fs::write(&path, &intact).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_batch_is_one_commit_with_contiguous_seqs() {
        let (path, mut journal) = journal_with("batch", 1);

        let batch: Vec<CorpusDelta> = (1..5).map(sample_delta).collect();
        let refs: Vec<&CorpusDelta> = batch.iter().collect();
        let range = journal.append_batch(&refs).unwrap();
        assert_eq!(range, Some((2, 5)));
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.next_seq(), 6);

        // The batch is already durable (append_batch syncs): replay
        // sees every record, byte-identical to sequential appends.
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.records.len(), 5);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.delta, sample_delta(i as u32));
        }

        let (sequential_path, _) = journal_with("batch_seq", 5);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&sequential_path).unwrap(),
            "a batched journal must be byte-identical to a sequential one"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sequential_path).ok();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (path, mut journal) = journal_with("batch_empty", 1);
        let before = std::fs::read(&path).unwrap();
        assert_eq!(journal.append_batch(&[]).unwrap(), None);
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.next_seq(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_batch_sync_truncates_the_batch_back_out() {
        let (path, mut journal) = journal_with("batch_fail", 1);
        let durable = std::fs::read(&path).unwrap();

        // A long record between short ones: the records reach the file
        // one by one through one reused frame buffer, so by the refused
        // sync the file holds far more than any one record's bytes.
        let mut batch: Vec<CorpusDelta> = (1..6).map(sample_delta).collect();
        batch[2].add_doc(PostId::new(99), SourceId::new(1), "gardens ".repeat(200));
        let refs: Vec<&CorpusDelta> = batch.iter().collect();
        journal.inject_sync_failures(1);
        let err = journal.append_batch(&refs).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");

        // No trace of the batch: counters, file bytes and replay all
        // match the pre-batch state, so a retry re-claims seq 2..=6.
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.next_seq(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), durable);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.last_seq(), 1);

        let range = journal.append_batch(&refs).unwrap();
        assert_eq!(range, Some((2, 6)));
        assert_eq!(journal.len(), 6);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.last_seq(), 6);
        let longest = replay.records.iter().map(|r| r.delta.added.len()).max();
        assert_eq!(longest, Some(2));

        // Byte for byte what the same records committed one at a time
        // write.
        let (sequential_path, mut sequential) = journal_with("batch_fail_seq", 1);
        for &delta in &refs {
            sequential.append_batch(&[delta]).unwrap();
        }
        let frames = frame_ranges(&path);
        let batch_frames = &frames[1..];
        let sizes: Vec<usize> = batch_frames.iter().map(|f| f.len()).collect();
        let longest_frame = sizes.iter().max().unwrap();
        // The long frame plus four short ones of over 32 bytes each.
        assert!(sizes.iter().sum::<usize>() > longest_frame + 4 * 32);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&sequential_path).unwrap()
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sequential_path).ok();
    }

    #[test]
    fn a_tail_torn_at_any_byte_heals_to_the_intact_prefix() {
        let (path, _) = journal_with("torn_every_byte", 3);
        let intact = std::fs::read(&path).unwrap();
        let prefix = frame_ranges(&path)[1].end;

        // A crash can cut the last frame after any of its bytes, in
        // its header or in its payload.
        for cut in prefix..intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let replay = DeltaJournal::replay_path(&path).unwrap();
            assert_eq!(replay.torn_tail_dropped, cut > prefix, "cut at {cut}");
            let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, vec![1, 2], "cut at {cut}");
            assert_eq!(replay.records[1].delta, sample_delta(1));

            let (mut journal, _) = DeltaJournal::open(&path).unwrap();
            let healed = std::fs::read(&path).unwrap();
            assert_eq!(healed, &intact[..prefix], "cut at {cut}");
            assert_eq!(commit(&mut journal, 2), 3, "cut at {cut}");
            let replay = DeltaJournal::replay_path(&path).unwrap();
            assert!(!replay.torn_tail_dropped && replay.last_seq() == 3);
            assert_eq!(std::fs::read(&path).unwrap(), intact, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn healing_a_torn_tail_preserves_the_intact_prefix_bytes() {
        let (path, _) = journal_with("heal_bytes", 2);
        let intact = std::fs::read(&path).unwrap();

        // The last frame's payload fails its CRC: torn, not corrupt.
        let (torn_path, _) = journal_with("heal_bytes_torn", 3);
        let mut torn = std::fs::read(&torn_path).unwrap();
        *torn.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &torn).unwrap();

        let (_journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.clean_len, intact.len() as u64);
        // Healing truncated, it did not rewrite: byte-identical.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&torn_path).ok();
    }

    #[test]
    fn resume_at_only_moves_forward() {
        let (path, mut journal) = journal_with("resume", 1);
        assert_eq!(journal.next_seq(), 2);
        journal.resume_at(10);
        assert_eq!(journal.next_seq(), 10);
        journal.resume_at(4); // never backwards
        assert_eq!(journal.next_seq(), 10);
        assert_eq!(commit(&mut journal, 1), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_flipped_byte_anywhere_in_a_middle_frame_is_corruption() {
        let (path, _) = journal_with("corrupt", 3);
        let intact = std::fs::read(&path).unwrap();
        let second = frame_ranges(&path)[1].clone();

        // Header and payload alike: with frame 3 after it, no damage
        // to frame 2 passes for a torn tail.
        for at in second {
            let mut bytes = intact.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let err = DeltaJournal::replay_path(&path).unwrap_err();
            assert!(
                matches!(err, JournalError::Corrupt { record: 2, .. }),
                "flip at {at}: {err:?}"
            );
            assert!(DeltaJournal::open(&path).is_err(), "flip at {at}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "flip at {at}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_verified_payload_that_does_not_decode_is_corruption() {
        let path = temp_path("undecodable");
        let mut journal = DeltaJournal::create(&path).unwrap();
        commit(&mut journal, 0);
        // A frame whose checksums hold over bytes that are no delta:
        // the empty delta's encoding plus one trailing byte.
        let mut frame = Vec::new();
        encode_frame(2, &CorpusDelta::new(), &mut frame).unwrap();
        let mut payload = frame.split_off(FRAME_HEADER);
        payload.push(0);
        let mut sealed = Vec::new();
        sealed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        sealed.extend_from_slice(&2u64.to_le_bytes());
        sealed.extend_from_slice(&crc32(&payload).to_le_bytes());
        let hcrc = crc32(&sealed);
        sealed.extend_from_slice(&hcrc.to_le_bytes());
        sealed.extend_from_slice(&payload);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&sealed);
        std::fs::write(&path, &bytes).unwrap();

        let err = DeltaJournal::replay_path(&path).unwrap_err();
        match err {
            JournalError::Corrupt { record, reason } => {
                assert_eq!(record, 2);
                assert!(reason.contains("undecodable"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let (path, _) = journal_with("gap", 3);

        // Delete the middle frame: seqs 1,3 remain.
        let frames = frame_ranges(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.drain(frames[1].clone());
        std::fs::write(&path, &bytes).unwrap();

        let err = DeltaJournal::replay_path(&path).unwrap_err();
        match err {
            JournalError::Corrupt { record, reason } => {
                assert_eq!(record, 2);
                assert!(reason.contains("sequence gap"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_file_without_the_header_is_an_unsupported_format() {
        let path = temp_path("json_era");
        // A journal of the JSON-line format, one cut after its first
        // bytes, and one of a later version of this format.
        let json_era = b"1 0badc0de {\"added\":[],\"removed\":[],\"engagement\":[]}\n".to_vec();
        let mut next_version = FILE_HEADER.to_vec();
        next_version[7] = 2;
        for bytes in [json_era, b"1 ".to_vec(), next_version] {
            std::fs::write(&path, &bytes).unwrap();
            let err = DeltaJournal::replay_path(&path).unwrap_err();
            let head = &bytes[..bytes.len().min(FILE_HEADER.len())];
            assert!(
                matches!(&err, JournalError::UnsupportedFormat { found } if found == head),
                "{err:?}"
            );
            assert!(err.to_string().contains("OBS-JRN"), "{err}");
            // Refused untouched: open neither heals nor truncates.
            assert!(matches!(
                DeltaJournal::open(&path),
                Err(JournalError::UnsupportedFormat { .. })
            ));
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_create_is_an_empty_journal() {
        let path = temp_path("torn_create");
        // The crash came after the file was created and before its
        // header was whole: any strict prefix of the header.
        for cut in 0..FILE_HEADER.len() {
            std::fs::write(&path, &FILE_HEADER[..cut]).unwrap();
            let replay = DeltaJournal::replay_path(&path).unwrap();
            assert!(replay.records.is_empty());
            assert_eq!(replay.torn_tail_dropped, cut > 0);
            assert_eq!(replay.clean_len, 0);

            let (mut journal, _) = DeltaJournal::open(&path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), FILE_HEADER);
            assert_eq!(commit(&mut journal, 0), 1);
            assert_eq!(DeltaJournal::replay_path(&path).unwrap().last_seq(), 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_every_record_and_keeps_sequences() {
        let (path, mut journal) = journal_with("compact", 6);
        let past_header =
            |path: &Path| std::fs::metadata(path).unwrap().len() - FILE_HEADER.len() as u64;
        assert_eq!(journal.bytes().unwrap(), past_header(&path));
        assert!(journal.bytes().unwrap() > 0);

        // Compaction syncs nothing through the injected faults, so a
        // fault armed before it still fails the next commit.
        journal.inject_sync_failures(1);
        assert_eq!(journal.compact().unwrap(), 6);
        assert!(journal.is_empty());
        assert_eq!(journal.bytes().unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), FILE_HEADER);
        assert!(journal.append_batch(&[&sample_delta(8)]).is_err());
        assert_eq!(journal.bytes().unwrap(), 0);

        // Appends continue the global sequence; nothing is invented.
        assert_eq!(journal.next_seq(), 7);
        assert_eq!(commit(&mut journal, 9), 7);
        assert_eq!(journal.bytes().unwrap(), past_header(&path));
        let replay = DeltaJournal::replay_path(&path).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7]);

        // Compacting an empty journal is a no-op.
        assert_eq!(journal.compact().unwrap(), 1);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(journal.compact().unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(journal.next_seq(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_journals_replay_empty() {
        let path = temp_path("empty");
        let (journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(journal.is_empty());
        assert!(replay.records.is_empty());
        assert_eq!(replay.last_seq(), 0);
        // Opening a missing journal creates it, header and all.
        assert_eq!(std::fs::read(&path).unwrap(), FILE_HEADER);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.clean_len, FILE_HEADER.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
