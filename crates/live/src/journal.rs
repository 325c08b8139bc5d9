//! The durable delta journal.
//!
//! An append-only on-disk log of serialized
//! [`CorpusDelta`]s — the filtered source
//! updates treated as a first-class, replayable stream rather than a
//! transient mutation. One record per line:
//!
//! ```text
//! <seq> <crc32-hex> <delta-json>\n
//! ```
//!
//! * `seq` — contiguous, 1-based sequence number; replay refuses a
//!   log with a gap or regression (that's corruption, not a crash);
//! * `crc32` — IEEE CRC-32 of the JSON bytes, so a bit-flipped or
//!   truncated record is detected rather than deserialized into
//!   garbage;
//! * `delta-json` — the delta through the in-tree serde_json shim.
//!
//! **Torn-tail tolerance:** a crash mid-append leaves at most one
//! truncated record, and only at the end of the file. Replay detects
//! a final record that is incomplete (no newline, bad CRC, or
//! unparseable) and *drops it* — the delta was never acknowledged as
//! durable, so dropping it is the correct recovery. The same damage
//! anywhere else in the file is reported as
//! [`JournalError::Corrupt`].
//!
//! **Group commit:** [`DeltaJournal::append_batch`] is the only
//! writer: it appends any number of records, each rendered and written
//! through one reused buffer, and makes them durable under **one**
//! fsync — the amortization that turns a burst of crawl ticks from N
//! disk syncs into one, while a bulk load never holds more than one
//! record's text. The batch is all-or-nothing: if any render, write
//! or the sync fails, the batch is truncated back out, so a retry
//! re-claims the exact same sequence numbers and recovery never
//! replays an unacknowledged record.
//!
//! **Compaction:** once a checkpoint (an engine snapshot at sequence
//! `S`) makes the prefix `..=S` redundant, [`DeltaJournal::compact_through`]
//! rewrites the log without it (atomically, via a temp file +
//! rename, then a sync of the directory). Sequence numbers keep
//! rising across compactions; the first retained record pins the
//! replay base.

// lint:deterministic — replaying this log must rebuild a
// byte-identical engine, so nothing here may depend on hash order
// or the wall clock.

use obs_model::{CorpusDelta, SequencedDelta};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A record *before* the final one is damaged, or sequence
    /// numbers are not contiguous — the log cannot be trusted.
    Corrupt {
        /// 1-based record (line) number of the damage.
        record: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { record, reason } => {
                write!(f, "journal corrupt at record {record}: {reason}")
            }
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
    /// Whether a truncated final record (torn tail) was dropped.
    pub torn_tail_dropped: bool,
    /// Byte length of the intact prefix — the whole file when no
    /// tail was torn. Healing truncates to exactly here.
    pub clean_len: u64,
}

impl JournalReplay {
    /// Sequence of the last intact record (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }
}

/// IEEE CRC-32 (the polynomial every zip/png reader uses),
/// bit-reflected, table-free — journal records are small and append
/// throughput is bounded by fsync, not the checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One parse attempt over a record line (without its newline).
fn parse_record(line: &str) -> Result<SequencedDelta, String> {
    let (seq_text, rest) = line.split_once(' ').ok_or("missing field separators")?;
    let (crc_text, json) = rest.split_once(' ').ok_or("missing crc separator")?;
    let seq: u64 = seq_text
        .parse()
        .map_err(|_| format!("bad sequence number {seq_text:?}"))?;
    let stored_crc =
        u32::from_str_radix(crc_text, 16).map_err(|_| format!("bad crc field {crc_text:?}"))?;
    let actual_crc = crc32(json.as_bytes());
    if stored_crc != actual_crc {
        return Err(format!(
            "crc mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
        ));
    }
    let delta: CorpusDelta =
        serde_json::from_str(json).map_err(|e| format!("undecodable delta: {e}"))?;
    Ok(SequencedDelta::new(seq, delta))
}

/// The append handle over a journal file.
///
/// Writes go straight to the [`File`] — no userspace write buffer —
/// and every handle is in append mode. Every record reaches the
/// kernel in one write as soon as it is rendered and is immediately
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
    /// Creates a fresh, empty journal, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<DeltaJournal, JournalError> {
        let path = path.as_ref().to_path_buf();
        // `OpenOptions` refuses `append` with `truncate`.
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(0)?;
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
    /// truncated away so the file is clean for future appends; the
    /// replay of everything intact is returned alongside the handle.
    pub fn open(path: impl AsRef<Path>) -> Result<(DeltaJournal, JournalReplay), JournalError> {
        let path = path.as_ref().to_path_buf();
        let replay = match Self::replay_path(&path) {
            Ok(replay) => replay,
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                JournalReplay::default()
            }
            Err(e) => return Err(e),
        };
        if replay.torn_tail_dropped {
            // Heal by truncating to the end of the last intact
            // record: O(1), and the durable prefix keeps its exact
            // original bytes.
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(replay.clean_len)?;
            file.sync_data()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
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

    /// Reads and verifies every record of the journal at `path`
    /// without taking an append handle. Tolerates (and reports) a
    /// torn final record; fails on any other damage.
    ///
    /// The file is read as *bytes*, not as a string: a crash can
    /// truncate mid-UTF-8-sequence or leave garbage blocks at the
    /// tail, and that damage must be confined to the torn record,
    /// not fail the whole read.
    pub fn replay_path(path: impl AsRef<Path>) -> Result<JournalReplay, JournalError> {
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;

        let mut replay = JournalReplay::default();
        let mut offset = 0usize;
        let mut record_no = 0usize;
        while offset < bytes.len() {
            record_no += 1;
            let rest = &bytes[offset..];
            let (line_bytes, complete, consumed) = match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => (&rest[..nl], true, nl + 1),
                None => (rest, false, rest.len()),
            };
            let is_last = offset + consumed >= bytes.len();
            let parsed = std::str::from_utf8(line_bytes)
                .map_err(|_| "invalid utf-8".to_owned())
                .and_then(parse_record);
            match parsed {
                Ok(record) => {
                    let expected = replay.records.last().map(|r| r.seq + 1);
                    if !complete {
                        // A record without its newline is a torn
                        // append even if its payload happens to
                        // verify — the trailing newline is part of
                        // the durable format.
                        replay.torn_tail_dropped = true;
                    } else if expected.is_some_and(|e| record.seq != e) {
                        return Err(JournalError::Corrupt {
                            record: record_no,
                            reason: format!(
                                "sequence gap: expected {}, found {}",
                                expected.unwrap_or(1),
                                record.seq
                            ),
                        });
                    } else {
                        replay.records.push(record);
                        replay.clean_len = (offset + consumed) as u64;
                    }
                }
                Err(_) if is_last => {
                    replay.torn_tail_dropped = true;
                }
                Err(reason) => {
                    return Err(JournalError::Corrupt {
                        record: record_no,
                        reason,
                    });
                }
            }
            offset += consumed;
        }
        Ok(replay)
    }

    /// Renders one record line (with its trailing newline) into
    /// `line`, replacing what it held.
    fn render_record(seq: u64, delta: &CorpusDelta, line: &mut String) -> Result<(), JournalError> {
        use std::fmt::Write as _;
        let json = serde_json::to_string(delta)
            .map_err(|e| std::io::Error::other(format!("delta serialization failed: {e}")))?;
        let crc = crc32(json.as_bytes());
        line.clear();
        writeln!(line, "{seq} {crc:08x} {json}")
            .map_err(|e| std::io::Error::other(format!("record rendering failed: {e}")))?;
        Ok(())
    }

    /// Appends `deltas` as one *group commit*: every record gets its
    /// own contiguous sequence number and is written as soon as it is
    /// rendered, through one reused line buffer, and one fsync makes
    /// the batch durable. Returns the `(first, last)` sequence range,
    /// or `None` for an empty batch (which touches neither the file
    /// nor the sequence).
    ///
    /// All-or-nothing: if rendering or writing any record, or the
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
            let _ = self.file.set_len(clean_len); // lint:allow(discard): best-effort undo; the render, write or sync error wins
            let _ = self.file.sync_data(); // lint:allow(discard): best-effort undo; the render, write or sync error wins
            return Err(e);
        }
        self.next_seq += deltas.len() as u64;
        self.len += deltas.len();
        Ok(Some((first, self.next_seq - 1)))
    }

    /// Renders and writes each record in turn, numbered from `first`,
    /// then fsyncs them all, failing instead of syncing while injected
    /// faults are armed.
    fn write_durably(&mut self, first: u64, deltas: &[&CorpusDelta]) -> Result<(), JournalError> {
        let mut line = String::new();
        for (seq, delta) in (first..).zip(deltas) {
            Self::render_record(seq, delta, &mut line)?;
            self.file.write_all(line.as_bytes())?;
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

    /// Drops every record with `seq <= through_seq` — legal once a
    /// checkpoint covers that prefix — rewriting the file atomically
    /// (temp file + rename). Returns how many records were dropped.
    /// Sequence numbers are preserved, so replay-over-checkpoint
    /// still lines up.
    pub fn compact_through(&mut self, through_seq: u64) -> Result<usize, JournalError> {
        let replay = Self::replay_path(&self.path)?;
        let retained: Vec<&SequencedDelta> = replay
            .records
            .iter()
            .filter(|r| r.seq > through_seq)
            .collect();
        let dropped = replay.records.len() - retained.len();
        if dropped == 0 {
            return Ok(0);
        }
        Self::rewrite_refs(&self.path, &retained)?;
        // Reopen the handle onto the rewritten file.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = retained.len();
        Ok(dropped)
    }

    /// Number of records currently in the file.
    pub fn len(&self) -> usize {
        self.len
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

    /// Writes `records` to a sibling temp file, fsyncs it, renames it
    /// over `path` so the journal is never observable in a
    /// half-rewritten state, and fsyncs the directory.
    fn rewrite_refs(path: &Path, records: &[&SequencedDelta]) -> Result<(), JournalError> {
        let tmp = path.with_extension("journal.tmp");
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            let mut out = BufWriter::new(file);
            let mut line = String::new();
            for record in records {
                Self::render_record(record.seq, &record.delta, &mut line)?;
                out.write_all(line.as_bytes())?;
            }
            out.flush()?;
            out.get_ref().sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        // The rename is an entry in the directory, durable only once
        // the directory is synced. Until then a power loss can bring
        // back the pre-rename entry, and with it drop the records
        // appended, synced and acknowledged on the new file since.
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(())
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
    fn invalid_utf8_torn_tail_is_dropped_not_io_error() {
        let (path, _) = journal_with("utf8_tail", 2);

        // A crash can leave raw garbage (or a truncated multi-byte
        // UTF-8 sequence) at the tail; replay must confine the
        // damage to the torn record, not refuse the whole file.
        {
            use std::io::Write;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"3 deadbeef {\"added\xff\xfe\x00").unwrap();
        }
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 2);

        // Re-opening heals it and appends continue.
        let (mut journal, _) = DeltaJournal::open(&path).unwrap();
        assert_eq!(commit(&mut journal, 7), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_mid_file_is_corruption() {
        let (path, _) = journal_with("utf8_mid", 2);

        let mut bytes = std::fs::read(&path).unwrap();
        // Clobber a byte inside the first record.
        bytes[10] = 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 1, .. }),
            "{err:?}"
        );
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
        // one by one through one reused line buffer, so by the refused
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
        let bytes = std::fs::read(&path).unwrap();
        let batch_bytes = &bytes[durable.len()..];
        let longest_line = batch_bytes.split(|&b| b == b'\n').map(<[u8]>::len).max();
        // The long line plus four short ones of over 64 bytes each.
        assert!(batch_bytes.len() > longest_line.unwrap() + 4 * 64);
        assert_eq!(bytes, std::fs::read(&sequential_path).unwrap());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sequential_path).ok();
    }

    #[test]
    fn a_tail_torn_at_any_byte_heals_to_the_intact_prefix() {
        let (path, _) = journal_with("torn_every_byte", 3);
        let intact = std::fs::read(&path).unwrap();
        let newlines: Vec<usize> = (0..intact.len()).filter(|&i| intact[i] == b'\n').collect();
        let prefix = newlines[1] + 1;

        // A crash can cut the last record after any of its bytes but
        // the final newline. The last cut leaves a payload that
        // verifies; without its newline the record is still torn.
        for cut in prefix + 1..intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let replay = DeltaJournal::replay_path(&path).unwrap();
            assert!(replay.torn_tail_dropped, "cut at {cut}");
            let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, vec![1, 2], "cut at {cut}");
            assert_eq!(replay.records[1].delta, sample_delta(1));

            let (mut journal, _) = DeltaJournal::open(&path).unwrap();
            let healed = std::fs::read(&path).unwrap();
            assert_eq!(healed, &intact[..prefix], "cut at {cut}");
            assert_eq!(commit(&mut journal, 2), 3, "cut at {cut}");
            let replay = DeltaJournal::replay_path(&path).unwrap();
            assert!(!replay.torn_tail_dropped && replay.last_seq() == 3);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn healing_a_torn_tail_preserves_the_intact_prefix_bytes() {
        let (path, _) = journal_with("heal_bytes", 2);

        let intact = std::fs::read(&path).unwrap();
        let mut torn = intact.clone();
        torn.extend_from_slice(b"3 0badc0de {\"trunc");
        std::fs::write(&path, &torn).unwrap();

        let (_journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.clean_len, intact.len() as u64);
        // Healing truncated, it did not rewrite: byte-identical.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        std::fs::remove_file(&path).ok();
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
    fn mid_file_damage_is_corruption() {
        let (path, _) = journal_with("corrupt", 3);

        // Flip a byte inside the *second* record's JSON.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        lines[1] = lines[1].replace("doc 1", "doc X");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = DeltaJournal::replay_path(&path).unwrap_err();
        match err {
            JournalError::Corrupt { record, reason } => {
                assert_eq!(record, 2);
                assert!(reason.contains("crc mismatch"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let (path, _) = journal_with("gap", 3);

        // Delete the middle line: seqs 1,3 remain.
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[2])).unwrap();

        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 2, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_covered_prefix_and_keeps_sequences() {
        let (path, mut journal) = journal_with("compact", 6);

        // Compaction syncs nothing of the journal's own, so a fault
        // armed before it still fails the next commit.
        journal.inject_sync_failures(1);
        let dropped = journal.compact_through(4).unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(journal.len(), 2);
        assert!(journal.append_batch(&[&sample_delta(8)]).is_err());
        // Appends continue the global sequence.
        assert_eq!(commit(&mut journal, 9), 7);

        let replay = DeltaJournal::replay_path(&path).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);

        // Compacting an already-covered prefix is a no-op.
        assert_eq!(journal.compact_through(3).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_below_the_first_retained_record_is_idempotent() {
        let (path, mut journal) = journal_with("compact_below", 6);
        assert_eq!(journal.compact_through(4).unwrap(), 4);
        let bytes = std::fs::read(&path).unwrap();

        // `through_seq` below the first retained record (5): not an
        // error, not a rewrite — the file keeps its exact bytes.
        for covered in [0, 1, 4] {
            assert_eq!(journal.compact_through(covered).unwrap(), 0);
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.next_seq(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_beyond_the_last_record_does_not_invent_sequences() {
        let (path, mut journal) = journal_with("compact_beyond", 3);

        // Compacting through a sequence past the end drops every
        // record but must not fast-forward the stream: the next
        // append still continues where the journal left off.
        assert_eq!(journal.compact_through(100).unwrap(), 3);
        assert_eq!(journal.len(), 0);
        assert!(journal.is_empty());
        assert_eq!(journal.next_seq(), 4);
        assert_eq!(commit(&mut journal, 9), 4);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn double_compaction_at_the_same_seq_is_a_no_op() {
        let (path, mut journal) = journal_with("compact_twice", 5);
        assert_eq!(journal.compact_through(3).unwrap(), 3);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(journal.compact_through(3).unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.next_seq(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_journals_replay_empty() {
        let path = temp_path("empty");
        let (journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(journal.is_empty());
        assert!(replay.records.is_empty());
        assert_eq!(replay.last_seq(), 0);
        std::fs::remove_file(&path).ok();
    }
}
