//! The durable checkpoint: one image of a whole service, so recovery
//! loads each shard's index and replays only its journal tail.
//!
//! A service keeps at most one image, `checkpoint` beside the
//! journals, in the [`obs_model::codec`] encoding:
//!
//! ```text
//! file    := "OBS-CKP" version(1 byte) crc(u32) payload
//! payload := varint(#shards) shard* varint(len) blend[len] router
//! shard   := varint(seq) varint(len) index[len]
//! router  := varint(#homes) (varint(post) varint(shard))*
//! ```
//!
//! * `crc` — the journal's CRC-32 of the payload, little-endian;
//! * `seq` — the journal sequence the shard's index covers;
//! * `index` — [`InvertedIndex::encode_into`], `blend` —
//!   [`StaticBlend::encode_into`] of the published blend;
//! * `router` — the post registry in ascending post order.
//!
//! Shard engines hold only the seed's blend and parameters, so a
//! shard's image is its index alone.
//!
//! **Writing** goes to a sibling temp file, which is fsynced, renamed
//! over the image and made durable by an fsync of the directory. A
//! crash at any point leaves the old image or the new one whole, and
//! either connects to the journals, because they are compacted only
//! after the new image is durable. A fresh service deletes the image
//! and syncs the directory before it truncates any journal, so no
//! power loss brings an old image back beside new journals.
//!
//! **Loading** refuses a file without this header
//! ([`CheckpointError::UnsupportedFormat`]), a payload that fails its
//! CRC ([`CheckpointError::Crc`]) or does not decode
//! ([`CheckpointError::Undecodable`]), and an image of another shard
//! count ([`CheckpointError::ShardCount`]). It never panics: every
//! ordinal, span and term id of an index image is checked against
//! the table it indexes, and every registry entry against the shard
//! count.

// Replay determinism (clippy.toml bans hash-ordered containers and
// the wall clock here): equal services must write equal images.
#![warn(clippy::disallowed_types)]
// Checked indexing only: every recovery reads an image through here.
#![warn(clippy::indexing_slicing)]

use crate::journal::crc32;
use crate::shard::ShardRouter;
use obs_model::codec::{DecodeError, Reader, Writer};
use obs_model::PostId;
use obs_search::{InvertedIndex, StaticBlend};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic and format version: the first bytes of every image.
const FILE_HEADER: [u8; 8] = *b"OBS-CKP\x01";

/// Why a checkpoint image could not be written or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with this format's header.
    UnsupportedFormat {
        /// The bytes found where the header belongs.
        found: Vec<u8>,
    },
    /// The payload fails its CRC: the image was damaged at rest.
    Crc {
        /// The CRC the header stores.
        stored: u32,
        /// The CRC of the payload as read.
        computed: u32,
    },
    /// The payload passes its CRC but does not decode.
    Undecodable(DecodeError),
    /// The image was written by a service of another shard count.
    ShardCount {
        /// Shards in the image.
        image: usize,
        /// Shards the recovering service asked for.
        service: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::UnsupportedFormat { found } => write!(
                f,
                "not a checkpoint of this format: expected header \"{}\", found \"{}\"",
                FILE_HEADER.escape_ascii(),
                found.escape_ascii()
            ),
            CheckpointError::Crc { stored, computed } => write!(
                f,
                "checkpoint crc mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            CheckpointError::Undecodable(e) => write!(f, "undecodable checkpoint: {e}"),
            CheckpointError::ShardCount { image, service } => write!(
                f,
                "checkpoint holds {image} shards, the service has {service}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Undecodable(e)
    }
}

/// A step of writing a checkpoint, at which a test can make it fail
/// ([`ShardedLiveService::inject_checkpoint_failure`](crate::ShardedLiveService::inject_checkpoint_failure)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointStep {
    /// Writing the image to the (created) temp file.
    Write,
    /// Fsyncing the temp file.
    Fsync,
    /// Renaming the temp file over the image.
    Rename,
    /// Fsyncing the directory, after the rename.
    DirFsync,
    /// Compacting one shard's journal, after the image is durable.
    Compact(usize),
}

/// Takes the armed fault if it is `step`, as the error that step
/// fails with.
pub(crate) fn fail_at(
    fault: &mut Option<CheckpointStep>,
    step: CheckpointStep,
) -> Result<(), std::io::Error> {
    match fault.take_if(|armed| *armed == step) {
        Some(_) => Err(std::io::Error::other(format!(
            "injected checkpoint failure at {step:?}"
        ))),
        None => Ok(()),
    }
}

/// Where a service under `dir` keeps its image.
pub fn image_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint")
}

/// Writes `file` to `tmp`, fsyncs it, renames it over `path` so the
/// image is never observable half-written, and syncs the directory,
/// failing at the step `fault` names instead of running it.
fn replace_durably(
    path: &Path,
    tmp: &Path,
    file: &[u8],
    fault: &mut Option<CheckpointStep>,
) -> Result<(), std::io::Error> {
    {
        let mut out = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(tmp)?;
        fail_at(fault, CheckpointStep::Write)?;
        out.write_all(file)?;
        fail_at(fault, CheckpointStep::Fsync)?;
        out.sync_data()?;
    }
    fail_at(fault, CheckpointStep::Rename)?;
    std::fs::rename(tmp, path)?;
    fail_at(fault, CheckpointStep::DirFsync)?;
    sync_dir(path)
}

/// Fsyncs the directory holding `path`. A rename or an unlink is an
/// entry in the directory, durable only once the directory is
/// synced: until then a power loss can bring back the old entry.
fn sync_dir(path: &Path) -> Result<(), std::io::Error> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// What an image holds: per shard the sequence its index covers and
/// that index, the published blend and the router.
#[derive(Debug)]
pub(crate) struct Image {
    pub(crate) shards: Vec<(u64, InvertedIndex)>,
    pub(crate) blend: StaticBlend,
    pub(crate) router: ShardRouter,
}

/// The whole file of an image of `shards` (each shard's sequence and
/// index), `blend` and `router`.
pub(crate) fn encode<'a>(
    shards: impl ExactSizeIterator<Item = (u64, &'a InvertedIndex)>,
    blend: &StaticBlend,
    router: &ShardRouter,
) -> Vec<u8> {
    let mut file = FILE_HEADER.to_vec();
    file.extend_from_slice(&[0; 4]);
    let payload_at = file.len();
    let mut section = Vec::new();
    let mut w = Writer::new(&mut file);
    w.varint(shards.len() as u64);
    for (seq, index) in shards {
        w.varint(seq);
        section.clear();
        index.encode_into(&mut section);
        w.bytes(&section);
    }
    section.clear();
    blend.encode_into(&mut section);
    w.bytes(&section);
    w.varint(router.homes.len() as u64);
    for (post, &shard) in &router.homes {
        w.varint(u64::from(post.raw()));
        w.varint(shard as u64);
    }
    let crc = crc32(file.get(payload_at..).unwrap_or_default());
    if let Some(slot) = file.get_mut(FILE_HEADER.len()..payload_at) {
        slot.copy_from_slice(&crc.to_le_bytes());
    }
    file
}

/// Decodes a whole image file for a service of `shards` shards.
pub(crate) fn decode(file: &[u8], shards: usize) -> Result<Image, CheckpointError> {
    let head = file.get(..FILE_HEADER.len()).unwrap_or(file);
    if head != FILE_HEADER {
        return Err(CheckpointError::UnsupportedFormat {
            found: head.to_vec(),
        });
    }
    let mut r = Reader::new(file.get(FILE_HEADER.len()..).unwrap_or_default());
    let stored = r.u32_le()?;
    let payload = file.get(FILE_HEADER.len() + 4..).unwrap_or_default();
    let computed = crc32(payload);
    if computed != stored {
        return Err(CheckpointError::Crc { stored, computed });
    }
    let mut r = Reader::new(payload);
    let image = r.varint_usize()?;
    if image != shards {
        return Err(CheckpointError::ShardCount {
            image,
            service: shards,
        });
    }
    let mut columns = Vec::with_capacity(shards);
    for _ in 0..shards {
        let seq = r.varint()?;
        columns.push((seq, InvertedIndex::decode(r.bytes()?)?));
    }
    let blend = StaticBlend::decode(r.bytes()?)?;
    let (count, capacity) = r.count()?;
    let mut homes = Vec::with_capacity(capacity);
    for _ in 0..count {
        let post = PostId::new(r.varint_u32()?);
        let shard = r.varint_usize()?;
        if shard >= shards {
            return Err(DecodeError::Inconsistent("a post homed past the shards").into());
        }
        if homes.last().is_some_and(|&(last, _)| last >= post) {
            return Err(DecodeError::Inconsistent("post homes out of order").into());
        }
        homes.push((post, shard));
    }
    r.finish()?;
    Ok(Image {
        shards: columns,
        blend,
        router: ShardRouter {
            shards,
            homes: homes.into_iter().collect(),
        },
    })
}

/// The image file under `dir`, or `None` if there is none.
pub(crate) fn read(dir: &Path) -> Result<Option<Vec<u8>>, CheckpointError> {
    match std::fs::read(image_path(dir)) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Makes `file` the image under `dir` ([`replace_durably`]).
pub(crate) fn write(
    dir: &Path,
    file: &[u8],
    fault: &mut Option<CheckpointStep>,
) -> Result<(), CheckpointError> {
    let path = image_path(dir);
    replace_durably(&path, &path.with_extension("tmp"), file, fault)?;
    Ok(())
}

/// Deletes the image under `dir`, if any, and syncs the directory,
/// so that no power loss brings the image back beside journals
/// written after it.
pub(crate) fn remove(dir: &Path) -> Result<(), CheckpointError> {
    let path = image_path(dir);
    match std::fs::remove_file(&path) {
        Ok(()) => sync_dir(&path)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    Ok(())
}
