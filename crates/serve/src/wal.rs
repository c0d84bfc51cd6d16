//! Crash-safe durability for the online-update path: a delta write-ahead log.
//!
//! PR 5 made the engine ingest [`GraphDelta`]s online, but every accepted
//! batch lived only in process memory — a crash lost every cold-start user
//! encoded since the last full freeze. This module persists the update
//! stream: each accepted delta is appended to a checksummed log *before* it
//! is applied, and [`Recommender::recover`](crate::Recommender::recover)
//! replays the log over the frozen base artifact to reconstruct the exact
//! live state (bitwise on all four tables — the delta-parity guarantee makes
//! replay deterministic).
//!
//! ## Replay cost
//!
//! The encoder is a deterministic function of the *final* interaction graph,
//! so what a restarted engine serves depends only on where replay ends.
//! Replay therefore **applies many, publishes once**: every un-folded record
//! is bounds-checked and applied to its domain's graph in log order (O(delta)
//! each, O(log bytes) in total), then each domain the log touched is
//! re-encoded and its served tables patched **once**. Recovery costs the
//! base load plus that — not a re-encode per record. The guarantees are the
//! ones per-record replay gave: records are validated one by one against the
//! graph as it stood *at that record*, the recovered state is bitwise the
//! live one, and afterwards `epoch()` equals the number of records replayed.
//!
//! ## Log layout
//!
//! ```text
//! [ artifact envelope: kind "cdrib.wal" v2, payload = first_seq u64 ]
//! [ record ]*
//!
//! record := [ body len u32 LE | body | FNV-1a(len bytes ‖ body) u64 LE ]
//! body   := [ seq u64 LE | domain u8 | GraphDelta serde bytes ]
//! ```
//!
//! Format v2 is v1 with the richer [`GraphDelta`] payload (removal ops —
//! `remove_edges`, `erase_users`, `delist_items` — serde-appended after the
//! additive fields). Retraction records append, replay, recover and compact
//! exactly like growth records; in particular a crash mid-erasure recovers
//! to the **erased** state — the erase record is durable before the erasure
//! is applied, so replay re-erases and never resurrects a user. A v1 log
//! (whose delta bytes would misparse) is rejected at the header as version
//! skew and quarantined wholesale, the same typed fallback any foreign log
//! takes.
//!
//! The envelope reuses `cdrib_tensor::artifact` (magic, kind, version and
//! header checksum all apply), so version skew and header bit rot surface as
//! the same typed errors model artifacts produce. Each record carries its
//! own checksum **covering the length prefix**, so a corrupt length cannot
//! silently reframe the stream, and a monotone sequence number, so
//! duplicated or reordered records are rejected structurally.
//!
//! ## Failure philosophy
//!
//! Recovery is paranoid but *gracefully degrading*: any invalid byte —
//! a torn tail from a mid-write crash, a flipped bit, a sequence skew —
//! ends the valid prefix. Everything from the first invalid byte onward is
//! moved to a `.quarantine.{offset}` sidecar (preserved for diagnosis,
//! never silently deleted and never overwritten — each incident gets its
//! own sidecar, see `quarantine_path`), the log is truncated to the
//! longest valid prefix, and serving starts from that prefix. A log whose header is unreadable (or which
//! provably does not belong to the base artifact) is quarantined wholesale
//! and the engine starts from the bare base, reporting what was dropped. So
//! is a log holding a checksum-valid record the graph rejects
//! ([`WalError::ReplayRejected`]): base and log disagree about the graph
//! state, and no prefix of such a log can be trusted. No served table,
//! int8 mirror or tombstone set is written until every record has been
//! accepted and every re-encoded row has passed the finite check, so an
//! abandoned replay leaves nothing half-published behind.
//! Never a panic, never silently wrong state.
//!
//! ## Compaction
//!
//! [`Recommender::compact`](crate::Recommender::compact) folds the log into
//! a new base and replaces the log with a fresh one, each via atomic
//! temp-file-then-rename. The new base is a serve v2 container
//! (`cdrib_core::write_serve_v2`, the writer a fresh freeze uses too): the
//! live tables, seen graphs and int8 mirrors, the original frozen model
//! bytes, the fold point `applied_seq` and the tombstone sets. A compacted
//! base therefore serves straight off the map on the next boot. Sequence
//! numbers are global and never reset, and recovery skips records at or
//! below the base's `applied_seq`, so a crash between the two renames (new
//! base, old log) recovers correctly: the stale records are recognised as
//! already folded. Builds older than this container's `fold` section open
//! it as a plain serve base and would replay folded records again, so a
//! compacted base must not be handed to an older build.

use cdrib_data::DomainId;
use cdrib_graph::GraphDelta;
use cdrib_tensor::artifact::{self, ArtifactError};
use cdrib_tensor::TableStorage;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Artifact kind of the write-ahead log file header.
pub const WAL_KIND: &str = "cdrib.wal";
/// Format version of the log header and record framing. v2 carries the
/// retraction-capable [`GraphDelta`] payload; v1 logs (pre-retraction delta
/// encoding) fail the header check and fall back wholesale.
pub const WAL_VERSION: u32 = 2;

/// Bytes of record framing around the body: the `u32` length prefix plus the
/// trailing `u64` checksum.
const FRAME_BYTES: usize = 4 + 8;
/// Minimum body size: sequence number (8) + domain tag (1).
const MIN_BODY: usize = 9;

/// Errors raised by the write-ahead log: every way a log can fail to append,
/// scan or replay, typed so recovery can decide between truncate-and-
/// quarantine (tail damage) and wholesale fallback (unreadable/foreign log).
#[derive(Debug)]
pub enum WalError {
    /// Reading or writing the log file failed (after bounded retries for
    /// transient kinds — see `RetryPolicy`).
    Io(io::Error),
    /// The log file's artifact envelope is unreadable or from a different
    /// format version: bad magic, header bit rot, version skew, truncation
    /// inside the header. The whole log is untrustworthy.
    Header(ArtifactError),
    /// The file ends inside a record: the classic torn tail of a crash
    /// mid-append. (A corrupt length prefix claiming more bytes than remain
    /// is indistinguishable and reported the same way; either way the bytes
    /// are quarantined.)
    TornTail {
        /// File offset of the torn record.
        offset: u64,
        /// Bytes remaining in the file at that offset.
        have: usize,
        /// Bytes the record framing claimed.
        need: usize,
    },
    /// A record's FNV-1a checksum does not match its bytes (bit rot or a
    /// torn write that landed inside the record body).
    RecordChecksum {
        /// File offset of the damaged record.
        offset: u64,
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the actual bytes.
        actual: u64,
    },
    /// A record passed its checksum but its content is structurally invalid
    /// (impossible body length, unknown domain tag, undecodable delta).
    BadRecord {
        /// File offset of the record.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A record's sequence number is not the expected successor: a
    /// duplicated, reordered or dropped record.
    SequenceSkew {
        /// File offset of the record.
        offset: u64,
        /// Sequence number the scan expected next.
        expected: u64,
        /// Sequence number actually recorded.
        found: u64,
    },
    /// The log does not belong to the base artifact it was recovered
    /// against: its sequence range cannot connect to the base's fold point.
    BaseLogMismatch {
        /// Sequence number the base has already folded.
        applied_seq: u64,
        /// First sequence number of the log.
        first_seq: u64,
        /// Number of valid records the log holds.
        records: usize,
    },
    /// A structurally valid record was rejected by the apply path during
    /// replay — the log and base disagree about the graph state. Records are
    /// bounds-checked one by one in log order, so an out-of-range record is
    /// named exactly. The re-encode and publish run once for the whole
    /// replayed group; should *they* fail (a re-encoded row came back
    /// non-finite) no single record can be named, and `seq` is the last
    /// record applied, with `detail` saying so.
    ReplayRejected {
        /// Sequence number of the rejected record (of the last applied
        /// record, for a failure of the grouped publish).
        seq: u64,
        /// The apply error.
        detail: String,
    },
    /// A delta was durably appended but its in-memory apply then failed, so
    /// the log is ahead of the live state. The engine refuses further
    /// durable appends and compaction (recovery from the log is still safe:
    /// replay hits the same rejection and quarantines from there).
    Desynced,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o failed: {e}"),
            WalError::Header(e) => write!(f, "wal header unreadable: {e}"),
            WalError::TornTail { offset, have, need } => {
                write!(f, "torn record at offset {offset}: {have} bytes left of {need} framed")
            }
            WalError::RecordChecksum { offset, expected, actual } => write!(
                f,
                "record at offset {offset} corrupted: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
            WalError::BadRecord { offset, detail } => {
                write!(f, "record at offset {offset} invalid: {detail}")
            }
            WalError::SequenceSkew { offset, expected, found } => write!(
                f,
                "record at offset {offset} out of sequence: expected seq {expected}, found {found}"
            ),
            WalError::BaseLogMismatch { applied_seq, first_seq, records } => write!(
                f,
                "log does not connect to its base: base folded through seq {applied_seq}, log holds {records} record(s) from seq {first_seq}"
            ),
            WalError::ReplayRejected { seq, detail } => {
                write!(f, "replay of logged record seq {seq} was rejected: {detail}")
            }
            WalError::Desynced => write!(
                f,
                "log is ahead of the live state (an appended delta failed to apply); durable ingest wedged"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Header(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Bounded retry for transient I/O errors (`Interrupted`, `WouldBlock`):
/// how many consecutive transient failures to absorb, and the backoff base
/// (attempt *n* sleeps `n × backoff`). Persistent errors are returned
/// immediately; a retry budget of 0 disables retrying entirely.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryPolicy {
    /// Maximum consecutive transient failures absorbed per write.
    pub attempts: u32,
    /// Backoff base; attempt `n` (1-based) sleeps `n × backoff`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff: Duration::from_micros(100),
        }
    }
}

/// `write_all` with bounded retry: transient kinds (`Interrupted`,
/// `WouldBlock`) are retried up to `policy.attempts` consecutive times with
/// linear backoff; any progress resets the budget. Other errors — and an
/// exhausted budget — surface immediately. Allocation-free on the happy
/// path (the warm-append 0-alloc steady state in `tests/alloc_regression.rs`
/// runs through here).
pub(crate) fn write_all_retry<W: Write + ?Sized>(w: &mut W, mut buf: &[u8], policy: &RetryPolicy) -> io::Result<()> {
    let mut transient = 0u32;
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "writer accepted no bytes")),
            Ok(n) => {
                buf = &buf[n..];
                transient = 0;
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock) => {
                transient += 1;
                if transient > policy.attempts {
                    return Err(e);
                }
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * transient);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn domain_tag(domain: DomainId) -> u8 {
    match domain {
        DomainId::X => 0,
        DomainId::Y => 1,
    }
}

fn domain_from_tag(tag: u8) -> Option<DomainId> {
    match tag {
        0 => Some(DomainId::X),
        1 => Some(DomainId::Y),
        _ => None,
    }
}

/// One logged delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global monotone sequence number (never reset, not even by
    /// compaction).
    pub seq: u64,
    /// Domain the delta applies to.
    pub domain: DomainId,
    /// The logged delta.
    pub delta: GraphDelta,
}

/// A record located in the log file.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// The decoded record.
    pub record: WalRecord,
    /// Byte offset of the record's length prefix in the file.
    pub offset: u64,
    /// Total framed size in bytes (length prefix + body + checksum).
    pub len: usize,
}

/// Where and why a scan stopped trusting the file.
#[derive(Debug)]
pub struct TailFault {
    /// Offset of the first invalid byte; everything from here on is
    /// quarantined.
    pub offset: u64,
    /// The typed reason.
    pub error: WalError,
}

/// The result of scanning a log file: the valid record prefix, plus the
/// first fault (if any) that ended it.
#[derive(Debug)]
pub struct WalScan {
    /// First sequence number the log was created to hold, from the header.
    pub first_seq: u64,
    /// Bytes the header envelope occupies; records start here.
    pub header_len: usize,
    /// The longest valid record prefix.
    pub records: Vec<ScannedRecord>,
    /// The fault that ended the prefix, if the file did not end cleanly.
    pub tail: Option<TailFault>,
}

impl WalScan {
    /// The sequence number the next appended record must carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.first_seq + self.records.len() as u64
    }
}

fn parse_record(buf: &[u8], offset: u64, expected_seq: u64) -> Result<(WalRecord, usize), WalError> {
    if buf.len() < 4 {
        return Err(WalError::TornTail {
            offset,
            have: buf.len(),
            need: FRAME_BYTES + MIN_BODY,
        });
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes checked")) as usize;
    if body_len < MIN_BODY {
        return Err(WalError::BadRecord {
            offset,
            detail: format!("body length {body_len} below the {MIN_BODY}-byte minimum"),
        });
    }
    let total = FRAME_BYTES + body_len;
    if buf.len() < total {
        return Err(WalError::TornTail {
            offset,
            have: buf.len(),
            need: total,
        });
    }
    let framed = &buf[..4 + body_len];
    let expected_crc = u64::from_le_bytes(buf[4 + body_len..total].try_into().expect("8 bytes checked"));
    let actual = artifact::fnv1a(framed);
    if actual != expected_crc {
        return Err(WalError::RecordChecksum {
            offset,
            expected: expected_crc,
            actual,
        });
    }
    let body = &framed[4..];
    let seq = u64::from_le_bytes(body[..8].try_into().expect("MIN_BODY checked"));
    let domain = domain_from_tag(body[8]).ok_or_else(|| WalError::BadRecord {
        offset,
        detail: format!("unknown domain tag {}", body[8]),
    })?;
    let delta: GraphDelta = serde::from_bytes(&body[9..]).map_err(|e| WalError::BadRecord {
        offset,
        detail: format!("delta payload failed to decode: {e}"),
    })?;
    // Sequence check runs *after* the checksum: a record that fails it is
    // intact but wrong (duplicate, reorder, gap), which is its own verdict.
    if seq != expected_seq {
        return Err(WalError::SequenceSkew {
            offset,
            expected: expected_seq,
            found: seq,
        });
    }
    Ok((WalRecord { seq, domain, delta }, total))
}

/// Scans a log image: validates the header envelope, then walks records
/// until the first invalid byte. Header-level failures (the whole file is
/// untrustworthy) are `Err`; record-level damage ends the prefix and is
/// reported in [`WalScan::tail`].
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let (payload, header_len) = artifact::decode_prefix(bytes, WAL_KIND, WAL_VERSION).map_err(WalError::Header)?;
    let first_seq: u64 = serde::from_bytes(payload).map_err(|e| WalError::Header(ArtifactError::Decode(e)))?;
    let mut scan = WalScan {
        first_seq,
        header_len,
        records: Vec::new(),
        tail: None,
    };
    let mut offset = header_len;
    let mut expected = first_seq;
    while offset < bytes.len() {
        match parse_record(&bytes[offset..], offset as u64, expected) {
            Ok((record, len)) => {
                scan.records.push(ScannedRecord {
                    record,
                    offset: offset as u64,
                    len,
                });
                offset += len;
                expected += 1;
            }
            Err(error) => {
                scan.tail = Some(TailFault {
                    offset: offset as u64,
                    error,
                });
                break;
            }
        }
    }
    Ok(scan)
}

/// The sidecar path damaged bytes from file offset `offset` are preserved
/// under: the log path with `.quarantine.{offset}` appended. Distinct
/// incidents damage distinct offsets, and should the same offset ever be
/// damaged twice (across separate recoveries), a monotone `-{n}` counter
/// suffix de-collides — **no quarantine is ever overwritten**, so a
/// resume-after-damage recovery preserves every earlier incident's
/// evidence. Callers that need "were any bytes quarantined?" should consult
/// [`RecoveryReport::quarantine`] rather than probing a fixed path.
pub(crate) fn quarantine_path(log: &Path, offset: u64) -> PathBuf {
    let mut os = log.as_os_str().to_os_string();
    os.push(format!(".quarantine.{offset}"));
    let mut side = PathBuf::from(os);
    let mut n = 0u64;
    while side.exists() {
        n += 1;
        let mut os = log.as_os_str().to_os_string();
        os.push(format!(".quarantine.{offset}-{n}"));
        side = PathBuf::from(os);
    }
    side
}

/// Preserves `bytes[offset..]` in a fresh quarantine sidecar and truncates
/// the log file to the valid prefix.
pub(crate) fn quarantine_tail(log: &Path, bytes: &[u8], offset: usize) -> Result<PathBuf, WalError> {
    let side = quarantine_path(log, offset as u64);
    std::fs::write(&side, &bytes[offset..])?;
    let f = OpenOptions::new().write(true).open(log)?;
    f.set_len(offset as u64)?;
    f.sync_all()?;
    Ok(side)
}

/// Moves the entire log file into a fresh quarantine sidecar (for logs
/// whose header is unreadable or which provably do not belong to the base);
/// recorded as damage from offset 0.
pub(crate) fn quarantine_whole(log: &Path) -> Result<PathBuf, WalError> {
    let side = quarantine_path(log, 0);
    std::fs::rename(log, &side)?;
    Ok(side)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

fn sync_parent_dir(path: &Path) {
    // Renames are only durable once the directory entry is; best-effort —
    // a failure here degrades durability, not correctness.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Atomically replaces `path` with `bytes`: write to a `.tmp` sibling,
/// fsync, rename over the target, fsync the directory. At every crash point
/// the target holds either the old bytes or the new bytes, never a mix.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        write_all_retry(&mut f, bytes, &RetryPolicy::default())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// An open, appendable delta write-ahead log.
///
/// The record buffer is pre-sized and reused across appends, so warm
/// appends allocate nothing (`tests/alloc_regression.rs`). Appends reach the
/// OS on return (surviving a process crash); call [`DeltaWal::sync`] to
/// also survive an OS crash.
pub struct DeltaWal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    buf: Vec<u8>,
}

impl DeltaWal {
    /// Creates a fresh log at `path` (truncating any existing file) whose
    /// first record will carry `first_seq`.
    pub fn create(path: impl AsRef<Path>, first_seq: u64) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let header = artifact::encode(WAL_KIND, WAL_VERSION, &serde::to_bytes(&first_seq));
        let mut file = File::create(&path)?;
        write_all_retry(&mut file, &header, &RetryPolicy::default())?;
        file.sync_all()?;
        Ok(DeltaWal {
            file,
            path,
            next_seq: first_seq,
            buf: Vec::with_capacity(256),
        })
    }

    /// Creates a fresh log and atomically renames it over `path` — the
    /// compaction log swap. The returned handle stays valid across the
    /// rename (it follows the inode, not the name).
    pub(crate) fn create_replacing(path: &Path, first_seq: u64) -> Result<Self, WalError> {
        let tmp = tmp_path(path);
        let mut wal = DeltaWal::create(&tmp, first_seq)?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        wal.path = path.to_path_buf();
        Ok(wal)
    }

    /// Opens an existing (already validated and repaired) log for appending.
    /// `next_seq` is the sequence number the next record must carry — the
    /// scan's [`WalScan::next_seq`].
    pub(crate) fn open_end(path: &Path, next_seq: u64) -> Result<Self, WalError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(DeltaWal {
            file,
            path: path.to_path_buf(),
            next_seq,
            buf: Vec::with_capacity(256),
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one delta record and returns its sequence number. The record
    /// is framed and checksummed in the reused buffer, then written with
    /// bounded transient-error retry; a failed append leaves `next_seq`
    /// unchanged (the bytes that did land read as a torn tail on recovery
    /// and are quarantined).
    pub fn append(&mut self, domain: DomainId, delta: &GraphDelta) -> Result<u64, WalError> {
        let seq = self.next_seq;
        self.buf.clear();
        self.buf.extend_from_slice(&[0u8; 4]);
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf.push(domain_tag(domain));
        serde::Serialize::serialize(delta, &mut self.buf);
        let body_len = self.buf.len() - 4;
        if body_len > u32::MAX as usize {
            return Err(WalError::BadRecord {
                offset: 0,
                detail: format!("delta encodes to {body_len} bytes, beyond the u32 frame limit"),
            });
        }
        self.buf[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        let crc = artifact::fnv1a(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        write_all_retry(&mut self.file, &self.buf, &RetryPolicy::default())?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Flushes appended records to stable storage (`fdatasync`).
    pub fn sync(&self) -> Result<(), WalError> {
        Ok(self.file.sync_data()?)
    }
}

/// Per-domain tombstone sets the serving layer maintains across retraction
/// deltas: erased users (raw embedding rows zeroed, GDPR) and delisted
/// items (excluded from top-K, catalogue slot kept). Compaction persists
/// them because the embedded model bytes are the *original* freeze —
/// recovering a compacted base must re-zero erased rows before the encoder
/// rebinds and re-install the serving exclusions, or a compaction-then-
/// recovery would resurrect an erased user. Lists are sorted and
/// deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Lifecycle {
    /// Erased users of domain X.
    pub(crate) erased_x: Vec<u32>,
    /// Delisted items of domain X.
    pub(crate) delisted_x: Vec<u32>,
    /// Erased users of domain Y.
    pub(crate) erased_y: Vec<u32>,
    /// Delisted items of domain Y.
    pub(crate) delisted_y: Vec<u32>,
}

impl Lifecycle {
    /// Sorted user ids erased from a domain (tombstoned, zero-row).
    pub(crate) fn erased(&self, domain: DomainId) -> &[u32] {
        match domain {
            DomainId::X => &self.erased_x,
            DomainId::Y => &self.erased_y,
        }
    }

    /// Sorted catalogue slots delisted from a domain — excluded from every
    /// top-K even though their ids stay valid.
    pub(crate) fn delisted(&self, domain: DomainId) -> &[u32] {
        match domain {
            DomainId::X => &self.delisted_x,
            DomainId::Y => &self.delisted_y,
        }
    }

    /// The erased-user set of a domain, for sorted merging.
    pub(crate) fn erased_mut(&mut self, domain: DomainId) -> &mut Vec<u32> {
        match domain {
            DomainId::X => &mut self.erased_x,
            DomainId::Y => &mut self.erased_y,
        }
    }

    /// The delisted-item set of a domain, for sorted merging.
    pub(crate) fn delisted_mut(&mut self, domain: DomainId) -> &mut Vec<u32> {
        match domain {
            DomainId::X => &mut self.delisted_x,
            DomainId::Y => &mut self.delisted_y,
        }
    }
}

/// The durable state a recovered engine carries: the open log, the paths
/// compaction rewrites, the frozen model bytes compaction embeds (borrowed
/// from the base's map), and the fold/replay cursor.
pub(crate) struct DurableLog {
    pub(crate) wal: DeltaWal,
    pub(crate) base_path: PathBuf,
    pub(crate) log_path: PathBuf,
    pub(crate) model: TableStorage<u8>,
    /// Sequence number of the last record both logged *and* applied.
    pub(crate) applied_seq: u64,
    /// Set when an appended record failed to apply: the log is ahead of the
    /// live state, so durable ingest and compaction are refused.
    pub(crate) wedged: bool,
}

/// What [`Recommender::recover`](crate::Recommender::recover) did: how much
/// of the log survived, what was dropped, and where the damaged bytes went.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sequence number the base artifact had already folded (0 for a base
    /// no compaction wrote).
    pub base_applied_seq: u64,
    /// Records replayed over the base.
    pub replayed: usize,
    /// Records skipped as already folded into the base (a compaction-crash
    /// window leaves these behind legitimately).
    pub skipped: usize,
    /// Embedding rows (users and items, both domains) the replay re-encoded
    /// and patched. Replay re-encodes once per touched domain however many
    /// records it applied, so this never exceeds the engine's row count.
    pub rows_reencoded: usize,
    /// Sequence number of the last applied record (== `base_applied_seq`
    /// when nothing replayed).
    pub last_seq: u64,
    /// Bytes dropped from the log (quarantined, never deleted).
    pub dropped_bytes: u64,
    /// Where the dropped bytes were preserved, when any were. Each incident
    /// gets its own offset-suffixed sidecar (`quarantine_path`), so this
    /// path is fresh — earlier incidents' sidecars are never overwritten.
    pub quarantine: Option<PathBuf>,
    /// Why the tail of the log was dropped, when it was.
    pub tail: Option<WalError>,
    /// Why the *whole* log was abandoned (engine fell back to the bare
    /// base), when it was.
    pub fallback: Option<WalError>,
    /// Whether a fresh log file was created (first boot, or after a
    /// wholesale fallback).
    pub created_log: bool,
}

impl RecoveryReport {
    /// Whether recovery reconstructed everything the log held (nothing
    /// dropped, no fallback).
    pub fn clean(&self) -> bool {
        self.tail.is_none() && self.fallback.is_none() && self.dropped_bytes == 0
    }
}

/// What [`Recommender::compact`](crate::Recommender::compact) did.
#[derive(Debug)]
pub struct CompactionReport {
    /// The fold point: every record at or below this is in the new base.
    pub applied_seq: u64,
    /// Size of the serve container written over the base path.
    pub checkpoint_bytes: u64,
    /// Size of the log that was folded and replaced.
    pub log_bytes_folded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that fails with a scripted error kind a fixed number of
    /// times before each successful chunk of progress.
    struct FlakyWriter {
        inner: Vec<u8>,
        failures_left: u32,
        kind: io::ErrorKind,
        /// Bytes accepted per successful call (forces multi-call writes).
        chunk: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(io::Error::new(self.kind, "injected transient failure"));
            }
            let n = buf.len().min(self.chunk);
            self.inner.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn no_sleep(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            backoff: Duration::ZERO,
        }
    }

    #[test]
    fn retry_absorbs_transient_failures() {
        for kind in [io::ErrorKind::Interrupted, io::ErrorKind::WouldBlock] {
            let mut w = FlakyWriter {
                inner: Vec::new(),
                failures_left: 3,
                kind,
                chunk: 4,
            };
            write_all_retry(&mut w, b"hello wal", &no_sleep(3)).unwrap();
            assert_eq!(w.inner, b"hello wal");
        }
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut w = FlakyWriter {
            inner: Vec::new(),
            failures_left: u32::MAX,
            kind: io::ErrorKind::WouldBlock,
            chunk: usize::MAX,
        };
        let err = write_all_retry(&mut w, b"never lands", &no_sleep(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(w.inner.is_empty());
    }

    #[test]
    fn retry_budget_resets_on_progress() {
        // 2 failures before every 2-byte chunk; budget of 2 only survives
        // because progress resets it.
        struct Alternating {
            inner: Vec<u8>,
            fails_before_next: u32,
        }
        impl Write for Alternating {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.fails_before_next > 0 {
                    self.fails_before_next -= 1;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"));
                }
                self.fails_before_next = 2;
                let n = buf.len().min(2);
                self.inner.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Alternating {
            inner: Vec::new(),
            fails_before_next: 2,
        };
        write_all_retry(&mut w, b"12345678", &no_sleep(2)).unwrap();
        assert_eq!(w.inner, b"12345678");
    }

    #[test]
    fn persistent_errors_are_not_retried() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_retry(&mut Broken, b"x", &no_sleep(100)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn record_roundtrip_and_scan() {
        let dir = std::env::temp_dir().join("cdrib-wal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.wal");
        let mut wal = DeltaWal::create(&path, 7).unwrap();
        let d1 = GraphDelta {
            add_users: 1,
            add_items: 2,
            edges: vec![(0, 1), (3, 4)],
            remove_edges: vec![(5, 6)],
            erase_users: vec![2],
            delist_items: vec![0],
        };
        let d2 = GraphDelta::empty();
        assert_eq!(wal.append(DomainId::X, &d1).unwrap(), 7);
        assert_eq!(wal.append(DomainId::Y, &d2).unwrap(), 8);
        wal.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.first_seq, 7);
        assert!(scan.tail.is_none());
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].record.delta, d1);
        assert_eq!(scan.records[0].record.domain, DomainId::X);
        assert_eq!(scan.records[1].record.delta, d2);
        assert_eq!(scan.records[1].record.domain, DomainId::Y);
        assert_eq!(scan.next_seq(), 9);
        let last = scan.records.last().unwrap();
        assert_eq!(last.offset + last.len as u64, bytes.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_paths_never_collide() {
        let dir = std::env::temp_dir().join("cdrib-wal-quarantine-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("log.wal");
        let p1 = quarantine_path(&log, 64);
        assert!(p1.to_string_lossy().ends_with(".quarantine.64"));
        std::fs::write(&p1, b"first incident").unwrap();
        // Same offset damaged again: the counter suffix de-collides.
        let p2 = quarantine_path(&log, 64);
        assert_ne!(p1, p2);
        std::fs::write(&p2, b"second incident").unwrap();
        let p3 = quarantine_path(&log, 64);
        assert_ne!(p3, p1);
        assert_ne!(p3, p2);
        // A different offset gets its own fresh name, and earlier evidence
        // survives untouched.
        assert!(quarantine_path(&log, 128)
            .to_string_lossy()
            .ends_with(".quarantine.128"));
        assert_eq!(std::fs::read(&p1).unwrap(), b"first incident");
        assert_eq!(std::fs::read(&p2).unwrap(), b"second incident");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
