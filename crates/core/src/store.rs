//! Crash-safe artifact store: checksummed envelopes, atomic writes,
//! quarantine, and the line journals.
//!
//! Every durable artifact the pipeline writes (trained models,
//! journals) goes through this module so that a
//! crash, preemption or partial write can never leave a corrupt file
//! that is later *trusted*. The discipline is the one long-lived Condor
//! daemons use: write to a temporary file, fsync, rename into place,
//! and verify a checksum on every load.
//!
//! # Envelope format
//!
//! An envelope is a one-line header followed by the raw payload bytes:
//!
//! ```text
//! rsg-artifact<TAB>v1<TAB><kind><TAB><payload-bytes><TAB><fnv64-hex>
//! <payload ...>
//! ```
//!
//! The checksum is FNV-1a (64-bit) over the payload, computed in-crate
//! to stay dependency-free. A load re-derives it and fails with a typed
//! [`StoreError`] — never a panic, never silently wrong data — when
//! anything disagrees.
//!
//! # Journal formats
//!
//! A [`LineJournal`] is append-only: a header naming the journal kind
//! and the configuration fingerprint it belongs to, then one
//! self-checksummed line per record (the trailing field is the FNV-1a
//! of everything before its tab). Two kinds exist, each a [`Codec`]:
//!
//! ```text
//! rsg-sweep-journal<TAB>v1<TAB><fingerprint-hex><TAB><thetas>
//! cell<TAB><idx><TAB><knee0><TAB>...<TAB><fnv64-hex-of-prefix>
//!
//! rsg-delta-journal<TAB>v1<TAB><fingerprint-hex>
//! delta<TAB><seq><TAB><platform-delta-tsv><TAB><fnv64-hex-of-prefix>
//! ```
//!
//! [`SweepJournal`] checkpoints one completed grid cell per line (see
//! [`observation::measure_checkpointed`](crate::observation::measure_checkpointed));
//! [`DeltaJournal`] carries one sequenced platform delta per line to
//! the push engine. A torn tail (the line being appended when the
//! process died) fails its line checksum; replay truncates the journal
//! back to the last good line. A header whose fingerprint does not
//! match the current configuration moves the whole journal aside
//! (`*.corrupt`) and starts fresh. Both kinds report through the same
//! `core.store.*` counters.

use rsg_obs::{Counter, TimingHistogram};
use rsg_platform::delta::{DeltaRecord, PlatformDelta};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The magic that opens every envelope header.
const ENVELOPE_MAGIC: &str = "rsg-artifact";
/// Envelope-format version written by this crate.
pub const ENVELOPE_VERSION: &str = "v1";
/// Journal-format version written by this crate (both kinds).
pub const JOURNAL_VERSION: &str = "v1";

/// Completed atomic artifact writes.
static OBS_WRITES: Counter = Counter::new("core.store.writes");
/// fsync calls issued by the store (artifact writes + journal appends).
static OBS_FSYNCS: Counter = Counter::new("core.store.fsyncs");
/// Envelope/journal checksum verifications that failed.
static OBS_CHECKSUM_FAILURES: Counter = Counter::new("core.store.checksum_failures");
/// Artifacts moved aside to `*.corrupt`.
static OBS_QUARANTINED: Counter = Counter::new("core.store.quarantined");
/// Journal replays that recovered at least one record.
static OBS_JOURNAL_REPLAYS: Counter = Counter::new("core.store.journal_replays");
/// Sweep cells restored from a journal instead of being recomputed.
static OBS_CELLS_RESUMED: Counter = Counter::new("core.store.cells_resumed");
/// Cells appended to a checkpoint journal.
static OBS_CELLS_CHECKPOINTED: Counter = Counter::new("core.store.cells_checkpointed");
/// Wall-clock of atomic artifact writes (write + fsync + rename).
static OBS_WRITE_TIME: TimingHistogram = TimingHistogram::new("core.store.write_ns");

/// Typed errors for every durable-artifact operation: loading, storing,
/// decoding and journal replay. Each variant carries enough context
/// (path, line, section) to act on without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An OS-level I/O failure (open, read, write, fsync, rename).
    Io {
        /// File the operation targeted.
        path: String,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error message.
        msg: String,
    },
    /// The file does not start with the expected magic string.
    BadMagic {
        /// File (empty when decoding from memory).
        path: String,
        /// What the first line actually was (truncated).
        found: String,
    },
    /// The artifact uses a format version this build cannot read.
    Version {
        /// File (empty when decoding from memory).
        path: String,
        /// The version string found.
        found: String,
    },
    /// The payload length differs from what its header claims: shorter
    /// (truncated) or longer (trailing bytes after the payload).
    Truncated {
        /// File (empty when decoding from memory).
        path: String,
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload checksum does not match its header.
    Checksum {
        /// File (empty when decoding from memory).
        path: String,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        found: u64,
    },
    /// The envelope holds a different artifact kind than expected.
    Kind {
        /// File (empty when decoding from memory).
        path: String,
        /// Kind the caller required.
        expected: String,
        /// Kind recorded in the envelope.
        found: String,
    },
    /// A payload section failed to parse.
    Parse {
        /// Artifact family (`"size-model"`, `"heur-model"`, …).
        artifact: &'static str,
        /// 1-based line number within the document.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A journal was written under a different configuration
    /// fingerprint than the current run's.
    Fingerprint {
        /// Journal file.
        path: String,
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
    /// A checkpointed sweep stopped early (injected cell budget); the
    /// journal holds everything completed so far and a restart resumes.
    Aborted {
        /// Cells durable in the journal.
        completed: usize,
        /// Cells the full sweep needs.
        total: usize,
    },
}

impl StoreError {
    /// Constructs a parse error (1-based `line` within the document).
    pub fn parse(artifact: &'static str, line: usize, msg: impl Into<String>) -> StoreError {
        StoreError::Parse {
            artifact,
            line,
            msg: msg.into(),
        }
    }

    /// Constructs an I/O error from a `std::io::Error`.
    pub fn io(path: &Path, op: &'static str, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            op,
            msg: e.to_string(),
        }
    }

    /// Shifts a [`StoreError::Parse`] line number by `offset` lines —
    /// used when a section decoder ran on a slice of a larger document.
    pub fn with_line_offset(self, offset: usize) -> StoreError {
        match self {
            StoreError::Parse {
                artifact,
                line,
                msg,
            } => StoreError::Parse {
                artifact,
                line: line + offset,
                msg,
            },
            other => other,
        }
    }

    /// Fills in the file path on variants decoded from memory.
    pub fn with_path(self, p: &Path) -> StoreError {
        let set = |path: String| {
            if path.is_empty() {
                p.display().to_string()
            } else {
                path
            }
        };
        match self {
            StoreError::BadMagic { path, found } => StoreError::BadMagic {
                path: set(path),
                found,
            },
            StoreError::Version { path, found } => StoreError::Version {
                path: set(path),
                found,
            },
            StoreError::Truncated {
                path,
                expected,
                found,
            } => StoreError::Truncated {
                path: set(path),
                expected,
                found,
            },
            StoreError::Checksum {
                path,
                expected,
                found,
            } => StoreError::Checksum {
                path: set(path),
                expected,
                found,
            },
            StoreError::Kind {
                path,
                expected,
                found,
            } => StoreError::Kind {
                path: set(path),
                expected,
                found,
            },
            other => other,
        }
    }

    /// Whether the artifact bytes themselves are damaged (as opposed to
    /// unreadable, unparseable or merely stale) — the cases a cache
    /// should quarantine and rebuild rather than surface.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::BadMagic { .. }
                | StoreError::Version { .. }
                | StoreError::Truncated { .. }
                | StoreError::Checksum { .. }
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |path: &str| {
            if path.is_empty() {
                String::new()
            } else {
                format!(" in {path}")
            }
        };
        match self {
            StoreError::Io { path, op, msg } => write!(f, "cannot {op} {path}: {msg}"),
            StoreError::BadMagic { path, found } => write!(
                f,
                "not an rsg artifact{}: starts '{}'",
                at(path),
                found.escape_debug()
            ),
            StoreError::Version { path, found } => {
                write!(f, "unsupported artifact version '{found}'{}", at(path))
            }
            StoreError::Truncated {
                path,
                expected,
                found,
            } if found > expected => write!(
                f,
                "trailing bytes after the payload{}: header promises {expected} payload \
                 bytes, found {} more",
                at(path),
                found - expected
            ),
            StoreError::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "truncated artifact{}: header promises {expected} payload bytes, found {found}",
                at(path)
            ),
            StoreError::Checksum {
                path,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch{}: header {expected:016x}, payload {found:016x}",
                at(path)
            ),
            StoreError::Kind {
                path,
                expected,
                found,
            } => write!(
                f,
                "wrong artifact kind{}: expected '{expected}', found '{found}'",
                at(path)
            ),
            StoreError::Parse {
                artifact,
                line,
                msg,
            } => write!(f, "{artifact} decode error at line {line}: {msg}"),
            StoreError::Fingerprint {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {path} was written under configuration {found:016x}, \
                 current is {expected:016x}",
            ),
            StoreError::Aborted { completed, total } => write!(
                f,
                "sweep aborted by cell budget: {completed}/{total} cells journaled"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<rsg_dag::io::DagIoError> for StoreError {
    fn from(e: rsg_dag::io::DagIoError) -> StoreError {
        StoreError::parse("dag", e.line, e.msg)
    }
}

/// FNV-1a 64-bit hash — the store's dependency-free checksum.
///
/// ```
/// // The canonical FNV-1a test vector.
/// assert_eq!(rsg_core::store::fnv1a(b""), 0xcbf29ce484222325);
/// assert_eq!(rsg_core::store::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Wraps a payload in a versioned, checksummed envelope.
pub fn wrap_envelope(kind: &str, payload: &str) -> String {
    format!(
        "{ENVELOPE_MAGIC}\t{ENVELOPE_VERSION}\t{kind}\t{}\t{:016x}\n{payload}",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
}

/// Validates an envelope and returns `(kind, payload)`. Errors carry no
/// path (decode-from-memory); callers with a file attach it via
/// [`StoreError::with_path`].
pub fn unwrap_envelope(text: &str) -> Result<(&str, &str), StoreError> {
    let nopath = String::new;
    let bad_magic = |found: &str| StoreError::BadMagic {
        path: nopath(),
        found: found.chars().take(40).collect(),
    };
    let (header, payload) = text.split_once('\n').ok_or_else(|| bad_magic(text))?;
    let fields: Vec<&str> = header.split('\t').collect();
    if fields.first() != Some(&ENVELOPE_MAGIC) {
        return Err(bad_magic(header));
    }
    if fields.get(1) != Some(&ENVELOPE_VERSION) {
        return Err(StoreError::Version {
            path: nopath(),
            found: fields.get(1).unwrap_or(&"").to_string(),
        });
    }
    let &[kind, len, sum] = &fields[2..] else {
        return Err(bad_magic(header));
    };
    let expected_len: usize = len.parse().map_err(|_| bad_magic(header))?;
    let expected_sum = u64::from_str_radix(sum, 16).map_err(|_| bad_magic(header))?;
    if payload.len() != expected_len {
        return Err(StoreError::Truncated {
            path: nopath(),
            expected: expected_len,
            found: payload.len(),
        });
    }
    let found_sum = fnv1a(payload.as_bytes());
    if found_sum != expected_sum {
        OBS_CHECKSUM_FAILURES.incr();
        return Err(StoreError::Checksum {
            path: nopath(),
            expected: expected_sum,
            found: found_sum,
        });
    }
    Ok((kind, payload))
}

/// The store formats an on-disk file can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// A checksummed envelope (read it with [`read_artifact`] or
    /// [`unwrap_envelope`]).
    Envelope,
    /// A sweep checkpoint journal ([`SweepJournal`]).
    SweepJournal,
    /// A platform delta journal ([`DeltaJournal`]).
    DeltaJournal,
}

/// Says which store format `text` is in, by the magic that opens its
/// first line; `None` for anything else. Nothing is verified here: the
/// envelope and journal readers do that.
pub fn sniff(text: &str) -> Option<StoreFormat> {
    match text.split_once('\t')?.0 {
        ENVELOPE_MAGIC => Some(StoreFormat::Envelope),
        SweepCodec::MAGIC => Some(StoreFormat::SweepJournal),
        DeltaCodec::MAGIC => Some(StoreFormat::DeltaJournal),
        _ => None,
    }
}

/// Atomically writes an envelope-wrapped artifact: the payload goes to
/// `<path>.tmp-<pid>` in the same directory, is fsynced, and is renamed
/// into place, so a crash at any instant leaves either the old file or
/// the new one — never a torn mixture.
pub fn write_atomic(path: &Path, kind: &str, payload: &str) -> Result<(), StoreError> {
    let t0 = std::time::Instant::now();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(path, "create parent of", &e))?;
    }
    let tmp = tmp_path(path);
    let body = wrap_envelope(kind, payload);
    let mut f = File::create(&tmp).map_err(|e| StoreError::io(&tmp, "create", &e))?;
    f.write_all(body.as_bytes())
        .map_err(|e| StoreError::io(&tmp, "write", &e))?;
    f.sync_all()
        .map_err(|e| StoreError::io(&tmp, "fsync", &e))?;
    OBS_FSYNCS.incr();
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        StoreError::io(path, "rename into", &e)
    })?;
    OBS_WRITES.incr();
    OBS_WRITE_TIME.record(t0.elapsed());
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

/// Reads an envelope-wrapped artifact, verifying magic, version, length
/// and checksum, and requiring the stored kind to be `expect_kind`.
pub fn read_artifact(path: &Path, expect_kind: &str) -> Result<String, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| StoreError::io(path, "read", &e))?;
    let (kind, payload) = unwrap_envelope(&text).map_err(|e| e.with_path(path))?;
    if kind != expect_kind {
        return Err(StoreError::Kind {
            path: path.display().to_string(),
            expected: expect_kind.to_string(),
            found: kind.to_string(),
        });
    }
    Ok(payload.to_string())
}

/// Moves a damaged artifact aside to `<path>.corrupt` (overwriting any
/// previous quarantine of the same file) so the slot can be rebuilt
/// while the evidence survives for inspection. Returns the quarantine
/// path, or `None` if the rename itself failed (e.g. the file vanished).
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    let dest = path.with_file_name(name);
    match std::fs::rename(path, &dest) {
        Ok(()) => {
            OBS_QUARANTINED.incr();
            Some(dest)
        }
        Err(_) => None,
    }
}

/// What a journal's [`open`](LineJournal::open_with) replay found on
/// disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecovery {
    /// No journal existed, or it held no intact record; a fresh one was
    /// written.
    Fresh,
    /// The journal matched and `records` intact records were recovered.
    Resumed {
        /// Records recovered from the journal.
        records: usize,
    },
    /// The journal belonged to a different configuration (or was
    /// damaged beyond its header) and was quarantined; a fresh one was
    /// created.
    Quarantined,
}

/// One journal kind's line format. [`LineJournal`] owns everything the
/// kinds share — the `<magic>\tv1\t<fingerprint>` header, the trailing
/// FNV-1a checksum on every record line, replay, torn-tail truncation,
/// quarantine and durable appends; the codec owns the rest.
pub trait Codec: Sized + PartialEq + fmt::Debug {
    /// One decoded record line.
    type Record;
    /// How an opened journal keeps its recovered records.
    type Recovered: FromIterator<Self::Record> + fmt::Debug;
    /// The header's first field, naming the journal kind.
    const MAGIC: &'static str;
    /// The header fields after the fingerprint, each with its leading
    /// tab.
    fn header_fields(&self) -> String;
    /// Reads the codec back from the header fields after the
    /// fingerprint.
    fn from_header_fields(fields: &[&str]) -> Result<Self, &'static str>;
    /// A record's line body: everything before the checksum.
    fn encode(&self, rec: &Self::Record) -> String;
    /// Decodes a checksum-verified line body; `None` marks it damaged.
    fn decode(&self, body: &str) -> Option<Self::Record>;
}

/// An append-only journal of self-checksummed record lines, keyed by a
/// configuration fingerprint in its header.
///
/// Thread-safe: appends serialize through an internal mutex so rayon
/// workers can checkpoint concurrently.
#[derive(Debug)]
pub struct LineJournal<C: Codec> {
    path: PathBuf,
    codec: C,
    recovered: C::Recovered,
    recovery: JournalRecovery,
    file: Mutex<File>,
}

impl<C: Codec> LineJournal<C> {
    /// Opens (or creates) the journal at `path` for a configuration
    /// that digests to `fingerprint` and writes `codec`'s header.
    ///
    /// Replay rules:
    /// * matching header → every line whose checksum and shape verify
    ///   is recovered, in file order; the first damaged line (a torn
    ///   append) truncates the journal back to the last good line;
    /// * no intact record → a fresh journal is written;
    /// * mismatched or damaged header → the whole file is quarantined
    ///   to `*.corrupt` and a fresh journal starts.
    pub fn open_with(path: &Path, fingerprint: u64, codec: C) -> Result<Self, StoreError> {
        let mut recovery = JournalRecovery::Fresh;
        let mut records = Vec::new();
        let mut valid_len = 0;
        match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io(path, "read", &e)),
            Ok(text) => match parse_header::<C>(&text) {
                Ok((fp, found, start)) if fp == fingerprint && found == codec => {
                    let (recs, end, _) = scan(&codec, &text, start);
                    if end < text.len() {
                        // Torn or damaged tail: truncated away below.
                        OBS_CHECKSUM_FAILURES.incr();
                    }
                    if !recs.is_empty() {
                        OBS_JOURNAL_REPLAYS.incr();
                        recovery = JournalRecovery::Resumed {
                            records: recs.len(),
                        };
                    }
                    records = recs;
                    valid_len = end;
                }
                _ => {
                    quarantine(path);
                    recovery = JournalRecovery::Quarantined;
                }
            },
        }

        let file = if let JournalRecovery::Resumed { .. } = recovery {
            let f = OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| StoreError::io(path, "open", &e))?;
            f.set_len(valid_len as u64)
                .map_err(|e| StoreError::io(path, "truncate", &e))?;
            f
        } else {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| StoreError::io(path, "create parent of", &e))?;
            }
            let header = format!(
                "{}\t{JOURNAL_VERSION}\t{fingerprint:016x}{}\n",
                C::MAGIC,
                codec.header_fields()
            );
            let mut f = File::create(path).map_err(|e| StoreError::io(path, "create", &e))?;
            f.write_all(header.as_bytes())
                .map_err(|e| StoreError::io(path, "write", &e))?;
            f.sync_all()
                .map_err(|e| StoreError::io(path, "fsync", &e))?;
            OBS_FSYNCS.incr();
            f
        };
        Ok(LineJournal {
            path: path.to_path_buf(),
            codec,
            recovered: records.into_iter().collect(),
            recovery,
            file: Mutex::new(file),
        })
    }

    /// What [`open_with`](Self::open_with) found on disk.
    pub fn recovery(&self) -> JournalRecovery {
        self.recovery
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends a batch of records as one write + one fsync
    /// under the journal lock. On any error the file is truncated back
    /// to its pre-append length (best-effort), so a failed append never
    /// leaves a partial batch behind.
    pub fn append_batch(&self, recs: &[C::Record]) -> Result<(), StoreError> {
        let mut buf = String::new();
        for rec in recs {
            let body = self.codec.encode(rec);
            let sum = fnv1a(body.as_bytes());
            let _ = writeln!(buf, "{body}\t{sum:016x}");
        }
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let rollback = f.metadata().map(|m| m.len()).ok();
        let res = f
            .write_all(buf.as_bytes())
            .map_err(|e| StoreError::io(&self.path, "append to", &e))
            .and_then(|()| {
                f.sync_data()
                    .map_err(|e| StoreError::io(&self.path, "fsync", &e))
            });
        match (&res, rollback) {
            (Ok(()), _) => OBS_FSYNCS.incr(),
            (Err(_), Some(len)) => {
                let _ = f.set_len(len);
            }
            (Err(_), None) => {}
        }
        res
    }

    /// Read-only decode of one journal file, from a single read: the
    /// header fingerprint, the codec its header describes, the records
    /// [`open_with`](Self::open_with) would recover, and the count of
    /// non-blank lines after them (the tail a resume truncates). Never
    /// truncates, quarantines or creates anything; the caller decides
    /// what a fingerprint means.
    pub fn inspect(path: &Path) -> Result<Inspected<C>, StoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| StoreError::io(path, "read", &e))?;
        let (fp, codec, start) = parse_header::<C>(&text).map_err(|e| e.with_path(path))?;
        let (records, _, damaged) = scan(&codec, &text, start);
        Ok((fp, codec, records, damaged))
    }
}

/// `(fingerprint, codec, records, damaged tail lines)` of one journal
/// file, as [`LineJournal::inspect`] reads it.
type Inspected<C> = (u64, C, Vec<<C as Codec>::Record>, usize);

/// Checks a journal header against `C`'s magic and the journal version;
/// returns the fingerprint, the codec the header describes, and the
/// byte offset of the first record line. Errors carry no path.
fn parse_header<C: Codec>(text: &str) -> Result<(u64, C, usize), StoreError> {
    // Parse errors name the kind without its `rsg-` prefix.
    let artifact = C::MAGIC.trim_start_matches("rsg-");
    let bad_magic = |found: &str| StoreError::BadMagic {
        path: String::new(),
        found: found.chars().take(40).collect(),
    };
    let (header, _) = text.split_once('\n').ok_or_else(|| bad_magic(text))?;
    let fields: Vec<&str> = header.split('\t').collect();
    if fields[0] != C::MAGIC {
        return Err(bad_magic(header));
    }
    if fields.get(1) != Some(&JOURNAL_VERSION) {
        return Err(StoreError::Version {
            path: String::new(),
            found: fields.get(1).unwrap_or(&"").to_string(),
        });
    }
    let fp = fields
        .get(2)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| StoreError::parse(artifact, 1, "bad fingerprint field"))?;
    let codec = C::from_header_fields(fields.get(3..).unwrap_or_default())
        .map_err(|msg| StoreError::parse(artifact, 1, msg))?;
    Ok((fp, codec, header.len() + 1))
}

/// The valid prefix of a journal body starting at byte `start`: every
/// record up to the first line that fails its checksum or decode (a
/// torn or damaged append), the byte offset where that prefix ends, and
/// how many non-blank lines lie beyond it.
fn scan<C: Codec>(codec: &C, text: &str, start: usize) -> (Vec<C::Record>, usize, usize) {
    let decode = |line: &str| {
        let (body, sum) = line.strip_suffix('\n')?.rsplit_once('\t')?;
        if u64::from_str_radix(sum, 16).ok()? != fnv1a(body.as_bytes()) {
            return None;
        }
        codec.decode(body)
    };
    let mut records = Vec::new();
    let mut end = start;
    let mut lines = text[start..].split_inclusive('\n');
    for line in lines.by_ref() {
        match decode(line) {
            Some(rec) => {
                records.push(rec);
                end += line.len();
            }
            None => {
                let first = usize::from(!line.trim().is_empty());
                let damaged = first + lines.filter(|l| !l.trim().is_empty()).count();
                return (records, end, damaged);
            }
        }
    }
    (records, end, 0)
}

/// The sweep checkpoint journal's line format: one `cell` line per
/// completed grid cell, carrying `thetas` knee values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCodec {
    /// Knee values per cell (one per threshold).
    pub thetas: usize,
}

impl Codec for SweepCodec {
    type Record = (usize, Vec<f64>);
    type Recovered = HashMap<usize, Vec<f64>>;
    const MAGIC: &'static str = "rsg-sweep-journal";

    fn header_fields(&self) -> String {
        format!("\t{}", self.thetas)
    }

    fn from_header_fields(fields: &[&str]) -> Result<SweepCodec, &'static str> {
        let thetas = fields.first().and_then(|s| s.parse().ok());
        thetas
            .map(|thetas| SweepCodec { thetas })
            .ok_or("bad theta-count field")
    }

    /// Knees serialize in shortest-round-trip form, so a replayed value
    /// is bit-identical to the measured one.
    fn encode(&self, (idx, knees): &(usize, Vec<f64>)) -> String {
        let mut body = format!("cell\t{idx}");
        for k in knees {
            let _ = write!(body, "\t{k}");
        }
        body
    }

    fn decode(&self, body: &str) -> Option<(usize, Vec<f64>)> {
        let mut parts = body.split('\t');
        if parts.next() != Some("cell") {
            return None;
        }
        let idx: usize = parts.next()?.parse().ok()?;
        let knees: Vec<f64> = parts.map(|s| s.parse().ok()).collect::<Option<_>>()?;
        (knees.len() == self.thetas).then_some((idx, knees))
    }
}

/// An append-only, self-checksummed record of completed sweep cells.
pub type SweepJournal = LineJournal<SweepCodec>;

impl LineJournal<SweepCodec> {
    /// Opens (or creates) the journal at `path` for a sweep whose
    /// configuration digests to `fingerprint` and measures
    /// `thetas_len` thresholds per cell (replay rules as in
    /// [`open_with`](Self::open_with)).
    pub fn open(
        path: &Path,
        fingerprint: u64,
        thetas_len: usize,
    ) -> Result<SweepJournal, StoreError> {
        let j = Self::open_with(path, fingerprint, SweepCodec { thetas: thetas_len })?;
        OBS_CELLS_RESUMED.add(j.recovered.len() as u64);
        Ok(j)
    }

    /// The cells recovered by replay: grid cell index → per-theta
    /// knees, exactly as they were measured before the interruption.
    pub fn completed(&self) -> &HashMap<usize, Vec<f64>> {
        &self.recovered
    }

    /// Durably appends one completed cell.
    pub fn append(&self, idx: usize, knees: &[f64]) -> Result<(), StoreError> {
        self.append_batch(&[(idx, knees.to_vec())])?;
        OBS_CELLS_CHECKPOINTED.incr();
        Ok(())
    }

    /// Read-only validation of a journal file (used by `rsg store
    /// verify`). Returns `(fingerprint, thetas per cell, valid cells,
    /// damaged tail lines)`.
    pub fn verify(path: &Path) -> Result<(u64, usize, usize, usize), StoreError> {
        let (fp, codec, cells, damaged) = Self::inspect(path)?;
        Ok((fp, codec.thetas, cells.len(), damaged))
    }
}

/// The delta journal's line format: one `delta` line per sequenced
/// [`DeltaRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaCodec;

impl Codec for DeltaCodec {
    type Record = DeltaRecord;
    type Recovered = Vec<DeltaRecord>;
    const MAGIC: &'static str = "rsg-delta-journal";

    fn header_fields(&self) -> String {
        String::new()
    }

    fn from_header_fields(_: &[&str]) -> Result<DeltaCodec, &'static str> {
        Ok(DeltaCodec)
    }

    fn encode(&self, rec: &DeltaRecord) -> String {
        format!("delta\t{}\t{}", rec.seq, rec.delta.to_tsv())
    }

    /// The sequence number must parse as `u64` — a hostile or
    /// bit-flipped seq field classifies the line as damaged.
    fn decode(&self, body: &str) -> Option<DeltaRecord> {
        let (seq, delta) = body.strip_prefix("delta\t")?.split_once('\t')?;
        Some(DeltaRecord {
            seq: seq.parse().ok()?,
            delta: PlatformDelta::from_tsv(delta).ok()?,
        })
    }
}

/// The durable transport between a platform-monitoring source and the
/// push engine: an append-only, self-checksummed journal of
/// [`DeltaRecord`]s.
pub type DeltaJournal = LineJournal<DeltaCodec>;

impl LineJournal<DeltaCodec> {
    /// Opens (or creates) the journal at `path` for an engine whose
    /// configuration digests to `fingerprint`. On
    /// [`JournalRecovery::Resumed`], [`recovered`](Self::recovered)
    /// holds every intact record in file order (duplicates and
    /// reorderings included — the sequencer owns those).
    pub fn open(path: &Path, fingerprint: u64) -> Result<DeltaJournal, StoreError> {
        Self::open_with(path, fingerprint, DeltaCodec)
    }

    /// The records recovered by replay, in file order.
    pub fn recovered(&self) -> &[DeltaRecord] {
        &self.recovered
    }

    /// Durably appends one record.
    pub fn append(&self, rec: &DeltaRecord) -> Result<(), StoreError> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Read-only validation of a delta journal (used by `rsg store
    /// verify`). Returns `(fingerprint, valid records, damaged tail
    /// lines)`.
    pub fn verify(path: &Path) -> Result<(u64, usize, usize), StoreError> {
        let (fp, records, damaged) = Self::read_records(path)?;
        Ok((fp, records.len(), damaged))
    }

    /// Read-only decode of a delta journal: the header fingerprint,
    /// every record a boot replay would recover, and the count of
    /// damaged lines after them — the surface an offline auditor folds
    /// from, taken from one read of the file.
    pub fn read_records(path: &Path) -> Result<(u64, Vec<DeltaRecord>, usize), StoreError> {
        let (fp, DeltaCodec, records, damaged) = Self::inspect(path)?;
        Ok((fp, records, damaged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rsg-store-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    #[test]
    fn envelope_round_trip() {
        let body = "hello\tworld\n1\t2\t3\n";
        let env = wrap_envelope("test-kind", body);
        let (kind, payload) = unwrap_envelope(&env).unwrap();
        assert_eq!(kind, "test-kind");
        assert_eq!(payload, body);
        assert_eq!(sniff(&env), Some(StoreFormat::Envelope));
        assert_eq!(sniff(body), None);
        // A bare model payload is no store format.
        assert_eq!(sniff("rsg-size-model\tv1\n"), None);
        let journal = format!("{}\tv1\t00\n", DeltaCodec::MAGIC);
        assert_eq!(sniff(&journal), Some(StoreFormat::DeltaJournal));
    }

    #[test]
    fn envelope_detects_damage() {
        let env = wrap_envelope("k", "payload payload payload");
        // Flip a payload byte.
        let mut bytes = env.clone().into_bytes();
        let n = bytes.len();
        bytes[n - 3] ^= 0x20;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            unwrap_envelope(&flipped),
            Err(StoreError::Checksum { .. })
        ));
        // Truncate the payload, or append to it: both are length
        // mismatches, each reported as what it is.
        let cut = unwrap_envelope(&env[..env.len() - 4]).unwrap_err();
        assert!(matches!(cut, StoreError::Truncated { .. }), "{cut:?}");
        assert!(cut.is_corruption());
        assert!(cut.to_string().starts_with("truncated artifact"), "{cut}");
        let long = unwrap_envelope(&format!("{env}\n--- run report ---\n")).unwrap_err();
        assert!(matches!(long, StoreError::Truncated { .. }), "{long:?}");
        assert!(long.is_corruption());
        assert_eq!(
            long.to_string(),
            "trailing bytes after the payload: header promises 23 payload bytes, found 20 more"
        );
        // Wrong magic and wrong version.
        assert!(matches!(
            unwrap_envelope("garbage\nx"),
            Err(StoreError::BadMagic { .. })
        ));
        // Control characters in the quoted start are escaped, so the
        // message stays one line with no raw tabs.
        let bare = unwrap_envelope("rsg-size-model\tv1\nx").unwrap_err();
        assert_eq!(
            bare.to_string(),
            "not an rsg artifact: starts 'rsg-size-model\\tv1'"
        );
        assert!(matches!(
            unwrap_envelope("rsg-artifact\tv9\tk\t1\t00\nx"),
            Err(StoreError::Version { .. })
        ));
        assert!(unwrap_envelope("").is_err());
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = tmpdir("atomic");
        let path = dir.join("artifact.tsv");
        write_atomic(&path, "heur-model", "some\tpayload\n").unwrap();
        assert_eq!(
            read_artifact(&path, "heur-model").unwrap(),
            "some\tpayload\n"
        );
        // Wrong kind is a typed error.
        assert!(matches!(
            read_artifact(&path, "size-model"),
            Err(StoreError::Kind { .. })
        ));
        // No temp droppings.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    /// The lifecycle cases every journal codec must pass.
    #[derive(Debug, Clone, Copy)]
    enum Case {
        TornTail,
        FingerprintMismatch,
        GarbageHeader,
        HeaderOnly,
        FailedAppend,
    }

    /// Runs `case` on a journal of `codec` in `dir` whose first two
    /// records are `sample(1)` and `sample(2)`.
    fn run_case<C: Codec + Clone>(case: Case, codec: &C, sample: fn(u64) -> C::Record, dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("{case:?}.journal"));
        let corrupt = dir.join(format!("{case:?}.journal.corrupt"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt);
        let open = |fp| LineJournal::<C>::open_with(&path, fp, codec.clone()).unwrap();
        let j = open(7);
        assert_eq!(j.recovery(), JournalRecovery::Fresh, "{case:?}");
        j.append_batch(&[sample(1), sample(2)]).unwrap();
        drop(j);
        let intact = std::fs::read(&path).unwrap();
        let resumed = |records| JournalRecovery::Resumed { records };

        match case {
            Case::TornTail => {
                // Half a record line, as a crash mid-append leaves it.
                let body = codec.encode(&sample(3));
                let mut f = OpenOptions::new().append(true).open(&path).unwrap();
                f.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
                drop(f);
                let (fp, _, records, damaged) = LineJournal::<C>::inspect(&path).unwrap();
                assert_eq!((fp, records.len(), damaged), (7, 2, 1), "{case:?}");
                let j = open(7);
                assert_eq!(j.recovery(), resumed(2), "{case:?}");
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    intact,
                    "{case:?}: not truncated"
                );
                j.append_batch(&[sample(3)]).unwrap();
                drop(j);
                assert_eq!(open(7).recovery(), resumed(3), "{case:?}");
            }
            Case::FingerprintMismatch => {
                assert_eq!(open(8).recovery(), JournalRecovery::Quarantined);
                assert_eq!(std::fs::read(&corrupt).unwrap(), intact, "{case:?}");
                let (fp, _, records, _) = LineJournal::<C>::inspect(&path).unwrap();
                assert_eq!((fp, records.len()), (8, 0), "{case:?}");
            }
            Case::GarbageHeader => {
                std::fs::write(&path, "total garbage\nmore garbage\n").unwrap();
                assert!(matches!(
                    LineJournal::<C>::inspect(&path),
                    Err(StoreError::BadMagic { .. })
                ));
                let j = open(7);
                assert_eq!(j.recovery(), JournalRecovery::Quarantined, "{case:?}");
                j.append_batch(&[sample(1)]).unwrap();
                drop(j);
                assert_eq!(open(7).recovery(), resumed(1), "{case:?}");
            }
            Case::HeaderOnly => {
                let header_len = intact.iter().position(|&b| b == b'\n').unwrap() + 1;
                std::fs::write(&path, &intact[..header_len]).unwrap();
                assert_eq!(open(7).recovery(), JournalRecovery::Fresh, "{case:?}");
                assert_eq!(std::fs::read(&path).unwrap(), &intact[..header_len]);
            }
            Case::FailedAppend => {
                let j = open(7);
                // A handle that refuses writes fails the append under
                // the lock, where a full disk would.
                *j.file.lock().unwrap() = File::open(&path).unwrap();
                let err = j.append_batch(&[sample(3)]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        StoreError::Io {
                            op: "append to",
                            ..
                        }
                    ),
                    "{case:?}: {err:?}"
                );
                drop(j);
                assert_eq!(std::fs::read(&path).unwrap(), intact, "{case:?}");
                assert_eq!(open(7).recovery(), resumed(2), "{case:?}");
            }
        }
    }

    #[test]
    fn journal_lifecycle_cases_hold_for_both_codecs() {
        let dir = tmpdir("journal-cases");
        for case in [
            Case::TornTail,
            Case::FingerprintMismatch,
            Case::GarbageHeader,
            Case::HeaderOnly,
            Case::FailedAppend,
        ] {
            run_case(
                case,
                &SweepCodec { thetas: 2 },
                |i| (i as usize, vec![i as f64 / 3.0, 2.5]),
                &dir.join("sweep"),
            );
            run_case(
                case,
                &DeltaCodec,
                |seq| DeltaRecord {
                    seq,
                    delta: PlatformDelta::PriceChange {
                        dollars_per_hour: 0.05 * seq as f64,
                    },
                },
                &dir.join("delta"),
            );
        }
    }

    #[test]
    fn committed_delta_journal_reopens_resumed_and_untouched() {
        // The audit fixture journal predates the shared line journal;
        // the format must still resume it byte-for-byte.
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/audit/clean/deltas.journal");
        let path = tmpdir("fixture").join("deltas.journal");
        std::fs::copy(&fixture, &path).unwrap();
        let (fp, records, damaged) = DeltaJournal::read_records(&path).unwrap();
        assert_eq!(damaged, 0);
        let j = DeltaJournal::open(&path, fp).unwrap();
        assert_eq!(
            j.recovery(),
            JournalRecovery::Resumed {
                records: records.len()
            }
        );
        assert_eq!(j.recovered(), &records[..]);
        drop(j);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&fixture).unwrap()
        );
    }

    #[test]
    fn delta_journal_rejects_hostile_lines() {
        let dir = tmpdir("hostile");
        let path = dir.join("deltas.journal");
        // Valid header, hostile bodies: bad checksum, bad seq, bad TSV.
        let header = format!("{}\tv1\t{:016x}\n", DeltaCodec::MAGIC, 0x1234);
        for tail in [
            "delta\t1\tprice\t0.1\t0000000000000000\n",
            "delta\t99999999999999999999999\tprice\t0.1\tdeadbeef\n",
            "delta\t-1\tprice\t0.1\tdeadbeef\n",
            "garbage\n",
        ] {
            std::fs::write(&path, format!("{header}{tail}")).unwrap();
            let (_, good, bad) = DeltaJournal::verify(&path).unwrap();
            assert_eq!((good, bad), (0, 1), "{tail:?}");
        }
    }

    #[test]
    fn journal_floats_replay_bit_identical() {
        let dir = tmpdir("journal-bits");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let knees = [
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1234.567891234e-7,
            2f64.powi(-40) + 1.0,
        ];
        {
            let j = SweepJournal::open(&path, 9, knees.len()).unwrap();
            j.append(0, &knees).unwrap();
        }
        let j = SweepJournal::open(&path, 9, knees.len()).unwrap();
        let back = &j.completed()[&0];
        for (a, b) in knees.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
        }
    }
}
