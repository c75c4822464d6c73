//! Durable checkpoints: the one on-disk container of the recovery
//! subsystem (DESIGN.md §14).
//!
//! Everything that is persisted is a [`Checkpoint`]: a server shard's
//! weights, versions and [`crate::ServerOpt`] state (written by the server
//! loop), a worker's private state — its local replica and its
//! `UpdateStrategy` state (written by the trainer's worker loop) — and a
//! finished run's final weights (`cdsgd train --save`). Every file is a
//! manifest saying what wrote it, then typed sections, sealed by a
//! trailing FNV-1a checksum. The invariants the format is built around:
//!
//! * **Consistency**: a shard checkpoint captures every key at one
//!   uniform round `v`. Scheduled checkpoints capture each key at the
//!   exact moment its version passes `v` (versions advance one at a time,
//!   so no boundary is ever skipped), then write the file once all keys
//!   have crossed — transient key-version skew never leaks into a file.
//! * **Atomicity**: files are written to a temporary sibling, fsynced,
//!   then renamed into place ([`write_atomic`]). A crash mid-write leaves
//!   the previous checkpoint intact, never a torn file; the checksum
//!   rejects any corruption that slips through anyway.
//! * **Cross-shard agreement**: every shard writes at the same round
//!   numbers (`--checkpoint-every` counts aggregate rounds, which all
//!   shards complete in lockstep), and the manifest scan
//!   ([`latest_complete_round`]) only resumes from a round for which
//!   *all* shards have a valid file — torn or version-skewed sets are
//!   rejected wholesale.

use cdsgd_net::wire::{put_f32s, put_u32, put_u64, Cursor};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of every checkpoint file.
const MAGIC: &[u8; 4] = b"CDSC";

/// Format version tag. Bump on any layout change; [`Checkpoint::decode`]
/// rejects unknown versions instead of misreading them.
const FORMAT_VERSION: u32 = 2;

/// Section tags, written in this order. Tag 0 is never written.
const WEIGHTS: u32 = 1;
const OPT_STATE: u32 = 2;
const STRATEGY: u32 = 3;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes on disk are not a valid checkpoint (bad magic, unknown
    /// format version, checksum mismatch, truncation, or a manifest that
    /// contradicts where the file was found).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(e: cdsgd_net::NetError) -> CheckpointError {
    CheckpointError::Corrupt(e.to_string())
}

/// Read a count of items that each take at least `per` bytes. Each
/// section needs its tag and count, each entry its length, so no count
/// can exceed what the bytes left hold — a lying file is refused before
/// anything is allocated for it.
fn bounded(cur: &mut Cursor, per: usize) -> Result<usize, CheckpointError> {
    let n = cur.u32().map_err(corrupt)? as usize;
    if n > cur.remaining() / per {
        return Err(CheckpointError::Corrupt(format!(
            "count {n} exceeds the {} bytes left",
            cur.remaining()
        )));
    }
    Ok(n)
}

/// What wrote a checkpoint: the manifest's first field and the prefix of
/// the file's name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kind {
    /// One parameter-server shard at a uniform round.
    #[default]
    Shard,
    /// One worker's private state at an epoch boundary.
    Worker,
    /// A finished run's global weights.
    Final,
}

impl Kind {
    /// Indexed by the manifest's kind field.
    const ALL: [Kind; 3] = [Kind::Shard, Kind::Worker, Kind::Final];

    fn name(self) -> &'static str {
        match self {
            Kind::Shard => "shard",
            Kind::Worker => "worker",
            Kind::Final => "final",
        }
    }
}

/// One checkpoint file: a manifest (`kind` through `algo`) and the
/// sections it carries. Sections a writer has nothing for stay empty and
/// are not written.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// What wrote the file.
    pub kind: Kind,
    /// The writer's shard or worker index (0 for a final file).
    pub index: usize,
    /// Shards or workers in the deployment that wrote the file; resume
    /// must match it.
    pub count: usize,
    /// Aggregate rounds completed: the uniform key version of a shard,
    /// `epoch * iters_per_epoch` of a worker.
    pub round: u64,
    /// Worker files: epochs fully completed, where resume starts.
    pub epoch: usize,
    /// Final files: the algorithm that trained the weights.
    pub algo: String,
    /// Per-key weights: a shard's globals, a worker's local replica, a
    /// run's final weights.
    pub weights: Vec<Vec<f32>>,
    /// Per-key [`crate::ServerOpt::export_state`] blobs (empty entries
    /// for stateless optimizers). Either empty or one per weight key.
    pub opt_state: Vec<Vec<f32>>,
    /// `UpdateStrategy::export_state` slots. The layout is private to
    /// the strategy, so the slot count need not match the key count; the
    /// strategy's `import_state` checks it on the way back in.
    pub strategy: Vec<Vec<f32>>,
}

/// FNV-1a over `bytes` — the same hash the equivalence tests use, here
/// guarding checkpoint payloads against torn or bit-rotted files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical name of a checkpoint file in a checkpoint directory: `at`
/// is a worker's epoch and a shard's round.
pub fn file_name(kind: Kind, index: usize, at: u64) -> String {
    format!("{}{index:04}-{at:012}.ckpt", kind.name())
}

/// Inverse of [`file_name`].
fn parse_file_name(name: &str) -> Option<(Kind, usize, u64)> {
    let rest = name.strip_suffix(".ckpt")?;
    Kind::ALL.into_iter().find_map(|kind| {
        let (index, at) = rest.strip_prefix(kind.name())?.split_once('-')?;
        Some((kind, index.parse().ok()?, at.parse().ok()?))
    })
}

impl Checkpoint {
    /// The file-name coordinate: a worker's epoch, otherwise the round.
    fn at(&self) -> u64 {
        match self.kind {
            Kind::Worker => self.epoch as u64,
            Kind::Shard | Kind::Final => self.round,
        }
    }

    /// Serialize to the versioned binary layout (DESIGN.md §14): magic,
    /// format version, the manifest, the non-empty sections as tagged
    /// lists of u32-length-prefixed f32 runs, and a trailing FNV-1a
    /// checksum over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.opt_state.is_empty() || self.opt_state.len() == self.weights.len(),
            "one optimizer state blob per key"
        );
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, FORMAT_VERSION);
        put_u32(&mut buf, self.kind as u32);
        put_u32(&mut buf, self.index as u32);
        put_u32(&mut buf, self.count as u32);
        put_u64(&mut buf, self.round);
        put_u64(&mut buf, self.epoch as u64);
        put_u32(&mut buf, self.algo.len() as u32);
        buf.extend_from_slice(self.algo.as_bytes());
        let sections = [
            (WEIGHTS, &self.weights),
            (OPT_STATE, &self.opt_state),
            (STRATEGY, &self.strategy),
        ];
        let present = sections.iter().filter(|(_, list)| !list.is_empty());
        put_u32(&mut buf, present.clone().count() as u32);
        for (tag, list) in present {
            put_u32(&mut buf, *tag);
            put_u32(&mut buf, list.len() as u32);
            for v in list.iter() {
                put_u32(&mut buf, v.len() as u32);
                put_f32s(&mut buf, v);
            }
        }
        let sum = fnv1a64(&buf);
        put_u64(&mut buf, sum);
        buf
    }

    /// Decode and validate a checkpoint file. Every way the bytes can be
    /// wrong — another magic (an older format included), an unknown
    /// version, a checksum mismatch, truncation, trailing bytes, an
    /// unknown or repeated section — is a [`CheckpointError::Corrupt`].
    /// Counts read from the file are bounded by the bytes left, so a
    /// sealed but lying header cannot make the decoder over-allocate.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(CheckpointError::Corrupt(format!(
                "{} bytes is too short for a checkpoint",
                bytes.len()
            )));
        }
        if &bytes[..4] != MAGIC {
            return Err(CheckpointError::Corrupt(format!(
                "found magic `{}`, not a `{}` checkpoint (version {FORMAT_VERSION})",
                String::from_utf8_lossy(&bytes[..4]),
                String::from_utf8_lossy(MAGIC)
            )));
        }
        let (sealed, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("split off 8 bytes"));
        let actual = fnv1a64(sealed);
        if stored != actual {
            return Err(CheckpointError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        let mut cur = Cursor::new(&sealed[4..]);
        let version = cur.u32().map_err(corrupt)?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unknown format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let ckpt = Self::decode_body(&mut cur)?;
        if cur.remaining() != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after checkpoint body",
                cur.remaining()
            )));
        }
        Ok(ckpt)
    }

    fn decode_body(cur: &mut Cursor) -> Result<Self, CheckpointError> {
        let kind = cur.u32().map_err(corrupt)?;
        let kind = *Kind::ALL
            .get(kind as usize)
            .ok_or_else(|| CheckpointError::Corrupt(format!("unknown kind {kind}")))?;
        let mut ckpt = Checkpoint {
            kind,
            index: cur.u32().map_err(corrupt)? as usize,
            count: cur.u32().map_err(corrupt)? as usize,
            round: cur.u64().map_err(corrupt)?,
            epoch: cur.u64().map_err(corrupt)? as usize,
            ..Default::default()
        };
        let algo_len = cur.u32().map_err(corrupt)? as usize;
        ckpt.algo = String::from_utf8(cur.take(algo_len).map_err(corrupt)?.to_vec())
            .map_err(|_| CheckpointError::Corrupt("algorithm name is not UTF-8".into()))?;
        let mut last = 0;
        for _ in 0..bounded(cur, 8)? {
            let tag = cur.u32().map_err(corrupt)?;
            let list = match tag {
                WEIGHTS => &mut ckpt.weights,
                OPT_STATE => &mut ckpt.opt_state,
                STRATEGY => &mut ckpt.strategy,
                _ => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown section tag {tag}"
                    )))
                }
            };
            if tag <= last {
                return Err(CheckpointError::Corrupt(format!(
                    "section {tag} out of order after section {last}"
                )));
            }
            last = tag;
            let n = bounded(cur, 4)?;
            list.reserve_exact(n);
            for _ in 0..n {
                let len = cur.u32().map_err(corrupt)? as usize;
                list.push(cur.f32s(len).map_err(corrupt)?);
            }
        }
        if !ckpt.opt_state.is_empty() && ckpt.opt_state.len() != ckpt.weights.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} optimizer state blobs for {} keys",
                ckpt.opt_state.len(),
                ckpt.weights.len()
            )));
        }
        Ok(ckpt)
    }

    /// Read and decode the checkpoint file at `path`.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Write this checkpoint into `dir` under its [`file_name`], atomically
    /// (see [`write_atomic`]), creating `dir` if needed. Returns the final
    /// path.
    pub fn save_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file_name(self.kind, self.index, self.at()));
        write_atomic(&path, &self.encode())?;
        Ok(path)
    }
}

/// Write `bytes` to `path` durably: a temporary sibling is written and
/// fsynced, then renamed over `path`, so a crash at any point leaves
/// either the old file or the new one — never a truncated hybrid. The
/// parent directory must exist.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let tmp_path = dir.join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let mut f = std::fs::File::create(&tmp_path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp_path, path) {
        std::fs::remove_file(&tmp_path).ok();
        return Err(e);
    }
    // Make the rename itself durable. Directory fsync is best-effort:
    // some platforms refuse to open directories.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Load the `kind` checkpoint of writer `index` of `count` at `at` (see
/// [`file_name`]) from `dir`. The manifest must agree with the file's
/// name and the caller's deployment shape; otherwise the file was moved,
/// renamed or written by another run shape, and is rejected.
pub fn load(
    dir: &Path,
    kind: Kind,
    index: usize,
    count: usize,
    at: u64,
) -> Result<Checkpoint, CheckpointError> {
    let path = dir.join(file_name(kind, index, at));
    let ckpt = Checkpoint::read(&path)?;
    if (ckpt.kind, ckpt.index, ckpt.count, ckpt.at()) != (kind, index, count, at) {
        return Err(CheckpointError::Corrupt(format!(
            "{} holds {} {} of {} at {}, expected {} {index} of {count} at {at}",
            path.display(),
            ckpt.kind.name(),
            ckpt.index,
            ckpt.count,
            ckpt.at(),
            kind.name()
        )));
    }
    Ok(ckpt)
}

/// Scan `dir` for the latest round at which *every* shard of
/// `num_shards` has a checkpoint file — the cross-shard manifest. A
/// round missing any shard (a torn set: some shards crashed before
/// writing) is skipped entirely, so resume never mixes versions.
///
/// Returns `Ok(None)` when the directory does not exist or holds no
/// complete set.
pub fn latest_complete_round(
    dir: &Path,
    num_shards: usize,
) -> Result<Option<u64>, CheckpointError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    // round -> which shards are present
    let mut rounds: std::collections::BTreeMap<u64, Vec<bool>> = Default::default();
    for entry in entries {
        let name = entry?.file_name();
        let Some((Kind::Shard, shard, round)) = name.to_str().and_then(parse_file_name) else {
            continue;
        };
        if shard < num_shards {
            rounds
                .entry(round)
                .or_insert_with(|| vec![false; num_shards])[shard] = true;
        }
    }
    Ok(rounds
        .into_iter()
        .rev()
        .find(|(_, shards)| shards.iter().all(|&p| p))
        .map(|(round, _)| round))
}

/// The latest complete checkpoint for `shard`, or `Ok(None)` when no
/// complete set exists yet.
pub fn load_latest(
    dir: &Path,
    shard: usize,
    num_shards: usize,
) -> Result<Option<Checkpoint>, CheckpointError> {
    match latest_complete_round(dir, num_shards)? {
        Some(round) => load(dir, Kind::Shard, shard, num_shards, round).map(Some),
        None => Ok(None),
    }
}

/// When and where a server shard writes durable snapshots.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory holding the checkpoint set (shared by all shards).
    pub dir: PathBuf,
    /// Write a checkpoint every this many aggregate rounds. `None`
    /// disables scheduled checkpoints — snapshots then happen only on
    /// demand (the `Checkpoint` wire message).
    pub every: Option<u64>,
    /// This server's shard index.
    pub shard: usize,
    /// Total shards in the deployment (for the cross-shard manifest).
    pub num_shards: usize,
}

impl CheckpointPolicy {
    /// Checkpoint policy for one shard of `num_shards`, writing into
    /// `dir` every `every` rounds (`None` = on-demand only).
    ///
    /// # Panics
    /// Panics if `every == Some(0)` or `shard >= num_shards`.
    pub fn new(
        dir: impl Into<PathBuf>,
        every: Option<u64>,
        shard: usize,
        num_shards: usize,
    ) -> Self {
        assert!(every != Some(0), "checkpoint interval must be at least 1");
        assert!(shard < num_shards, "shard index out of range");
        Self {
            dir: dir.into(),
            every,
            shard,
            num_shards,
        }
    }

    /// Write this shard's snapshot at `round` from per-key (weights,
    /// optimizer state) pairs. A failed write warns and returns `false`:
    /// losing a checkpoint must not kill training.
    pub(crate) fn write(
        &self,
        round: u64,
        keys: impl Iterator<Item = (Vec<f32>, Vec<f32>)>,
    ) -> bool {
        let (weights, opt_state) = keys.unzip();
        let ckpt = Checkpoint {
            kind: Kind::Shard,
            index: self.shard,
            count: self.num_shards,
            round,
            weights,
            opt_state,
            ..Default::default()
        };
        match ckpt.save_atomic(&self.dir) {
            Ok(_) => true,
            Err(e) => {
                eprintln!("checkpoint: failed to write round {round}: {e}");
                false
            }
        }
    }
}

/// Everything a starting server needs to participate in recovery:
/// optionally a shard checkpoint to restore, optionally a policy for
/// writing new checkpoints. The default (`None`/`None`) is a plain,
/// non-durable server — the bit-identical historical behaviour.
#[derive(Default)]
pub struct Durability {
    /// Resume from this shard checkpoint (its round, weights and
    /// optimizer state) instead of the initial weights.
    pub restore: Option<Checkpoint>,
    /// Write checkpoints according to this policy.
    pub checkpoint: Option<CheckpointPolicy>,
}

/// Scheduled-checkpoint state machine, driven by the server loop. Each
/// key is captured (an `Arc` clone of its weights plus the optimizer
/// export) at the exact moment its version reaches the next boundary;
/// once every key has crossed, the file is written and the tracker arms
/// the next boundary. Disabled trackers are inert no-ops on the hot
/// path (one `Option` check per completed round).
pub(crate) struct CheckpointTracker {
    policy: Option<CheckpointPolicy>,
    /// Next boundary round, when scheduled checkpoints are armed.
    next: Option<u64>,
    captured: Vec<Option<CapturedKey>>,
}

/// One key's boundary capture: an `Arc` clone of its weights plus the
/// optimizer's exported state for that key.
type CapturedKey = (std::sync::Arc<[f32]>, Vec<f32>);

impl CheckpointTracker {
    /// Tracker over `num_keys` keys starting from `start_round` (0 for a
    /// fresh server, the restored round after a resume).
    pub(crate) fn new(policy: Option<CheckpointPolicy>, num_keys: usize, start_round: u64) -> Self {
        let next = policy.as_ref().and_then(|p| p.every).map(|every| {
            // Smallest multiple of `every` strictly after `start_round`.
            (start_round / every + 1) * every
        });
        Self {
            policy,
            next,
            captured: vec![None; num_keys],
        }
    }

    /// Observe a key crossing into `version` (called once per completed
    /// aggregate round, immediately after the version increment).
    pub(crate) fn observe(
        &mut self,
        key: crate::Key,
        version: u64,
        weights: &std::sync::Arc<[f32]>,
        opt: &dyn crate::ServerOpt,
    ) {
        let Some(next) = self.next else { return };
        if version < next {
            return;
        }
        let policy = self.policy.as_ref().expect("armed tracker has a policy");
        let every = policy.every.expect("armed tracker has an interval");
        if version > next {
            // Unreachable by construction (key-version skew is bounded
            // by one round, and boundaries are observed one version at a
            // time), but never write an inconsistent file: abandon this
            // boundary and re-arm past the runaway key.
            eprintln!(
                "checkpoint: key {key} skipped boundary {next} (at {version}); \
                 abandoning this checkpoint"
            );
            self.captured.iter_mut().for_each(|c| *c = None);
            self.next = Some((version / every + 1) * every);
            return;
        }
        self.captured[key] = Some((std::sync::Arc::clone(weights), opt.export_state()));
        if self.captured.iter().all(|c| c.is_some()) {
            let keys = self.captured.iter_mut().map(|c| {
                let (w, o) = c.take().expect("all keys captured");
                (w.to_vec(), o)
            });
            // A failed write already warned; the next boundary retries.
            policy.write(next, keys);
            self.next = Some(next + every);
        }
    }

    /// The policy's directory-and-shard identity, for on-demand
    /// snapshots. `None` when checkpointing is disabled.
    pub(crate) fn policy(&self) -> Option<&CheckpointPolicy> {
        self.policy.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cdsgd-recover-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn shard(index: usize, count: usize, round: u64) -> Checkpoint {
        Checkpoint {
            kind: Kind::Shard,
            index,
            count,
            round,
            weights: vec![vec![1.0, -2.5, 3.25], vec![0.0]],
            opt_state: vec![vec![0.5, 0.5, -0.5], vec![]],
            ..Default::default()
        }
    }

    fn worker(index: usize, epoch: usize) -> Checkpoint {
        Checkpoint {
            kind: Kind::Worker,
            index,
            count: 4,
            round: (epoch as u64) * 6,
            epoch,
            weights: vec![vec![1.0, -2.5], vec![3.25]],
            // A different slot count than the key count: the strategy
            // layout is opaque to the container.
            strategy: vec![vec![0.125], vec![], vec![-7.0]],
            ..Default::default()
        }
    }

    fn assert_corrupt(r: Result<Checkpoint, CheckpointError>, needle: &str) {
        match r {
            Err(CheckpointError::Corrupt(why)) => {
                assert!(why.contains(needle), "{why:?} does not name {needle:?}")
            }
            other => panic!("expected Corrupt naming {needle:?}, got {other:?}"),
        }
    }

    /// Seal `body` (everything after the version) the way `encode` does.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, FORMAT_VERSION);
        buf.extend_from_slice(body);
        let sum = fnv1a64(&buf);
        put_u64(&mut buf, sum);
        buf
    }

    #[test]
    fn every_kind_round_trips() {
        let fin = Checkpoint {
            kind: Kind::Final,
            count: 1,
            round: 60,
            algo: "CD-SGD(k=2)".into(),
            weights: vec![vec![0.25; 4]],
            ..Default::default()
        };
        for c in [shard(1, 4, 24), worker(2, 5), fin, Checkpoint::default()] {
            assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // The container, byte for byte: magic, version; the manifest —
        // kind, index, count, round, epoch, algo (u32 length + UTF-8);
        // the section count; per section its tag, entry count and
        // u32-length-prefixed f32 runs; then FNV-1a of all of the above.
        // Every section tag, an empty optimizer-state entry, and more
        // strategy slots than keys.
        let c = Checkpoint {
            kind: Kind::Worker,
            index: 1,
            count: 2,
            round: 18,
            epoch: 3,
            algo: "EF".into(),
            weights: vec![vec![1.0], vec![]],
            opt_state: vec![vec![], vec![2.0]],
            strategy: vec![vec![], vec![-0.5], vec![0.0]],
        };
        assert_eq!(
            hex(&c.encode()),
            "4344534302000000\
             010000000100000002000000\
             1200000000000000 0300000000000000 020000004546\
             03000000\
             01000000 02000000 010000000000803f 00000000\
             02000000 02000000 00000000 0100000000000040\
             03000000 03000000 00000000 01000000000000bf 0100000000000000\
             bce60f8ba14d397e"
                .replace(' ', "")
        );
    }

    #[test]
    fn older_formats_are_rejected_by_name() {
        // The pinned version-1 files: a CDCK shard, a CDWK worker and the
        // JSON weight envelope. No reader for them is kept.
        let cdck = "4344434b0100000001000000020000000300000000000000\
                    01000000010000000000803f00000000 54ace587bf05e0e9";
        let cdwk = "4344574b01000000010000000200000003000000000000001200000000000000\
                    01000000010000000000803f 020000000000000001000000000000bf \
                    90873e8964db5e36";
        assert_corrupt(Checkpoint::decode(&unhex(cdck)), "CDCK");
        assert_corrupt(Checkpoint::decode(&unhex(cdwk)), "CDWK");
        let json = br#"{"format":"cdsgd-checkpoint-v1","algo":"S-SGD","weights":[[1.0,2.0]]}"#;
        assert_corrupt(Checkpoint::decode(json), "{\"fo");
    }

    #[test]
    fn corruption_and_wrong_magic_are_rejected() {
        let whole = shard(0, 1, 8).encode();
        // Flip one payload bit: the checksum catches it.
        let mut flipped = whole.clone();
        flipped[20] ^= 1;
        assert_corrupt(Checkpoint::decode(&flipped), "checksum");
        // Truncation is also corruption, not a panic.
        assert_corrupt(Checkpoint::decode(&whole[..whole.len() - 3]), "checksum");
        assert_corrupt(Checkpoint::decode(b"xx"), "too short");
        // Trailing bytes inside a valid seal.
        let mut body = whole[8..whole.len() - 8].to_vec();
        body.push(0);
        assert_corrupt(Checkpoint::decode(&sealed(&body)), "trailing");
        // A future version is refused, not misread.
        let mut future = whole.clone();
        future[4] = 3;
        let n = future.len() - 8;
        let sum = fnv1a64(&future[..n]);
        future[n..].copy_from_slice(&sum.to_le_bytes());
        assert_corrupt(Checkpoint::decode(&future), "version 3");

        // A worker file where a shard file is expected, and the reverse:
        // both carry valid checksums, the manifest gives them away.
        let dir = tmp_dir("kinds");
        std::fs::create_dir_all(&dir).unwrap();
        let w = worker(0, 8);
        std::fs::write(dir.join(file_name(Kind::Shard, 0, 8)), w.encode()).unwrap();
        assert_corrupt(load(&dir, Kind::Shard, 0, 4, 8), "holds worker 0 of 4");
        let s = shard(1, 4, 2);
        std::fs::write(dir.join(file_name(Kind::Worker, 1, 2)), s.encode()).unwrap();
        assert_corrupt(load(&dir, Kind::Worker, 1, 4, 2), "holds shard 1 of 4");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_counts_are_rejected_before_allocating() {
        // A validly sealed body claiming 2^32-1 entries in one section:
        // without the bound this reserves ~96 GiB before the first entry.
        let mut body = Vec::new();
        for v in [0u32, 0, 1] {
            put_u32(&mut body, v);
        }
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, 0); // algo
        put_u32(&mut body, 1); // one section
        put_u32(&mut body, WEIGHTS);
        put_u32(&mut body, u32::MAX);
        assert_corrupt(Checkpoint::decode(&sealed(&body)), "exceeds");
        // The section count itself is bounded the same way.
        body.truncate(body.len() - 12);
        put_u32(&mut body, u32::MAX);
        assert_corrupt(Checkpoint::decode(&sealed(&body)), "exceeds");
    }

    #[test]
    fn save_atomic_then_load_latest() {
        let dir = tmp_dir("save-load");
        let c = shard(0, 1, 12);
        c.save_atomic(&dir).unwrap();
        let loaded = load_latest(&dir, 0, 1).unwrap().unwrap();
        assert_eq!(loaded, c);
        // Worker files share the directory without joining the manifest.
        worker(0, 9).save_atomic(&dir).unwrap();
        assert_eq!(load(&dir, Kind::Worker, 0, 4, 9).unwrap(), worker(0, 9));
        assert_eq!(latest_complete_round(&dir, 1).unwrap(), Some(12));
        // No stray temporary files survive the rename.
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "shard0000-000000000012.ckpt",
                "worker0000-000000000009.ckpt"
            ]
        );
        // The writer needs an existing directory: a typed error, no panic.
        let err = write_atomic(&dir.join("absent").join("w"), b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_ignores_torn_sets() {
        let dir = tmp_dir("torn");
        // Round 8 complete on both shards; round 16 only on shard 0 (the
        // torn set a crash between shard writes leaves behind).
        shard(0, 2, 8).save_atomic(&dir).unwrap();
        shard(1, 2, 8).save_atomic(&dir).unwrap();
        shard(0, 2, 16).save_atomic(&dir).unwrap();
        assert_eq!(latest_complete_round(&dir, 2).unwrap(), Some(8));
        // Completing the set moves the manifest forward.
        shard(1, 2, 16).save_atomic(&dir).unwrap();
        assert_eq!(latest_complete_round(&dir, 2).unwrap(), Some(16));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_means_no_checkpoint_not_an_error() {
        let dir = tmp_dir("absent");
        assert_eq!(latest_complete_round(&dir, 3).unwrap(), None);
        assert!(load_latest(&dir, 0, 3).unwrap().is_none());
    }

    #[test]
    fn deployment_shape_skew_is_rejected() {
        let dir = tmp_dir("skew");
        shard(0, 2, 8).save_atomic(&dir).unwrap();
        // A single-shard deployment must not resume from a 2-shard set,
        // nor an 8-worker run from a 4-worker snapshot.
        assert_corrupt(load(&dir, Kind::Shard, 0, 1, 8), "expected shard 0 of 1");
        worker(1, 2).save_atomic(&dir).unwrap();
        assert_corrupt(load(&dir, Kind::Worker, 1, 8, 2), "expected worker 1 of 8");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracker_writes_only_when_every_key_crosses() {
        use crate::opt::PlainSgd;
        let dir = tmp_dir("tracker");
        let policy = CheckpointPolicy::new(&dir, Some(2), 0, 1);
        let mut t = CheckpointTracker::new(Some(policy), 2, 0);
        let w: std::sync::Arc<[f32]> = vec![1.0f32].into();
        let opt = PlainSgd;
        t.observe(0, 1, &w, &opt);
        t.observe(1, 1, &w, &opt);
        t.observe(0, 2, &w, &opt);
        assert_eq!(
            latest_complete_round(&dir, 1).unwrap(),
            None,
            "key 1 has not crossed the boundary yet"
        );
        t.observe(1, 2, &w, &opt);
        assert_eq!(latest_complete_round(&dir, 1).unwrap(), Some(2));
        // The next boundary arms automatically.
        t.observe(0, 3, &w, &opt);
        t.observe(1, 3, &w, &opt);
        t.observe(0, 4, &w, &opt);
        t.observe(1, 4, &w, &opt);
        assert_eq!(latest_complete_round(&dir, 1).unwrap(), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let mut t = CheckpointTracker::new(None, 1, 0);
        let w: std::sync::Arc<[f32]> = vec![1.0f32].into();
        t.observe(0, 1, &w, &crate::opt::PlainSgd);
        assert!(t.policy().is_none());
    }
}
