//! Durable shard snapshots: the parameter-server half of the recovery
//! subsystem (DESIGN.md §14).
//!
//! A running server can persist its entire mutable state — weights,
//! per-key versions, and [`crate::ServerOpt`] state such as momentum
//! buffers — as one binary *shard checkpoint* per server shard. The three
//! invariants the format is built around:
//!
//! * **Consistency**: a checkpoint captures every key at one uniform
//!   round `v`. Scheduled checkpoints capture each key at the exact
//!   moment its version passes `v` (versions advance one at a time, so
//!   no boundary is ever skipped), then write the file once all keys
//!   have crossed — transient key-version skew never leaks into a file.
//! * **Atomicity**: files are written to a temporary sibling, fsynced,
//!   then renamed into place. A crash mid-write leaves the previous
//!   checkpoint intact, never a torn file; a trailing FNV-1a checksum
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

/// Magic prefix of every shard checkpoint file.
const MAGIC: &[u8; 4] = b"CDCK";

/// Format version tag. Bump on any layout change; [`ShardCheckpoint::decode`]
/// rejects unknown versions instead of misreading them.
const FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes on disk are not a valid checkpoint (bad magic, unknown
    /// format version, checksum mismatch, truncation, or a header that
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
}

/// Server state loaded from a checkpoint, fed back into a starting
/// server so it picks up where the snapshot left off: every key's
/// weights and version, plus each key's optimizer state.
#[derive(Clone, Debug, PartialEq)]
pub struct RestoredState {
    /// The uniform key version the snapshot captured.
    pub round: u64,
    /// Per-key weights at `round`.
    pub weights: Vec<Vec<f32>>,
    /// Per-key [`crate::ServerOpt::export_state`] blobs (empty for
    /// stateless optimizers).
    pub opt_state: Vec<Vec<f32>>,
}

/// Everything a starting server needs to participate in recovery:
/// optionally a state to restore, optionally a policy for writing new
/// checkpoints. The default (`None`/`None`) is a plain, non-durable
/// server — the bit-identical historical behaviour.
#[derive(Default)]
pub struct Durability {
    /// Resume from this state instead of the initial weights.
    pub restore: Option<RestoredState>,
    /// Write checkpoints according to this policy.
    pub checkpoint: Option<CheckpointPolicy>,
}

/// One shard's durable snapshot: everything the server thread mutates,
/// captured at one uniform round.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCheckpoint {
    /// Which shard this file belongs to.
    pub shard: usize,
    /// Total shards in the deployment that wrote this set.
    pub num_shards: usize,
    /// The uniform key version captured.
    pub round: u64,
    /// Per-key weights.
    pub weights: Vec<Vec<f32>>,
    /// Per-key optimizer state blobs.
    pub opt_state: Vec<Vec<f32>>,
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

/// Frame a checkpoint file: `magic`, `version`, whatever `body` appends,
/// then FNV-1a over all three. The one envelope every binary checkpoint
/// format (`CDCK` shards here, `CDWK` workers in `cd_sgd::recover`) is
/// written in and [`open`]ed from.
pub fn seal(magic: &[u8; 4], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(magic);
    put_u32(&mut buf, version);
    body(&mut buf);
    let sum = fnv1a64(&buf);
    put_u64(&mut buf, sum);
    buf
}

/// Inverse of [`seal`]: verify the checksum, the magic and the version,
/// hand the body to `parse`, and reject anything `parse` leaves unread.
/// Every way the bytes can be wrong is a [`CheckpointError::Corrupt`].
pub fn open<T>(
    magic: &[u8; 4],
    version: u32,
    bytes: &[u8],
    parse: impl FnOnce(&mut Cursor) -> Result<T, cdsgd_net::NetError>,
) -> Result<T, CheckpointError> {
    if bytes.len() < magic.len() + 8 {
        return Err(CheckpointError::Corrupt(format!(
            "{} bytes is too short for a checkpoint",
            bytes.len()
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
    let corrupt = |e: cdsgd_net::NetError| CheckpointError::Corrupt(e.to_string());
    let mut cur = Cursor::new(sealed);
    if cur.take(4).map_err(corrupt)? != magic {
        return Err(CheckpointError::Corrupt(format!(
            "bad magic (not a {} checkpoint)",
            String::from_utf8_lossy(magic)
        )));
    }
    let format = cur.u32().map_err(corrupt)?;
    if format != version {
        return Err(CheckpointError::Corrupt(format!(
            "unknown format version {format} (this build reads {version})"
        )));
    }
    let parsed = parse(&mut cur).map_err(corrupt)?;
    if cur.remaining() != 0 {
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after checkpoint body",
            cur.remaining()
        )));
    }
    Ok(parsed)
}

/// Write `bytes` to `dir/name` durably: a temporary sibling is written
/// and fsynced, then renamed over the final name, so a crash at any point
/// leaves either the old file or the new one — never a truncated hybrid.
/// `dir` must exist. Returns the final path.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp_path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp_path, &final_path) {
        std::fs::remove_file(&tmp_path).ok();
        return Err(e);
    }
    // Make the rename itself durable. Directory fsync is best-effort:
    // some platforms refuse to open directories.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Canonical file name of a shard checkpoint.
pub fn checkpoint_file_name(shard: usize, round: u64) -> String {
    format!("shard{shard:04}-round{round:012}.ckpt")
}

/// Inverse of [`checkpoint_file_name`]: `Some((shard, round))` if `name`
/// is a checkpoint file name.
fn parse_file_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("shard")?.strip_suffix(".ckpt")?;
    let (shard, round) = rest.split_once("-round")?;
    Some((shard.parse().ok()?, round.parse().ok()?))
}

impl ShardCheckpoint {
    /// Serialize to the versioned binary layout (see DESIGN.md §14):
    /// magic, format version, shard, num_shards, round, key count, then
    /// per key its weight and optimizer-state vectors, and a trailing
    /// FNV-1a checksum over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        assert_eq!(
            self.weights.len(),
            self.opt_state.len(),
            "one optimizer state blob per key"
        );
        seal(MAGIC, FORMAT_VERSION, |buf| {
            put_u32(buf, self.shard as u32);
            put_u32(buf, self.num_shards as u32);
            put_u64(buf, self.round);
            put_u32(buf, self.weights.len() as u32);
            for (w, o) in self.weights.iter().zip(&self.opt_state) {
                put_u32(buf, w.len() as u32);
                put_f32s(buf, w);
                put_u32(buf, o.len() as u32);
                put_f32s(buf, o);
            }
        })
    }

    /// Decode and validate a checkpoint file body.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        open(MAGIC, FORMAT_VERSION, bytes, |cur| {
            let shard = cur.u32()? as usize;
            let num_shards = cur.u32()? as usize;
            let round = cur.u64()?;
            let nkeys = cur.u32()? as usize;
            let mut weights = Vec::with_capacity(nkeys);
            let mut opt_state = Vec::with_capacity(nkeys);
            for _ in 0..nkeys {
                let wlen = cur.u32()? as usize;
                weights.push(cur.f32s(wlen)?);
                let olen = cur.u32()? as usize;
                opt_state.push(cur.f32s(olen)?);
            }
            Ok(Self {
                shard,
                num_shards,
                round,
                weights,
                opt_state,
            })
        })
    }

    /// Write this checkpoint into `dir` atomically (see
    /// [`write_atomic`]), creating `dir` if needed. Returns the final
    /// path.
    pub fn save_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let name = checkpoint_file_name(self.shard, self.round);
        Ok(write_atomic(dir, &name, &self.encode())?)
    }

    /// The [`RestoredState`] this checkpoint describes.
    pub fn into_restored(self) -> RestoredState {
        RestoredState {
            round: self.round,
            weights: self.weights,
            opt_state: self.opt_state,
        }
    }
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
    // round -> bitmask of shards present
    let mut rounds: std::collections::BTreeMap<u64, Vec<bool>> = Default::default();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((shard, round)) = parse_file_name(name) else {
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

/// Load and validate the checkpoint for `shard` at `round` from `dir`:
/// the decoded header must agree with the file's name and the caller's
/// deployment shape, otherwise the set is version-skewed and rejected.
pub fn load_shard(
    dir: &Path,
    shard: usize,
    num_shards: usize,
    round: u64,
) -> Result<ShardCheckpoint, CheckpointError> {
    let path = dir.join(checkpoint_file_name(shard, round));
    let bytes = std::fs::read(&path)?;
    let ckpt = ShardCheckpoint::decode(&bytes)?;
    if ckpt.shard != shard || ckpt.round != round {
        return Err(CheckpointError::Corrupt(format!(
            "{} claims shard {} round {} in its header",
            path.display(),
            ckpt.shard,
            ckpt.round
        )));
    }
    if ckpt.num_shards != num_shards {
        return Err(CheckpointError::Corrupt(format!(
            "{} was written by a {}-shard deployment, expected {}",
            path.display(),
            ckpt.num_shards,
            num_shards
        )));
    }
    Ok(ckpt)
}

/// Convenience: the latest complete checkpoint for `shard`, or
/// `Ok(None)` when no complete set exists yet.
pub fn load_latest(
    dir: &Path,
    shard: usize,
    num_shards: usize,
) -> Result<Option<ShardCheckpoint>, CheckpointError> {
    match latest_complete_round(dir, num_shards)? {
        Some(round) => load_shard(dir, shard, num_shards, round).map(Some),
        None => Ok(None),
    }
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
        if version > next {
            // Unreachable by construction (key-version skew is bounded
            // by one round, and boundaries are observed one version at a
            // time), but never write an inconsistent file: abandon this
            // boundary and re-arm past the runaway key.
            let every = self.policy.as_ref().and_then(|p| p.every).unwrap_or(1);
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
            self.write_boundary(next);
        }
    }

    fn write_boundary(&mut self, round: u64) {
        let policy = self.policy.as_ref().expect("armed tracker has a policy");
        let (weights, opt_state) = self
            .captured
            .iter_mut()
            .map(|c| {
                let (w, o) = c.take().expect("all keys captured");
                (w.to_vec(), o)
            })
            .unzip();
        let ckpt = ShardCheckpoint {
            shard: policy.shard,
            num_shards: policy.num_shards,
            round,
            weights,
            opt_state,
        };
        if let Err(e) = ckpt.save_atomic(&policy.dir) {
            // A failed checkpoint must not kill training: warn and keep
            // aggregating; the next boundary retries.
            eprintln!("checkpoint: failed to write round {round}: {e}");
        }
        let every = policy.every.expect("armed tracker has an interval");
        self.next = Some(round + every);
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

    fn sample(shard: usize, num_shards: usize, round: u64) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            num_shards,
            round,
            weights: vec![vec![1.0, -2.5, 3.25], vec![0.0]],
            opt_state: vec![vec![0.5, 0.5, -0.5], vec![]],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample(1, 4, 24);
        assert_eq!(ShardCheckpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // The CDCK layout, byte for byte: magic, version, shard,
        // num_shards, round, key count, per key (weights, opt state) as
        // u32-length-prefixed f32 runs, then FNV-1a of all of the above.
        let c = ShardCheckpoint {
            shard: 1,
            num_shards: 2,
            round: 3,
            weights: vec![vec![1.0]],
            opt_state: vec![vec![]],
        };
        assert_eq!(
            hex(&c.encode()),
            "4344434b0100000001000000020000000300000000000000\
             01000000010000000000803f00000000\
             54ace587bf05e0e9"
        );
    }

    #[test]
    fn corruption_is_rejected() {
        let mut bytes = sample(0, 1, 8).encode();
        // Flip one payload bit: the checksum catches it.
        bytes[20] ^= 1;
        assert!(matches!(
            ShardCheckpoint::decode(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
        // Truncation is also corruption, not a panic.
        let whole = sample(0, 1, 8).encode();
        assert!(matches!(
            ShardCheckpoint::decode(&whole[..whole.len() - 3]),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            ShardCheckpoint::decode(b"xx"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn save_atomic_then_load_latest() {
        let dir = tmp_dir("save-load");
        let c = sample(0, 1, 12);
        c.save_atomic(&dir).unwrap();
        let loaded = load_latest(&dir, 0, 1).unwrap().unwrap();
        assert_eq!(loaded, c);
        // No stray temporary files survive the rename.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec![checkpoint_file_name(0, 12)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_ignores_torn_sets() {
        let dir = tmp_dir("torn");
        // Round 8 complete on both shards; round 16 only on shard 0 (the
        // torn set a crash between shard writes leaves behind).
        sample(0, 2, 8).save_atomic(&dir).unwrap();
        sample(1, 2, 8).save_atomic(&dir).unwrap();
        sample(0, 2, 16).save_atomic(&dir).unwrap();
        assert_eq!(latest_complete_round(&dir, 2).unwrap(), Some(8));
        // Completing the set moves the manifest forward.
        sample(1, 2, 16).save_atomic(&dir).unwrap();
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
    fn shard_count_skew_is_rejected() {
        let dir = tmp_dir("skew");
        sample(0, 2, 8).save_atomic(&dir).unwrap();
        // A single-shard deployment must not resume from a 2-shard set.
        assert!(matches!(
            load_shard(&dir, 0, 1, 8),
            Err(CheckpointError::Corrupt(_))
        ));
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
