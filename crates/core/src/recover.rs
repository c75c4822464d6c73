//! Worker-side durable snapshots: the trainer half of the recovery
//! subsystem (DESIGN.md §14).
//!
//! The parameter server persists the *shared* state (shard weights and
//! optimizer buffers — see `cdsgd_ps::recover`); what it cannot see is
//! each worker's *private* algorithm state: error-feedback residuals,
//! delay-compensation buffers, the local model replica. A
//! [`WorkerCheckpoint`] captures that private state at an epoch boundary
//! so a restarted worker resumes bit-identically instead of silently
//! dropping in-flight gradient mass.
//!
//! The file is the same sealed envelope as the server's shard
//! checkpoints (`cdsgd_ps::recover::{seal, open, write_atomic}`:
//! versioned, FNV-1a checksummed, written temp-file + fsync + rename).
//! Worker and server checkpoints use distinct magic tags
//! (`CDWK` vs `CDCK`) and file extensions so a misdirected
//! `--checkpoint-dir` fails loudly instead of misreading bytes.

use cdsgd_net::wire::{put_f32s, put_u32, put_u64};
use cdsgd_ps::recover::{open, seal, write_atomic, CheckpointError};
use std::path::{Path, PathBuf};

/// Magic prefix of every worker checkpoint file.
const MAGIC: &[u8; 4] = b"CDWK";

/// Format version tag; [`WorkerCheckpoint::decode`] rejects unknown
/// versions instead of misreading them.
const FORMAT_VERSION: u32 = 1;

/// One worker's private training state, captured at an epoch boundary
/// (all pushes of the epoch settled, no pulls in flight).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerCheckpoint {
    /// Which worker this snapshot belongs to.
    pub worker: usize,
    /// Cohort size that wrote this snapshot (resume must match it: data
    /// sharding and round arithmetic both depend on it).
    pub num_workers: usize,
    /// Epochs fully completed when the snapshot was taken; resume starts
    /// at this epoch index.
    pub epoch: usize,
    /// Aggregate rounds completed (`epoch * iters_per_epoch`), recorded
    /// for cross-checking against the server's checkpoint round.
    pub round: u64,
    /// The local model replica's parameters, one vector per key.
    pub model: Vec<Vec<f32>>,
    /// Strategy state from `UpdateStrategy::export_state` —
    /// error-feedback velocities, compressor residuals, Local SGD
    /// accumulators. The slot layout is private to the strategy (e.g.
    /// EF-SGD stores two vectors per key) and carries no tag here; the
    /// strategy's `import_state` checks it against its own layout and
    /// the model on the way back in. Empty vectors mean "no state for
    /// this slot".
    pub strategy: Vec<Vec<f32>>,
}

/// Canonical file name of a worker checkpoint.
pub fn worker_file_name(worker: usize, epoch: usize) -> String {
    format!("worker{worker:04}-epoch{epoch:012}.wkpt")
}

/// Inverse of [`worker_file_name`]: `Some((worker, epoch))` if `name` is
/// a worker checkpoint file name.
fn parse_file_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("worker")?.strip_suffix(".wkpt")?;
    let (worker, epoch) = rest.split_once("-epoch")?;
    Some((worker.parse().ok()?, epoch.parse().ok()?))
}

impl WorkerCheckpoint {
    /// Serialize to the versioned binary layout: magic, format version,
    /// worker, num_workers, epoch, round, then the model vectors and the
    /// strategy vectors as two length-prefixed lists, and a trailing
    /// FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        seal(MAGIC, FORMAT_VERSION, |buf| {
            put_u32(buf, self.worker as u32);
            put_u32(buf, self.num_workers as u32);
            put_u64(buf, self.epoch as u64);
            put_u64(buf, self.round);
            for list in [&self.model, &self.strategy] {
                put_u32(buf, list.len() as u32);
                for v in list {
                    put_u32(buf, v.len() as u32);
                    put_f32s(buf, v);
                }
            }
        })
    }

    /// Decode and validate a worker checkpoint file body.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        open(MAGIC, FORMAT_VERSION, bytes, |cur| {
            let worker = cur.u32()? as usize;
            let num_workers = cur.u32()? as usize;
            let epoch = cur.u64()? as usize;
            let round = cur.u64()?;
            let mut lists = [Vec::new(), Vec::new()];
            for list in &mut lists {
                let n = cur.u32()? as usize;
                list.reserve(n);
                for _ in 0..n {
                    let len = cur.u32()? as usize;
                    list.push(cur.f32s(len)?);
                }
            }
            let [model, strategy] = lists;
            Ok(Self {
                worker,
                num_workers,
                epoch,
                round,
                model,
                strategy,
            })
        })
    }

    /// Write this checkpoint into `dir` atomically (see
    /// [`write_atomic`]), creating `dir` if needed, so a crash mid-write
    /// leaves the previous epoch's file intact, never a torn one. Returns
    /// the final path.
    pub fn save_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let name = worker_file_name(self.worker, self.epoch);
        Ok(write_atomic(dir, &name, &self.encode())?)
    }
}

/// Load and validate the checkpoint for `worker` at `epoch` from `dir`:
/// the decoded header must agree with the file name and the caller's
/// cohort size, otherwise the snapshot belongs to a different run shape
/// and is rejected.
pub fn load_worker(
    dir: &Path,
    worker: usize,
    num_workers: usize,
    epoch: usize,
) -> Result<WorkerCheckpoint, CheckpointError> {
    let path = dir.join(worker_file_name(worker, epoch));
    let bytes = std::fs::read(&path)?;
    let ckpt = WorkerCheckpoint::decode(&bytes)?;
    if ckpt.worker != worker || ckpt.epoch != epoch {
        return Err(CheckpointError::Corrupt(format!(
            "{} claims worker {} epoch {} in its header",
            path.display(),
            ckpt.worker,
            ckpt.epoch
        )));
    }
    if ckpt.num_workers != num_workers {
        return Err(CheckpointError::Corrupt(format!(
            "{} was written by a {}-worker run, expected {}",
            path.display(),
            ckpt.num_workers,
            num_workers
        )));
    }
    Ok(ckpt)
}

/// The latest epoch for which `worker` has a checkpoint file in `dir`,
/// or `Ok(None)` when the directory does not exist or holds none.
pub fn latest_epoch_for(dir: &Path, worker: usize) -> Result<Option<usize>, CheckpointError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut latest = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((w, epoch)) = parse_file_name(name) else {
            continue;
        };
        if w == worker && latest.is_none_or(|e| epoch > e) {
            latest = Some(epoch);
        }
    }
    Ok(latest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cdsgd-wkpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample(worker: usize, epoch: usize) -> WorkerCheckpoint {
        WorkerCheckpoint {
            worker,
            num_workers: 4,
            epoch,
            round: (epoch as u64) * 6,
            model: vec![vec![1.0, -2.5], vec![3.25]],
            // Deliberately a different slot count than `model`: the
            // strategy layout is opaque to the codec.
            strategy: vec![vec![0.125], vec![], vec![-7.0]],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample(2, 5);
        assert_eq!(WorkerCheckpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // The CDWK layout, byte for byte: magic, version, worker,
        // num_workers, epoch, round, the model list then the strategy
        // list (count, then u32-length-prefixed f32 runs), then FNV-1a of
        // all of the above.
        let c = WorkerCheckpoint {
            worker: 1,
            num_workers: 2,
            epoch: 3,
            round: 18,
            model: vec![vec![1.0]],
            strategy: vec![vec![], vec![-0.5]],
        };
        let hex: String = c.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4344574b01000000010000000200000003000000000000001200000000000000\
             01000000010000000000803f\
             020000000000000001000000000000bf\
             90873e8964db5e36"
        );
    }

    #[test]
    fn corruption_and_wrong_magic_are_rejected() {
        let mut bytes = sample(0, 1).encode();
        bytes[18] ^= 1;
        assert!(matches!(
            WorkerCheckpoint::decode(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
        // A *server* shard checkpoint must not decode as a worker one,
        // even though both carry valid checksums.
        let shard = cdsgd_ps::ShardCheckpoint {
            shard: 0,
            num_shards: 1,
            round: 6,
            weights: vec![vec![1.0]],
            opt_state: vec![vec![]],
        };
        assert!(matches!(
            WorkerCheckpoint::decode(&shard.encode()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn save_load_and_latest_epoch() {
        let dir = tmp_dir("save-load");
        sample(1, 2).save_atomic(&dir).unwrap();
        sample(1, 4).save_atomic(&dir).unwrap();
        sample(0, 9).save_atomic(&dir).unwrap();
        assert_eq!(load_worker(&dir, 1, 4, 4).unwrap(), sample(1, 4));
        assert_eq!(latest_epoch_for(&dir, 1).unwrap(), Some(4));
        assert_eq!(latest_epoch_for(&dir, 0).unwrap(), Some(9));
        assert_eq!(latest_epoch_for(&dir, 3).unwrap(), None);
        // No stray temp files survive the renames.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with('.')));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cohort_size_skew_is_rejected() {
        let dir = tmp_dir("skew");
        sample(1, 2).save_atomic(&dir).unwrap();
        assert!(matches!(
            load_worker(&dir, 1, 8, 2),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_means_no_checkpoint_not_an_error() {
        let dir = tmp_dir("absent");
        assert_eq!(latest_epoch_for(&dir, 0).unwrap(), None);
    }
}
