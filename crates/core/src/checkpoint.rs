//! Checkpointing: persist global weights and run histories to disk.
//!
//! Weights round-trip through a compact JSON envelope with a format tag
//! and per-key lengths, so a checkpoint can be validated against a model
//! before import. Histories export as JSON for plotting.

use crate::metrics::TrainingHistory;
use cdsgd_nn::Sequential;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Why a checkpoint could not be written or read. Replaces the old
/// `.expect("checkpoint serializes")` panic: callers decide whether a
/// failed save aborts the run or just logs and continues.
#[derive(Debug)]
pub enum SaveError {
    /// The envelope could not be serialized (e.g. a non-finite float
    /// under a strict JSON writer).
    Serialize(serde_json::Error),
    /// The filesystem rejected the write.
    Io(std::io::Error),
}

impl fmt::Display for SaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveError::Serialize(e) => write!(f, "checkpoint failed to serialize: {e}"),
            SaveError::Io(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for SaveError {}

impl From<std::io::Error> for SaveError {
    fn from(e: std::io::Error) -> Self {
        SaveError::Io(e)
    }
}

impl From<serde_json::Error> for SaveError {
    fn from(e: serde_json::Error) -> Self {
        SaveError::Serialize(e)
    }
}

/// Write `bytes` to `path` durably (temp sibling + fsync + rename, see
/// [`cdsgd_ps::recover::write_atomic`]). The parent directory must exist.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "path has no UTF-8 file name",
        )
    })?;
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    cdsgd_ps::recover::write_atomic(dir, name, bytes).map(drop)
}

/// On-disk weight envelope.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format marker/version.
    pub format: String,
    /// Algorithm that produced the weights (informational).
    pub algo: String,
    /// One vector per parameter key, in model visitation order.
    pub weights: Vec<Vec<f32>>,
}

/// Current checkpoint format tag.
pub const FORMAT: &str = "cdsgd-checkpoint-v1";

impl Checkpoint {
    /// Wrap weights in an envelope.
    pub fn new(algo: impl Into<String>, weights: Vec<Vec<f32>>) -> Self {
        Self {
            format: FORMAT.into(),
            algo: algo.into(),
            weights,
        }
    }

    /// Capture a model's current parameters.
    pub fn from_model(algo: impl Into<String>, model: &mut Sequential) -> Self {
        Self::new(algo, model.export_params())
    }

    /// Write as JSON, atomically (temp file + fsync + rename), so a crash
    /// mid-save never corrupts an existing checkpoint under `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SaveError> {
        let json = serde_json::to_string(self)?;
        write_atomic(path.as_ref(), json.as_bytes())?;
        Ok(())
    }

    /// Read and validate the format tag.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        let ckpt: Checkpoint = serde_json::from_slice(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if ckpt.format != FORMAT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown checkpoint format {:?}", ckpt.format),
            ));
        }
        Ok(ckpt)
    }

    /// Import into a model, validating key counts and lengths.
    ///
    /// # Panics
    /// Panics if the checkpoint does not match the model's parameters.
    pub fn apply_to(&self, model: &mut Sequential) {
        model.import_params(&self.weights);
    }
}

/// Export a run history as JSON (for plotting scripts), with the same
/// atomic-write discipline as [`Checkpoint::save`].
pub fn save_history(history: &TrainingHistory, path: impl AsRef<Path>) -> Result<(), SaveError> {
    let json = serde_json::to_string_pretty(history)?;
    write_atomic(path.as_ref(), json.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_nn::models;
    use cdsgd_tensor::SmallRng64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cdsgd_ckpt_{}_{name}", std::process::id()))
    }

    #[test]
    fn weight_round_trip() {
        let mut rng = SmallRng64::new(1);
        let mut model = models::mlp(&[4, 8, 2], &mut rng);
        let ckpt = Checkpoint::from_model("S-SGD", &mut model);
        let path = tmp("roundtrip.json");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);

        // Apply to a differently-initialized model: weights match after.
        let mut rng2 = SmallRng64::new(99);
        let mut other = models::mlp(&[4, 8, 2], &mut rng2);
        assert_ne!(other.export_params(), model.export_params());
        loaded.apply_to(&mut other);
        assert_eq!(other.export_params(), model.export_params());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let dir = tmp("atomicdir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        let ckpt = Checkpoint::new("S-SGD", vec![vec![1.0, 2.0]]);
        ckpt.save(&path).unwrap();
        // Overwriting an existing checkpoint goes through the same
        // temp+rename path and must not leave droppings behind.
        ckpt.save(&path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            entries,
            vec!["w.json".to_string()],
            "stray files: {entries:?}"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        // The JSON envelope's bytes, pinned.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r#"{"format":"cdsgd-checkpoint-v1","algo":"S-SGD","weights":[[1.0,2.0]]}"#
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_into_missing_directory_is_a_typed_error_not_a_panic() {
        let ckpt = Checkpoint::new("S-SGD", vec![vec![1.0]]);
        let err = ckpt
            .save(tmp("no_such_dir").join("w.json"))
            .expect_err("directory does not exist");
        assert!(matches!(err, SaveError::Io(_)), "{err}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_unknown_format() {
        let path = tmp("badformat.json");
        std::fs::write(&path, r#"{"format":"bogus","algo":"x","weights":[]}"#).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.json");
        std::fs::write(&path, b"not json").unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_model_panics() {
        let mut rng = SmallRng64::new(2);
        let mut small = models::mlp(&[4, 8, 2], &mut rng);
        let ckpt = Checkpoint::from_model("S-SGD", &mut small);
        let mut big = models::mlp(&[4, 16, 2], &mut rng);
        ckpt.apply_to(&mut big);
    }

    #[test]
    fn history_exports_as_json() {
        use crate::metrics::{EpochMetrics, TrainingHistory};
        let h = TrainingHistory {
            algo: "CD-SGD(k=2)".into(),
            num_workers: 2,
            epochs: vec![EpochMetrics {
                epoch: 0,
                train_loss: 1.0,
                train_acc: 0.5,
                test_acc: Some(0.6),
                epoch_time_s: 2.0,
                cumulative_push_bytes: 42,
                cumulative_pull_bytes: 84,
                epoch_push_bytes: 42,
                epoch_pull_bytes: 84,
            }],
            final_weights: vec![vec![1.0]],
            aborted: None,
        };
        let path = tmp("history.json");
        save_history(&h, &path).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["algo"], "CD-SGD(k=2)");
        assert_eq!(v["epochs"][0]["test_acc"], 0.6);
        std::fs::remove_file(&path).ok();
    }
}
