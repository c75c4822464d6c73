//! Per-epoch training metrics and run histories — the data behind every
//! learning-curve figure.

use serde::Serialize;
use std::path::Path;

/// Metrics of one epoch, aggregated across workers.
#[derive(Clone, Debug, Serialize)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over all batches of all workers.
    pub train_loss: f32,
    /// Mean training accuracy over all batches of all workers.
    pub train_acc: f32,
    /// Test accuracy of the global model (worker 0 evaluates), if a test
    /// set was provided.
    pub test_acc: Option<f32>,
    /// Wall-clock seconds this epoch took (all workers, real threads).
    pub epoch_time_s: f64,
    /// Cumulative bytes pushed worker→server since training started.
    pub cumulative_push_bytes: u64,
    /// Cumulative pull-reply bytes server→worker since training started
    /// (the downlink the paper's eq. 4–9 accounting pairs with the
    /// uplink above).
    pub cumulative_pull_bytes: u64,
    /// Bytes pushed during this epoch alone (delta of
    /// [`EpochMetrics::cumulative_push_bytes`]).
    pub epoch_push_bytes: u64,
    /// Bytes pulled during this epoch alone (delta of
    /// [`EpochMetrics::cumulative_pull_bytes`]).
    pub epoch_pull_bytes: u64,
}

/// Where and why a run stopped early (worker lost, server round failed).
#[derive(Clone, Debug, Serialize)]
pub struct AbortRecord {
    /// Epoch being trained when the run aborted (its metrics are *not*
    /// in [`TrainingHistory::epochs`] — only completed epochs are).
    pub epoch: usize,
    /// First aggregate round that could no longer complete.
    pub round: u64,
    /// Display form of the [`cdsgd_ps::NetError`] that ended the run.
    pub error: String,
}

/// The full record of one training run.
#[derive(Clone, Debug, Serialize)]
pub struct TrainingHistory {
    /// Algorithm display name.
    pub algo: String,
    /// Number of workers.
    pub num_workers: usize,
    /// Per-epoch records in order.
    pub epochs: Vec<EpochMetrics>,
    /// The final global weights, one vector per parameter key (snapshot
    /// of the server after the last round).
    pub final_weights: Vec<Vec<f32>>,
    /// `Some` if the run aborted early (a worker died, the server failed
    /// a round); the epochs recorded above are the ones that completed.
    pub aborted: Option<AbortRecord>,
}

impl TrainingHistory {
    /// Test accuracy after the final epoch.
    pub fn final_test_acc(&self) -> Option<f32> {
        self.epochs.last().and_then(|e| e.test_acc)
    }

    /// Best test accuracy over the run (the paper reports "convergence
    /// accuracy" as the best achieved top-1).
    pub fn best_test_acc(&self) -> Option<f32> {
        self.epochs
            .iter()
            .filter_map(|e| e.test_acc)
            .fold(None, |best, a| Some(best.map_or(a, |b: f32| b.max(a))))
    }

    /// Training loss after the final epoch.
    pub fn final_train_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.train_loss)
    }

    /// Mean wall-clock epoch time, excluding the first (warm-up/JIT)
    /// epoch when there are at least two.
    pub fn avg_epoch_time(&self) -> f64 {
        let skip = usize::from(self.epochs.len() > 1);
        let rest = &self.epochs[skip..];
        if rest.is_empty() {
            0.0
        } else {
            rest.iter().map(|e| e.epoch_time_s).sum::<f64>() / rest.len() as f64
        }
    }

    /// Render as tab-separated rows (header + one row per epoch), the
    /// format the figure harnesses print.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "epoch\ttrain_loss\ttrain_acc\ttest_acc\tepoch_s\tpush_bytes\tpull_bytes\n",
        );
        for e in &self.epochs {
            out.push_str(&format!(
                "{}\t{:.4}\t{:.4}\t{}\t{:.3}\t{}\t{}\n",
                e.epoch,
                e.train_loss,
                e.train_acc,
                e.test_acc.map_or("-".to_string(), |a| format!("{a:.4}")),
                e.epoch_time_s,
                e.cumulative_push_bytes,
                e.cumulative_pull_bytes,
            ));
        }
        out
    }
}

/// Export a run history as pretty JSON (for plotting scripts), written
/// atomically like every checkpoint
/// ([`cdsgd_ps::recover::write_atomic`]). The parent directory must
/// exist.
pub fn save_history(history: &TrainingHistory, path: impl AsRef<Path>) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(history).map_err(std::io::Error::other)?;
    cdsgd_ps::recover::write_atomic(path.as_ref(), json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_exports_as_json() {
        let mut h = history();
        h.algo = "CD-SGD(k=2)".into();
        let path = std::env::temp_dir().join(format!("cdsgd_history_{}.json", std::process::id()));
        save_history(&h, &path).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["algo"], "CD-SGD(k=2)");
        assert_eq!(v["epochs"][0]["epoch"], 0);
        std::fs::remove_file(&path).ok();
        // A missing directory is a typed error, not a panic.
        assert!(save_history(&h, path.join("absent").join("h.json")).is_err());
    }

    fn history() -> TrainingHistory {
        TrainingHistory {
            algo: "S-SGD".into(),
            num_workers: 2,
            final_weights: vec![vec![0.0; 3]],
            aborted: None,
            epochs: vec![
                EpochMetrics {
                    epoch: 0,
                    train_loss: 2.0,
                    train_acc: 0.3,
                    test_acc: Some(0.4),
                    epoch_time_s: 5.0,
                    cumulative_push_bytes: 100,
                    cumulative_pull_bytes: 400,
                    epoch_push_bytes: 100,
                    epoch_pull_bytes: 400,
                },
                EpochMetrics {
                    epoch: 1,
                    train_loss: 1.0,
                    train_acc: 0.7,
                    test_acc: Some(0.8),
                    epoch_time_s: 3.0,
                    cumulative_push_bytes: 200,
                    cumulative_pull_bytes: 800,
                    epoch_push_bytes: 100,
                    epoch_pull_bytes: 400,
                },
                EpochMetrics {
                    epoch: 2,
                    train_loss: 0.9,
                    train_acc: 0.75,
                    test_acc: Some(0.75),
                    epoch_time_s: 3.2,
                    cumulative_push_bytes: 300,
                    cumulative_pull_bytes: 1200,
                    epoch_push_bytes: 100,
                    epoch_pull_bytes: 400,
                },
            ],
        }
    }

    #[test]
    fn accessors() {
        let h = history();
        assert_eq!(h.final_test_acc(), Some(0.75));
        assert_eq!(h.best_test_acc(), Some(0.8));
        assert_eq!(h.final_train_loss(), Some(0.9));
        // First epoch excluded from the average.
        assert!((h.avg_epoch_time() - 3.1).abs() < 1e-9);
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let tsv = history().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("epoch\t"));
        assert!(lines[0].ends_with("push_bytes\tpull_bytes"));
        assert!(lines[1].contains("2.0000"));
        assert!(lines[1].ends_with("100\t400"));
    }

    #[test]
    fn empty_history_is_safe() {
        let h = TrainingHistory {
            algo: "x".into(),
            num_workers: 1,
            epochs: vec![],
            final_weights: vec![],
            aborted: None,
        };
        assert_eq!(h.final_test_acc(), None);
        assert_eq!(h.best_test_acc(), None);
        assert_eq!(h.avg_epoch_time(), 0.0);
    }
}
