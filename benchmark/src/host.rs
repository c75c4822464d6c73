//! Where and how a result was measured, and the conditions under which
//! the benchmark refuses to measure at all.

use crate::workload::WORKERS;
use serde_json::{json, Value};

/// Cores this process may run on (cgroup quota and affinity included).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured, when the working directory is the root of
/// a git checkout. The driver's is not, and `git` is not asked there: it
/// would search the directories above.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and mode, recorded with every result.
pub fn describe(seed: u64, seconds: f64, quick: bool) -> Value {
    let env = |k: &str| std::env::var(k).ok();
    json!({
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "kernel_backend": cdsgd_tensor::kernel::backend().name(),
        "CDSGD_FORCE_SCALAR": env("CDSGD_FORCE_SCALAR"),
        "CDSGD_PAR_THRESHOLD": env("CDSGD_PAR_THRESHOLD"),
        "par_threshold": cdsgd_tensor::kernel::par_threshold(),
        "workers": WORKERS,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "git_commit": git_commit(),
        "link": "host loopback / emulated sleep, not a real NIC"
    })
}

/// Why this host or mode cannot give a meaningful result, if so.
pub fn refusal(allow_scalar: bool) -> Option<String> {
    if WORKERS > nproc() {
        return Some(format!(
            "{WORKERS} workers need {WORKERS} cores, this process may use {}",
            nproc()
        ));
    }
    let scalar = cdsgd_tensor::kernel::backend() == cdsgd_tensor::kernel::Backend::Scalar;
    if std::env::var_os("CDSGD_FORCE_SCALAR").is_some() && scalar && !allow_scalar {
        return Some(
            "CDSGD_FORCE_SCALAR pins the scalar kernels; pass --allow-scalar to measure them"
                .into(),
        );
    }
    None
}
