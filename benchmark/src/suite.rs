//! `benchmark all`: every workload, end to end several times and traced
//! once, each run a fresh child invocation of this binary so that peak
//! memory and caches do not leak from one workload into the next — and
//! `benchmark compare`, which judges two such result files by the
//! bounds `BENCHMARK.json` fixes.

use crate::host;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};
use serde_json::{json, Value};
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeats: u64,
    pub quick: bool,
    pub allow_scalar: bool,
    pub out: Option<String>,
}

/// Run this binary once in contract mode and parse its result line.
fn child(workload: &str, seed: u64, trace: bool, a: &SuiteArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    if a.allow_scalar {
        cmd.arg("--allow-scalar");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no result line")?;
    serde_json::from_str(last).map_err(|e| format!("result line: {e}"))
}

/// Run everything and return the result document.
pub fn all(a: &SuiteArgs) -> Result<Value, String> {
    let spec = Spec::load();
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for name in &spec.workloads {
        let (mut ops, mut failed) = (0u64, 0u64);
        let mut tally = |r: &Value| {
            ops += r["attempted"].as_u64().unwrap_or(0);
            failed += r["failed"].as_u64().unwrap_or(0);
        };
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        for i in 0..a.repeats {
            let r = child(name, a.seed + i, false, a)?;
            tally(&r);
            for (m, vs) in spec.end_to_end.iter().zip(&mut values) {
                vs.push(
                    r["metrics"][m.name.as_str()]["value"]
                        .as_f64()
                        .unwrap_or(0.0),
                );
            }
        }
        let traced = child(name, a.seed, true, a)?;
        tally(&traced);
        let end_to_end: Vec<(String, Value)> = spec
            .end_to_end
            .iter()
            .zip(&values)
            .map(|(m, vs)| (m.name.clone(), json!({ "unit": m.unit, "values": vs })))
            .collect();
        eprintln!("== {name}: {ops} ops, {failed} failed");
        for (m, vs) in spec.end_to_end.iter().zip(&values) {
            eprintln!(
                "  {:<28} {:>14.4} {:<8} spread {:.3}",
                m.name,
                median(vs),
                m.unit,
                spread(vs)
            );
        }
        for m in &spec.per_layer {
            let v = traced["metrics"][m.name.as_str()]["value"]
                .as_f64()
                .unwrap_or(0.0);
            eprintln!("  {:<28} {:>14.4} {}", m.name, v, m.unit);
        }
        workloads.push((
            name.clone(),
            json!({
                "ops": ops,
                "failed_ops": failed,
                "end_to_end": Value::Object(end_to_end),
                "per_layer": traced["metrics"].clone()
            }),
        ));
    }
    let doc = json!({
        "host": host::describe(a.seed, a.seconds, a.quick),
        "repeats": a.repeats,
        "workloads": Value::Object(workloads)
    });
    let text = serde_json::to_string_pretty(&doc).expect("a result document serializes");
    match &a.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?,
        None => println!("{text}"),
    }
    Ok(doc)
}

/// One (workload, metric) row of a comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse `b` is than `a`, as a share of `a`'s median
    /// (negative: better).
    pub worse: f64,
    /// The wider of the two files' quartile spreads.
    pub spread: f64,
    pub out_of_bound: bool,
    /// The runs scatter more than the bound, so an in-bound difference
    /// proves nothing either way.
    pub unresolved: bool,
}

pub fn compare_metric(m: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let delta = if m.higher_is_better {
        median_a - median_b
    } else {
        median_b - median_a
    };
    let worse = if median_a == 0.0 {
        0.0
    } else {
        delta / median_a.abs()
    };
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let wide = spread(a).max(spread(b));
    Row {
        median_a,
        median_b,
        worse,
        spread: wide,
        out_of_bound: worse > bound,
        unresolved: wide > bound,
    }
}

fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc["workloads"][workload]["end_to_end"][metric]["values"]
        .as_array()
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn failed_share(doc: &Value, workload: &str) -> f64 {
    let w = &doc["workloads"][workload];
    let ops = w["ops"].as_f64().unwrap_or(0.0);
    if ops == 0.0 {
        return 1.0;
    }
    w["failed_ops"].as_f64().unwrap_or(0.0) / ops
}

/// Print the comparison of two result documents; `true` when `b` is no
/// worse than `a` beyond any bound and fails no larger share of its
/// operations.
pub fn compare(a: &Value, b: &Value) -> bool {
    let spec = Spec::load();
    let mut ok = true;
    println!(
        "{:<22} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse", "bound", "spread"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(a, w, &m.name), values(b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<22} {:<18} missing in one of the files", m.name);
                ok = false;
                continue;
            }
            let row = compare_metric(m, &va, &vb);
            let verdict = match (row.out_of_bound, row.unresolved) {
                (true, true) => "OUT OF BOUND (unresolved: spread exceeds the bound)",
                (true, false) => "OUT OF BOUND",
                (false, true) => "unresolved: spread exceeds the bound",
                (false, false) => "ok",
            };
            println!(
                "{w:<22} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                m.name,
                row.median_a,
                row.median_b,
                100.0 * row.worse,
                100.0 * m.bound.unwrap_or(0.0),
                100.0 * row.spread
            );
            ok &= !row.out_of_bound;
        }
        let (fa, fb) = (failed_share(a, w), failed_share(b, w));
        if fb > fa {
            println!("{w:<22} failed share rose from {fa:.4} to {fb:.4}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "t".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn worse_is_signed_by_the_metrics_direction() {
        let r = compare_metric(&lower(0.08), &[10.0, 10.0, 10.0], &[10.5, 10.5, 10.5]);
        assert!((r.worse - 0.05).abs() < 1e-12);
        assert!(!r.out_of_bound && !r.unresolved);
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower(0.08)
        };
        let r = compare_metric(&higher, &[100.0; 3], &[90.0; 3]);
        assert!((r.worse - 0.10).abs() < 1e-12);
        assert!(r.out_of_bound);
        // Getting better is never out of bound.
        assert!(!compare_metric(&higher, &[100.0; 3], &[150.0; 3]).out_of_bound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let r = compare_metric(&lower(0.05), &[9.0, 10.0, 11.0], &[10.0, 10.0, 10.0]);
        assert!((r.spread - 0.2).abs() < 1e-12);
        assert!(r.unresolved && !r.out_of_bound);
    }

    fn doc(train_s: &[f64], failed: u64) -> Value {
        let spec = Spec::load();
        let workloads: Vec<(String, Value)> = spec
            .workloads
            .iter()
            .map(|w| {
                let e2e: Vec<(String, Value)> = spec
                    .end_to_end
                    .iter()
                    .map(|m| {
                        let vs = if m.name == "train_s" {
                            train_s
                        } else {
                            &[1.0, 1.0][..]
                        };
                        (m.name.clone(), json!({ "unit": m.unit, "values": vs }))
                    })
                    .collect();
                let w_doc = json!({
                    "ops": 100, "failed_ops": failed, "end_to_end": Value::Object(e2e)
                });
                (w.clone(), w_doc)
            })
            .collect();
        json!({ "workloads": Value::Object(workloads) })
    }

    #[test]
    fn compare_fails_on_a_regression_or_more_failures_only() {
        let base = doc(&[2.0, 2.0, 2.0], 0);
        assert!(compare(&base, &base));
        assert!(compare(&base, &doc(&[2.1, 2.1, 2.1], 0)));
        assert!(!compare(&base, &doc(&[3.0, 3.0, 3.0], 0)));
        assert!(!compare(&base, &doc(&[2.0, 2.0, 2.0], 1)));
        // Fewer failures than the baseline is fine.
        assert!(compare(&doc(&[2.0, 2.0, 2.0], 2), &base));
    }
}
