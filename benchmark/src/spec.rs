//! `BENCHMARK.json` as the benchmark itself reads it: the metric and
//! workload names, units, directions and bounds it must agree with.

use crate::timed::{Metric, Outcome};
use serde_json::{json, Value};

/// The contract file, compiled in: the binary and the file it is judged
/// against cannot drift apart unnoticed (see the schema tests).
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

fn metric_specs(list: &Value) -> Vec<MetricSpec> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| MetricSpec {
            name: m["name"].as_str().expect("metric name").to_string(),
            unit: m["unit"].as_str().expect("metric unit").to_string(),
            higher_is_better: m["better"] == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            workloads: doc["workloads"]
                .as_array()
                .expect("workloads")
                .iter()
                .map(|w| w["name"].as_str().expect("workload name").to_string())
                .collect(),
            end_to_end: metric_specs(&doc["end_to_end"]),
            per_layer: metric_specs(&doc["per_layer"]),
            run_seconds: doc["run_seconds"].as_f64().expect("run_seconds"),
        }
    }

    /// Names or units on which `metrics` and the contract disagree.
    pub fn drift(&self, trace: bool, metrics: &[Metric]) -> Vec<String> {
        let want = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = Vec::new();
        for s in want {
            match metrics.iter().find(|m| m.name == s.name) {
                None => out.push(format!("missing metric {}", s.name)),
                Some(m) if m.unit != s.unit => out.push(format!(
                    "{}: unit {} but the contract says {}",
                    s.name, m.unit, s.unit
                )),
                Some(_) => {}
            }
        }
        for m in metrics {
            if !want.iter().any(|s| s.name == m.name) {
                out.push(format!("metric {} is not in the contract", m.name));
            }
        }
        out
    }
}

/// The one JSON object a run prints as its last line. Every value is
/// written as measured; one that is not a finite number makes the run
/// incorrect and is written as 0.
pub fn result_line(outcome: &Outcome) -> String {
    let mut correct = outcome.ops.failed == 0 && !outcome.metrics.is_empty();
    let metrics: Vec<(String, Value)> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                eprintln!("check failed: {} is {}", m.name, m.value);
                correct = false;
                0.0
            };
            (
                m.name.to_string(),
                json!({ "value": value, "unit": m.unit }),
            )
        })
        .collect();
    let failed = outcome.ops.failed + u64::from(!correct && outcome.ops.failed == 0);
    serde_json::to_string(&json!({
        "correct": correct,
        "attempted": outcome.ops.attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics)
    }))
    .expect("a result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::Ops;

    #[test]
    fn the_contract_file_is_well_formed() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 5);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics have a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn drift_names_missing_unknown_and_mis_united_metrics() {
        let spec = Spec::load();
        let mut metrics: Vec<Metric> = spec
            .end_to_end
            .iter()
            .map(|s| Metric {
                name: Box::leak(s.name.clone().into_boxed_str()),
                unit: Box::leak(s.unit.clone().into_boxed_str()),
                value: 1.0,
            })
            .collect();
        assert!(spec.drift(false, &metrics).is_empty());
        metrics[0].unit = "furlongs";
        let gone = metrics.pop().unwrap();
        metrics.push(Metric {
            name: "invented",
            unit: "s",
            value: 1.0,
        });
        let drift = spec.drift(false, &metrics).join("; ");
        assert!(drift.contains("furlongs"), "{drift}");
        assert!(
            drift.contains(&format!("missing metric {}", gone.name)),
            "{drift}"
        );
        assert!(drift.contains("invented"), "{drift}");
    }

    #[test]
    fn a_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            ops: Ops {
                attempted: 10,
                failed: 0,
            },
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.123456789,
            }],
        };
        let v: Value = serde_json::from_str(&result_line(&outcome)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], true);
        assert_eq!(v["metrics"]["setup_s"]["value"], 0.123456789);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
    }

    #[test]
    fn a_non_finite_value_makes_the_run_incorrect() {
        let outcome = Outcome {
            ops: Ops {
                attempted: 3,
                failed: 0,
            },
            metrics: vec![Metric {
                name: "samples_per_s",
                unit: "1/s",
                value: f64::INFINITY,
            }],
        };
        let v: Value = serde_json::from_str(&result_line(&outcome)).unwrap();
        assert_eq!(v["correct"], false);
        assert_eq!(v["failed"], 1u64);
    }
}
