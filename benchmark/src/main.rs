//! The repo benchmark. Three ways in:
//!
//! * `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   — one run; the last stdout line is the result object. With
//!   `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
//!   per-layer ones.
//! * `benchmark all [--out <file>]` — every workload, each run in a
//!   fresh child process, into one result document.
//! * `benchmark compare <a.json> <b.json>` — two such documents judged
//!   by the bounds in `BENCHMARK.json`.
//!
//! See `README.md` beside this package for the metrics and what moves
//! them.

mod host;
mod probe;
mod span;
mod spec;
mod stats;
mod suite;
mod timed;
mod traced;
mod workload;

use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// `--name value` among `args`.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// A numeric option, or its default; `Err` names a value that does not
/// parse.
fn num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match opt(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
            [--quick] [--allow-scalar] [--spans-out <file>]
  benchmark all [--seed <n>] [--seconds <s>] [--repeats <n>] [--quick]
            [--allow-scalar] [--out <file>]
  benchmark compare <a.json> <b.json>";

/// Default seed of every mode.
const SEED: u64 = 1;

fn run(args: &[String]) -> Result<ExitCode, String> {
    let spec = spec::Spec::load();
    let seconds = spec.run_seconds;
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(USAGE.into());
            };
            let load = |p: &String| -> Result<serde_json::Value, String> {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
            };
            let ok = suite::compare(&load(a)?, &load(b)?);
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        Some("all") => {
            let a = suite::SuiteArgs {
                seed: num(args, "--seed", SEED)?,
                seconds: num(args, "--seconds", seconds)?,
                repeats: num(args, "--repeats", 3)?,
                quick: flag(args, "--quick"),
                allow_scalar: flag(args, "--allow-scalar"),
                out: opt(args, "--out").map(str::to_string),
            };
            let doc = suite::all(&a)?;
            let failed = doc["workloads"]
                .as_object()
                .into_iter()
                .flatten()
                .any(|(_, w)| w["failed_ops"].as_u64() != Some(0));
            Ok(if failed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        _ => {
            let name = opt(args, "--workload").ok_or(USAGE)?;
            let w = Workload::find(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {}", names.join(", "))
            })?;
            let seed = num(args, "--seed", SEED)?;
            let seconds = num(args, "--seconds", seconds)?;
            let trace = num(args, "--trace", 0u8)? != 0;
            let quick = flag(args, "--quick");
            if let Some(why) = host::refusal(flag(args, "--allow-scalar")) {
                eprintln!("refusing to measure: {why}");
                return Ok(ExitCode::from(2));
            }
            if w.par_off && std::env::var_os("CDSGD_PAR_THRESHOLD").is_none() {
                // Before the first kernel call caches the threshold, and
                // before any thread exists.
                std::env::set_var("CDSGD_PAR_THRESHOLD", "off");
            }
            eprintln!("host: {}", host::describe(seed, seconds, quick));
            let mut outcome = if trace {
                traced::run(&w, seed, seconds, quick, opt(args, "--spans-out"))
            } else {
                timed::run(&w, seed, seconds, quick)
            };
            for d in spec.drift(trace, &outcome.metrics) {
                outcome.ops.check(false, || d);
            }
            for m in &outcome.metrics {
                eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", spec::result_line(&outcome));
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::Spec;

    /// The `--quick` smoke: every workload, both modes, tiny sizes. It
    /// fails on schema drift against `BENCHMARK.json` — an unknown or
    /// missing metric or workload, a wrong unit — or a failed output
    /// check, never on a timing.
    #[test]
    fn quick_mode_matches_the_contract_on_every_workload() {
        let spec = Spec::load();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names, "workload names");
        for w in WORKLOADS {
            for trace in [false, true] {
                let outcome = if trace {
                    traced::run(&w, SEED, 0.0, true, None)
                } else {
                    timed::run(&w, SEED, 0.0, true)
                };
                let drift = spec.drift(trace, &outcome.metrics);
                assert!(drift.is_empty(), "{} trace {trace}: {drift:?}", w.name);
                assert_eq!(outcome.ops.failed, 0, "{} trace {trace}", w.name);
                let line = spec::result_line(&outcome);
                let v: serde_json::Value = serde_json::from_str(&line).unwrap();
                assert_eq!(v["correct"], true, "{} trace {trace}: {line}", w.name);
            }
        }
    }

    #[test]
    fn options_parse_or_name_the_bad_value() {
        let args: Vec<String> = ["--seed", "7", "--quick", "--seconds", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(num(&args, "--seed", 1u64), Ok(7));
        assert_eq!(num(&args, "--repeats", 3u64), Ok(3));
        assert!(num(&args, "--seconds", 1.0f64)
            .unwrap_err()
            .contains("--seconds"));
        assert!(flag(&args, "--quick") && !flag(&args, "--trace"));
    }
}
