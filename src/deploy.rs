//! Shared construction for the multi-process deployment binaries.
//!
//! The `psd` (server shard) and `worker` binaries run in separate OS
//! processes but must agree *exactly* on the model initialisation, the
//! dataset, and the key partitioning — any divergence and the TCP run no
//! longer reproduces the in-process one. Building all three from string
//! specs in one place makes that agreement structural: every process
//! (and the integration tests) calls these helpers with the same flags.

use cd_sgd::{Algorithm, JsonlSink, ServerOptKind, Telemetry, Topology};
use cdsgd_data::synth::{self, SynthSpec};
use cdsgd_data::{toy, Dataset};
use cdsgd_nn::{models, Sequential};
use cdsgd_tensor::SmallRng64;

/// Value of `--name <value>` from the process arguments, if present.
pub fn arg(name: &str) -> Option<String> {
    lookup(&process_args(), name).map(str::to_string)
}

/// Parsed `--name <value>`, or `default` when the flag is absent.
/// Exits with status 2 on an unparsable value.
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    lookup_or(&process_args(), name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Is the boolean switch `--name` present?
pub fn flag(name: &str) -> bool {
    switch(&process_args(), name)
}

fn process_args() -> Vec<String> {
    std::env::args().collect()
}

/// Telemetry from the shared `--trace <path>` flag: a [`JsonlSink`]
/// writing one event per line when the flag is present, disabled (and
/// therefore zero-cost) when it is absent. All three deployment
/// binaries accept the flag through this one helper, so a trace from
/// any process parses with the same [`cd_sgd::telemetry`] event model.
/// Exits with status 2 when the file cannot be created — a requested
/// trace that silently vanishes is worse than no trace.
pub fn trace_telemetry() -> Telemetry {
    match arg("trace") {
        None => Telemetry::disabled(),
        Some(path) => match JsonlSink::create(&path) {
            Ok(sink) => Telemetry::new(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot create --trace file {path}: {e}");
                std::process::exit(2)
            }
        },
    }
}

/// Per-binary defaults for the algorithm knobs consumed by
/// [`parse_algorithm`] — the front ends historically default differently
/// (`cdsgd` uses the paper's MNIST settings, `worker` the integration
/// tests' toy settings), so the shared parser takes them as input.
#[derive(Clone, Copy, Debug)]
pub struct AlgoDefaults {
    /// Default `--local-lr` (eq. 11's lr_loc).
    pub local_lr: f32,
    /// Default `--threshold` (2-bit quantization α).
    pub threshold: f32,
    /// Default `--k` (CD-SGD correction period).
    pub k: usize,
    /// Default `--warmup` (CD-SGD warm-up iterations).
    pub warmup: usize,
}

/// `--name <value>` within an argument slice: the one flag grammar
/// [`arg`] and every parser read.
fn lookup<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == &format!("--{name}"))
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Is the switch `--name` in `args`?
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == &format!("--{name}"))
}

/// Parsed `--name <value>` from an argument slice, `None` when absent;
/// a malformed value is a usage `Err`, never a panic.
fn lookup_parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    lookup(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value for --{name}: {v}"))
        })
        .transpose()
}

/// [`lookup_parsed`], or `default` when absent.
fn lookup_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    Ok(lookup_parsed(args, name)?.unwrap_or(default))
}

/// Parse `--algo` plus its knob flags (`--local-lr`, `--threshold`,
/// `--k`, `--warmup`, `--dc-lambda`, `--sync-period`, `--ef-momentum`)
/// from `args` into a validated [`Algorithm`]. `Err` carries a usage
/// message for stderr; callers exit 2 on it. The accepted names cover
/// every variant the strategy layer implements.
pub fn parse_algorithm(args: &[String], defaults: &AlgoDefaults) -> Result<Algorithm, String> {
    let local_lr: f32 = lookup_or(args, "local-lr", defaults.local_lr)?;
    let threshold: f32 = lookup_or(args, "threshold", defaults.threshold)?;
    let k: usize = lookup_or(args, "k", defaults.k)?;
    let warmup: usize = lookup_or(args, "warmup", defaults.warmup)?;
    let name = lookup(args, "algo").unwrap_or("cdsgd");
    let algo = match name {
        "ssgd" => Algorithm::SSgd,
        "odsgd" => Algorithm::OdSgd { local_lr },
        "bitsgd" => Algorithm::BitSgd { threshold },
        "cdsgd" => Algorithm::CdSgd {
            local_lr,
            codec: cd_sgd::Codec::TwoBit { threshold },
            k,
            warmup,
            dc_lambda: lookup_or(args, "dc-lambda", 0.0)?,
        },
        "localsgd" => Algorithm::LocalSgd {
            local_lr,
            sync_period: lookup_or(args, "sync-period", 4)?,
        },
        "arsgd" => Algorithm::ArSgd,
        "efsgd" => Algorithm::EfSgd {
            momentum: lookup_or(args, "ef-momentum", 0.9)?,
        },
        "ecqsgd" => Algorithm::EcqSgd {
            threshold,
            alpha: lookup_or(args, "ecq-alpha", 1.0)?,
            beta: lookup_or(args, "ecq-beta", 1.0)?,
        },
        other => {
            return Err(format!(
                "unknown algorithm {other} (ssgd|odsgd|bitsgd|cdsgd|localsgd|arsgd|efsgd|ecqsgd)"
            ))
        }
    };
    algo.validate()
        .map_err(|e| format!("invalid --algo {name}: {e}"))?;
    Ok(algo)
}

/// Parse `--topology <ps|ring|decentralized>` into a
/// [`cd_sgd::Topology`]. The decentralized mode also consumes `--codec
/// <2bit|1bit|topk|qsgd>` (default 2bit) and its knobs (`--threshold`,
/// `--topk-ratio`, `--qsgd-levels`) for the model-difference compressor.
/// Absent flag means [`Topology::Ps`] — the pre-topology default, byte
/// identical to older deployments. `Err` carries a usage message for
/// stderr; callers exit 2 on it.
pub fn parse_topology(args: &[String], defaults: &AlgoDefaults) -> Result<Topology, String> {
    let Some(name) = lookup(args, "topology") else {
        return Ok(Topology::Ps);
    };
    Ok(match name {
        "ps" => Topology::Ps,
        "ring" => Topology::Ring,
        "decentralized" => {
            let codec = match lookup(args, "codec").unwrap_or("2bit") {
                "2bit" => cd_sgd::Codec::TwoBit {
                    threshold: lookup_or(args, "threshold", defaults.threshold)?,
                },
                "1bit" => cd_sgd::Codec::OneBit,
                "topk" => cd_sgd::Codec::TopK {
                    ratio: lookup_or(args, "topk-ratio", 0.01)?,
                },
                "qsgd" => cd_sgd::Codec::Qsgd {
                    levels: lookup_or(args, "qsgd-levels", 4)?,
                    seed: lookup_or(args, "qsgd-seed", 7)?,
                },
                other => return Err(format!("unknown codec {other} (2bit|1bit|topk|qsgd)")),
            };
            Topology::Decentralized { codec }
        }
        other => return Err(format!("unknown topology {other} (ps|ring|decentralized)")),
    })
}

/// Parse elastic-membership flags into a [`cdsgd_ps::ElasticConfig`]:
/// `--min-quorum <n>` (fewest active workers the server keeps serving
/// with) and `--heartbeat-ms <ms>` (evict a worker silent that long).
/// Either flag alone enables elastic membership; neither present means
/// fixed membership (`Ok(None)`), keeping default runs bit-identical.
/// `Err` carries a usage message for stderr; callers exit 2 on it.
pub fn parse_elastic(args: &[String]) -> Result<Option<cdsgd_ps::ElasticConfig>, String> {
    let has_quorum = lookup(args, "min-quorum").is_some();
    let has_heartbeat = lookup(args, "heartbeat-ms").is_some();
    if !has_quorum && !has_heartbeat {
        return Ok(None);
    }
    let min_quorum: usize = lookup_or(args, "min-quorum", 1)?;
    if min_quorum == 0 {
        return Err("--min-quorum must be at least 1".into());
    }
    let mut elastic = cdsgd_ps::ElasticConfig::new(min_quorum);
    if has_heartbeat {
        let ms: u64 = lookup_or(args, "heartbeat-ms", 0)?;
        if ms == 0 {
            return Err("--heartbeat-ms must be a positive number of milliseconds".into());
        }
        elastic = elastic.with_heartbeat_timeout(std::time::Duration::from_millis(ms));
    }
    Ok(Some(elastic))
}

/// Parse worker auto-reconnect flags into a
/// [`cdsgd_net::ReconnectConfig`]: `--reconnect-retries <n>` (redial
/// attempts per link drop) and `--reconnect-backoff-ms <ms>` (base of
/// the exponential backoff between attempts, doubled per attempt and
/// capped at [`cdsgd_net::RECONNECT_BACKOFF_CAP`]). Either flag alone
/// gives the worker's session a retry budget; neither present means
/// none (`Ok(None)`): the same session keeps no replay copies, never
/// redials and returns a failed request's own error, so default runs
/// stay bit-identical. `Err` carries a usage message for stderr;
/// callers exit 2 on it.
pub fn parse_reconnect(args: &[String]) -> Result<Option<cdsgd_net::ReconnectConfig>, String> {
    let has_retries = lookup(args, "reconnect-retries").is_some();
    let has_backoff = lookup(args, "reconnect-backoff-ms").is_some();
    if !has_retries && !has_backoff {
        return Ok(None);
    }
    let defaults = cdsgd_net::ReconnectConfig::default();
    let retries: u32 = lookup_or(args, "reconnect-retries", defaults.retries)?;
    if retries == 0 {
        return Err("--reconnect-retries must be at least 1".into());
    }
    let ms: u64 = lookup_or(
        args,
        "reconnect-backoff-ms",
        defaults.backoff.as_millis() as u64,
    )?;
    if ms == 0 {
        return Err("--reconnect-backoff-ms must be a positive number of milliseconds".into());
    }
    Ok(Some(cdsgd_net::ReconnectConfig {
        retries,
        backoff: std::time::Duration::from_millis(ms),
    }))
}

/// Recovery flags shared by the server-shard front ends:
/// `--checkpoint-dir <dir>` names the durable snapshot directory,
/// `--checkpoint-every <rounds>` schedules writes at round boundaries
/// (without it the shard only snapshots on demand), and `--resume` asks
/// the shard to restart from the latest complete checkpoint set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryFlags {
    /// `--checkpoint-dir`, when present.
    pub dir: Option<std::path::PathBuf>,
    /// `--checkpoint-every`, when present (validated positive).
    pub every: Option<u64>,
    /// `--resume` switch.
    pub resume: bool,
}

/// Parse [`RecoveryFlags`] out of `args`. Both `--checkpoint-every` and
/// `--resume` need `--checkpoint-dir` to mean anything, so either
/// without it is an error rather than a silently inert flag.
pub fn parse_recovery(args: &[String]) -> Result<RecoveryFlags, String> {
    let dir = lookup(args, "checkpoint-dir").map(std::path::PathBuf::from);
    let every: Option<u64> = lookup_parsed(args, "checkpoint-every")?;
    let resume = switch(args, "resume");
    if every == Some(0) {
        return Err("--checkpoint-every must be at least 1 round".into());
    }
    if dir.is_none() && (every.is_some() || resume) {
        return Err("--checkpoint-every and --resume need --checkpoint-dir".into());
    }
    Ok(RecoveryFlags { dir, every, resume })
}

/// Parse the server-side optimizer from `--momentum <μ>` and the
/// `--nesterov` switch in `args`: no momentum means plain SGD (the
/// paper's eq. 10), a positive momentum selects heavy-ball, and
/// `--nesterov` upgrades it to the look-ahead form.
pub fn parse_server_opt(args: &[String]) -> Result<ServerOptKind, String> {
    let momentum: f32 = lookup_or(args, "momentum", 0.0)?;
    if !(0.0..1.0).contains(&momentum) {
        return Err(format!("--momentum must be in [0, 1), got {momentum}"));
    }
    let nesterov = switch(args, "nesterov");
    if nesterov {
        if momentum == 0.0 {
            return Err("--nesterov requires --momentum > 0".into());
        }
        Ok(ServerOptKind::Nesterov { momentum })
    } else if momentum > 0.0 {
        Ok(ServerOptKind::HeavyBall { momentum })
    } else {
        Ok(ServerOptKind::PlainSgd)
    }
}

/// A parsed `--model` spec.
enum ModelSpec {
    /// `mlp:<sizes>`: dense layers of these widths, input first.
    Mlp(Vec<usize>),
    /// `lenet5[:classes]` (10 classes by default).
    Lenet5(usize),
}

/// Parse `--model`: an unknown or malformed spec is a usage `Err`.
fn parse_model(spec: &str) -> Result<ModelSpec, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let malformed = |form: &str| format!("malformed model spec {spec} ({form})");
    match kind {
        "mlp" => {
            let sizes: Vec<usize> = rest
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<_, _>>()
                .map_err(|_| malformed("mlp:<sizes>"))?;
            match sizes.len() {
                0 | 1 => Err(malformed("mlp needs at least in,out sizes")),
                _ => Ok(ModelSpec::Mlp(sizes)),
            }
        }
        "lenet5" if rest.is_empty() => Ok(ModelSpec::Lenet5(10)),
        "lenet5" => rest
            .parse()
            .map(ModelSpec::Lenet5)
            .map_err(|_| malformed("lenet5[:classes]")),
        other => Err(format!(
            "unknown model spec {other} (mlp:<sizes>|lenet5[:classes])"
        )),
    }
}

/// Build a model from a spec string: `mlp:8,32,4` (layer sizes) or
/// `lenet5[:classes]`. Deterministic in the RNG, so every process seeded
/// identically constructs bit-identical weights. Panics on a spec
/// [`check_model`] refuses.
pub fn build_model(spec: &str, rng: &mut SmallRng64) -> Sequential {
    match parse_model(spec).unwrap_or_else(|e| panic!("{e}")) {
        ModelSpec::Mlp(sizes) => models::mlp(&sizes, rng),
        ModelSpec::Lenet5(classes) => models::lenet5(classes, rng),
    }
}

/// Features per `blobs` sample.
const BLOBS_DIM: usize = 8;

/// The `[channels, height, width]` of one image of `spec`.
fn image_shape(spec: SynthSpec) -> Vec<usize> {
    vec![spec.channels, spec.size, spec.size]
}

/// The shape of one sample of dataset `name`.
fn sample_shape(name: &str) -> Result<Vec<usize>, String> {
    match name {
        "blobs" => Ok(vec![BLOBS_DIM]),
        "mnist" => Ok(image_shape(SynthSpec::mnist())),
        "cifar" => Ok(image_shape(SynthSpec::cifar())),
        other => Err(format!("unknown dataset {other} (blobs|mnist|cifar)")),
    }
}

/// Refuse a `--model` that is unknown or malformed, or whose first layer
/// cannot take the samples of `dataset` (when one is given; an unknown
/// one is refused too), naming both shapes. `worker` and `psd` call it
/// before they touch the network, and exit 2 on `Err`.
pub fn check_model(model: &str, dataset: Option<&str>) -> Result<(), String> {
    let takes = match parse_model(model)? {
        ModelSpec::Mlp(sizes) => vec![sizes[0]],
        ModelSpec::Lenet5(_) => image_shape(SynthSpec::mnist()),
    };
    let Some(name) = dataset else {
        return Ok(());
    };
    let gives = sample_shape(name)?;
    if takes == gives {
        Ok(())
    } else {
        Err(format!(
            "--model {model} takes samples of shape {takes:?}, \
             but --dataset {name} gives {gives:?}"
        ))
    }
}

/// The initial global weights for `spec` at `seed` — what the server
/// shards load and every worker replica starts from.
pub fn initial_weights(spec: &str, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SmallRng64::new(seed);
    let mut model = build_model(spec, &mut rng);
    model.export_params()
}

/// Build the `(train, test)` datasets every process agrees on.
pub fn build_dataset(name: &str, samples: usize, seed: u64) -> (Dataset, Dataset) {
    let data = match name {
        "blobs" => toy::gaussian_blobs(samples, BLOBS_DIM, 4, 0.6, seed),
        "mnist" => synth::mnist_like(samples, seed),
        "cifar" => synth::cifar_like(samples, seed),
        other => panic!("unknown dataset {other} (blobs|mnist|cifar)"),
    };
    data.split(0.85)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_specs_are_deterministic() {
        let a = initial_weights("mlp:8,32,4", 5);
        let b = initial_weights("mlp:8,32,4", 5);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = initial_weights("mlp:8,32,4", 6);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn datasets_are_deterministic() {
        let (tr1, te1) = build_dataset("blobs", 100, 7);
        let (tr2, te2) = build_dataset("blobs", 100, 7);
        assert_eq!(tr1.len(), tr2.len());
        assert_eq!(te1.len(), te2.len());
    }

    #[test]
    #[should_panic(expected = "unknown model spec")]
    fn bad_model_spec_panics() {
        initial_weights("transformer:96", 1);
    }

    #[test]
    fn check_model_refuses_a_spec_or_a_dataset_the_model_cannot_take() {
        assert_eq!(check_model("mlp:8,32,4", Some("blobs")), Ok(()));
        assert_eq!(check_model("lenet5", Some("mnist")), Ok(()));
        assert_eq!(check_model("lenet5:4", None), Ok(()));
        assert_eq!(
            check_model("mlp:784,1024,1024,10", Some("mnist")).unwrap_err(),
            "--model mlp:784,1024,1024,10 takes samples of shape [784], \
             but --dataset mnist gives [1, 28, 28]"
        );
        for (model, dataset) in [
            ("lenet5", Some("cifar")),
            ("mlp:8,32,4", Some("imagenet")),
            ("transformer:96", None),
            ("mlp:8", None),
            ("mlp:8,x,4", None),
            ("mlp:", None),
            ("lenet5:ten", None),
        ] {
            let err = check_model(model, dataset).expect_err(model);
            assert!(!err.is_empty());
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const DEFAULTS: AlgoDefaults = AlgoDefaults {
        local_lr: 0.05,
        threshold: 0.05,
        k: 2,
        warmup: 3,
    };

    #[test]
    fn parse_algorithm_covers_every_variant() {
        for (args, expected) in [
            ("--algo ssgd", Algorithm::SSgd),
            (
                "--algo odsgd --local-lr 0.2",
                Algorithm::OdSgd { local_lr: 0.2 },
            ),
            (
                "--algo bitsgd --threshold 0.5",
                Algorithm::BitSgd { threshold: 0.5 },
            ),
            (
                "--algo cdsgd --k 4 --warmup 7",
                Algorithm::cd_sgd(0.05, 0.05, 4, 7),
            ),
            (
                "--algo cdsgd --dc-lambda 0.5",
                Algorithm::cd_sgd(0.05, 0.05, 2, 3).with_delay_compensation(0.5),
            ),
            (
                "--algo localsgd --sync-period 8",
                Algorithm::LocalSgd {
                    local_lr: 0.05,
                    sync_period: 8,
                },
            ),
            ("--algo arsgd", Algorithm::ArSgd),
            ("--algo efsgd", Algorithm::ef_sgd(0.9)),
            ("--algo efsgd --ef-momentum 0.5", Algorithm::ef_sgd(0.5)),
            ("--algo ecqsgd", Algorithm::ecq_sgd(0.05, 1.0, 1.0)),
            (
                "--algo ecqsgd --threshold 0.5 --ecq-alpha 0.9 --ecq-beta 0.8",
                Algorithm::ecq_sgd(0.5, 0.9, 0.8),
            ),
        ] {
            assert_eq!(
                parse_algorithm(&argv(args), &DEFAULTS).unwrap(),
                expected,
                "args: {args}"
            );
        }
        // No --algo falls back to the paper's algorithm.
        assert_eq!(
            parse_algorithm(&argv(""), &DEFAULTS).unwrap(),
            Algorithm::cd_sgd(0.05, 0.05, 2, 3)
        );
    }

    #[test]
    fn parse_algorithm_rejects_bad_input_without_panicking() {
        for args in [
            "--algo adamw",
            "--algo cdsgd --k zero",
            "--algo cdsgd --k 0",
            "--algo localsgd --sync-period 0",
            "--algo efsgd --ef-momentum 1.5",
            "--algo ecqsgd --ecq-beta 1.5",
            "--algo ssgd --local-lr fast",
        ] {
            let err = parse_algorithm(&argv(args), &DEFAULTS)
                .expect_err(&format!("args should fail: {args}"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn parse_topology_covers_every_variant() {
        use cd_sgd::Codec;
        for (args, expected) in [
            ("", Topology::Ps),
            ("--topology ps", Topology::Ps),
            ("--topology ring", Topology::Ring),
            (
                "--topology decentralized",
                Topology::Decentralized {
                    codec: Codec::TwoBit { threshold: 0.05 },
                },
            ),
            (
                "--topology decentralized --codec 2bit --threshold 0.5",
                Topology::Decentralized {
                    codec: Codec::TwoBit { threshold: 0.5 },
                },
            ),
            (
                "--topology decentralized --codec 1bit",
                Topology::Decentralized {
                    codec: Codec::OneBit,
                },
            ),
            (
                "--topology decentralized --codec topk --topk-ratio 0.25",
                Topology::Decentralized {
                    codec: Codec::TopK { ratio: 0.25 },
                },
            ),
            (
                "--topology decentralized --codec qsgd --qsgd-levels 8",
                Topology::Decentralized {
                    codec: Codec::Qsgd { levels: 8, seed: 7 },
                },
            ),
        ] {
            assert_eq!(
                parse_topology(&argv(args), &DEFAULTS).unwrap(),
                expected,
                "args: {args}"
            );
        }
        for args in [
            "--topology mesh",
            "--topology decentralized --codec terngrad",
            "--topology decentralized --codec topk --topk-ratio lots",
        ] {
            let err = parse_topology(&argv(args), &DEFAULTS)
                .expect_err(&format!("args should fail: {args}"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn parse_topology_rejects_tree_and_lists_the_live_names() {
        // `tree` names no topology: a usage error like any unknown name,
        // whose message offers the three that exist.
        let err = parse_topology(&argv("--topology tree"), &DEFAULTS).unwrap_err();
        assert_eq!(err, "unknown topology tree (ps|ring|decentralized)");
    }

    #[test]
    fn parse_elastic_maps_flags() {
        use cdsgd_ps::ElasticConfig;
        use std::time::Duration;
        // No membership flags: fixed membership, bit-identical default.
        assert_eq!(parse_elastic(&argv("")).unwrap(), None);
        assert_eq!(parse_elastic(&argv("--workers 4 --lr 0.1")).unwrap(), None);
        // Either flag alone enables elastic membership.
        assert_eq!(
            parse_elastic(&argv("--min-quorum 2")).unwrap(),
            Some(ElasticConfig::new(2))
        );
        assert_eq!(
            parse_elastic(&argv("--heartbeat-ms 250")).unwrap(),
            Some(ElasticConfig::new(1).with_heartbeat_timeout(Duration::from_millis(250)))
        );
        assert_eq!(
            parse_elastic(&argv("--min-quorum 3 --heartbeat-ms 1000")).unwrap(),
            Some(ElasticConfig::new(3).with_heartbeat_timeout(Duration::from_secs(1)))
        );
    }

    #[test]
    fn parse_elastic_rejects_bad_values_without_panicking() {
        for args in [
            "--min-quorum 0",
            "--min-quorum two",
            "--min-quorum -1",
            "--heartbeat-ms 0",
            "--heartbeat-ms fast",
            "--min-quorum 1 --heartbeat-ms -5",
        ] {
            let err = parse_elastic(&argv(args)).expect_err(&format!("args should fail: {args}"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn parse_reconnect_maps_flags() {
        use cdsgd_net::ReconnectConfig;
        use std::time::Duration;
        // No reconnect flags: a session with no retry budget — the
        // bit-identical default.
        assert_eq!(parse_reconnect(&argv("")).unwrap(), None);
        assert_eq!(
            parse_reconnect(&argv("--workers 4 --min-quorum 1")).unwrap(),
            None
        );
        // Either flag alone arms reconnection, the other defaulting.
        assert_eq!(
            parse_reconnect(&argv("--reconnect-retries 3")).unwrap(),
            Some(ReconnectConfig {
                retries: 3,
                ..ReconnectConfig::default()
            })
        );
        assert_eq!(
            parse_reconnect(&argv("--reconnect-backoff-ms 20")).unwrap(),
            Some(ReconnectConfig {
                backoff: Duration::from_millis(20),
                ..ReconnectConfig::default()
            })
        );
        assert_eq!(
            parse_reconnect(&argv("--reconnect-retries 7 --reconnect-backoff-ms 100")).unwrap(),
            Some(ReconnectConfig {
                retries: 7,
                backoff: Duration::from_millis(100),
            })
        );
    }

    #[test]
    fn parse_reconnect_rejects_bad_values_without_panicking() {
        for args in [
            "--reconnect-retries 0",
            "--reconnect-retries many",
            "--reconnect-retries -2",
            "--reconnect-backoff-ms 0",
            "--reconnect-backoff-ms slow",
            "--reconnect-retries 3 --reconnect-backoff-ms -1",
        ] {
            let err = parse_reconnect(&argv(args)).expect_err(&format!("args should fail: {args}"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn parse_recovery_maps_flags() {
        use std::path::PathBuf;
        // No flags: recovery stays off, the bit-identical default.
        assert_eq!(parse_recovery(&argv("")).unwrap(), RecoveryFlags::default());
        assert_eq!(
            parse_recovery(&argv("--checkpoint-dir /tmp/ck")).unwrap(),
            RecoveryFlags {
                dir: Some(PathBuf::from("/tmp/ck")),
                every: None,
                resume: false,
            }
        );
        assert_eq!(
            parse_recovery(&argv(
                "--checkpoint-dir /tmp/ck --checkpoint-every 8 --resume"
            ))
            .unwrap(),
            RecoveryFlags {
                dir: Some(PathBuf::from("/tmp/ck")),
                every: Some(8),
                resume: true,
            }
        );
    }

    #[test]
    fn parse_recovery_rejects_bad_values_without_panicking() {
        for args in [
            "--checkpoint-dir /tmp/ck --checkpoint-every 0",
            "--checkpoint-dir /tmp/ck --checkpoint-every often",
            "--checkpoint-every 4",
            "--resume",
        ] {
            let err = parse_recovery(&argv(args)).expect_err(&format!("args should fail: {args}"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn parse_server_opt_maps_flags() {
        assert_eq!(
            parse_server_opt(&argv("")).unwrap(),
            ServerOptKind::PlainSgd
        );
        assert_eq!(
            parse_server_opt(&argv("--momentum 0.9")).unwrap(),
            ServerOptKind::HeavyBall { momentum: 0.9 }
        );
        assert_eq!(
            parse_server_opt(&argv("--momentum 0.9 --nesterov")).unwrap(),
            ServerOptKind::Nesterov { momentum: 0.9 }
        );
        assert!(parse_server_opt(&argv("--nesterov")).is_err());
        assert!(parse_server_opt(&argv("--momentum 1.5")).is_err());
        assert!(parse_server_opt(&argv("--momentum big")).is_err());
    }
}
