//! Configuration-file front end.
//!
//! The ECAD flow's entry point is a dataset CSV plus "a configuration
//! file ... containing information on (a) the general NNA structure
//! ... (b) Hardware target including reconfigurable hardware device
//! type, DSP count, memory size ... (c) optimization targets such as
//! accuracy, throughput, latency" (§III). This module parses that file —
//! a small INI dialect, hand-rolled to avoid a dependency — into a
//! [`FlowConfig`].
//!
//! ```ini
//! ; comments start with ; or #
//! [nna]
//! max_layers = 4
//! max_neurons = 512
//!
//! [hardware]
//! target = fpga          ; fpga | gpu | cpu
//! device = arria10       ; a `workers::CATALOG` name
//! ddr_banks = 1
//!
//! [optimization]
//! objectives = accuracy, log_throughput
//! weights = 1.0, 0.08
//! evaluations = 200
//! population = 16
//! seed = 7
//! ```
//!
//! Unspecified keys fall back to defaults, so the minimal configuration
//! is an empty file. A section or key the format does not define (see
//! [`SCHEMA`]) is an error, so a typo never runs silently on defaults.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ecad_hw::fpga::FpgaDevice;
use ecad_mlp::{OptimizerKind, TrainConfig};

use crate::engine::EvolutionConfig;
use crate::fitness::{FitnessRegistry, Objective, ObjectiveError, ObjectiveSet};
use crate::space::{HwFamily, SearchSpace};
use crate::workers::{CatalogError, HwTarget, CATALOG};

/// Error produced while parsing a configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was not a section header, key=value pair, or comment.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A value could not be parsed for its key.
    BadValue {
        /// The key.
        key: String,
        /// The raw value.
        value: String,
        /// 1-based line number the key was set on (0 when the value
        /// did not come from a file line, e.g. a CLI override).
        line: usize,
    },
    /// An unknown hardware target kind (`target =` accepts `fpga`,
    /// `gpu`, or `cpu`).
    UnknownTarget {
        /// The raw value.
        value: String,
        /// 1-based line number.
        line: usize,
    },
    /// A device name outside [`CATALOG`].
    UnknownDevice {
        /// The raw value.
        value: String,
        /// 1-based line number.
        line: usize,
    },
    /// A section header [`SCHEMA`] does not define.
    UnknownSection {
        /// The section name, lowercased.
        section: String,
        /// 1-based line number of the header.
        line: usize,
    },
    /// A key [`SCHEMA`] does not define in its section (`""` above the
    /// first header, where no key is defined).
    UnknownKey {
        /// The section, lowercased.
        section: String,
        /// The key, lowercased.
        key: String,
        /// 1-based line number.
        line: usize,
    },
    /// Objectives and weights lists have different lengths.
    ObjectiveWeightMismatch {
        /// Number of objectives listed.
        objectives: usize,
        /// Number of weights listed.
        weights: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, text } => {
                write!(f, "line {line}: cannot parse {text:?}")
            }
            ConfigError::BadValue { key, value, line } => {
                if *line > 0 {
                    write!(f, "line {line}: invalid value {value:?} for key {key:?}")
                } else {
                    write!(f, "invalid value {value:?} for key {key:?}")
                }
            }
            ConfigError::UnknownTarget { value, line } => {
                write!(
                    f,
                    "line {line}: unknown target {value:?} (expected fpga, gpu, or cpu)"
                )
            }
            ConfigError::UnknownDevice { value, line } => write!(
                f,
                "line {line}: unknown device {value:?} (expected one of {})",
                CATALOG.map(|(name, _)| name).join(", ")
            ),
            ConfigError::UnknownSection { section, line } => write!(
                f,
                "line {line}: unknown section [{section}] (expected one of {})",
                SCHEMA.map(|(name, _)| name).join(", ")
            ),
            ConfigError::UnknownKey { section, key, line } => {
                match SCHEMA.iter().find(|(name, _)| name == section) {
                    Some((_, keys)) => write!(
                        f,
                        "line {line}: unknown key {key:?} in [{section}] (expected one of {})",
                        keys.join(", ")
                    ),
                    None => write!(f, "line {line}: key {key:?} is outside any section"),
                }
            }
            ConfigError::ObjectiveWeightMismatch { objectives, weights } => {
                write!(f, "{objectives} objectives but {weights} weights")
            }
        }
    }
}

impl Error for ConfigError {}

/// Every section the configuration format defines, with its keys.
pub const SCHEMA: [(&str, &[&str]); 3] = [
    (
        "nna",
        &["min_layers", "max_layers", "min_neurons", "max_neurons"],
    ),
    ("hardware", &["target", "device", "ddr_banks"]),
    (
        "optimization",
        &[
            "objectives",
            "weights",
            "evaluations",
            "population",
            "tournament",
            "crossover_rate",
            "seed",
            "threads",
            "selection",
            "eval_timeout_s",
            "max_retries",
            "retry_backoff_ms",
            "epoch_size",
            "stall_window",
            "stall_epsilon",
            "epochs",
            "batch_size",
            "gemm_threads",
            "learning_rate",
        ],
    ),
];

/// A parsed value plus the 1-based line it was set on, so downstream
/// validation errors can point back into the file.
type SpannedSection = HashMap<String, (String, usize)>;

/// Parses INI text into `section -> (header line, key -> (value,
/// line))`. Keys before any section header land in the `""` section,
/// whose header line is 0.
fn parse_ini_spanned(text: &str) -> Result<HashMap<String, (usize, SpannedSection)>, ConfigError> {
    let mut out: HashMap<String, (usize, SpannedSection)> = HashMap::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_ascii_lowercase();
            out.entry(section.clone())
                .or_insert_with(|| (i + 1, SpannedSection::new()));
            continue;
        }
        match line.split_once('=') {
            Some((k, v)) => {
                out.entry(section.clone())
                    .or_default()
                    .1
                    .insert(k.trim().to_ascii_lowercase(), (v.trim().to_string(), i + 1));
            }
            None => {
                return Err(ConfigError::Syntax {
                    line: i + 1,
                    text: raw.to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// Parses INI text into `section -> key -> value`. Keys before any
/// section header land in the `""` section.
///
/// # Errors
///
/// Returns [`ConfigError::Syntax`] for malformed lines.
pub fn parse_ini(text: &str) -> Result<HashMap<String, HashMap<String, String>>, ConfigError> {
    Ok(parse_ini_spanned(text)?
        .into_iter()
        .map(|(section, (_, kv))| (section, kv.into_iter().map(|(k, (v, _))| (k, v)).collect()))
        .collect())
}

/// Rejects the first line, in file order, that opens a section or sets
/// a key [`SCHEMA`] does not define.
fn reject_unknown(ini: &HashMap<String, (usize, SpannedSection)>) -> Result<(), ConfigError> {
    let mut unknown = Vec::new();
    for (section, (header, keys)) in ini {
        let known = SCHEMA.iter().find(|(name, _)| name == section);
        if known.is_none() && *header > 0 {
            let e = ConfigError::UnknownSection {
                section: section.clone(),
                line: *header,
            };
            unknown.push((*header, e));
            continue;
        }
        let known: &[&str] = known.map_or(&[], |(_, keys)| keys);
        for (key, &(_, line)) in keys
            .iter()
            .filter(|(key, _)| !known.contains(&key.as_str()))
        {
            let (section, key) = (section.clone(), key.clone());
            unknown.push((line, ConfigError::UnknownKey { section, key, line }));
        }
    }
    unknown
        .into_iter()
        .min_by_key(|(line, _)| *line)
        .map_or(Ok(()), |(_, e)| Err(e))
}

/// A fully resolved flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Search-space bounds.
    pub space: SearchSpace,
    /// Hardware target (device model).
    pub target: HwTarget,
    /// Evolution hyperparameters.
    pub evolution: EvolutionConfig,
    /// Per-candidate training configuration.
    pub trainer: TrainConfig,
    /// Optimization objectives.
    pub objectives: ObjectiveSet,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            space: SearchSpace::fpga_default(),
            target: HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
            evolution: EvolutionConfig::small(),
            trainer: TrainConfig::fast(),
            objectives: ObjectiveSet::accuracy_only(),
        }
    }
}

fn get_parse<T: std::str::FromStr>(
    section: &SpannedSection,
    key: &str,
    default: T,
) -> Result<T, ConfigError> {
    match section.get(key) {
        None => Ok(default),
        Some((v, _)) => v.parse().map_err(|_| bad_value(section, key)),
    }
}

/// Like [`get_parse`], but also rejects a file value `ok` refuses.
fn get_checked<T: std::str::FromStr>(
    section: &SpannedSection,
    key: &str,
    default: T,
    ok: impl Fn(&T) -> bool,
) -> Result<T, ConfigError> {
    let value = get_parse(section, key, default)?;
    match section.get(key) {
        Some(_) if !ok(&value) => Err(bad_value(section, key)),
        _ => Ok(value),
    }
}

/// A [`ConfigError::BadValue`] for `key` as the file set it.
fn bad_value(section: &SpannedSection, key: &str) -> ConfigError {
    let (value, line) = section.get(key).cloned().unwrap_or_default();
    ConfigError::BadValue {
        key: key.to_string(),
        value,
        line,
    }
}

/// Rejects a `(min, max)` bound pair with `min > max`, naming whichever
/// of the two keys the file set last (the defaults are ordered, so a
/// disordered pair always has one key set).
fn check_bounds(
    section: &SpannedSection,
    (lo_key, lo): (&str, usize),
    (hi_key, hi): (&str, usize),
) -> Result<(), ConfigError> {
    if lo <= hi {
        return Ok(());
    }
    let key = [lo_key, hi_key]
        .into_iter()
        .filter(|k| section.contains_key(*k))
        .max_by_key(|k| section[*k].1)
        .expect("default bounds are ordered");
    Err(bad_value(section, key))
}

impl FlowConfig {
    /// Parses a configuration file's text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on syntax errors, unknown sections or
    /// keys, unparseable or out-of-range values (an unknown objective,
    /// a non-finite weight, a learning rate that is not finite and
    /// positive), unknown devices, or mismatched objective/weight lists.
    /// Every accepted configuration can build an engine and sample its
    /// search space.
    pub fn from_ini(text: &str) -> Result<Self, ConfigError> {
        let ini = parse_ini_spanned(text)?;
        reject_unknown(&ini)?;
        let empty = SpannedSection::new();
        let section = |name| ini.get(name).map_or(&empty, |(_, keys)| keys);
        let (nna, hw, opt) = (section("nna"), section("hardware"), section("optimization"));

        // Hardware target first: it decides the space family. An
        // unrecognized kind is an error, not a silent FPGA default.
        let target_kind = match hw.get("target") {
            None => "fpga",
            Some((v, line)) => match v.as_str() {
                "fpga" | "gpu" | "cpu" => v.as_str(),
                other => {
                    return Err(ConfigError::UnknownTarget {
                        value: other.to_string(),
                        line: *line,
                    })
                }
            },
        };
        let ddr_banks: u32 = get_parse(hw, "ddr_banks", 1)?;
        let device_name = hw
            .get("device")
            .map(|(v, _)| v.as_str())
            .unwrap_or(match target_kind {
                "gpu" => "titanx",
                "cpu" => "xeon",
                _ => "arria10",
            });
        // The defaults are a catalog name and one bank, so the file set
        // whatever the catalog refuses.
        let target = HwTarget::catalog(device_name, ddr_banks).map_err(|e| match e {
            CatalogError::NoDdrBanks => bad_value(hw, "ddr_banks"),
            CatalogError::UnknownDevice => {
                let (value, line) = hw.get("device").cloned().unwrap_or_default();
                ConfigError::UnknownDevice { value, line }
            }
        })?;
        let family = match target {
            HwTarget::Fpga(_) => HwFamily::Fpga,
            HwTarget::Gpu(_) | HwTarget::Cpu(_) => HwFamily::Gpu,
        };
        let mut space = match family {
            HwFamily::Fpga => SearchSpace::fpga_default(),
            HwFamily::Gpu => SearchSpace::gpu_default(),
        };
        let positive = |n: &usize| *n > 0;
        space.min_layers = get_parse(nna, "min_layers", space.min_layers)?;
        space.max_layers = get_checked(nna, "max_layers", space.max_layers, positive)?;
        space.min_neurons = get_checked(nna, "min_neurons", space.min_neurons, positive)?;
        space.max_neurons = get_parse(nna, "max_neurons", space.max_neurons)?;
        check_bounds(nna, ("min_layers", space.min_layers), ("max_layers", space.max_layers))?;
        check_bounds(nna, ("min_neurons", space.min_neurons), ("max_neurons", space.max_neurons))?;

        let mut evolution = EvolutionConfig::small();
        evolution.population = get_checked(opt, "population", evolution.population, positive)?;
        evolution.evaluations = get_checked(opt, "evaluations", evolution.evaluations, positive)?;
        evolution.tournament = get_checked(opt, "tournament", evolution.tournament, positive)?;
        evolution.crossover_rate = get_checked(opt, "crossover_rate", evolution.crossover_rate, |r| {
            (0.0..=1.0).contains(r)
        })?;
        evolution.seed = get_parse(opt, "seed", evolution.seed)?;
        evolution.threads = get_checked(opt, "threads", evolution.threads, positive)?;
        if let Some((sel, _)) = opt.get("selection") {
            evolution.selection = match sel.as_str() {
                "scalar" | "weighted" => crate::engine::SelectionMode::WeightedScalar,
                "nsga2" => crate::engine::SelectionMode::Nsga2,
                _ => return Err(bad_value(opt, "selection")),
            };
        }

        // Fault tolerance: a per-evaluation deadline (seconds; 0 or
        // absent disables it), the transient-failure retry budget, and
        // the base backoff between retries.
        let non_negative = |x: &f64| x.is_finite() && *x >= 0.0;
        let secs = get_checked(opt, "eval_timeout_s", 0.0, non_negative)?;
        evolution.eval_timeout = (secs > 0.0).then(|| std::time::Duration::from_secs_f64(secs));
        evolution.max_retries = get_parse(opt, "max_retries", evolution.max_retries)?;

        // Search-observatory analytics: the epoch cadence (evaluations
        // per population snapshot; 0 or absent means one population),
        // the stall-detector window in epochs, and its flatness epsilon.
        evolution.analytics.epoch_size =
            get_parse(opt, "epoch_size", evolution.analytics.epoch_size)?;
        evolution.analytics.stall_window =
            get_parse(opt, "stall_window", evolution.analytics.stall_window)?;
        evolution.analytics.stall_epsilon = get_checked(
            opt,
            "stall_epsilon",
            evolution.analytics.stall_epsilon,
            non_negative,
        )?;
        let backoff_ms: u64 = get_parse(
            opt,
            "retry_backoff_ms",
            evolution.retry_backoff.as_millis() as u64,
        )?;
        evolution.retry_backoff = std::time::Duration::from_millis(backoff_ms);

        let mut trainer = TrainConfig::fast();
        trainer.epochs = get_parse(opt, "epochs", trainer.epochs)?;
        trainer.batch_size = get_parse(opt, "batch_size", trainer.batch_size)?;
        trainer.gemm_threads = get_parse(opt, "gemm_threads", trainer.gemm_threads)?;
        if opt.contains_key("learning_rate") {
            let lr = get_checked(opt, "learning_rate", 0.0, |lr: &f32| {
                lr.is_finite() && *lr > 0.0
            })?;
            trainer.optimizer = OptimizerKind::Adam { lr };
        }

        // Objectives: comma-separated names; optional parallel weights;
        // a leading '-' requests minimization (e.g. `-latency`).
        let names: Vec<String> = opt
            .get("objectives")
            .map(|(s, _)| s.split(',').map(|x| x.trim().to_string()).collect())
            .unwrap_or_else(|| vec!["accuracy".to_string()]);
        let weights: Vec<f64> = match opt.get("weights") {
            None => vec![1.0; names.len()],
            Some((w, line)) => w
                .split(',')
                .map(|x| {
                    let x = x.trim();
                    x.parse()
                        .ok()
                        .filter(|w: &f64| w.is_finite())
                        .ok_or_else(|| ConfigError::BadValue {
                            key: "weights".to_string(),
                            value: x.to_string(),
                            line: *line,
                        })
                })
                .collect::<Result<_, _>>()?,
        };
        if names.len() != weights.len() {
            return Err(ConfigError::ObjectiveWeightMismatch {
                objectives: names.len(),
                weights: weights.len(),
            });
        }
        let objectives = names
            .iter()
            .zip(&weights)
            .map(|(n, &w)| {
                let (name, maximize) = match n.strip_prefix('-') {
                    Some(stripped) => (stripped.to_string(), false),
                    None => (n.clone(), true),
                };
                Objective {
                    name,
                    weight: w,
                    maximize,
                }
            })
            .collect();
        let set = ObjectiveSet::try_with_registry(objectives, FitnessRegistry::with_builtins());
        let objectives = set.map_err(|e| match e {
            ObjectiveError::UnknownMetric { index, .. } => ConfigError::BadValue {
                key: "objectives".to_string(),
                value: names[index].clone(),
                line: opt.get("objectives").map_or(0, |(_, line)| *line),
            },
            ObjectiveError::Empty => bad_value(opt, "objectives"),
        })?;

        Ok(Self {
            space,
            target,
            evolution,
            trainer,
            objectives,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_gives_defaults() {
        let c = FlowConfig::from_ini("").unwrap();
        assert!(matches!(c.target, HwTarget::Fpga(_)));
        assert_eq!(c.evolution.population, EvolutionConfig::small().population);
        assert_eq!(c.objectives.objectives().len(), 1);
        assert_eq!(c.objectives.objectives()[0].name, "accuracy");
    }

    #[test]
    fn parse_ini_sections_and_comments() {
        let ini = parse_ini("; top\n[a]\nx = 1\n# c\n[b]\ny = hello world\n").unwrap();
        assert_eq!(ini["a"]["x"], "1");
        assert_eq!(ini["b"]["y"], "hello world");
    }

    #[test]
    fn parse_ini_rejects_garbage() {
        let err = parse_ini("[a]\nnot a pair\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 2, .. }));
    }

    #[test]
    fn full_config_round_trip() {
        let text = "
[nna]
max_layers = 2
max_neurons = 64

[hardware]
target = fpga
device = stratix10
ddr_banks = 4

[optimization]
objectives = accuracy, log_throughput
weights = 1.0, 0.08
evaluations = 77
population = 9
seed = 123
threads = 2
epochs = 10
batch_size = 8
gemm_threads = 4
";
        let c = FlowConfig::from_ini(text).unwrap();
        assert_eq!(c.space.max_layers, 2);
        assert_eq!(c.space.max_neurons, 64);
        match &c.target {
            HwTarget::Fpga(d) => {
                assert_eq!(d.name, "Stratix 10 2800");
                assert_eq!(d.ddr.banks, 4);
            }
            other => panic!("wrong target {other:?}"),
        }
        assert_eq!(c.evolution.evaluations, 77);
        assert_eq!(c.evolution.population, 9);
        assert_eq!(c.evolution.seed, 123);
        assert_eq!(c.trainer.epochs, 10);
        assert_eq!(c.trainer.batch_size, 8);
        assert_eq!(c.trainer.gemm_threads, 4);
        let objectives = c.objectives.objectives();
        assert_eq!(objectives.len(), 2);
        assert_eq!(objectives[1].name, "log_throughput");
        assert!((objectives[1].weight - 0.08).abs() < 1e-12);
    }

    #[test]
    fn gpu_target_selects_gpu_space() {
        let c = FlowConfig::from_ini("[hardware]\ntarget = gpu\ndevice = m5000\n").unwrap();
        assert!(matches!(c.target, HwTarget::Gpu(_)));
        assert_eq!(c.space.family, HwFamily::Gpu);
    }

    #[test]
    fn gpu_target_defaults_to_titanx() {
        let c = FlowConfig::from_ini("[hardware]\ntarget = gpu\n").unwrap();
        match c.target {
            HwTarget::Gpu(d) => assert_eq!(d.name, "Titan X"),
            other => panic!("wrong target {other:?}"),
        }
    }

    #[test]
    fn minimization_prefix() {
        let c = FlowConfig::from_ini("[optimization]\nobjectives = accuracy, -latency\n").unwrap();
        let objectives = c.objectives.objectives();
        assert!(objectives[0].maximize);
        assert!(!objectives[1].maximize);
        assert_eq!(objectives[1].name, "latency");
    }

    #[test]
    fn cpu_target_parses() {
        let c = FlowConfig::from_ini("[hardware]\ntarget = cpu\n").unwrap();
        match &c.target {
            HwTarget::Cpu(d) => assert_eq!(d.name, "Xeon 22-core"),
            other => panic!("wrong target {other:?}"),
        }
        assert_eq!(c.space.family, HwFamily::Gpu);
        let d = FlowConfig::from_ini("[hardware]\ntarget = cpu\ndevice = desktop\n").unwrap();
        assert!(matches!(d.target, HwTarget::Cpu(_)));
    }

    #[test]
    fn unknown_device_is_located_and_lists_the_catalog() {
        let err = FlowConfig::from_ini("[hardware]\n\ndevice = tpu\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownDevice {
                value: "tpu".to_string(),
                line: 3,
            }
        );
        let message = err.to_string();
        assert!(
            message.starts_with("line 3: unknown device \"tpu\""),
            "{message}"
        );
        for (name, _) in CATALOG {
            assert!(message.contains(name), "{message} lacks {name}");
        }
    }

    #[test]
    fn unknown_sections_and_keys_are_located_errors() {
        // (file text, the error it must give)
        let unknown_key = |section: &str, key: &str, line| ConfigError::UnknownKey {
            section: section.to_string(),
            key: key.to_string(),
            line,
        };
        let cases = [
            (
                "[optimization]\nseed = 1\nevaluation = 500\n",
                unknown_key("optimization", "evaluation", 3),
            ),
            ("[nna]\nlayers = 3\n", unknown_key("nna", "layers", 2)),
            ("seed = 1\n[optimization]\n", unknown_key("", "seed", 1)),
            (
                "[nna]\nmax_layers = 2\n\n[optimisation]\nevaluations = 500\n",
                ConfigError::UnknownSection {
                    section: "optimisation".to_string(),
                    line: 4,
                },
            ),
            // The first offending line wins, whatever the section order.
            (
                "[hardware]\nbanks = 2\n[nna]\nlayers = 3\n",
                unknown_key("hardware", "banks", 2),
            ),
            (
                "[nna]\nlayers = 3\n[hardware]\nbanks = 2\n",
                unknown_key("nna", "layers", 2),
            ),
            // Unknown names are reported before values are read.
            (
                "[optimization]\npopulation = many\nevaluation = 5\n",
                unknown_key("optimization", "evaluation", 3),
            ),
        ];
        for (text, want) in &cases {
            assert_eq!(&FlowConfig::from_ini(text).unwrap_err(), want, "{text:?}");
        }
        let message = cases[0].1.to_string();
        assert!(message.starts_with("line 3: unknown key \"evaluation\" in [optimization]"));
        assert!(message.contains("evaluations"), "{message}");
        assert!(cases[3]
            .1
            .to_string()
            .starts_with("line 4: unknown section [optimisation]"));
    }

    #[test]
    fn bad_numeric_value_is_error() {
        let err = FlowConfig::from_ini("[optimization]\npopulation = many\n").unwrap_err();
        assert!(matches!(err, ConfigError::BadValue { .. }));
    }

    #[test]
    fn bad_value_reports_its_line() {
        let err =
            FlowConfig::from_ini("[optimization]\nseed = 1\npopulation = many\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadValue {
                key: "population".to_string(),
                value: "many".to_string(),
                line: 3,
            }
        );
        assert!(err.to_string().starts_with("line 3:"));
    }

    #[test]
    fn unknown_target_kind_is_error() {
        let err = FlowConfig::from_ini("[hardware]\n\ntarget = asic\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownTarget {
                value: "asic".to_string(),
                line: 3,
            }
        );
        assert!(err.to_string().contains("expected fpga, gpu, or cpu"));
    }

    #[test]
    fn fault_tolerance_keys_parse() {
        let c = FlowConfig::from_ini(
            "[optimization]\neval_timeout_s = 2.5\nmax_retries = 7\nretry_backoff_ms = 40\n",
        )
        .unwrap();
        assert_eq!(
            c.evolution.eval_timeout,
            Some(std::time::Duration::from_secs_f64(2.5))
        );
        assert_eq!(c.evolution.max_retries, 7);
        assert_eq!(
            c.evolution.retry_backoff,
            std::time::Duration::from_millis(40)
        );

        // 0 disables the deadline; negatives are rejected with a line.
        let off = FlowConfig::from_ini("[optimization]\neval_timeout_s = 0\n").unwrap();
        assert_eq!(off.evolution.eval_timeout, None);
        let err = FlowConfig::from_ini("[optimization]\neval_timeout_s = -1\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::BadValue { ref key, line: 2, .. } if key == "eval_timeout_s")
        );
    }

    #[test]
    fn analytics_keys_parse() {
        let c = FlowConfig::from_ini(
            "[optimization]\nepoch_size = 25\nstall_window = 3\nstall_epsilon = 0.001\n",
        )
        .unwrap();
        assert_eq!(c.evolution.analytics.epoch_size, 25);
        assert_eq!(c.evolution.analytics.stall_window, 3);
        assert!((c.evolution.analytics.stall_epsilon - 0.001).abs() < 1e-12);

        // Defaults when absent.
        let d = FlowConfig::from_ini("").unwrap();
        assert_eq!(d.evolution.analytics, crate::analytics::AnalyticsConfig::default());

        // Negative epsilon is rejected with its line.
        let err = FlowConfig::from_ini("[optimization]\nstall_epsilon = -1\n").unwrap_err();
        assert!(
            matches!(err, ConfigError::BadValue { ref key, line: 2, .. } if key == "stall_epsilon")
        );
    }

    #[test]
    fn out_of_range_values_are_rejected_with_key_and_line() {
        // (file text, the key the error must name, that key's line)
        let cases = [
            ("[optimization]\ncrossover_rate = 1.5\n", "crossover_rate", 2),
            ("[optimization]\ncrossover_rate = nan\n", "crossover_rate", 2),
            ("[optimization]\ncrossover_rate = -0.5\n", "crossover_rate", 2),
            ("[optimization]\npopulation = 0\n", "population", 2),
            ("[optimization]\nevaluations = 0\n", "evaluations", 2),
            ("[optimization]\ntournament = 0\n", "tournament", 2),
            ("[optimization]\nthreads = 0\n", "threads", 2),
            ("[nna]\nmin_layers = 3\nmax_layers = 1\n", "max_layers", 3),
            ("[nna]\nmax_layers = 1\nmin_layers = 3\n", "min_layers", 3),
            ("[nna]\nmin_neurons = 50\nmax_neurons = 4\n", "max_neurons", 3),
            ("[nna]\nmin_neurons = 600\n", "min_neurons", 2),
            ("[nna]\nmax_layers = 0\n", "max_layers", 2),
            ("[nna]\nmin_neurons = 0\n", "min_neurons", 2),
            ("[hardware]\nddr_banks = 0\n", "ddr_banks", 2),
            ("[optimization]\nobjectives = accurcy\n", "objectives", 2),
            ("[optimization]\nobjectives = accuracy, -latncy\n", "objectives", 2),
            ("[optimization]\nweights = nan\n", "weights", 2),
            ("[optimization]\nobjectives = accuracy, latency\nweights = 1, inf\n", "weights", 3),
            ("[optimization]\nlearning_rate = -1\n", "learning_rate", 2),
            ("[optimization]\nlearning_rate = 0\n", "learning_rate", 2),
            ("[optimization]\nlearning_rate = nan\n", "learning_rate", 2),
        ];
        for (text, key, line) in cases {
            match FlowConfig::from_ini(text) {
                Err(ConfigError::BadValue { key: k, line: l, .. }) => {
                    assert_eq!((k.as_str(), l), (key, line), "{text:?}")
                }
                other => panic!("{text:?} was not rejected: {other:?}"),
            }
        }
        // The boundaries themselves stay valid.
        let edge = FlowConfig::from_ini(
            "[nna]\nmin_layers = 2\nmax_layers = 2\nmin_neurons = 8\nmax_neurons = 8\n\
             [optimization]\ncrossover_rate = 1\npopulation = 1\ntournament = 1\n",
        )
        .unwrap();
        assert_eq!((edge.space.max_layers, edge.space.min_neurons), (2, 8));
        assert_eq!(edge.evolution.crossover_rate, 1.0);
    }

    #[test]
    fn weight_count_mismatch_is_error() {
        let err =
            FlowConfig::from_ini("[optimization]\nobjectives = a, b\nweights = 1.0\n").unwrap_err();
        assert!(matches!(err, ConfigError::ObjectiveWeightMismatch { .. }));
    }

    #[test]
    fn learning_rate_sets_adam() {
        let c = FlowConfig::from_ini("[optimization]\nlearning_rate = 0.01\n").unwrap();
        assert!(
            matches!(c.trainer.optimizer, OptimizerKind::Adam { lr } if (lr - 0.01).abs() < 1e-9)
        );
    }
}
