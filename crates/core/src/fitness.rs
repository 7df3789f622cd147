//! Fitness functions and their registry.
//!
//! "Result evaluation is done using user defined fitness functions. For
//! example, an accuracy fitness function can simply return the accuracy
//! value ... But it can also scale or weight the value or specify to
//! minimize or maximize the value. Simple evaluations functions can be
//! specified in the configuration file and more complex ones are written
//! in code and added by registering them with the framework." (§III-A)
//!
//! A [`FitnessRegistry`] maps names to extractor functions over
//! [`Measurement`]; an [`ObjectiveSet`] combines named objectives with
//! weights and directions into the scalar the steady-state selection
//! uses, while keeping the per-objective vector for Pareto analysis.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};

use crate::measurement::Measurement;

/// Extracts one scalar from a measurement.
pub type FitnessFn = Arc<dyn Fn(&Measurement) -> f64 + Send + Sync>;

/// A named objective with direction and weight.
#[derive(Clone)]
pub struct Objective {
    /// Registry name of the metric (e.g. `"accuracy"`).
    pub name: String,
    /// Relative weight in the scalarized fitness.
    pub weight: f64,
    /// `true` to maximize, `false` to minimize.
    pub maximize: bool,
}

impl Objective {
    /// A maximizing objective with weight 1.
    pub fn maximize(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1.0,
            maximize: true,
        }
    }

    /// A minimizing objective with weight 1.
    pub fn minimize(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1.0,
            maximize: false,
        }
    }

    /// Adjusts the weight.
    pub fn with_weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }
}

impl fmt::Debug for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Objective({} {} x{})",
            if self.maximize { "max" } else { "min" },
            self.name,
            self.weight
        )
    }
}

/// A registry of named fitness metrics.
///
/// Ships with the paper's built-ins; user code registers more with
/// [`FitnessRegistry::register`].
#[derive(Clone)]
pub struct FitnessRegistry {
    metrics: HashMap<String, FitnessFn>,
}

impl FitnessRegistry {
    /// Creates a registry with the built-in metrics:
    ///
    /// | name | meaning |
    /// |---|---|
    /// | `accuracy` | test accuracy in `[0, 1]` |
    /// | `throughput` | outputs per second |
    /// | `log_throughput` | `log10(1 + outputs/s)` (commensurate with accuracy) |
    /// | `latency` | seconds to first result |
    /// | `efficiency` | effective / potential performance |
    /// | `params` | trainable parameter count |
    /// | `neurons` | total hidden neurons |
    /// | `outputs_per_joule` | outputs/s per watt (intra-family only; see [`crate::measurement::HwMetrics::power_w`]) |
    /// | `log_outputs_per_joule` | `log10(1 + outputs/s/W)` |
    pub fn with_builtins() -> Self {
        let mut r = Self {
            metrics: HashMap::new(),
        };
        r.register("accuracy", |m| m.accuracy as f64);
        r.register("throughput", |m| m.hw.outputs_per_s());
        r.register("log_throughput", |m| (1.0 + m.hw.outputs_per_s()).log10());
        r.register("latency", |m| m.hw.latency_s());
        r.register("efficiency", |m| m.hw.efficiency());
        r.register("params", |m| m.params as f64);
        r.register("neurons", |m| m.neurons as f64);
        r.register("outputs_per_joule", |m| m.hw.outputs_per_joule());
        r.register("log_outputs_per_joule", |m| {
            (1.0 + m.hw.outputs_per_joule()).log10()
        });
        r
    }

    /// Registers (or replaces) a named metric.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&Measurement) -> f64 + Send + Sync + 'static,
    {
        self.metrics.insert(name.into(), Arc::new(f));
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&FitnessFn> {
        self.metrics.get(name)
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.metrics.keys().cloned().collect();
        v.sort();
        v
    }
}

impl Default for FitnessRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl fmt::Debug for FitnessRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FitnessRegistry({:?})", self.names())
    }
}

/// A weighted set of objectives evaluated against a registry.
#[derive(Debug, Clone)]
pub struct ObjectiveSet {
    objectives: Vec<Objective>,
    registry: FitnessRegistry,
}

impl ObjectiveSet {
    /// Builds a set over the built-in registry.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty or references an unknown metric.
    pub fn new(objectives: Vec<Objective>) -> Self {
        Self::with_registry(objectives, FitnessRegistry::with_builtins())
    }

    /// Builds a set over a custom registry.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty or references an unknown metric.
    pub fn with_registry(objectives: Vec<Objective>, registry: FitnessRegistry) -> Self {
        assert!(!objectives.is_empty(), "need at least one objective");
        for o in &objectives {
            assert!(
                registry.get(&o.name).is_some(),
                "unknown fitness metric {:?}; registered: {:?}",
                o.name,
                registry.names()
            );
        }
        Self {
            objectives,
            registry,
        }
    }

    /// Accuracy only — the Table I/II search.
    pub fn accuracy_only() -> Self {
        Self::new(vec![Objective::maximize("accuracy")])
    }

    /// Accuracy + log-throughput — the Table IV / Fig 2 co-design
    /// search. The 0.02 weight makes one accuracy point (0.01) worth
    /// half a decade of throughput, so the search still climbs the
    /// accuracy hill but breaks ties toward faster hardware mappings —
    /// the trade the paper's Pareto rows exhibit (credit-g gives up one
    /// point of accuracy for three decades of outputs/s).
    pub fn accuracy_and_throughput() -> Self {
        Self::new(vec![
            Objective::maximize("accuracy"),
            Objective::maximize("log_throughput").with_weight(0.02),
        ])
    }

    /// The objectives in order.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Per-objective raw values (direction not applied).
    pub fn values(&self, m: &Measurement) -> Vec<f64> {
        self.objectives
            .iter()
            .map(|o| (self.registry.get(&o.name).expect("validated in ctor"))(m))
            .collect()
    }

    /// Per-objective values with minimization negated, so that larger is
    /// always better — the form Pareto dominance expects.
    pub fn oriented_values(&self, m: &Measurement) -> Vec<f64> {
        self.objectives
            .iter()
            .zip(self.values(m))
            .map(|(o, v)| if o.maximize { v } else { -v })
            .collect()
    }

    /// Weighted scalar fitness (larger is better). Infeasible
    /// measurements score `f64::NEG_INFINITY`.
    pub fn scalar(&self, m: &Measurement) -> f64 {
        if !m.hw.is_feasible() {
            return f64::NEG_INFINITY;
        }
        self.objectives
            .iter()
            .zip(self.oriented_values(m))
            .map(|(o, v)| o.weight * v)
            .sum()
    }
}

impl ToJson for ObjectiveSet {
    fn to_json(&self) -> Json {
        Json::Array(
            self.objectives
                .iter()
                .map(|o| {
                    Json::object()
                        .insert("name", o.name.as_str())
                        .insert("weight", o.weight)
                        .insert("maximize", o.maximize)
                })
                .collect(),
        )
    }
}

impl FromJson for ObjectiveSet {
    /// Rebuilds the set over the built-in registry: custom registered
    /// fitness functions cannot cross a process boundary. Checks what
    /// [`ObjectiveSet::with_registry`] would otherwise panic on.
    fn decode(at: Cursor<'_>) -> Result<ObjectiveSet, DecodeError> {
        let registry = FitnessRegistry::with_builtins();
        let objectives = at.list(|o| {
            let name = o.field("name")?;
            let text = name.str()?;
            if registry.get(text).is_none() {
                return Err(name.error(format!("unknown fitness metric {text:?}")));
            }
            Ok(Objective {
                name: text.to_string(),
                weight: o.get("weight")?,
                maximize: o.get("maximize")?,
            })
        })?;
        if objectives.is_empty() {
            return Err(at.expected("at least one objective"));
        }
        Ok(ObjectiveSet::with_registry(objectives, registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::HwMetrics;

    fn meas(acc: f32, outs: f64) -> Measurement {
        Measurement {
            accuracy: acc,
            train_accuracy: acc,
            params: 1000,
            neurons: 64,
            hw: HwMetrics::Gpu {
                outputs_per_s: outs,
                efficiency: 0.01,
                latency_s: 1e-4,
                effective_gflops: 10.0,
                power_w: 50.0,
            },
            eval_time_s: 0.1,
            train_time_s: 0.08,
            hw_time_s: 0.02,
        }
    }

    #[test]
    fn builtins_extract_expected_values() {
        let r = FitnessRegistry::with_builtins();
        let m = meas(0.9, 1e6);
        assert!((r.get("accuracy").unwrap()(&m) - 0.9).abs() < 1e-6);
        assert_eq!(r.get("throughput").unwrap()(&m), 1e6);
        assert!((r.get("log_throughput").unwrap()(&m) - 6.0).abs() < 0.01);
        assert_eq!(r.get("neurons").unwrap()(&m), 64.0);
    }

    #[test]
    fn custom_metric_registration() {
        let mut r = FitnessRegistry::with_builtins();
        r.register("acc_per_kparam", |m| {
            m.accuracy as f64 / (m.params as f64 / 1000.0)
        });
        let set = ObjectiveSet::with_registry(vec![Objective::maximize("acc_per_kparam")], r);
        assert!((set.scalar(&meas(0.8, 1.0)) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn scalar_prefers_better_accuracy() {
        let set = ObjectiveSet::accuracy_only();
        assert!(set.scalar(&meas(0.9, 1.0)) > set.scalar(&meas(0.8, 1e9)));
    }

    #[test]
    fn combined_set_breaks_ties_with_throughput() {
        let set = ObjectiveSet::accuracy_and_throughput();
        assert!(set.scalar(&meas(0.9, 1e7)) > set.scalar(&meas(0.9, 1e3)));
        // But accuracy still dominates.
        assert!(set.scalar(&meas(0.95, 1e3)) > set.scalar(&meas(0.6, 1e9)));
    }

    #[test]
    fn minimize_orientation_negates() {
        let set = ObjectiveSet::new(vec![Objective::minimize("latency")]);
        let fast = meas(0.5, 1.0);
        let mut slow = meas(0.5, 1.0);
        if let HwMetrics::Gpu {
            ref mut latency_s, ..
        } = slow.hw
        {
            *latency_s = 1.0;
        }
        assert!(set.scalar(&fast) > set.scalar(&slow));
    }

    #[test]
    fn infeasible_scores_neg_infinity() {
        let set = ObjectiveSet::accuracy_only();
        assert_eq!(set.scalar(&Measurement::infeasible("x")), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "unknown fitness metric")]
    fn unknown_metric_rejected() {
        let _ = ObjectiveSet::new(vec![Objective::maximize("nonsense")]);
    }

    #[test]
    #[should_panic(expected = "at least one objective")]
    fn empty_set_rejected() {
        let _ = ObjectiveSet::new(vec![]);
    }

    #[test]
    fn per_watt_metric_extracts() {
        let r = FitnessRegistry::with_builtins();
        let m = meas(0.9, 1e6);
        // 1e6 outputs/s at 50 W => 2e4 outputs per joule.
        assert!((r.get("outputs_per_joule").unwrap()(&m) - 2e4).abs() < 1e-6);
        let set = ObjectiveSet::new(vec![Objective::maximize("log_outputs_per_joule")]);
        assert!(set.scalar(&m) > 0.0);
    }

    #[test]
    fn decoding_refuses_what_the_constructor_would_panic_on() {
        let set = ObjectiveSet::accuracy_and_throughput();
        let back = ObjectiveSet::from_json(&set.to_json()).unwrap();
        assert_eq!(back.objectives().len(), set.objectives().len());
        let err = ObjectiveSet::from_json(&Json::Array(Vec::new())).unwrap_err();
        assert_eq!(err.message, "expected at least one objective, got an array");
        let unknown = Json::Array(vec![Json::object()
            .insert("name", "zz")
            .insert("weight", 1.0)
            .insert("maximize", true)]);
        let err = ObjectiveSet::from_json(&unknown).unwrap_err();
        assert_eq!(err.to_string(), "[0].name: unknown fitness metric \"zz\"");
    }

    #[test]
    fn names_are_sorted() {
        let names = FitnessRegistry::with_builtins().names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"accuracy".to_string()));
    }
}
