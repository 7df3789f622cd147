//! Table II — top 1-fold accuracy for the pre-split MNIST and
//! Fashion-MNIST stand-ins.
//!
//! Protocol per dataset: a fixed 80/20 split (standing in for the Keras
//! train/test split); baselines fit once on the training side; the ECAD
//! search runs on the training side (with its own inner validation
//! split) and the winning topology is refit on the full training set
//! and scored on the held-out test set.

use ecad_baselines::{
    eval, DecisionTree, GaussianNaiveBayes, LinearSvm, LogisticRegression, RandomForest,
};
use ecad_core::prelude::*;
use ecad_dataset::benchmarks::Benchmark;
use ecad_dataset::scaler;

use crate::context::{ExperimentContext, Scale};
use crate::report::{acc, TextTable};

use super::{dataset, run_search};

/// One dataset row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Best measured baseline accuracy.
    pub best_any_accuracy: f32,
    /// Which baseline achieved it.
    pub best_any_method: String,
    /// Fixed MLP baseline accuracy (sklearn default shape).
    pub mlp_baseline_accuracy: f32,
    /// ECAD-searched MLP accuracy on the held-out test set.
    pub ecad_accuracy: f32,
    /// Topology the search selected.
    pub ecad_topology: String,
    /// Paper reference: best published accuracy.
    pub paper_best_any: f32,
    /// Paper reference: best published MLP accuracy.
    pub paper_mlp: f32,
    /// Paper reference: ECAD accuracy.
    pub paper_ecad: f32,
}

/// Full Table II result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per dataset (MNIST, Fashion-MNIST).
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Dataset",
            "Top Acc (Any)",
            "Top Method",
            "MLP Baseline",
            "ECAD MLP",
            "Paper ECAD",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.dataset.clone(),
                acc(r.best_any_accuracy),
                r.best_any_method.clone(),
                acc(r.mlp_baseline_accuracy),
                acc(r.ecad_accuracy),
                acc(r.paper_ecad),
            ]);
        }
        format!(
            "Table II: Top 1-fold Accuracy (measured vs paper)\n{}",
            t.render()
        )
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> Table2 {
    let rows = Benchmark::ONE_FOLD
        .iter()
        .map(|&b| run_one(ctx, b))
        .collect();
    Table2 { rows }
}

fn run_one(ctx: &ExperimentContext, b: Benchmark) -> Table2Row {
    let ds = dataset(ctx, b);
    let seed = ctx.sub_seed(&format!("table2/{b}"));
    let mut rng = <rt::rand::rngs::StdRng as rt::rand::SeedableRng>::seed_from_u64(seed);
    let (train, test) = ds.split(0.2, &mut rng);

    let quick = ctx.scale != Scale::Full;
    let mut baselines: Vec<(String, f32)> = Vec::new();
    {
        let mut m = DecisionTree::new(if quick { 8 } else { 14 });
        baselines.push((m.name().to_string(), eval::holdout(&mut m, &train, &test)));
    }
    {
        let mut m = RandomForest::new(if quick { 8 } else { 30 }, 10).with_seed(seed);
        baselines.push((m.name().to_string(), eval::holdout(&mut m, &train, &test)));
    }
    {
        let mut m = LinearSvm::new(if quick { 8 } else { 30 }, 1e-4).with_seed(seed);
        baselines.push((m.name().to_string(), eval::holdout(&mut m, &train, &test)));
    }
    {
        let mut m = LogisticRegression::new(if quick { 80 } else { 300 }, 0.5);
        baselines.push((m.name().to_string(), eval::holdout(&mut m, &train, &test)));
    }
    {
        let mut m = GaussianNaiveBayes::new();
        baselines.push((m.name().to_string(), eval::holdout(&mut m, &train, &test)));
    }
    use ecad_baselines::Classifier;

    // Fixed MLP baseline.
    let (train_s, test_s) = scaler::standardize_pair(&train, &test);
    let mlp_topo = ecad_mlp::MlpTopology::builder(ds.n_features(), ds.n_classes())
        .hidden(100, ecad_mlp::Activation::Relu, true)
        .build();
    let mut mlp_rng = <rt::rand::rngs::StdRng as rt::rand::SeedableRng>::seed_from_u64(seed ^ 0xA);
    let mlp_baseline_accuracy = ecad_mlp::Trainer::new(ctx.refit_trainer())
        .fit(&mlp_topo, &train_s, &test_s, &mut mlp_rng)
        .map(|r| r.test_accuracy)
        .unwrap_or(0.0);

    // ECAD search on the training side only, refit on the full train
    // split, scored on the held-out test.
    let search = run_search(
        ctx,
        &train,
        b,
        HwTarget::Fpga(ecad_hw::fpga::FpgaDevice::arria10_gx1150(1)),
        ObjectiveSet::accuracy_only(),
        &format!("table2-search/{b}"),
    );
    let finalists = super::top_topologies(&search, 3);
    assert!(
        !finalists.is_empty(),
        "search produced no feasible candidate"
    );
    let (ecad_accuracy, ecad_topology) = finalists
        .iter()
        .map(|nna| {
            let topo = nna.to_topology(ds.n_features(), ds.n_classes());
            let mut refit_rng =
                <rt::rand::rngs::StdRng as rt::rand::SeedableRng>::seed_from_u64(seed ^ 0xB);
            let acc = ecad_mlp::Trainer::new(ctx.refit_trainer())
                .fit(&topo, &train_s, &test_s, &mut refit_rng)
                .map(|r| r.test_accuracy)
                .unwrap_or(0.0);
            (acc, nna.describe())
        })
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
        .expect("at least one finalist");

    let (best_any_method, best_any_accuracy) = baselines
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("at least one baseline ran");

    Table2Row {
        dataset: b.name().to_string(),
        best_any_accuracy,
        best_any_method,
        mlp_baseline_accuracy,
        ecad_accuracy,
        ecad_topology,
        paper_best_any: b.paper_best_any_accuracy(),
        paper_mlp: b.paper_mlp_baseline_accuracy(),
        paper_ecad: b.paper_ecad_accuracy(),
    }
}

impl rt::json::ToJson for Table2Row {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("dataset", &self.dataset)
            .insert("best_any_accuracy", self.best_any_accuracy)
            .insert("best_any_method", &self.best_any_method)
            .insert("mlp_baseline_accuracy", self.mlp_baseline_accuracy)
            .insert("ecad_accuracy", self.ecad_accuracy)
            .insert("ecad_topology", &self.ecad_topology)
            .insert("paper_best_any", self.paper_best_any)
            .insert("paper_mlp", self.paper_mlp)
            .insert("paper_ecad", self.paper_ecad)
    }
}

impl rt::json::ToJson for Table2 {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("rows", &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_both_rows() {
        let ctx = ExperimentContext::smoke();
        let t = run(&ctx);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].dataset, "mnist");
        assert_eq!(t.rows[1].dataset, "fashion-mnist");
        for r in &t.rows {
            assert!((0.0..=1.0).contains(&r.ecad_accuracy));
        }
        assert!(t.render().contains("mnist"));
    }
}
