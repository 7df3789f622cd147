//! Table III — run-time statistics of the ECAD system.
//!
//! The paper reports, per dataset, the number of NNA/HW combinations
//! evaluated, the average evaluation time, and the total evaluation
//! time, noting that "the ECAD system caches similar configurations and
//! avoids reevaluating them". This experiment runs an accuracy search
//! per benchmark and reports the same statistics (plus the cache-hit
//! count, which the paper describes but does not tabulate). Budgets are
//! scaled, so the interesting comparison is *structure* — e.g. the
//! small-feature datasets evaluate much faster per model than the
//! MNIST-sized ones, exactly as in the paper (2.2 s vs 71 s there).

use ecad_core::prelude::*;
use ecad_dataset::benchmarks::Benchmark;

use crate::context::ExperimentContext;
use crate::report::{run_stats_table, RunStatsRow, TextTable};

use super::{dataset, run_search};

/// Paper reference values for one dataset's Table III row.
#[derive(Debug, Clone, Copy)]
pub struct PaperRuntime {
    /// Models evaluated in the paper's run.
    pub models: usize,
    /// Average model evaluation time, seconds.
    pub avg_s: f64,
    /// Total evaluation time, seconds.
    pub total_s: f64,
}

/// One dataset row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// Unique models evaluated.
    pub models_evaluated: usize,
    /// Dedup-cache hits (candidates not re-evaluated).
    pub cache_hits: usize,
    /// Candidates rejected as infeasible.
    pub infeasible: usize,
    /// Transient-failure retries.
    pub retries: usize,
    /// Deadline timeouts.
    pub timeouts: usize,
    /// Worker respawns.
    pub respawns: usize,
    /// Average per-model evaluation time, seconds.
    pub avg_eval_s: f64,
    /// Total evaluation time, seconds.
    pub total_eval_s: f64,
    /// Wall-clock spent training, seconds.
    pub train_s: f64,
    /// Wall-clock spent in hardware models, seconds.
    pub hw_s: f64,
    /// Paper's reference row.
    pub paper: PaperRuntime,
}

/// Full Table III result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per benchmark.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Renders the table: measured statistics in the shared
    /// [`run_stats_table`] shape, then the paper's reference numbers.
    pub fn render(&self) -> String {
        let measured: Vec<RunStatsRow> = self
            .rows
            .iter()
            .map(|r| RunStatsRow {
                dataset: r.dataset.clone(),
                models: r.models_evaluated,
                cache_hits: r.cache_hits,
                infeasible: r.infeasible,
                retries: r.retries,
                timeouts: r.timeouts,
                respawns: r.respawns,
                avg_eval_s: r.avg_eval_s,
                total_eval_s: r.total_eval_s,
                train_s: r.train_s,
                hw_s: r.hw_s,
            })
            .collect();
        let mut paper = TextTable::new(vec!["Dataset", "Paper Models", "Paper AVG (s)"]);
        for r in &self.rows {
            paper.row(vec![
                r.dataset.clone(),
                r.paper.models.to_string(),
                format!("{:.2}", r.paper.avg_s),
            ]);
        }
        format!(
            "Table III: Run Time Statistics (measured)\n{}\npaper reference:\n{}",
            run_stats_table(&measured),
            paper.render()
        )
    }
}

/// The paper's Table III values.
pub fn paper_runtime(b: Benchmark) -> PaperRuntime {
    match b {
        Benchmark::Mnist => PaperRuntime {
            models: 553,
            avg_s: 71.23,
            total_s: 39388.6,
        },
        Benchmark::FashionMnist => PaperRuntime {
            models: 481,
            avg_s: 82.55,
            total_s: 39708.7,
        },
        Benchmark::CreditG => PaperRuntime {
            models: 10480,
            avg_s: 2.24,
            total_s: 23495.2,
        },
        Benchmark::Har => PaperRuntime {
            models: 3229,
            avg_s: 10.20,
            total_s: 33069.4,
        },
        Benchmark::Phishing => PaperRuntime {
            models: 3534,
            avg_s: 9.24,
            total_s: 32661.3,
        },
        Benchmark::Bioresponse => PaperRuntime {
            models: 5309,
            avg_s: 5.89,
            total_s: 31285.0,
        },
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> Table3 {
    let rows = Benchmark::ALL
        .iter()
        .map(|&b| {
            let ds = dataset(ctx, b);
            let search = run_search(
                ctx,
                &ds,
                b,
                HwTarget::Fpga(ecad_hw::fpga::FpgaDevice::arria10_gx1150(1)),
                ObjectiveSet::accuracy_only(),
                &format!("table3/{b}"),
            );
            let stats = search.stats();
            Table3Row {
                dataset: b.name().to_string(),
                models_evaluated: stats.models_evaluated,
                cache_hits: stats.cache_hits,
                infeasible: stats.infeasible_count,
                retries: stats.retry_count,
                timeouts: stats.timeout_count,
                respawns: stats.respawn_count,
                avg_eval_s: stats.avg_eval_time_s,
                total_eval_s: stats.total_eval_time_s,
                train_s: stats.train_time_s,
                hw_s: stats.hw_time_s,
                paper: paper_runtime(b),
            }
        })
        .collect();
    Table3 { rows }
}

impl rt::json::ToJson for PaperRuntime {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("models", self.models)
            .insert("avg_s", self.avg_s)
            .insert("total_s", self.total_s)
    }
}

impl rt::json::ToJson for Table3Row {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("dataset", &self.dataset)
            .insert("models_evaluated", self.models_evaluated)
            .insert("cache_hits", self.cache_hits)
            .insert("infeasible", self.infeasible)
            .insert("retries", self.retries)
            .insert("timeouts", self.timeouts)
            .insert("respawns", self.respawns)
            .insert("avg_eval_s", self.avg_eval_s)
            .insert("total_eval_s", self.total_eval_s)
            .insert("train_s", self.train_s)
            .insert("hw_s", self.hw_s)
            .insert("paper", self.paper)
    }
}

impl rt::json::ToJson for Table3 {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("rows", &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_all_six_datasets() {
        let ctx = ExperimentContext::smoke();
        let t = run(&ctx);
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            assert_eq!(r.models_evaluated, ctx.evaluations());
            assert!(r.avg_eval_s > 0.0);
            assert!((r.total_eval_s - r.avg_eval_s * r.models_evaluated as f64).abs() < 1e-6);
            // The stage split is a decomposition of the evaluation time:
            // train + hardware-model never exceeds the total.
            assert!(r.train_s > 0.0);
            assert!(r.train_s + r.hw_s <= r.total_eval_s + 1e-6);
        }
        let rendered = t.render();
        assert!(rendered.contains("har"));
        assert!(rendered.contains("Infeasible"));
        assert!(rendered.contains("Retries"));
        assert!(rendered.contains("Respawns"));
        assert!(rendered.contains("Train (s)"));
    }

    #[test]
    fn paper_rows_transcribed() {
        let p = paper_runtime(Benchmark::CreditG);
        assert_eq!(p.models, 10480);
        assert!((p.avg_s - 2.24).abs() < 1e-9);
    }
}
