//! Figure 4 — hardware efficiency for a Stratix 10 2800 and a Titan X
//! searching over the MNIST dataset.
//!
//! "If we consider efficiency for this result, the FPGA utilized 41.5%
//! of the allocated logic, while the GPU only utilized 0.3%. ... without
//! target hardware in mind during MLP development, there is a good
//! chance of losing efficiency." (§IV-D)
//!
//! Protocol: run the accuracy × throughput search once against the
//! Stratix 10 (4 DDR banks) model and once against the Titan X model on
//! the MNIST stand-in; compare the efficiency distributions and the
//! throughput at top accuracy.

use ecad_core::prelude::*;
use ecad_dataset::benchmarks::Benchmark;
use ecad_hw::fpga::FpgaDevice;
use ecad_hw::gpu::GpuDevice;

use crate::context::ExperimentContext;
use crate::report::{acc, sci, TextTable};

use super::{dataset, run_search};

/// Efficiency summary for one platform.
#[derive(Debug, Clone)]
pub struct EfficiencySummary {
    /// Platform name.
    pub platform: String,
    /// Highest accuracy reached.
    pub top_accuracy: f32,
    /// Outputs/s of the top-accuracy candidate.
    pub throughput_at_top: f64,
    /// Efficiency of the top-accuracy candidate.
    pub efficiency_at_top: f64,
    /// Mean efficiency across all feasible candidates.
    pub mean_efficiency: f64,
    /// Max efficiency across all feasible candidates.
    pub max_efficiency: f64,
}

/// Full Figure 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// S10 scatter points.
    pub fpga_points: Vec<TracePoint>,
    /// Titan X scatter points.
    pub gpu_points: Vec<TracePoint>,
    /// S10 summary.
    pub fpga: EfficiencySummary,
    /// Titan X summary.
    pub gpu: EfficiencySummary,
}

impl Fig4 {
    /// Renders the summaries.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Platform",
            "Top Acc",
            "Out/s @ top",
            "Efficiency @ top",
            "Mean eff",
            "Max eff",
        ]);
        for s in [&self.fpga, &self.gpu] {
            t.row(vec![
                s.platform.clone(),
                acc(s.top_accuracy),
                sci(s.throughput_at_top),
                format!("{:.1}%", 100.0 * s.efficiency_at_top),
                format!("{:.1}%", 100.0 * s.mean_efficiency),
                format!("{:.1}%", 100.0 * s.max_efficiency),
            ]);
        }
        format!(
            "Figure 4: hardware efficiency, Stratix 10 vs Titan X (MNIST)\n{}",
            t.render()
        )
    }

    /// FPGA-to-GPU efficiency ratio at top accuracy (paper: 41.5% vs
    /// 0.3%, i.e. two orders of magnitude).
    pub fn efficiency_ratio(&self) -> f64 {
        if self.gpu.efficiency_at_top <= 0.0 {
            return f64::INFINITY;
        }
        self.fpga.efficiency_at_top / self.gpu.efficiency_at_top
    }

    /// Scatter series as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("platform,accuracy,outputs_per_s,efficiency\n");
        for (platform, pts) in [("s10", &self.fpga_points), ("titanx", &self.gpu_points)] {
            for p in pts.iter().filter(|p| p.feasible) {
                out.push_str(&format!(
                    "{platform},{},{},{}\n",
                    p.accuracy, p.outputs_per_s, p.efficiency
                ));
            }
        }
        out
    }
}

fn summarize(platform: &str, points: &[TracePoint]) -> EfficiencySummary {
    let feasible: Vec<&TracePoint> = points.iter().filter(|p| p.feasible).collect();
    let top = feasible
        .iter()
        .max_by(|a, b| {
            a.accuracy
                .partial_cmp(&b.accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one feasible candidate");
    let effs: Vec<f64> = feasible.iter().map(|p| p.efficiency).collect();
    EfficiencySummary {
        platform: platform.to_string(),
        top_accuracy: top.accuracy,
        throughput_at_top: top.outputs_per_s,
        efficiency_at_top: top.efficiency,
        mean_efficiency: effs.iter().sum::<f64>() / effs.len().max(1) as f64,
        max_efficiency: effs.iter().copied().fold(0.0, f64::max),
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> Fig4 {
    let b = Benchmark::Mnist;
    let ds = dataset(ctx, b);
    let fpga_search = run_search(
        ctx,
        &ds,
        b,
        HwTarget::Fpga(FpgaDevice::stratix10_2800(4)),
        ObjectiveSet::accuracy_and_throughput(),
        "fig4-s10",
    );
    let gpu_search = run_search(
        ctx,
        &ds,
        b,
        HwTarget::Gpu(GpuDevice::titan_x()),
        ObjectiveSet::accuracy_and_throughput(),
        "fig4-tx",
    );
    let fpga_points = fpga_search.trace_points();
    let gpu_points = gpu_search.trace_points();
    let fpga = summarize("Stratix 10 2800", &fpga_points);
    let gpu = summarize("Titan X", &gpu_points);
    Fig4 {
        fpga_points,
        gpu_points,
        fpga,
        gpu,
    }
}

impl rt::json::ToJson for EfficiencySummary {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("platform", &self.platform)
            .insert("top_accuracy", self.top_accuracy)
            .insert("throughput_at_top", self.throughput_at_top)
            .insert("efficiency_at_top", self.efficiency_at_top)
            .insert("mean_efficiency", self.mean_efficiency)
            .insert("max_efficiency", self.max_efficiency)
    }
}

impl rt::json::ToJson for Fig4 {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("fpga_points", &self.fpga_points)
            .insert("gpu_points", &self.gpu_points)
            .insert("fpga", &self.fpga)
            .insert("gpu", &self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_fpga_is_more_efficient() {
        let ctx = ExperimentContext::smoke();
        let f = run(&ctx);
        // The paper's central efficiency claim: FPGA candidates use
        // their allocated hardware far better than the GPU uses its
        // fixed silicon.
        assert!(
            f.fpga.max_efficiency > f.gpu.max_efficiency,
            "fpga {} vs gpu {}",
            f.fpga.max_efficiency,
            f.gpu.max_efficiency
        );
        assert!(f.gpu.max_efficiency < 0.2, "gpu efficiency should be low");
        assert!(f.render().contains("Stratix 10"));
        assert!(f.to_csv().contains("titanx"));
    }
}
