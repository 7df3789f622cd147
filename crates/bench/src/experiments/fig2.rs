//! Figure 2 — accuracy versus throughput on the HAR dataset:
//! (a) FPGA (Arria 10), (b) GPU (Quadro M5000).
//!
//! The figure is a scatter of every evolutionary candidate. The paper's
//! reading (§IV-B):
//!
//! * the FPGA shows a strong relationship between the MLP's neuron
//!   distribution and throughput — stepping down ~0.1% from top
//!   accuracy buys an order of magnitude more outputs/s;
//! * the GPU's throughput barely moves across equally-accurate MLPs
//!   ("for GPU, there is roughly no relationship between the number of
//!   neurons and the throughput").
//!
//! The experiment reproduces both searches, emits the scatter series,
//! and computes the summary statistics behind those claims.

use ecad_core::prelude::*;
use ecad_dataset::benchmarks::Benchmark;
use ecad_hw::fpga::FpgaDevice;
use ecad_hw::gpu::GpuDevice;

use crate::context::ExperimentContext;
use crate::report::{acc, sci, TextTable};

use super::{dataset, run_search};

/// Summary of one platform's scatter.
#[derive(Debug, Clone)]
pub struct ScatterSummary {
    /// Platform name.
    pub platform: String,
    /// Highest accuracy reached.
    pub top_accuracy: f32,
    /// Best throughput among candidates within 0.1% of top accuracy.
    pub throughput_at_top: f64,
    /// Best throughput among candidates 0.1%–1% below top accuracy.
    pub throughput_one_notch_down: f64,
    /// Ratio `one_notch_down / at_top` — the paper's "giant leap".
    pub step_down_gain: f64,
    /// Pearson correlation between hidden-neuron count and throughput
    /// (strongly negative for FPGA, near zero for GPU in the paper).
    pub neurons_throughput_correlation: f32,
}

/// Full Figure 2 result.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// FPGA scatter points (accuracy, outputs/s, neurons).
    pub fpga_points: Vec<TracePoint>,
    /// GPU scatter points.
    pub gpu_points: Vec<TracePoint>,
    /// FPGA summary (Fig 2a).
    pub fpga: ScatterSummary,
    /// GPU summary (Fig 2b).
    pub gpu: ScatterSummary,
}

impl Fig2 {
    /// Renders the summaries.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Platform",
            "Top Acc",
            "Out/s @ top",
            "Out/s 1 notch down",
            "Gain",
            "corr(neurons, out/s)",
        ]);
        for s in [&self.fpga, &self.gpu] {
            t.row(vec![
                s.platform.clone(),
                acc(s.top_accuracy),
                sci(s.throughput_at_top),
                sci(s.throughput_one_notch_down),
                format!("{:.1}x", s.step_down_gain),
                format!("{:.2}", s.neurons_throughput_correlation),
            ]);
        }
        format!(
            "Figure 2: accuracy vs throughput on HAR ({} FPGA points, {} GPU points)\n{}",
            self.fpga_points.len(),
            self.gpu_points.len(),
            t.render()
        )
    }

    /// Scatter series as CSV (`platform,accuracy,outputs_per_s,neurons`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("platform,accuracy,outputs_per_s,neurons\n");
        for (platform, pts) in [("fpga", &self.fpga_points), ("gpu", &self.gpu_points)] {
            for p in pts.iter().filter(|p| p.feasible) {
                out.push_str(&format!(
                    "{platform},{},{},{}\n",
                    p.accuracy, p.outputs_per_s, p.neurons
                ));
            }
        }
        out
    }
}

fn summarize(platform: &str, points: &[TracePoint]) -> ScatterSummary {
    let feasible: Vec<&TracePoint> = points.iter().filter(|p| p.feasible).collect();
    let top_accuracy = feasible
        .iter()
        .map(|p| p.accuracy)
        .fold(f32::NEG_INFINITY, f32::max);
    let best_in = |lo: f32, hi: f32| -> f64 {
        feasible
            .iter()
            .filter(|p| p.accuracy >= lo && p.accuracy <= hi)
            .map(|p| p.outputs_per_s)
            .fold(0.0, f64::max)
    };
    let throughput_at_top = best_in(top_accuracy - 0.001, top_accuracy);
    let one_notch = best_in(top_accuracy - 0.010, top_accuracy - 0.001);
    let throughput_one_notch_down = if one_notch > 0.0 {
        one_notch
    } else {
        throughput_at_top
    };
    let xs: Vec<f32> = feasible.iter().map(|p| p.neurons as f32).collect();
    let ys: Vec<f32> = feasible.iter().map(|p| p.outputs_per_s as f32).collect();
    ScatterSummary {
        platform: platform.to_string(),
        top_accuracy,
        throughput_at_top,
        throughput_one_notch_down,
        step_down_gain: if throughput_at_top > 0.0 {
            throughput_one_notch_down / throughput_at_top
        } else {
            0.0
        },
        neurons_throughput_correlation: ecad_tensor::stats::pearson(&xs, &ys).unwrap_or(0.0),
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> Fig2 {
    let b = Benchmark::Har;
    let ds = dataset(ctx, b);
    let fpga_search = run_search(
        ctx,
        &ds,
        b,
        HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
        ObjectiveSet::accuracy_and_throughput(),
        "fig2a",
    );
    let gpu_search = run_search(
        ctx,
        &ds,
        b,
        HwTarget::Gpu(GpuDevice::quadro_m5000()),
        ObjectiveSet::accuracy_and_throughput(),
        "fig2b",
    );
    let fpga_points = fpga_search.trace_points();
    let gpu_points = gpu_search.trace_points();
    let fpga = summarize("Arria 10", &fpga_points);
    let gpu = summarize("Quadro M5000", &gpu_points);
    Fig2 {
        fpga_points,
        gpu_points,
        fpga,
        gpu,
    }
}

impl rt::json::ToJson for ScatterSummary {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("platform", &self.platform)
            .insert("top_accuracy", self.top_accuracy)
            .insert("throughput_at_top", self.throughput_at_top)
            .insert("throughput_one_notch_down", self.throughput_one_notch_down)
            .insert("step_down_gain", self.step_down_gain)
            .insert(
                "neurons_throughput_correlation",
                self.neurons_throughput_correlation,
            )
    }
}

impl rt::json::ToJson for Fig2 {
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
    fn smoke_run_produces_scatters_and_summaries() {
        let ctx = ExperimentContext::smoke();
        let f = run(&ctx);
        assert_eq!(f.fpga_points.len(), ctx.evaluations());
        assert_eq!(f.gpu_points.len(), ctx.evaluations());
        assert!(f.fpga.top_accuracy > 0.0);
        assert!(f.gpu.top_accuracy > 0.0);
        let csv = f.to_csv();
        assert!(csv.starts_with("platform,accuracy"));
        assert!(csv.lines().count() > 1);
        assert!(f.render().contains("Arria 10"));
    }
}
