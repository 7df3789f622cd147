//! Figure 3 — throughput and hardware efficiency for FPGA designs with
//! 1 and 4 banks of DDR on the credit-g dataset.
//!
//! "We hit the memory bandwidth roofline many times due to only having
//! a single bank of DDR. ... We found mostly a linear scaling going
//! from 1 to 4 ... Higher bandwidth did not produce greater efficiency
//! but did result in higher throughput overall." (§IV-C)
//!
//! Protocol: train one representative credit-g topology (from a short
//! accuracy search), then sweep a population of systolic-grid
//! configurations over Arria 10 devices with 1 and 4 DDR banks and
//! compare the throughput and efficiency distributions.

use ecad_core::prelude::*;
use ecad_dataset::benchmarks::Benchmark;
use ecad_hw::fpga::{FpgaDevice, FpgaModel};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

use crate::context::ExperimentContext;
use crate::report::{sci, TextTable};

use super::{dataset, fpga_space, run_search};

/// One (grid, banks) sample of the sweep.
#[derive(Debug, Clone)]
pub struct BankPoint {
    /// DDR bank count.
    pub banks: u32,
    /// Grid description.
    pub grid: String,
    /// Outputs per second.
    pub outputs_per_s: f64,
    /// Hardware efficiency (effective / potential).
    pub efficiency: f64,
    /// Whether the design was bandwidth-stalled.
    pub bandwidth_bound: bool,
}

/// Aggregate per bank count.
#[derive(Debug, Clone)]
pub struct BankSummary {
    /// DDR bank count.
    pub banks: u32,
    /// Peak outputs/s across the grid population.
    pub max_outputs_per_s: f64,
    /// Mean outputs/s.
    pub mean_outputs_per_s: f64,
    /// Mean efficiency.
    pub mean_efficiency: f64,
    /// Fraction of designs that were bandwidth-bound.
    pub bandwidth_bound_fraction: f64,
}

/// Full Figure 3 result.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Topology used for the sweep.
    pub topology: String,
    /// All sweep samples.
    pub points: Vec<BankPoint>,
    /// Per-bank aggregates (1 bank then 4 banks).
    pub summaries: Vec<BankSummary>,
}

impl Fig3 {
    /// Renders the per-bank summary.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "DDR banks",
            "Max out/s",
            "Mean out/s",
            "Mean efficiency",
            "BW-bound",
        ]);
        for s in &self.summaries {
            t.row(vec![
                s.banks.to_string(),
                sci(s.max_outputs_per_s),
                sci(s.mean_outputs_per_s),
                format!("{:.3}", s.mean_efficiency),
                format!("{:.0}%", 100.0 * s.bandwidth_bound_fraction),
            ]);
        }
        format!(
            "Figure 3: throughput & efficiency vs DDR banks (credit-g, topology {})\n{}",
            self.topology,
            t.render()
        )
    }

    /// Throughput scaling factor from 1 to 4 banks (paper: "mostly
    /// linear", so ≳2).
    pub fn scaling_1_to_4(&self) -> f64 {
        let get = |banks: u32| {
            self.summaries
                .iter()
                .find(|s| s.banks == banks)
                .map(|s| s.max_outputs_per_s)
                .unwrap_or(0.0)
        };
        let one = get(1);
        if one == 0.0 {
            return 0.0;
        }
        get(4) / one
    }

    /// Sweep series as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("banks,grid,outputs_per_s,efficiency,bandwidth_bound\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                p.banks, p.grid, p.outputs_per_s, p.efficiency, p.bandwidth_bound
            ));
        }
        out
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> Fig3 {
    let b = Benchmark::CreditG;
    let ds = dataset(ctx, b);
    // A representative topology from a short accuracy search.
    let search = run_search(
        ctx,
        &ds,
        b,
        HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
        ObjectiveSet::accuracy_only(),
        "fig3-topology",
    );
    let best = search.best_by_accuracy().expect("feasible candidate");
    let topo = best.genome.nna.to_topology(ds.n_features(), ds.n_classes());

    // Sweep a shared population of grid configurations over both DDR
    // configurations. Grids that exceed the device budget are skipped —
    // the population is the same for both bank counts so the comparison
    // stays paired.
    let space = fpga_space(ctx, b);
    let mut rng = StdRng::seed_from_u64(ctx.sub_seed("fig3-grids"));
    let n_grids = match ctx.scale {
        crate::context::Scale::Smoke => 12,
        _ => 60,
    };
    // The bandwidth study concerns the scaling regime: grids large
    // enough to stress the DDR interface (the paper's point is that
    // "scaling to more DSPs requires more data, which requires more
    // memory bandwidth"). Filter out trivially small grids.
    let genomes: Vec<_> = std::iter::from_fn(|| Some(space.sample(&mut rng)))
        .filter(|g| match g.hw {
            HwGenome::FpgaGrid {
                rows, cols, vec, ..
            } => rows * cols * vec >= 128,
            HwGenome::GpuBatch { .. } => false,
        })
        .take(n_grids)
        .collect();

    let mut points = Vec::new();
    let mut summaries = Vec::new();
    for banks in [1u32, 4] {
        let device = FpgaDevice::arria10_gx1150(banks);
        let model = FpgaModel::new(device);
        let mut outs = Vec::new();
        let mut effs = Vec::new();
        let mut bound = 0usize;
        let mut counted = 0usize;
        for g in &genomes {
            let (rows, cols, im, inl, vec, batch) = match g.hw {
                HwGenome::FpgaGrid {
                    rows,
                    cols,
                    interleave_m,
                    interleave_n,
                    vec,
                    batch,
                } => (rows, cols, interleave_m, interleave_n, vec, batch),
                HwGenome::GpuBatch { .. } => continue,
            };
            let grid = match ecad_hw::fpga::GridConfig::new(rows, cols, im, inl, vec) {
                Ok(g) => g,
                Err(_) => continue,
            };
            let shapes = topo.gemm_shapes(batch as usize);
            let perf = match model.evaluate(&grid, &shapes) {
                Ok(p) => p,
                Err(_) => continue,
            };
            counted += 1;
            outs.push(perf.outputs_per_s);
            effs.push(perf.efficiency);
            if perf.bandwidth_bound {
                bound += 1;
            }
            points.push(BankPoint {
                banks,
                grid: grid.describe(),
                outputs_per_s: perf.outputs_per_s,
                efficiency: perf.efficiency,
                bandwidth_bound: perf.bandwidth_bound,
            });
        }
        let n = counted.max(1) as f64;
        summaries.push(BankSummary {
            banks,
            max_outputs_per_s: outs.iter().copied().fold(0.0, f64::max),
            mean_outputs_per_s: outs.iter().sum::<f64>() / n,
            mean_efficiency: effs.iter().sum::<f64>() / n,
            bandwidth_bound_fraction: bound as f64 / n,
        });
    }

    Fig3 {
        topology: topo.describe(),
        points,
        summaries,
    }
}

impl rt::json::ToJson for BankPoint {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("banks", self.banks)
            .insert("grid", &self.grid)
            .insert("outputs_per_s", self.outputs_per_s)
            .insert("efficiency", self.efficiency)
            .insert("bandwidth_bound", self.bandwidth_bound)
    }
}

impl rt::json::ToJson for BankSummary {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("banks", self.banks)
            .insert("max_outputs_per_s", self.max_outputs_per_s)
            .insert("mean_outputs_per_s", self.mean_outputs_per_s)
            .insert("mean_efficiency", self.mean_efficiency)
            .insert("bandwidth_bound_fraction", self.bandwidth_bound_fraction)
    }
}

impl rt::json::ToJson for Fig3 {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("topology", &self.topology)
            .insert("points", &self.points)
            .insert("summaries", &self.summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_bandwidth_scaling() {
        let ctx = ExperimentContext::smoke();
        let f = run(&ctx);
        assert_eq!(f.summaries.len(), 2);
        // More banks never reduce peak throughput.
        assert!(f.scaling_1_to_4() >= 1.0, "scaling {}", f.scaling_1_to_4());
        // The same grid population was scored for both bank counts.
        let ones = f.points.iter().filter(|p| p.banks == 1).count();
        let fours = f.points.iter().filter(|p| p.banks == 4).count();
        assert_eq!(ones, fours);
        assert!(f.render().contains("DDR banks"));
        assert!(f.to_csv().lines().count() > 2);
    }
}
