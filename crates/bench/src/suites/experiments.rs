//! One benchmark per paper artifact: each runs the corresponding
//! experiment end-to-end at smoke scale, keeping every harness path
//! (dataset generation → search → model scoring → aggregation) hot and
//! measured. The `experiments` binary runs the same code at quick/full
//! scale to regenerate the actual tables and figures.

use crate::experiments::{fig2, fig3, fig4, table1, table2, table3, table4};
use crate::ExperimentContext;
use rt::bench::Criterion;

/// Registers the suite's benchmarks on `c`.
pub fn register(c: &mut Criterion) {
    bench_artifact(c, "table1_10fold_accuracy", |ctx| {
        table1::run(ctx);
    });
    bench_artifact(c, "table2_1fold_accuracy", |ctx| {
        table2::run(ctx);
    });
    bench_artifact(c, "table3_runtime_stats", |ctx| {
        table3::run(ctx);
    });
    bench_artifact(c, "table4_pareto_s10_vs_tx", |ctx| {
        table4::run(ctx);
    });
    bench_artifact(c, "fig2_har_acc_vs_throughput", |ctx| {
        fig2::run(ctx);
    });
    bench_artifact(c, "fig3_ddr_bank_scaling", |ctx| {
        fig3::run(ctx);
    });
    bench_artifact(c, "fig4_efficiency_s10_vs_tx", |ctx| {
        fig4::run(ctx);
    });
}

fn bench_artifact(c: &mut Criterion, id: &str, mut run: impl FnMut(&ExperimentContext)) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    // The context is rebuilt per iteration: its cost is part of the
    // harness path.
    g.bench_function(id, |b| b.iter(|| run(&ExperimentContext::smoke())));
    g.finish();
}
