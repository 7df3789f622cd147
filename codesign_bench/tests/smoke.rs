//! Smoke-scale self-test of the benchmark: every workload on a tiny
//! budget through every check in both modes, the cross-run and
//! cross-workload digest contracts, and tampered inputs the checks must
//! catch. Run with
//! `cargo test --release --manifest-path codesign_bench/Cargo.toml`.

use ecad_codesign_bench::{
    check, result_digest, run, run_once, Report, Workload, END_TO_END, PER_LAYER, WORKLOADS,
};

const SEED: u64 = 3;

fn smoke(name: &str) -> Workload {
    Workload::named(name).expect("known workload").smoke()
}

fn provenance<'a>(report: &'a Report, key: &str) -> &'a str {
    report
        .provenance
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .expect("provenance key present")
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.2)
        .expect("metric present")
}

fn checked_run(name: &str, traced: bool) -> Report {
    let report = run(&smoke(name), SEED, 0.0, traced).expect("benchmark infrastructure works");
    assert!(
        report.correct,
        "{name} traced={traced}: {:?}",
        report.failures
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted >= smoke(name).evaluations);
    let declared = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = declared.iter().map(|d| d.0).collect();
    assert_eq!(names, want, "{name} traced={traced}");
    let line = report.to_json().to_string();
    assert!(rt::json::Json::parse(&line).is_ok(), "{line}");
    report
}

#[test]
fn every_workload_passes_every_check_and_repeats_exactly() {
    let mut digests = Vec::new();
    for name in WORKLOADS {
        let a = checked_run(name, false);
        let b = checked_run(name, false);
        for (metric_name, _) in END_TO_END {
            assert!(metric(&a, metric_name) > 0.0, "{name}: {metric_name} is 0");
        }
        for quality in ["best_accuracy", "hypervolume"] {
            assert_eq!(
                metric(&a, quality),
                metric(&b, quality),
                "{name}: {quality}"
            );
        }
        assert_eq!(
            provenance(&a, "result_digest"),
            provenance(&b, "result_digest")
        );
        digests.push((name, provenance(&a, "result_digest").to_string()));
    }
    let fpga = &digests
        .iter()
        .find(|d| d.0 == "creditg-fpga")
        .expect("ran")
        .1;
    let cluster = &digests
        .iter()
        .find(|d| d.0 == "creditg-cluster-ckpt")
        .expect("ran")
        .1;
    assert_eq!(
        fpga, cluster,
        "the cluster search must reproduce the in-process one"
    );
}

#[test]
fn traced_runs_report_every_layer_and_the_no_change_layers_read_zero() {
    let fpga = checked_run("creditg-fpga", true);
    let gpu = checked_run("har-gpu", true);
    let cluster = checked_run("creditg-cluster-ckpt", true);
    for report in [&fpga, &gpu, &cluster] {
        for layer in [
            "tensor.gemm_calls",
            "mlp.minibatches",
            "hw.model_calls",
            "engine.bred",
        ] {
            assert!(metric(report, layer) > 0.0, "{layer}");
        }
    }
    for layer in ["hw.infeasible_ratio", "hw.infeasible_train_s"] {
        assert_eq!(
            metric(&gpu, layer),
            0.0,
            "GPU candidates never fail the hardware model"
        );
    }
    for report in [&fpga, &gpu] {
        for layer in [
            "checkpoint.writes",
            "checkpoint.bytes",
            "checkpoint.save_ms",
            "checkpoint.load_ms",
            "cluster.roundtrip_ms_p50",
            "cluster.roundtrip_ms_p95",
        ] {
            assert_eq!(
                metric(report, layer),
                0.0,
                "{layer} outside the cluster workload"
            );
        }
    }
    let evaluations = smoke("creditg-cluster-ckpt").evaluations as f64;
    assert!(metric(&cluster, "checkpoint.writes") >= evaluations);
    assert!(metric(&cluster, "checkpoint.bytes") > 0.0);
    assert!(metric(&cluster, "cluster.roundtrip_ms_p50") > 0.0);
}

#[test]
fn tampered_results_fail_the_checks() {
    let w = smoke("creditg-fpga");
    let rep = run_once(&w, SEED, false).expect("search runs");
    let good = result_digest(&rep.result);
    assert!(check(&w, &rep, Some(good)).is_empty());

    let failures = check(&w, &rep, Some(good ^ 1));
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("digest"), "{failures:?}");

    let bigger = Workload {
        evaluations: w.evaluations + 1,
        ..w.clone()
    };
    let failures = check(&bigger, &rep, Some(good));
    assert!(
        failures.iter().any(|f| f.contains("budget")),
        "{failures:?}"
    );
}
