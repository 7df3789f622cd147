//! Golden + fixpoint tests pinning the profile JSON schema.
//!
//! The golden file (`tests/golden/PROFILE_golden.json`) is the
//! contract for `rt::prof::profile_to_json`: a scripted span program on
//! the deterministic `ticks` clock must export byte-identical JSON run
//! to run and match the checked-in copy, and re-serializing the parsed
//! document must be byte-identical (the `rt::json` fixpoint property).
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p ecad-rt --test profile_golden`.

use std::path::PathBuf;

use rt::json::{FromJson, Json};
use rt::prof::{profile_from_json, profile_to_json, ClockKind, ProfileNode, Profiler};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/PROFILE_golden.json")
}

/// A fixed span program shaped like a miniature search: repeated
/// evaluations with nested training/kernel spans, a hardware-model
/// phase, and an engine-side dispatch phase.
fn golden_profile() -> String {
    let p = Profiler::new(ClockKind::Ticks);
    {
        let _install = p.install();
        for _ in 0..3 {
            let _evaluate = rt::prof_span!("evaluate");
            {
                let _train = rt::prof_span!("train");
                for _ in 0..2 {
                    let _epoch = rt::prof_span!("epoch");
                    let _gemm = rt::prof_span!("gemm");
                }
            }
            let _hw = rt::prof_span!("hw_model");
        }
        let _dispatch = rt::prof_span!("dispatch");
    }
    profile_to_json(ClockKind::Ticks, &p.report()).pretty() + "\n"
}

/// Producing the profile from code matches the checked-in golden file
/// byte for byte — any schema change (field order, formatting, child
/// sort order, version) fails here first.
#[test]
fn emitted_profile_matches_golden_file() {
    let generated = golden_profile();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &generated).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with UPDATE_GOLDEN=1)", path.display()));
    assert_eq!(
        generated,
        committed,
        "profile schema drifted from the golden file; if intentional, bump \
         PROFILE_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1"
    );
}

/// The deterministic-clock contract: two identical single-thread runs
/// export byte-identical profile JSON.
#[test]
fn ticks_profile_is_byte_identical_across_runs() {
    assert_eq!(golden_profile(), golden_profile());
}

/// serialize(parse(golden)) == golden: the schema survives the
/// `rt::json` round trip byte-identically.
#[test]
fn golden_file_is_a_serializer_fixpoint() {
    let text = golden_profile();
    let reparsed = Json::parse(&text).unwrap().pretty() + "\n";
    assert_eq!(text, reparsed);
}

/// The typed consumer (`profile_from_json` → `ProfileNode::to_json`)
/// reproduces the exact bytes — producer and consumer agree on every
/// field.
#[test]
fn typed_round_trip_reproduces_golden_bytes() {
    let text = golden_profile();
    let (clock, root) = profile_from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(clock, "ticks");
    assert_eq!(root.find("gemm").unwrap().calls, 6);
    let re_emitted = profile_to_json(ClockKind::Ticks, &root).pretty() + "\n";
    assert_eq!(text, re_emitted);
    // Collapsed export from the same tree is parseable flamegraph input.
    for line in root.to_collapsed().lines() {
        let (path, ns) = line.rsplit_once(' ').unwrap();
        assert!(path.starts_with("engine"));
        ns.parse::<u64>().unwrap();
    }
    assert!(root.to_collapsed().contains("engine;evaluate;train;epoch;gemm "));
    let _ = ProfileNode::from_json(&root.to_json()).unwrap();
}
