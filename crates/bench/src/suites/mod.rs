//! The benchmark suites, as library code.
//!
//! Each suite is a set of `rt::bench` registrations. `ecad bench run`
//! is the one way to run them: it runs the suites in-process and
//! records the collected measurements through [`crate::history`].
//! Benchmark IDs are stable identifiers — `BENCH_*.json` history,
//! `ecad bench trend`, and the regression gate key on them — so
//! renaming one orphans its recorded history.

use rt::bench::Criterion;

pub mod kernels;

/// Every suite, in (name, registration) form — the registry behind
/// `ecad bench run --suite NAME` and `--suite all`.
pub const ALL: &[(&str, fn(&mut Criterion))] = &[("kernels", kernels::register)];

/// The registered suite names, in registry (sorted) order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|(name, _)| *name).collect()
}

/// Runs one suite's registrations against `criterion`.
///
/// # Errors
///
/// Returns the unknown name back when no suite matches.
pub fn run_suite(name: &str, criterion: &mut Criterion) -> Result<(), String> {
    match ALL.iter().find(|(n, _)| *n == name) {
        Some((_, register)) => {
            register(criterion);
            Ok(())
        }
        None => Err(format!(
            "unknown suite {name:?} (known: {})",
            names().join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_resolves() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "registry order is the display order");
        let mut c = Criterion::default();
        assert!(run_suite("no_such_suite", &mut c)
            .unwrap_err()
            .contains("kernels"));
    }

    /// A filtered suite run keeps its IDs registered and its closures
    /// executable.
    #[test]
    fn kernels_suite_registers_stable_ids() {
        let mut c = Criterion::default();
        c.filter("argmax");
        // Use a real (cheap) measurement to verify collection works
        // end-to-end through a suite.
        c.iters(1).sample_size(2);
        run_suite("kernels", &mut c).unwrap();
        let ids: Vec<&str> = c.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["matrix/argmax_rows_512"]);
    }
}
