//! `ecad profile`: render a recorded profile document (written by
//! `ecad search --profile-out` or the quickstart example's
//! `--profile-out`) as a self/total attribution table, normalized JSON,
//! or collapsed-stack text for flamegraph tooling.
//!
//! Also home to [`tree_from_events`], which rebuilds an approximate
//! span tree from a JSONL event trace: span-close events recorded with
//! a tick-clock profiler attached carry `path` (semicolon-joined
//! ancestry) and `span_us` fields, enough to reconstruct per-path
//! totals and call counts (wall-clock runs omit `span_us` to keep the
//! trace reproducible, so no tree can be rebuilt). `ecad trace
//! --summary` uses it to append the same attribution table the profile
//! renderer prints.

use rt::json::Json;
use rt::prof::{profile_from_json, ProfileNode};

use crate::analyze::{at_line, TraceEvent};
use crate::args::{ArgError, Parsed};
use crate::commands::CliError;

/// `ecad profile --file PROFILE.json [--format text|json|collapsed]`.
///
/// # Errors
///
/// [`CliError::Io`] when the file is unreadable, [`CliError::Domain`]
/// when it is not a schema-version-1 profile document.
pub fn cmd_profile(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["file", "format"])?;
    let path = p.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let json = Json::parse(&text).map_err(|e| CliError::Domain(format!("{path}:{e}")))?;
    let (clock, root) =
        profile_from_json(&json).map_err(|e| CliError::Domain(format!("{path}: {e}")))?;
    match p.get("format").unwrap_or("text") {
        "text" => Ok(format!(
            "{path}: {clock}-clock profile\n\n{}",
            root.render_table()
        )),
        // Re-emitting the parsed document normalizes formatting and
        // proves it round-trips through `rt::json`.
        "json" => Ok(json.pretty() + "\n"),
        "collapsed" => Ok(root.to_collapsed()),
        other => Err(CliError::Args(ArgError::BadValue {
            flag: "--format".to_string(),
            value: other.to_string(),
        })),
    }
}

/// Rebuilds a span-attribution tree from the `path`/`span_us` fields of
/// profiled span-close events in the trace at `file`. `None` when the
/// trace carries no such events (recorded without a profiler, or with
/// the wall clock, which omits `span_us`).
///
/// Totals come from each close's own `span_us`, so a parent that never
/// closes in the trace (the synthetic profiler root) gets the sum of
/// its children; self time is total minus child totals, exactly as in
/// the live profiler's export.
///
/// # Errors
///
/// [`CliError::Domain`], located `file:line: fields.<key>:`, for a
/// `path` that is not a string or a `span_us` that is not an integer.
pub fn tree_from_events(
    file: &str,
    events: &[TraceEvent],
) -> Result<Option<ProfileNode>, CliError> {
    let mut root: Option<ProfileNode> = None;
    for (i, e) in events.iter().enumerate() {
        // Other events carry neither field (a `checkpoint` event's
        // `path` is a file path, without `span_us`).
        let close = e.fields(|j| Ok((j.opt::<String>("path")?, j.opt::<u64>("span_us")?)));
        let (Some(path), Some(us)) = close.map_err(|err| at_line(file, i, err))? else {
            continue;
        };
        let parts: Vec<&str> = path.split(';').filter(|s| !s.is_empty()).collect();
        let Some((first, rest)) = parts.split_first() else {
            continue;
        };
        let root_node = root.get_or_insert_with(|| leaf(first, 1));
        if root_node.name != *first {
            // A second profiler root in the same trace; keep the first.
            continue;
        }
        let mut node = root_node;
        for part in rest {
            let idx = match node.children.iter().position(|c| c.name == **part) {
                Some(i) => i,
                None => {
                    node.children.push(leaf(part, 0));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx];
        }
        node.total_ns += us.saturating_mul(1_000);
        node.calls += 1;
    }
    Ok(root.map(|mut root| {
        finalize(&mut root);
        root
    }))
}

fn leaf(name: &str, calls: u64) -> ProfileNode {
    ProfileNode {
        name: name.to_string(),
        total_ns: 0,
        self_ns: 0,
        calls,
        children: Vec::new(),
    }
}

/// Name-sorts children and derives totals/self times bottom-up.
fn finalize(node: &mut ProfileNode) {
    node.children.sort_by(|a, b| a.name.cmp(&b.name));
    for c in &mut node.children {
        finalize(c);
    }
    let child_sum: u64 = node.children.iter().map(|c| c.total_ns).sum();
    if node.total_ns == 0 && !node.children.is_empty() {
        node.total_ns = child_sum;
    }
    node.self_ns = node.total_ns.saturating_sub(child_sum);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse_events;

    fn close_line(seq: u64, path: &str, us: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"level\":\"debug\",\"target\":\"t\",\"event\":\"x\",\"fields\":{{\
             \"path\":\"{path}\",\"span_us\":{us}}}}}"
        )
    }

    #[test]
    fn rebuilds_tree_from_span_closes() {
        let text = [
            close_line(0, "engine;evaluate;train", 30),
            close_line(1, "engine;evaluate", 50),
            close_line(2, "engine;evaluate;train", 10),
            close_line(3, "engine;evaluate", 60),
        ]
        .join("\n");
        let events = parse_events("t.jsonl", &text).unwrap();
        let tree = tree_from_events("t.jsonl", &events).unwrap().unwrap();
        assert_eq!(tree.name, "engine");
        assert_eq!(tree.total_ns, 110_000); // root = sum of children
        let eval = tree.find("evaluate").unwrap();
        assert_eq!((eval.total_ns, eval.calls), (110_000, 2));
        assert_eq!(eval.self_ns, 110_000 - 40_000);
        let train = tree.find("train").unwrap();
        assert_eq!((train.total_ns, train.self_ns, train.calls), (40_000, 40_000, 2));
    }

    #[test]
    fn unprofiled_trace_yields_no_tree() {
        let text = "{\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"a\",\"fields\":{}}";
        let events = parse_events("t.jsonl", text).unwrap();
        assert!(tree_from_events("t.jsonl", &events).unwrap().is_none());
    }

    #[test]
    fn profile_cmd_renders_all_formats() {
        use rt::prof::{profile_to_json, ClockKind};
        let dir = std::env::temp_dir().join("ecad_cli_profile_cmd");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let tree = ProfileNode {
            name: "engine".to_string(),
            total_ns: 3_000,
            self_ns: 0,
            calls: 1,
            children: vec![ProfileNode {
                name: "gemm".to_string(),
                total_ns: 3_000,
                self_ns: 3_000,
                calls: 2,
                children: Vec::new(),
            }],
        };
        let doc = profile_to_json(ClockKind::Ticks, &tree).pretty() + "\n";
        std::fs::write(&path, &doc).unwrap();

        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let text = crate::run(argv(&format!("profile --file {}", path.display()))).unwrap();
        assert!(text.contains("ticks-clock profile"), "got: {text}");
        assert!(text.contains("gemm"), "got: {text}");

        let json = crate::run(argv(&format!(
            "profile --file {} --format json",
            path.display()
        )))
        .unwrap();
        assert_eq!(json, doc, "json format round-trips the document");

        let collapsed = crate::run(argv(&format!(
            "profile --file {} --format collapsed",
            path.display()
        )))
        .unwrap();
        assert_eq!(collapsed, "engine;gemm 3000\n");

        let err = crate::run(argv(&format!(
            "profile --file {} --format yaml",
            path.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Args(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_cmd_rejects_wrong_schema() {
        let dir = std::env::temp_dir().join("ecad_cli_profile_schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"schema_version\": 99, \"clock\": \"wall\", \"root\": {}}").unwrap();
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let err = crate::run(argv(&format!("profile --file {}", path.display()))).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
