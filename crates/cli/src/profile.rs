//! `ecad profile`: render a recorded profile document (written by
//! `ecad search --profile-out` or the quickstart example's
//! `--profile-out`) as a self/total attribution table, normalized JSON,
//! or collapsed-stack text for flamegraph tooling.

use rt::json::Json;
use rt::prof::profile_from_json;

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

#[cfg(test)]
mod tests {
    use super::*;
    use rt::prof::ProfileNode;

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
