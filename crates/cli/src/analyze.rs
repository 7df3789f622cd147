//! `ecad analyze`: post-processes a JSONL event trace (written by
//! `ecad search --trace-out`) into a convergence report.
//!
//! The report is built from the engine's per-epoch `epoch` events plus
//! the fault-tolerance warnings (`retry`, `eval_timeout`,
//! `worker_respawn`, `stall`). Resumed runs append to the same file
//! with continued sequence numbers, so an interrupted-then-resumed
//! trace analyzes exactly like an uninterrupted one; concatenations of
//! independent runs (sequence restarts) are tolerated too — `analyze`
//! never enforces ordering, that is `ecad trace`'s job.

use std::fmt::Display;

use rt::json::{Cursor, DecodeError, FromJson, Json};
use rt::obs::Event;

use crate::args::Parsed;
use crate::commands::CliError;

/// One line of a JSONL event trace: its sequence number and event kind,
/// checked by the trace line's one decoder ([`Event`]'s `FromJson`), and
/// the line itself, for [`TraceEvent::fields`].
pub struct TraceEvent {
    /// Event kind (the `event` key).
    pub event: &'static str,
    /// Sequence number (the `seq` key).
    pub seq: u64,
    line: Json,
}

impl TraceEvent {
    /// Decodes the line's `fields` object with `decode`; errors name
    /// the field as `fields.<key>`.
    ///
    /// # Errors
    ///
    /// The first field that does not decode.
    pub(crate) fn fields<T>(
        &self,
        decode: impl FnOnce(Cursor<'_>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        decode(Cursor::root(&self.line).field("fields")?)
    }
}

impl FromJson for TraceEvent {
    /// An integer `seq`, then the rest of the line as an [`Event`].
    fn decode(j: Cursor<'_>) -> Result<TraceEvent, DecodeError> {
        let seq = j.get("seq")?;
        Ok(TraceEvent {
            event: Event::decode(j)?.name,
            seq,
            line: j.json().clone(),
        })
    }
}

/// A [`CliError::Domain`] located at line `index + 1` of the trace at
/// `path`.
pub(crate) fn at_line(path: &str, index: usize, e: impl Display) -> CliError {
    CliError::Domain(format!("{path}:{}: {e}", index + 1))
}

/// Parses every line of a JSONL trace into [`TraceEvent`]s.
///
/// # Errors
///
/// Returns [`CliError::Domain`], located `path:line:`, for the first
/// line that is not JSON or does not decode as a [`TraceEvent`].
pub fn parse_events(path: &str, text: &str) -> Result<Vec<TraceEvent>, CliError> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let json =
                Json::parse(line).map_err(|e| at_line(path, i, format!("not valid JSON: {e}")))?;
            TraceEvent::from_json(&json).map_err(|e| at_line(path, i, e))
        })
        .collect()
}

/// One row of the per-epoch convergence table, extracted from an
/// `epoch` event's fields.
pub struct EpochRow {
    /// 1-based epoch index.
    pub epoch: u64,
    /// Unique evaluations completed at the snapshot.
    pub evaluations: u64,
    /// Best scalar fitness so far.
    pub best_fitness: f64,
    /// Median population fitness.
    pub fitness_p50: f64,
    /// Pareto-archive hypervolume (unit-box convention).
    pub hypervolume: f64,
    /// Pareto-archive size.
    pub archive_size: u64,
    /// Mean per-gene entropy of the population, in bits.
    pub gene_entropy_bits: f64,
    /// Mean pairwise normalized genome distance.
    pub mean_distance: f64,
    /// Dedup-cache hit rate.
    pub cache_hit_rate: f64,
    /// Whether the stall detector considered the search stalled.
    pub stalled: bool,
}

impl FromJson for EpochRow {
    /// An `epoch` event's fields: integer `epoch`, `evaluations` and
    /// `archive_size`, a boolean `stalled`, the rest numbers.
    fn decode(j: Cursor<'_>) -> Result<EpochRow, DecodeError> {
        Ok(EpochRow {
            epoch: j.get("epoch")?,
            evaluations: j.get("evaluations")?,
            best_fitness: j.get("best_fitness")?,
            fitness_p50: j.get("fitness_p50")?,
            hypervolume: j.get("hypervolume")?,
            archive_size: j.get("archive_size")?,
            gene_entropy_bits: j.get("gene_entropy_bits")?,
            mean_distance: j.get("mean_distance")?,
            cache_hit_rate: j.get("cache_hit_rate")?,
            stalled: j.get("stalled")?,
        })
    }
}

impl EpochRow {
    fn to_json(&self) -> Json {
        Json::object()
            .insert("epoch", self.epoch)
            .insert("evaluations", self.evaluations)
            .insert("best_fitness", self.best_fitness)
            .insert("fitness_p50", self.fitness_p50)
            .insert("hypervolume", self.hypervolume)
            .insert("archive_size", self.archive_size)
            .insert("gene_entropy_bits", self.gene_entropy_bits)
            .insert("mean_distance", self.mean_distance)
            .insert("cache_hit_rate", self.cache_hit_rate)
            .insert("stalled", self.stalled)
    }
}

/// Counts of the fault-tolerance and lifecycle events that frame the
/// convergence story.
#[derive(Default)]
pub struct FaultSummary {
    /// `stall` warnings (detector rising edges).
    pub stalls: usize,
    /// `retry` warnings.
    pub retries: usize,
    /// `eval_timeout` warnings.
    pub timeouts: usize,
    /// `worker_respawn` warnings.
    pub respawns: usize,
    /// `infeasible` warnings.
    pub infeasible: usize,
    /// `resume` events (interrupted-run continuations in this file).
    pub resumes: usize,
    /// `checkpoint` events.
    pub checkpoints: usize,
    /// `worker_lost` warnings (a remote slot exhausted its reconnect
    /// budget or met a permanent error).
    pub workers_lost: usize,
    /// `cluster_degraded` warnings (every worker was lost; the run
    /// fell back to local evaluation).
    pub degraded: usize,
}

impl FaultSummary {
    fn count(events: &[TraceEvent]) -> Self {
        let mut s = Self::default();
        for e in events {
            match e.event {
                "stall" => s.stalls += 1,
                "retry" => s.retries += 1,
                "eval_timeout" => s.timeouts += 1,
                "worker_respawn" => s.respawns += 1,
                "infeasible" => s.infeasible += 1,
                "resume" => s.resumes += 1,
                "checkpoint" => s.checkpoints += 1,
                "worker_lost" => s.workers_lost += 1,
                "cluster_degraded" => s.degraded += 1,
                _ => {}
            }
        }
        s
    }
}

/// A low-resolution ASCII rendering of the hypervolume curve: one
/// column per epoch, eight height levels, normalized to the final
/// (maximal) value.
fn hypervolume_curve(rows: &[EpochRow]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = rows
        .iter()
        .map(|r| r.hypervolume)
        .fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "(hypervolume stayed at zero)".to_string();
    }
    rows.iter()
        .map(|r| {
            let frac = (r.hypervolume / max).clamp(0.0, 1.0);
            BARS[((frac * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn render_text(path: &str, rows: &[EpochRow], faults: &FaultSummary) -> String {
    let mut out = format!("{path}: {} epoch(s)\n\n", rows.len());
    out.push_str(&format!(
        "{:>5} {:>6} {:>12} {:>12} {:>12} {:>7} {:>9} {:>6} {:>6}  {}\n",
        "epoch", "evals", "best", "p50", "hypervol", "archive", "entropy", "dist", "cache", "stalled"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>6} {:>12.6} {:>12.6} {:>12.8} {:>7} {:>9.3} {:>6.3} {:>5.1}%  {}\n",
            r.epoch,
            r.evaluations,
            r.best_fitness,
            r.fitness_p50,
            r.hypervolume,
            r.archive_size,
            r.gene_entropy_bits,
            r.mean_distance,
            100.0 * r.cache_hit_rate,
            if r.stalled { "yes" } else { "-" },
        ));
    }
    out.push_str(&format!("\nhypervolume curve: {}\n", hypervolume_curve(rows)));
    let monotone = rows
        .windows(2)
        .all(|w| w[1].hypervolume >= w[0].hypervolume);
    if !monotone {
        out.push_str("WARNING: hypervolume column is not monotone — mixed traces?\n");
    }
    out.push_str(&format!(
        "\nfaults: {} stall(s), {} retry(ies), {} timeout(s), {} respawn(s), {} infeasible\n",
        faults.stalls, faults.retries, faults.timeouts, faults.respawns, faults.infeasible
    ));
    if faults.resumes > 0 || faults.checkpoints > 0 {
        out.push_str(&format!(
            "lifecycle: {} checkpoint(s), {} resume(s)\n",
            faults.checkpoints, faults.resumes
        ));
    }
    if faults.workers_lost > 0 || faults.degraded > 0 {
        out.push_str(&format!(
            "cluster: {} worker(s) lost, {} degradation(s)\n",
            faults.workers_lost, faults.degraded
        ));
    }
    out
}

fn render_json(rows: &[EpochRow], faults: &FaultSummary) -> String {
    let epochs = Json::Array(rows.iter().map(EpochRow::to_json).collect());
    let summary = Json::object()
        .insert("epochs", rows.len())
        .insert("final_hypervolume", rows.last().map_or(0.0, |r| r.hypervolume))
        .insert("final_best_fitness", rows.last().map_or(f64::NAN, |r| r.best_fitness))
        .insert("stalls", faults.stalls)
        .insert("retries", faults.retries)
        .insert("timeouts", faults.timeouts)
        .insert("respawns", faults.respawns)
        .insert("infeasible", faults.infeasible)
        .insert("checkpoints", faults.checkpoints)
        .insert("resumes", faults.resumes)
        .insert("workers_lost", faults.workers_lost)
        .insert("cluster_degraded", faults.degraded);
    let mut report = Json::object().insert("epochs", epochs);
    report = report.insert("summary", summary);
    let mut text = report.pretty();
    text.push('\n');
    text
}

fn render_csv(rows: &[EpochRow]) -> String {
    let mut out = String::from(
        "epoch,evaluations,best_fitness,fitness_p50,hypervolume,archive_size,gene_entropy_bits,mean_distance,cache_hit_rate,stalled\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            r.epoch,
            r.evaluations,
            r.best_fitness,
            r.fitness_p50,
            r.hypervolume,
            r.archive_size,
            r.gene_entropy_bits,
            r.mean_distance,
            r.cache_hit_rate,
            r.stalled,
        ));
    }
    out
}

/// `ecad analyze --file TRACE.jsonl [--format text|json|csv]`.
///
/// # Errors
///
/// Returns [`CliError::Domain`] when the trace has no `epoch` events —
/// a run too short for even one epoch, or a trace recorded without
/// analytics — so scripts can gate on the exit code.
pub fn cmd_analyze(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["file", "format"])?;
    let path = p.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let events = parse_events(path, &text)?;
    let rows = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.event == "epoch")
        .map(|(i, e)| {
            e.fields(EpochRow::decode)
                .map_err(|err| at_line(path, i, err))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if rows.is_empty() {
        return Err(CliError::Domain(format!(
            "{path}: no epoch events — run long enough for one population \
             (or lower epoch_size) and record with --trace-out"
        )));
    }
    let faults = FaultSummary::count(&events);
    match p.get("format").unwrap_or("text") {
        "text" => Ok(render_text(path, &rows, &faults)),
        "json" => Ok(render_json(&rows, &faults)),
        "csv" => Ok(render_csv(&rows)),
        other => Err(CliError::Args(crate::args::ArgError::BadValue {
            flag: "--format".to_string(),
            value: other.to_string(),
        })),
    }
}

/// Per-kind census with sequence spans, printed by `ecad trace`: for
/// each event kind, the count and the first/last sequence number it
/// occurs at, plus the overall span.
pub fn kind_summary(events: &[TraceEvent]) -> String {
    let mut kinds: Vec<(&str, usize, u64, u64)> = Vec::new();
    for e in events {
        match kinds.iter_mut().find(|(name, ..)| *name == e.event) {
            Some((_, n, _, last)) => {
                *n += 1;
                *last = e.seq;
            }
            None => kinds.push((e.event, 1, e.seq, e.seq)),
        }
    }
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = String::new();
    match (events.first(), events.last()) {
        (Some(first), Some(last)) => out.push_str(&format!(
            "summary: {} events spanning seq {}..{}\n\n",
            events.len(),
            first.seq,
            last.seq
        )),
        _ => out.push_str("summary: empty trace\n"),
    }
    if !kinds.is_empty() {
        out.push_str(&format!(
            "{:>8} {:>9} {:>9}  {}\n",
            "count", "first", "last", "event"
        ));
        for (name, n, first, last) in &kinds {
            out.push_str(&format!("{n:>8} {first:>9} {last:>9}  {name}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full `epoch` field set.
    fn epoch_fields(epoch: u64, hv: f64, stalled: bool) -> String {
        format!(
            "{{\"epoch\":{epoch},\"evaluations\":{},\"best_fitness\":0.5,\"fitness_p50\":0.4,\
             \"hypervolume\":{hv},\"archive_size\":2,\"gene_entropy_bits\":1.5,\
             \"mean_distance\":0.3,\"cache_hit_rate\":0.1,\"stalled\":{stalled}}}",
            epoch * 8
        )
    }

    fn epoch_line(seq: u64, epoch: u64, hv: f64, stalled: bool) -> String {
        format!(
            "{{\"seq\":{seq},\"level\":\"info\",\"target\":\"t\",\"event\":\"epoch\",\"fields\":{}}}",
            epoch_fields(epoch, hv, stalled)
        )
    }

    fn row(epoch: u64, hv: f64) -> EpochRow {
        EpochRow::from_json(&Json::parse(&epoch_fields(epoch, hv, false)).unwrap()).unwrap()
    }

    fn warn_line(seq: u64, event: &str) -> String {
        format!(
            "{{\"seq\":{seq},\"level\":\"warn\",\"target\":\"t\",\"event\":\"{event}\",\"fields\":{{}}}}"
        )
    }

    #[test]
    fn parses_epoch_rows_and_faults() {
        let text = [
            epoch_line(0, 1, 0.1, false),
            warn_line(1, "retry"),
            warn_line(2, "eval_timeout"),
            epoch_line(3, 2, 0.2, true),
            warn_line(4, "stall"),
        ]
        .join("\n");
        let events = parse_events("t.jsonl", &text).unwrap();
        let rows: Vec<EpochRow> = events
            .iter()
            .filter(|e| e.event == "epoch")
            .map(|e| e.fields(EpochRow::decode).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].evaluations, 8);
        assert!((rows[1].hypervolume - 0.2).abs() < 1e-12);
        assert!(rows[1].stalled && !rows[0].stalled);
        let faults = FaultSummary::count(&events);
        assert_eq!(
            (faults.retries, faults.timeouts, faults.stalls),
            (1, 1, 1)
        );
    }

    #[test]
    fn cluster_fault_counts_surface_in_both_renderings() {
        let text = [
            epoch_line(0, 1, 0.1, false),
            warn_line(1, "worker_lost"),
            warn_line(2, "worker_lost"),
            warn_line(3, "cluster_degraded"),
        ]
        .join("\n");
        let events = parse_events("t.jsonl", &text).unwrap();
        let faults = FaultSummary::count(&events);
        assert_eq!((faults.workers_lost, faults.degraded), (2, 1));
        let report = render_text("t", &[], &faults);
        assert!(report.contains("cluster: 2 worker(s) lost, 1 degradation(s)\n"));
        let json = Json::parse(&render_json(&[], &faults)).unwrap();
        let summary = json.get("summary").unwrap();
        assert_eq!(
            summary.get("workers_lost").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            summary.get("cluster_degraded").and_then(Json::as_f64),
            Some(1.0)
        );
        // A fault-free trace stays silent about the cluster line.
        let clean = render_text("t", &[], &FaultSummary::default());
        assert!(!clean.contains("cluster:"));
    }

    #[test]
    fn text_report_flags_non_monotone_hypervolume() {
        let good = vec![row(1, 0.1), row(2, 0.2)];
        let report = render_text("t", &good, &FaultSummary::default());
        assert!(!report.contains("WARNING"));
        let bad = vec![row(1, 0.2), row(2, 0.1)];
        let report = render_text("t", &bad, &FaultSummary::default());
        assert!(report.contains("WARNING"));
    }

    #[test]
    fn json_report_round_trips() {
        let rows = vec![row(1, 0.25)];
        let text = render_json(&rows, &FaultSummary::default());
        let parsed = Json::parse(&text).unwrap();
        let epochs = parsed.get("epochs").and_then(Json::as_array).unwrap();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].get("hypervolume").and_then(Json::as_f64), Some(0.25));
        assert_eq!(
            parsed.get("summary").and_then(|s| s.get("final_hypervolume")).and_then(Json::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn csv_report_has_one_row_per_epoch() {
        let rows = vec![row(1, 0.1), row(2, 0.2)];
        let csv = render_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("epoch,evaluations,best_fitness"));
    }

    #[test]
    fn kind_summary_reports_spans() {
        let text = [
            warn_line(0, "a"),
            warn_line(1, "b"),
            warn_line(2, "a"),
        ]
        .join("\n");
        let events = parse_events("t.jsonl", &text).unwrap();
        let out = kind_summary(&events);
        assert!(out.contains("3 events spanning seq 0..2"));
        assert!(out.contains('a') && out.contains('b'));
    }

    #[test]
    fn curve_handles_flat_zero() {
        let rows = vec![row(1, 0.0)];
        assert!(hypervolume_curve(&rows).contains("zero"));
    }
}
