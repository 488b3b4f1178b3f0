//! The shared artifact schema of the reproduction pipelines.
//!
//! Every pipeline (`table1`, `lower`, `sdp`) emits a pair of artifacts —
//! `REPRO_<name>.json` (machine-readable) and `REPRO_<name>.md` (human
//! summary) — through this module, so ids, provenance, tiering, gating,
//! and on-disk layout stay identical across pipelines:
//!
//! * **Provenance** — every JSON artifact carries the `pipeline` name, the
//!   [`PAPER`] citation, and the [`Tier`] it was produced at.
//! * **Ids** — every gridded row carries an `id` (see [`cell_id`]) plus
//!   numeric `measured` and `bound` fields; [`collect_rows`] extracts them
//!   and the run ledger ([`crate::history`]) tracks each row's headroom
//!   (`bound / measured`) across generations by `id`.
//! * **Gating** — proven-bound violations accumulate in the builder; the
//!   driver exits non-zero if any remain, which is the CI contract.
//!
//! Artifacts are bit-identical across worker thread counts (the parallel
//! orchestrator's determinism contract) and across runs (no timestamps,
//! no machine identifiers, sorted object keys), so CI can diff them
//! byte-for-byte against the committed copies.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The source paper, cited in every artifact.
pub const PAPER: &str = "Chen, Russell, Samanta, Sundaram — Deterministic Blind Rendezvous in \
                         Cognitive Radio Networks (ICDCS 2014)";

/// Experiment size tiers shared by every pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The full paper-scale grids.
    Full,
    /// The minutes-scale CI tier: the smallest grids that still cross
    /// every algorithm × timing × scenario cell.
    Smoke,
}

impl Tier {
    /// The lowercase name recorded in artifacts and used in CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Smoke => "smoke",
        }
    }
}

/// The canonical id of one measurement-grid cell:
/// `"<algorithm>/<timing>/<scenario>/n=<n>"`.
pub fn cell_id(algorithm: &str, timing: &str, scenario: &str, n: u64) -> String {
    format!("{algorithm}/{timing}/{scenario}/n={n}")
}

/// Bound headroom of a row: how many times the measurement fits under
/// its bound (`bound / max(measured, 1)`), the quantity the run ledger
/// tracks across pipeline generations.
pub fn headroom(measured: f64, bound: f64) -> f64 {
    bound / measured.max(1.0)
}

/// One grid cell that failed and was quarantined instead of aborting the
/// run — the unit of the graceful-degradation contract. Every field is
/// deterministic (panic messages in this workspace are fixed strings,
/// seeds are derived), so a degraded artifact is still byte-identical
/// across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// The canonical row id of the cell (see [`cell_id`]).
    pub id: String,
    /// Why it failed: the quarantined panic message.
    pub cause: String,
    /// The cell's derived seed, for offline reproduction.
    pub seed: u64,
}

/// A finished pipeline run, ready to write and gate.
pub struct PipelineOutput {
    /// The pipeline name (`"table1"`, `"lower"`, `"sdp"`).
    pub pipeline: &'static str,
    /// The machine-readable artifact.
    pub json: Value,
    /// The human-readable artifact.
    pub markdown: String,
    /// Violated proven bounds — non-empty fails the run.
    pub violations: Vec<String>,
    /// Cells that failed and were quarantined — non-empty marks the
    /// artifact *partial* and makes `repro` exit with the distinct
    /// degraded code (3) instead of aborting mid-grid.
    pub failed_cells: Vec<FailedCell>,
}

/// Incremental builder for one pipeline's artifact pair.
pub struct Artifact {
    pipeline: &'static str,
    tier: Tier,
    top: BTreeMap<String, Value>,
    violations: Vec<String>,
    failed: Vec<FailedCell>,
    track_failed_cells: bool,
}

impl Artifact {
    /// Starts an artifact for `pipeline` at `tier`.
    pub fn new(pipeline: &'static str, tier: Tier) -> Self {
        Artifact {
            pipeline,
            tier,
            top: BTreeMap::new(),
            violations: Vec::new(),
            failed: Vec::new(),
            track_failed_cells: false,
        }
    }

    /// Opts the artifact into the graceful-degradation schema: the JSON
    /// gains a `failed_cells` section (present even when empty, so the
    /// schema is stable across clean and degraded runs). Pipelines that
    /// never quarantine cells — whose committed artifacts are diffed
    /// bit-for-bit by CI — simply never call this and keep their exact
    /// historical layout.
    pub fn track_failed_cells(&mut self) {
        self.track_failed_cells = true;
    }

    /// Records a quarantined cell failure (implies
    /// [`Self::track_failed_cells`]).
    pub fn failed_cell(&mut self, cell: FailedCell) {
        self.track_failed_cells = true;
        self.failed.push(cell);
    }

    /// The standard markdown section for quarantined failures, or a
    /// one-line all-clear. Row-id-sorted, like the JSON section.
    pub fn failed_cells_markdown(&mut self) -> String {
        self.failed.sort_by(|a, b| a.id.cmp(&b.id));
        if self.failed.is_empty() {
            return "## Failed cells\n\nNone — every grid cell completed.\n".to_string();
        }
        let mut md = String::from(
            "## Failed cells\n\nThe grid degraded gracefully: the cells below were\n\
             quarantined (cause recorded, neighbors unaffected) and this artifact is\n\
             **partial** — `repro` exits with the degraded code 3.\n\n\
             | row id | cause | seed |\n|---|---|---:|\n",
        );
        for c in &self.failed {
            md.push_str(&format!(
                "| `{}` | {} | {:#018x} |\n",
                c.id, c.cause, c.seed
            ));
        }
        md
    }

    /// The tier the artifact is being produced at.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Adds a top-level section (e.g. `"config"`, `"cells"`, `"rows"`).
    pub fn section(&mut self, key: &'static str, value: Value) {
        self.top.insert(key.to_string(), value);
    }

    /// Records a proven-bound violation (fails the pipeline at the end).
    pub fn violation(&mut self, message: String) {
        self.violations.push(message);
    }

    /// The standard markdown verdict block.
    pub fn verdict_markdown(&self) -> String {
        if self.violations.is_empty() {
            "**All gated rows respect their proven bounds.**".to_string()
        } else {
            format!(
                "**{} bound violation(s):**\n\n{}",
                self.violations.len(),
                self.violations
                    .iter()
                    .map(|v| format!("- {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        }
    }

    /// The standard markdown preamble: regeneration command, twin-file
    /// pointer, and the determinism note shared by every pipeline.
    pub fn preamble_markdown(&self, title: &str, stem: &str, gate_note: &str) -> String {
        let tier = self.tier.name();
        let pipeline = self.pipeline;
        format!(
            "# {title} (tier: {tier})\n\n\
             Regenerate with `cargo run --release --bin repro -- --{tier} {pipeline}`\n\
             (drop the tier flag for the full paper-scale grid). Machine-readable\n\
             twin: `{stem}.json`. {gate_note}\n\n\
             Sweeps ran on the shared-queue orchestrator; results (and this\n\
             file) are bit-identical at any worker thread count.\n\n"
        )
    }

    /// Seals the artifact: merges provenance, tier, violations — and, for
    /// degradation-aware pipelines, the row-id-sorted `failed_cells`
    /// section — into the JSON tree and pairs it with the rendered
    /// markdown.
    pub fn finish(mut self, markdown: String) -> PipelineOutput {
        self.top
            .insert("pipeline".to_string(), Value::from(self.pipeline));
        self.top.insert("paper".to_string(), Value::from(PAPER));
        self.top
            .insert("tier".to_string(), Value::from(self.tier.name()));
        self.top.insert(
            "violations".to_string(),
            Value::Array(
                self.violations
                    .iter()
                    .map(|v| Value::from(v.as_str()))
                    .collect(),
            ),
        );
        if self.track_failed_cells {
            self.failed.sort_by(|a, b| a.id.cmp(&b.id));
            self.top.insert(
                "failed_cells".to_string(),
                Value::Array(
                    self.failed
                        .iter()
                        .map(|c| {
                            let mut obj = BTreeMap::new();
                            obj.insert("id".to_string(), Value::from(c.id.as_str()));
                            obj.insert("cause".to_string(), Value::from(c.cause.as_str()));
                            // Seeds are full 64-bit stream values; hex
                            // strings dodge the shim's f64 number domain.
                            obj.insert(
                                "seed".to_string(),
                                Value::from(format!("{:#018x}", c.seed)),
                            );
                            Value::Object(obj)
                        })
                        .collect(),
                ),
            );
        }
        PipelineOutput {
            pipeline: self.pipeline,
            json: Value::Object(self.top),
            markdown,
            violations: self.violations,
            failed_cells: self.failed,
        }
    }
}

/// Writes the artifact pair as `<out_dir>/<stem>.json` and
/// `<out_dir>/<stem>.md`, returning both paths. Each file is committed
/// atomically ([`commit_bytes`]): a crash mid-write leaves the previous
/// artifact intact, never a partial one.
///
/// # Panics
///
/// Panics on I/O failure — the pipelines treat an unwritable artifact as
/// fatal, matching the CI contract.
pub fn write_artifacts(out_dir: &Path, stem: &str, out: &PipelineOutput) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", out_dir.display()));
    let json_path = out_dir.join(format!("{stem}.json"));
    let json_bytes = serde_json::to_string_pretty(&out.json) + "\n";
    commit_bytes(&json_path, json_bytes.as_bytes())
        .unwrap_or_else(|e| panic!("writing {}: {e}", json_path.display()));
    let md_path = out_dir.join(format!("{stem}.md"));
    commit_bytes(&md_path, out.markdown.as_bytes())
        .unwrap_or_else(|e| panic!("writing {}: {e}", md_path.display()));
    (json_path, md_path)
}

/// Atomically commits `bytes` as the complete contents of `path`: writes
/// a same-directory temporary file, fsyncs it, and renames it over the
/// destination. A crash at any point leaves either the old file or the
/// new one — never a partial artifact. Every `REPRO_*`, `BENCH_*` and
/// `DASHBOARD.md` writer and `repro history fsck --repair` go through it.
///
/// # Errors
///
/// Propagates I/O failures (the temporary file is cleaned up on a failed
/// commit where possible).
pub fn commit_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    let commit = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        // Flush file contents to disk before the rename publishes them,
        // so the rename can never expose an empty or partial file.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if commit.is_err() {
        let _ = std::fs::remove_file(&tmp);
    } else {
        // Durability of the rename itself: fsync the directory entry.
        // Best-effort — not every platform lets a directory be opened.
        let _ = File::open(&dir).and_then(|d| d.sync_all());
    }
    commit
}

/// Collects every `(id, measured, bound)` row of an artifact: any object
/// inside a top-level array carrying a string `"id"` plus numeric
/// `"measured"` and `"bound"` members — the schema every pipeline's
/// gridded rows follow. The history ledger reads pipeline rows through
/// it (`crate::history::entry_from_artifact`), so every gridded row is a
/// series the trajectory tracks.
pub fn collect_rows(artifact: &Value) -> BTreeMap<String, (f64, f64)> {
    let mut rows = BTreeMap::new();
    let Value::Object(top) = artifact else {
        return rows;
    };
    for section in top.values() {
        let Value::Array(items) = section else {
            continue;
        };
        for item in items {
            if let (Some(id), Some(measured), Some(bound)) = (
                item.get("id").and_then(Value::as_str),
                item.get("measured").and_then(Value::as_f64),
                item.get("bound").and_then(Value::as_f64),
            ) {
                rows.insert(id.to_string(), (measured, bound));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_merges_provenance_and_violations() {
        let mut a = Artifact::new("table1", Tier::Smoke);
        a.section("rows", Value::Array(vec![]));
        a.violation("something broke".to_string());
        let out = a.finish("md".to_string());
        assert_eq!(
            out.json.get("pipeline").and_then(Value::as_str),
            Some("table1")
        );
        assert_eq!(out.json.get("tier").and_then(Value::as_str), Some("smoke"));
        assert!(out
            .json
            .get("paper")
            .and_then(Value::as_str)
            .unwrap()
            .contains("ICDCS"));
        assert_eq!(out.violations.len(), 1);
        assert_eq!(
            out.json
                .get("violations")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn headroom_guards_zero_measured() {
        assert_eq!(headroom(0.0, 12.0), 12.0);
        assert_eq!(headroom(4.0, 12.0), 3.0);
    }

    #[test]
    fn cell_ids_are_stable() {
        assert_eq!(
            cell_id("ours (Thm 3)", "async", "symmetric", 16),
            "ours (Thm 3)/async/symmetric/n=16"
        );
    }

    #[test]
    fn commit_bytes_replaces_contents_atomically() {
        let dir = std::env::temp_dir().join(format!("rdv_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("commit.txt");
        commit_bytes(&path, b"first generation\n").expect("commit");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "first generation\n"
        );
        commit_bytes(&path, b"second generation\n").expect("commit");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "second generation\n"
        );
        // No temporary droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("commit.txt."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }
}
