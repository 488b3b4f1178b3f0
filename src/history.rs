//! The append-only perf-trend ledger behind `repro dashboard`.
//!
//! Every artifact pipeline run (`repro --history FILE …`) and every bench
//! suite run (`bench_report --history FILE …`) appends **one JSONL line**
//! to the ledger: the commit under test, a host fingerprint (OS, CPU
//! architecture, and `host_threads` — the figure the single-core honesty
//! gate consults), the tier, a UTC timestamp, and the run's series rows —
//! pipeline headroom rows keyed by the [`crate::report`] row ids, or
//! bench throughput points keyed by bench id. The ledger is the
//! *trajectory* the committed `BENCH_*.json` / `REPRO_*.json` snapshots
//! cannot express: those files are overwritten in place, a ledger line is
//! never rewritten.
//!
//! It has one read path, in two steps:
//!
//! * [`analyze`] — the N-generation regression analysis: series are
//!   matched across generations and grouped per dashboard section, the
//!   latest value is compared against the **median of the preceding
//!   [`TREND_WINDOW`] generations**, and each series is classified
//!   regressed / improved / flat beyond [`MAX_REGRESSION_PCT`].
//! * [`render_dashboard`] — the analysis as committed-markdown sparkline
//!   tables (`DASHBOARD.md`). Rendering is a **pure function of the
//!   ledger**: timestamps come from the ledger lines, never from the clock
//!   at render time, so the committed dashboard regenerates
//!   byte-identically and CI diffs it like the other committed artifacts.
//!
//! `repro dashboard` runs both, writes the markdown and exits non-zero on
//! any regression; it is the repo's only perf-regression gate in CI.
//!
//! Tracked metrics are chosen so that **higher is always better**: a
//! pipeline row tracks its bound headroom (`bound / measured`, see
//! [`crate::report::headroom`]) and a bench point tracks its throughput.
//! One regression predicate therefore covers both kinds.

use crate::report::headroom;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// What produced a ledger entry: an artifact pipeline (`repro`) or a
/// bench suite (`bench_report`). Ordered as the dashboard's sections are:
/// pipelines first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntryKind {
    /// A reproduction pipeline run; rows carry `measured` + `bound` and
    /// track headroom.
    Pipeline,
    /// A bench suite run; rows carry a raw throughput value.
    Bench,
}

impl EntryKind {
    /// The lowercase name stored in ledger lines.
    pub fn name(self) -> &'static str {
        match self {
            EntryKind::Pipeline => "pipeline",
            EntryKind::Bench => "bench",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pipeline" => Ok(EntryKind::Pipeline),
            "bench" => Ok(EntryKind::Bench),
            other => Err(format!("unknown entry kind {other:?}")),
        }
    }
}

/// The machine a ledger entry was measured on. Recorded — not part of the
/// series key — so cross-host comparisons stay visible and the honesty
/// gates (`host_threads == 1` ⇒ speedup ratios measure only the
/// spawn-amortization floor) have the figure they need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// `std::env::consts::OS` at measurement time.
    pub os: String,
    /// `std::env::consts::ARCH` at measurement time.
    pub arch: String,
    /// Hardware threads (`available_parallelism`), **not** the requested
    /// worker count — the number the single-core honesty gate consults.
    pub threads: u64,
}

impl HostFingerprint {
    /// Fingerprints the current machine.
    pub fn detect() -> Self {
        HostFingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism()
                .map(|v| v.get() as u64)
                .unwrap_or(1),
        }
    }

    /// The compact `os/arch/tN` form the dashboard's generation log
    /// shows.
    pub fn key(&self) -> String {
        format!("{}/{}/t{}", self.os, self.arch, self.threads)
    }
}

/// One tracked data point of a ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// The row id ([`crate::report::cell_id`] for pipelines, `key=value`
    /// for bench gate points).
    pub id: String,
    /// The raw value: `measured` for pipeline rows, throughput for bench
    /// points.
    pub value: f64,
    /// The proven bound, for pipeline rows.
    pub bound: Option<f64>,
}

impl SeriesPoint {
    /// The metric tracked across generations, oriented so **higher is
    /// better**: bound headroom when a bound is present, the raw value
    /// (throughput) otherwise.
    pub fn tracked(&self) -> f64 {
        match self.bound {
            Some(b) => headroom(self.value, b),
            None => self.value,
        }
    }
}

/// One line of the append-only ledger: one pipeline or bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Pipeline or bench.
    pub kind: EntryKind,
    /// The pipeline name (`"table1"`) or bench id
    /// (`"multiuser_arena_engine"`).
    pub source: String,
    /// The tier the run was produced at (`"smoke"` / `"full"`).
    pub tier: String,
    /// The commit under test (`RDV_COMMIT` / `GITHUB_SHA`, or
    /// `"uncommitted"`).
    pub commit: String,
    /// The measuring machine.
    pub host: HostFingerprint,
    /// UTC wall-clock of the run, `YYYY-MM-DDTHH:MM:SSZ`. Stamped by the
    /// *writer*; the reader (the dashboard) never consults the clock.
    pub utc: String,
    /// The run's series rows.
    pub rows: Vec<SeriesPoint>,
}

impl LedgerEntry {
    /// The entry as one compact JSON value (object keys sorted by the
    /// shim, so the line layout is deterministic).
    pub fn to_json(&self) -> Value {
        let rows = self
            .rows
            .iter()
            .map(|p| {
                let mut m = BTreeMap::new();
                m.insert("id".to_string(), Value::from(p.id.as_str()));
                m.insert("value".to_string(), Value::from(p.value));
                if let Some(b) = p.bound {
                    m.insert("bound".to_string(), Value::from(b));
                }
                Value::Object(m)
            })
            .collect();
        Value::object([
            ("kind", Value::from(self.kind.name())),
            ("source", Value::from(self.source.as_str())),
            ("tier", Value::from(self.tier.as_str())),
            ("commit", Value::from(self.commit.as_str())),
            (
                "host",
                Value::object([
                    ("os", Value::from(self.host.os.as_str())),
                    ("arch", Value::from(self.host.arch.as_str())),
                    ("threads", Value::from(self.host.threads)),
                ]),
            ),
            ("utc", Value::from(self.utc.as_str())),
            ("rows", Value::Array(rows)),
        ])
    }

    /// Parses one ledger line's JSON value back into an entry.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let host = v.get("host").ok_or("missing object field \"host\"")?;
        let host = HostFingerprint {
            os: host
                .get("os")
                .and_then(Value::as_str)
                .ok_or("missing string field \"host.os\"")?
                .to_string(),
            arch: host
                .get("arch")
                .and_then(Value::as_str)
                .ok_or("missing string field \"host.arch\"")?
                .to_string(),
            threads: host
                .get("threads")
                .and_then(Value::as_u64)
                .ok_or("missing integer field \"host.threads\"")?,
        };
        let rows = v
            .get("rows")
            .and_then(Value::as_array)
            .ok_or("missing array field \"rows\"")?
            .iter()
            .map(|r| {
                Ok(SeriesPoint {
                    id: r
                        .get("id")
                        .and_then(Value::as_str)
                        .ok_or("row without string \"id\"")?
                        .to_string(),
                    value: r
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or("row without numeric \"value\"")?,
                    bound: r.get("bound").and_then(Value::as_f64),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LedgerEntry {
            kind: EntryKind::parse(&str_field("kind")?)?,
            source: str_field("source")?,
            tier: str_field("tier")?,
            commit: str_field("commit")?,
            host,
            utc: str_field("utc")?,
            rows,
        })
    }
}

/// A ledger line that failed to parse and was skipped (reported, not
/// fatal) — one corrupt line must never take the trajectory down with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLine {
    /// 1-based line number in the ledger file.
    pub line: usize,
    /// Why the line was skipped.
    pub error: String,
}

/// A parsed ledger: the readable entries in file order, plus the corrupt
/// lines that were isolated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ledger {
    /// Entries in append (= generation) order.
    pub entries: Vec<LedgerEntry>,
    /// Corrupt lines, skipped and reported.
    pub skipped: Vec<SkippedLine>,
}

/// Appends one entry to the ledger file as a single compact JSON line,
/// creating the file if needed. The line is committed with one
/// `write(2)` on an `O_APPEND` handle, so a crash mid-append can tear at
/// most this line — which the parser then isolates, never the ledger.
///
/// # Errors
///
/// Propagates I/O failures; the callers treat an unwritable ledger as
/// fatal, like an unwritable artifact.
pub fn append(path: &Path, entry: &LedgerEntry) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let line = format!("{}\n", serde_json::to_string(&entry.to_json()));
    file.write_all(line.as_bytes())
}

/// Rewrites the ledger file to contain exactly `entries`, through the
/// atomic tmp+fsync+rename commit path — this is what `repro history
/// fsck --repair` uses to drop corrupt lines without ever exposing a
/// half-written ledger.
///
/// # Errors
///
/// Propagates I/O failures from the atomic commit.
pub fn rewrite(path: &Path, entries: &[LedgerEntry]) -> std::io::Result<()> {
    let mut text = String::new();
    for entry in entries {
        text.push_str(&serde_json::to_string(&entry.to_json()));
        text.push('\n');
    }
    crate::report::commit_bytes(path, text.as_bytes())
}

/// Reads a ledger file: every parseable line becomes an entry, every
/// corrupt line (bad JSON or a malformed entry) is isolated into
/// [`Ledger::skipped`] with its line number. Blank lines are ignored.
///
/// # Errors
///
/// Only on I/O failure — parse failures are per-line and non-fatal.
pub fn read(path: &Path) -> std::io::Result<Ledger> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse(&text))
}

/// [`read`], on an in-memory string.
pub fn parse(text: &str) -> Ledger {
    let mut ledger = Ledger::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = serde_json::from_str(line)
            .map_err(|e| e.to_string())
            .and_then(|v| LedgerEntry::from_json(&v));
        match parsed {
            Ok(entry) => ledger.entries.push(entry),
            Err(error) => ledger.skipped.push(SkippedLine { line: i + 1, error }),
        }
    }
    ledger
}

// --------------------------------------------------------------- writers

/// The commit and UTC timestamp a writer stamps into new ledger entries:
/// `RDV_COMMIT` (falling back to `GITHUB_SHA`, then `"uncommitted"`) and
/// `RDV_EPOCH` (seconds since the Unix epoch, for reproducible seeding;
/// falling back to the system clock). Only the *writers* (`repro`,
/// `bench_report`) call this — the readers are pure functions of the
/// ledger.
pub fn writer_context() -> (String, String) {
    let commit = std::env::var("RDV_COMMIT")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .unwrap_or_else(|_| "uncommitted".to_string());
    let epoch = std::env::var("RDV_EPOCH")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        });
    (commit, format_utc(epoch))
}

/// Formats seconds-since-Unix-epoch as `YYYY-MM-DDTHH:MM:SSZ` (proleptic
/// Gregorian, the civil-from-days algorithm) — no chrono dependency.
pub fn format_utc(epoch_secs: u64) -> String {
    let days = (epoch_secs / 86_400) as i64;
    let secs = epoch_secs % 86_400;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

/// Builds a pipeline entry from an artifact JSON (a fresh
/// [`crate::report::PipelineOutput::json`] or a committed `REPRO_*.json`
/// being backfilled): the `pipeline` and `tier` fields are read from the
/// artifact itself, the rows through [`crate::report::collect_rows`].
///
/// # Errors
///
/// When the artifact lacks the `pipeline`/`tier` provenance or carries no
/// `id`/`measured`/`bound` rows.
pub fn entry_from_artifact(
    artifact: &Value,
    commit: &str,
    host: &HostFingerprint,
    utc: &str,
) -> Result<LedgerEntry, String> {
    let source = artifact
        .get("pipeline")
        .and_then(Value::as_str)
        .ok_or("artifact has no \"pipeline\" provenance")?
        .to_string();
    let tier = artifact
        .get("tier")
        .and_then(Value::as_str)
        .ok_or("artifact has no \"tier\" provenance")?
        .to_string();
    let rows: Vec<SeriesPoint> = crate::report::collect_rows(artifact)
        .into_iter()
        .map(|(id, (measured, bound))| SeriesPoint {
            id,
            value: measured,
            bound: Some(bound),
        })
        .collect();
    if rows.is_empty() {
        return Err("artifact has no rows with id/measured/bound".to_string());
    }
    Ok(LedgerEntry {
        kind: EntryKind::Pipeline,
        source,
        tier: tier.clone(),
        commit: commit.to_string(),
        host: host.clone(),
        utc: utc.to_string(),
        rows,
    })
}

/// The tracked columns of a bench suite report, by bench id: the scenario
/// key column and the throughput column the ledger gates. Fresh
/// `bench_report` runs and the backfill of a committed `BENCH_*.json`
/// both go through [`entry_from_bench`], so both read the same numbers.
fn bench_gate_columns(bench: &str) -> (&'static str, &'static str) {
    match bench {
        "multiuser_arena_engine" => ("n_agents", "arena_pair_slots_per_sec"),
        "multiuser_bitplane_kernel" => ("n_agents", "bitplane_pair_slots_per_sec"),
        "faults_acs_engine" => ("n_agents", "acs_pair_slots_per_sec"),
        "task_tree_grid" => ("cells", "tree_cells_per_sec"),
        _ => ("n", "block_slots_per_sec"),
    }
}

/// Builds a bench entry from a suite report JSON (fresh or a committed
/// `BENCH_*.json` being backfilled): one row per scenario, keyed
/// `key=value` (e.g. `n=64`), tracking the suite's gated throughput
/// column (`n_agents` → `arena_pair_slots_per_sec` for the multiuser
/// suite, and so on per bench id). Bench reports carry no tier field, so
/// the caller supplies it.
///
/// # Errors
///
/// When the report lacks its `bench` id, its `scenarios` array, or a
/// scenario lacks the gate columns.
pub fn entry_from_bench(
    report: &Value,
    tier: &str,
    commit: &str,
    host: &HostFingerprint,
    utc: &str,
) -> Result<LedgerEntry, String> {
    let source = report
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("bench report has no \"bench\" id")?
        .to_string();
    let (key, rate) = bench_gate_columns(&source);
    let rows = report
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or("bench report has no \"scenarios\" array")?
        .iter()
        .map(|s| {
            let k = s
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("scenario without {key:?}"))?;
            let r = s
                .get(rate)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("scenario without {rate:?}"))?;
            Ok(SeriesPoint {
                id: format!("{key}={k}"),
                value: r,
                bound: None,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if rows.is_empty() {
        return Err("bench report has no scenarios".to_string());
    }
    Ok(LedgerEntry {
        kind: EntryKind::Bench,
        source,
        tier: tier.to_string(),
        commit: commit.to_string(),
        host: host.clone(),
        utc: utc.to_string(),
        rows,
    })
}

// ----------------------------------------------------------------- trend

/// The key a series is matched under across generations. Pipeline grids
/// differ per tier (different `n` ladders, shift/seed counts), so the
/// tier is part of the key; bench workloads are tier-identical by
/// construction (smoke only trims repetitions), so bench series match
/// across tiers.
pub fn series_key(entry: &LedgerEntry, point_id: &str) -> String {
    match entry.kind {
        EntryKind::Pipeline => format!("{}@{}/{}", entry.source, entry.tier, point_id),
        EntryKind::Bench => format!("{}/{}", entry.source, point_id),
    }
}

/// How many prior generations a series' baseline median is taken over.
pub const TREND_WINDOW: usize = 5;

/// The regression tolerance in percent: a series regresses when its latest
/// value is more than this far below the window median, and improves when
/// it is more than this far above it.
pub const MAX_REGRESSION_PCT: f64 = 30.0;

/// The classification of one series after [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesClass {
    /// Latest is more than the tolerance *below* the window median.
    Regressed,
    /// Latest is more than the tolerance *above* the window median.
    Improved,
    /// Within tolerance of the window median.
    Flat,
    /// No prior generation to compare against.
    New,
}

impl SeriesClass {
    /// The label rendered in reports.
    pub fn label(self) -> &'static str {
        match self {
            SeriesClass::Regressed => "REGRESSED",
            SeriesClass::Improved => "improved",
            SeriesClass::Flat => "flat",
            SeriesClass::New => "new",
        }
    }
}

/// One series matched across ledger generations.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySeries {
    /// Pipeline headroom or bench throughput.
    pub kind: EntryKind,
    /// The dashboard section: `"<pipeline> (<tier> tier)"` or the bench id.
    pub section: String,
    /// The row id within the section.
    pub id: String,
    /// The [`series_key`].
    pub key: String,
    /// The tracked values, generation-ordered.
    pub values: Vec<f64>,
    /// The latest tracked value.
    pub latest: f64,
    /// The median of the baseline window, when one exists.
    pub baseline: Option<f64>,
    /// `latest / baseline − 1`, in percent.
    pub delta_pct: Option<f64>,
    /// The verdict.
    pub class: SeriesClass,
}

/// The outcome of the N-generation analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryTrend {
    /// Every series in dashboard order: pipeline sections, then bench
    /// sections, each by name; within a section, by first appearance.
    pub series: Vec<HistorySeries>,
}

/// The median of a non-empty slice (mean of the middle two for even
/// lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Matches series across the ledger's generations, groups them per
/// dashboard section and classifies each one: the latest tracked value
/// against the median of the up-to-[`TREND_WINDOW`] preceding
/// generations, regressed/improved beyond [`MAX_REGRESSION_PCT`], flat
/// within it.
pub fn analyze(entries: &[LedgerEntry]) -> HistoryTrend {
    // (id, key, generation-ordered tracked values) per section, in
    // first-appearance order within the section.
    type SectionSeries = Vec<(String, String, Vec<f64>)>;
    let mut sections: BTreeMap<(EntryKind, String), SectionSeries> = BTreeMap::new();
    for entry in entries {
        let section = match entry.kind {
            EntryKind::Pipeline => format!("{} ({} tier)", entry.source, entry.tier),
            EntryKind::Bench => entry.source.clone(),
        };
        let series = sections.entry((entry.kind, section)).or_default();
        for point in &entry.rows {
            match series.iter_mut().find(|(id, _, _)| *id == point.id) {
                Some((_, _, values)) => values.push(point.tracked()),
                None => series.push((
                    point.id.clone(),
                    series_key(entry, &point.id),
                    vec![point.tracked()],
                )),
            }
        }
    }
    let series = sections
        .into_iter()
        .flat_map(|((kind, section), series)| {
            series.into_iter().map(move |(id, key, values)| {
                let (&latest, prior) = values.split_last().expect("series observed at least once");
                let window = &prior[prior.len().saturating_sub(TREND_WINDOW)..];
                let baseline = (!window.is_empty()).then(|| median(window));
                let delta_pct = baseline
                    .filter(|b| *b > 0.0)
                    .map(|b| (latest / b - 1.0) * 100.0);
                let class = match delta_pct {
                    None => SeriesClass::New,
                    Some(d) if d < -MAX_REGRESSION_PCT => SeriesClass::Regressed,
                    Some(d) if d > MAX_REGRESSION_PCT => SeriesClass::Improved,
                    Some(_) => SeriesClass::Flat,
                };
                HistorySeries {
                    kind,
                    section: section.clone(),
                    id,
                    key,
                    values,
                    latest,
                    baseline,
                    delta_pct,
                    class,
                }
            })
        })
        .collect();
    HistoryTrend { series }
}

impl HistoryTrend {
    /// The regressed series — non-empty fails `repro dashboard`.
    pub fn regressed(&self) -> Vec<&HistorySeries> {
        self.series
            .iter()
            .filter(|s| s.class == SeriesClass::Regressed)
            .collect()
    }
}

// ------------------------------------------------------------- dashboard

/// The eight-level unicode block sparkline of a series, min–max
/// normalized (a constant series renders mid-level). No plotting
/// dependencies — the dashboard stays committed markdown.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if max <= min {
                return LEVELS[3];
            }
            let t = (v - min) / (max - min);
            LEVELS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Deterministic metric formatting for reports and the dashboard:
/// scientific with three significant digits at ≥ 1e6 (throughputs),
/// integers at ≥ 100, two decimals below (headrooms).
pub fn format_metric(v: f64) -> String {
    if !v.is_finite() {
        "nan".to_string()
    } else if v.abs() >= 1e6 {
        format!("{v:.2e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders the ledger's [`analyze`] result into the committed dashboard
/// markdown: the generation log, then one sparkline table per pipeline
/// (headroom) and per bench suite (throughput), each series with its
/// window median, delta and class. A pure function of the ledger — given
/// the same `HISTORY.jsonl` the output is byte-identical, which is the
/// CI diff contract for the committed `DASHBOARD.md`.
pub fn render_dashboard(ledger: &Ledger, trend: &HistoryTrend) -> String {
    let count = |c: SeriesClass| trend.series.iter().filter(|s| s.class == c).count();
    let mut md = format!(
        "# Perf trajectory\n\n\
         Rendered from the append-only run ledger `HISTORY.jsonl` — regenerate with\n\
         `cargo run --release --bin repro -- dashboard` (byte-identical given the same\n\
         ledger; timestamps come from the ledger lines, never from the render clock).\n\
         Pipeline tables track **bound headroom** (`bound / measured`, higher = more\n\
         comfortable); bench tables track **throughput**. Sparklines are min–max\n\
         normalized per series, oldest generation leftmost. Each series' latest value\n\
         is compared with the median of its up to {TREND_WINDOW} preceding generations: more than\n\
         {MAX_REGRESSION_PCT}% below it is `REGRESSED` (and `repro dashboard` exits 1), more than\n\
         {MAX_REGRESSION_PCT}% above it `improved`, within it `flat`; a series with no earlier\n\
         generation is `new`.\n\n\
         **{} regressed, {} improved, {} flat, {} new.**\n",
        count(SeriesClass::Regressed),
        count(SeriesClass::Improved),
        count(SeriesClass::Flat),
        count(SeriesClass::New),
    );
    if !ledger.skipped.is_empty() {
        md.push_str(&format!(
            "\n> **Warning:** {} corrupt ledger line(s) were skipped: {}.\n",
            ledger.skipped.len(),
            ledger
                .skipped
                .iter()
                .map(|s| format!("line {} ({})", s.line, s.error))
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }

    md.push_str("\n## Generations\n\n");
    md.push_str("| # | utc | commit | kind | source | tier | host | rows |\n");
    md.push_str("|--:|---|---|---|---|---|---|--:|\n");
    for (i, e) in ledger.entries.iter().enumerate() {
        let short: String = e.commit.chars().take(9).collect();
        md.push_str(&format!(
            "| {} | {} | `{}` | {} | {} | {} | `{}` | {} |\n",
            i + 1,
            e.utc,
            short,
            e.kind.name(),
            e.source,
            e.tier,
            e.host.key(),
            e.rows.len()
        ));
    }

    for section in trend
        .series
        .chunk_by(|a, b| (a.kind, &a.section) == (b.kind, &b.section))
    {
        let (heading, value_col) = match section[0].kind {
            EntryKind::Pipeline => ("Pipeline headroom", "latest headroom"),
            EntryKind::Bench => ("Bench throughput", "latest throughput"),
        };
        md.push_str(&format!("\n## {heading} — {}\n\n", section[0].section));
        md.push_str(&format!(
            "| series | gens | {value_col} | window median | delta | class | min | max | trend |\n"
        ));
        md.push_str("|---|--:|--:|--:|--:|---|--:|--:|---|\n");
        for s in section {
            let min = s.values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = s.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            md.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                s.id,
                s.values.len(),
                format_metric(s.latest),
                s.baseline.map_or_else(|| "-".into(), format_metric),
                s.delta_pct
                    .map_or_else(|| "-".into(), |d| format!("{d:+.1}%")),
                s.class.label(),
                format_metric(min),
                format_metric(max),
                sparkline(&s.values)
            ));
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(threads: u64) -> HostFingerprint {
        HostFingerprint {
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            threads,
        }
    }

    fn bench_entry(source: &str, values: &[(&str, f64)], threads: u64) -> LedgerEntry {
        LedgerEntry {
            kind: EntryKind::Bench,
            source: source.to_string(),
            tier: "smoke".to_string(),
            commit: "abc123".to_string(),
            host: host(threads),
            utc: "2026-08-08T00:00:00Z".to_string(),
            rows: values
                .iter()
                .map(|(id, v)| SeriesPoint {
                    id: id.to_string(),
                    value: *v,
                    bound: None,
                })
                .collect(),
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let mut entry = bench_entry("kernel", &[("n=16", 1.5), ("n=64", 2.25)], 8);
        entry.rows.push(SeriesPoint {
            id: "pipe-row".to_string(),
            value: 644.0,
            bound: Some(2368.0),
        });
        let line = serde_json::to_string(&entry.to_json());
        let back = LedgerEntry::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn parse_isolates_corrupt_lines() {
        let good = serde_json::to_string(&bench_entry("kernel", &[("n=16", 1.0)], 1).to_json());
        let text = format!("{good}\nnot json at all\n{{\"kind\":\"bench\"}}\n\n{good}\n");
        let ledger = parse(&text);
        assert_eq!(ledger.entries.len(), 2, "good lines survive");
        assert_eq!(ledger.skipped.len(), 2, "both corrupt lines isolated");
        assert_eq!(ledger.skipped[0].line, 2);
        assert_eq!(ledger.skipped[1].line, 3);
        assert!(ledger.skipped[1].error.contains("host"));
    }

    #[test]
    fn tracked_metric_is_headroom_when_bounded() {
        let p = SeriesPoint {
            id: "x".to_string(),
            value: 4.0,
            bound: Some(12.0),
        };
        assert_eq!(p.tracked(), 3.0);
        let b = SeriesPoint {
            id: "x".to_string(),
            value: 4.0,
            bound: None,
        };
        assert_eq!(b.tracked(), 4.0);
    }

    #[test]
    fn utc_formatting_matches_known_dates() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(86_399), "1970-01-01T23:59:59Z");
        assert_eq!(format_utc(1_786_147_200), "2026-08-08T00:00:00Z");
        assert_eq!(format_utc(951_827_696), "2000-02-29T12:34:56Z");
    }

    #[test]
    fn analyze_classifies_against_window_median() {
        // Five generations; "n=16" regresses in the latest, "n=64" stays
        // flat, "n=99" only ever appears once.
        let mut entries: Vec<LedgerEntry> = (0..4)
            .map(|_| bench_entry("kernel", &[("n=16", 100.0), ("n=64", 50.0)], 1))
            .collect();
        entries.push(bench_entry("kernel", &[("n=16", 60.0), ("n=64", 51.0)], 1));
        entries.push(bench_entry("other", &[("n=99", 1.0)], 1));
        let trend = analyze(&entries);
        let by_key = |k: &str| {
            trend
                .series
                .iter()
                .find(|s| s.key == k)
                .unwrap_or_else(|| panic!("series {k} missing"))
        };
        let regressed = by_key("kernel/n=16");
        assert_eq!(regressed.class, SeriesClass::Regressed);
        assert_eq!(regressed.baseline, Some(100.0));
        assert!((regressed.delta_pct.unwrap() + 40.0).abs() < 1e-9);
        assert_eq!(by_key("kernel/n=64").class, SeriesClass::Flat);
        assert_eq!(by_key("other/n=99").class, SeriesClass::New);
        assert_eq!(trend.regressed().len(), 1);
        let ledger = Ledger {
            entries,
            skipped: Vec::new(),
        };
        let rendered = render_dashboard(&ledger, &trend);
        assert!(rendered.contains("| `n=16` | 5 | 60.00 | 100 | -40.0% | REGRESSED |"));
        assert!(rendered.contains("| `n=99` | 1 | 1.00 | - | - | new |"));
        assert!(rendered.contains("**1 regressed, 0 improved, 1 flat, 1 new.**"));
    }

    #[test]
    fn analyze_window_limits_the_baseline() {
        // A fast era twice the window long, then slow generations. Once the
        // slow ones fill the window, the baseline is their median alone and
        // the latest is flat; over the whole history the fast majority
        // would set the baseline and flag it. While the fast era still
        // holds most of the window, the drop is flagged.
        let run = |slow: usize| {
            let mut entries: Vec<LedgerEntry> = (0..2 * TREND_WINDOW)
                .map(|_| bench_entry("kernel", &[("n=16", 1000.0)], 1))
                .collect();
            entries.extend((0..slow).map(|_| bench_entry("kernel", &[("n=16", 100.0)], 1)));
            analyze(&entries).series[0].clone()
        };
        let settled = run(TREND_WINDOW + 1);
        assert_eq!(settled.class, SeriesClass::Flat);
        assert_eq!(settled.baseline, Some(100.0));
        let fresh = run(TREND_WINDOW / 2 + 1);
        assert_eq!(fresh.class, SeriesClass::Regressed);
        assert_eq!(fresh.baseline, Some(1000.0));
    }

    #[test]
    fn pipeline_series_keys_carry_the_tier() {
        let mut entry = bench_entry("table1", &[("row", 1.0)], 1);
        entry.kind = EntryKind::Pipeline;
        assert_eq!(series_key(&entry, "row"), "table1@smoke/row");
        entry.kind = EntryKind::Bench;
        assert_eq!(series_key(&entry, "row"), "table1/row");
    }

    #[test]
    fn sparklines_span_the_levels() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0]), "▁▅█");
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[f64::NAN, 1.0, 2.0]), "?▁█");
    }

    #[test]
    fn metric_formatting_is_scale_aware() {
        assert_eq!(format_metric(958_861_317.5), "9.59e8");
        assert_eq!(format_metric(2368.0), "2368");
        assert_eq!(format_metric(3.677), "3.68");
        assert_eq!(format_metric(f64::NAN), "nan");
    }

    #[test]
    fn dashboard_renders_deterministically() {
        let ledger = Ledger {
            entries: vec![
                bench_entry("kernel", &[("n=16", 100.0)], 1),
                bench_entry("kernel", &[("n=16", 200.0)], 1),
            ],
            skipped: vec![SkippedLine {
                line: 3,
                error: "bad".to_string(),
            }],
        };
        let trend = analyze(&ledger.entries);
        let a = render_dashboard(&ledger, &trend);
        let b = render_dashboard(&ledger, &trend);
        assert_eq!(a, b);
        assert!(a.contains("▁█"), "sparkline rendered: {a}");
        assert!(a.contains("corrupt ledger line"));
        assert!(a.contains("| `n=16` | 2 |"));
    }

    #[test]
    fn sparkline_renders_constant_series_flat_mid_level() {
        // A constant series makes the min–max normalizer 0/0; without the
        // guard that NaN saturates to level 0 and the series renders as a
        // misleading all-time-low. Pinned: every glyph is the mid level.
        assert_eq!(sparkline(&[7.5, 7.5, 7.5, 7.5]), "▄▄▄▄");
        assert_eq!(sparkline(&[0.0]), "▄");
        // Non-finite points render as '?' and are excluded from the
        // normalization, so a constant-plus-NaN series stays flat too.
        assert_eq!(sparkline(&[2.0, f64::NAN, 2.0]), "▄?▄");
        // And a genuinely varying series still spans the full range.
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
    }

    #[test]
    fn bench_gate_columns_cover_every_suite() {
        assert_eq!(
            bench_gate_columns("multiuser_arena_engine"),
            ("n_agents", "arena_pair_slots_per_sec")
        );
        assert_eq!(
            bench_gate_columns("multiuser_bitplane_kernel"),
            ("n_agents", "bitplane_pair_slots_per_sec")
        );
        assert_eq!(
            bench_gate_columns("task_tree_grid"),
            ("cells", "tree_cells_per_sec")
        );
        assert_eq!(
            bench_gate_columns("worst_async_ttr_exhaustive"),
            ("n", "block_slots_per_sec")
        );
    }
}
