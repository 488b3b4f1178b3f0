//! The perf-trend ledger contract, end to end: append/parse round-trips
//! (unit + property), corrupt-line isolation, N-generation regression
//! detection through the real `repro` binary (exit codes included), the
//! dashboard's byte-determinism, the committed `HISTORY.jsonl` →
//! `DASHBOARD.md` regeneration pin, the ledger's coverage of every
//! committed `BENCH_*.json` point, and `bench_report`'s speedup floors
//! and usage errors.

use blind_rendezvous::history::{
    self, analyze, EntryKind, HostFingerprint, LedgerEntry, SeriesClass, SeriesPoint,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory per test (the suite runs tests concurrently),
/// removed when the guard drops, whether the test passes or panics.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rdv_history_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn host(threads: u64) -> HostFingerprint {
    HostFingerprint {
        os: "linux".to_string(),
        arch: "x86_64".to_string(),
        threads,
    }
}

/// One bench generation with the given `(id, value)` points.
fn generation(source: &str, points: &[(&str, f64)]) -> LedgerEntry {
    LedgerEntry {
        kind: EntryKind::Bench,
        source: source.to_string(),
        tier: "smoke".to_string(),
        commit: "deadbeef".to_string(),
        host: host(1),
        utc: "2026-08-08T00:00:00Z".to_string(),
        rows: points
            .iter()
            .map(|(id, v)| SeriesPoint {
                id: id.to_string(),
                value: *v,
                bound: None,
            })
            .collect(),
    }
}

/// Builds the synthetic 5-generation ledger of the acceptance criterion:
/// two healthy series plus one (`kernel/n=16`) regressed in the latest
/// generation, and a pipeline-style headroom series that stays flat.
fn synthetic_regression_ledger(path: &Path) {
    for g in 0..5u32 {
        let kernel_16 = if g == 4 { 40.0 } else { 100.0 + f64::from(g) };
        let mut entry = generation(
            "kernel",
            &[("n=16", kernel_16), ("n=64", 500.0 + f64::from(g))],
        );
        entry.commit = format!("commit{g}");
        history::append(path, &entry).expect("append");
        let mut pipeline = LedgerEntry {
            kind: EntryKind::Pipeline,
            source: "table1".to_string(),
            tier: "smoke".to_string(),
            commit: format!("commit{g}"),
            host: host(1),
            utc: format!("2026-08-0{}T00:00:00Z", g + 1),
            rows: vec![SeriesPoint {
                id: "ours/async/symmetric/n=8".to_string(),
                value: 258.0,
                bound: Some(2368.0),
            }],
        };
        pipeline.rows.push(SeriesPoint {
            id: "ours/async/asymmetric/n=8".to_string(),
            value: 644.0,
            bound: Some(2368.0),
        });
        history::append(path, &pipeline).expect("append");
    }
}

#[test]
fn ledger_file_round_trips() {
    let scratch = Scratch::new("ledger_file_round_trips");
    let path = scratch.path("round_trip.jsonl");
    let a = generation("kernel", &[("n=16", 1.5), ("n=64", 2.25)]);
    let mut b = generation("multiuser", &[("n_agents=512", 8e9)]);
    b.host = host(8);
    b.rows.push(SeriesPoint {
        id: "bounded".to_string(),
        value: 100.0,
        bound: Some(350.0),
    });
    history::append(&path, &a).expect("append a");
    history::append(&path, &b).expect("append b");
    let ledger = history::read(&path).expect("read");
    assert_eq!(ledger.entries, vec![a, b]);
    assert!(ledger.skipped.is_empty());
}

#[test]
fn corrupt_lines_are_isolated_not_fatal() {
    let scratch = Scratch::new("corrupt_lines_are_isolated_not_fatal");
    let path = scratch.path("corrupt.jsonl");
    history::append(&path, &generation("kernel", &[("n=16", 1.0)])).expect("append");
    // Simulate a torn write plus a wrong-schema line between two good
    // generations.
    let mut text = std::fs::read_to_string(&path).expect("read back");
    text.push_str("{\"kind\":\"bench\",\"trunc\n");
    text.push_str("{\"kind\":\"martian\"}\n");
    std::fs::write(&path, text).expect("rewrite");
    history::append(&path, &generation("kernel", &[("n=16", 2.0)])).expect("append");
    let ledger = history::read(&path).expect("read");
    assert_eq!(ledger.entries.len(), 2, "both good generations survive");
    assert_eq!(
        ledger
            .skipped
            .iter()
            .map(|s| s.line)
            .collect::<Vec<usize>>(),
        vec![2, 3],
        "corrupt lines reported by line number"
    );
    // The analysis still runs over the surviving generations.
    let trend = analyze(&ledger.entries);
    assert_eq!(trend.series[0].values, vec![1.0, 2.0]);
}

#[test]
fn deeply_nested_line_is_skipped_and_repaired() {
    // A 200k-deep array once overflowed the parser's stack; it must be one
    // more corrupt line, reported by `fsck` and dropped by `--repair`.
    let scratch = Scratch::new("deeply_nested_line_is_skipped_and_repaired");
    let path = scratch.path("deep_nesting.jsonl");
    history::append(&path, &generation("kernel", &[("n=16", 1.0)])).expect("append");
    let mut text = std::fs::read_to_string(&path).expect("read back");
    text.push_str(&"[".repeat(200_000));
    text.push('\n');
    std::fs::write(&path, text).expect("rewrite");
    history::append(&path, &generation("kernel", &[("n=16", 2.0)])).expect("append");
    let ledger = history::read(&path).expect("read");
    assert_eq!(ledger.entries.len(), 2, "both good generations survive");
    assert_eq!(ledger.skipped.len(), 1);
    assert_eq!(ledger.skipped[0].line, 2);
    assert!(
        ledger.skipped[0].error.contains("nesting deeper than"),
        "{}",
        ledger.skipped[0].error
    );

    let out = fsck(&path, false);
    assert_eq!(
        out.status.code(),
        Some(1),
        "corruption without --repair exits 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = fsck(&path, true);
    assert!(
        out.status.success(),
        "fsck --repair failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let repaired = history::read(&path).expect("read repaired");
    assert_eq!(repaired.entries, ledger.entries);
    assert!(repaired.skipped.is_empty());
}

/// Runs `repro history fsck` on `path`, with `--repair` when asked.
fn fsck(path: &PathBuf, repair: bool) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["history", "fsck", "--history"]).arg(path);
    if repair {
        cmd.arg("--repair");
    }
    cmd.output().expect("run repro history fsck")
}

#[test]
fn repair_is_idempotent_on_overflowing_numbers() {
    // `1e999` overflows f64. Were it parsed as infinity, `--repair` would
    // keep the line and write the value back as `null`, and the next
    // `fsck` would report the rewritten line as corrupt.
    let scratch = Scratch::new("repair_is_idempotent_on_overflowing_numbers");
    let path = scratch.path("overflow.jsonl");
    history::append(&path, &generation("kernel", &[("n=16", 7.0)])).expect("append");
    let text = std::fs::read_to_string(&path).expect("read back");
    assert!(text.contains("\"value\":7"), "{text}");
    let text = text.replace("\"value\":7", "\"value\":1e999") + "{corrupt\n";
    std::fs::write(&path, text).expect("rewrite");
    history::append(&path, &generation("kernel", &[("n=16", 2.0)])).expect("append");

    let ledger = history::read(&path).expect("read");
    assert_eq!(ledger.entries.len(), 1);
    assert_eq!(
        ledger.skipped.iter().map(|s| s.line).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert!(
        ledger.skipped[0].error.contains("number out of range"),
        "{}",
        ledger.skipped[0].error
    );
    let out = fsck(&path, true);
    assert!(
        out.status.success(),
        "fsck --repair failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = fsck(&path, false);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fsck after --repair must find a clean ledger: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(history::read(&path).expect("read").entries, ledger.entries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile ledger bytes never abort the parser: arbitrary bytes, a
    /// truncated committed line, a committed line with one byte replaced,
    /// and a committed line nested past the parser's depth limit each
    /// yield an entry or a skipped line for every non-blank line, never a
    /// panic or a stack overflow.
    #[test]
    fn hostile_ledger_bytes_are_entries_or_skipped_lines(
        noise in proptest::collection::vec(0u8..=255, 0..96),
        pick in 0usize..64,
        cut in 0usize..1 << 16,
        flip in (0usize..1 << 16, 0u8..=255),
        depth in serde_json::MAX_DEPTH + 1..=4 * serde_json::MAX_DEPTH,
    ) {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(root.join("HISTORY.jsonl")).expect("ledger");
        let lines: Vec<&str> = committed.lines().filter(|l| !l.trim().is_empty()).collect();
        let line = lines[pick % lines.len()].as_bytes();

        let cut = cut % (line.len() + 1);
        let mut flipped = line.to_vec();
        flipped[flip.0 % line.len()] = flip.1;
        for bytes in [&noise[..], &line[..cut], &flipped[..]] {
            let text = String::from_utf8_lossy(bytes);
            let ledger = history::parse(&text);
            let non_blank = text.lines().filter(|l| !l.trim().is_empty()).count();
            prop_assert_eq!(ledger.entries.len() + ledger.skipped.len(), non_blank);
        }
        // A proper prefix of a JSON object never parses.
        let truncated = history::parse(&String::from_utf8_lossy(&line[..cut]));
        prop_assert_eq!(truncated.entries.len(), usize::from(cut == line.len()));
        // Well-formed JSON nested deeper than the limit is one skipped line.
        let line = String::from_utf8_lossy(line);
        let nested = format!("{}{line}{}", "[".repeat(depth - 1), "]".repeat(depth - 1));
        let ledger = history::parse(&nested);
        prop_assert_eq!(ledger.entries.len(), 0);
        prop_assert_eq!(ledger.skipped.len(), 1);
        prop_assert!(ledger.skipped[0].error.contains("nesting deeper than"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary ledgers round-trip exactly: values are dyadic rationals
    /// (exactly representable through the f64-only JSON shim), ids and
    /// hosts vary, bounds are present on some rows.
    #[test]
    fn ledger_round_trip_property(
        shape in proptest::collection::vec(
            (0u32..1000, 1usize..6, 1u64..16, 0u8..2),
            1..5,
        ),
    ) {
        let scratch = Scratch::new("ledger_round_trip_property");
        let path = scratch.path("prop.jsonl");
        let entries: Vec<LedgerEntry> = shape
            .iter()
            .enumerate()
            .map(|(g, &(v, rows, threads, kind))| LedgerEntry {
                kind: if kind == 0 { EntryKind::Bench } else { EntryKind::Pipeline },
                source: format!("suite{}", v % 3),
                tier: "smoke".to_string(),
                commit: format!("c{g}"),
                host: host(threads),
                utc: history::format_utc(u64::from(v) * 86_401),
                rows: (0..rows)
                    .map(|r| SeriesPoint {
                        id: format!("id={r}"),
                        value: f64::from(v) + (r as f64) / 16.0,
                        bound: (kind == 1).then(|| f64::from(v) * 2.0 + 8.0),
                    })
                    .collect(),
            })
            .collect();
        for e in &entries {
            history::append(&path, e).expect("append");
        }
        let ledger = history::read(&path).expect("read");
        prop_assert_eq!(&ledger.entries, &entries);
        prop_assert!(ledger.skipped.is_empty());
    }
}

#[test]
fn synthetic_regression_is_detected_in_process() {
    let scratch = Scratch::new("synthetic_regression_is_detected_in_process");
    let path = scratch.path("synthetic_inproc.jsonl");
    synthetic_regression_ledger(&path);
    let ledger = history::read(&path).expect("read");
    assert_eq!(ledger.entries.len(), 10, "5 bench + 5 pipeline generations");
    let trend = analyze(&ledger.entries);
    let regressed = trend.regressed();
    assert_eq!(regressed.len(), 1, "exactly the injected series");
    assert_eq!(regressed[0].key, "kernel/n=16");
    // Latest 40 vs median-of-window 101.5: −60.6%.
    assert!(regressed[0].delta_pct.unwrap() < -55.0);
    // The headroom series tracks bound/measured and stays flat.
    let headroom = trend
        .series
        .iter()
        .find(|s| s.key == "table1@smoke/ours/async/symmetric/n=8")
        .expect("pipeline series present");
    assert_eq!(headroom.class, SeriesClass::Flat);
    assert!((headroom.latest - 2368.0 / 258.0).abs() < 1e-12);
}

#[test]
fn repro_trend_history_exits_nonzero_and_names_the_regression() {
    let scratch = Scratch::new("repro_trend_history_exits_nonzero_and_names_the_regression");
    let path = scratch.path("synthetic_cli.jsonl");
    synthetic_regression_ledger(&path);
    let dashboard = scratch.path("synthetic_cli.md");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dashboard", "--history"])
        .arg(&path)
        .arg("--out")
        .arg(&dashboard)
        .output()
        .expect("run repro");
    assert_eq!(
        out.status.code(),
        Some(1),
        "regression must exit 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("| `n=16` | 5 | 40.00 | 102 | -60.6% | REGRESSED |"),
        "the echoed table names and classifies it: {stdout}"
    );
    assert!(
        stdout.contains("**1 regressed, 0 improved, 3 flat, 0 new.**"),
        "summary: {stdout}"
    );
    assert!(
        stderr.contains(
            "PERF REGRESSION: kernel/n=16 at 40.00 vs window median 102 (-60.6%, tolerance -30%)"
        ),
        "gate line names the offending series: {stderr}"
    );
    let written = std::fs::read_to_string(&dashboard).expect("written before the gate exits");
    assert!(stdout.contains(&written), "stdout echoes the written file");

    // A ledger whose latest generation is within tolerance goes green.
    let healthy = scratch.path("synthetic_cli_healthy.jsonl");
    for v in [100.0, 101.0, 99.0] {
        history::append(&healthy, &generation("kernel", &[("n=16", v)])).expect("append");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dashboard", "--history"])
        .arg(&healthy)
        .arg("--out")
        .arg(scratch.path("synthetic_cli_healthy.md"))
        .output()
        .expect("run repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "healthy ledger must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The window and tolerance are fixed: the flags that set them (and the
    // same-host baseline filter) are gone and exit 2 before any output.
    for extra in [
        &["--window", "2"][..],
        &["--max-regression-pct", "10"],
        &["--same-host"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["dashboard", "--history"])
            .arg(&path)
            .arg("--out")
            .arg(scratch.path("synthetic_cli_flags.md"))
            .args(extra)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(extra[0]), "{extra:?}: {stderr}");
    }
}

#[test]
fn repro_dashboard_is_byte_deterministic() {
    let scratch = Scratch::new("repro_dashboard_is_byte_deterministic");
    let ledger = scratch.path("dash.jsonl");
    synthetic_regression_ledger(&ledger);
    let render = |out: &PathBuf| {
        let run = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["dashboard", "--history"])
            .arg(&ledger)
            .arg("--out")
            .arg(out)
            .output()
            .expect("run repro dashboard");
        assert_eq!(run.status.code(), Some(1), "the synthetic ledger regresses");
        std::fs::read_to_string(out).expect("dashboard written")
    };
    let a = render(&scratch.path("dash_a.md"));
    let b = render(&scratch.path("dash_b.md"));
    assert_eq!(a, b, "two renders of the same ledger diverged");
    assert!(a.contains("## Generations"));
    assert!(a.contains("Pipeline headroom — table1 (smoke tier)"));
    assert!(a.contains("Bench throughput — kernel"));
    assert!(
        a.contains('▁') && a.contains('█'),
        "sparklines rendered: {a}"
    );
    assert!(
        !a.contains("render clock error"),
        "timestamps come from ledger lines"
    );
}

#[test]
fn dashboard_of_an_unreadable_ledger_exits_2_and_writes_nothing() {
    // A gate that read no generation must not pass, nor leave a dashboard
    // behind that looks like a verdict.
    let scratch = Scratch::new("dashboard_of_an_unreadable_ledger_exits_2_and_writes_nothing");
    let ledger = scratch.path("all_corrupt.jsonl");
    std::fs::write(&ledger, "not json\n{\"kind\":\"bench\"}\n").expect("write ledger");
    let out_path = scratch.path("all_corrupt.md");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dashboard", "--history"])
        .arg(&ledger)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("run repro dashboard");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no readable generations"), "{stderr}");
    assert!(!out_path.exists(), "nothing is written");
}

#[test]
fn committed_dashboard_regenerates_from_committed_ledger() {
    let scratch = Scratch::new("committed_dashboard_regenerates_from_committed_ledger");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let regenerated = scratch.path("committed_dash.md");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dashboard", "--history"])
        .arg(root.join("HISTORY.jsonl"))
        .arg("--out")
        .arg(&regenerated)
        .output()
        .expect("run repro dashboard");
    assert!(
        out.status.success(),
        "the committed ledger must classify 0 regressed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(&regenerated).expect("regenerated dashboard");
    let committed = std::fs::read_to_string(root.join("DASHBOARD.md")).expect("committed copy");
    assert_eq!(
        fresh, committed,
        "committed DASHBOARD.md is stale — regenerate with: \
         cargo run --release --bin repro -- dashboard"
    );
}

#[test]
fn two_artifact_trend_is_a_usage_error() {
    // The ledger is the only trend source and `dashboard` its one reader:
    // `repro trend OLD NEW` names the unknown command, exits 2 and prints
    // nothing that could pass for a verdict.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("trend")
        .arg(root.join("REPRO_table1.json"))
        .arg(root.join("REPRO_table1.json"))
        .output()
        .expect("run repro trend");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown experiment \"trend\""),
        "the command is named: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no table is printed");
}

#[test]
fn committed_ledger_gates_every_committed_bench_point() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ledger = history::read(&root.join("HISTORY.jsonl")).expect("committed ledger");
    assert!(ledger.skipped.is_empty());
    let with = |entry: &LedgerEntry| {
        let mut entries = ledger.entries.clone();
        entries.push(entry.clone());
        analyze(&entries)
    };
    for file in [
        "BENCH_kernel.json",
        "BENCH_multiuser.json",
        "BENCH_faults.json",
        "BENCH_tree.json",
    ] {
        let text = std::fs::read_to_string(root.join(file)).expect("committed bench report");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("bench report parses");
        let points =
            history::entry_from_bench(&doc, "smoke", "c", &host(2), "2026-10-01T00:00:00Z")
                .expect("bench entry");
        let keys: Vec<String> = points
            .rows
            .iter()
            .map(|r| history::series_key(&points, &r.id))
            .collect();
        // The window median each point of a new generation is compared
        // against; a point with no committed series has none.
        let probe = with(&points);
        let medians: Vec<f64> = keys
            .iter()
            .map(|key| {
                probe
                    .series
                    .iter()
                    .find(|s| &s.key == key)
                    .and_then(|s| s.baseline)
                    .unwrap_or_else(|| panic!("{file}: {key} is not a ledger series"))
            })
            .collect();
        // A smoke-tier generation at `scale` × every point's window median.
        let at = |scale: f64| {
            let mut entry = points.clone();
            for (row, median) in entry.rows.iter_mut().zip(&medians) {
                row.value = scale * median;
            }
            with(&entry)
        };
        let slow = at(0.65);
        for key in &keys {
            let series = slow.series.iter().find(|s| &s.key == key).expect("series");
            assert_eq!(series.class, SeriesClass::Regressed, "{file}: {key}");
        }
        assert_eq!(
            slow.regressed().len(),
            keys.len(),
            "{file}: only its points"
        );
        assert!(at(1.0).regressed().is_empty(), "{file}: at the median");
    }
}

#[test]
fn pipeline_run_appends_a_ledger_generation() {
    let scratch = Scratch::new("pipeline_run_appends_a_ledger_generation");
    let dir = &scratch.dir;
    let ledger = dir.join("HISTORY.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "sdp", "--out-dir"])
        .arg(dir)
        .arg("--history")
        .arg(&ledger)
        .env("RDV_COMMIT", "test-sha")
        .env("RDV_EPOCH", "1786147200")
        .output()
        .expect("run repro sdp");
    assert!(
        out.status.success(),
        "sdp pipeline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed = history::read(&ledger).expect("ledger written");
    assert_eq!(parsed.entries.len(), 1);
    let entry = &parsed.entries[0];
    assert_eq!(entry.kind, EntryKind::Pipeline);
    assert_eq!(entry.source, "sdp");
    assert_eq!(entry.tier, "smoke");
    assert_eq!(entry.commit, "test-sha");
    assert_eq!(entry.utc, "2026-08-08T00:00:00Z");
    assert!(entry.host.threads >= 1);
    assert!(
        !entry.rows.is_empty() && entry.rows.iter().all(|r| r.bound.is_some()),
        "pipeline rows carry bounds"
    );
}

#[test]
fn bench_speedup_gates_skip_loudly_on_single_core_hosts() {
    let scratch = Scratch::new("bench_speedup_gates_skip_loudly_on_single_core_hosts");
    let dir = &scratch.dir;
    let ledger = dir.join("HISTORY.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args([
            "--suite",
            "kernel",
            "--smoke",
            "--min-tree-speedup",
            "999",
            "--min-arena-speedup",
            "999",
            "--out-dir",
        ])
        .arg(dir)
        .arg("--history")
        .arg(&ledger)
        .env("RDV_COMMIT", "bench-sha")
        .env("RDV_EPOCH", "1786147260")
        .output()
        .expect("run bench_report");
    // Absurd floors: on a single-core host both gates must be skipped
    // (with the explicit honesty log line); on multi-core hosts the
    // gated suites were not measured (--suite kernel), so the floors
    // have nothing to fail either way.
    assert!(
        out.status.success(),
        "bench_report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let single_core = std::thread::available_parallelism()
        .map(|v| v.get() == 1)
        .unwrap_or(true);
    if single_core {
        assert!(
            stdout.contains("skipping --min-tree-speedup gate: host_threads == 1"),
            "tree gate skip is explicit: {stdout}"
        );
        assert!(
            stdout.contains("skipping --min-arena-speedup gate: host_threads == 1"),
            "arena gate skip is explicit: {stdout}"
        );
    }
    // The ledger gained the kernel suite generation either way.
    let parsed = history::read(&ledger).expect("ledger written");
    assert_eq!(parsed.entries.len(), 1);
    assert_eq!(parsed.entries[0].source, "worst_async_ttr_exhaustive");
    assert_eq!(parsed.entries[0].kind, EntryKind::Bench);
    assert_eq!(parsed.entries[0].commit, "bench-sha");
    assert_eq!(
        parsed.entries[0]
            .rows
            .iter()
            .map(|r| r.id.as_str())
            .collect::<Vec<_>>(),
        vec!["n=16", "n=64", "n=256"],
        "gate points keyed by bench id column"
    );

    // A floor that cannot be met fails the run on a multi-core host (exit
    // 1 with the floor line on stderr) and is skipped on a single-core
    // one.
    let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(["--suite", "tree", "--smoke", "--min-tree-speedup", "999"])
        .arg("--out-dir")
        .arg(dir)
        .output()
        .expect("run bench_report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if single_core {
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(
            stdout.contains("skipping --min-tree-speedup gate: host_threads == 1"),
            "tree gate skip is explicit: {stdout}"
        );
    } else {
        assert_eq!(out.status.code(), Some(1), "{stdout}");
        assert!(
            stderr.contains("PERF REGRESSION: task-tree grid speedup")
                && stderr.contains("below the 999x floor"),
            "floor line names the gate: {stderr}"
        );
    }
}

#[test]
fn repro_argument_errors_exit_2() {
    // Each line used to run (or silently drop the bad part) with exit 0;
    // none of them gets far enough to write an artifact.
    for (args, names) in [
        (&["--smok", "sdp"][..], "--smok"),
        (&["--smoke", "--out-dir", "--smoke", "sdp"], "--out-dir"),
        (&["--smoke", "lower", "--faults", "light"], "--faults"),
        (&["--smoke", "table1", "--sabotage"], "--sabotage"),
        // One tier flag: the quick tier is gone.
        (&["--smoke", "--quick", "sdp"], "--quick"),
        (&["--quick", "sdp"], "--quick"),
        // Pipelines keep no resume state: the journal flags are unknown.
        (
            &["--smoke", "table1", "--checkpoint", "t.ckpt"],
            "--checkpoint",
        ),
        (&["--smoke", "sdp", "--resume", "t.ckpt"], "--resume"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?} names {names}: {stderr}");
    }
    // The console experiments and the one-time ledger backfill are gone:
    // `all` runs the artifact pipelines.
    for name in [
        "history-import",
        "table1-asym",
        "table1-sym",
        "thm3-scaling",
        "pair-loglog",
        "figures",
        "lb-exact",
        "lb-sync",
        "lb-async",
        "beacon",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--smoke", name])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("unknown experiment"), "{name}: {stderr}");
    }
}

#[test]
fn bench_report_argument_errors_exit_2() {
    // A stale invocation fails loudly instead of silently gating nothing.
    for args in [
        &["--baseline", "BENCH_kernel.json"][..],
        &["--min-tree-speedup"],
        &["--min-tree-speedup", "abc"],
        &["--suite", "nope"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
            .args(args)
            .output()
            .expect("run bench_report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(args[0]),
            "{args:?} names the flag: {stderr}"
        );
    }
}
