//! Graceful-degradation contract of the fault-injection pipeline: a grid
//! with one deliberately panicking cell must still complete, emit a
//! partial artifact whose `failed_cells` section lists exactly that cell
//! (with cause and seed), keep every other row — and stay byte-identical
//! across worker thread counts. `repro` reports the quarantined panic
//! once, as its `FAILED CELL` line.

use blind_rendezvous::pipelines::faults::{self, Sabotage};
use blind_rendezvous::report::Tier;
use rdv_core::fault::FaultProfile;
use std::process::Command;

/// The sabotage configuration `repro --sabotage` and CI use: cell 1
/// panics.
const SABOTAGE: Sabotage = Sabotage {
    poison_cell: Some(1),
};

#[test]
fn sabotaged_grid_degrades_to_a_partial_artifact() {
    let profile = FaultProfile::named("light").expect("committed profile");
    let out = faults::run(Tier::Smoke, 1, profile, SABOTAGE);

    // Exactly the sabotaged cell failed. At smoke tier the grid opens with
    // the CRSEQ rows over the axes (0,0), (o,0), (0,c), (o,c) at n=16, so
    // cell 1 is the o=50 row.
    assert_eq!(out.failed_cells.len(), 1, "{:?}", out.failed_cells);
    let poisoned = &out.failed_cells[0];
    assert_eq!(poisoned.id, "CRSEQ [21]/async/faults[o=50,c=0]/n=16");
    assert_eq!(
        poisoned.cause,
        format!("panic: deliberately poisoned cell: {}", poisoned.id)
    );

    // The JSON twin carries the same section.
    let failed = out.json.get("failed_cells").expect("tracked section");
    let ids: Vec<&str> = failed
        .as_array()
        .expect("array")
        .iter()
        .map(|c| c.get("id").and_then(|v| v.as_str()).expect("id"))
        .collect();
    assert_eq!(ids, vec![poisoned.id.as_str()]);

    // Every healthy cell still produced its row: 6 algorithms × 4 fault
    // axes × 1 population size at smoke tier, minus the sabotaged one.
    let rows = out
        .json
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("rows");
    assert_eq!(rows.len(), 24 - 1);
    assert!(
        !out.markdown.contains("None — every grid cell completed."),
        "the markdown must flag the partial artifact"
    );
    assert!(out.markdown.contains("faults[o=50,c=0]"));

    // Bound violations and failed cells are independent channels.
    assert!(out.violations.is_empty());
}

#[test]
fn sabotaged_artifact_is_byte_identical_across_thread_counts() {
    let profile = FaultProfile::named("light").expect("committed profile");
    let one = faults::run(Tier::Smoke, 1, profile, SABOTAGE);
    let eight = faults::run(Tier::Smoke, 8, profile, SABOTAGE);
    assert_eq!(
        serde_json::to_string_pretty(&one.json),
        serde_json::to_string_pretty(&eight.json),
        "degraded JSON artifact diverged across thread counts"
    );
    assert_eq!(
        one.markdown, eight.markdown,
        "degraded markdown artifact diverged across thread counts"
    );
    assert_eq!(one.failed_cells, eight.failed_cells);
}

#[test]
fn clean_grid_has_no_failed_cells_and_keeps_every_row() {
    let profile = FaultProfile::named("light").expect("committed profile");
    let out = faults::run(Tier::Smoke, 1, profile, Sabotage::NONE);
    assert!(out.failed_cells.is_empty());
    let rows = out
        .json
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("rows");
    assert_eq!(rows.len(), 24);
    assert!(out.markdown.contains("None — every grid cell completed."));
    // The tracked section is present (and empty) even on clean runs, so
    // consumers can rely on the schema.
    let failed = out.json.get("failed_cells").and_then(|f| f.as_array());
    assert_eq!(failed.map(|f| f.len()), Some(0));
}

#[test]
fn quarantined_panic_is_reported_once_and_others_still_print() {
    let dir = std::env::temp_dir().join(format!("rdv_degradation_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sabotaged = |out_dir: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--smoke")
            .arg("--out-dir")
            .arg(out_dir)
            .args(["table1", "--faults", "light", "--sabotage"])
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("run repro")
    };

    // The poisoned cell panics inside the quarantine: no panic message or
    // backtrace, only the degraded exit code and one FAILED CELL line.
    let out = sabotaged(&dir.join("artifacts"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert_eq!(stderr.matches("FAILED CELL").count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");

    // After the quarantine has run, a panic outside it still prints:
    // writing the artifacts under a regular file fails after the grid.
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").expect("scratch file");
    let out = sabotaged(&file.join("artifacts"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(stderr.matches("panicked at").count(), 1, "{stderr}");
    assert!(stderr.contains("creating"), "{stderr}");

    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
