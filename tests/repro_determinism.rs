//! Golden-artifact determinism of the reproduction pipelines, as a
//! `cargo test` twin of CI's byte-for-byte artifact diff: each pipeline
//! runs three times in-process — on 1, 2, and 8 worker threads — and
//! must serialize to identical JSON and markdown; the 1-thread run must
//! additionally match both committed artifacts exactly.

use blind_rendezvous::pipelines;
use blind_rendezvous::report::Tier;

fn pretty(out: &blind_rendezvous::report::PipelineOutput) -> String {
    serde_json::to_string_pretty(&out.json) + "\n"
}

fn committed(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn lower_pipeline_is_thread_count_invariant_and_matches_committed() {
    let single = pipelines::lower::run(Tier::Smoke, 1);
    let two = pipelines::lower::run(Tier::Smoke, 2);
    let multi = pipelines::lower::run(Tier::Smoke, 8);
    assert!(
        single.violations.is_empty(),
        "smoke lower pipeline violated a bound: {:?}",
        single.violations
    );
    assert_eq!(
        pretty(&single),
        pretty(&multi),
        "lower artifact diverged between 1 and 8 worker threads"
    );
    assert_eq!(
        pretty(&single),
        pretty(&two),
        "lower artifact diverged between 1 and 2 worker threads"
    );
    assert_eq!(single.markdown, multi.markdown);
    assert_eq!(single.markdown, two.markdown);
    assert_eq!(
        pretty(&single),
        committed("REPRO_lower.json"),
        "regenerate with: cargo run --release --bin repro -- --smoke lower"
    );
    assert_eq!(
        single.markdown,
        committed("REPRO_lower.md"),
        "regenerate with: cargo run --release --bin repro -- --smoke lower"
    );
}

#[test]
fn sdp_pipeline_is_thread_count_invariant_and_matches_committed() {
    let single = pipelines::sdp::run(Tier::Smoke, 1);
    let two = pipelines::sdp::run(Tier::Smoke, 2);
    let multi = pipelines::sdp::run(Tier::Smoke, 8);
    assert!(
        single.violations.is_empty(),
        "smoke sdp pipeline violated a bound: {:?}",
        single.violations
    );
    assert_eq!(
        pretty(&single),
        pretty(&multi),
        "sdp artifact diverged between 1 and 8 worker threads"
    );
    assert_eq!(
        pretty(&single),
        pretty(&two),
        "sdp artifact diverged between 1 and 2 worker threads"
    );
    assert_eq!(single.markdown, multi.markdown);
    assert_eq!(single.markdown, two.markdown);
    assert_eq!(
        pretty(&single),
        committed("REPRO_sdp.json"),
        "regenerate with: cargo run --release --bin repro -- --smoke sdp"
    );
    assert_eq!(
        single.markdown,
        committed("REPRO_sdp.md"),
        "regenerate with: cargo run --release --bin repro -- --smoke sdp"
    );
}

#[test]
fn table1_pipeline_is_thread_count_invariant_and_matches_committed() {
    // The whole grid now routes through one task-tree submission
    // (`sweep_pair_grid`): the 1-thread run is the literal sequential
    // nested loop, the 8-thread run balances chunks across cells — both
    // must serialize byte-identically, and match the committed artifact,
    // pinning that the tree refactor changed scheduling, not results.
    let single = pipelines::table1::run(Tier::Smoke, 1);
    let two = pipelines::table1::run(Tier::Smoke, 2);
    let multi = pipelines::table1::run(Tier::Smoke, 8);
    assert!(
        single.violations.is_empty(),
        "smoke table1 pipeline violated a bound: {:?}",
        single.violations
    );
    assert_eq!(
        pretty(&single),
        pretty(&multi),
        "table1 artifact diverged between 1 and 8 worker threads"
    );
    assert_eq!(
        pretty(&single),
        pretty(&two),
        "table1 artifact diverged between 1 and 2 worker threads"
    );
    assert_eq!(single.markdown, multi.markdown);
    assert_eq!(single.markdown, two.markdown);
    assert_eq!(
        pretty(&single),
        committed("REPRO_table1.json"),
        "regenerate with: cargo run --release --bin repro -- --smoke table1"
    );
    assert_eq!(
        single.markdown,
        committed("REPRO_table1.md"),
        "regenerate with: cargo run --release --bin repro -- --smoke table1"
    );
}

#[test]
fn faults_pipeline_is_thread_count_invariant_and_matches_committed() {
    // The fault-injection grid runs on the quarantined orchestrator and
    // its fault plans are pure functions of seeded SplitMix64 streams, so
    // the degraded-robustness artifact carries the same byte-for-byte
    // contract as the fault-free pipelines.
    let profile = rdv_core::fault::FaultProfile::named("light").expect("committed profile");
    let sabotage = pipelines::faults::Sabotage::NONE;
    let single = pipelines::faults::run(Tier::Smoke, 1, profile, sabotage);
    let two = pipelines::faults::run(Tier::Smoke, 2, profile, sabotage);
    let multi = pipelines::faults::run(Tier::Smoke, 8, profile, sabotage);
    assert!(
        single.failed_cells.is_empty(),
        "unsabotaged smoke faults pipeline lost cells: {:?}",
        single.failed_cells
    );
    assert_eq!(
        pretty(&single),
        pretty(&multi),
        "faults artifact diverged between 1 and 8 worker threads"
    );
    assert_eq!(
        pretty(&single),
        pretty(&two),
        "faults artifact diverged between 1 and 2 worker threads"
    );
    assert_eq!(single.markdown, multi.markdown);
    assert_eq!(single.markdown, two.markdown);
    assert_eq!(
        pretty(&single),
        committed("REPRO_table1_faults.json"),
        "regenerate with: cargo run --release --bin repro -- --smoke table1 --faults light"
    );
    assert_eq!(
        single.markdown,
        committed("REPRO_table1_faults.md"),
        "regenerate with: cargo run --release --bin repro -- --smoke table1 --faults light"
    );
}

#[test]
fn trend_reports_movement_between_generations() {
    // A pipeline run recorded twice in the ledger is all-flat; a third
    // generation with one row's measurement doubled (its headroom halved)
    // regresses exactly that row.
    use blind_rendezvous::history::{self, HostFingerprint, SeriesClass, TrendOptions};
    let out = pipelines::sdp::run(Tier::Smoke, 1);
    let host = HostFingerprint::detect();
    let entry = history::entry_from_artifact(&out.json, "c", &host, "2026-08-08T00:00:00Z")
        .expect("rows exist");
    let mut entries = vec![entry.clone(), entry.clone()];
    let flat = history::analyze(&entries, &TrendOptions::default());
    assert_eq!(flat.series.len(), entry.rows.len());
    assert!(flat
        .series
        .iter()
        .all(|s| s.class == SeriesClass::Flat && s.delta_pct == Some(0.0)));

    let mut perturbed = entry.clone();
    perturbed.rows[0].value *= 2.0;
    entries.push(perturbed);
    let moved = history::analyze(&entries, &TrendOptions::default());
    let regressed: Vec<&str> = moved.regressed().iter().map(|s| s.key.as_str()).collect();
    assert_eq!(
        regressed,
        vec![history::series_key(&entry, &entry.rows[0].id).as_str()]
    );
}
