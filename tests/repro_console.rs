//! `repro`'s console output is the markdown echo: each pipeline run
//! prints the bytes it writes to `REPRO_<name>.md`, and no separate
//! console table.

use std::process::Command;

#[test]
fn pipeline_run_prints_its_markdown_artifact_verbatim() {
    let dir = std::env::temp_dir().join(format!("rdv_console_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "sdp", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("run repro");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(out.status.success(), "{stdout}");
    let md = std::fs::read_to_string(dir.join("REPRO_sdp.md")).expect("written markdown");
    assert!(stdout.contains(&md), "stdout lacks REPRO_sdp.md: {stdout}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("====")),
        "console header line: {stdout}"
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
