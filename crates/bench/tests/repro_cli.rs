//! The `repro` command line: an unknown section is an error, not an
//! empty report, and a failed claim fails the run only after every
//! requested section has run.

use serde_json::Value;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_section_exits_2_and_names_the_word() {
    let out = repro(&["table9"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("table9"),
        "stderr does not name the word: {stderr}"
    );
    assert!(stderr.contains("check"), "usage omits a section: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the arguments are checked"
    );
    // One bad word among good ones is still an error.
    assert_eq!(repro(&["fig1", "table9"]).status.code(), Some(2));
}

#[test]
fn known_section_prints_its_table() {
    for (section, title, row) in [
        ("fig1", "FIGURE 1", "Dropbox"),
        ("ablation", "ABLATIONS", "strict FIFO"),
    ] {
        let out = repro(&[section, "--scale", "0.02"]);
        assert_eq!(out.status.code(), Some(0), "{section}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(title), "no table in: {stdout}");
        assert!(stdout.contains(row), "the table has no rows: {stdout}");
    }
}

#[test]
fn failed_check_still_runs_every_section_and_writes_the_json() {
    // At scale 0.02 the Fig 8d claim fails; Table IV must still print and
    // the JSON must still record the verdict before repro exits 1.
    let json = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("failed_check.json");
    let _ = std::fs::remove_file(&json);
    let out = repro(&[
        "check",
        "table4",
        "--scale",
        "0.02",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("TABLE IV"),
        "Table IV did not run: {stdout}"
    );
    let written = std::fs::read_to_string(&json).expect("the JSON is written");
    let field = |value: &Value, key: &str| match value {
        Value::Object(map) => map.get(key).cloned(),
        _ => None,
    };
    let value: Value = serde_json::from_str(&written).unwrap();
    let check = field(&value, "check").expect("the JSON records the check");
    assert_eq!(field(&check, "passed"), Some(Value::Bool(false)));
}
