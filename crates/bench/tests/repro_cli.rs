//! The `repro` command line: an unknown section is an error, not an
//! empty report.

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
    let out = repro(&["fig1", "--scale", "0.02"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FIGURE 1"), "no table in: {stdout}");
    assert!(
        stdout.contains("Dropbox"),
        "the table has no rows: {stdout}"
    );
}
