//! Result files and the `compare` subcommand.
//!
//! `run --out <file>` appends one record per run to a JSON file, so a
//! file holds a *set* of runs. `compare <a> <b>` takes two sets of the
//! same code or of parent and change, and for every workload and
//! end-to-end metric prints both medians, their ratio with its base, the
//! bound, and a verdict.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::{Map, Value};

use crate::meter::{median, quartiles};
use crate::report::{Better, RunOutput, END_TO_END};
use crate::run::RunArgs;
use crate::workloads::{Size, Workload};

/// The seed the acceptance sets use.
pub const DEFAULT_SEED: u64 = 20_170_605;
/// A seed kept aside: never used while a change is being written, so a
/// claim can be checked on inputs it was not tuned on.
pub const HOLDOUT_SEED: u64 = 7_046_029_254_386_353_131;

fn seed_kind(seed: u64) -> &'static str {
    match seed {
        DEFAULT_SEED => "default",
        HOLDOUT_SEED => "holdout",
        _ => "other",
    }
}

/// The commit a result was measured at, read from `.git` without
/// spawning anything; "unknown" outside a git checkout.
fn git_sha(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if sha.is_empty() {
        String::from("unknown")
    } else {
        sha
    }
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// The record `--out` stores for one run.
pub fn run_record(args: &RunArgs, out: &RunOutput, repo_root: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut r = Map::new();
    r.insert("workload".into(), text(args.workload.name()));
    r.insert("seed".into(), Value::U64(args.seed));
    r.insert("seed_kind".into(), text(seed_kind(args.seed)));
    r.insert("seconds".into(), Value::F64(args.seconds));
    r.insert("trace".into(), Value::Bool(args.trace));
    r.insert(
        "size".into(),
        text(match args.size {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }),
    );
    r.insert("git_sha".into(), text(&git_sha(repo_root)));
    r.insert("nproc".into(), Value::U64(nproc as u64));
    r.insert("iterations".into(), Value::U64(out.iterations));
    r.insert("samples".into(), Value::U64(out.samples));
    r.insert("correct".into(), Value::Bool(out.correct));
    r.insert("attempted".into(), Value::U64(out.attempted));
    r.insert("failed".into(), Value::U64(out.failed));
    r.insert("metrics".into(), out.metrics_value());
    r.insert(
        "notes".into(),
        Value::Array(out.notes.iter().map(|n| text(n)).collect()),
    );
    Value::Object(r)
}

/// Appends `record` to the set stored at `path` (created if missing).
///
/// # Errors
///
/// Returns a message if the file exists but is not a result set, or
/// cannot be written.
pub fn append_record(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(existing) => match parse_set(&existing) {
            Ok(runs) => runs,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        },
        Err(_) => Vec::new(),
    };
    runs.push(record);
    let mut root = Map::new();
    root.insert("schema".into(), Value::U64(1));
    root.insert("runs".into(), Value::Array(runs));
    let rendered = serde_json::to_string_pretty(&Value::Object(root))
        .expect("the shim serializer is infallible");
    std::fs::write(path, rendered + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_set(content: &str) -> Result<Vec<Value>, String> {
    let value: Value = serde_json::from_str(content).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Object(root) = value else {
        return Err(String::from("not a result set (no top-level object)"));
    };
    match root.get("runs") {
        Some(Value::Array(runs)) => Ok(runs.clone()),
        _ => Err(String::from("not a result set (no \"runs\" array)")),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Untraced runs of one set: workload -> metric -> one value per run,
/// plus workload -> (attempted, failed) per run.
#[derive(Debug, Default)]
struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    checks: BTreeMap<String, Vec<(u64, u64)>>,
}

fn load_set(content: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for run in parse_set(content)? {
        let Value::Object(run) = run else { continue };
        if run.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(Value::String(workload)) = run.get("workload") else {
            continue;
        };
        let count = |key: &str| run.get(key).and_then(number).unwrap_or(0.0) as u64;
        set.checks
            .entry(workload.clone())
            .or_default()
            .push((count("attempted"), count("failed")));
        if let Some(Value::Object(metrics)) = run.get("metrics") {
            for (name, entry) in metrics.iter() {
                let Value::Object(entry) = entry else {
                    continue;
                };
                if let Some(v) = entry.get("value").and_then(number) {
                    set.values
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(set)
}

/// Verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set's median is within the bound of the first's.
    Ok,
    /// The second set's median is worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so "unchanged"
    /// cannot be claimed (and not every run of the second set beats
    /// every run of the first).
    Unresolved,
}

/// Interquartile distance as a share of the median; 0 below two values.
fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Judges set `b` against set `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    // How much worse b is, as a share of a's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        return Verdict::Regressed;
    }
    if spread(a).max(spread(b)) > bound {
        let all_better = match better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        if !all_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

/// Compares two result sets. Returns the report and whether any pairing
/// regressed.
///
/// # Errors
///
/// Returns a message if either input is not a result set.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load_set(a)?, load_set(b)?);
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:<15} {:<27} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  {}\n",
        "workload",
        "metric",
        "a (median)",
        "b (median)",
        "b/a",
        "bound",
        "spread a",
        "spread b",
        "verdict"
    ));
    for w in Workload::ALL {
        let (Some(va), Some(vb)) = (a.values.get(w.name()), b.values.get(w.name())) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(xa), Some(xb)) = (va.get(m.name), vb.get(m.name)) else {
                continue;
            };
            let verdict = judge(xa, xb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (median(xa).unwrap_or(0.0), median(xb).unwrap_or(0.0));
            out.push_str(&format!(
                "{:<15} {:<27} {:>12.4} {:>12.4} {:>9.4} {:>6.1}% {:>7.2}% {:>7.2}%  {}{}\n",
                w.name(),
                m.name,
                ma,
                mb,
                mb / ma,
                m.bound * 100.0,
                spread(xa) * 100.0,
                spread(xb) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                if xa.len() < 2 || xb.len() < 2 {
                    " (single run: no spread)"
                } else {
                    ""
                }
            ));
        }
        let fmt = |checks: Option<&Vec<(u64, u64)>>| {
            let checks = checks.map_or(&[][..], |c| &c[..]);
            let attempted: u64 = checks.iter().map(|c| c.0).sum();
            let failed: u64 = checks.iter().map(|c| c.1).sum();
            format!("{failed}/{attempted} over {} runs", checks.len())
        };
        out.push_str(&format!(
            "{:<15} failed/attempted: a {}, b {}\n",
            w.name(),
            fmt(a.checks.get(w.name())),
            fmt(b.checks.get(w.name()))
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::end_to_end_metrics;

    fn output(mib_s: f64) -> RunOutput {
        RunOutput {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: end_to_end_metrics(&[
                ("sync_mib_s", mib_s),
                ("cpu_ms_per_mib", 4.0),
                ("op_p50_us", 10.0),
                ("op_p99_us", 90.0),
                ("wire_bytes_per_update_byte", 0.25),
                ("peak_mem_mib", 64.0),
                ("setup_s", 0.5),
            ]),
            iterations: 5,
            samples: 1200,
            notes: vec![],
        }
    }

    fn args() -> RunArgs {
        RunArgs {
            workload: Workload::WordSave,
            seed: DEFAULT_SEED,
            seconds: 1.0,
            iterations: None,
            trace: false,
            size: Size::Smoke,
            tmp_dir: crate::scratch_dir(),
            trace_out: None,
        }
    }

    fn set_of(values: &[f64]) -> String {
        let runs: Vec<Value> = values
            .iter()
            .map(|v| run_record(&args(), &output(*v), Path::new("/nonexistent")))
            .collect();
        let mut root = Map::new();
        root.insert("schema".into(), Value::U64(1));
        root.insert("runs".into(), Value::Array(runs));
        serde_json::to_string(&Value::Object(root)).unwrap()
    }

    #[test]
    fn records_carry_seed_kind_and_environment() {
        let Value::Object(r) = run_record(&args(), &output(100.0), Path::new("/nonexistent"))
        else {
            panic!("object");
        };
        assert_eq!(r.get("seed_kind"), Some(&text("default")));
        assert_eq!(r.get("git_sha"), Some(&text("unknown")));
        assert!(matches!(r.get("nproc"), Some(Value::U64(n)) if *n >= 1));
        assert_eq!(r.get("iterations"), Some(&Value::U64(5)));
        assert_eq!(r.get("samples"), Some(&Value::U64(1200)));
        assert_eq!(seed_kind(HOLDOUT_SEED), "holdout");
        assert_eq!(seed_kind(3), "other");
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&steady, &steady, Better::Higher, 0.10), Verdict::Ok);
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // For a lower-is-better metric the same numbers are an improvement.
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.10), Verdict::Ok);
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // Wide spread, but every run of b beats every run of a: resolved.
        let much_faster = [200.0, 260.0, 300.0, 220.0, 280.0];
        assert_eq!(
            judge(&steady, &much_faster, Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn compare_flags_a_regression_and_reports_both_medians() {
        let a = set_of(&[100.0, 101.0, 99.0]);
        let b = set_of(&[60.0, 61.0, 59.0]);
        let (report, regressed) = compare(&a, &b).unwrap();
        assert!(regressed);
        let line = report
            .lines()
            .find(|l| l.contains("sync_mib_s"))
            .expect("a sync_mib_s row");
        assert!(line.contains("100.0000") && line.contains("60.0000"));
        assert!(line.ends_with("regressed"));
        assert!(report.contains("failed/attempted: a 0/30 over 3 runs"));
        let (_, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed);
        assert!(compare("[]", &a).is_err());
    }

    #[test]
    fn out_files_accumulate_runs() {
        let dir = crate::scratch_dir().join(format!("compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        let _ = std::fs::remove_file(&path);
        for v in [100.0, 102.0] {
            append_record(
                &path,
                run_record(&args(), &output(v), Path::new("/nonexistent")),
            )
            .unwrap();
        }
        let set = load_set(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(set.values["word_save"]["sync_mib_s"], vec![100.0, 102.0]);
        std::fs::write(&path, "not json").unwrap();
        assert!(append_record(&path, Value::Null).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
