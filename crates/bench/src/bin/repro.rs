//! Regenerates every table and figure of the DeltaCFS paper.
//!
//! ```text
//! cargo run -p deltacfs-bench --release --bin repro -- all
//! cargo run -p deltacfs-bench --release --bin repro -- table2 --scale 0.25
//! cargo run -p deltacfs-bench --release --bin repro -- fig8 --json out.json
//! ```
//!
//! `--scale` scales the traces (1.0 = the paper's exact sizes; the default
//! 0.25 preserves every ratio while running in minutes on one core).

#![forbid(unsafe_code)]

use deltacfs_bench::experiments;
use deltacfs_bench::table;
use deltacfs_workloads::filebench::FilebenchConfig;

/// Every positional word `repro` understands.
const SECTIONS: &[&str] = &[
    "all", "fig1", "fig2", "table2", "fig8", "fig9", "table3", "table4", "table5", "ablation",
    "indel", "check", "metrics", "profile",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = 0.25f64;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale expects a number"));
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--json expects a path")),
                );
            }
            "--metrics" => {
                i += 1;
                metrics_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--metrics expects a path")),
                );
            }
            "--profile" => {
                i += 1;
                profile_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--profile expects a trace output path")),
                );
            }
            other if SECTIONS.contains(&other) => which.push(other.to_string()),
            other if !other.starts_with('-') => die(&format!("unknown section {other}")),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let all = which.iter().any(|w| w == "all");
    let wants = |name: &str| (all && name != "check") || which.iter().any(|w| w == name);

    let mut json = serde_json::Map::new();
    let mut claims_hold = true;
    println!("# DeltaCFS evaluation reproduction (scale {scale})\n");

    if wants("fig1") {
        let rows = experiments::fig1(scale);
        println!("{}", table::render_fig1(&rows));
        json.insert("fig1".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("fig2") {
        let result = experiments::fig2(scale);
        println!("{}", table::render_fig2(&result));
        json.insert("fig2".into(), serde_json::to_value(&result).unwrap());
    }
    if wants("table2") {
        let rows = experiments::table2(scale);
        println!("{}", table::render_table2(&rows));
        json.insert("table2".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("fig8") {
        let rows = experiments::fig8(scale);
        println!("{}", table::render_fig8(&rows));
        json.insert("fig8".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("fig9") {
        let rows = experiments::fig9(scale);
        println!("{}", table::render_fig9(&rows));
        json.insert("fig9".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("table3") {
        let cfg = FilebenchConfig::default();
        let rows = experiments::table3(&cfg, 3);
        println!("{}", table::render_table3(&rows));
        json.insert("table3".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("check") {
        let claims = deltacfs_bench::claims::check(scale);
        let (report, all_ok) = deltacfs_bench::claims::render(&claims);
        println!("{report}");
        json.insert("check".into(), serde_json::json!({ "passed": all_ok }));
        // A failed claim fails the run, but only after every requested
        // section has printed and the JSON is written.
        claims_hold = all_ok;
    }
    if wants("table4") {
        let rows = experiments::table4();
        println!("{}", table::render_table4(&rows));
        json.insert("table4".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("table5") {
        let rows = experiments::table5(&[1, 2, 3, 4]);
        println!("{}", table::render_table5(&rows));
        json.insert("table5".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("ablation") {
        let result = experiments::ablation(scale);
        println!("{}", table::render_ablation(&result));
        json.insert("ablation".into(), serde_json::to_value(&result).unwrap());
    }
    if wants("indel") {
        let rows = experiments::indel(scale);
        println!("{}", table::render_indel(&rows));
        json.insert("indel".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("metrics") || metrics_path.is_some() {
        let snap = experiments::metrics_snapshot();
        println!("## Observability snapshot (pinned-seed faulty two-writer run)\n");
        println!("{}", snap.to_prometheus());
        let value: serde_json::Value = serde_json::from_str(&snap.to_json())
            .unwrap_or_else(|e| die(&format!("metrics snapshot is not valid JSON: {e}")));
        json.insert("metrics".into(), value);
        if let Some(path) = &metrics_path {
            std::fs::write(path, snap.to_prometheus())
                .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            println!("(prometheus metrics written to {path})");
        }
    }
    if wants("profile") || profile_path.is_some() {
        let run = experiments::profile_run();
        println!("## Sync profile (pinned-seed faulty two-writer run)\n");
        println!("{}", run.report);
        let trace: serde_json::Value = serde_json::from_str(&run.chrome_trace)
            .unwrap_or_else(|e| die(&format!("chrome trace is not valid JSON: {e}")));
        let metrics: serde_json::Value = serde_json::from_str(&run.snapshot.to_json())
            .unwrap_or_else(|e| die(&format!("profiled snapshot is not valid JSON: {e}")));
        json.insert(
            "profile".into(),
            serde_json::json!({ "report": run.report, "metrics": metrics }),
        );
        if let Some(path) = &profile_path {
            std::fs::write(path, &run.chrome_trace)
                .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            println!(
                "(chrome trace with {} events written to {path} — open in Perfetto)",
                match &trace {
                    serde_json::Value::Object(map) => match map.get("traceEvents") {
                        Some(serde_json::Value::Array(events)) => events.len(),
                        _ => 0,
                    },
                    _ => 0,
                }
            );
        }
    }

    if let Some(path) = json_path {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&serde_json::Value::Object(json)).unwrap(),
        )
        .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("(json written to {path})");
    }
    if !claims_hold {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!(
        "usage: repro [{}]... [--scale F] [--json PATH] [--metrics PATH] [--profile TRACE_PATH]",
        SECTIONS.join("|")
    );
    std::process::exit(2);
}
