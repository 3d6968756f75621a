//! Command line of the standing benchmark.
//!
//! ```text
//! deltacfs-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!                        [--traced] [--iterations <n>] [--smoke] [--out <file>]
//! deltacfs-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric by name with its unit and, as the last line
//! of standard output, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use deltacfs_benchmark::compare::{append_record, compare, run_record, DEFAULT_SEED};
use deltacfs_benchmark::run::{run, RunArgs};
use deltacfs_benchmark::scratch_dir;
use deltacfs_benchmark::workloads::{Size, Workload};

const USAGE: &str = "usage:
  deltacfs-benchmark run --workload <word_save|wechat_inplace|huge_save|hub_share|hub_fanin>
                         [--seed <u64>] [--seconds <n> | --iterations <n>]
                         [--trace <0|1> | --traced] [--smoke] [--out <file>]
  deltacfs-benchmark compare <a.json> <b.json>";

/// The benchmark lives in `<repo>/benchmark`; the crates it measures are
/// its siblings. Without them there is nothing to measure.
fn repo_root() -> Option<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .to_path_buf();
    root.join("crates").is_dir().then_some(root)
}

fn parse_run(args: &[String]) -> Result<(RunArgs, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 23.0;
    let mut iterations = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("--seed {v} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {v} is not in (0, 600]"))?;
            }
            "--iterations" => {
                let v = value("--iterations")?;
                iterations = Some(
                    v.parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("--iterations {v} is not a positive integer"))?,
                );
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--traced" => trace = true,
            "--smoke" => size = Size::Smoke,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace_out = out
        .as_ref()
        .filter(|_| trace)
        .map(|p: &PathBuf| p.with_extension("trace.json"));
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
            iterations,
            trace,
            size,
            tmp_dir: scratch_dir(),
            trace_out,
        },
        out,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let Some(root) = repo_root() else {
                eprintln!("the benchmark must sit in the repository it measures (no ../crates)");
                return ExitCode::from(2);
            };
            let (run_args, out) = match parse_run(&args[1..]) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let output = run(&run_args);
            println!(
                "# {} seed {} ({}) {} s, {} iterations, {} latency samples, nproc {}",
                run_args.workload.name(),
                run_args.seed,
                if run_args.trace { "traced" } else { "untraced" },
                run_args.seconds,
                output.iterations,
                output.samples,
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            );
            print!("{}", output.table());
            println!("ops_attempted  {}", output.attempted);
            println!("ops_failed     {}", output.failed);
            for note in &output.notes {
                println!("# note: {note}");
            }
            if let Some(path) = out {
                if let Err(e) = append_record(&path, run_record(&run_args, &output, &root)) {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
            println!("{}", output.contract_json());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => {
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            match read(&args[1])
                .and_then(|a| Ok((a, read(&args[2])?)))
                .and_then(|(a, b)| compare(&a, &b))
            {
                Ok((report, regressed)) => {
                    print!("{report}");
                    if regressed {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
