//! An interactive DeltaCFS sandbox: type file operations, watch what the
//! sync engine ships.
//!
//! ```text
//! cargo run --bin deltacfs_sim
//! > write /notes.txt hello world
//! > sync
//! > status
//! ```
//!
//! Also scriptable: `printf 'write /a hi\nsync\nstatus\n' | cargo run
//! --bin deltacfs_sim`.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write as _};

use deltacfs::core::{DeltaCfsConfig, DeltaCfsSystem, SyncEngine};
use deltacfs::net::{LinkSpec, SimClock};
use deltacfs::vfs::Vfs;

const HELP: &str = "\
commands:
  write <path> <text...>    create (if needed) and write at offset 0
  append <path> <text...>   append text at the end
  save <path> <text...>     transactional save (rename dance, like Word)
  mv <src> <dst>            rename
  rm <path>                 unlink
  mkdir <path>              create directory
  tick [ms]                 advance the simulated clock (default 4000)
  sync                      tick, then upload whatever is ready
  flush                     force-upload everything pending
  ls                        list local and cloud files
  history <path>            cloud-side version history
  status                    queue depth, traffic, and work counters
  help                      this text
  quit                      exit";

fn main() {
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let mut save_counter = 0u64;

    println!("DeltaCFS simulator — type `help` for commands");
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("> ");
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut parts = line.trim().splitn(3, ' ');
        let cmd = parts.next().unwrap_or("");
        let arg1 = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("");
        let result = match cmd {
            "" => Ok(()),
            "help" => {
                println!("{HELP}");
                Ok(())
            }
            "quit" | "exit" => break,
            "write" => do_write(&mut fs, arg1, rest, false),
            "append" => do_write(&mut fs, arg1, rest, true),
            "save" => do_save(&mut fs, &mut sys, arg1, rest, &mut save_counter),
            "mv" => fs.rename(arg1, rest).map_err(|e| e.to_string()),
            "rm" => fs.unlink(arg1).map_err(|e| e.to_string()),
            "mkdir" => fs.mkdir_all(arg1).map_err(|e| e.to_string()),
            "tick" => {
                let ms: u64 = arg1.parse().unwrap_or(4_000);
                clock.advance(ms);
                println!("clock now {}", clock.now());
                Ok(())
            }
            "sync" => {
                clock.advance(4_000);
                pump(&mut sys, &mut fs);
                let before = sys.report().traffic.bytes_up;
                sys.tick(&fs);
                println!("uploaded {} bytes", sys.report().traffic.bytes_up - before);
                Ok(())
            }
            "flush" => {
                pump(&mut sys, &mut fs);
                let before = sys.report().traffic.bytes_up;
                sys.finish(&fs);
                println!("uploaded {} bytes", sys.report().traffic.bytes_up - before);
                Ok(())
            }
            "ls" => {
                println!("local:");
                for p in fs.walk_files("/").unwrap_or_default() {
                    let size = fs.metadata(p.as_str()).map(|m| m.size).unwrap_or(0);
                    println!("  {p}  ({size} B)");
                }
                println!("cloud:");
                for p in sys.server().paths() {
                    let size = sys.server().layout(&p).map_or(0, |l| l.len);
                    println!("  {p}  ({size} B)");
                }
                Ok(())
            }
            "history" => {
                for v in sys.server().version_history(arg1) {
                    let len = sys.server().file_at(arg1, v).map_or(0, |c| c.len());
                    println!("  {v}  {len} B");
                }
                Ok(())
            }
            "status" => {
                pump(&mut sys, &mut fs);
                let r = sys.report();
                println!(
                    "queued nodes: {}\ntraffic: {} up / {} down\nwork: {} B rolled, {} B compared, {} B strong-hashed",
                    sys.client().queued_nodes(),
                    r.traffic.bytes_up,
                    r.traffic.bytes_down,
                    r.client_cost.bytes_rolled,
                    r.client_cost.bytes_compared,
                    r.client_cost.bytes_strong_hashed,
                );
                Ok(())
            }
            other => Err(format!("unknown command {other:?} (try `help`)")),
        };
        if let Err(e) = result {
            println!("error: {e}");
        }
        pump(&mut sys, &mut fs);
    }
}

fn atty_stdin() -> bool {
    // No libc dependency: treat piped input as non-interactive by probing
    // the TERM-ish environment; prompts in pipes are harmless anyway, so a
    // simple heuristic suffices.
    std::env::var_os("TERM").is_some() && std::env::var_os("DELTACFS_SIM_PIPE").is_none()
}

fn pump(sys: &mut DeltaCfsSystem, fs: &mut Vfs) {
    for e in fs.drain_events() {
        sys.on_event(&e, fs);
    }
}

fn do_write(fs: &mut Vfs, path: &str, text: &str, append: bool) -> Result<(), String> {
    if path.is_empty() {
        return Err("usage: write <path> <text>".into());
    }
    if !fs.exists(path) {
        fs.create(path).map_err(|e| e.to_string())?;
    }
    let offset = if append {
        fs.metadata(path).map(|m| m.size).unwrap_or(0)
    } else {
        0
    };
    fs.write(path, offset, text.as_bytes())
        .map_err(|e| e.to_string())
}

/// A Word-style transactional save: rename away, write a temp, rename it
/// back, delete the old copy — the pattern the relation table recognizes.
fn do_save(
    fs: &mut Vfs,
    sys: &mut DeltaCfsSystem,
    path: &str,
    text: &str,
    counter: &mut u64,
) -> Result<(), String> {
    if path.is_empty() {
        return Err("usage: save <path> <text>".into());
    }
    if !fs.exists(path) {
        fs.create(path).map_err(|e| e.to_string())?;
        fs.write(path, 0, text.as_bytes())
            .map_err(|e| e.to_string())?;
        return Ok(());
    }
    *counter += 1;
    let old = format!("{path}.old{counter}");
    let tmp = format!("{path}.tmp{counter}");
    fs.rename(path, &old).map_err(|e| e.to_string())?;
    pump(sys, fs);
    fs.create(&tmp).map_err(|e| e.to_string())?;
    pump(sys, fs);
    fs.write(&tmp, 0, text.as_bytes())
        .map_err(|e| e.to_string())?;
    pump(sys, fs);
    fs.close_path(&tmp).map_err(|e| e.to_string())?;
    pump(sys, fs);
    fs.rename(&tmp, path).map_err(|e| e.to_string())?;
    pump(sys, fs);
    fs.unlink(&old).map_err(|e| e.to_string())?;
    pump(sys, fs);
    println!("(transactional save complete — delta will ship on next sync)");
    Ok(())
}
