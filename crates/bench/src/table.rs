//! Paper-style text rendering of experiment results.

use crate::experiments::{
    AblationResult, CellResult, EngineKind, FaultCellResult, Fig2Result, InDelRow, ReliabilityRow,
    Table3Row, TRACES,
};

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

fn opt_ticks(t: Option<u64>) -> String {
    t.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string())
}

/// Renders Table II (CPU ticks) from `table2` rows.
pub fn render_table2(rows: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: CPU usage (ticks). First block: PC; second block: mobile.\n");
    out.push_str("Solutions   | Append cli/srv | Random cli/srv | Word cli/srv | WeChat cli/srv\n");
    out.push_str("------------+----------------+----------------+--------------+---------------\n");
    let engines_pc = [
        EngineKind::Dropbox,
        EngineKind::Seafile,
        EngineKind::Nfs,
        EngineKind::DeltaCfs,
    ];
    let engines_mobile = [EngineKind::Dropsync, EngineKind::DeltaCfs];
    let render_block = |engines: &[EngineKind], platform: &str, out: &mut String| {
        for &engine in engines {
            let mut line = format!("{:<12}", engine.label());
            for trace in TRACES {
                let cell = rows
                    .iter()
                    .find(|r| r.engine == engine && r.trace == trace && r.platform == platform);
                match cell {
                    Some(c) => line.push_str(&format!(
                        "| {:>7}/{:<6}",
                        opt_ticks(c.client_ticks),
                        opt_ticks(c.server_ticks)
                    )),
                    None => line.push_str("|       -/-    "),
                }
            }
            line.push('\n');
            out.push_str(&line);
        }
    };
    render_block(&engines_pc, "pc", &mut out);
    out.push_str("--- mobile ---\n");
    render_block(&engines_mobile, "mobile", &mut out);
    out
}

/// Renders Figure 8 (PC network transmission) from `fig8` rows.
pub fn render_fig8(rows: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 8: Network transmission on PC (MB up / MB down).\n");
    for trace in TRACES {
        out.push_str(&format!("  ({}) {}\n", trace, trace));
        for row in rows.iter().filter(|r| r.trace == trace) {
            out.push_str(&format!(
                "    {:<11} up {:>9} MB   down {:>9} MB\n",
                row.engine.label(),
                mb(row.bytes_up),
                mb(row.bytes_down)
            ));
        }
    }
    out
}

/// Renders Figure 9 (mobile network traffic) from `fig9` rows.
pub fn render_fig9(rows: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 9: Network traffic on mobile (MB up / MB down).\n");
    for trace in TRACES {
        for row in rows.iter().filter(|r| r.trace == trace) {
            out.push_str(&format!(
                "  {:<8} {:<9} up {:>9} MB   down {:>9} MB\n",
                trace,
                row.engine.label(),
                mb(row.bytes_up),
                mb(row.bytes_down)
            ));
        }
    }
    out
}

/// Renders Figure 1 (motivation: client resource consumption).
pub fn render_fig1(rows: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 1: Client resource consumption (motivation).\n");
    out.push_str("  trace   engine    client-ticks   upload-MB   engine-read-MB\n");
    for row in rows {
        out.push_str(&format!(
            "  {:<7} {:<9} {:>12} {:>11} {:>16}\n",
            row.trace,
            row.engine.label(),
            opt_ticks(row.client_ticks),
            mb(row.bytes_up),
            mb(row.engine_read)
        ));
    }
    out
}

/// Renders Figure 2 (Dropsync TUE on mobile).
pub fn render_fig2(result: &Fig2Result) -> String {
    format!(
        "FIGURE 2: Dropsync syncing WeChat on mobile.\n  TUE (traffic/update) = {:.1}\n  \
         sustained CPU = {:.0} ticks/s\n  full-file uploads = {}\n  update volume = {} MB\n",
        result.tue,
        result.ticks_per_sec,
        result.uploads,
        mb(result.update_bytes)
    )
}

/// Renders Table III (local throughput).
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE III: Local IO throughput (MB/s).\n");
    out.push_str("Workload    |  Native |    FUSE | DeltaCFS | DeltaCFSc\n");
    out.push_str("------------+---------+---------+----------+----------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<12}| {:>7.1} | {:>7.1} | {:>8.1} | {:>9.1}\n",
            row.workload, row.native, row.fuse, row.deltacfs, row.deltacfs_c
        ));
    }
    out
}

/// Renders Table IV (reliability).
pub fn render_table4(rows: &[ReliabilityRow]) -> String {
    let mut out = String::new();
    out.push_str("TABLE IV: Results of reliability tests.\n");
    out.push_str("Services  | Corrupted | Inconsistent | Causal upload\n");
    out.push_str("----------+-----------+--------------+--------------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<10}| {:<10}| {:<13}| {}\n",
            row.service, row.corrupted, row.inconsistent, row.causal
        ));
    }
    out
}

/// Renders Table V (fault-injection matrix).
pub fn render_table5(rows: &[FaultCellResult]) -> String {
    let mut out = String::new();
    out.push_str("TABLE V: Fault-injection matrix (seeded, deterministic).\n");
    out.push_str("Scenario    | Seed | Converged | Retries | Dups | Crashes | Gave up |   Up MB\n");
    out.push_str("------------+------+-----------+---------+------+---------+---------+--------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<12}| {:>4} | {:<9} | {:>7} | {:>4} | {:>7} | {:>7} | {:>7}\n",
            row.scenario,
            row.seed,
            if row.converged { "yes" } else { "NO" },
            row.retries,
            row.duplicates,
            row.server_crashes,
            row.gave_up,
            mb(row.bytes_up)
        ));
    }
    out
}

/// Renders the design-choice ablations (DESIGN.md §6).
pub fn render_ablation(a: &AblationResult) -> String {
    format!(
        "ABLATIONS: design choices on vs off (bytes / messages).\n  \
         1 (strong checksum): bitwise strong-hashed {} B vs rsync {} B\n  \
         2 (relation table): word upload with relations {} B, without {} B\n  \
         3 (upload delay): msgs with 3 s delay {}, without {} (upload {} vs {} B)\n  \
         4 (granularity): wechat upload, op-level RPC {} B vs 4 KB-block rsync {} B\n  \
         5 (undo-log delta): large in-place update uploads {} B with the optimisation, {} B without\n  \
         6 (causal modes): word upload {} B with backindex transactions, {} B under strict FIFO, \
         {} B under 10 s ViewBox-style snapshots\n",
        a.bitwise_strong_hashed,
        a.rsync_strong_hashed,
        a.word_up,
        a.word_up_no_relation,
        a.word_msgs,
        a.word_msgs_no_delay,
        a.word_up,
        a.word_up_no_delay,
        a.wechat_rpc_up,
        a.wechat_blocks_up,
        a.undo_delta_up,
        a.undo_raw_up,
        a.word_up,
        a.word_up_strict_fifo,
        a.word_up_snapshot
    )
}

/// Renders the InDel grid: the local delta's wire bytes over the exact
/// edit script's, without and with match extension.
pub fn render_indel(rows: &[InDelRow]) -> String {
    let mut out = String::from(
        "INDEL: local delta wire bytes / exact edit-script bound (4 KiB blocks).\n\
         \x20 size B     rate    burst  events   bound B   unextended   extended   unext/bound  ext/bound\n",
    );
    for r in rows {
        let ratio = |wire: u64| wire as f64 / r.bound.max(1) as f64;
        out.push_str(&format!(
            "  {:<10} {:<7} {:>5}  {:>6}  {:>8}  {:>11}  {:>9}  {:>11.1}  {:>9.1}\n",
            r.size,
            format!("{:e}", r.rate),
            r.burst,
            r.events,
            r.bound,
            r.unextended,
            r.extended,
            ratio(r.unextended),
            ratio(r.extended)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_smoke() {
        let rows = crate::experiments::fig9(0.005);
        let s = render_fig9(&rows);
        assert!(s.contains("Dropsync"));
        assert!(s.contains("DeltaCFS"));
        let t4 = crate::experiments::table4();
        let s = render_table4(&t4);
        assert!(s.contains("DeltaCFS"));
        assert!(s.contains("detect"));
    }

    #[test]
    fn mb_formatting() {
        assert_eq!(mb(1024 * 1024), "1.00");
        assert_eq!(mb(0), "0.00");
        assert_eq!(opt_ticks(None), "-");
        assert_eq!(opt_ticks(Some(5)), "5");
    }
}
