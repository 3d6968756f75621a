//! Machine-checkable reproduction claims.
//!
//! `repro check` evaluates the paper's qualitative claims — the shapes
//! that must survive reproduction — against freshly measured results and
//! reports each as pass/fail. This is the contract EXPERIMENTS.md
//! documents, executable.

use crate::experiments::{self, CellResult, EngineKind};

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Which paper artifact the claim comes from.
    pub source: &'static str,
    /// The claim, in words.
    pub statement: &'static str,
    /// Whether the measurement supports it.
    pub holds: bool,
    /// The measured numbers behind the verdict.
    pub evidence: String,
}

fn cell<'a>(
    rows: &'a [CellResult],
    engine: EngineKind,
    trace: &str,
    platform: &str,
) -> &'a CellResult {
    rows.iter()
        .find(|r| r.engine == engine && r.trace == trace && r.platform == platform)
        .expect("cell present")
}

/// Runs the evaluation at `scale` and checks every claim.
pub fn check(scale: f64) -> Vec<Claim> {
    let mut claims = Vec::new();
    let f1 = experiments::fig1(scale);
    let t2 = experiments::table2(scale);
    let f8 = experiments::fig8(scale);
    let f9 = experiments::fig9(scale);
    let t4 = experiments::table4();
    let ab = experiments::ablation(scale);

    // --- Figure 1 ---------------------------------------------------------
    {
        let dropbox = cell(&f1, EngineKind::Dropbox, "wechat", "pc")
            .client_ticks
            .unwrap();
        let seafile = cell(&f1, EngineKind::Seafile, "wechat", "pc")
            .client_ticks
            .unwrap();
        claims.push(Claim {
            source: "Fig 1",
            statement: "wechat: Dropbox burns more client CPU than Seafile",
            holds: dropbox > seafile,
            evidence: format!("Dropbox {dropbox}, Seafile {seafile}"),
        });
    }

    // --- Table II -------------------------------------------------------
    for trace in ["append", "random", "wechat"] {
        let dropbox = cell(&t2, EngineKind::Dropbox, trace, "pc")
            .client_ticks
            .unwrap();
        let seafile = cell(&t2, EngineKind::Seafile, trace, "pc")
            .client_ticks
            .unwrap();
        let deltacfs = cell(&t2, EngineKind::DeltaCfs, trace, "pc")
            .client_ticks
            .unwrap();
        claims.push(Claim {
            source: "Table II",
            statement: match trace {
                "append" => "append: client CPU DeltaCFS << Seafile << Dropbox",
                "random" => "random: client CPU DeltaCFS << Seafile << Dropbox",
                _ => "wechat: client CPU DeltaCFS << Seafile << Dropbox",
            },
            holds: deltacfs * 5 < seafile && seafile < dropbox,
            evidence: format!("DeltaCFS {deltacfs}, Seafile {seafile}, Dropbox {dropbox}"),
        });
    }
    {
        let dropbox = cell(&t2, EngineKind::Dropbox, "word", "pc")
            .client_ticks
            .unwrap();
        let deltacfs = cell(&t2, EngineKind::DeltaCfs, "word", "pc")
            .client_ticks
            .unwrap();
        claims.push(Claim {
            source: "Table II",
            statement: "word: DeltaCFS client CPU below Dropbox despite running delta encoding",
            holds: deltacfs < dropbox,
            evidence: format!("DeltaCFS {deltacfs}, Dropbox {dropbox}"),
        });
    }
    {
        let nfs = cell(&t2, EngineKind::Nfs, "word", "pc")
            .server_ticks
            .unwrap();
        let seafile = cell(&t2, EngineKind::Seafile, "word", "pc")
            .server_ticks
            .unwrap();
        claims.push(Claim {
            source: "Table II",
            statement: "word: NFS server CPU roughly twice Seafile's (network-stack cost)",
            holds: nfs > seafile && nfs < seafile * 8,
            evidence: format!("NFS {nfs}, Seafile {seafile}"),
        });
    }
    {
        let max_deltacfs_server = experiments::TRACES
            .iter()
            .map(|t| {
                cell(&t2, EngineKind::DeltaCfs, t, "pc")
                    .server_ticks
                    .unwrap()
            })
            .max()
            .unwrap();
        let min_seafile_client = experiments::TRACES
            .iter()
            .map(|t| {
                cell(&t2, EngineKind::Seafile, t, "pc")
                    .client_ticks
                    .unwrap()
            })
            .min()
            .unwrap();
        claims.push(Claim {
            source: "Table II",
            statement: "DeltaCFS server load is minimal (it only applies incremental data)",
            holds: max_deltacfs_server < min_seafile_client,
            evidence: format!(
                "max DeltaCFS server {max_deltacfs_server}, min Seafile client {min_seafile_client}"
            ),
        });
    }
    for trace in ["append", "random"] {
        let dropsync = cell(&t2, EngineKind::Dropsync, trace, "mobile")
            .client_ticks
            .unwrap();
        let deltacfs = cell(&t2, EngineKind::DeltaCfs, trace, "mobile")
            .client_ticks
            .unwrap();
        claims.push(Claim {
            source: "Table II (mobile)",
            statement: match trace {
                "append" => "append: Dropsync client CPU many times DeltaCFS's",
                _ => "random: Dropsync client CPU many times DeltaCFS's",
            },
            holds: dropsync > deltacfs * 10,
            evidence: format!("Dropsync {dropsync}, DeltaCFS {deltacfs}"),
        });
    }

    // --- Figure 8 --------------------------------------------------------
    for trace in ["append", "random"] {
        let seafile = cell(&f8, EngineKind::Seafile, trace, "pc").bytes_up;
        let deltacfs = cell(&f8, EngineKind::DeltaCfs, trace, "pc").bytes_up;
        let nfs = cell(&f8, EngineKind::Nfs, trace, "pc").bytes_up;
        claims.push(Claim {
            source: "Fig 8",
            statement: match trace {
                "append" => "append: Seafile uploads several times the others; NFS ≈ DeltaCFS",
                _ => "random: Seafile uploads several times the others; NFS ≈ DeltaCFS",
            },
            holds: seafile > 2 * deltacfs && (nfs as f64) < deltacfs as f64 * 1.2,
            evidence: format!("Seafile {seafile}, NFS {nfs}, DeltaCFS {deltacfs}"),
        });
    }
    {
        let nfs = cell(&f8, EngineKind::Nfs, "word", "pc");
        let deltacfs = cell(&f8, EngineKind::DeltaCfs, "word", "pc");
        claims.push(Claim {
            source: "Fig 8c",
            statement: "word: NFS re-downloads whole files after rename-over",
            holds: nfs.bytes_down * 3 > nfs.bytes_up,
            evidence: format!("NFS up {}, down {}", nfs.bytes_up, nfs.bytes_down),
        });
        claims.push(Claim {
            source: "Fig 8c",
            statement: "word: DeltaCFS uploads the least and downloads ~nothing",
            holds: deltacfs.bytes_up < nfs.bytes_up
                && deltacfs.bytes_up < cell(&f8, EngineKind::Dropbox, "word", "pc").bytes_up
                && deltacfs.bytes_down < deltacfs.bytes_up / 10 + 4096,
            evidence: format!(
                "DeltaCFS up {}, down {}",
                deltacfs.bytes_up, deltacfs.bytes_down
            ),
        });
    }
    {
        let deltacfs = cell(&f8, EngineKind::DeltaCfs, "wechat", "pc").bytes_up;
        let nfs = cell(&f8, EngineKind::Nfs, "wechat", "pc").bytes_up;
        let dropbox = cell(&f8, EngineKind::Dropbox, "wechat", "pc").bytes_up;
        let seafile = cell(&f8, EngineKind::Seafile, "wechat", "pc").bytes_up;
        claims.push(Claim {
            source: "Fig 8d",
            statement: "wechat: DeltaCFS ≈ NFS; Seafile worst; Dropbox lowest (dedup+compression)",
            holds: (deltacfs as f64 - nfs as f64).abs() < nfs as f64 * 0.2
                && seafile > 3 * deltacfs
                && dropbox < deltacfs,
            evidence: format!(
                "DeltaCFS {deltacfs}, NFS {nfs}, Dropbox {dropbox}, Seafile {seafile}"
            ),
        });
    }

    // --- Figure 9 --------------------------------------------------------
    {
        let worst_factor = experiments::TRACES
            .iter()
            .map(|t| {
                let dropsync = cell(&f9, EngineKind::Dropsync, t, "mobile").bytes_up as f64;
                let deltacfs = cell(&f9, EngineKind::DeltaCfs, t, "mobile").bytes_up as f64;
                dropsync / deltacfs
            })
            .fold(f64::INFINITY, f64::min);
        claims.push(Claim {
            source: "Fig 9",
            statement: "mobile: Dropsync uploads several times DeltaCFS on every trace",
            holds: worst_factor > 2.0,
            evidence: format!("smallest Dropsync/DeltaCFS upload factor {worst_factor:.1}"),
        });
    }

    // --- Table IV ---------------------------------------------------------
    {
        let deltacfs = t4.iter().find(|r| r.service == "DeltaCFS").unwrap();
        let dropbox = t4.iter().find(|r| r.service == "Dropbox").unwrap();
        claims.push(Claim {
            source: "Table IV",
            statement: "only DeltaCFS detects corruption/inconsistency and preserves causal order",
            holds: deltacfs.corrupted == "detect"
                && deltacfs.inconsistent == "detect"
                && deltacfs.causal == "Y"
                && dropbox.corrupted == "upload"
                && dropbox.causal == "N",
            evidence: format!(
                "DeltaCFS {}/{}/{}; Dropbox {}/{}/{}",
                deltacfs.corrupted,
                deltacfs.inconsistent,
                deltacfs.causal,
                dropbox.corrupted,
                dropbox.inconsistent,
                dropbox.causal
            ),
        });
    }

    // --- Ablations (DESIGN.md §6) -----------------------------------------
    claims.push(Claim {
        source: "§III-A",
        statement: "the bitwise diff strong-hashes nothing; rsync hashes its input",
        holds: ab.bitwise_strong_hashed == 0 && ab.rsync_strong_hashed > 0,
        evidence: format!(
            "bitwise {} B, rsync {} B strong-hashed",
            ab.bitwise_strong_hashed, ab.rsync_strong_hashed
        ),
    });
    claims.push(Claim {
        source: "Table I",
        statement: "word: the upload without the relation table is larger",
        holds: ab.word_up_no_relation > ab.word_up,
        evidence: format!(
            "with relations {} B, without {} B",
            ab.word_up, ab.word_up_no_relation
        ),
    });
    claims.push(Claim {
        source: "Fig 6",
        statement: "word: the 3 s upload delay sends fewer messages and fewer bytes",
        holds: ab.word_msgs < ab.word_msgs_no_delay && ab.word_up < ab.word_up_no_delay,
        evidence: format!(
            "with delay {} msgs / {} B, without {} msgs / {} B",
            ab.word_msgs, ab.word_up, ab.word_msgs_no_delay, ab.word_up_no_delay
        ),
    });
    claims.push(Claim {
        source: "§III-A undo",
        statement: "the undo-log delta shrinks a large in-place update over five-fold",
        holds: ab.undo_delta_up < ab.undo_raw_up / 5,
        evidence: format!(
            "with undo log {} B, without {} B",
            ab.undo_delta_up, ab.undo_raw_up
        ),
    });
    claims.push(Claim {
        source: "§III-E",
        statement: "word: strict FIFO uploads more than backindex transactions",
        holds: ab.word_up_strict_fifo > ab.word_up,
        evidence: format!(
            "backindex {} B, strict FIFO {} B",
            ab.word_up, ab.word_up_strict_fifo
        ),
    });
    claims
}

/// Renders the claim list; returns `false` if any claim failed.
pub fn render(claims: &[Claim]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    for c in claims {
        let mark = if c.holds { "PASS" } else { "FAIL" };
        all_ok &= c.holds;
        out.push_str(&format!(
            "[{mark}] {:<12} {}\n        {}\n",
            c.source, c.statement, c.evidence
        ));
    }
    let passed = claims.iter().filter(|c| c.holds).count();
    out.push_str(&format!("\n{passed}/{} claims hold\n", claims.len()));
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_hold_at_small_scale() {
        // 0.05 is the smallest scale at which chunk-granularity effects
        // (Seafile's upload blow-up) remain visible.
        let claims = check(0.05);
        let (report, all_ok) = render(&claims);
        assert!(all_ok, "failing claims:\n{report}");
        assert_eq!(claims.len(), 21);
    }
}
