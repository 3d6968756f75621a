//! Output verification and failure counting.
//!
//! After every iteration the cloud's files are compared with the writer's
//! and every replica's, and apply outcomes are scanned. A failed check is
//! counted, never fatal: `attempted` and `failed` go into the result.

use std::collections::BTreeSet;

use deltacfs_core::{ApplyOutcome, CloudServer, SyncHub};
use deltacfs_vfs::Vfs;

/// Checks attempted and failed so far, with the first few failures
/// spelled out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Apply outcomes scanned, files compared, operations applied.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Human-readable notes on the first failures.
    pub notes: Vec<String>,
}

/// Notes kept per tally; the counts are always complete.
const MAX_NOTES: usize = 8;

impl Tally {
    /// Records one check.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(describe());
            }
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
    }
}

/// Scans apply outcomes: a rejected update is a failed operation.
/// Conflicts are a valid protocol outcome and are reported per layer.
pub fn scan_outcomes(outcomes: &[ApplyOutcome], tally: &mut Tally) {
    for outcome in outcomes {
        tally.check(!matches!(outcome, ApplyOutcome::Rejected { .. }), || {
            format!("apply outcome {outcome:?}")
        });
    }
}

fn file_set(fs: &Vfs) -> BTreeSet<String> {
    fs.walk_files("/")
        .unwrap_or_default()
        .into_iter()
        .map(|p| p.as_str().to_string())
        .collect()
}

/// Compares every file of a single-client deployment: each path on the
/// cloud or on the client must exist on both with equal bytes.
pub fn verify_single(server: &CloudServer, fs: &Vfs, tally: &mut Tally) {
    let mut paths = file_set(fs);
    paths.extend(server.paths());
    for path in paths {
        let local = fs.peek_all(&path).ok();
        let cloud = server.file(&path);
        tally.check(local.as_deref() == cloud, || {
            format!(
                "{path}: client {:?} bytes, cloud {:?} bytes",
                local.as_ref().map(Vec::len),
                cloud.map(<[u8]>::len)
            )
        });
    }
}

fn visible(namespace: &str, path: &str) -> bool {
    namespace.is_empty()
        || path
            .strip_prefix('/')
            .and_then(|rest| rest.strip_prefix(namespace))
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Compares every (file, replica) pair of a hub: each cloud file with
/// the copy on every client whose namespace covers it, and each client
/// file with the cloud.
pub fn verify_hub(hub: &SyncHub, tally: &mut Tally) {
    let cloud_paths: BTreeSet<String> = hub.server().paths().into_iter().collect();
    for path in &cloud_paths {
        let cloud = hub.server().file(path);
        for c in 0..hub.client_count() {
            if !visible(hub.namespace(c), path) {
                continue;
            }
            let local = hub.fs(c).peek_all(path).ok();
            tally.check(local == cloud, || {
                format!(
                    "{path} on client {c}: {:?} bytes, cloud {:?} bytes",
                    local.as_ref().map(Vec::len),
                    cloud.as_ref().map(Vec::len)
                )
            });
        }
    }
    for c in 0..hub.client_count() {
        for path in file_set(hub.fs(c)) {
            if !cloud_paths.contains(&path) {
                tally.check(false, || {
                    format!("{path} on client {c} is missing on the cloud")
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltacfs_core::{DeltaCfsConfig, DeltaCfsSystem, SyncEngine};
    use deltacfs_net::{LinkSpec, SimClock};

    fn synced_pair() -> (DeltaCfsSystem, Vfs) {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock, LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/a").unwrap();
        fs.write("/a", 0, b"alpha").unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        sys.finish(&fs);
        (sys, fs)
    }

    #[test]
    fn equal_state_passes_and_divergence_is_counted_not_fatal() {
        let (sys, mut fs) = synced_pair();
        let mut tally = Tally::default();
        verify_single(sys.server(), &fs, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // Diverge the client behind the engine's back, and add a file the
        // cloud never saw.
        fs.write("/a", 0, b"ALPHA").unwrap();
        fs.create("/b").unwrap();
        let mut tally = Tally::default();
        verify_single(sys.server(), &fs, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert_eq!(tally.notes.len(), 2);
    }

    #[test]
    fn rejected_outcomes_fail_conflicts_do_not() {
        let mut tally = Tally::default();
        scan_outcomes(
            &[
                ApplyOutcome::Applied,
                ApplyOutcome::Conflict {
                    stored_as: "/x.conflict".into(),
                },
                ApplyOutcome::Rejected {
                    reason: "no base".into(),
                },
            ],
            &mut tally,
        );
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }

    #[test]
    fn hub_replicas_are_compared_per_namespace() {
        let clock = SimClock::new();
        let mut hub = SyncHub::with_shards(clock.clone(), 2);
        let a = hub.add_client_in("t0", DeltaCfsConfig::new(), LinkSpec::pc());
        let _b = hub.add_client_in("t0", DeltaCfsConfig::new(), LinkSpec::pc());
        let _other = hub.add_client_in("t1", DeltaCfsConfig::new(), LinkSpec::pc());
        hub.fs_mut(a).mkdir_all("/t0").unwrap();
        hub.fs_mut(a).create("/t0/f").unwrap();
        hub.fs_mut(a).write("/t0/f", 0, b"shared").unwrap();
        hub.ingest(a);
        hub.flush();
        let mut tally = Tally::default();
        verify_hub(&hub, &mut tally);
        // Two replicas in t0 see the file; the t1 client is not compared.
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert!(visible("", "/anything"));
        assert!(visible("t0", "/t0/f"));
        assert!(!visible("t0", "/t01/f"));
    }

    #[test]
    fn notes_are_capped_but_counts_are_not() {
        let mut tally = Tally::default();
        for i in 0..20 {
            tally.check(false, || format!("failure {i}"));
        }
        assert_eq!(tally.failed, 20);
        assert_eq!(tally.notes.len(), MAX_NOTES);
    }
}
