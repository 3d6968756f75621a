//! A Dropbox-like sync engine (paper §II-A, §IV-B/C and reference [38]).
//!
//! Behaviour reproduced from the paper's measurements and the published
//! reverse-engineering it cites:
//!
//! * change detection via inotify events with a short quiet window — every
//!   save of a file triggers a full sync pass over it;
//! * 4 MB fixed-block **deduplication**: each sync re-hashes the whole
//!   file in 4 MB blocks (this is why Dropbox's CPU grows with file size
//!   even for tiny updates — the WeChat column of Table II);
//! * **rsync confined within dedup blocks**: changed 4 MB blocks are delta
//!   encoded against the previous synced content with 4 KB rsync blocks;
//!   checksum computation is offloaded to the client ([38]), so the
//!   client pays both the signature and the diff scan;
//! * **compression** of uploaded literals (the paper suspects Snappy);
//! * content that shifts across 4 MB boundaries defeats deduplication and
//!   most of rsync's savings (the Word column of Fig. 8c).
//!
//! The engine keeps a shadow copy of each file's last-synced content — the
//! client-side state that lets Dropbox compute signatures locally. Its
//! server is opaque ([`report`](DropboxEngine::report) returns no server
//! cost), matching the paper's "we are unable to measure Dropbox server's
//! CPU usage".

use std::collections::HashMap;

use deltacfs_core::codec::compressed_wire_size;
use deltacfs_core::{EngineReport, SyncEngine};
use deltacfs_delta::{dedup, rsync, Cost, DeltaParams};
use deltacfs_net::{Link, LinkSpec, SimClock};
use deltacfs_vfs::{OpEvent, Vfs};

use crate::common::DirtyTracker;

/// Tuning for the Dropbox-like engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropboxConfig {
    /// inotify quiet window before a sync pass starts.
    pub debounce_ms: u64,
    /// Deduplication super-block size (4 MB in Dropbox).
    pub dedup_block: usize,
    /// rsync block size within a dedup block (4 KB).
    pub rsync_block: usize,
    /// Whether uploads are LZ-compressed.
    pub compress: bool,
    /// Whether rsync runs at all. The paper had to tune replay timing to
    /// keep Dropbox's rsync engaged; with `false` the engine re-uploads
    /// changed dedup blocks wholesale (Dropbox's behaviour under rapid
    /// updates).
    pub rsync: bool,
}

impl Default for DropboxConfig {
    fn default() -> Self {
        DropboxConfig {
            debounce_ms: 500,
            dedup_block: dedup::DROPBOX_BLOCK_SIZE,
            rsync_block: 4096,
            compress: true,
            rsync: true,
        }
    }
}

impl DropboxConfig {
    /// Dropbox defaults with the 4 MB dedup granularity scaled alongside
    /// a scaled trace (the rsync block size stays at its absolute 4 KB —
    /// it is compared against absolute write sizes, not file sizes).
    pub fn scaled(scale: f64) -> Self {
        DropboxConfig {
            dedup_block: ((dedup::DROPBOX_BLOCK_SIZE as f64 * scale) as usize).max(64 * 1024),
            ..Self::default()
        }
    }
}

/// The Dropbox-like engine.
///
/// # Example
///
/// ```
/// use deltacfs_baselines::DropboxEngine;
/// use deltacfs_core::SyncEngine;
/// use deltacfs_net::SimClock;
/// use deltacfs_vfs::Vfs;
///
/// let clock = SimClock::new();
/// let mut engine = DropboxEngine::with_defaults(clock.clone());
/// let mut fs = Vfs::new();
/// fs.enable_event_log();
/// fs.create("/doc")?;
/// fs.write("/doc", 0, b"hello")?;
/// for event in fs.drain_events() {
///     engine.on_event(&event, &fs);
/// }
/// clock.advance(1_000); // past the inotify quiet window
/// engine.tick(&fs);
/// assert!(engine.report().traffic.bytes_up > 0);
/// # Ok::<(), deltacfs_vfs::VfsError>(())
/// ```
#[derive(Debug)]
pub struct DropboxEngine {
    cfg: DropboxConfig,
    clock: SimClock,
    link: Link,
    dirty: DirtyTracker,
    /// Last-synced content per path.
    shadow: HashMap<String, Vec<u8>>,
    /// Cached dedup block hashes of the last-synced content.
    shadow_ids: HashMap<String, Vec<dedup::BlockId>>,
    cost: Cost,
}

impl DropboxEngine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: DropboxConfig, clock: SimClock, link_spec: LinkSpec) -> Self {
        DropboxEngine {
            dirty: DirtyTracker::new(cfg.debounce_ms),
            cfg,
            clock,
            link: Link::new(link_spec),
            shadow: HashMap::new(),
            shadow_ids: HashMap::new(),
            cost: Cost::new(),
        }
    }

    /// Creates an engine with default (paper) settings on a PC link.
    pub fn with_defaults(clock: SimClock) -> Self {
        Self::new(DropboxConfig::default(), clock, LinkSpec::pc())
    }

    fn sync_file(&mut self, path: &str, fs: &Vfs) {
        let Ok(current) = fs.peek_all(path) else {
            // Deleted meanwhile; tell the cloud.
            if self.shadow.remove(path).is_some() {
                self.shadow_ids.remove(path);
                let now = self.clock.now();
                self.link.upload(64, now);
            }
            return;
        };
        // Dropbox reads the whole file back on every sync pass — the IO
        // amplification the paper measured at 700 MB for a 688 KB update.
        self.cost.bytes_engine_read += current.len() as u64;
        let now = self.clock.now();

        let new_ids = dedup::block_ids(&current, self.cfg.dedup_block, &mut self.cost);
        let old = self.shadow.get(path);
        let old_ids = self.shadow_ids.get(path);

        let mut upload: u64 = 64; // metadata header
        match (old, old_ids) {
            (Some(old), Some(old_ids)) => {
                let changed = dedup::changed_blocks(old_ids, &new_ids);
                for &block_idx in &changed {
                    let start = block_idx as usize * self.cfg.dedup_block;
                    let end = (start + self.cfg.dedup_block).min(current.len());
                    let new_block = &current[start..end];
                    let old_start = start.min(old.len());
                    let old_end = end.min(old.len());
                    let old_block = &old[old_start..old_end];
                    upload += 40; // per-block metadata
                    if self.cfg.rsync && !old_block.is_empty() {
                        // Client-side checksum offloading: the client
                        // computes the old block's signature itself.
                        let params = DeltaParams::with_block_size(self.cfg.rsync_block);
                        let sig = rsync::signature(old_block, &params, &mut self.cost);
                        let delta = rsync::diff(&sig, new_block, &params, &mut self.cost);
                        let literals: Vec<u8> = delta
                            .ops()
                            .iter()
                            .filter_map(|op| match op {
                                deltacfs_delta::DeltaOp::Literal(b) => Some(&b[..]),
                                _ => None,
                            })
                            .collect::<Vec<_>>()
                            .concat();
                        upload += wire_payload(self.cfg.compress, &literals, &mut self.cost)
                            + (delta.ops().len() as u64) * deltacfs_delta::OP_HEADER_BYTES;
                    } else {
                        upload += wire_payload(self.cfg.compress, new_block, &mut self.cost);
                    }
                }
            }
            _ => {
                // Initial upload: all blocks, compressed.
                upload += wire_payload(self.cfg.compress, &current, &mut self.cost)
                    + 40 * new_ids.len() as u64;
            }
        }
        self.link.upload(upload, now);
        // Small acknowledgement; checksum offloading avoids downloading
        // block lists (paper §IV-C1).
        self.link.download(128, now);
        self.shadow.insert(path.to_string(), current);
        self.shadow_ids.insert(path.to_string(), new_ids);
    }
}

/// Bytes `data` occupies on the wire — priced through the codec's
/// shared [`compressed_wire_size`] entry point when the engine
/// compresses, raw otherwise. Every payload in `sync_file` goes through
/// here, so the baseline and the adaptive wire codec agree byte for
/// byte on what "compressed size" means.
fn wire_payload(compress_on: bool, data: &[u8], cost: &mut Cost) -> u64 {
    if compress_on {
        compressed_wire_size(data, cost)
    } else {
        data.len() as u64
    }
}

impl SyncEngine for DropboxEngine {
    fn name(&self) -> &str {
        "dropbox"
    }

    fn on_event(&mut self, event: &OpEvent, _fs: &Vfs) {
        let now = self.clock.now();
        match event {
            OpEvent::Create { path }
            | OpEvent::Write { path, .. }
            | OpEvent::Truncate { path, .. }
            | OpEvent::Fsync { path }
            | OpEvent::Close { path } => self.dirty.touch(path.as_str(), now),
            OpEvent::Rename { src, dst, .. } => {
                if let Some(shadow) = self.shadow.remove(src.as_str()) {
                    self.shadow.insert(dst.to_string(), shadow);
                }
                if let Some(ids) = self.shadow_ids.remove(src.as_str()) {
                    self.shadow_ids.insert(dst.to_string(), ids);
                }
                self.dirty.rename(src.as_str(), dst.as_str());
                self.dirty.touch(dst.as_str(), now);
                // Tiny namespace RPC.
                self.link.upload(64, now);
            }
            OpEvent::Link { dst, .. } => self.dirty.touch(dst.as_str(), now),
            OpEvent::Unlink { path, .. } => {
                self.dirty.forget(path.as_str());
                if self.shadow.remove(path.as_str()).is_some() {
                    self.shadow_ids.remove(path.as_str());
                    self.link.upload(64, now);
                }
            }
            OpEvent::Mkdir { .. } | OpEvent::Rmdir { .. } => {
                self.link.upload(64, now);
            }
        }
    }

    fn tick(&mut self, fs: &Vfs) {
        let now = self.clock.now();
        for path in self.dirty.take_ready(now) {
            self.sync_file(&path, fs);
        }
    }

    fn finish(&mut self, fs: &Vfs) {
        for path in self.dirty.take_all() {
            self.sync_file(&path, fs);
        }
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            name: self.name().to_string(),
            client_cost: self.cost,
            server_cost: None, // opaque, as in the paper
            traffic: self.link.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(ops: impl Fn(&mut Vfs)) -> (DropboxEngine, Vfs) {
        let clock = SimClock::new();
        let mut engine = DropboxEngine::with_defaults(clock.clone());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        ops(&mut fs);
        for e in fs.drain_events() {
            engine.on_event(&e, &fs);
        }
        clock.advance(1000);
        engine.tick(&fs);
        (engine, fs)
    }

    #[test]
    fn initial_upload_is_compressed_full_content() {
        let (engine, _) = drive(|fs| {
            fs.create("/f").unwrap();
            fs.write("/f", 0, &vec![7u8; 100_000]).unwrap();
        });
        let t = engine.report().traffic;
        assert!(t.bytes_up > 0);
        // Constant data compresses extremely well.
        assert!(t.bytes_up < 10_000, "uploaded {}", t.bytes_up);
    }

    #[test]
    fn small_edit_costs_full_file_hash_but_small_upload() {
        let clock = SimClock::new();
        let mut engine = DropboxEngine::with_defaults(clock.clone());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        // 1 MB of incompressible-ish data.
        let content: Vec<u8> = (0..1_000_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 8) as u8)
            .collect();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &content).unwrap();
        for e in fs.drain_events() {
            engine.on_event(&e, &fs);
        }
        clock.advance(1000);
        engine.tick(&fs);
        let after_initial = engine.report();

        fs.write("/f", 500_000, b"tiny change").unwrap();
        for e in fs.drain_events() {
            engine.on_event(&e, &fs);
        }
        clock.advance(1000);
        engine.tick(&fs);
        let report = engine.report();
        let edit_upload = report.traffic.bytes_up - after_initial.traffic.bytes_up;
        // The upload is small (one 4 KB rsync block), but...
        assert!(edit_upload < 20_000, "uploaded {edit_upload}");
        // ...the client re-hashed the whole file (dedup + rsync).
        let hash_work =
            report.client_cost.bytes_strong_hashed - after_initial.client_cost.bytes_strong_hashed;
        assert!(hash_work > 1_000_000, "hashed only {hash_work}");
    }

    #[test]
    fn debounce_coalesces_bursts() {
        let clock = SimClock::new();
        let mut engine = DropboxEngine::with_defaults(clock.clone());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/f").unwrap();
        for i in 0..10 {
            fs.write("/f", i * 10, b"0123456789").unwrap();
        }
        for e in fs.drain_events() {
            engine.on_event(&e, &fs);
        }
        clock.advance(1000);
        engine.tick(&fs);
        // One sync action → one content upload message.
        assert_eq!(engine.report().traffic.msgs_up, 1);
    }

    #[test]
    fn unlink_stops_tracking() {
        let (engine, _) = drive(|fs| {
            fs.create("/f").unwrap();
            fs.write("/f", 0, b"data").unwrap();
            fs.unlink("/f").unwrap();
        });
        // Only the tiny delete RPC went up; no content upload.
        let t = engine.report().traffic;
        assert!(t.bytes_up <= 64, "uploaded {}", t.bytes_up);
    }

    #[test]
    fn finish_flushes_pending_files() {
        let clock = SimClock::new();
        let mut engine = DropboxEngine::with_defaults(clock.clone());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/f").unwrap();
        fs.write("/f", 0, b"x").unwrap();
        for e in fs.drain_events() {
            engine.on_event(&e, &fs);
        }
        engine.tick(&fs); // debounce not elapsed
        assert_eq!(engine.report().traffic.msgs_up, 0);
        engine.finish(&fs);
        assert!(engine.report().traffic.msgs_up > 0);
    }
}
