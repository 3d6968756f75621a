//! Cost budgets: counters a change must not move without saying why
//! (ROADMAP item 1). Each row drives one scenario and pins what it costs
//! per update byte; a scenario run at n and at 4n checks that a cost
//! claimed to follow the change, not the file, stays flat.
//!
//! To re-pin a row, run `cargo test --test budgets -- --nocapture`, which
//! prints each row's measured values, and say in CHANGES.md which number
//! moved and why.

mod common;

use common::metric;
use deltacfs::core::{DeltaCfsConfig, DeltaCfsSystem, SyncEngine, SyncHub};
use deltacfs::net::{LinkSpec, PlatformProfile, SimClock};
use deltacfs::obs::{MetricValue, Obs};
use deltacfs::vfs::Vfs;
use deltacfs::workloads::{replay, GeditTrace, TraceConfig, WeChatTrace};

// --- server rows -------------------------------------------------------------

/// Length of the file the huge-file save series rewrites.
const FILE_LEN: usize = 1 << 20;
/// Bytes each save inserts at the front and overwrites at each of three
/// places (the `huge_save` benchmark's edit, at a smaller scale).
const EDIT: usize = 4 << 10;

/// The save series' deterministic noise.
struct Noise(u64);

impl Noise {
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                self.0 = self
                    .0
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (self.0 >> 33) as u8
            })
            .collect()
    }

    fn index(&mut self, below: usize) -> usize {
        usize::from_le_bytes(self.bytes(8).try_into().expect("8 bytes")) % below
    }
}

/// What the server did over a save series.
#[derive(Debug)]
struct SeriesCost {
    /// Bytes the application wrote, over every save.
    update_bytes: u64,
    /// The server's `bytes_copied` over the saves (set-up excluded).
    server_copied: u64,
    /// The literal bytes the saves' deltas shipped (upload bytes less the
    /// set-up's).
    uploaded: u64,
    /// Bytes the server flattened for a reader.
    flattened: i64,
}

/// A writer saves a `FILE_LEN`-byte file `saves` times, as `huge_save`
/// does (a new block at the front, the tail dropped, three blocks
/// overwritten; written to a temp name in 64 KiB writes and renamed over
/// the file), while a peer receives every save as a forward.
fn save_series(saves: usize) -> SeriesCost {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let writer = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let peer = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let mut noise = Noise(0x2545_F491_4F6C_DD1D);
    let mut content = noise.bytes(FILE_LEN);
    let write = |hub: &mut SyncHub, path: &str, bytes: &[u8]| {
        let fs = hub.fs_mut(writer);
        fs.create(path).unwrap();
        for (i, piece) in bytes.chunks(64 << 10).enumerate() {
            fs.write(path, (i * (64 << 10)) as u64, piece).unwrap();
        }
        fs.close_path(path).unwrap();
        hub.ingest(writer);
    };
    let settle = |hub: &mut SyncHub| {
        clock.advance(10_000);
        hub.flush();
    };
    write(&mut hub, "/big", &content);
    settle(&mut hub);
    let setup_copied = hub.cloud().cost().bytes_copied;
    let setup_up = hub.traffic(writer).bytes_up;
    let mut update_bytes = 0;
    for _ in 0..saves {
        let mut new = noise.bytes(EDIT);
        new.extend_from_slice(&content[..FILE_LEN - EDIT]);
        for _ in 0..3 {
            let at = noise.index(FILE_LEN - EDIT);
            new[at..at + EDIT].copy_from_slice(&noise.bytes(EDIT));
        }
        write(&mut hub, "/big.tmp", &new);
        hub.fs_mut(writer).rename("/big.tmp", "/big").unwrap();
        hub.ingest(writer);
        settle(&mut hub);
        update_bytes += new.len() as u64;
        content = new;
    }
    let cost = SeriesCost {
        update_bytes,
        server_copied: hub.cloud().cost().bytes_copied - setup_copied,
        uploaded: hub.traffic(writer).bytes_up - setup_up,
        flattened: metric(&hub, "server_flatten_bytes"),
    };
    // Read last: a file of several extents is flattened for the reader.
    assert_eq!(hub.cloud().file("/big"), Some(&content[..]));
    assert_eq!(hub.fs(peer).peek_slice("/big").unwrap(), &content[..]);
    cost
}

/// The server applies a delta save by splicing views: what it copies
/// follows what the saves changed, not the file, at n saves and at 4n
/// alike. Each byte a save ships lands once, and the cleaner compacts the
/// file once the buffers it pins but no longer shows pass an eighth of
/// it: one file-length copy per eighth of a file replaced, so at most
/// eight more bytes per byte replaced, and a save replaces what it ships.
/// Rebuilding the file on every save would copy the whole file per save.
/// Neither applying nor forwarding flattens anything.
#[test]
fn server_copies_follow_the_bytes_saves_change_at_n_and_4n() {
    let n = 16;
    for saves in [n, 4 * n] {
        let cost = save_series(saves);
        println!("budgets: huge-file saves x{saves}: {cost:?}");
        assert_eq!(cost.flattened, 0, "apply and forward flatten nothing");
        assert!(
            cost.server_copied <= 9 * cost.uploaded,
            "x{saves}: {} bytes copied for {} shipped",
            cost.server_copied,
            cost.uploaded
        );
        assert!(
            cost.server_copied * 4 < cost.update_bytes,
            "x{saves}: {} bytes copied for {} written",
            cost.server_copied,
            cost.update_bytes
        );
    }
}

/// The gedit trace's retained history is what its saves replaced, not a
/// whole image per version: within twice the bytes its saves uploaded.
#[test]
fn gedit_history_holds_about_what_its_saves_shipped() {
    let trace = GeditTrace::new(TraceConfig::scaled(0.25));
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    replay(&trace, &mut fs, &mut sys, &clock, 100);
    let history = sys.server().history_bytes();
    let uploaded = sys.report().traffic.bytes_up;
    println!("budgets: gedit server_history_bytes {history}, bytes_up {uploaded}");
    assert!(
        history <= 2 * uploaded,
        "{history} bytes of history for {uploaded} bytes uploaded"
    );
    assert_eq!(sys.server().flatten_bytes(), 0);
}

// --- the compressed mobile path ----------------------------------------------

/// The WeChat trace at tier-1 scale through one engine with wire
/// compression on the mobile link and platform (`wechat_inplace`'s
/// set-up, smaller): the bytes that cross the wire and the frames that
/// ship compressed. Both are exact for the trace's seed, so a compressor
/// that loses ratio, or a codec decision that flips, fails here.
#[test]
fn wechat_trace_compressed_upload_is_pinned() {
    let trace = WeChatTrace::new(TraceConfig::scaled(0.02));
    let clock = SimClock::new();
    let cfg = DeltaCfsConfig::new().with_wire_compression(true);
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::mobile());
    sys.set_platform(PlatformProfile::mobile());
    let obs = Obs::new();
    sys.enable_observability(obs.clone());
    let mut fs = Vfs::new();
    replay(&trace, &mut fs, &mut sys, &clock, 100);
    let snapshot = obs.registry.snapshot();
    let counter = |name: &str| match snapshot.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let bytes_up = sys.report().traffic.bytes_up;
    let (compressed, raw) = (counter("wire_compress_chunks"), counter("wire_raw_chunks"));
    println!("budgets: wechat x0.02 compressed: bytes_up {bytes_up}, frames {compressed} compressed / {raw} raw");
    assert_eq!(
        sys.server().file("/chat.db"),
        fs.peek_slice("/chat.db").ok()
    );
    assert_eq!((bytes_up, compressed, raw), (1_882_489, 13, 2));
}
