//! Golden-file tests for the snapshot export formats.
//!
//! The JSON and Prometheus renderings of a fixed registry are compared
//! byte-for-byte against checked-in golden files, so any accidental
//! format drift (ordering, whitespace, bucket math) fails loudly.
//! Regenerate with `OBS_BLESS=1 cargo test -p deltacfs-obs`.

use deltacfs_obs::Registry;

/// Builds the registry every golden file is rendered from: a slice of
/// each metric kind, shaped like the real sync-pipeline export.
fn sample_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("traffic_bytes_up", "bytes uploaded over the wire")
        .add(70_443);
    reg.counter("traffic_bytes_down", "bytes downloaded over the wire")
        .add(1_289);
    reg.counter_labeled(
        "io_bytes_read",
        "bytes read from the VFS",
        Some(("client", "0")),
    )
    .add(704_512);
    reg.counter_labeled(
        "io_bytes_read",
        "bytes read from the VFS",
        Some(("client", "1")),
    )
    .add(12_288);
    reg.gauge("sync_queue_depth", "nodes waiting in the sync queue")
        .set(3);
    let h = reg.histogram(
        "retry_backoff_ms",
        "armed retry backoff delays",
        &[500, 1000, 2000, 4000, 8000],
    );
    for v in [375, 625, 1500, 2750, 8000, 8000] {
        h.observe(v);
    }
    reg
}

fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("OBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "export drifted from golden file {} — regenerate with OBS_BLESS=1 if intended",
        path.display()
    );
}

#[test]
fn json_export_matches_golden() {
    check_golden("metrics.json", &sample_registry().snapshot().to_json());
}

#[test]
fn prometheus_export_matches_golden() {
    check_golden(
        "metrics.prom",
        &sample_registry().snapshot().to_prometheus(),
    );
}
