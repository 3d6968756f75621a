//! The one place the benchmark names configuration knobs of the system
//! under test. Everything else takes a [`ClientSetup`]; when a knob is
//! removed from `DeltaCfsConfig` / `HubConfig`, the fix is a line here.

use deltacfs_core::{DeltaCfsConfig, HubConfig};
use deltacfs_net::{LinkSpec, PlatformProfile};

use crate::workloads::{Workload, HUGE_LEN};

/// How one client is configured and attached.
#[derive(Debug, Clone, Copy)]
pub struct ClientSetup {
    /// Client engine configuration.
    pub cfg: DeltaCfsConfig,
    /// The client's link to the cloud.
    pub link: LinkSpec,
    /// The platform the client runs on (drives the codec's cost model).
    pub platform: PlatformProfile,
}

/// Which client of a workload is being configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The (or a) writing client.
    Writer,
    /// A client that only receives forwards.
    Receiver,
    /// A receive-only client on the mobile link with wire compression.
    MobileReceiver,
}

/// Client configuration for `workload` and `role`. Parallelism and every
/// knob not named here stay at the library's defaults (worker counts cap
/// at `available_parallelism`).
pub fn bench_config(workload: Workload, role: Role) -> ClientSetup {
    let pc = ClientSetup {
        cfg: DeltaCfsConfig::new(),
        link: LinkSpec::pc(),
        platform: PlatformProfile::pc(),
    };
    let mobile = ClientSetup {
        cfg: DeltaCfsConfig::new()
            .with_streaming(true)
            .with_wire_compression(true),
        link: LinkSpec::mobile(),
        platform: PlatformProfile::mobile(),
    };
    match (workload, role) {
        (Workload::WordSave, _) => pc,
        (Workload::WechatInplace, _) => mobile,
        (Workload::HugeSave, _) => ClientSetup {
            // The default gate (64 MiB) is above what a run of seconds can
            // afford to save; half the file keeps the hierarchy engaged.
            cfg: DeltaCfsConfig::new()
                .with_streaming(true)
                .with_hierarchy_min_bytes(HUGE_LEN / 2),
            ..pc
        },
        (Workload::HubShare, Role::MobileReceiver) => mobile,
        (Workload::HubShare, _) => pc,
        (Workload::HubFanin, _) => ClientSetup {
            link: LinkSpec::datacenter(),
            ..pc
        },
    }
}

/// Hub configuration with `shards` server shards; `observed` switches the
/// hub's own latency histogram and span profiling on (traced runs only).
pub fn bench_hub_config(shards: usize, observed: bool) -> HubConfig {
    HubConfig::new()
        .with_shards(shards)
        .with_latency_histogram(observed)
        .with_profiling(observed)
}
