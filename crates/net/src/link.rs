use crate::clock::SimTime;
use crate::profile::PlatformProfile;
use crate::traffic::TrafficStats;

/// Static characteristics of a simulated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Upload bandwidth in bytes per second; `None` means unconstrained
    /// (transfers complete instantly, as in the LAN-grade EC2 setting).
    pub bandwidth_up: Option<u64>,
    /// Download bandwidth in bytes per second; `None` means unconstrained.
    pub bandwidth_down: Option<u64>,
    /// One-way latency in milliseconds.
    pub latency_ms: u64,
}

impl LinkSpec {
    /// The PC setting: two EC2 instances in one region — effectively
    /// unconstrained for these workloads.
    pub fn pc() -> Self {
        LinkSpec {
            bandwidth_up: None,
            bandwidth_down: None,
            latency_ms: 1,
        }
    }

    /// The datacenter setting used by the scale bench: unconstrained
    /// bandwidth with sub-millisecond latency, so thousands of simulated
    /// clients measure hub dispatch cost rather than link waits.
    pub fn datacenter() -> Self {
        LinkSpec {
            bandwidth_up: None,
            bandwidth_down: None,
            latency_ms: 0,
        }
    }

    /// The mobile setting: a phone on a slow WAN (the paper reports
    /// Dropsync "keeps transmitting data during the whole experiment").
    /// 1 MB/s up, 2 MB/s down, 80 ms latency.
    pub fn mobile() -> Self {
        LinkSpec {
            bandwidth_up: Some(1024 * 1024),
            bandwidth_down: Some(2 * 1024 * 1024),
            latency_ms: 80,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::pc()
    }
}

/// An accounted, bandwidth-limited client↔cloud pipe.
///
/// The link is half-duplex per direction: an upload occupies the upward
/// direction until `bytes / bandwidth` has elapsed, and
/// [`Link::upload_busy_until`] exposes when it frees up. Engines that poll
/// the busy state to coalesce pending updates reproduce the batching the
/// paper observed on mobile (§IV-C2).
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    stats: TrafficStats,
    up_busy_until: SimTime,
    down_busy_until: SimTime,
    compute: Option<PlatformProfile>,
}

impl Link {
    /// Creates a link with the given characteristics.
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            stats: TrafficStats::new(),
            up_busy_until: SimTime::ZERO,
            down_busy_until: SimTime::ZERO,
            compute: None,
        }
    }

    /// Attaches the sender-side compute profile so codec-tagged parts
    /// charge the modeled compression CPU (`w_compressed`) before the
    /// bytes occupy the wire. Without a profile, codec-tagged parts
    /// time exactly like raw ones (bytes only).
    pub fn set_compute(&mut self, profile: PlatformProfile) {
        self.compute = Some(profile);
    }

    /// The attached compute profile, if any.
    pub fn compute(&self) -> Option<PlatformProfile> {
        self.compute
    }

    /// Earliest time a part whose payload was compressed from
    /// `compressed_from` raw bytes can start occupying the wire.
    fn codec_ready(&self, compressed_from: Option<u64>, now: SimTime) -> SimTime {
        match (self.compute, compressed_from) {
            (Some(p), Some(raw)) => now.plus_millis(p.compress_ms(raw)),
            _ => now,
        }
    }

    /// The link's static characteristics.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Accumulated traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Resets the traffic counters (not the busy state).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::new();
    }

    /// When the upload direction becomes free.
    pub fn upload_busy_until(&self) -> SimTime {
        self.up_busy_until
    }

    /// When the download direction becomes free.
    pub fn download_busy_until(&self) -> SimTime {
        self.down_busy_until
    }

    /// Sends `bytes` client → cloud starting no earlier than `now`;
    /// returns the completion time. One part plus its end of message:
    /// the whole-message sends of the baselines and the ack.
    pub fn upload(&mut self, bytes: u64, now: SimTime) -> SimTime {
        self.upload_part_codec(bytes, None, now);
        self.upload_end_msg(now)
    }

    /// Streams one part of a larger logical upload: the bytes occupy
    /// upload bandwidth (and are accounted) but no per-message latency
    /// or message count is charged — that happens once, in
    /// [`upload_end_msg`](Link::upload_end_msg). When the part is a
    /// compressed frame (`compressed_from = Some(raw_len)`) and a
    /// compute profile is attached, the sender first pays
    /// `compress_ms(raw_len)` of CPU, then the (smaller) compressed
    /// bytes occupy the wire; a raw part (`None`) costs bytes only.
    pub fn upload_part_codec(
        &mut self,
        bytes: u64,
        compressed_from: Option<u64>,
        now: SimTime,
    ) -> SimTime {
        self.stats.bytes_up += bytes;
        let start = self
            .codec_ready(compressed_from, now)
            .max(self.up_busy_until);
        self.up_busy_until = start.plus_millis(transfer_ms(bytes, self.spec.bandwidth_up));
        self.up_busy_until
    }

    /// Closes a logical upload made of
    /// [`upload_part_codec`](Link::upload_part_codec) calls: charges the
    /// one-way latency once and counts one message. `upload(bytes, now)`
    /// and a raw part of `bytes` + `upload_end_msg(now)` produce
    /// identical timing and accounting.
    pub fn upload_end_msg(&mut self, now: SimTime) -> SimTime {
        self.stats.msgs_up += 1;
        let start = now.max(self.up_busy_until);
        self.up_busy_until = start.plus_millis(self.spec.latency_ms);
        self.up_busy_until
    }

    /// Sends `bytes` cloud → client starting no earlier than `now`;
    /// returns the completion time.
    pub fn download(&mut self, bytes: u64, now: SimTime) -> SimTime {
        self.download_part_codec(bytes, None, now);
        self.download_end_msg(now)
    }

    /// The download mirror of [`upload_part_codec`](Link::upload_part_codec):
    /// one part of a forwarded stream occupies download bandwidth, after
    /// the forwarding server's `compress_ms(raw_len)` of CPU when the
    /// frame is compressed.
    pub fn download_part_codec(
        &mut self,
        bytes: u64,
        compressed_from: Option<u64>,
        now: SimTime,
    ) -> SimTime {
        self.stats.bytes_down += bytes;
        let start = self
            .codec_ready(compressed_from, now)
            .max(self.down_busy_until);
        self.down_busy_until = start.plus_millis(transfer_ms(bytes, self.spec.bandwidth_down));
        self.down_busy_until
    }

    /// Closes a logical download made of
    /// [`download_part_codec`](Link::download_part_codec) calls: charges
    /// the one-way latency once and counts one message.
    pub fn download_end_msg(&mut self, now: SimTime) -> SimTime {
        self.stats.msgs_down += 1;
        let start = now.max(self.down_busy_until);
        self.down_busy_until = start.plus_millis(self.spec.latency_ms);
        self.down_busy_until
    }
}

fn transfer_ms(bytes: u64, bandwidth: Option<u64>) -> u64 {
    match bandwidth {
        Some(bps) if bps > 0 => bytes.saturating_mul(1000).div_ceil(bps),
        _ => 0,
    }
}

impl Default for Link {
    fn default() -> Self {
        Self::new(LinkSpec::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_link_is_instantaneous_plus_latency() {
        let mut link = Link::new(LinkSpec::pc());
        let done = link.upload(100 * 1024 * 1024, SimTime::ZERO);
        assert_eq!(done, SimTime(1));
        assert_eq!(link.stats().bytes_up, 100 * 1024 * 1024);
    }

    #[test]
    fn bandwidth_limits_serialize_transfers() {
        let spec = LinkSpec {
            bandwidth_up: Some(1000), // 1000 B/s
            bandwidth_down: None,
            latency_ms: 0,
        };
        let mut link = Link::new(spec);
        let d1 = link.upload(500, SimTime::ZERO); // 500 ms
        assert_eq!(d1, SimTime(500));
        // Second transfer queues behind the first.
        let d2 = link.upload(1000, SimTime(100));
        assert_eq!(d2, SimTime(1500));
        assert_eq!(link.upload_busy_until(), SimTime(1500));
    }

    #[test]
    fn directions_are_independent() {
        let spec = LinkSpec {
            bandwidth_up: Some(1000),
            bandwidth_down: Some(1000),
            latency_ms: 0,
        };
        let mut link = Link::new(spec);
        link.upload(1000, SimTime::ZERO);
        let down_done = link.download(1000, SimTime::ZERO);
        assert_eq!(down_done, SimTime(1000));
        assert_eq!(link.stats().msgs_up, 1);
        assert_eq!(link.stats().msgs_down, 1);
    }

    #[test]
    fn mobile_spec_is_slow() {
        let mut link = Link::new(LinkSpec::mobile());
        let done = link.upload(10 * 1024 * 1024, SimTime::ZERO);
        // 10 MB at 1 MB/s plus 80 ms latency.
        assert!(done.as_millis() >= 10_000);
    }

    #[test]
    fn chunked_upload_matches_single_shot_timing_and_accounting() {
        let spec = LinkSpec {
            bandwidth_up: Some(1000),
            bandwidth_down: None,
            latency_ms: 40,
        };
        let mut whole = Link::new(spec);
        let done_whole = whole.upload(3000, SimTime::ZERO);

        let mut parts = Link::new(spec);
        parts.upload_part_codec(1000, None, SimTime::ZERO);
        parts.upload_part_codec(1000, None, SimTime(100));
        parts.upload_part_codec(1000, None, SimTime(1900));
        let done_parts = parts.upload_end_msg(SimTime(1900));

        assert_eq!(done_parts, done_whole);
        assert_eq!(parts.stats(), whole.stats());
        assert_eq!(parts.stats().msgs_up, 1);
    }

    #[test]
    fn chunked_download_matches_single_shot_timing_and_accounting() {
        let spec = LinkSpec {
            bandwidth_up: None,
            bandwidth_down: Some(1000),
            latency_ms: 40,
        };
        let mut whole = Link::new(spec);
        let done_whole = whole.download(3000, SimTime::ZERO);

        let mut parts = Link::new(spec);
        parts.download_part_codec(1000, None, SimTime::ZERO);
        parts.download_part_codec(1000, None, SimTime(100));
        parts.download_part_codec(1000, None, SimTime(1900));
        let done_parts = parts.download_end_msg(SimTime(1900));

        assert_eq!(done_parts, done_whole);
        assert_eq!(parts.stats(), whole.stats());
        assert_eq!(parts.stats().msgs_down, 1);
    }

    #[test]
    fn upload_and_download_timing_parity_per_profile() {
        // For identical byte counts on a link whose two directions share
        // a bandwidth figure, upload and download must finish at the same
        // time and charge symmetric counters — whether sent whole or as
        // parts with an end-of-message settle. Guards the forward-path
        // asymmetry where downloads charged latency per part.
        let symmetric = LinkSpec {
            bandwidth_up: Some(512 * 1024),
            bandwidth_down: Some(512 * 1024),
            latency_ms: 25,
        };
        for spec in [LinkSpec::pc(), LinkSpec::datacenter(), symmetric] {
            for bytes in [0u64, 1, 4096, 3 * 1024 * 1024] {
                let mut up = Link::new(spec);
                let mut down = Link::new(spec);
                let done_up = up.upload(bytes, SimTime::ZERO);
                let done_down = down.download(bytes, SimTime::ZERO);
                assert_eq!(done_up, done_down, "single-shot, {bytes} bytes");
                assert_eq!(up.stats().bytes_up, down.stats().bytes_down);
                assert_eq!(up.stats().msgs_up, down.stats().msgs_down);

                // Same message split into three parts: parity must hold
                // part-for-part too.
                let mut up = Link::new(spec);
                let mut down = Link::new(spec);
                let part = bytes / 3;
                let rest = bytes - 2 * part;
                for b in [part, part, rest] {
                    let u = up.upload_part_codec(b, None, SimTime::ZERO);
                    let d = down.download_part_codec(b, None, SimTime::ZERO);
                    assert_eq!(u, d, "part of {b} bytes");
                }
                let done_up = up.upload_end_msg(SimTime::ZERO);
                let done_down = down.download_end_msg(SimTime::ZERO);
                assert_eq!(done_up, done_down, "chunked, {bytes} bytes");
                assert_eq!(up.stats().bytes_up, down.stats().bytes_down);
                assert_eq!(up.stats().msgs_up, down.stats().msgs_down);
            }
        }
    }

    #[test]
    fn codec_parts_without_profile_or_tag_match_raw_parts() {
        let spec = LinkSpec::mobile();
        // No compute profile: codec-tagged parts time like raw parts.
        let mut raw = Link::new(spec);
        let mut codec = Link::new(spec);
        let a = raw.upload_part_codec(4096, None, SimTime::ZERO);
        let b = codec.upload_part_codec(4096, Some(1 << 20), SimTime::ZERO);
        assert_eq!(a, b);
        // Profile attached but the frame ships raw: still identical.
        let mut codec = Link::new(spec);
        codec.set_compute(PlatformProfile::mobile());
        let c = codec.upload_part_codec(4096, None, SimTime::ZERO);
        assert_eq!(a, c);
        assert_eq!(raw.stats(), codec.stats());
    }

    #[test]
    fn compressed_parts_pay_compression_cpu_before_the_wire() {
        let mut link = Link::new(LinkSpec {
            bandwidth_up: Some(1024 * 1024),
            bandwidth_down: Some(1024 * 1024),
            latency_ms: 0,
        });
        link.set_compute(PlatformProfile::mobile());
        let raw_len = 1u64 << 20;
        let cpu = PlatformProfile::mobile().compress_ms(raw_len);
        assert!(cpu > 0);
        // Half-ratio compressed frame: CPU first, then the smaller
        // transfer; the total is compress_ms + 512 KiB at 1 MiB/s.
        let done = link.upload_part_codec(raw_len / 2, Some(raw_len), SimTime::ZERO);
        assert_eq!(done, SimTime(cpu + 500));
        // Download direction mirrors it.
        let done = link.download_part_codec(raw_len / 2, Some(raw_len), SimTime::ZERO);
        assert_eq!(done, SimTime(cpu + 500));
        // Mobile codec CPU is dearer than PC's, same work.
        assert!(cpu > PlatformProfile::pc().compress_ms(raw_len));
    }

    #[test]
    fn reset_stats_keeps_busy_state() {
        let mut link = Link::new(LinkSpec {
            bandwidth_up: Some(100),
            bandwidth_down: None,
            latency_ms: 0,
        });
        link.upload(100, SimTime::ZERO);
        link.reset_stats();
        assert_eq!(link.stats().bytes_up, 0);
        assert_eq!(link.upload_busy_until(), SimTime(1000));
    }
}
