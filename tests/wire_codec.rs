//! The compressed wire path against its references.
//!
//! * `decompress_into` against a byte-at-a-time reference decoder of the
//!   sequence format: same accept/reject, same bytes, the destination
//!   untouched on reject, memory that follows the bytes read and
//!   produced.
//! * Encoder round trips aimed at the word-wise arithmetic (4-byte
//!   loads at the end of input, 8-byte match extension, the distance
//!   limit, the miss stride).
//! * Mixed raw/compressed frame streams through
//!   `WireCodec::encode_frame` -> `ChunkStager::accept`, with the
//!   stager's byte gauge checked along the way.
//! * The adaptive controller against a raw wire over four content
//!   classes and two link/platform pairs, through the loop the engine
//!   runs: never more bytes, never later where it compresses.

use bytes::Bytes;
use deltacfs::core::pipeline::{frame_group, ChunkFrame, ChunkStager};
use deltacfs::core::wire::{Codec, WireError};
use deltacfs::core::{
    ClientId, CodecPolicy, FileOpItem, GroupId, Payload, UpdateMsg, UpdatePayload, Version,
    WireCodec,
};
use deltacfs::delta::{compress, Cost, Delta, DeltaOp};
use deltacfs::net::{Link, LinkSpec, PlatformProfile, SimTime};
use deltacfs::obs::{MetricValue, Obs};
use proptest::prelude::*;
use std::ops::Range;

// --- the reference decoder ----------------------------------------------

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte & 0x7e != 0 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// The sequence format (`compress`'s module doc) read one field at a
/// time, with one bounds check and one `push` per byte. `out` is the
/// caller's only so that a rejected stream still shows how far it got.
fn reference_inflate(data: &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<()> {
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        let mut lit = usize::from(token & 7);
        if lit == 7 {
            lit = usize::try_from(get_varint(data, &mut pos)?)
                .ok()?
                .checked_add(7)?;
        }
        if out.len().checked_add(lit)? > max_len {
            return None;
        }
        for _ in 0..lit {
            out.push(*data.get(pos)?);
            pos += 1;
        }
        if pos == data.len() {
            // The last sequence: literals only, no offset.
            break;
        }
        let mut dist = usize::from(data[pos]);
        pos += 1;
        if token & 0x80 != 0 {
            dist |= usize::from(*data.get(pos)?) << 8;
            pos += 1;
        }
        let mut len = usize::from(token >> 3 & 15);
        if dist == 0 {
            // No match; match-length bits are malformed.
            if len != 0 {
                return None;
            }
            continue;
        }
        if len == 15 {
            len = usize::try_from(get_varint(data, &mut pos)?)
                .ok()?
                .checked_add(15)?;
        }
        let len = len.checked_add(4)?;
        if out.len().checked_add(len)? > max_len || dist > out.len() {
            return None;
        }
        let start = out.len() - dist;
        for k in 0..len {
            let byte = out[start + k];
            out.push(byte);
        }
    }
    Some(())
}

/// Runs both decoders on `stream` under `cap` and holds the new one to
/// the reference, with `out` pre-filled so that a back-reference
/// reaching before the append point, or a rejection that leaves bytes
/// behind, shows.
fn check_against_reference(stream: &[u8], cap: usize, prefix: &[u8]) {
    let mut expected = Vec::new();
    let accepted = reference_inflate(stream, cap, &mut expected);
    let mut out = prefix.to_vec();
    let got = compress::decompress_into(stream, cap, &mut out);
    assert_eq!(got, accepted, "verdicts differ");
    let (kept, appended) = out.split_at(prefix.len());
    assert!(kept == prefix, "the bytes before the append point changed");
    match accepted {
        Some(()) => {
            assert!(appended == expected, "decoded bytes differ");
            assert!(appended.len() <= cap, "appended more than the cap");
        }
        None => assert!(appended.is_empty(), "a rejected stream left bytes behind"),
    }
    // Memory follows what was read and what was produced (before a
    // rejection, too), never a length a token only declared.
    let budget = 4 * (prefix.len() + stream.len().max(expected.len())) + 64;
    assert!(
        out.capacity() <= budget,
        "capacity {} for {} input and {} produced bytes",
        out.capacity(),
        stream.len(),
        expected.len()
    );
}

/// Byte ranges of the sequences of a well-formed stream, each with the
/// range of its offset (none for a last sequence of literals only).
fn sequence_spans(stream: &[u8]) -> Vec<(Range<usize>, Option<Range<usize>>)> {
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while pos < stream.len() {
        let start = pos;
        let token = stream[pos];
        pos += 1;
        let mut lit = usize::from(token & 7);
        if lit == 7 {
            lit += get_varint(stream, &mut pos).expect("well-formed stream") as usize;
        }
        pos += lit;
        let mut offset = None;
        if pos < stream.len() {
            let width = 1 + usize::from(token >> 7);
            offset = Some(pos..pos + width);
            pos += width;
            if token >> 3 & 15 == 15 {
                get_varint(stream, &mut pos).expect("well-formed stream");
            }
        }
        spans.push((start..pos, offset));
    }
    spans
}

/// Skewed toward repetitive content so matches — overlapping ones
/// included — actually occur.
fn buffer(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..max),
        proptest::collection::vec(0u8..4, 0..max),
        (proptest::collection::vec(any::<u8>(), 1..24), 0..max).prop_map(|(unit, len)| unit
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()),
    ]
}

/// A cap below, at or above `len`.
fn cap_around(len: usize, choice: u8, slack: usize) -> usize {
    match choice % 3 {
        0 => len.saturating_sub(1 + slack % 8),
        1 => len,
        _ => len + 1 + slack,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoder_matches_reference_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..512),
        cap in prop_oneof![0usize..8192, Just(1usize << 20)],
        prefix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        check_against_reference(&soup, cap, &prefix);
    }

    #[test]
    fn decoder_matches_reference_on_damaged_streams(
        data in buffer(4096),
        damage in 0u8..6,
        x in any::<usize>(),
        y in any::<usize>(),
        cap_choice in any::<u8>(),
        slack in 0usize..4096,
        prefix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let valid = compress::compress(&data, &mut Cost::new());
        let spans = sequence_spans(&valid);
        let mut stream = valid.clone();
        match damage {
            // Untouched: the cap alone decides.
            0 => {}
            // One to three flipped bits.
            1 if !stream.is_empty() => {
                for k in 0..1 + y % 3 {
                    let bit = x.wrapping_add(k.wrapping_mul(y)) % (stream.len() * 8);
                    stream[bit / 8] ^= 1 << (bit % 8);
                }
            }
            // Cut anywhere, token boundary or not.
            2 => stream.truncate(x % (stream.len() + 1)),
            // One sequence spliced in at another sequence's boundary —
            // or, when both land on the same one, duplicated in place.
            3 if !spans.is_empty() => {
                let sequence = valid[spans[x % spans.len()].0.clone()].to_vec();
                let at = spans[y % spans.len()].0.start;
                stream.splice(at..at, sequence);
            }
            // A run of sequences dropped.
            4 if !spans.is_empty() => {
                let (a, b) = (x % spans.len(), y % spans.len());
                stream.drain(spans[a.min(b)].0.start..spans[a.max(b)].0.end);
            }
            // One sequence's offset zeroed: "no match", its match bits
            // still set unless the match was the shortest.
            5 if !spans.is_empty() => {
                if let Some(offset) = spans[x % spans.len()].1.clone() {
                    stream[offset].fill(0);
                }
            }
            _ => {}
        }
        check_against_reference(&stream, cap_around(data.len(), cap_choice, slack), &prefix);
    }

    /// Any decision schedule over any framing of a group of multi-piece
    /// messages stages to the messages the raw stream stages to, and the
    /// stager's gauge counts exactly the raw bytes received so far.
    #[test]
    fn scheduled_codec_stream_stages_like_the_raw_stream(
        bodies in proptest::collection::vec(buffer(6000), 1..5),
        budget in 64usize..4096,
        schedule in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let msgs = group_of(&bodies);
        let mut raw_frames = Vec::new();
        frame_group(&msgs, budget, |f| raw_frames.push(f));
        let mut raw_stager = ChunkStager::new();
        let mut raw_committed = None;
        for frame in &raw_frames {
            raw_committed = raw_stager.accept(frame).expect("raw stream stages");
        }
        prop_assert_eq!(raw_committed.as_ref(), Some(&msgs));

        let mut codec = WireCodec::for_upload(
            CodecPolicy::Schedule(schedule),
            PlatformProfile::mobile(),
            LinkSpec::mobile(),
        );
        let mut stager = ChunkStager::new();
        let mut received = 0u64;
        let mut committed = None;
        for frame in raw_frames {
            received += frame.byte_len();
            let wire_frame = codec.encode_frame(frame, 0);
            prop_assert!(committed.is_none(), "frames after the commit");
            committed = stager.accept(&wire_frame).expect("codec stream stages");
            let staged = if committed.is_some() { 0 } else { received };
            prop_assert_eq!(stager.staged_bytes(), staged);
        }
        prop_assert_eq!(committed, Some(msgs));
        prop_assert_eq!(stager.staged_groups(), 0);
    }

    /// A message's declared length is wire input: declared too long, too
    /// short, past the decompression cap, or changed between its frames,
    /// the stream is `Malformed` — no panic, nothing left staged — and a
    /// resend of the true stream commits.
    #[test]
    fn a_lying_message_length_is_malformed_and_stages_nothing(
        bodies in proptest::collection::vec(buffer(6000), 1..4),
        budget in 64usize..4096,
        compressed in any::<bool>(),
        lie in 0u8..4,
        by in 1u64..5000,
        victim in 0usize..1000,
    ) {
        let msgs = group_of(&bodies);
        let mut frames = Vec::new();
        frame_group(&msgs, budget, |f| frames.push(f));
        if compressed {
            let mut codec = WireCodec::for_upload(
                CodecPolicy::Always,
                PlatformProfile::mobile(),
                LinkSpec::mobile(),
            );
            frames = frames.into_iter().map(|f| codec.encode_frame(f, 0)).collect();
        }
        let victim = victim % frames.len();
        let msg_idx = frames[victim].msg_idx;
        let mut lying = frames.clone();
        for (i, frame) in lying.iter_mut().enumerate() {
            let declared = frame.msg_len;
            frame.msg_len = match lie {
                _ if frame.msg_idx != msg_idx => continue,
                0 => declared + by,
                1 => declared.saturating_sub(by),
                2 => compress::MAX_DECOMPRESSED as u64 + by,
                // One frame of the message says otherwise.
                _ if i == victim => declared + by,
                _ => continue,
            };
        }
        let mut stager = ChunkStager::new();
        let mut rejected = false;
        for frame in &lying {
            match stager.accept(frame) {
                Ok(committed) => prop_assert!(committed.is_none(), "a lying stream committed"),
                Err(e) => {
                    prop_assert!(matches!(e, WireError::Malformed(_)), "{:?}", e);
                    rejected = true;
                    break;
                }
            }
        }
        prop_assert!(rejected, "lie {} by {} went unnoticed", lie, by);
        prop_assert_eq!((stager.staged_groups(), stager.staged_bytes()), (0, 0));
        let mut committed = None;
        for frame in &frames {
            committed = stager.accept(frame).expect("the true stream stages");
        }
        prop_assert_eq!(committed, Some(msgs));
    }
}

// --- streams through the codec and the stager ---------------------------

fn gid() -> GroupId {
    GroupId {
        client: ClientId(1),
        seq: 7,
    }
}

fn ver(n: u64) -> Version {
    Version {
        client: ClientId(1),
        counter: n,
    }
}

/// One group cycling through the payload kinds that carry bytes; every
/// message frames to several pieces (header, op tags, shared bodies).
fn group_of(bodies: &[Vec<u8>]) -> Vec<UpdateMsg> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let half = body.len() / 2;
            let payload = match i % 3 {
                0 => UpdatePayload::Ops(vec![
                    FileOpItem::Write {
                        offset: 0,
                        data: Payload::copy_from_slice(&body[..half]),
                    },
                    FileOpItem::Truncate { size: 9_000 },
                    FileOpItem::Write {
                        offset: 4_096,
                        data: Payload::copy_from_slice(&body[half..]),
                    },
                ]),
                1 => UpdatePayload::Full(Payload::copy_from_slice(body)),
                _ => UpdatePayload::Delta {
                    base_path: format!("/f{}", i - 1),
                    delta: Delta::from_ops(vec![
                        DeltaOp::Copy { offset: 0, len: 64 },
                        DeltaOp::Literal(Bytes::copy_from_slice(&body[..half])),
                        DeltaOp::Copy {
                            offset: 128,
                            len: 32,
                        },
                        DeltaOp::Literal(Bytes::copy_from_slice(&body[half..])),
                    ]),
                },
            };
            UpdateMsg {
                path: format!("/f{i}"),
                base: (i > 0).then(|| ver(i as u64)),
                version: Some(ver(i as u64 + 1)),
                payload,
                group: Some(gid()),
            }
        })
        .collect()
}

fn text(len: usize) -> Vec<u8> {
    b"the quick brown fox jumps over the lazy dog "
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

fn noise(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect()
}

#[test]
fn staged_bytes_is_zero_after_commit_rejection_and_clear() {
    let msgs = group_of(&[text(20_000), text(9_000)]);
    let mut frames = Vec::new();
    frame_group(&msgs, 4096, |f| frames.push(f));
    let mut codec = WireCodec::for_upload(
        CodecPolicy::Always,
        PlatformProfile::mobile(),
        LinkSpec::mobile(),
    );
    let raw_lens: Vec<u64> = frames.iter().map(ChunkFrame::byte_len).collect();
    let frames: Vec<ChunkFrame> = frames
        .into_iter()
        .map(|f| codec.encode_frame(f, 0))
        .collect();
    assert!(
        frames.iter().all(|f| f.compressed_from().is_some()),
        "text frames compress"
    );

    // Mid-stream the gauge is the raw bytes received, whatever crossed
    // the wire; the commit empties it.
    let mut stager = ChunkStager::new();
    let mut received = 0;
    for (frame, raw_len) in frames.iter().zip(&raw_lens) {
        received += raw_len;
        let done = stager.accept(frame).expect("stream stages").is_some();
        assert_eq!(stager.staged_bytes(), if done { 0 } else { received });
    }
    assert_eq!(stager.staged_groups(), 0);

    // A Malformed rejection drops the group's bytes with its stage: here
    // an envelope that inflates to fewer bytes than it declares.
    let half = frames.len() / 2;
    for frame in &frames[..half] {
        stager.accept(frame).expect("stream stages");
    }
    assert_eq!(stager.staged_bytes(), raw_lens[..half].iter().sum::<u64>());
    let Codec::Lz77 { raw_len } = frames[half].codec else {
        unreachable!("checked above");
    };
    let lying = ChunkFrame {
        codec: Codec::Lz77 {
            raw_len: raw_len + 1,
        },
        ..frames[half].clone()
    };
    assert!(matches!(
        stager.accept(&lying),
        Err(WireError::Malformed(_))
    ));
    assert_eq!((stager.staged_groups(), stager.staged_bytes()), (0, 0));

    // `clear` — a receiver crash — likewise.
    for frame in &frames[..half] {
        stager.accept(frame).expect("stream stages");
    }
    assert!(stager.staged_bytes() > 0);
    stager.clear();
    assert_eq!((stager.staged_groups(), stager.staged_bytes()), (0, 0));
}

// --- adaptive against raw, content class by link --------------------------

/// Server-log text: the classic highly compressible sync payload.
fn log_text(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 128);
    let mut i = 0u64;
    while out.len() < len {
        out.extend_from_slice(
            format!(
                "2026-08-07T12:{:02}:{:02} INFO request id={} path=/api/v1/items/{} \
                 status=200 latency_ms={}\n",
                i / 60 % 60,
                i % 60,
                i.wrapping_mul(31) % 100_000,
                i % 512,
                i.wrapping_mul(7) % 300,
            )
            .as_bytes(),
        );
        i += 1;
    }
    out.truncate(len);
    out
}

/// SQLite-style 4 KiB B-tree pages: a structured header, ascending cell
/// pointers, zero-padded free space — moderately compressible.
fn sqlite_pages(len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for (p, page) in out.chunks_mut(4096).enumerate() {
        if page.len() < 128 {
            break;
        }
        page[..16].copy_from_slice(b"SQLite format 3\0");
        let cells = 20 + p % 10;
        for c in 0..cells {
            let at = 16 + c * 2;
            let ptr = (4096 - (c + 1) * 64) as u16;
            page[at..at + 2].copy_from_slice(&ptr.to_be_bytes());
        }
        for c in 0..cells {
            let at = page.len().saturating_sub((c + 1) * 64);
            if at + 8 <= page.len() {
                page[at..at + 8].copy_from_slice(&((p * cells + c) as u64).to_be_bytes());
            }
        }
    }
    out
}

/// Entropy-coded media: noise with JPEG-style marker segments — the
/// probe must price it incompressible despite the sprinkled structure.
fn jpeg_like(len: usize) -> Vec<u8> {
    let mut out = noise(len, 0x9E3779B97F4A7C15);
    for chunk in out.chunks_mut(8192) {
        if chunk.len() >= 4 {
            chunk[0] = 0xFF;
            chunk[1] = 0xDA;
        }
    }
    out
}

struct Upload {
    bytes_up: u64,
    done: SimTime,
    frames: u64,
    compressed_chunks: u64,
    raw_chunks: u64,
    staged: Vec<UpdateMsg>,
}

/// One upload of `msg` the way the engine's upload leg runs it:
/// `frame_group` -> `encode_frame` -> `upload_part_codec` -> `accept`,
/// then the end-of-message latency.
fn upload(
    msg: &UpdateMsg,
    policy: CodecPolicy,
    spec: LinkSpec,
    profile: PlatformProfile,
) -> Upload {
    let obs = Obs::new();
    let mut codec = WireCodec::for_upload(policy, profile, spec);
    codec.attach_obs(&obs);
    let mut link = Link::new(spec);
    link.set_compute(profile);
    let mut stager = ChunkStager::new();
    let mut frames = 0;
    let mut staged = None;
    frame_group(std::slice::from_ref(msg), 64 * 1024, |frame| {
        frames += 1;
        let frame = codec.encode_frame(frame, 0);
        link.upload_part_codec(frame.accounted, frame.compressed_from(), SimTime::ZERO);
        staged = stager.accept(&frame).expect("in-order stream stages");
    });
    let done = link.upload_end_msg(SimTime::ZERO);
    let snap = obs.registry.snapshot();
    let counter = |name: &str| match snap.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    Upload {
        bytes_up: link.stats().bytes_up,
        done,
        frames,
        compressed_chunks: counter("wire_compress_chunks"),
        raw_chunks: counter("wire_raw_chunks"),
        staged: staged.expect("the last frame commits the group"),
    }
}

#[test]
fn adaptive_codec_is_never_worse_than_raw_across_content_and_links() {
    const LEN: usize = 1 << 20;
    let contents = [
        ("log text", true, log_text(LEN)),
        ("sqlite pages", true, sqlite_pages(LEN)),
        ("jpeg-like", false, jpeg_like(LEN)),
        ("noise", false, noise(LEN, 0x2545F4914F6CDD1D)),
    ];
    let links = [
        ("mobile", LinkSpec::mobile(), PlatformProfile::mobile()),
        ("pc", LinkSpec::pc(), PlatformProfile::pc()),
    ];
    for (cname, compressible, content) in &contents {
        // An all-literal delta: the content crosses the wire verbatim.
        let msg = UpdateMsg {
            path: "/f".into(),
            base: Some(ver(1)),
            version: Some(ver(2)),
            payload: UpdatePayload::Delta {
                base_path: "/f".into(),
                delta: Delta::from_ops(vec![DeltaOp::Literal(Bytes::copy_from_slice(content))]),
            },
            group: Some(gid()),
        };
        for (lname, spec, profile) in links {
            let cell = format!("{cname} on {lname}");
            let raw = upload(&msg, CodecPolicy::Never, spec, profile);
            let adaptive = upload(&msg, CodecPolicy::Adaptive, spec, profile);
            assert_eq!(raw.bytes_up, msg.wire_size(), "{cell}: raw accounting");
            assert_eq!(
                raw.staged,
                std::slice::from_ref(&msg),
                "{cell}: raw stages the message"
            );
            assert_eq!(
                adaptive.staged, raw.staged,
                "{cell}: staged messages differ"
            );
            assert_eq!(adaptive.frames, raw.frames, "{cell}");
            assert!(
                adaptive.bytes_up <= raw.bytes_up,
                "{cell}: adaptive uplink {} exceeds raw {}",
                adaptive.bytes_up,
                raw.bytes_up
            );
            assert_eq!(
                adaptive.compressed_chunks + adaptive.raw_chunks,
                adaptive.frames,
                "{cell}: every frame gets exactly one codec decision"
            );
            if !compressible {
                // Raw frames carry no tag, so the overhead is 0 bytes.
                assert_eq!(adaptive.compressed_chunks, 0, "{cell}: must ship raw");
                assert_eq!(
                    adaptive.bytes_up, raw.bytes_up,
                    "{cell}: raw frames are untagged"
                );
            } else if lname == "mobile" {
                assert!(
                    adaptive.compressed_chunks >= 1,
                    "{cell}: nothing compressed"
                );
                assert!(
                    adaptive.bytes_up * 3 <= raw.bytes_up * 2,
                    "{cell}: uplink reduction {:.2}x below the 1.5x floor",
                    raw.bytes_up as f64 / adaptive.bytes_up as f64
                );
                assert!(
                    adaptive.done <= raw.done,
                    "{cell}: compression lost end to end ({:?} vs {:?} raw)",
                    adaptive.done,
                    raw.done
                );
            }
        }
    }
}

// --- the decoder's bounds, one case each ---------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[test]
fn declared_length_reserves_nothing() {
    // Two literals, then a match at distance 1 whose length extension
    // declares 2^60 bytes, under a 1 GiB cap.
    let mut bomb = vec![0x7A, b'a', b'b', 0x01];
    put_varint(&mut bomb, 1u64 << 60);
    let mut out = Vec::new();
    assert_eq!(compress::decompress_into(&bomb, 1 << 30, &mut out), None);
    assert!(out.is_empty());
    assert!(out.capacity() < 4096, "capacity {}", out.capacity());
    // A literal count past the cap, and one the cap allows but the input
    // does not hold.
    for declared in [1u64 << 60, (1 << 30) - 7] {
        let mut bomb = vec![0x07];
        put_varint(&mut bomb, declared);
        bomb.extend_from_slice(b"abcd");
        let mut out = Vec::new();
        assert_eq!(compress::decompress_into(&bomb, 1 << 30, &mut out), None);
        assert!(out.is_empty());
        assert!(out.capacity() < 4096, "capacity {}", out.capacity());
    }
    // A length the cap does allow is produced, not just reserved: memory
    // then follows the output. One literal, then a match at distance 1
    // of 19 + extension bytes.
    let mut run = vec![0x79, 0, 0x01];
    put_varint(&mut run, (1u64 << 20) - 20);
    let mut out = Vec::new();
    assert_eq!(compress::decompress_into(&run, 1 << 20, &mut out), Some(()));
    assert_eq!(out, vec![0u8; 1 << 20]);
}

#[test]
fn back_reference_stops_at_the_append_point() {
    // "abcd" then a 4-byte match: distance 4 is the first appended byte,
    // distance 5 would read the caller's own bytes.
    for (dist, accepted) in [(4u8, true), (5, false)] {
        let stream = [0x04, b'a', b'b', b'c', b'd', dist];
        let mut out = b"caller's bytes".to_vec();
        let got = compress::decompress_into(&stream, 64, &mut out);
        assert_eq!(got.is_some(), accepted, "distance {dist}");
        let expected: &[u8] = if accepted {
            b"caller's bytesabcdabcd"
        } else {
            b"caller's bytes"
        };
        assert_eq!(out, expected);
    }
}

// --- encoder round trips --------------------------------------------------

fn roundtrip(data: &[u8]) -> Vec<u8> {
    let packed = compress::compress(data, &mut Cost::new());
    let mut out = Vec::new();
    assert_eq!(
        compress::decompress_into(&packed, data.len(), &mut out),
        Some(()),
        "{} bytes do not inflate under their own length",
        data.len()
    );
    assert!(out == data, "{} bytes do not round-trip", data.len());
    packed
}

#[test]
fn every_short_length_round_trips() {
    let random = noise(40, 11);
    for len in 0..=40 {
        roundtrip(&random[..len]);
        roundtrip(&vec![b'z'; len]);
        roundtrip(&text(len));
    }
}

#[test]
fn matches_ending_near_the_end_of_input_round_trip() {
    // The second copy ends 0..=8 bytes before the end: the 8-byte match
    // extension and the 4-byte loads run out of input at every offset.
    let unit = noise(61, 3);
    let tail = noise(8, 4);
    for gap in 0..=8 {
        let data = [&unit[..], &unit[..], &tail[..gap]].concat();
        let packed = roundtrip(&data);
        assert!(packed.len() < unit.len() + gap + 16, "gap {gap}: no match");
    }
}

#[test]
fn periodic_data_round_trips_through_overlapping_copies() {
    // Every match length from none to well past the decoder's 16-byte
    // block, at every distance on both sides of it.
    let unit = noise(20, 5);
    for period in 1..=20 {
        for len in (0..=period + 40).chain([1000]) {
            let data: Vec<u8> = unit[..period].iter().copied().cycle().take(len).collect();
            let packed = roundtrip(&data);
            if len == 1000 {
                assert!(
                    packed.len() < period + 16,
                    "period {period}: {}",
                    packed.len()
                );
            }
        }
    }
}

#[test]
fn distance_limit_is_inclusive_at_65_535() {
    // A 32-byte unit, zeros (one long match: nothing else enters the
    // table), the unit again at exactly 65 535 or 65 536 bytes'
    // distance: the largest two-byte offset and one past it.
    let unit: Vec<u8> = noise(32, 6).iter().map(|b| b | 1).collect();
    let sizes: Vec<usize> = [65_535usize, 65_536]
        .iter()
        .map(|&dist| {
            let data = [&unit[..], &vec![0u8; dist - unit.len()], &unit[..]].concat();
            roundtrip(&data).len()
        })
        .collect();
    assert!(
        sizes[0] + unit.len() / 2 < sizes[1],
        "a match at 65 535 is in reach, one at 65 536 is not: {sizes:?}"
    );
}

#[test]
fn text_after_a_noise_run_is_found_again() {
    // Two copies of one text with a noise run between them, at run
    // lengths on both sides of each stride step.
    let words = text(2_000);
    for run in [0, 31, 32, 33, 63, 64, 65, 127, 128, 129, 4_096] {
        let data = [&words[..], &noise(run, 9)[..], &words[..]].concat();
        let packed = roundtrip(&data);
        assert!(
            packed.len() < run + words.len() / 4,
            "noise run of {run}: {} bytes",
            packed.len()
        );
    }
}

// --- the hub's uploads honour `wire_compression` ---------------------------

#[test]
fn hub_uploads_compress_like_the_engine() {
    // A client with `wire_compression` uploads the same compressed bytes
    // through one `DeltaCfsSystem` or a `SyncHub`: both run the one
    // upload leg with an adaptive upload codec on the PC profile.
    use deltacfs::core::{DeltaCfsConfig, DeltaCfsSystem, SyncEngine, SyncHub};
    use deltacfs::net::SimClock;
    use deltacfs::vfs::Vfs;

    // A log file written in pieces, appended to, then rewritten in place.
    let apply = |fs: &mut Vfs, step: usize| match step {
        0 => {
            fs.create("/app.log").unwrap();
            for (i, piece) in log_text(96 << 10).chunks(16 << 10).enumerate() {
                fs.write("/app.log", (i << 14) as u64, piece).unwrap();
            }
        }
        1 => fs.write("/app.log", 96 << 10, &log_text(40 << 10)).unwrap(),
        _ => fs.write("/app.log", 8 << 10, &log_text(70 << 10)).unwrap(),
    };
    let cfg = DeltaCfsConfig::new()
        .with_chunk_budget(16 << 10)
        .with_wire_compression(true);

    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::mobile());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    for step in 0..3 {
        apply(&mut fs, step);
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        clock.advance(4_000);
        sys.tick(&fs);
    }
    sys.finish(&fs);

    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let obs = Obs::new();
    hub.enable_observability(obs.clone());
    let idx = hub.add_client(cfg, LinkSpec::mobile());
    for step in 0..3 {
        apply(hub.fs_mut(idx), step);
        hub.ingest(idx);
        clock.advance(4_000);
        hub.pump();
    }
    hub.flush();

    let compressed = match obs.registry.snapshot().get("wire_compress_chunks") {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("wire_compress_chunks: {other:?}"),
    };
    assert!(compressed > 0, "the hub compressed no upload frame");
    let engine_up = sys.report().traffic.bytes_up;
    assert_eq!(hub.traffic(idx).bytes_up, engine_up);
    assert!(
        engine_up < 96 << 10,
        "{engine_up} bytes up: nothing was compressed"
    );
    assert_eq!(hub.cloud().paths(), sys.server().paths());
    for path in sys.server().paths() {
        assert_eq!(hub.cloud().file(&path), sys.server().file(&path), "{path}");
        assert_eq!(
            hub.cloud().version(&path),
            sys.server().version(&path),
            "{path}"
        );
    }
    assert_eq!(
        sys.server().file("/app.log"),
        fs.peek_slice("/app.log").ok()
    );
}
