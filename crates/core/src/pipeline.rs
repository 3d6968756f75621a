//! Chunk framing and staging: a transaction group as a stream of bounded
//! frames, and the receiver's reassembly of that stream.
//!
//! Putting a whole group on the link in one shot makes the receiver's
//! landing buffer track the *group* size. Every group instead crosses
//! as frames, in both directions — a client's upload and the hub's
//! forward to a peer — through the same inline loop on the calling
//! thread:
//!
//! * [`frame_group`] cuts each message's one wire encoding
//!   ([`wire::encode_vectored`]) into a sequence of [`ChunkFrame`]s —
//!   scatter-gather pieces mixing small control buffers (headers, op
//!   tags) with shared [`Payload`] views, never copying payload bytes —
//!   holding at most `chunk_budget` payload bytes each;
//! * each frame runs through the wire codec, goes on the link as a
//!   part, and lands in the receiver's [`ChunkStager`], which stages
//!   bytes per message and releases the group whole when the final
//!   frame lands. `upload_frames` is that loop for every upload; the
//!   hub's forward runs its download mirror.
//!
//! Accounting is exact, not approximate: a frame is charged the payload
//! bytes it carries, and a message's first frame also the message's
//! model header share, so the per-group total equals the materialized
//! `Σ wire_size()` byte for byte.

use std::collections::HashMap;

use bytes::Bytes;
use deltacfs_delta::compress;
use deltacfs_net::{Link, SimTime};
use deltacfs_obs::Obs;

use crate::codec::WireCodec;
use crate::engine::group_span_key;
use crate::protocol::{GroupId, Payload, UpdateMsg, ACK_WIRE_BYTES};
use crate::server::CloudServer;
use crate::wire::{self, Codec, FrameSeg, WireError};

/// One scatter-gather piece of a [`ChunkFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePiece {
    /// Owned control bytes: message headers, op tags, length prefixes.
    Control(Bytes),
    /// A shared payload view — an `Arc` bump, not a copy.
    Shared(Payload),
}

impl FramePiece {
    /// The piece's bytes, however they are stored.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            FramePiece::Control(b) => b,
            FramePiece::Shared(p) => p,
        }
    }
}

/// One bounded unit of a streamed group upload.
///
/// Concatenating the `pieces` of every frame of one message yields
/// exactly that message's [`wire::encode`]: the frames are slices of
/// its one encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// The transaction group this frame belongs to.
    pub group: GroupId,
    /// Index of the message within the group.
    pub msg_idx: usize,
    /// Index of this chunk within the message.
    pub chunk_idx: usize,
    /// The message's encoded length: what the receiver reserves once, at
    /// its first chunk, and what its frames must add up to exactly. Like
    /// `chunk_idx` it is framing, not charged on the link.
    pub msg_len: u64,
    /// Whether this frame completes its message.
    pub last_in_msg: bool,
    /// Whether this frame completes the whole group (the server commits
    /// the staged messages atomically when it lands).
    pub last_in_group: bool,
    /// Scatter-gather contents, in wire order.
    pub pieces: Vec<FramePiece>,
    /// Model bytes this frame contributes to the traffic accounting.
    /// For raw frames these sum per group exactly to the materialized
    /// `Σ wire_size()`; a compressed frame accounts its (smaller)
    /// envelope instead, so back-pressure and traffic both track the
    /// bytes that actually cross the wire.
    pub accounted: u64,
    /// How the pieces are encoded — [`Codec::Raw`] pieces are message
    /// bytes, [`Codec::Lz77`] pieces form a compressed envelope the
    /// receiver inflates back into the identical message bytes.
    pub codec: Codec,
}

impl ChunkFrame {
    /// Real bytes across all pieces.
    pub fn byte_len(&self) -> u64 {
        self.pieces.iter().map(|p| p.as_slice().len() as u64).sum()
    }

    /// For a compressed frame, the raw byte count its envelope inflates
    /// back to; `None` for raw frames. The link's codec-aware part
    /// methods charge the modeled compression CPU against this.
    pub fn compressed_from(&self) -> Option<u64> {
        match self.codec {
            Codec::Raw => None,
            Codec::Lz77 { raw_len } => Some(raw_len),
        }
    }

    /// Bytes carried by shared payload pieces (the zero-copy part).
    pub fn payload_bytes(&self) -> u64 {
        self.pieces
            .iter()
            .map(|p| match p {
                FramePiece::Shared(s) => s.len() as u64,
                FramePiece::Control(_) => 0,
            })
            .sum()
    }
}

/// Assembly state of one streamed group: decoded messages so far plus
/// the bytes of the message currently arriving.
#[derive(Debug, Clone, Default)]
struct StageState {
    msgs: Vec<UpdateMsg>,
    /// Encoded bytes of `msgs`, whose payloads are views of them.
    msgs_bytes: u64,
    /// The message arriving, in a buffer reserved at its declared length.
    cur: Vec<u8>,
    /// That declared length (`ChunkFrame::msg_len`).
    cur_len: usize,
    next_msg: usize,
    next_chunk: usize,
}

/// Per-`<CliID, GroupSeq>` chunk staging, shared by both stream
/// directions: the cloud stages client uploads
/// ([`CloudServer::receive_chunk`](crate::CloudServer::receive_chunk))
/// and each client stages the server's forwarded groups through the
/// same state machine, so the commit semantics are symmetric by
/// construction.
///
/// Frames stage per-message bytes (the receiver's single "NIC landing"
/// copy) into a buffer of exactly the message's declared length,
/// reserved once at its first chunk, so it never grows and the decoded
/// message's payloads — views of it — pin no slack; a `last_in_msg`
/// frame freezes and decodes the message, and the `last_in_group` frame
/// releases the whole group at once — so a group whose stream is cut
/// mid-way releases *nothing*, and a whole-group resend restarts
/// cleanly: chunk `(0, 0)` always resets a stale stage for its group.
#[derive(Debug, Default)]
pub struct ChunkStager {
    stages: HashMap<GroupId, StageState>,
}

impl ChunkStager {
    /// An empty stager.
    pub fn new() -> Self {
        ChunkStager::default()
    }

    /// Stages one frame. Returns `Ok(Some(msgs))` — the group's decoded
    /// messages, in order — when the group completes, `Ok(None)` for an
    /// intermediate frame. The caller owns commit (idempotency,
    /// application): the stager only assembles.
    ///
    /// # Errors
    ///
    /// An out-of-order or unknown frame (a prior chunk was lost) drops
    /// the stage and returns [`WireError::Malformed`]; staged bytes
    /// that fail to decode, a frame that closes the group without
    /// closing its message, a declared message length past
    /// [`compress::MAX_DECOMPRESSED`] or unlike its first chunk's, and
    /// frames that carry a message past its declared length or close it
    /// short of it are reported likewise. Either way the group is
    /// untouched and a full resend recovers.
    pub fn accept(&mut self, frame: &ChunkFrame) -> Result<Option<Vec<UpdateMsg>>, WireError> {
        let staged = self.stage(frame);
        if staged.is_err() {
            self.stages.remove(&frame.group);
        }
        staged
    }

    /// [`accept`](ChunkStager::accept) up to the error; the caller drops
    /// the stage on one.
    fn stage(&mut self, frame: &ChunkFrame) -> Result<Option<Vec<UpdateMsg>>, WireError> {
        if frame.last_in_group && !frame.last_in_msg {
            // The flags are wire input: committing here would drop the
            // bytes staged for the message still in progress.
            return Err(WireError::Malformed("group ends inside a message"));
        }
        if frame.msg_idx == 0 && frame.chunk_idx == 0 {
            self.stages.insert(frame.group, StageState::default());
        }
        let Some(stage) = self.stages.get_mut(&frame.group) else {
            return Err(WireError::Malformed("chunk for unknown group stream"));
        };
        if frame.msg_idx != stage.next_msg || frame.chunk_idx != stage.next_chunk {
            return Err(WireError::Malformed("chunk out of order"));
        }
        // The declared length is wire input too: it sizes one
        // reservation, capped like any inflated frame, and every frame of
        // the message must repeat it.
        let declared = usize::try_from(frame.msg_len)
            .ok()
            .filter(|len| *len <= compress::MAX_DECOMPRESSED)
            .ok_or(WireError::Malformed("message length past the cap"))?;
        if frame.chunk_idx == 0 {
            stage.cur = Vec::with_capacity(declared);
            stage.cur_len = declared;
        } else if declared != stage.cur_len {
            return Err(WireError::Malformed("message length changed mid-message"));
        }
        let room = stage.cur_len - stage.cur.len();
        match frame.codec {
            Codec::Raw => {
                if frame.byte_len() > room as u64 {
                    return Err(WireError::Malformed("frame runs past its message"));
                }
                for piece in &frame.pieces {
                    stage.cur.extend_from_slice(piece.as_slice());
                }
            }
            Codec::Lz77 { raw_len } => {
                // A compressed frame is one piece, its envelope, read
                // where it lies and inflated straight onto the staged
                // message: the exact bytes a raw frame would have
                // carried. `raw_len` caps what is appended, and must fit
                // the room the message has left, so a corrupt frame
                // cannot balloon memory or grow the reservation.
                if raw_len > room as u64 {
                    return Err(WireError::Malformed("frame runs past its message"));
                }
                let staged = stage.cur.len();
                let inflated = match frame.pieces.as_slice() {
                    [envelope] => wire::decode_codec_envelope(envelope.as_slice())
                        .ok()
                        .filter(|(declared, _)| *declared == raw_len)
                        .and_then(|(_, body)| {
                            let cap = raw_len as usize;
                            compress::decompress_into(body, cap, &mut stage.cur)?;
                            (stage.cur.len() - staged == cap).then_some(())
                        }),
                    _ => None,
                };
                if inflated.is_none() {
                    return Err(WireError::Malformed("codec frame"));
                }
            }
        }
        if frame.last_in_msg {
            if stage.cur.len() != stage.cur_len {
                return Err(WireError::Malformed("message ends short of its length"));
            }
            let buf = Bytes::from(std::mem::take(&mut stage.cur));
            stage.msgs_bytes += buf.len() as u64;
            stage.msgs.push(wire::decode_shared(&buf)?);
            stage.next_msg += 1;
            stage.next_chunk = 0;
        } else {
            stage.next_chunk += 1;
        }
        if !frame.last_in_group {
            return Ok(None);
        }
        // `stage` was this entry a moment ago, so the removal finds it.
        Ok(self.stages.remove(&frame.group).map(|stage| stage.msgs))
    }

    /// How many groups are currently staged (incomplete streams).
    pub fn staged_groups(&self) -> usize {
        self.stages.len()
    }

    /// Bytes held for incomplete streams: every open group's decoded
    /// messages plus the message still arriving — the raw (inflated)
    /// bytes received for those groups so far.
    pub fn staged_bytes(&self) -> u64 {
        self.stages
            .values()
            .map(|stage| stage.msgs_bytes + stage.cur.len() as u64)
            .sum()
    }

    /// Drops every staged group — what a crash does to in-flight
    /// streams on the receiving side.
    pub fn clear(&mut self) {
        self.stages.clear();
    }
}

/// Frames every message of a transaction group as a chunk stream.
///
/// Each message is cut from its one wire encoding,
/// [`wire::encode_vectored`]: control segments (headers, op tags,
/// length prefixes) ride along in whichever frame is open, and shared
/// payload segments (`Full` bodies, `Write` data, delta literals) are
/// packed greedily, sliced where a frame reaches `chunk_budget` payload
/// bytes — slicing is an `Arc` bump, never a copy. A new frame opens
/// only when payload bytes remain, so a payload-free message is one
/// frame. The pieces of a message's frames concatenate to
/// [`wire::encode`] of it.
///
/// Each frame accounts the payload bytes it carries, and a message's
/// first frame also its model header share, `wire_size()` minus the
/// payload; per group the `accounted` fields sum exactly to
/// `Σ wire_size()`.
///
/// # Panics
///
/// Panics if any message lacks a group id or the group is empty.
pub fn frame_group(msgs: &[UpdateMsg], chunk_budget: usize, mut emit: impl FnMut(ChunkFrame)) {
    assert!(!msgs.is_empty(), "cannot frame an empty group");
    let budget = chunk_budget.max(1);
    let mut scratch = Vec::new();
    for (msg_idx, msg) in msgs.iter().enumerate() {
        let last_in_group = msg_idx == msgs.len() - 1;
        let group = msg.group.expect("streamed messages carry a group id");
        let wire_frame = wire::encode_vectored(msg, &mut scratch);
        let msg_len = wire_frame.wire_len(&scratch) as u64;
        let mut packed: Vec<Vec<FramePiece>> = Vec::new();
        let mut open: Vec<FramePiece> = Vec::new();
        let mut used = 0usize;
        let mut payload_total = 0u64;
        for seg in wire_frame.segs {
            match seg {
                FrameSeg::Scratch(r) => {
                    open.push(FramePiece::Control(Bytes::copy_from_slice(&scratch[r])))
                }
                FrameSeg::Shared(p) => {
                    payload_total += p.len() as u64;
                    let mut off = 0;
                    while off < p.len() {
                        if used >= budget {
                            packed.push(std::mem::take(&mut open));
                            used = 0;
                        }
                        let take = (budget - used).min(p.len() - off);
                        open.push(FramePiece::Shared(p.slice(off..off + take)));
                        used += take;
                        off += take;
                    }
                }
            }
        }
        packed.push(open);
        let header_share = msg.wire_size() - payload_total;
        let chunks = packed.len();
        for (chunk_idx, pieces) in packed.into_iter().enumerate() {
            let last = chunk_idx == chunks - 1;
            let mut frame = ChunkFrame {
                group,
                msg_idx,
                chunk_idx,
                msg_len,
                last_in_msg: last,
                last_in_group: last_in_group && last,
                pieces,
                accounted: 0,
                codec: Codec::Raw,
            };
            frame.accounted = frame.payload_bytes() + if chunk_idx == 0 { header_share } else { 0 };
            emit(frame);
        }
    }
}

/// What the far end does with one upload attempt's frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Lost on the wire: every frame occupies the link, none is staged.
    Dropped,
    /// Staged, but no acknowledgement comes back: the server dies first.
    Unacked,
    /// Staged and acknowledged.
    Acked,
}

/// The one upload leg: `group` crosses `link` as frames into `server`'s
/// stage. Each frame from [`frame_group`] runs through `codec`, onto the
/// link as one part and, unless the attempt is
/// [`Dropped`](Arrival::Dropped), into
/// [`CloudServer::receive_chunk`]; the group's latency and message count
/// settle once, and an [`Acked`](Arrival::Acked) group's acknowledgement
/// goes back down. Returns the reassembled group and its arrival time
/// once the last frame is staged; committing it is the caller's.
///
/// Records one `wire.upload` span per attempt — closed at the arrival,
/// left open when nothing arrives — one `wire.upload.chunk` event per
/// frame and one `server.stage` event when the group is whole.
#[allow(clippy::too_many_arguments)]
pub(crate) fn upload_frames(
    obs: &Obs,
    link: &mut Link,
    codec: &mut WireCodec,
    server: &mut CloudServer,
    group: &[UpdateMsg],
    chunk_budget: usize,
    now: SimTime,
    arrival: Arrival,
) -> Option<(Vec<UpdateMsg>, SimTime)> {
    let recorder = &obs.recorder;
    let key = group_span_key(group);
    let now_ms = now.as_millis();
    let start_ms = now.max(link.upload_busy_until()).as_millis();
    let span = recorder.start(key, "link", "wire.upload", start_ms, None);
    let mut staged: Result<Option<Vec<UpdateMsg>>, WireError> = Ok(None);
    let mut wire_bytes = 0;
    frame_group(group, chunk_budget, |frame| {
        let frame = codec.encode_frame(frame, now_ms);
        let done = link.upload_part_codec(frame.accounted, frame.compressed_from(), now);
        wire_bytes += frame.accounted;
        recorder.event(key, "link", "wire.upload.chunk", done.as_millis(), || {
            let end = if frame.last_in_group {
                " [group end]"
            } else {
                ""
            };
            let codec = frame
                .compressed_from()
                .map(|raw| format!(", compressed from {raw}"));
            format!(
                "msg {} chunk {}{end}: {} bytes ({} shared), {} on the wire{}",
                frame.msg_idx,
                frame.chunk_idx,
                frame.byte_len(),
                frame.payload_bytes(),
                frame.accounted,
                codec.unwrap_or_default(),
            )
        });
        if arrival != Arrival::Dropped && staged.is_ok() {
            staged = server.receive_chunk(&frame);
        }
    });
    let arrived = link.upload_end_msg(now);
    let arrived_ms = arrived.as_millis();
    let msgs = match staged {
        Ok(msgs) => msgs?,
        Err(e) => {
            // The stager dropped the group and it arrives as nothing:
            // a courier retries it, like any attempt lost on the wire.
            recorder.event(key, "server", "server.stage", arrived_ms, || {
                format!("stream rejected: {e}")
            });
            return None;
        }
    };
    recorder.event(key, "server", "server.stage", arrived_ms, || {
        format!("{} msgs reassembled", msgs.len())
    });
    recorder.end(span, arrived_ms, || {
        format!("group of {} msgs, {wire_bytes} wire bytes", group.len())
    });
    if arrival == Arrival::Acked {
        link.download(ACK_WIRE_BYTES, now);
    }
    Some((msgs, arrived))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientId, FileOpItem, UpdatePayload, Version};
    use deltacfs_delta::{Delta, DeltaOp};

    fn gid() -> GroupId {
        GroupId {
            client: ClientId(1),
            seq: 1,
        }
    }

    fn ver(n: u64) -> Version {
        Version {
            client: ClientId(1),
            counter: n,
        }
    }

    fn delta_msg(delta: Delta) -> UpdateMsg {
        UpdateMsg {
            path: "/f".into(),
            base: Some(ver(1)),
            version: Some(ver(2)),
            payload: UpdatePayload::Delta {
                base_path: "/f".into(),
                delta,
            },
            group: Some(gid()),
        }
    }

    fn sample_delta() -> Delta {
        Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 64 },
            DeltaOp::Literal(Bytes::from(vec![7u8; 1000])),
            DeltaOp::Copy {
                offset: 64,
                len: 32,
            },
            DeltaOp::Literal(Bytes::from(vec![9u8; 10])),
        ])
    }

    #[test]
    fn framed_group_accounts_exactly_like_the_materialized_one() {
        let msgs = vec![
            UpdateMsg {
                path: "/f".into(),
                base: None,
                version: Some(ver(1)),
                payload: UpdatePayload::Ops(vec![FileOpItem::Write {
                    offset: 0,
                    data: Payload::from(vec![1u8; 300]),
                }]),
                group: Some(gid()),
            },
            delta_msg(sample_delta()),
        ];
        let materialized: u64 = msgs.iter().map(UpdateMsg::wire_size).sum();
        for budget in [1usize, 64, 256, 1 << 20] {
            let mut frames = Vec::new();
            frame_group(&msgs, budget, |f| frames.push(f));
            let streamed: u64 = frames.iter().map(|f| f.accounted).sum();
            assert_eq!(streamed, materialized, "budget {budget}");
            assert_eq!(frames.last().map(|f| f.last_in_group), Some(true));
            assert_eq!(
                frames.iter().filter(|f| f.last_in_group).count(),
                1,
                "exactly one group-closing frame"
            );
        }
    }

    #[test]
    fn framed_message_bytes_reassemble_to_a_decodable_encoding() {
        // Budget 100 must split the 1010-byte delta; an op-less delta is
        // still one frame, the one that closes the message.
        for (delta, min_frames) in [(sample_delta(), 2), (Delta::default(), 1)] {
            let msg = delta_msg(delta);
            let mut frames = Vec::new();
            frame_group(std::slice::from_ref(&msg), 100, |f| frames.push(f));
            assert!(frames.len() >= min_frames, "{} frame(s)", frames.len());
            let mut bytes = Vec::new();
            for f in &frames {
                for p in &f.pieces {
                    bytes.extend_from_slice(p.as_slice());
                }
            }
            // The frames are slices of the message's one encoding: a
            // literal cut at a frame boundary is still one tagged op.
            assert_eq!(bytes, wire::encode(&msg));
            let decoded = wire::decode(&bytes).expect("streamed bytes decode");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn full_payload_splits_at_budget_and_restages_losslessly() {
        let msg = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(ver(1)),
            payload: UpdatePayload::Full(Payload::from(vec![0xA5u8; 5_000])),
            group: Some(gid()),
        };
        let mut frames = Vec::new();
        frame_group(std::slice::from_ref(&msg), 1024, |f| frames.push(f));
        assert!(
            frames.len() >= 5,
            "a 5000-byte body at a 1 KiB budget must span frames, got {}",
            frames.len()
        );
        for f in &frames {
            assert!(
                f.payload_bytes() <= 1024,
                "frame payload {} exceeds the budget",
                f.payload_bytes()
            );
        }
        assert_eq!(
            frames.iter().map(|f| f.accounted).sum::<u64>(),
            msg.wire_size(),
            "split accounting must sum to the materialized wire size"
        );
        let mut stager = ChunkStager::new();
        let mut committed = None;
        for f in &frames {
            if let Some(msgs) = stager.accept(f).expect("in-order stream stages") {
                committed = Some(msgs);
            }
        }
        assert_eq!(committed, Some(vec![msg]));
        assert_eq!(stager.staged_groups(), 0, "commit must clear the stage");
    }

    #[test]
    fn a_message_lands_in_one_buffer_of_its_exact_length() {
        let msg = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(ver(1)),
            payload: UpdatePayload::Full(Payload::from(vec![0x5Au8; 10_000])),
            group: Some(gid()),
        };
        let encoded = wire::encode(&msg).len();
        let mut frames = Vec::new();
        frame_group(std::slice::from_ref(&msg), 1024, |f| frames.push(f));
        assert!(frames.len() >= 10);
        assert!(frames.iter().all(|f| f.msg_len == encoded as u64));
        let mut stager = ChunkStager::new();
        let (last, head) = frames.split_last().unwrap();
        for frame in head {
            assert_eq!(stager.accept(frame), Ok(None));
            let stage = &stager.stages[&gid()];
            assert_eq!(stage.cur.capacity(), encoded, "reserved once, never grown");
        }
        assert_eq!(stager.accept(last), Ok(Some(vec![msg])));
    }

    #[test]
    fn group_end_inside_a_message_is_rejected_not_committed_truncated() {
        // `last_in_group` without `last_in_msg` never leaves the framer,
        // but the flags are wire input: committing on it would apply the
        // group without the message still being staged.
        let msg = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(ver(1)),
            payload: UpdatePayload::Full(Payload::from(vec![0xA5u8; 3_000])),
            group: Some(gid()),
        };
        let mut frames = Vec::new();
        frame_group(std::slice::from_ref(&msg), 1024, |f| frames.push(f));
        assert!(frames.len() >= 3);
        let mut stager = ChunkStager::new();
        // At chunk (0, 0), and at a later chunk of the message.
        for cut in [0, 1] {
            for frame in &frames[..cut] {
                assert_eq!(stager.accept(frame), Ok(None));
            }
            let forged = ChunkFrame {
                last_in_group: true,
                ..frames[cut].clone()
            };
            assert!(
                matches!(stager.accept(&forged), Err(WireError::Malformed(_))),
                "cut at chunk {cut}"
            );
            assert_eq!(stager.staged_groups(), 0, "cut at chunk {cut}");
            assert_eq!(stager.staged_bytes(), 0, "cut at chunk {cut}");
            // A clean resend of the whole group then commits.
            let mut committed = None;
            for frame in &frames {
                committed = stager.accept(frame).expect("in-order stream stages");
            }
            assert_eq!(committed, Some(vec![msg.clone()]));
            assert_eq!(stager.staged_groups(), 0);
        }
    }
}
