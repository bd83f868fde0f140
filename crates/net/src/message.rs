//! Messages exchanged between the ShadowTutor client and server, and their
//! wire sizes.
//!
//! The sizes reported here are what the paper's Table 4 ("Data transmitted
//! on each key frame") measures: the uplink payload is one raw video frame,
//! the downlink payload is either the partial or the full student weight
//! snapshot (plus the post-training metric), and the naive-offloading
//! baseline instead downloads the teacher's per-pixel prediction.

use bytes::Bytes;

/// Framing overhead added to every message (headers, MPI envelope, etc.).
pub const MESSAGE_OVERHEAD_BYTES: usize = 64;

/// A payload with an explicit wire size.
///
/// The actual bytes are optional: a size-only payload is enough for a
/// message whose content the receiver never reads, while the live transport
/// ships real encoded bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Payload {
    /// *Modelled* wire size in bytes, including [`MESSAGE_OVERHEAD_BYTES`].
    ///
    /// It predates the binary codec and no transport reads it; for bytes that actually cross a transport, measure with
    /// [`Wire::encoded_len`](crate::wire::Wire::encoded_len) (or
    /// [`wire::frame_len`](crate::wire::frame_len) for the framed size)
    /// instead.
    pub bytes: usize,
    /// The encoded content, when a live transport is in use.
    pub data: Option<Bytes>,
}

impl Payload {
    /// A size-only payload.
    pub fn sized(content_bytes: usize) -> Self {
        Payload {
            bytes: content_bytes + MESSAGE_OVERHEAD_BYTES,
            data: None,
        }
    }

    /// A payload carrying real bytes (live transport).
    pub fn with_data(data: Bytes) -> Self {
        Payload {
            bytes: data.len() + MESSAGE_OVERHEAD_BYTES,
            data: Some(data),
        }
    }
}

/// Client → server messages. Wire tags 2 (a frame re-upload) and 4 (a
/// registration announcing delta support) are retired: a peer's frame under
/// either decodes as a typed [`crate::WireError::UnknownVariant`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClientToServer {
    /// Announce a new stream. The multi-stream server pool creates the
    /// stream's distillation session and replies with
    /// [`ServerToClient::InitialStudent`] in the update encoding the pool
    /// serves (bare snapshots or delta envelopes: the pool's setting, not
    /// the client's); the single-stream server sends the initial checkpoint
    /// unprompted and never sees this variant.
    Register,
    /// A key frame to distill on. Carries the frame index for bookkeeping and
    /// the encoded frame payload.
    KeyFrame {
        /// Index of the frame in the video stream.
        frame_index: usize,
        /// Encoded RGB frame.
        payload: Payload,
    },
    /// The client is done with the stream; the server loop should exit.
    Shutdown,
}

/// Identifier of one client stream multiplexed onto a shared server.
pub type StreamId = u64;

/// A message tagged with the stream it belongs to.
///
/// The multi-stream server pool funnels every client's uplink into one
/// queue per shard; the tag is what routes a message to the right
/// per-stream distillation session and routes the response back. Tagging
/// costs [`STREAM_TAG_BYTES`] extra on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTagged<M> {
    /// The originating (or destination) stream.
    pub stream_id: StreamId,
    /// The wrapped message.
    pub message: M,
}

/// Wire overhead of the stream tag (a fixed-width stream id).
pub const STREAM_TAG_BYTES: usize = 8;

impl<M> StreamTagged<M> {
    /// Tag `message` as belonging to `stream_id`.
    pub fn new(stream_id: StreamId, message: M) -> Self {
        StreamTagged { stream_id, message }
    }

    /// Discard the tag, keeping the inner message.
    pub fn into_inner(self) -> M {
        self.message
    }
}

/// Why the server refused (or lost) a key frame instead of serving it.
///
/// Sent back in [`ServerToClient::Dropped`] so the client's frame accounting
/// cannot silently skew: every key frame the client uploads is answered by
/// exactly one `StudentUpdate`, `Throttle`, or `Dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The stream has no registered session (never registered, or the key
    /// frame arrived after the stream's `Shutdown`).
    UnknownStream,
    /// The stream is registered but the frame index was never pre-shared.
    UnknownFrame,
    /// The shard serving the stream died and the job could not be salvaged
    /// by the shard's recovery (the dying pass had taken the job and not
    /// answered it). Like every other reason this is an
    /// explicit ack: a shard failure must never make a key frame vanish
    /// silently.
    ShardFailed,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerToClient {
    /// The initial full student checkpoint sent when the system starts
    /// (Algorithm 3, line 1).
    InitialStudent {
        /// Encoded full weight snapshot.
        payload: Payload,
    },
    /// The updated (partial or full) student weights for a key frame plus the
    /// post-training metric the client feeds into the stride scheduler.
    StudentUpdate {
        /// Index of the key frame this update corresponds to.
        frame_index: usize,
        /// Post-distillation metric (mean IoU in `[0, 1]`) on the key frame.
        metric: f64,
        /// Number of distillation steps the server took.
        distill_steps: usize,
        /// Encoded weight snapshot (trainable subset under partial
        /// distillation, everything under full distillation).
        payload: Payload,
    },
    /// Admission control: the stream already has its maximum number of key
    /// frames in flight, so this one was rejected without being queued. The
    /// client should fall back to local-only inference for the frame (its
    /// student simply keeps serving with the current weights) and must not
    /// wait for a `StudentUpdate`.
    Throttle {
        /// Index of the rejected key frame.
        frame_index: usize,
    },
    /// Retired: no server sends it. It once asked a client to re-upload a
    /// frame evicted from a bounded frame cache; the pool now keeps every
    /// pre-shared frame for the stream's life. The variant and its wire tag
    /// (3) are kept only because the `stbench` client still matches on it
    /// (ROADMAP item 18); a client that receives it may ignore it.
    NeedFrame {
        /// Index of the frame whose content the server needs again.
        frame_index: usize,
    },
    /// The key frame could not be served at all (see [`DropReason`]). Like
    /// [`ServerToClient::Throttle`] this clears the client's outstanding
    /// update; unlike a throttle it indicates a protocol-level mismatch the
    /// server also counts in its shard statistics.
    Dropped {
        /// Index of the dropped key frame.
        frame_index: usize,
        /// Why the frame was dropped.
        reason: DropReason,
    },
}

/// Wire sizes of the recurring per-key-frame messages for a given
/// configuration — the rows of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyFrameTraffic {
    /// Modelled bytes sent client → server per key frame (the raw frame).
    pub to_server_bytes: usize,
    /// Modelled bytes sent server → client per key frame (weights + metric).
    pub to_client_bytes: usize,
    /// *Measured* uplink bytes: the framed binary encoding of the actual
    /// `KeyFrame` message as produced by the wire codec. Zero until measured
    /// with [`KeyFrameTraffic::with_wire_bytes`].
    pub wire_bytes_up: usize,
    /// *Measured* downlink bytes: the framed binary encoding of the actual
    /// `StudentUpdate` message. Zero until measured.
    pub wire_bytes_down: usize,
}

impl KeyFrameTraffic {
    /// Build from a raw frame size and a weight-snapshot size.
    pub fn new(frame_bytes: usize, update_bytes: usize) -> Self {
        KeyFrameTraffic {
            to_server_bytes: frame_bytes + MESSAGE_OVERHEAD_BYTES,
            to_client_bytes: update_bytes + MESSAGE_OVERHEAD_BYTES,
            wire_bytes_up: 0,
            wire_bytes_down: 0,
        }
    }

    /// Attach measured wire sizes (framed bytes of the actual encoded
    /// uplink and downlink messages, e.g. from
    /// [`wire::frame_len`](crate::wire::frame_len)).
    pub fn with_wire_bytes(mut self, up: usize, down: usize) -> Self {
        self.wire_bytes_up = up;
        self.wire_bytes_down = down;
        self
    }

    /// Total *measured* bytes exchanged per key frame (0 until measured).
    pub fn wire_total_bytes(&self) -> usize {
        self.wire_bytes_up + self.wire_bytes_down
    }

    /// `(up, down, total)` of the measured wire bytes, in megabytes.
    pub fn wire_megabytes(&self) -> (f64, f64, f64) {
        (
            self.wire_bytes_up as f64 / 1e6,
            self.wire_bytes_down as f64 / 1e6,
            self.wire_total_bytes() as f64 / 1e6,
        )
    }

    /// Total bytes exchanged per key frame.
    pub fn total_bytes(&self) -> usize {
        self.to_server_bytes + self.to_client_bytes
    }

    /// `(to_server, to_client, total)` in megabytes, Table 4's unit.
    pub fn megabytes(&self) -> (f64, f64, f64) {
        (
            self.to_server_bytes as f64 / 1e6,
            self.to_client_bytes as f64 / 1e6,
            self.total_bytes() as f64 / 1e6,
        )
    }
}

/// Per-frame traffic of the naive-offloading baseline: every frame goes up,
/// and the teacher's per-pixel prediction (one byte per pixel, as a class-id
/// map) comes back down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveTraffic {
    /// Modelled bytes sent client → server per frame.
    pub to_server_bytes: usize,
    /// Modelled bytes sent server → client per frame.
    pub to_client_bytes: usize,
    /// *Measured* uplink bytes of the actual encoded frame-upload message.
    /// Zero until measured with [`NaiveTraffic::with_wire_bytes`].
    pub wire_bytes_up: usize,
    /// *Measured* downlink bytes of the actual encoded prediction message.
    /// Zero until measured.
    pub wire_bytes_down: usize,
}

impl NaiveTraffic {
    /// Build from frame dimensions: uplink is the raw RGB frame, downlink is
    /// a compressed per-pixel class map (the paper measures ~0.879 MB for a
    /// 720p prediction, ≈ 1 byte per pixel).
    pub fn for_frame(width: usize, height: usize) -> Self {
        NaiveTraffic {
            to_server_bytes: 3 * width * height + MESSAGE_OVERHEAD_BYTES,
            to_client_bytes: width * height + MESSAGE_OVERHEAD_BYTES,
            wire_bytes_up: 0,
            wire_bytes_down: 0,
        }
    }

    /// Attach measured wire sizes (framed bytes of the actual encoded
    /// uplink and downlink messages).
    pub fn with_wire_bytes(mut self, up: usize, down: usize) -> Self {
        self.wire_bytes_up = up;
        self.wire_bytes_down = down;
        self
    }

    /// Total *measured* bytes exchanged per frame (0 until measured).
    pub fn wire_total_bytes(&self) -> usize {
        self.wire_bytes_up + self.wire_bytes_down
    }

    /// Total bytes exchanged per frame.
    pub fn total_bytes(&self) -> usize {
        self.to_server_bytes + self.to_client_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn sized_payload_includes_overhead() {
        let p = Payload::sized(1000);
        assert_eq!(p.bytes, 1000 + MESSAGE_OVERHEAD_BYTES);
        assert!(p.data.is_none());
    }

    #[test]
    fn data_payload_measures_real_bytes() {
        let p = Payload::with_data(Bytes::from(vec![0u8; 512]));
        assert_eq!(p.bytes, 512 + MESSAGE_OVERHEAD_BYTES);
        assert_eq!(p.data.as_ref().unwrap().len(), 512);
    }

    #[test]
    fn paper_hd_frame_size_matches_table4_order() {
        // 1280x720 RGB ≈ 2.76 MB raw; the paper reports 2.637 MB to server.
        let naive = NaiveTraffic::for_frame(1280, 720);
        let mb = naive.to_server_bytes as f64 / 1e6;
        assert!((mb - 2.7).abs() < 0.15, "uplink frame {mb} MB");
        // Teacher prediction downlink ≈ 0.92 MB vs paper's 0.879 MB.
        let down = naive.to_client_bytes as f64 / 1e6;
        assert!((down - 0.9).abs() < 0.1, "downlink prediction {down} MB");
    }

    #[test]
    fn key_frame_traffic_totals() {
        let t = KeyFrameTraffic::new(1_000_000, 200_000);
        assert_eq!(t.total_bytes(), 1_200_000 + 2 * MESSAGE_OVERHEAD_BYTES);
        let (up, down, total) = t.megabytes();
        assert!(up > down);
        assert!((total - up - down).abs() < 1e-9);
    }

    #[test]
    fn stream_tagging_round_trips_and_adds_fixed_overhead() {
        let inner = ClientToServer::KeyFrame {
            frame_index: 9,
            payload: Payload::sized(100),
        };
        let tagged = StreamTagged::new(3, inner.clone());
        assert_eq!(tagged.stream_id, 3);
        assert_eq!(tagged.encoded_len(), inner.encoded_len() + STREAM_TAG_BYTES);
        assert_eq!(tagged.into_inner(), inner);
        let reg = StreamTagged::new(7, ClientToServer::Register);
        assert_eq!(reg.message, ClientToServer::Register);
    }

    #[test]
    fn throttle_and_drop_identify_the_key_frame() {
        // Both rejection messages carry the frame index so the client can
        // reconcile exactly which upload will never be answered by an update.
        let t = ServerToClient::Throttle { frame_index: 42 };
        assert!(matches!(t, ServerToClient::Throttle { frame_index: 42 }));
        let d = ServerToClient::Dropped {
            frame_index: 7,
            reason: DropReason::UnknownStream,
        };
        match d {
            ServerToClient::Dropped {
                frame_index,
                reason,
            } => {
                assert_eq!(frame_index, 7);
                assert_eq!(reason, DropReason::UnknownStream);
                assert_ne!(reason, DropReason::UnknownFrame);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn message_variants_carry_payloads() {
        let m = ClientToServer::KeyFrame {
            frame_index: 5,
            payload: Payload::sized(10),
        };
        match m {
            ClientToServer::KeyFrame {
                frame_index,
                payload,
            } => {
                assert_eq!(frame_index, 5);
                assert!(payload.bytes > 10);
            }
            ClientToServer::Register | ClientToServer::Shutdown => panic!("wrong variant"),
        }
        let s = ServerToClient::StudentUpdate {
            frame_index: 5,
            metric: 0.8,
            distill_steps: 3,
            payload: Payload::sized(100),
        };
        if let ServerToClient::StudentUpdate {
            metric,
            distill_steps,
            ..
        } = s
        {
            assert!(metric > 0.0 && distill_steps == 3);
        } else {
            panic!("wrong variant");
        }
    }
}
