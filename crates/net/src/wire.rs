//! The versioned binary wire format of the ShadowTutor protocol.
//!
//! Every message that crosses a process boundary is encoded by hand into an
//! explicit little-endian byte layout — no derive magic, no schema compiler,
//! in the same spirit as the hand-rolled JSON writer in `st_bench::json`.
//! The format is the protocol specification:
//!
//! ```text
//! frame     := magic(4) version(1) body_len(4, LE u32) body
//! magic     := "STWP" (0x53 0x54 0x57 0x50)
//! version   := 0x01
//! body      := one Wire-encoded message
//!
//! u8/u16/u32/u64 : little-endian, fixed width
//! usize          : encoded as u64
//! f32/f64        : IEEE-754 bits, little-endian
//! bool           : one byte, 0 or 1 (anything else is InvalidValue)
//! string         : u32 byte length + UTF-8 bytes
//! bytes          : u32 byte length + raw bytes
//! Option<T>      : u8 tag (0 = None, 1 = Some) + payload if Some
//! Vec<T>         : u32 element count + elements
//! enum           : u8 variant tag + variant fields in declaration order
//! ```
//!
//! Decoding never panics: every failure mode is a typed [`WireError`] —
//! truncation, a flipped magic byte, a frame from a future protocol
//! version, an unknown enum variant, or a value outside its domain.
//!
//! The [`Wire`] trait is deliberately symmetrical ([`Wire::encode_into`] /
//! [`Wire::decode`]) and sized ([`Wire::encoded_len`]) so transports can
//! preallocate exact buffers and the traffic accounting (Tables 4/5) can
//! report *measured* wire bytes instead of modelled estimates.
//!
//! A message's byte payload (a video frame up, a weight update down) is a
//! [`Bytes`], and a transport that moves frames itself need not copy it to
//! frame it or to unframe it: [`Wire::encode_gather`] writes the header and
//! the fields and hands the payload back by reference, so the sender copies
//! it once, straight to where it is going; [`Wire::decode_within`] decodes a
//! frame the receiver already owns and returns the payload as a window of
//! that buffer. [`encode_frame`] / [`decode_frame`] are the same encoders
//! over plain byte slices — one copy of the payload each, the same bytes.

use crate::message::{ClientToServer, DropReason, Payload, ServerToClient, StreamTagged};
use bytes::Bytes;
use std::fmt;

/// The 4-byte magic prefix of every framed message: `"STWP"`.
pub const WIRE_MAGIC: [u8; 4] = *b"STWP";

/// The current protocol version. Decoders reject frames from later versions
/// with [`WireError::UnsupportedVersion`] instead of misinterpreting bytes.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of framing prepended to each message body: magic (4), version (1),
/// body length (4).
pub const FRAME_HEADER_BYTES: usize = 9;

/// Typed decode failures. Every decoding path returns one of these — the
/// decoder never panics on attacker-controlled (or merely corrupted) bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The frame did not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The frame was produced by a protocol version this decoder does not
    /// understand (greater than [`WIRE_VERSION`]).
    UnsupportedVersion {
        /// The version byte found in the frame header.
        found: u8,
    },
    /// An enum tag byte did not name any known variant of the target type.
    UnknownVariant {
        /// The type being decoded.
        type_name: &'static str,
        /// The unrecognised tag byte.
        tag: u8,
    },
    /// A field decoded to a value outside its domain (a non-boolean bool
    /// byte, a non-UTF-8 string, a length that overflows the buffer…).
    InvalidValue {
        /// What was wrong, in protocol terms.
        what: &'static str,
    },
    /// The body was longer than the value it encoded — a framing bug on the
    /// sending side or bytes from a different message type.
    TrailingBytes {
        /// Bytes left over after the value decoded.
        remaining: usize,
    },
    /// A weight delta named a base checkpoint this receiver has never held —
    /// it cannot be applied against anything; the sender must fall back to a
    /// full snapshot. No pool sends deltas; kept for `stbench`'s client
    /// (ROADMAP item 18).
    UnknownBaseCheckpoint {
        /// The combined checkpoint hash the delta was computed against.
        base: u64,
    },
    /// A weight delta was computed against a checkpoint the receiver *used*
    /// to hold but has since advanced past (a missed or re-ordered update) —
    /// applying it would silently corrupt the weights. Kept, like
    /// [`WireError::UnknownBaseCheckpoint`], for `stbench`'s client.
    StaleBaseCheckpoint {
        /// The superseded combined checkpoint hash the delta named.
        base: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated wire data: needed {needed} bytes, {available} available"
                )
            }
            WireError::BadMagic { found } => write!(f, "bad wire magic {found:02x?}"),
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (supported: {WIRE_VERSION})"
                )
            }
            WireError::UnknownVariant { type_name, tag } => {
                write!(f, "unknown {type_name} variant tag {tag}")
            }
            WireError::InvalidValue { what } => write!(f, "invalid wire value: {what}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoded value")
            }
            WireError::UnknownBaseCheckpoint { base } => {
                write!(
                    f,
                    "weight delta against unknown base checkpoint {base:#018x}"
                )
            }
            WireError::StaleBaseCheckpoint { base } => {
                write!(f, "weight delta against stale base checkpoint {base:#018x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a hand-specified binary encoding.
///
/// Implementations must be exact inverses: `decode(&mut &encode(x)[..]) ==
/// Ok(x)` bit-for-bit, and `encoded_len` must equal the number of bytes
/// `encode_into` appends. The corruption tests in this module (and the
/// property tests in `tests/bounds_and_properties.rs`) hold every
/// implementor to that contract.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `input`, advancing it past the
    /// consumed bytes. Never panics; all failures are typed [`WireError`]s.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Exact number of bytes [`Wire::encode_into`] appends for this value.
    fn encoded_len(&self) -> usize;

    /// Convenience: encode into a fresh, exactly-sized buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// [`Wire::encode_into`] for a sender that moves byte payloads itself.
    /// With `blobs`, a [`Bytes`] field is not copied: its length prefix goes
    /// to `out` and the field (an O(1) clone) is pushed on `blobs` next to
    /// the length `out` has at that point — `out` with every blob spliced
    /// in after that many of its bytes is exactly the
    /// [`Wire::encode_into`] encoding. Without `blobs` it *is*
    /// `encode_into`, which is also the default: only [`Bytes`] and the
    /// types that contain one implement this.
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        let _ = blobs;
        self.encode_into(out);
    }

    /// [`Wire::decode`] for input the caller may own. With `owner` — of
    /// which `input` must be a window — a [`Bytes`] field is returned as an
    /// O(1) window of `owner` instead of a copy. Without it this *is*
    /// `decode`, which is also the default: only [`Bytes`] and the types
    /// that contain one implement this.
    ///
    /// # Panics
    ///
    /// May panic if `input` is not borrowed from `owner` (a caller bug;
    /// nothing a peer sends can cause it).
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        let _ = owner;
        Self::decode(input)
    }
}

/// Encode `message` as a complete frame: magic, version, length, body.
pub fn encode_frame<M: Wire>(message: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(message));
    encode_frame_gather(message, &mut out, None);
    debug_assert_eq!(out.len(), frame_len(message));
    out
}

/// Append `message`'s frame to `out` — all of it, or with `blobs` all but
/// the byte payloads ([`Wire::encode_gather`]; the offsets pushed count
/// from the start of `out`, whatever it already held).
pub(crate) fn encode_frame_gather<M: Wire>(
    message: &M,
    out: &mut Vec<u8>,
    blobs: Option<&mut Vec<(usize, Bytes)>>,
) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(message.encoded_len() as u32).to_le_bytes());
    message.encode_gather(out, blobs);
}

/// Total wire size of `message` once framed (header + body).
pub fn frame_len<M: Wire>(message: &M) -> usize {
    FRAME_HEADER_BYTES + message.encoded_len()
}

/// Decode a complete frame produced by [`encode_frame`], validating the
/// magic, version, and body length, and rejecting trailing bytes.
pub fn decode_frame<M: Wire>(buf: &[u8]) -> Result<M, WireError> {
    decode_frame_within(buf, None)
}

/// [`decode_frame`] over a frame the receiver owns: the message's byte
/// payloads are windows of `frame`, not copies.
pub(crate) fn decode_frame_owned<M: Wire>(frame: &Bytes) -> Result<M, WireError> {
    decode_frame_within(frame, Some(frame))
}

fn decode_frame_within<M: Wire>(buf: &[u8], owner: Option<&Bytes>) -> Result<M, WireError> {
    let mut input = buf;
    let header = take(&mut input, 4)?;
    let found = [header[0], header[1], header[2], header[3]];
    if found != WIRE_MAGIC {
        return Err(WireError::BadMagic { found });
    }
    let version = u8::decode(&mut input)?;
    if version == 0 || version > WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let body_len = u32::decode(&mut input)? as usize;
    if input.len() < body_len {
        return Err(WireError::Truncated {
            needed: body_len,
            available: input.len(),
        });
    }
    if input.len() > body_len {
        return Err(WireError::TrailingBytes {
            remaining: input.len() - body_len,
        });
    }
    let message = M::decode_within(&mut input, owner)?;
    if !input.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: input.len(),
        });
    }
    Ok(message)
}

/// Take exactly `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated {
            needed: n,
            available: input.len(),
        });
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! int_wire {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let raw = take(input, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(raw.try_into().expect("sized take")))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64);

impl Wire for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| WireError::InvalidValue {
            what: "u64 length does not fit in usize",
        })
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for f32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue {
                what: "bool byte not 0 or 1",
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

/// Encode a raw byte slice with a u32 length prefix.
fn encode_len_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    (bytes.len() as u32).encode_into(out);
    out.extend_from_slice(bytes);
}

/// Decode a u32-length-prefixed byte run, borrowing from the input.
fn decode_len_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = u32::decode(input)? as usize;
    take(input, len)
}

impl Wire for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_len_bytes(self.as_bytes(), out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let raw = decode_len_bytes(input)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidValue {
            what: "string is not valid UTF-8",
        })
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for Bytes {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_len_bytes(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_within(input, None)
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        match blobs {
            None => self.encode_into(out),
            Some(blobs) => {
                (self.len() as u32).encode_into(out);
                blobs.push((out.len(), self.clone()));
            }
        }
    }
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        let raw = decode_len_bytes(input)?;
        Ok(match owner {
            Some(owner) => owner.slice_ref(raw),
            None => Bytes::copy_from_slice(raw),
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_gather(out, None);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_within(input, None)
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_gather(out, blobs);
            }
        }
    }
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_within(input, owner)?)),
            tag => Err(WireError::UnknownVariant {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_into(out);
        for item in self {
            item.encode_into(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        // Cap the preallocation by what the buffer could possibly hold so a
        // corrupted length cannot request an absurd reservation; each element
        // is at least one byte.
        let mut items = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl Wire for Payload {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_gather(out, None);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_within(input, None)
    }
    fn encoded_len(&self) -> usize {
        self.bytes.encoded_len() + self.data.encoded_len()
    }
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        self.bytes.encode_into(out);
        self.data.encode_gather(out, blobs);
    }
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        Ok(Payload {
            bytes: usize::decode(input)?,
            data: Option::<Bytes>::decode_within(input, owner)?,
        })
    }
}

impl Wire for ClientToServer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_gather(out, None);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_within(input, None)
    }
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        match self {
            ClientToServer::Register => out.push(0),
            ClientToServer::KeyFrame {
                frame_index,
                payload,
            } => {
                out.push(1);
                frame_index.encode_into(out);
                payload.encode_gather(out, blobs);
            }
            // Tags 2 (a frame re-upload) and 4 (a registration announcing
            // delta support) are retired and never reused.
            ClientToServer::Shutdown => out.push(3),
        }
    }
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(ClientToServer::Register),
            1 => Ok(ClientToServer::KeyFrame {
                frame_index: usize::decode(input)?,
                payload: Payload::decode_within(input, owner)?,
            }),
            3 => Ok(ClientToServer::Shutdown),
            tag => Err(WireError::UnknownVariant {
                type_name: "ClientToServer",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            ClientToServer::Register | ClientToServer::Shutdown => 1,
            ClientToServer::KeyFrame {
                frame_index,
                payload,
            } => 1 + frame_index.encoded_len() + payload.encoded_len(),
        }
    }
}

impl Wire for DropReason {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DropReason::UnknownStream => 0,
            DropReason::UnknownFrame => 1,
            DropReason::ShardFailed => 2,
        });
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(DropReason::UnknownStream),
            1 => Ok(DropReason::UnknownFrame),
            2 => Ok(DropReason::ShardFailed),
            tag => Err(WireError::UnknownVariant {
                type_name: "DropReason",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for ServerToClient {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_gather(out, None);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_within(input, None)
    }
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        match self {
            ServerToClient::InitialStudent { payload } => {
                out.push(0);
                payload.encode_gather(out, blobs);
            }
            ServerToClient::StudentUpdate {
                frame_index,
                metric,
                distill_steps,
                payload,
            } => {
                out.push(1);
                frame_index.encode_into(out);
                metric.encode_into(out);
                distill_steps.encode_into(out);
                payload.encode_gather(out, blobs);
            }
            ServerToClient::Throttle { frame_index } => {
                out.push(2);
                frame_index.encode_into(out);
            }
            ServerToClient::NeedFrame { frame_index } => {
                out.push(3);
                frame_index.encode_into(out);
            }
            ServerToClient::Dropped {
                frame_index,
                reason,
            } => {
                out.push(4);
                frame_index.encode_into(out);
                reason.encode_into(out);
            }
        }
    }
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(ServerToClient::InitialStudent {
                payload: Payload::decode_within(input, owner)?,
            }),
            1 => Ok(ServerToClient::StudentUpdate {
                frame_index: usize::decode(input)?,
                metric: f64::decode(input)?,
                distill_steps: usize::decode(input)?,
                payload: Payload::decode_within(input, owner)?,
            }),
            2 => Ok(ServerToClient::Throttle {
                frame_index: usize::decode(input)?,
            }),
            3 => Ok(ServerToClient::NeedFrame {
                frame_index: usize::decode(input)?,
            }),
            4 => Ok(ServerToClient::Dropped {
                frame_index: usize::decode(input)?,
                reason: DropReason::decode(input)?,
            }),
            tag => Err(WireError::UnknownVariant {
                type_name: "ServerToClient",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            ServerToClient::InitialStudent { payload } => 1 + payload.encoded_len(),
            ServerToClient::StudentUpdate {
                frame_index,
                metric,
                distill_steps,
                payload,
            } => {
                1 + frame_index.encoded_len()
                    + metric.encoded_len()
                    + distill_steps.encoded_len()
                    + payload.encoded_len()
            }
            ServerToClient::Throttle { frame_index }
            | ServerToClient::NeedFrame { frame_index } => 1 + frame_index.encoded_len(),
            ServerToClient::Dropped {
                frame_index,
                reason,
            } => 1 + frame_index.encoded_len() + reason.encoded_len(),
        }
    }
}

impl<M: Wire> Wire for StreamTagged<M> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_gather(out, None);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Self::decode_within(input, None)
    }
    fn encoded_len(&self) -> usize {
        self.stream_id.encoded_len() + self.message.encoded_len()
    }
    fn encode_gather(&self, out: &mut Vec<u8>, blobs: Option<&mut Vec<(usize, Bytes)>>) {
        self.stream_id.encode_into(out);
        self.message.encode_gather(out, blobs);
    }
    fn decode_within(input: &mut &[u8], owner: Option<&Bytes>) -> Result<Self, WireError> {
        Ok(StreamTagged {
            stream_id: u64::decode(input)?,
            message: M::decode_within(input, owner)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: Wire + PartialEq + std::fmt::Debug>(value: M) {
        let encoded = value.encode();
        assert_eq!(encoded.len(), value.encoded_len(), "encoded_len contract");
        let mut input = &encoded[..];
        let decoded = M::decode(&mut input).expect("decode");
        assert!(input.is_empty(), "decode consumed everything");
        assert_eq!(decoded, value);
        // And through the framed path.
        let frame = encode_frame(&value);
        assert_eq!(frame.len(), frame_len(&value));
        assert_eq!(decode_frame::<M>(&frame).expect("frame decode"), value);
    }

    fn sample_payloads() -> Vec<Payload> {
        vec![
            Payload::sized(0),
            Payload::sized(1_000_000),
            Payload::with_data(Bytes::from(vec![0u8, 1, 2, 255, 128])),
            Payload::with_data(Bytes::new()),
        ]
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(-0.0f32);
        round_trip(f32::MIN_POSITIVE);
        round_trip(f64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip("κλμ utf-8 ✓".to_string());
        round_trip(String::new());
        round_trip(Bytes::from(vec![9u8; 300]));
        round_trip(Option::<u32>::None);
        round_trip(Some(77u32));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u8>::new());
    }

    #[test]
    fn every_client_to_server_variant_round_trips() {
        round_trip(ClientToServer::Register);
        round_trip(ClientToServer::Shutdown);
        for payload in sample_payloads() {
            round_trip(ClientToServer::KeyFrame {
                frame_index: 1234,
                payload,
            });
        }
    }

    #[test]
    fn every_server_to_client_variant_round_trips() {
        for payload in sample_payloads() {
            round_trip(ServerToClient::InitialStudent {
                payload: payload.clone(),
            });
            round_trip(ServerToClient::StudentUpdate {
                frame_index: 7,
                metric: 0.8125,
                distill_steps: 30,
                payload,
            });
        }
        round_trip(ServerToClient::Throttle { frame_index: 3 });
        round_trip(ServerToClient::NeedFrame { frame_index: 0 });
        round_trip(ServerToClient::Dropped {
            frame_index: 11,
            reason: DropReason::UnknownStream,
        });
        round_trip(ServerToClient::Dropped {
            frame_index: 12,
            reason: DropReason::UnknownFrame,
        });
        round_trip(ServerToClient::Dropped {
            frame_index: 13,
            reason: DropReason::ShardFailed,
        });
    }

    #[test]
    fn stream_tagged_round_trips() {
        round_trip(StreamTagged::new(
            u64::MAX,
            ClientToServer::KeyFrame {
                frame_index: 5,
                payload: Payload::with_data(Bytes::from(vec![7u8; 64])),
            },
        ));
        round_trip(StreamTagged::new(
            0,
            ServerToClient::Throttle { frame_index: 1 },
        ));
    }

    fn payload_messages() -> Vec<StreamTagged<ServerToClient>> {
        sample_payloads()
            .into_iter()
            .map(|payload| {
                StreamTagged::new(
                    3,
                    ServerToClient::StudentUpdate {
                        frame_index: 7,
                        metric: 0.5,
                        distill_steps: 2,
                        payload,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn a_gathered_frame_with_its_blobs_spliced_in_is_the_plain_frame() {
        for message in payload_messages() {
            // Offsets count from the start of `out`, whatever it held.
            let mut head = vec![0xAAu8; 4];
            let mut blobs = Vec::new();
            encode_frame_gather(&message, &mut head, Some(&mut blobs));
            let data = message.message_payload();
            assert_eq!(blobs.len(), usize::from(data.is_some()));
            let mut spliced = Vec::new();
            let mut done = 0;
            for (at, blob) in &blobs {
                // The payload itself, not a copy of it.
                assert_eq!(blob.as_ptr(), data.expect("a blob without data").as_ptr());
                spliced.extend_from_slice(&head[done..*at]);
                spliced.extend_from_slice(blob);
                done = *at;
            }
            spliced.extend_from_slice(&head[done..]);
            assert_eq!(&spliced[..4], &[0xAA; 4]);
            assert_eq!(&spliced[4..], &encode_frame(&message)[..]);
        }
    }

    #[test]
    fn an_owned_frame_decodes_to_windows_of_itself() {
        type Tagged = StreamTagged<ServerToClient>;
        for message in payload_messages() {
            let frame = Bytes::from(encode_frame(&message));
            let inside = |data: &Bytes| {
                let (start, at) = (frame.as_ptr() as usize, data.as_ptr() as usize);
                !data.is_empty() && start <= at && at + data.len() <= start + frame.len()
            };
            let owned = decode_frame_owned::<Tagged>(&frame).unwrap();
            assert_eq!(owned, message);
            let borrowed = decode_frame::<Tagged>(&frame).unwrap();
            assert_eq!(borrowed, message);
            if let Some(data) = owned.message_payload().filter(|data| !data.is_empty()) {
                assert!(inside(data), "an owned frame's payload was copied");
                assert!(!inside(borrowed.message_payload().unwrap()));
            }
            // Every corruption the borrowed decoder types, the owned one
            // types the same way.
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_frame_owned::<Tagged>(&frame.slice(0..cut)),
                    decode_frame::<Tagged>(&frame[..cut])
                );
            }
        }
    }

    impl StreamTagged<ServerToClient> {
        fn message_payload(&self) -> Option<&Bytes> {
            match &self.message {
                ServerToClient::StudentUpdate { payload, .. } => payload.data.as_ref(),
                _ => None,
            }
        }
    }

    #[test]
    fn layout_is_stable_little_endian() {
        // The byte layout is the protocol: pin it so a refactor cannot
        // silently change what peers see.
        let msg = ServerToClient::Throttle {
            frame_index: 0x0102,
        };
        assert_eq!(msg.encode(), vec![2, 0x02, 0x01, 0, 0, 0, 0, 0, 0]);
        let frame = encode_frame(&msg);
        assert_eq!(&frame[..4], b"STWP");
        assert_eq!(frame[4], WIRE_VERSION);
        assert_eq!(&frame[5..9], &9u32.to_le_bytes());
    }

    #[test]
    fn truncated_buffers_report_truncation_everywhere() {
        let msg = StreamTagged::new(
            9,
            ClientToServer::KeyFrame {
                frame_index: 5,
                payload: Payload::with_data(Bytes::from(vec![1u8; 32])),
            },
        );
        let encoded = msg.encode();
        // Every proper prefix must fail with a typed error, never panic.
        for cut in 0..encoded.len() {
            let mut input = &encoded[..cut];
            let err =
                StreamTagged::<ClientToServer>::decode(&mut input).expect_err("prefix decoded");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        // Framed: truncations inside the header and inside the body.
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            let err = decode_frame::<StreamTagged<ClientToServer>>(&frame[..cut])
                .expect_err("truncated frame decoded");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn flipped_magic_is_rejected() {
        let frame = encode_frame(&ClientToServer::Register);
        for i in 0..4 {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            match decode_frame::<ClientToServer>(&bad) {
                Err(WireError::BadMagic { found }) => assert_eq!(found[i], frame[i] ^ 0x40),
                other => panic!("expected BadMagic, got {other:?}"),
            }
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut frame = encode_frame(&ClientToServer::Shutdown);
        frame[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame::<ClientToServer>(&frame),
            Err(WireError::UnsupportedVersion {
                found: WIRE_VERSION + 1
            })
        );
        frame[4] = 0;
        assert_eq!(
            decode_frame::<ClientToServer>(&frame),
            Err(WireError::UnsupportedVersion { found: 0 })
        );
    }

    #[test]
    fn unknown_variant_tags_are_rejected() {
        let mut input: &[u8] = &[200u8];
        assert_eq!(
            ClientToServer::decode(&mut input),
            Err(WireError::UnknownVariant {
                type_name: "ClientToServer",
                tag: 200
            })
        );
        let mut input: &[u8] = &[9u8];
        assert_eq!(
            ServerToClient::decode(&mut input),
            Err(WireError::UnknownVariant {
                type_name: "ServerToClient",
                tag: 9
            })
        );
        let mut input: &[u8] = &[7u8];
        assert_eq!(
            DropReason::decode(&mut input),
            Err(WireError::UnknownVariant {
                type_name: "DropReason",
                tag: 7
            })
        );
        let mut input: &[u8] = &[3u8, 1];
        assert_eq!(
            Option::<u8>::decode(&mut input),
            Err(WireError::UnknownVariant {
                type_name: "Option",
                tag: 3
            })
        );
    }

    #[test]
    fn a_retired_client_tag_fails_typed() {
        // Tag 2 carried a frame re-upload and tag 4 a registration announcing
        // delta support; no peer sends either any more. A frame from such a
        // peer — a well-formed body under that tag — is refused by type, not
        // by panic.
        let mut reupload = encode_frame(&ClientToServer::KeyFrame {
            frame_index: 17,
            payload: Payload::with_data(Bytes::from(vec![5u8; 48])),
        });
        reupload[FRAME_HEADER_BYTES] = 2;
        // Tag 4's body went on to one `bool` (`supports_delta: true`): a
        // two-byte body, its length the header's last four bytes.
        let mut announce = encode_frame(&ClientToServer::Register);
        announce[FRAME_HEADER_BYTES - 4..FRAME_HEADER_BYTES].copy_from_slice(&2u32.to_le_bytes());
        announce[FRAME_HEADER_BYTES] = 4;
        announce.push(1);
        for (frame, tag) in [(reupload, 2), (announce, 4)] {
            assert_eq!(
                decode_frame::<ClientToServer>(&frame),
                Err(WireError::UnknownVariant {
                    type_name: "ClientToServer",
                    tag
                })
            );
        }
    }

    #[test]
    fn domain_violations_are_invalid_values() {
        let mut input: &[u8] = &[2u8];
        assert!(matches!(
            bool::decode(&mut input),
            Err(WireError::InvalidValue { .. })
        ));
        // 1-byte string whose byte is not UTF-8-complete.
        let mut input: &[u8] = &[1, 0, 0, 0, 0xFF];
        assert!(matches!(
            String::decode(&mut input),
            Err(WireError::InvalidValue { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected_in_frames() {
        let mut frame = encode_frame(&ClientToServer::Register);
        frame.push(0);
        assert!(matches!(
            decode_frame::<ClientToServer>(&frame),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_overallocate() {
        // A Vec length prefix claiming 4 billion elements over a 6-byte
        // buffer must fail with truncation, not abort on allocation.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2]);
        let mut input = &bytes[..];
        assert!(matches!(
            Vec::<u64>::decode(&mut input),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn wire_errors_display() {
        // Display formatting is part of the operator surface (logs).
        for err in [
            WireError::Truncated {
                needed: 4,
                available: 1,
            },
            WireError::BadMagic { found: [0; 4] },
            WireError::UnsupportedVersion { found: 9 },
            WireError::UnknownVariant {
                type_name: "X",
                tag: 1,
            },
            WireError::InvalidValue { what: "nope" },
            WireError::TrailingBytes { remaining: 3 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
