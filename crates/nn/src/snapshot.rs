//! Weight snapshots, partial diffs, and their byte encodings.
//!
//! Partial distillation only changes the unfrozen back-end of the student, so
//! the server only has to ship that slice of the weights back to the client
//! (§4.2: "it suffices to communicate only the weights that changed"). A
//! [`WeightSnapshot`] captures either the full parameter set or only the
//! trainable subset — plus the batch-norm running statistics of the in-scope
//! stages, which training forwards update and eval-mode serving depends on.
//! [`WeightSnapshot::encode`] produces the wire format measured as the
//! "To Client" payload of Table 4 (the paper counts parameters only; the
//! running statistics add `2 * channels` floats per in-scope batch norm).
//!
//! Applying a snapshot replaces only what differs: an entry bit-identical
//! to what the student already holds leaves that tensor — and whatever
//! copy-on-write storage it shares — alone ([`WeightSnapshot::apply`]).
//!
//! The encoding is a simple deterministic framing:
//! `u32 entry-count`, then per entry `u32 name-length`, name bytes,
//! `u32 value-count`, and the values as little-endian `f32`s.
//!
//! A captured entry holds the network's tensor (a handle: capture copies no
//! values). A decoded one holds its values as they arrived, a window of the
//! received `Bytes`: [`WeightSnapshot::decode`] checks the framing and
//! copies nothing, and [`WeightSnapshot::apply`] compares each entry's
//! little-endian bytes with the target's bits before it decodes anything.
//! An unchanged entry is never decoded; a changed one is decoded once,
//! straight into the tensor that replaces the target. The encoders write
//! each value exactly once through `put_f32s_le` — a block move on a
//! little-endian host — [`WeightSnapshot::encode`] into the buffer the
//! returned `Bytes` keeps and [`Wire::encode_into`](st_net::Wire::encode_into)
//! straight into the caller's frame. Between `capture` and `apply` that is
//! all this module does to the weights; the rest of the update path's budget
//! (one ring move per side) is `st_net::shm`'s.

use crate::param::Param;
use crate::student::StudentNet;
use crate::Result;
use bytes::Bytes;
use st_tensor::{Shape, Tensor, TensorError};
use std::collections::HashMap;

/// Which parameters a snapshot contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotScope {
    /// Every parameter of the student.
    Full,
    /// Only the parameters trainable under the student's current freeze
    /// point (the partial-distillation payload).
    TrainableOnly,
}

/// A named set of parameter values captured from a student network.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSnapshot {
    entries: Vec<(String, Values)>,
    scope: SnapshotScope,
}

/// One entry's values.
#[derive(Debug, Clone)]
enum Values {
    /// Captured: the network's tensor, sharing its storage.
    Held(Tensor),
    /// Decoded: the little-endian `f32`s as a window of the received bytes
    /// (a multiple of four long), not yet converted.
    Received(Bytes),
}

impl Values {
    fn numel(&self) -> usize {
        match self {
            Values::Held(tensor) => tensor.numel(),
            Values::Received(le) => le.len() / 4,
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Values::Held(tensor) => tensor.shape().clone(),
            Values::Received(_) => Shape::vector(self.numel()),
        }
    }

    /// The values as a tensor: the held handle, or received values decoded
    /// into a flat one.
    fn tensor(&self) -> Tensor {
        self.to_shape(self.shape())
            .expect("an entry's own shape fits its values")
    }

    /// The tensor of `shape` (whose element count is this entry's) that
    /// carries these values: the held handle reshaped, sharing its storage,
    /// or received values decoded once, straight into the new tensor's
    /// buffer.
    fn to_shape(&self, shape: Shape) -> Result<Tensor> {
        match self {
            Values::Held(tensor) => tensor.reshape(shape),
            Values::Received(le) => Tensor::from_vec(shape, get_f32s_le(le)),
        }
    }

    /// Append the values to `out` as little-endian `f32`s.
    fn put_le(&self, out: &mut Vec<u8>) {
        match self {
            Values::Held(tensor) => put_f32s_le(out, tensor.data()),
            Values::Received(le) => out.extend_from_slice(le),
        }
    }

    /// Whether these values are `held`'s (of the same length) bit for bit.
    fn same_bits(&self, held: &[f32]) -> bool {
        match self {
            Values::Held(tensor) => same_bits(tensor.data(), held),
            Values::Received(le) => same_le_bits(le, held),
        }
    }
}

/// Equal as the tensors they carry (a decoded entry is flat), by `f32`
/// comparison.
impl PartialEq for Values {
    fn eq(&self, other: &Values) -> bool {
        self.tensor() == other.tensor()
    }
}

/// Finds the entry for each tensor a network visits. The visitors walk a
/// network in the order `capture` recorded it, so while they agree the next
/// entry is the one; from the first disagreement on (a partial snapshot, a
/// reordered one) entries are found by name.
struct Lookup<'a> {
    entries: &'a [(String, Values)],
    next: usize,
    by_name: Option<HashMap<&'a str, usize>>,
}

impl<'a> Lookup<'a> {
    fn new(entries: &'a [(String, Values)]) -> Self {
        Lookup {
            entries,
            next: 0,
            by_name: None,
        }
    }

    /// The first entry named `name`. A network's names are distinct, so an
    /// in-order match is always the first one: every entry before it
    /// matched an earlier name.
    fn find(&mut self, name: &str) -> Option<&'a Values> {
        let entries = self.entries;
        if self.by_name.is_none() {
            if let Some((entry, values)) = entries.get(self.next) {
                if entry == name {
                    self.next += 1;
                    return Some(values);
                }
            }
        }
        let by_name = self.by_name.get_or_insert_with(|| {
            let mut by_name = HashMap::with_capacity(entries.len());
            for (at, (entry, _)) in entries.iter().enumerate() {
                by_name.entry(entry.as_str()).or_insert(at);
            }
            by_name
        });
        by_name.get(name).map(|&at| &entries[at].1)
    }
}

impl WeightSnapshot {
    /// Capture a snapshot of `net` with the given scope.
    ///
    /// Besides the parameters, the snapshot carries the batch-norm *running
    /// statistics* of the in-scope stages: they are updated by every training
    /// forward pass, the serving client's inference mode depends on them, and
    /// restoring a snapshot that omitted them would leave the student
    /// behaving differently from the state the snapshot was taken in.
    pub fn capture(net: &mut StudentNet, scope: SnapshotScope) -> Self {
        let include = |trainable: bool| match scope {
            SnapshotScope::Full => true,
            SnapshotScope::TrainableOnly => trainable,
        };
        let mut entries = Vec::new();
        let mut v = |p: &mut Param, trainable: bool| {
            if include(trainable) {
                entries.push((p.name.clone(), Values::Held(p.value.clone())));
            }
        };
        net.visit_params(&mut v);
        let mut b = |name: &str, value: &mut Tensor, trainable: bool| {
            if include(trainable) {
                entries.push((name.to_string(), Values::Held(value.clone())));
            }
        };
        net.visit_buffers(&mut b);
        WeightSnapshot { entries, scope }
    }

    /// The scope this snapshot was captured with.
    pub fn scope(&self) -> SnapshotScope {
        self.scope
    }

    /// Number of entries in the snapshot (parameter tensors plus batch-norm
    /// running-stat buffers).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of scalar values.
    pub fn scalar_count(&self) -> usize {
        self.entries.iter().map(|(_, values)| values.numel()).sum()
    }

    /// Size of the encoded snapshot in bytes.
    pub fn encoded_size(&self) -> usize {
        4 + self
            .entries
            .iter()
            .map(|(name, values)| 4 + name.len() + 4 + 4 * values.numel())
            .sum::<usize>()
    }

    /// Apply the snapshot's values onto `net`, matching entries by name.
    ///
    /// Entries cover parameters and batch-norm running statistics; anything
    /// not present in the snapshot is left untouched (this is how the client
    /// applies a partial update). Returns the number of entries applied;
    /// errors if a named entry exists but has a different element count.
    ///
    /// An entry whose values already equal the target's *bit for bit*
    /// (`to_bits`, so NaN payloads and `-0.0` are exact) counts as applied
    /// but keeps the target's storage: a student cloned copy-on-write from a
    /// template and handed that template's own checkpoint — every client's
    /// `InitialStudent` — goes on sharing the template's tensors instead of
    /// turning each of them private. A decoded entry is compared on its
    /// received bytes, so an unchanged one is never decoded at all.
    pub fn apply(&self, net: &mut StudentNet) -> Result<usize> {
        let mut applied = 0usize;
        let mut error: Option<TensorError> = None;
        {
            let mut lookup = Lookup::new(&self.entries);
            // Decoded snapshots carry flat values; accept any layout with
            // the right element count and restore the target's shape.
            let mut restore = |name: &str, target: &mut Tensor| {
                if error.is_some() {
                    return;
                }
                let Some(values) = lookup.find(name) else {
                    return;
                };
                if values.numel() != target.numel() {
                    error = Some(TensorError::ShapeMismatch {
                        op: "snapshot_apply",
                        lhs: values.shape().dims().to_vec(),
                        rhs: target.shape().dims().to_vec(),
                    });
                    return;
                }
                if values.same_bits(target.data()) {
                    applied += 1;
                    return;
                }
                match values.to_shape(target.shape().clone()) {
                    Ok(v) => {
                        *target = v;
                        applied += 1;
                    }
                    Err(e) => error = Some(e),
                }
            };
            let mut v = |p: &mut Param, _trainable: bool| restore(&p.name, &mut p.value);
            net.visit_params(&mut v);
            let mut b = |name: &str, value: &mut Tensor, _trainable: bool| restore(name, value);
            net.visit_buffers(&mut b);
        }
        if let Some(e) = error {
            return Err(e);
        }
        Ok(applied)
    }

    /// L2 distance between two snapshots taken over the same parameter set.
    pub fn distance(&self, other: &WeightSnapshot) -> Result<f32> {
        if self.entries.len() != other.entries.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.entries.len(),
                actual: other.entries.len(),
            });
        }
        let mut acc = 0.0f32;
        for ((na, va), (nb, vb)) in self.entries.iter().zip(other.entries.iter()) {
            if na != nb {
                return Err(TensorError::InvalidArgument(format!(
                    "snapshot entries differ: {na} vs {nb}"
                )));
            }
            acc += va.tensor().sub(&vb.tensor())?.sq_norm();
        }
        Ok(acc.sqrt())
    }

    /// Encode to the wire format described in the module docs.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_size());
        self.encode_body(&mut buf);
        Bytes::from(buf)
    }

    /// Append the [`WeightSnapshot::encode`] bytes to `out`.
    fn encode_body(&self, out: &mut Vec<u8>) {
        put_u32_le(out, self.entries.len());
        for (name, values) in &self.entries {
            put_u32_le(out, name.len());
            out.extend_from_slice(name.as_bytes());
            put_u32_le(out, values.numel());
            values.put_le(out);
        }
    }

    /// Split the snapshot into per-entry encoded chunks: one
    /// `(name, bytes)` pair per entry, where the bytes are the entry's
    /// `u32 value-count` plus little-endian `f32` values — the same framing
    /// [`WeightSnapshot::encode`] uses per entry, minus the name prefix.
    ///
    /// This is the unit of content addressing for the weight store and the
    /// delta digests: a frozen partial-distillation stage re-encodes to byte-identical
    /// chunks update after update, so a hash-keyed store shares them
    /// instead of recopying.
    pub fn entry_chunks(&self) -> Vec<(&str, Bytes)> {
        self.entries
            .iter()
            .map(|(name, values)| {
                let mut buf = Vec::with_capacity(4 + 4 * values.numel());
                put_u32_le(&mut buf, values.numel());
                values.put_le(&mut buf);
                (name.as_str(), Bytes::from(buf))
            })
            .collect()
    }

    /// Rebuild a snapshot from per-entry chunks previously produced by
    /// [`WeightSnapshot::entry_chunks`], in the same entry order. Each
    /// entry's values stay a window of its chunk until
    /// [`apply`](Self::apply) needs them.
    pub fn from_entry_chunks(chunks: Vec<(String, Bytes)>, scope: SnapshotScope) -> Result<Self> {
        let mut entries = Vec::with_capacity(chunks.len());
        for (name, bytes) in chunks {
            let values = take_values(
                &bytes,
                &mut &bytes[..],
                "snapshot chunk truncated (value len)",
                "snapshot chunk truncated (values)",
            )?;
            entries.push((name, values));
        }
        Ok(WeightSnapshot { entries, scope })
    }

    /// Decode a snapshot previously produced by [`WeightSnapshot::encode`].
    ///
    /// The framing is checked in full — a truncated or malformed input fails
    /// here, with the error of the first field it cuts short — but no value
    /// is converted: each entry keeps its values as a window of `bytes`
    /// (flat; [`WeightSnapshot::apply`] matches entries by name and the
    /// receiving network re-validates shapes by element count, so the flat
    /// shape is sufficient for transport).
    pub fn decode(bytes: &Bytes, scope: SnapshotScope) -> Result<Self> {
        let mut buf = &bytes[..];
        let count = take_u32_le(&mut buf, "snapshot truncated (header)")?;
        // The count is the peer's word: reserve no more entries than the
        // bytes that are actually here could hold (two length words each).
        let mut entries = Vec::with_capacity(count.min(buf.len() / 8));
        for _ in 0..count {
            let name_len = take_u32_le(&mut buf, "snapshot truncated (name len)")?;
            let name = take_bytes(&mut buf, name_len, "snapshot truncated (name)")?;
            let name = std::str::from_utf8(name)
                .map_err(|_| TensorError::InvalidArgument("snapshot name not UTF-8".into()))?;
            let values = take_values(
                bytes,
                &mut buf,
                "snapshot truncated (value len)",
                "snapshot truncated (values)",
            )?;
            entries.push((name.to_string(), values));
        }
        Ok(WeightSnapshot { entries, scope })
    }
}

/// Scalars [`put_f32s_le`] converts per block: the block buffer stays in
/// registers / L1 and each block leaves as one `memcpy`.
const CODEC_BLOCK: usize = 64;

/// Append `values` to `out` as little-endian `f32`s — the bulk half of every
/// encoder in this module. Bit-exact (`to_le_bytes` keeps NaN payloads and
/// the sign of zero); on a little-endian host the per-block conversion is a
/// plain copy.
fn put_f32s_le(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(4 * values.len());
    let mut raw = [0u8; 4 * CODEC_BLOCK];
    for block in values.chunks(CODEC_BLOCK) {
        for (dst, value) in raw.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&raw[..4 * block.len()]);
    }
}

/// The little-endian `f32`s in `raw` (whose length is a multiple of four) —
/// the one decoder in this module; an exact-size iterator, so the `Vec` is
/// allocated once and filled by a vectorised loop.
fn get_f32s_le(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// Append a length word. Lengths here are entry / name / value counts of a
/// student network, far below `u32::MAX`.
fn put_u32_le(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Take `n` bytes off the front of `buf`, or fail with `what`.
fn take_bytes<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(TensorError::InvalidArgument(what.into()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Take a little-endian `u32` length word off the front of `buf`.
fn take_u32_le(buf: &mut &[u8], what: &str) -> Result<usize> {
    let raw = take_bytes(buf, 4, what)?;
    Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize)
}

/// Take one entry's values — `u32 value-count` plus that many little-endian
/// `f32`s — off the front of `buf`, a cursor into `whole`, as a window of
/// `whole`; fail with `no_len` / `no_values` when the count or the run is
/// cut short.
fn take_values(whole: &Bytes, buf: &mut &[u8], no_len: &str, no_values: &str) -> Result<Values> {
    let numel = take_u32_le(buf, no_len)?;
    let raw = take_bytes(buf, numel.saturating_mul(4), no_values)?;
    Ok(Values::Received(whole.slice_ref(raw)))
}

/// Values [`same_bits`] and [`same_le_bits`] fold per block.
const COMPARE_BLOCK: usize = 64;

/// Whether two equally long value runs are the same bit pattern throughout
/// (`to_bits`: a NaN equals itself, `0.0` differs from `-0.0`). Differences
/// are folded a block at a time, branch-free within the block, so the equal
/// case — the one that scans everything — runs at memory speed, and a
/// differing tensor is still told apart within its first block.
fn same_bits(new: &[f32], held: &[f32]) -> bool {
    new.chunks(COMPARE_BLOCK)
        .zip(held.chunks(COMPARE_BLOCK))
        .all(|(new, held)| {
            new.iter()
                .zip(held)
                .fold(0u32, |diff, (a, b)| diff | (a.to_bits() ^ b.to_bits()))
                == 0
        })
}

/// [`same_bits`] with the new run still in its little-endian bytes (four
/// per value of `held`): the compare that lets an unchanged received entry
/// go undecoded.
fn same_le_bits(new: &[u8], held: &[f32]) -> bool {
    new.chunks(4 * COMPARE_BLOCK)
        .zip(held.chunks(COMPARE_BLOCK))
        .all(|(new, held)| {
            new.chunks_exact(4).zip(held).fold(0u32, |diff, (a, b)| {
                diff | (u32::from_le_bytes([a[0], a[1], a[2], a[3]]) ^ b.to_bits())
            }) == 0
        })
}

/// The cross-process wire encoding of a snapshot: a scope byte (0 = full,
/// 1 = trainable-only) followed by the u32-length-prefixed bytes of
/// [`WeightSnapshot::encode`] — the exact payload the in-process path
/// already ships inside `StudentUpdate`, made self-describing so a peer
/// process can decode it without out-of-band scope agreement. The body is
/// copied out of the borrowed input once, and the entries are windows of
/// that copy.
impl st_net::Wire for WeightSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self.scope {
            SnapshotScope::Full => 0,
            SnapshotScope::TrainableOnly => 1,
        });
        put_u32_le(out, self.encoded_size());
        self.encode_body(out);
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, st_net::WireError> {
        let scope = match u8::decode(input)? {
            0 => SnapshotScope::Full,
            1 => SnapshotScope::TrainableOnly,
            tag => {
                return Err(st_net::WireError::UnknownVariant {
                    type_name: "SnapshotScope",
                    tag,
                })
            }
        };
        let len = u32::decode(input)? as usize;
        if input.len() < len {
            return Err(st_net::WireError::Truncated {
                needed: len,
                available: input.len(),
            });
        }
        let (body, rest) = input.split_at(len);
        *input = rest;
        WeightSnapshot::decode(&Bytes::copy_from_slice(body), scope).map_err(|_| {
            st_net::WireError::InvalidValue {
                what: "malformed weight-snapshot body",
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + 4 + self.encoded_size()
    }
}

/// Byte sizes of the student payloads at a given scope — the quantities
/// behind Table 4 of the paper ("Data transmitted on each key frame").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayloadSizes {
    /// Encoded size of a full-weight snapshot in bytes.
    pub full_bytes: usize,
    /// Encoded size of a trainable-only snapshot in bytes.
    pub partial_bytes: usize,
    /// Total parameter count.
    pub total_params: usize,
    /// Trainable parameter count.
    pub trainable_params: usize,
}

impl PayloadSizes {
    /// Measure the payload sizes of a student under its current freeze point.
    pub fn of(net: &mut StudentNet) -> Self {
        let full = WeightSnapshot::capture(net, SnapshotScope::Full);
        let partial = WeightSnapshot::capture(net, SnapshotScope::TrainableOnly);
        PayloadSizes {
            full_bytes: full.encoded_size(),
            partial_bytes: partial.encoded_size(),
            total_params: net.param_count(),
            trainable_params: net.trainable_param_count(),
        }
    }

    /// Fraction of parameters that are trainable (paper: 21.4 %).
    pub fn trainable_fraction(&self) -> f64 {
        if self.total_params == 0 {
            0.0
        } else {
            self.trainable_params as f64 / self.total_params as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::student::{FreezePoint, StudentConfig, StudentNet};
    use st_tensor::random;

    fn net() -> StudentNet {
        StudentNet::new(StudentConfig::tiny()).unwrap()
    }

    /// Element access for the tests below, whichever way an entry holds
    /// its values.
    impl Values {
        fn data(&self) -> Vec<f32> {
            self.tensor().data().to_vec()
        }

        fn data_mut(&mut self) -> &mut [f32] {
            if let Values::Received(_) = self {
                *self = Values::Held(self.tensor());
            }
            let Values::Held(tensor) = self else {
                unreachable!("made a tensor above")
            };
            tensor.data_mut()
        }
    }

    #[test]
    fn snapshot_wire_round_trip_is_bit_identical() {
        use st_net::Wire;
        let mut a = net();
        a.freeze = FreezePoint::paper_partial();
        for scope in [SnapshotScope::Full, SnapshotScope::TrainableOnly] {
            let snap = WeightSnapshot::capture(&mut a, scope);
            let encoded = Wire::encode(&snap);
            assert_eq!(encoded.len(), snap.encoded_len());
            let mut cursor = &encoded[..];
            let back = <WeightSnapshot as Wire>::decode(&mut cursor).unwrap();
            assert!(cursor.is_empty());
            assert_eq!(back.scope(), scope);
            assert_eq!(back.entry_count(), snap.entry_count());
            // Bit-identical f32s, and none of them NaN: re-encoding the
            // decoded snapshot reproduces the original bytes exactly.
            assert_eq!(Wire::encode(&back), encoded);
            for (_, tensor) in &back.entries {
                assert!(tensor.data().iter().all(|v| !v.is_nan()));
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The three encodings of one fixed student, hashed at the commit
    /// before the bulk codec replaced the per-scalar loops (PR 22,
    /// c6762d7): the codec changed, the bytes may not.
    #[test]
    fn the_bulk_codec_writes_the_bytes_the_scalar_loops_wrote() {
        use st_net::Wire;
        let mut fixed = StudentNet::new(StudentConfig {
            seed: 0,
            ..StudentConfig::tiny()
        })
        .unwrap();
        let snap = WeightSnapshot::capture(&mut fixed, SnapshotScope::Full);

        let encoded = snap.encode();
        assert_eq!(encoded.len(), 88_340);
        assert_eq!(fnv1a(&encoded), 0xfda6_8627_eef1_508a);

        let mut chunks = Vec::new();
        for (name, bytes) in snap.entry_chunks() {
            chunks.extend_from_slice(name.as_bytes());
            chunks.extend_from_slice(&bytes);
        }
        assert_eq!(chunks.len(), 87_984);
        assert_eq!(fnv1a(&chunks), 0xdb85_856d_45f5_9e2a);

        let envelope = Wire::encode(&crate::delta::WeightPayload::Full(snap.clone()));
        assert_eq!(envelope.len(), 88_346);
        assert_eq!(fnv1a(&envelope), 0xe45c_2482_1310_bfd0);
        assert_eq!(envelope, crate::delta::WeightPayload::encode_full(&snap));
    }

    /// The per-scalar encoder the bulk pair replaced: one `put_f32_le` per
    /// value through the `bytes` cursor traits.
    fn reference_encode(snap: &WeightSnapshot) -> Bytes {
        use bytes::{BufMut, BytesMut};
        let mut buf = BytesMut::with_capacity(snap.encoded_size());
        buf.put_u32_le(snap.entries.len() as u32);
        for (name, tensor) in &snap.entries {
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
            buf.put_u32_le(tensor.numel() as u32);
            for v in tensor.data() {
                buf.put_f32_le(v);
            }
        }
        buf.freeze()
    }

    /// The per-scalar decoder the bulk pair replaced, check for check.
    fn reference_decode(bytes: &Bytes, scope: SnapshotScope) -> Result<WeightSnapshot> {
        use bytes::Buf;
        let truncated = |what: &str| Err(TensorError::InvalidArgument(what.into()));
        let mut buf = bytes.clone();
        if buf.remaining() < 4 {
            return truncated("snapshot truncated (header)");
        }
        let count = buf.get_u32_le() as usize;
        let mut entries = Vec::new();
        for _ in 0..count {
            if buf.remaining() < 4 {
                return truncated("snapshot truncated (name len)");
            }
            let name_len = buf.get_u32_le() as usize;
            if buf.remaining() < name_len {
                return truncated("snapshot truncated (name)");
            }
            let name = String::from_utf8(buf.copy_to_bytes(name_len).to_vec())
                .map_err(|_| TensorError::InvalidArgument("snapshot name not UTF-8".into()))?;
            if buf.remaining() < 4 {
                return truncated("snapshot truncated (value len)");
            }
            let numel = buf.get_u32_le() as usize;
            if buf.remaining() < 4 * numel {
                return truncated("snapshot truncated (values)");
            }
            let values = (0..numel).map(|_| buf.get_f32_le()).collect();
            let values = Tensor::from_vec(Shape::vector(numel), values)?;
            entries.push((name, Values::Held(values)));
        }
        Ok(WeightSnapshot { entries, scope })
    }

    /// Bit patterns `==` on `f32` cannot tell apart or cannot compare.
    const AWKWARD_BITS: [u32; 8] = [
        0x0000_0000, // 0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7fc0_0000, // quiet NaN
        0x7fa0_1234, // signalling NaN with a payload
        0xffff_ffff, // negative NaN, full payload
        0x7f80_0000, // infinity
    ];

    fn snapshot_of_bits(runs: &[&[u32]]) -> WeightSnapshot {
        let entries = runs
            .iter()
            .enumerate()
            .map(|(i, bits)| {
                let values: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
                let tensor = Tensor::from_vec(Shape::vector(values.len()), values).unwrap();
                (format!("entry{i}.weight"), Values::Held(tensor))
            })
            .collect();
        WeightSnapshot {
            entries,
            scope: SnapshotScope::Full,
        }
    }

    fn bits_of(snap: &WeightSnapshot) -> Vec<Vec<u32>> {
        let bits = |t: &Values| t.data().iter().map(|v| v.to_bits()).collect();
        snap.entries.iter().map(|(_, t)| bits(t)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Over arbitrary bit patterns — the awkward ones planted at a
        /// random offset — and every length 0..=67 (each tail of every
        /// block and vector width), the bulk pair writes and reads what one
        /// `put_f32_le` / `get_f32_le` per scalar does.
        #[test]
        fn the_bulk_pair_equals_the_per_scalar_reference(
            random in proptest::collection::vec(proptest::prelude::any::<u32>(), 67..68),
            plant_at in 0usize..60,
        ) {
            let mut bits = random;
            bits[plant_at..plant_at + AWKWARD_BITS.len()].copy_from_slice(&AWKWARD_BITS);
            for len in 0..=bits.len() {
                let snap = snapshot_of_bits(&[&bits[..len], &bits[bits.len() - len..]]);
                let encoded = snap.encode();
                proptest::prop_assert_eq!(&encoded, &reference_encode(&snap), "length {}", len);
                let bulk = WeightSnapshot::decode(&encoded, SnapshotScope::Full).unwrap();
                let scalar = reference_decode(&encoded, SnapshotScope::Full).unwrap();
                proptest::prop_assert_eq!(bits_of(&bulk), bits_of(&scalar), "length {}", len);
                proptest::prop_assert_eq!(bits_of(&bulk), bits_of(&snap), "length {}", len);

                let chunks: Vec<(String, Bytes)> = snap
                    .entry_chunks()
                    .into_iter()
                    .map(|(name, chunk)| (name.to_string(), chunk))
                    .collect();
                for ((_, chunk), (_, tensor)) in chunks.iter().zip(&snap.entries) {
                    let mut scalar_chunk = (tensor.numel() as u32).to_le_bytes().to_vec();
                    for v in tensor.data() {
                        scalar_chunk.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                    proptest::prop_assert_eq!(&chunk[..], &scalar_chunk[..]);
                }
                let rebuilt = WeightSnapshot::from_entry_chunks(chunks, SnapshotScope::Full).unwrap();
                proptest::prop_assert_eq!(bits_of(&rebuilt), bits_of(&snap), "length {}", len);
            }
        }
    }

    /// Every parameter and running-stat tensor of `net` in visiting order,
    /// as handles sharing the network's storage.
    fn tensors_of(net: &mut StudentNet) -> Vec<(String, Tensor)> {
        let mut held = Vec::new();
        net.visit_params(&mut |p: &mut Param, _| held.push((p.name.clone(), p.value.clone())));
        net.visit_buffers(&mut |name: &str, value: &mut Tensor, _| {
            held.push((name.to_string(), value.clone()))
        });
        held
    }

    /// Write `AWKWARD_BITS[pattern]` at `(tensor, offset)` of `net` for each
    /// `(tensor, offset, pattern)`, the first two taken modulo the tensor
    /// count and the chosen tensor's length.
    fn plant(net: &mut StudentNet, plants: &[(usize, usize, usize)]) {
        let count = tensors_of(net).len();
        let mut index = 0;
        let mut write = |value: &mut Tensor| {
            for &(tensor, offset, pattern) in plants {
                if tensor % count == index {
                    let offset = offset % value.numel();
                    value.data_mut()[offset] = f32::from_bits(AWKWARD_BITS[pattern]);
                }
            }
            index += 1;
        };
        net.visit_params(&mut |p: &mut Param, _| write(&mut p.value));
        net.visit_buffers(&mut |_: &str, value: &mut Tensor, _| write(value));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A student holding awkward bit patterns (NaN payloads, both
        /// zeros, subnormals, infinity) receives an update that writes more
        /// of them — over some entries, so others stay bit-equal, and where
        /// a pattern lands on its own bits, NaN included, that entry stays
        /// unchanged too. The update comes in either scope, with its entries
        /// in capture order, reversed, with two swapped, or with one left
        /// out. Decoding its bytes and applying them leaves the student
        /// where applying the captured update does: every carried entry at
        /// the sender's bits, every other tensor as it was. An unchanged
        /// entry keeps the student's storage; a changed one gets a buffer
        /// shared with nothing.
        #[test]
        fn decode_then_apply_equals_capture_then_apply(
            planted in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>(), 0..AWKWARD_BITS.len()),
                0..24,
            ),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>(), 0..AWKWARD_BITS.len()),
                0..12,
            ),
            rewrites in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..4),
            partial in proptest::prelude::any::<bool>(),
            order in 0usize..4,
            pick in proptest::prelude::any::<usize>(),
        ) {
            let mut student = net();
            if partial {
                student.freeze = FreezePoint::paper_partial();
            }
            plant(&mut student, &planted);
            // Some edits put a planted pattern back where it already is.
            let mut edits = edits;
            if !planted.is_empty() {
                edits.extend(rewrites.iter().map(|at| planted[at % planted.len()]));
            }
            let mut source = student.clone();
            plant(&mut source, &edits);
            let scope = if partial {
                SnapshotScope::TrainableOnly
            } else {
                SnapshotScope::Full
            };
            let mut update = WeightSnapshot::capture(&mut source, scope);
            let n = update.entries.len();
            match order {
                0 => {}
                1 => update.entries.reverse(),
                2 => update.entries.swap(pick % n, pick / n % n),
                _ => drop(update.entries.remove(pick % n)),
            }
            let decoded = WeightSnapshot::decode(&update.encode(), scope).unwrap();

            let (mut by_capture, mut by_decode) = (student.clone(), student.clone());
            let applied = update.apply(&mut by_capture).unwrap();
            proptest::prop_assert_eq!(decoded.apply(&mut by_decode).unwrap(), applied);
            proptest::prop_assert_eq!(applied, update.entry_count());
            proptest::prop_assert_eq!(
                WeightSnapshot::capture(&mut by_decode, SnapshotScope::Full).encode(),
                WeightSnapshot::capture(&mut by_capture, SnapshotScope::Full).encode()
            );

            let carried: Vec<&str> = update.entries.iter().map(|(name, _)| name.as_str()).collect();
            let sources = tensors_of(&mut source);
            let held = tensors_of(&mut student);
            let now = tensors_of(&mut by_decode);
            for (((name, now), (_, before)), (_, sent)) in now.iter().zip(&held).zip(&sources) {
                let expected = if carried.contains(&name.as_str()) { sent } else { before };
                proptest::prop_assert!(same_bits(now.data(), expected.data()), "{} is wrong", name);
                if same_bits(now.data(), before.data()) {
                    proptest::prop_assert!(now.shares_storage(before), "{} was replaced", name);
                } else {
                    proptest::prop_assert!(
                        held.iter().chain(&sources).all(|(_, t)| !now.shares_storage(t)),
                        "{} shares its new buffer", name
                    );
                }
            }
        }
    }

    #[test]
    fn every_truncation_fails_with_the_reference_error_at_the_same_byte() {
        let snap = snapshot_of_bits(&[&AWKWARD_BITS, &[], &AWKWARD_BITS[..3]]);
        let encoded = snap.encode();
        for cut in 0..encoded.len() {
            let prefix = encoded.slice(0..cut);
            let bulk = WeightSnapshot::decode(&prefix, SnapshotScope::Full).unwrap_err();
            let scalar = reference_decode(&prefix, SnapshotScope::Full).unwrap_err();
            assert_eq!(bulk, scalar, "cut at {cut}");
        }

        // A name that is not UTF-8 (first byte of the first entry's name).
        let mut bad_name = encoded.to_vec();
        bad_name[8] = 0xFF;
        let bad_name = Bytes::from(bad_name);
        let bulk = WeightSnapshot::decode(&bad_name, SnapshotScope::Full).unwrap_err();
        assert_eq!(
            bulk,
            TensorError::InvalidArgument("snapshot name not UTF-8".into())
        );
        assert_eq!(
            bulk,
            reference_decode(&bad_name, SnapshotScope::Full).unwrap_err()
        );

        // Chunks: the count word, then the values.
        let (name, chunk) = snap.entry_chunks().remove(0);
        for (cut, what) in [
            (3, "snapshot chunk truncated (value len)"),
            (chunk.len() - 1, "snapshot chunk truncated (values)"),
        ] {
            let cut_chunk = vec![(name.to_string(), chunk.slice(0..cut))];
            assert_eq!(
                WeightSnapshot::from_entry_chunks(cut_chunk, SnapshotScope::Full).unwrap_err(),
                TensorError::InvalidArgument(what.into())
            );
        }
    }

    #[test]
    fn corrupt_entry_count_cannot_overallocate() {
        // An entry count of four billion over a 6-byte body must fail as a
        // truncation, not abort reserving room for the entries.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2]);
        assert_eq!(
            WeightSnapshot::decode(&Bytes::from(bytes.clone()), SnapshotScope::Full).unwrap_err(),
            TensorError::InvalidArgument("snapshot truncated (name len)".into())
        );
        // The same body inside the wire envelope: typed there too.
        let mut framed = vec![0u8];
        framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        framed.extend_from_slice(&bytes);
        assert_eq!(
            <WeightSnapshot as st_net::Wire>::decode(&mut &framed[..]).unwrap_err(),
            st_net::WireError::InvalidValue {
                what: "malformed weight-snapshot body"
            }
        );
        // A value count that lies is bounded by the bytes that are there.
        let mut chunk = u32::MAX.to_le_bytes().to_vec();
        chunk.extend_from_slice(&[0; 8]);
        let lying = vec![("w".to_string(), Bytes::from(chunk))];
        assert_eq!(
            WeightSnapshot::from_entry_chunks(lying, SnapshotScope::Full).unwrap_err(),
            TensorError::InvalidArgument("snapshot chunk truncated (values)".into())
        );
    }

    #[test]
    fn snapshot_wire_rejects_bad_scope_and_truncation() {
        use st_net::{Wire, WireError};
        let mut a = net();
        let snap = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let encoded = Wire::encode(&snap);

        let mut bad_scope = encoded.clone();
        bad_scope[0] = 7;
        let err = <WeightSnapshot as Wire>::decode(&mut &bad_scope[..]).unwrap_err();
        assert!(matches!(err, WireError::UnknownVariant { tag: 7, .. }));

        let cut = &encoded[..encoded.len() - 3];
        let err = <WeightSnapshot as Wire>::decode(&mut &cut[..]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn full_snapshot_round_trips_through_apply() {
        let mut a = net();
        let mut b = StudentNet::new(StudentConfig {
            seed: 99,
            ..StudentConfig::tiny()
        })
        .unwrap();
        let snap_a = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let applied = snap_a.apply(&mut b).unwrap();
        assert_eq!(applied, snap_a.entry_count());
        // After applying, b's full snapshot equals a's.
        let snap_b = WeightSnapshot::capture(&mut b, SnapshotScope::Full);
        assert!(snap_a.distance(&snap_b).unwrap() < 1e-9);
    }

    #[test]
    fn applying_equal_values_keeps_copy_on_write_sharing_per_entry() {
        fn shared_with(net: &mut StudentNet, template: &mut StudentNet) -> Vec<(String, bool)> {
            let mut held: Vec<(String, Tensor)> = Vec::new();
            template
                .visit_params(&mut |p: &mut Param, _| held.push((p.name.clone(), p.value.clone())));
            template.visit_buffers(&mut |name: &str, value: &mut Tensor, _| {
                held.push((name.to_string(), value.clone()))
            });
            let mut shared = Vec::new();
            let mut check = |name: &str, value: &Tensor| {
                let (_, original) = held.iter().find(|(n, _)| n == name).unwrap();
                shared.push((name.to_string(), value.shares_storage(original)));
            };
            net.visit_params(&mut |p: &mut Param, _| check(&p.name, &p.value));
            net.visit_buffers(&mut |name: &str, value: &mut Tensor, _| check(name, value));
            shared
        }

        let mut template = net();
        let checkpoint = WeightSnapshot::capture(&mut template, SnapshotScope::Full);
        // The wire hands the client a decoded copy: equal values, storage of
        // its own.
        let decoded = WeightSnapshot::decode(&checkpoint.encode(), SnapshotScope::Full).unwrap();
        let mut client = template.clone();
        assert_eq!(decoded.apply(&mut client).unwrap(), decoded.entry_count());
        let shared = shared_with(&mut client, &mut template);
        assert_eq!(shared.len(), decoded.entry_count());
        assert!(
            shared.iter().all(|(_, is_shared)| *is_shared),
            "an equal checkpoint made tensors private: {shared:?}"
        );

        // One differing bit — the sign of a zero, which `==` cannot see —
        // breaks sharing for that entry and no other.
        let mut flipped = decoded.clone();
        let (name, tensor) = flipped
            .entries
            .iter_mut()
            .find(|(_, t)| t.data().contains(&0.0))
            .expect("the tiny student's biases start at zero");
        let name = name.clone();
        let zero = tensor.data().iter().position(|v| *v == 0.0).unwrap();
        tensor.data_mut()[zero] = -0.0;
        assert_eq!(flipped.apply(&mut client).unwrap(), flipped.entry_count());
        for (entry, is_shared) in shared_with(&mut client, &mut template) {
            assert_eq!(is_shared, entry != name, "entry {entry}");
        }
        let mut sign = None;
        let mut read = |n: &str, value: &Tensor| {
            if n == name {
                sign = Some(value.data()[zero].to_bits());
            }
        };
        client.visit_params(&mut |p: &mut Param, _| read(&p.name, &p.value));
        client.visit_buffers(&mut |n: &str, value: &mut Tensor, _| read(n, value));
        assert_eq!(sign, Some((-0.0f32).to_bits()), "the -0.0 was not applied");
    }

    #[test]
    fn partial_snapshot_is_smaller_and_leaves_front_untouched() {
        let mut a = net();
        a.freeze = FreezePoint::paper_partial();
        let sizes = PayloadSizes::of(&mut a);
        assert!(sizes.partial_bytes < sizes.full_bytes);
        assert!(sizes.trainable_fraction() < 1.0);
        assert!(sizes.trainable_fraction() > 0.0);

        // Apply a partial snapshot from a differently-initialised net: the
        // frozen front of the target must not change.
        let mut donor = StudentNet::new(StudentConfig {
            seed: 123,
            ..StudentConfig::tiny()
        })
        .unwrap();
        donor.freeze = FreezePoint::paper_partial();
        let partial = WeightSnapshot::capture(&mut donor, SnapshotScope::TrainableOnly);

        let mut target = net();
        target.freeze = FreezePoint::paper_partial();
        let front_before = WeightSnapshot::capture(&mut target, SnapshotScope::Full);
        partial.apply(&mut target).unwrap();
        let after_full = WeightSnapshot::capture(&mut target, SnapshotScope::Full);
        // Something changed overall...
        assert!(front_before.distance(&after_full).unwrap() > 0.0);
        // ...but every frozen parameter is identical.
        let mut changed_frozen = vec![];
        let mut reference = std::collections::HashMap::new();
        for (name, val) in &front_before.entries {
            reference.insert(name.clone(), val.clone());
        }
        let mut v = |p: &mut Param, trainable: bool| {
            if !trainable && reference[&p.name] != Values::Held(p.value.clone()) {
                changed_frozen.push(p.name.clone());
            }
        };
        target.visit_params(&mut v);
        assert!(
            changed_frozen.is_empty(),
            "frozen params changed: {changed_frozen:?}"
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut a = net();
        a.freeze = FreezePoint::paper_partial();
        let snap = WeightSnapshot::capture(&mut a, SnapshotScope::TrainableOnly);
        let encoded = snap.encode();
        assert_eq!(encoded.len(), snap.encoded_size());
        let decoded = WeightSnapshot::decode(&encoded, SnapshotScope::TrainableOnly).unwrap();
        assert_eq!(decoded.entry_count(), snap.entry_count());
        assert_eq!(decoded.scalar_count(), snap.scalar_count());
        // Applying the decoded snapshot reproduces the original values.
        let mut b = StudentNet::new(StudentConfig {
            seed: 7,
            ..StudentConfig::tiny()
        })
        .unwrap();
        b.freeze = FreezePoint::paper_partial();
        decoded.apply(&mut b).unwrap();
        let snap_b = WeightSnapshot::capture(&mut b, SnapshotScope::TrainableOnly);
        assert!(snap.distance(&snap_b).unwrap() < 1e-9);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let mut a = net();
        let snap = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let encoded = snap.encode();
        let truncated = encoded.slice(0..encoded.len() / 2);
        assert!(WeightSnapshot::decode(&truncated, SnapshotScope::Full).is_err());
        let empty = Bytes::new();
        assert!(WeightSnapshot::decode(&empty, SnapshotScope::Full).is_err());
    }

    #[test]
    fn snapshot_restores_batchnorm_running_stats() {
        use st_tensor::random;
        // Capture, drift the running stats with training forwards, restore:
        // inference behavior must match the captured state again.
        let mut a = net();
        a.freeze = FreezePoint::paper_partial();
        // The classifier head is zero-initialised (all logits identically 0),
        // which would mask any drift; nudge it off zero first.
        let mut nudge = |p: &mut Param, _t: bool| {
            if p.name == "out3.weight" {
                for x in p.value.data_mut() {
                    *x = 0.05;
                }
            }
        };
        a.visit_params(&mut nudge);
        let snap = WeightSnapshot::capture(&mut a, SnapshotScope::TrainableOnly);
        assert!(snap.entry_count() > 0, "snapshot should contain entries");
        let x = random::uniform(st_tensor::Shape::nchw(1, 3, 16, 16), 0.0, 1.0, 31);
        let before = a.forward_inference(&x).unwrap();
        for _ in 0..5 {
            let y = random::uniform(st_tensor::Shape::nchw(1, 3, 16, 16), 0.3, 0.9, 32);
            a.forward_train(&y).unwrap();
        }
        let drifted = a.forward_inference(&x).unwrap();
        assert!(
            before.sub(&drifted).unwrap().norm() > 0.0,
            "training forwards should drift the trainable running stats"
        );
        snap.apply(&mut a).unwrap();
        let restored = a.forward_inference(&x).unwrap();
        assert!(
            before.sub(&restored).unwrap().norm() < 1e-6,
            "restoring the snapshot must restore inference behavior"
        );
    }

    #[test]
    fn distance_detects_changes() {
        let mut a = net();
        let snap1 = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        // Perturb one parameter.
        let noise = random::uniform(Shape::vector(1), 0.5, 1.0, 50).data()[0];
        let mut v = |p: &mut Param, _| {
            if p.name == "out3.bias" {
                p.value.data_mut()[0] += noise;
            }
        };
        a.visit_params(&mut v);
        let snap2 = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let d = snap1.distance(&snap2).unwrap();
        assert!((d - noise).abs() < 1e-5);
    }

    #[test]
    fn payload_sizes_track_freeze_point() {
        let mut a = net();
        a.freeze = FreezePoint::None;
        let all = PayloadSizes::of(&mut a);
        assert_eq!(all.trainable_params, all.total_params);
        a.freeze = FreezePoint::paper_partial();
        let partial = PayloadSizes::of(&mut a);
        assert!(partial.trainable_params < partial.total_params);
        assert_eq!(partial.total_params, all.total_params);
    }
}
