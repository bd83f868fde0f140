//! Delta-encoded weight updates and the checkpoint digests that anchor them.
//!
//! Partial distillation only trains the student's back-end, so most of a
//! stream's weight state is identical from update to update — and on
//! plateau/skip frames *all* of it is. The wire protocol exploits that:
//! instead of re-shipping a full [`WeightSnapshot`], the server sends a
//! [`WeightDelta`] naming the client's last-acked checkpoint (by combined
//! content hash) plus only the entries whose chunk hash changed. The client
//! applies the delta against its [`CheckpointDigest`] and rejects a delta
//! whose base it does not hold with a typed [`st_net::WireError`]
//! ([`st_net::WireError::UnknownBaseCheckpoint`] /
//! [`st_net::WireError::StaleBaseCheckpoint`]) — the sender then falls back
//! to a full snapshot, which remains always-decodable.
//!
//! Both encodings travel inside one self-describing envelope,
//! [`WeightPayload`], negotiated at registration: a client that never
//! announces delta support keeps receiving bare snapshots exactly as before.
//!
//! Digest consistency: the server patches its per-stream digest with every
//! update it sends; the client patches with every delta/full payload it
//! applies. Entries omitted from a delta have, by construction, unchanged
//! chunk hashes — so patching with "the delta's entries" (client) and
//! patching with "the whole update" (server) produce the same digest, and
//! the two sides stay bit-synchronized without ever exchanging digests.
//!
//! Chunk-encoding and hashing an update is the expensive part of both
//! halves of the server's step (FNV over every byte), so the serving path
//! does them once: [`WeightDelta::compute_and_patch`] builds the delta
//! against the digest and advances the digest from the same chunks and the
//! same hashes. [`WeightDelta::compute`] followed by
//! [`CheckpointDigest::patch`] is the two-pass form of the same result.

use crate::snapshot::{SnapshotScope, WeightSnapshot};
use crate::store::{chunk_hash, combine_hashes};
use crate::Result;
use bytes::Bytes;
use st_net::{Wire, WireError};

/// Per-entry chunk hashes of one peer's *complete* weight state, in capture
/// order. [`CheckpointDigest::combined`] is the checkpoint identity a
/// [`WeightDelta`] names as its base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointDigest {
    entries: Vec<(String, u64)>,
}

impl CheckpointDigest {
    /// Digest a snapshot (hash every entry chunk).
    pub fn of(snapshot: &WeightSnapshot) -> Self {
        CheckpointDigest {
            entries: entry_hashes(snapshot),
        }
    }

    /// The combined checkpoint identity (order-sensitive fold of the entry
    /// hashes).
    pub fn combined(&self) -> u64 {
        combine_hashes(self.entries.iter().map(|(_, h)| h))
    }

    /// Number of digested entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The digested hash of one entry, if present.
    pub fn entry_hash(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| *h)
    }

    /// Advance the digest by an update snapshot: every entry present in
    /// `update` gets its hash recomputed; entries the update omits keep
    /// theirs. This is the server-side patch after sending an update.
    pub fn patch(&mut self, update: &WeightSnapshot) {
        self.patch_hashes(entry_hashes(update));
    }

    /// Advance the digest by already-encoded chunks (the client-side patch
    /// after applying a delta or full payload).
    pub fn patch_chunks(&mut self, chunks: &[(String, Bytes)]) {
        let patches: Vec<(String, u64)> = chunks
            .iter()
            .map(|(name, bytes)| (name.clone(), chunk_hash(bytes)))
            .collect();
        self.patch_hashes(patches);
    }

    fn patch_hashes(&mut self, patches: Vec<(String, u64)>) {
        for (name, hash) in patches {
            if let Some(slot) = self.entries.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = hash;
            } else {
                self.entries.push((name, hash));
            }
        }
    }
}

/// `(entry name, chunk hash)` of every entry of `snapshot`, in entry order.
fn entry_hashes(snapshot: &WeightSnapshot) -> Vec<(String, u64)> {
    snapshot
        .entry_chunks()
        .into_iter()
        .map(|(name, bytes)| (name.to_string(), chunk_hash(&bytes)))
        .collect()
}

/// A sparse weight update: the entries of an update snapshot whose content
/// changed relative to a base checkpoint, plus that base's identity hash.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightDelta {
    base: u64,
    scope: SnapshotScope,
    /// `(entry name, chunk bytes)` for changed entries only, in update
    /// order. Chunk bytes use the [`WeightSnapshot::entry_chunks`] framing
    /// (`u32 numel` + little-endian `f32`s).
    entries: Vec<(String, Bytes)>,
}

impl WeightDelta {
    /// Compute the delta that carries `update` to a peer whose state matches
    /// `base`: only entries whose chunk hash differs from the digested one.
    /// An entry the digest has never seen is always included.
    pub fn compute(update: &WeightSnapshot, base: &CheckpointDigest) -> Self {
        Self::against(update, base, |_, _| {})
    }

    /// [`WeightDelta::compute`] against `digest`, then
    /// [`CheckpointDigest::patch`] of `digest` by the same `update` — the
    /// server's step for one delta update — with every entry chunk-encoded
    /// and hashed once instead of once for each half. The delta (its base,
    /// its entries, their bytes) and the advanced digest are exactly the
    /// two-pass ones.
    pub fn compute_and_patch(update: &WeightSnapshot, digest: &mut CheckpointDigest) -> Self {
        let mut hashes = Vec::with_capacity(update.entry_count());
        let delta = Self::against(update, digest, |name, hash| {
            hashes.push((name.to_string(), hash));
        });
        digest.patch_hashes(hashes);
        delta
    }

    /// The delta that carries `update` to a peer at `base`; `hashed` sees
    /// the chunk hash of every entry of `update`, carried or not.
    fn against(
        update: &WeightSnapshot,
        base: &CheckpointDigest,
        mut hashed: impl FnMut(&str, u64),
    ) -> Self {
        let mut entries = Vec::new();
        for (name, bytes) in update.entry_chunks() {
            let hash = chunk_hash(&bytes);
            hashed(name, hash);
            if base.entry_hash(name) != Some(hash) {
                entries.push((name.to_string(), bytes));
            }
        }
        WeightDelta {
            base: base.combined(),
            scope: update.scope(),
            entries,
        }
    }

    /// The combined hash of the checkpoint this delta applies on top of.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Scope of the update snapshot this delta was computed from.
    pub fn scope(&self) -> SnapshotScope {
        self.scope
    }

    /// Number of changed entries carried.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The changed entries' chunks.
    pub fn chunks(&self) -> &[(String, Bytes)] {
        &self.entries
    }

    /// Verify this delta is applicable to a peer holding `current`.
    ///
    /// `previous` is the combined hash of the peer's *prior* checkpoint (if
    /// it has applied at least one update): a delta naming it means an
    /// update raced past — [`WireError::StaleBaseCheckpoint`] — while any
    /// other mismatch is [`WireError::UnknownBaseCheckpoint`].
    pub fn check_base(
        &self,
        current: &CheckpointDigest,
        previous: Option<u64>,
    ) -> std::result::Result<(), WireError> {
        let held = current.combined();
        if self.base == held {
            Ok(())
        } else if previous == Some(self.base) {
            Err(WireError::StaleBaseCheckpoint { base: self.base })
        } else {
            Err(WireError::UnknownBaseCheckpoint { base: self.base })
        }
    }

    /// Materialize the carried entries as a sparse [`WeightSnapshot`] (apply
    /// it like any partial update) and return the chunks for digest
    /// patching.
    pub fn into_parts(self) -> Result<(WeightSnapshot, Vec<(String, Bytes)>)> {
        let chunks = self.entries;
        let snapshot = WeightSnapshot::from_entry_chunks(chunks.clone(), self.scope)?;
        Ok((snapshot, chunks))
    }
}

fn scope_tag(scope: SnapshotScope) -> u8 {
    match scope {
        SnapshotScope::Full => 0,
        SnapshotScope::TrainableOnly => 1,
    }
}

fn scope_from_tag(tag: u8) -> std::result::Result<SnapshotScope, WireError> {
    match tag {
        0 => Ok(SnapshotScope::Full),
        1 => Ok(SnapshotScope::TrainableOnly),
        tag => Err(WireError::UnknownVariant {
            type_name: "SnapshotScope",
            tag,
        }),
    }
}

/// Wire layout: `u64 base`, scope byte, `u32 entry count`, then per entry a
/// length-prefixed UTF-8 name and the chunk bytes verbatim (`u32 numel` +
/// `4 * numel` bytes of `f32`). A truncated chunk list fails with
/// [`WireError::Truncated`] at the exact missing byte.
impl Wire for WeightDelta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.base.encode_into(out);
        out.push(scope_tag(self.scope));
        (self.entries.len() as u32).encode_into(out);
        for (name, chunk) in &self.entries {
            name.encode_into(out);
            out.extend_from_slice(chunk);
        }
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, WireError> {
        let base = u64::decode(input)?;
        let scope = scope_from_tag(u8::decode(input)?)?;
        let count = u32::decode(input)? as usize;
        let mut entries = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let name = String::decode(input)?;
            let numel = u32::decode(input)? as usize;
            let body = numel.checked_mul(4).ok_or(WireError::InvalidValue {
                what: "weight-delta chunk length overflows",
            })?;
            if input.len() < body {
                return Err(WireError::Truncated {
                    needed: body,
                    available: input.len(),
                });
            }
            let mut chunk = Vec::with_capacity(4 + body);
            chunk.extend_from_slice(&(numel as u32).to_le_bytes());
            chunk.extend_from_slice(&input[..body]);
            *input = &input[body..];
            entries.push((name, Bytes::from(chunk)));
        }
        Ok(WeightDelta {
            base,
            scope,
            entries,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 1
            + 4
            + self
                .entries
                .iter()
                .map(|(name, chunk)| 4 + name.len() + chunk.len())
                .sum::<usize>()
    }
}

/// The self-describing update envelope a delta-negotiated stream receives:
/// either a full snapshot (always applicable — the fallback and re-sync
/// path) or a sparse delta against the client's last-acked checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightPayload {
    /// A complete snapshot at its scope; applies unconditionally.
    Full(WeightSnapshot),
    /// Changed entries against a named base checkpoint.
    Delta(WeightDelta),
}

impl WeightPayload {
    /// Whether this payload is the sparse encoding.
    pub fn is_delta(&self) -> bool {
        matches!(self, WeightPayload::Delta(_))
    }

    /// Encode a `Full` envelope from a borrowed snapshot, without cloning
    /// the snapshot into the enum first: the values are written once,
    /// straight into the returned buffer.
    pub fn encode_full(snapshot: &WeightSnapshot) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + snapshot.encoded_len());
        out.push(0);
        snapshot.encode_into(&mut out);
        out
    }
}

impl Wire for WeightPayload {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WeightPayload::Full(snapshot) => {
                out.push(0);
                snapshot.encode_into(out);
            }
            WeightPayload::Delta(delta) => {
                out.push(1);
                delta.encode_into(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(WeightPayload::Full(<WeightSnapshot as Wire>::decode(
                input,
            )?)),
            1 => Ok(WeightPayload::Delta(WeightDelta::decode(input)?)),
            tag => Err(WireError::UnknownVariant {
                type_name: "WeightPayload",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            WeightPayload::Full(snapshot) => snapshot.encoded_len(),
            WeightPayload::Delta(delta) => delta.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::student::{FreezePoint, StudentConfig, StudentNet};

    fn net(seed: u64) -> StudentNet {
        let mut n = StudentNet::new(StudentConfig {
            seed,
            ..StudentConfig::tiny()
        })
        .unwrap();
        n.freeze = FreezePoint::paper_partial();
        n
    }

    fn trained_step(n: &mut StudentNet, seed: u64) {
        let x = st_tensor::random::uniform(st_tensor::Shape::nchw(1, 3, 16, 16), 0.0, 1.0, seed);
        let y = n.forward_train(&x).unwrap();
        n.backward(&y).unwrap();
        let mut adam = Adam::new(0.01);
        adam.step(n);
    }

    #[test]
    fn identical_update_yields_empty_delta() {
        let mut a = net(1);
        let full = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let digest = CheckpointDigest::of(&full);
        let update = WeightSnapshot::capture(&mut a, SnapshotScope::TrainableOnly);
        let delta = WeightDelta::compute(&update, &digest);
        assert_eq!(delta.entry_count(), 0);
        assert!(delta.encoded_len() < update.encoded_len());
    }

    #[test]
    fn delta_apply_reproduces_update_bit_for_bit() {
        let mut server = net(2);
        let base_full = WeightSnapshot::capture(&mut server, SnapshotScope::Full);
        let mut server_digest = CheckpointDigest::of(&base_full);

        // Client starts at the same checkpoint.
        let mut client = net(99);
        base_full.apply(&mut client).unwrap();
        let mut client_digest =
            CheckpointDigest::of(&WeightSnapshot::capture(&mut client, SnapshotScope::Full));
        assert_eq!(server_digest.combined(), client_digest.combined());

        // Server trains, computes the sparse update.
        trained_step(&mut server, 7);
        let update = WeightSnapshot::capture(&mut server, SnapshotScope::TrainableOnly);
        let delta = WeightDelta::compute(&update, &server_digest);
        assert!(delta.entry_count() <= update.entry_count());
        server_digest.patch(&update);

        // Wire round trip.
        let encoded = Wire::encode(&WeightPayload::Delta(delta));
        let WeightPayload::Delta(delta) =
            <WeightPayload as Wire>::decode(&mut &encoded[..]).unwrap()
        else {
            panic!("expected delta payload")
        };

        // Client verifies + applies + patches.
        delta.check_base(&client_digest, None).unwrap();
        let (sparse, chunks) = delta.into_parts().unwrap();
        sparse.apply(&mut client).unwrap();
        client_digest.patch_chunks(&chunks);

        assert_eq!(server_digest.combined(), client_digest.combined());
        let server_state = WeightSnapshot::capture(&mut server, SnapshotScope::Full);
        let client_state = WeightSnapshot::capture(&mut client, SnapshotScope::Full);
        assert_eq!(server_state.encode(), client_state.encode());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Over the training trajectories of
        /// `delta_stream_reproduces_the_server_bit_for_bit` (a partial
        /// student, one optimizer step per round, a final round with no
        /// training), the fused pass and `compute` followed by `patch`
        /// produce the same delta bytes and the same digest.
        #[test]
        fn compute_and_patch_in_one_pass_equals_compute_then_patch(
            seed in 0u64..500,
            rounds in 1usize..4,
        ) {
            let mut server = net(seed);
            let start =
                CheckpointDigest::of(&WeightSnapshot::capture(&mut server, SnapshotScope::Full));
            let (mut two_pass, mut one_pass) = (start.clone(), start);
            for round in 0..=rounds {
                if round < rounds {
                    trained_step(&mut server, seed.wrapping_mul(31).wrapping_add(round as u64));
                }
                let update = WeightSnapshot::capture(&mut server, SnapshotScope::TrainableOnly);
                let reference = WeightDelta::compute(&update, &two_pass);
                two_pass.patch(&update);
                let fused = WeightDelta::compute_and_patch(&update, &mut one_pass);
                proptest::prop_assert_eq!(Wire::encode(&fused), Wire::encode(&reference));
                proptest::prop_assert_eq!(&one_pass, &two_pass);
                proptest::prop_assert_eq!(fused.entry_count() == 0, round == rounds);
            }
        }
    }

    #[test]
    fn stale_and_unknown_bases_are_typed() {
        let mut a = net(3);
        let full = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let digest0 = CheckpointDigest::of(&full);
        let update0 = WeightSnapshot::capture(&mut a, SnapshotScope::TrainableOnly);
        let delta_v0 = WeightDelta::compute(&update0, &digest0);

        // Advance the client past digest0.
        trained_step(&mut a, 11);
        let mut advanced = digest0.clone();
        advanced.patch(&WeightSnapshot::capture(
            &mut a,
            SnapshotScope::TrainableOnly,
        ));
        assert_ne!(advanced.combined(), digest0.combined());

        let err = delta_v0
            .check_base(&advanced, Some(digest0.combined()))
            .unwrap_err();
        assert!(
            matches!(err, WireError::StaleBaseCheckpoint { base } if base == digest0.combined())
        );

        let err = delta_v0.check_base(&advanced, None).unwrap_err();
        assert!(matches!(err, WireError::UnknownBaseCheckpoint { .. }));
    }

    #[test]
    fn truncated_chunk_list_is_typed() {
        let mut a = net(4);
        trained_step(&mut a, 5);
        let full = WeightSnapshot::capture(&mut a, SnapshotScope::Full);
        let digest =
            CheckpointDigest::of(&WeightSnapshot::capture(&mut net(5), SnapshotScope::Full));
        let delta = WeightDelta::compute(&full, &digest);
        assert!(delta.entry_count() > 0);
        let encoded = Wire::encode(&delta);
        let cut = &encoded[..encoded.len() - 2];
        let err = <WeightDelta as Wire>::decode(&mut &cut[..]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }
}
