//! Content-addressed, refcounted weight-chunk store.
//!
//! The pretrained student template and every per-stream checkpoint decompose
//! into per-entry *chunks* (the [`WeightSnapshot::entry_chunks`] encoding:
//! `u32 numel` + little-endian `f32` values). Chunks are stored once, keyed
//! by FNV-1a 64 content hash and reference-counted, so two checkpoints that
//! share a stage — the frozen front-end a partial-distillation session never
//! touches — hold its bytes **once**; interning an unchanged stage again is
//! a hash lookup, not a copy. Checkpoints are [`CheckpointRef`]s (name +
//! hash per entry). The serving pool interns only its pristine template,
//! for its residency report. The same hashes drive the delta wire protocol
//! in [`crate::delta`].
//!
//! Convention (enforced by `st-lint`): chunk hashing is *confined* to this
//! module and [`crate::delta`]. Hot paths (shard batch loops, reactor
//! handlers, kernels) must not hash weight bytes inline — they go through
//! [`WeightStore::intern`], which hashes once per checkpoint, off the
//! per-frame fast path.

use crate::snapshot::{SnapshotScope, WeightSnapshot};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Mutex;

/// FNV-1a 64 content hash of one checkpoint chunk — the store's content
/// address. Weight tensors are dense `f32` payloads; 64 bits of FNV over
/// them is collision-safe at pool scale and needs no dependency.
pub fn chunk_hash(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Combine per-entry chunk hashes into one checkpoint identity, folding the
/// entry order in. This is the `base` a [`crate::delta::WeightDelta`] names.
pub fn combine_hashes<'a>(hashes: impl Iterator<Item = &'a u64>) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for hash in hashes {
        for byte in hash.to_le_bytes() {
            acc ^= byte as u64;
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// A checkpoint held *by reference* into a [`WeightStore`]: one
/// `(entry name, content hash)` pair per snapshot entry, in capture order.
///
/// A `CheckpointRef` owns one reference count on each of its chunks; it must
/// be given back via [`WeightStore::release`] when the checkpoint it names
/// is dropped. `Clone` is deliberately not implemented: a copy would hold
/// counts the store never gave out.
#[derive(Debug, PartialEq, Eq)]
pub struct CheckpointRef {
    chunks: Vec<(String, u64)>,
    scope: SnapshotScope,
}

impl CheckpointRef {
    /// `(entry name, chunk hash)` per entry, in capture order.
    pub fn chunks(&self) -> &[(String, u64)] {
        &self.chunks
    }

    /// Scope of the snapshot this ref was interned from.
    pub fn scope(&self) -> SnapshotScope {
        self.scope
    }

    /// The checkpoint's combined identity hash (order-sensitive fold of the
    /// per-entry chunk hashes).
    pub fn combined(&self) -> u64 {
        combine_hashes(self.chunks.iter().map(|(_, h)| h))
    }
}

/// Byte accounting for one [`WeightStore::intern`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Bytes the store had to materialize (chunks it had never seen).
    pub new_bytes: usize,
    /// Bytes deduplicated against chunks already resident.
    pub shared_bytes: usize,
}

/// The shared content-addressed chunk store.
///
/// Thread-safe: a single blob map behind a mutex, touched only at
/// checkpoint-publication granularity (per accepted update / per session
/// lifecycle event), never per frame.
#[derive(Debug, Default)]
pub struct WeightStore {
    /// Content hash → (reference count, chunk bytes).
    blobs: Mutex<HashMap<u64, (usize, Bytes)>>,
}

/// Lock helper: the store's invariants hold at every release point, so a
/// poisoned mutex (a panicking peer) still leaves a usable map.
fn locked<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl WeightStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern every entry of `snapshot`, returning a [`CheckpointRef`]
    /// holding one reference per chunk plus the new-vs-shared byte split.
    pub fn intern(&self, snapshot: &WeightSnapshot) -> (CheckpointRef, InternStats) {
        use std::collections::hash_map::Entry;
        let mut stats = InternStats::default();
        let mut chunks = Vec::new();
        let mut blobs = locked(&self.blobs);
        for (name, bytes) in snapshot.entry_chunks() {
            let hash = chunk_hash(&bytes);
            match blobs.entry(hash) {
                Entry::Occupied(mut occupied) => {
                    occupied.get_mut().0 += 1;
                    stats.shared_bytes += bytes.len();
                }
                Entry::Vacant(vacant) => {
                    stats.new_bytes += bytes.len();
                    vacant.insert((1, bytes));
                }
            }
            chunks.push((name.to_string(), hash));
        }
        (
            CheckpointRef {
                chunks,
                scope: snapshot.scope(),
            },
            stats,
        )
    }

    /// Give back a ref: decrement every chunk's reference count, freeing
    /// chunks that reach zero.
    pub fn release(&self, r: CheckpointRef) {
        let mut blobs = locked(&self.blobs);
        for (_name, hash) in &r.chunks {
            if let Some(entry) = blobs.get_mut(hash) {
                entry.0 -= 1;
                if entry.0 == 0 {
                    blobs.remove(hash);
                }
            }
        }
    }

    /// Resolve a ref to its chunk bytes without touching reference counts.
    /// Returns `None` if any chunk is missing (the ref was released).
    pub fn resolve(&self, r: &CheckpointRef) -> Option<Vec<(String, Bytes)>> {
        let blobs = locked(&self.blobs);
        let mut chunks = Vec::with_capacity(r.chunks.len());
        for (name, hash) in &r.chunks {
            chunks.push((name.clone(), blobs.get(hash)?.1.clone()));
        }
        Some(chunks)
    }

    /// Number of distinct chunks resident.
    pub fn chunk_count(&self) -> usize {
        locked(&self.blobs).len()
    }

    /// Total bytes resident (each distinct chunk counted once).
    pub fn resident_bytes(&self) -> usize {
        locked(&self.blobs).values().map(|(_, b)| b.len()).sum()
    }

    /// Check the store's reference counts against the set of live refs.
    ///
    /// Every chunk's stored count must equal the number of live refs naming
    /// it, every named chunk must be resident, and no resident chunk may be
    /// unnamed. Returns a description of the first violation — the invariant
    /// the refcount property test (and its skipped-decref mutant) pins down.
    pub fn verify_refcounts(&self, live: &[&CheckpointRef]) -> std::result::Result<(), String> {
        let mut expected: HashMap<u64, usize> = HashMap::new();
        for r in live {
            for (_name, hash) in &r.chunks {
                *expected.entry(*hash).or_insert(0) += 1;
            }
        }
        let blobs = locked(&self.blobs);
        for (hash, count) in &expected {
            match blobs.get(hash) {
                None => {
                    return Err(format!(
                        "chunk {hash:#018x} named by a live ref but freed (premature free)"
                    ))
                }
                Some((actual, _)) if actual != count => {
                    return Err(format!(
                        "chunk {hash:#018x} refcount {actual} != {count} live refs"
                    ))
                }
                Some(_) => {}
            }
        }
        for (hash, (count, _)) in blobs.iter() {
            if !expected.contains_key(hash) {
                return Err(format!(
                    "chunk {hash:#018x} resident with refcount {count} but no live ref (leak)"
                ));
            }
        }
        Ok(())
    }

    /// Test/mutant hook: decrement chunk counts of `r` for all but the last
    /// `skip` chunks, then drop the ref *without* accounting for the rest —
    /// a deliberately buggy release the refcount invariant must catch.
    pub fn release_skipping(&self, r: CheckpointRef, skip: usize) {
        let mut blobs = locked(&self.blobs);
        let keep = r.chunks.len().saturating_sub(skip);
        for (_name, hash) in r.chunks.iter().take(keep) {
            if let Some(entry) = blobs.get_mut(hash) {
                entry.0 -= 1;
                if entry.0 == 0 {
                    blobs.remove(hash);
                }
            }
        }
    }
}

/// Per-session memory split of a copy-on-write student against the shard
/// template: tensor storages shared with the template (frozen stages the
/// optimizer never wrote) versus privately materialized ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMemory {
    /// Bytes of parameter/buffer storage shared with the template.
    pub shared_bytes: usize,
    /// Bytes of storage private to the session (written at least once).
    pub private_bytes: usize,
}

impl SessionMemory {
    /// Resident cost of the session: only its private bytes — the shared
    /// bytes are the template's, paid once per shard.
    pub fn resident_bytes(&self) -> usize {
        self.private_bytes
    }

    /// Measure a session's parameter + buffer storage against the template
    /// it was cloned from, by storage identity (`Tensor::shares_storage`
    /// pointer equality, matched by entry name).
    pub fn measure(
        session: &mut crate::student::StudentNet,
        template: &mut crate::student::StudentNet,
    ) -> SessionMemory {
        let mut template_ids: HashMap<String, usize> = HashMap::new();
        let mut collect = |name: &str, t: &Tensor| {
            template_ids.insert(name.to_string(), t.storage_id());
        };
        let mut v = |p: &mut crate::param::Param, _t: bool| collect(&p.name, &p.value);
        template.visit_params(&mut v);
        let mut b = |name: &str, t: &mut Tensor, _tr: bool| collect(name, t);
        template.visit_buffers(&mut b);

        let mut memory = SessionMemory::default();
        let mut tally = |name: &str, t: &Tensor| {
            if template_ids.get(name) == Some(&t.storage_id()) {
                memory.shared_bytes += t.storage_bytes();
            } else {
                memory.private_bytes += t.storage_bytes();
            }
        };
        let mut v = |p: &mut crate::param::Param, _t: bool| tally(&p.name, &p.value);
        session.visit_params(&mut v);
        let mut b = |name: &str, t: &mut Tensor, _tr: bool| tally(name, t);
        session.visit_buffers(&mut b);
        memory
    }
}

use st_tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::student::{FreezePoint, StudentConfig, StudentNet};

    fn snap(seed: u64, scope: SnapshotScope) -> WeightSnapshot {
        let mut net = StudentNet::new(StudentConfig {
            seed,
            ..StudentConfig::tiny()
        })
        .unwrap();
        net.freeze = FreezePoint::paper_partial();
        WeightSnapshot::capture(&mut net, scope)
    }

    #[test]
    fn intern_twice_shares_every_byte() {
        let store = WeightStore::new();
        let snapshot = snap(1, SnapshotScope::Full);
        let (a, first) = store.intern(&snapshot);
        assert!(first.new_bytes > 0);
        // (first.shared_bytes may be non-zero: identical zero-initialized
        // entries dedup even within one snapshot.)
        let (b, second) = store.intern(&snapshot);
        assert_eq!(second.new_bytes, 0);
        assert_eq!(
            second.shared_bytes,
            first.new_bytes + first.shared_bytes,
            "re-interning shares every byte"
        );
        assert_eq!(a.combined(), b.combined());
        store.verify_refcounts(&[&a, &b]).unwrap();
        store.release(a);
        store.release(b);
        assert_eq!(store.chunk_count(), 0);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn skipped_decref_is_caught() {
        let store = WeightStore::new();
        let snapshot = snap(4, SnapshotScope::Full);
        let (a, _) = store.intern(&snapshot);
        let (b, _) = store.intern(&snapshot);
        store.release_skipping(b, 1);
        let err = store.verify_refcounts(&[&a]).unwrap_err();
        assert!(err.contains("refcount"), "unexpected violation: {err}");
    }
}
