//! The per-stream LRU frame cache.

#[cfg(doc)]
use st_net::ServerToClient;
use st_video::Frame;
use std::collections::{HashMap, VecDeque};

/// An LRU cache of one stream's pre-shared frame content with a byte budget.
///
/// The key-frame message carries encoded pixels for realistic wire sizes;
/// the in-process shard resolves content by index, as the single-stream live
/// runtime does. Before PR 5 that content lived in a plain map for the
/// stream's lifetime; the store bounds it: once resident frames exceed the
/// budget, the least-recently-used ones are evicted (the index stays known,
/// so the job is *parked* and the content re-requested via
/// [`ServerToClient::NeedFrame`] instead of the frame being refused as
/// unknown). A `None` budget keeps everything resident. The store belongs
/// to the stream, not to the shard: when a shard dies, its adopter takes
/// each stream's store over as it is, so a takeover costs no re-share.
///
/// Invariant: after every mutation, `resident_bytes() <= budget`. A frame
/// larger than the whole budget is never admitted — it is counted evicted
/// immediately, and a job needing it is answered with a definitive
/// [`ServerToClient::Dropped`] after one recovery attempt (admission can
/// never succeed, so retrying would loop forever). Size the budget above
/// the largest single frame.
#[derive(Debug, Clone)]
pub struct FrameStore {
    /// Frame index → content; `None` marks an index that was shared but is
    /// currently evicted (distinguishing "evicted" from "never shared").
    entries: HashMap<usize, Option<Frame>>,
    /// Resident indices, least-recently-used first.
    lru: VecDeque<usize>,
    budget: Option<usize>,
    resident_bytes: usize,
    peak_bytes: usize,
    evictions: usize,
}

impl FrameStore {
    /// An empty store with the given byte budget (`None` = unbounded).
    pub fn new(budget: Option<usize>) -> Self {
        FrameStore {
            entries: HashMap::new(),
            lru: VecDeque::new(),
            budget,
            resident_bytes: 0,
            peak_bytes: 0,
            evictions: 0,
        }
    }

    /// A store pre-filled with a stream's frames in index order (so under a
    /// tight budget the *earliest* frames are the first evicted — they are
    /// also the first the stream will ask the server to serve, which is what
    /// the eviction/re-share round-trip tests exercise).
    pub fn from_frames(frames: &[Frame], budget: Option<usize>) -> Self {
        let mut store = Self::new(budget);
        let mut sorted: Vec<&Frame> = frames.iter().collect();
        sorted.sort_by_key(|f| f.index);
        for frame in sorted {
            store.insert(frame.clone());
        }
        store
    }

    /// Approximate resident cost of one frame: the f32 image tensor plus the
    /// per-pixel ground-truth indices — what the server actually holds in
    /// memory (not the 8-bit wire encoding).
    pub fn frame_cost(frame: &Frame) -> usize {
        std::mem::size_of_val(frame.image.data()) + std::mem::size_of_val(&frame.ground_truth[..])
    }

    /// Insert (or restore) a frame, evicting least-recently-used residents
    /// until the budget holds. A frame whose own cost exceeds the budget is
    /// recorded as known-but-evicted rather than admitted.
    pub fn insert(&mut self, frame: Frame) {
        let index = frame.index;
        let cost = Self::frame_cost(&frame);
        if self.resident(index) {
            // Re-inserting a resident frame just refreshes recency.
            self.touch(index);
            return;
        }
        if let Some(budget) = self.budget {
            if cost > budget {
                self.entries.insert(index, None);
                self.evictions += 1;
                return;
            }
            while self.resident_bytes + cost > budget {
                let Some(victim) = self.lru.pop_front() else {
                    break;
                };
                if let Some(slot) = self.entries.get_mut(&victim) {
                    if let Some(evicted) = slot.take() {
                        self.resident_bytes -= Self::frame_cost(&evicted);
                        self.evictions += 1;
                    }
                }
            }
        }
        self.entries.insert(index, Some(frame));
        self.lru.push_back(index);
        self.resident_bytes += cost;
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
    }

    /// Whether this index was ever shared (resident or evicted).
    pub fn knows(&self, index: usize) -> bool {
        self.entries.contains_key(&index)
    }

    /// Whether this index is currently resident.
    pub fn resident(&self, index: usize) -> bool {
        self.entries.get(&index).is_some_and(|e| e.is_some())
    }

    /// Mark an index as most-recently-used. Returns whether it is resident.
    pub fn touch(&mut self, index: usize) -> bool {
        if !self.resident(index) {
            return false;
        }
        self.lru.retain(|i| *i != index);
        self.lru.push_back(index);
        true
    }

    /// The resident content of an index (does not affect recency).
    pub fn peek(&self, index: usize) -> Option<&Frame> {
        self.entries.get(&index).and_then(|e| e.as_ref())
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Largest resident-byte watermark reached so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Frames evicted so far (including oversized frames never admitted).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Number of resident frames.
    pub fn resident_count(&self) -> usize {
        self.lru.len()
    }
}
