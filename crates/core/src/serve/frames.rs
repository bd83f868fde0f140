//! The per-stream frame store.

use st_video::Frame;
use std::collections::HashMap;

/// One stream's pre-shared frame content, resident for the stream's life.
///
/// The key-frame message carries encoded pixels for realistic wire sizes;
/// the in-process shard resolves content by index, as the single-stream live
/// runtime does. A key frame whose index the stream never shared is refused
/// at the pool's door with `Dropped { UnknownFrame }`. The store belongs to
/// the stream, not to the shard's run of passes: a shard that recovers from
/// a death keeps each stream's store as it is.
#[derive(Debug, Clone)]
pub struct FrameStore {
    frames: HashMap<usize, Frame>,
}

impl FrameStore {
    /// A store holding a stream's pre-shared frames, keyed by index.
    ///
    /// `budget` must be `None`: frames are never evicted. The argument is
    /// kept only because the benchmark still passes it (ROADMAP item 18).
    pub fn from_frames(frames: &[Frame], budget: Option<usize>) -> Self {
        assert!(
            budget.is_none(),
            "FrameStore has no byte budget; pass None (ROADMAP item 18)"
        );
        let mut by_index = HashMap::with_capacity(frames.len());
        for frame in frames {
            // The first frame shared under an index is the one kept.
            by_index.entry(frame.index).or_insert_with(|| frame.clone());
        }
        FrameStore { frames: by_index }
    }

    /// Whether this stream shared `index`. (Kept under this name for the
    /// benchmark, ROADMAP item 18; there is no recency to update.)
    pub fn touch(&self, index: usize) -> bool {
        self.frames.contains_key(&index)
    }

    /// The content of a shared index.
    pub fn peek(&self, index: usize) -> Option<&Frame> {
        self.frames.get(&index)
    }
}
