//! The ShadowTutor client role (Algorithm 4).
//!
//! The client owns the serving copy of the student. It processes frames in
//! strict temporal order; on key frames it sends the frame to the server
//! *asynchronously* and keeps inferring subsequent frames with its current
//! (slightly stale) weights. The updated weights are applied whenever they
//! arrive, but no later than `MIN_STRIDE` frames after the key frame — at
//! that point the client blocks, because the next key frame may be due.
//!
//! The decision logic (when is a frame a key frame, when must the client
//! wait, when is an arrived update applied, how does the stride evolve) is
//! captured in [`ClientState`] independently of any transport or clock, so
//! the frame-stepped and threaded runtimes share it and it can be unit-tested
//! exhaustively on its own.

use crate::config::ShadowTutorConfig;
use crate::stride::StridePolicy;

/// What the client should do with the current frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDecision {
    /// Whether this frame must be sent to the server as a key frame.
    pub is_key_frame: bool,
    /// Whether the client must block for the in-flight update *after*
    /// running inference on this frame (it has deferred applying the update
    /// for `MIN_STRIDE` frames already).
    pub must_wait_for_update: bool,
}

/// Client-side scheduling state (stride, step counter, in-flight update).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientState {
    /// Algorithm parameters.
    pub config: ShadowTutorConfig,
    /// Key-frame scheduling policy (Algorithm 2 by default).
    pub policy: StridePolicy,
    stride: usize,
    step: usize,
    update_outstanding: bool,
    frames_since_key: usize,
    key_frames_sent: usize,
    updates_applied: usize,
    updates_abandoned: usize,
    updates_throttled: usize,
    waits: usize,
}

impl ClientState {
    /// Fresh client state: the very first frame is a key frame
    /// (Algorithm 4 initialises `step = stride = MIN_STRIDE`).
    pub fn new(config: ShadowTutorConfig) -> Self {
        ClientState {
            stride: config.min_stride,
            step: config.min_stride,
            update_outstanding: false,
            frames_since_key: 0,
            key_frames_sent: 0,
            updates_applied: 0,
            updates_abandoned: 0,
            updates_throttled: 0,
            waits: 0,
            policy: StridePolicy::Adaptive,
            config,
        }
    }

    /// Use a non-default stride policy (ablations).
    pub fn with_policy(mut self, policy: StridePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Current stride in frames.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether a student update is still in flight.
    pub fn update_outstanding(&self) -> bool {
        self.update_outstanding
    }

    /// Number of key frames sent so far.
    pub fn key_frames_sent(&self) -> usize {
        self.key_frames_sent
    }

    /// Number of updates applied so far.
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// Number of times the client had to block waiting for an update.
    pub fn forced_waits(&self) -> usize {
        self.waits
    }

    /// Decide what to do with the next frame (Algorithm 4, lines 6-17).
    ///
    /// Call once per frame, *before* running inference on it.
    pub fn begin_frame(&mut self) -> FrameDecision {
        let is_key_frame = self.step == self.stride;
        if is_key_frame {
            self.step = 0;
            self.frames_since_key = 0;
            self.update_outstanding = true;
            self.key_frames_sent += 1;
        }
        self.step += 1;
        self.frames_since_key += 1;
        let must_wait_for_update =
            self.update_outstanding && self.frames_since_key >= self.config.min_stride;
        if must_wait_for_update {
            self.waits += 1;
        }
        FrameDecision {
            is_key_frame,
            must_wait_for_update,
        }
    }

    /// Record that the in-flight update has been applied with the given
    /// post-training metric; advances the stride (Algorithm 4, lines 18-22).
    pub fn apply_update(&mut self, metric: f64) {
        debug_assert!(self.update_outstanding, "no update outstanding");
        self.stride = self.policy.next(&self.config, self.stride, metric);
        self.update_outstanding = false;
        self.updates_applied += 1;
    }

    /// Record that the in-flight update will never arrive — the server
    /// throttled or dropped the key frame — and fall back to local-only
    /// inference.
    ///
    /// The stride is left unchanged (there is no post-training metric to
    /// feed Algorithm 2), so the next key frame is still sent on the current
    /// schedule; the client just stops waiting for this one. A no-op when no
    /// update is outstanding, so late rejection messages are harmless.
    pub fn abandon_update(&mut self) {
        if self.update_outstanding {
            self.update_outstanding = false;
            self.updates_abandoned += 1;
        }
    }

    /// Record that the server *throttled* the in-flight key frame — it was
    /// rejected by admission control, not lost — and pace the client down.
    ///
    /// Like [`abandon_update`](Self::abandon_update) this unblocks the
    /// client, but it also stretches the key-frame stride (doubling, clamped
    /// to `MAX_STRIDE`): a throttle means the server's per-stream queue is
    /// full, so re-offering key frames on the same schedule would only be
    /// rejected again. Stretching the stride sheds server load at the source
    /// while the client keeps serving every frame locally; once the server
    /// accepts a key frame again, the post-training metric feeds Algorithm 2
    /// and the stride re-adapts from wherever the back-off left it. A no-op
    /// when no update is outstanding, so late Throttle messages are harmless.
    pub fn throttled_update(&mut self) {
        if self.update_outstanding {
            self.update_outstanding = false;
            self.updates_throttled += 1;
            self.stride = (self.stride * 2).min(self.config.max_stride);
        }
    }

    /// Number of in-flight updates abandoned after a server throttle/drop.
    pub fn updates_abandoned(&self) -> usize {
        self.updates_abandoned
    }

    /// Number of in-flight updates rejected by server admission control and
    /// answered with a stride back-off ([`throttled_update`](Self::throttled_update)).
    pub fn updates_throttled(&self) -> usize {
        self.updates_throttled
    }

    /// Number of frames processed since the last key frame (including it).
    pub fn frames_since_key(&self) -> usize {
        self.frames_since_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ClientState {
        ClientState::new(ShadowTutorConfig::paper())
    }

    /// Drive `n` frames, applying the update `delay` frames after each key
    /// frame with a constant metric; returns the indices of key frames.
    fn drive(state: &mut ClientState, n: usize, delay: usize, metric: f64) -> Vec<usize> {
        let mut keys = vec![];
        let mut pending: Option<usize> = None; // frames until arrival
        for i in 0..n {
            let d = state.begin_frame();
            if d.is_key_frame {
                keys.push(i);
                pending = Some(delay);
            }
            if let Some(ref mut left) = pending {
                if *left == 0 || d.must_wait_for_update {
                    state.apply_update(metric);
                    pending = None;
                } else {
                    *left -= 1;
                }
            }
        }
        keys
    }

    #[test]
    fn first_frame_is_a_key_frame() {
        let mut s = state();
        let d = s.begin_frame();
        assert!(d.is_key_frame);
        assert!(!d.must_wait_for_update);
        assert_eq!(s.key_frames_sent(), 1);
    }

    #[test]
    fn perfect_metric_stretches_strides_towards_max() {
        let mut s = state();
        let keys = drive(&mut s, 300, 1, 1.0);
        // The update from each key frame arrives one frame later and doubles
        // the stride before the next key frame is due, so key frames fall at
        // 0, 16, 48, 112, then every 64 frames (the clamp).
        assert_eq!(keys[0], 0);
        assert_eq!(keys[1], 16);
        assert_eq!(keys[2], 48);
        assert_eq!(keys[3], 112);
        assert_eq!(keys[4], 176);
        assert_eq!(s.stride(), 64);
    }

    #[test]
    fn poor_metric_keeps_strides_at_min() {
        let mut s = state();
        let keys = drive(&mut s, 100, 1, 0.0);
        // Every MIN_STRIDE frames.
        let expected: Vec<usize> = (0..13).map(|i| i * 8).collect();
        assert_eq!(keys, expected[..keys.len()].to_vec());
        assert_eq!(s.stride(), 8);
    }

    #[test]
    fn key_frame_ratio_tracks_metric_quality() {
        let ratio = |metric: f64| {
            let mut s = state();
            let keys = drive(&mut s, 1000, 1, metric);
            keys.len() as f64 / 1000.0
        };
        let good = ratio(0.95);
        let bad = ratio(0.3);
        assert!(good < bad, "good {good} vs bad {bad}");
        // With the paper's parameters the best possible ratio is 1/64 and the
        // worst is 1/8.
        assert!(good >= 1.0 / 64.0 - 1e-9);
        assert!(bad <= 1.0 / 8.0 + 1e-2);
    }

    #[test]
    fn must_wait_is_raised_after_min_stride_frames() {
        let mut s = state();
        // Key frame at frame 0; never apply the update.
        let d0 = s.begin_frame();
        assert!(d0.is_key_frame);
        for i in 1..8 {
            let d = s.begin_frame();
            assert!(!d.is_key_frame, "frame {i}");
            if i < 7 {
                assert!(!d.must_wait_for_update, "frame {i} should not wait yet");
            } else {
                // frames_since_key reaches MIN_STRIDE on the 8th frame.
                assert!(d.must_wait_for_update, "frame {i} should force a wait");
            }
        }
        assert_eq!(s.forced_waits(), 1);
    }

    #[test]
    fn update_applied_before_next_key_frame_even_with_max_delay() {
        let mut s = state();
        // With delay = MIN_STRIDE the update is always applied at the forced
        // wait, so the schedule never tries to send a key frame while one is
        // outstanding.
        let keys = drive(&mut s, 500, 8, 0.9);
        assert_eq!(s.key_frames_sent(), keys.len());
        assert_eq!(s.updates_applied(), keys.len());
        assert!(!s.update_outstanding());
    }

    #[test]
    fn fixed_policy_produces_fixed_spacing() {
        let mut s = ClientState::new(ShadowTutorConfig::paper())
            .with_policy(StridePolicy::Fixed { stride: 16 });
        let keys = drive(&mut s, 200, 1, 0.2);
        // The first update (arriving one frame after key frame 0) pins the
        // stride to 16, so key frames land every 16 frames from the start.
        assert_eq!(keys[0], 0);
        for pair in keys.windows(2) {
            assert_eq!(pair[1] - pair[0], 16);
        }
    }

    #[test]
    fn abandoned_update_unblocks_without_touching_the_stride() {
        let mut s = state();
        let d0 = s.begin_frame();
        assert!(d0.is_key_frame);
        assert!(s.update_outstanding());
        let stride_before = s.stride();
        // The server throttled the key frame: local fallback.
        s.abandon_update();
        assert!(!s.update_outstanding());
        assert_eq!(s.stride(), stride_before);
        assert_eq!(s.updates_abandoned(), 1);
        assert_eq!(s.updates_applied(), 0);
        // Abandoning again is a no-op (late Throttle after the fact).
        s.abandon_update();
        assert_eq!(s.updates_abandoned(), 1);
        // With nothing outstanding, even the deferral-deadline frame
        // (frames_since_key == MIN_STRIDE) does not force a wait.
        for i in 1..s.config.min_stride {
            let d = s.begin_frame();
            assert!(!d.is_key_frame, "frame {i}");
            assert!(!d.must_wait_for_update, "frame {i}");
        }
        assert_eq!(s.forced_waits(), 0);
        // The schedule still sends the next key frame on the unchanged stride.
        let d = s.begin_frame();
        assert!(d.is_key_frame);
        assert_eq!(s.key_frames_sent(), 2);
    }

    #[test]
    fn throttled_update_stretches_the_stride_and_clamps_at_max() {
        let mut s = state();
        let d0 = s.begin_frame();
        assert!(d0.is_key_frame);
        assert_eq!(s.stride(), 8);
        // Admission control rejected the key frame: back off.
        s.throttled_update();
        assert!(!s.update_outstanding());
        assert_eq!(s.stride(), 16);
        assert_eq!(s.updates_throttled(), 1);
        assert_eq!(s.updates_abandoned(), 0);
        // A late Throttle with nothing outstanding is a no-op.
        s.throttled_update();
        assert_eq!(s.stride(), 16);
        assert_eq!(s.updates_throttled(), 1);
        // Repeated throttles double toward MAX_STRIDE and stop there.
        for _ in 0..4 {
            while !s.begin_frame().is_key_frame {}
            s.throttled_update();
        }
        assert_eq!(s.stride(), s.config.max_stride);
        assert_eq!(s.updates_throttled(), 5);
    }

    #[test]
    fn throttled_stream_recovers_once_updates_resume() {
        let mut s = state();
        // Two throttled key frames: stride backs off 8 -> 16 -> 32, and the
        // client never blocks (nothing stays outstanding).
        for expected in [16usize, 32] {
            let d = s.begin_frame();
            assert!(d.is_key_frame);
            s.throttled_update();
            assert_eq!(s.stride(), expected);
            for _ in 0..expected - 1 {
                let d = s.begin_frame();
                assert!(!d.is_key_frame);
                assert!(!d.must_wait_for_update);
            }
        }
        assert_eq!(s.forced_waits(), 0);
        // The server accepts again; a poor metric walks the stride back down
        // through Algorithm 2 (metric 0.4 -> ratio 0.5, i.e. halving per
        // update, floored at MIN_STRIDE).
        for expected in [16usize, 8, 8] {
            let d = s.begin_frame();
            assert!(d.is_key_frame);
            s.apply_update(0.4);
            assert_eq!(s.stride(), expected);
            for _ in 0..expected - 1 {
                assert!(!s.begin_frame().is_key_frame);
            }
        }
        assert_eq!(s.updates_throttled(), 2);
        assert_eq!(s.updates_applied(), 3);
        assert_eq!(s.updates_abandoned(), 0);
    }
}
