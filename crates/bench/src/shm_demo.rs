//! The `reproduce shm` demo: client and server pool as two real
//! OS processes over the shared-memory ring transport.
//!
//! The host side (this process) creates the segment, spawns the `reproduce`
//! binary again in its hidden `shm-client` role, hosts the server pool, and
//! bridges ring ↔ pool ([`shadowtutor::runtime::shm_live`]). The child
//! drives the unmodified Algorithm-4 client and ships its
//! [`ExperimentRecord`] back as one framed wire blob — so the run record
//! crosses the process boundary through the same versioned binary codec as
//! every key frame did.
//!
//! The table it produces is the measured counterpart of Table 4/5's traffic
//! claim: key-frame wire bytes (what actually crossed the ring) against the
//! naive baseline's full-frame wire bytes, both counted from encoded frames
//! rather than modelled payload arithmetic; [`shm_gate`] fails the run when
//! the first is not below the second.

use crate::tables::{gate_column, TableOutput};
use crate::ExperimentScale;
use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::report::ExperimentRecord;
use shadowtutor::runtime::shm_live::{host_stream_over_shm, run_shm_client};
use shadowtutor::serve::PoolConfig;
use st_net::{ClientToServer, KeyFrameTraffic, NaiveTraffic, Payload, ShmConfig};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_video::dataset::Resolution;
use st_video::generator::VideoConfig;
use st_video::scene::{CameraMotion, VideoCategory};
use st_video::{Frame, SceneKind, VideoGenerator};
use std::path::PathBuf;
use std::time::Duration;

/// Frame count and teacher seed of the demo stream at each scale. Both
/// processes derive the identical stream from these, so no frame content
/// needs a side channel beyond the pool's ordinary connect-time pre-share.
pub fn demo_params(scale: ExperimentScale) -> (usize, u64) {
    match scale {
        ExperimentScale::Smoke => (24, 7),
        ExperimentScale::Default => (48, 7),
        ExperimentScale::Extended => (96, 7),
    }
}

/// The demo stream: a fixed-camera people scene at `Medium` (128×96)
/// resolution, so encoded frames and weight snapshots land in the paper's
/// proportion (frame bytes comparable to update bytes) and the measured
/// key-frame-vs-naive comparison exercises the regime the paper argues
/// about, not a degenerate tiny-frame one.
pub fn demo_frames(count: usize, seed: u64) -> Vec<Frame> {
    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::People,
    };
    let (w, h) = Resolution::Medium.dims();
    let mut generator = VideoGenerator::new(VideoConfig::for_category(cat, w, h, seed))
        .expect("demo stream config is valid");
    generator.take_frames(count)
}

/// Measured wire bytes the naive baseline would move for `frames`: every
/// frame ships up as a framed `KeyFrame` message, and the per-pixel label
/// map ships back down as a framed byte blob.
pub fn naive_wire_bytes(frames: &[Frame]) -> (usize, usize) {
    let mut up = 0usize;
    let mut down = 0usize;
    for frame in frames {
        up += st_net::wire::frame_len(&ClientToServer::KeyFrame {
            frame_index: frame.index,
            payload: Payload::with_data(bytes::Bytes::from(vec![0u8; frame.raw_rgb_bytes()])),
        });
        down += st_net::wire::frame_len(&bytes::Bytes::from(vec![0u8; frame.raw_rgb_bytes() / 3]));
    }
    (up, down)
}

/// Entry point of the hidden `shm-client` role: open the segment the host
/// created, drive the client, and write the framed run record to
/// `record_out`. Returns the process exit code.
pub fn shm_client_main(args: &[String]) -> i32 {
    let [segment, record_out, frame_count, seed] = args else {
        eprintln!("usage: reproduce shm-client <segment> <record-out> <frames> <seed>");
        return 2;
    };
    let (Ok(frame_count), Ok(seed)) = (frame_count.parse::<usize>(), seed.parse::<u64>()) else {
        eprintln!("shm-client: <frames> and <seed> must be integers");
        return 2;
    };
    let frames = demo_frames(frame_count, seed);
    let student = match StudentNet::new(StudentConfig::tiny()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shm-client: student init failed: {e}");
            return 1;
        }
    };
    let record = match run_shm_client(
        ShadowTutorConfig::paper(),
        &frames,
        student,
        "fixed/people",
        &PathBuf::from(segment),
        Duration::from_secs(20),
    ) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("shm-client: session failed: {e}");
            return 1;
        }
    };
    if let Err(e) = std::fs::write(record_out, st_net::wire::encode_frame(&record)) {
        eprintln!("shm-client: writing record failed: {e}");
        return 1;
    }
    0
}

/// Host side of the two-process demo. Spawns `reproduce shm-client ...` as a
/// child process, hosts the pool, and renders the measured-traffic table.
pub fn table_shm(scale: ExperimentScale) -> Result<TableOutput, String> {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        return Err("shared-memory transport is only wired up on x86_64 Linux".into());
    }
    let (frame_count, seed) = demo_params(scale);
    let frames = demo_frames(frame_count, seed);
    let pid = std::process::id();
    let segment = st_net::shm::default_segment_path(&format!("st-shm-demo-{pid}"));
    let record_out = std::env::temp_dir().join(format!("st-shm-record-{pid}.bin"));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .arg("shm-client")
        .arg(&segment)
        .arg(&record_out)
        .arg(frame_count.to_string())
        .arg(seed.to_string())
        .spawn()
        .map_err(|e| format!("spawning shm client process: {e}"))?;

    let host = host_stream_over_shm(
        ShadowTutorConfig::paper(),
        PoolConfig::with_shards(1),
        StudentNet::new(StudentConfig::tiny()).map_err(|e| format!("student init: {e}"))?,
        0.013,
        |_| OracleTeacher::perfect(7),
        0,
        &frames,
        &segment,
        ShmConfig::default(),
    );
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    let host = host.map_err(|e| format!("hosting shm stream: {e}"))?;
    if !status.success() {
        return Err(format!("shm client process failed: {status}"));
    }
    let record_bytes =
        std::fs::read(&record_out).map_err(|e| format!("reading child record: {e}"))?;
    let _ = std::fs::remove_file(&record_out);
    let record: ExperimentRecord = st_net::wire::decode_frame(&record_bytes)
        .map_err(|e| format!("decoding child record: {e}"))?;

    // The measured comparison: what the session actually moved over the ring
    // versus what naive full-frame offloading would have moved, both from
    // framed codec output.
    let key_frames = record
        .frame_records
        .iter()
        .filter(|f| f.is_key_frame)
        .count();
    let measured = KeyFrameTraffic::new(record.frame_bytes, record.update_bytes)
        .with_wire_bytes(host.wire_bytes_up, host.wire_bytes_down);
    let (naive_up, naive_down) = naive_wire_bytes(&frames);
    let naive = NaiveTraffic::for_frame(0, 0).with_wire_bytes(naive_up, naive_down);

    println!(
        "shm: two-process session over {}: host pid {pid}, client exit {status}",
        segment.display()
    );
    println!(
        "shm: client processed {} frames ({} key frames); pool served {} key frames",
        record.frames,
        key_frames,
        host.pool.total_key_frames()
    );
    println!(
        "shm: measured ring bytes up {} / down {} ({} / {} messages)",
        host.wire_bytes_up, host.wire_bytes_down, host.messages_up, host.messages_down
    );
    println!(
        "shm: key-frame wire total {} B, naive wire total {} B",
        measured.wire_total_bytes(),
        naive.wire_total_bytes()
    );

    let mut out = TableOutput::new("SHM");
    out.row_labels = vec![
        "Wire up (MB)".to_string(),
        "Wire down (MB)".to_string(),
        "Wire total (MB)".to_string(),
        "Messages".to_string(),
    ];
    let (mu, md, mt) = measured.wire_megabytes();
    out.columns = vec![
        (
            "ShadowTutor/shm (measured)".to_string(),
            vec![mu, md, mt, (host.messages_up + host.messages_down) as f64],
        ),
        (
            "Naive (measured)".to_string(),
            vec![
                naive_up as f64 / 1e6,
                naive_down as f64 / 1e6,
                naive.wire_total_bytes() as f64 / 1e6,
                (2 * frames.len()) as f64,
            ],
        ),
    ];
    out.render(
        "SHM: two-process traffic, measured from framed binary codec output on the shared-memory ring",
    );
    Ok(out)
}

/// The shm demo's gate, the paper's traffic claim on measured bytes: the
/// key frames' wire total must be below what naive offloading of every
/// frame would have moved.
pub fn shm_gate(table: &TableOutput) -> Result<(), String> {
    let wire_total = |name| {
        gate_column(table, name)?
            .get(2)
            .copied()
            .ok_or_else(|| format!("{} has no wire-total row", table.id))
    };
    let measured = wire_total("ShadowTutor/shm (measured)")?;
    let naive = wire_total("Naive (measured)")?;
    if measured >= naive {
        return Err(format!(
            "key-frame wire total {measured} MB is not below naive wire total {naive} MB"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_gate_fails_when_key_frames_move_as_much_as_naive() {
        let table = |measured: f64| TableOutput {
            id: "SHM".to_string(),
            text: String::new(),
            row_labels: [
                "Wire up (MB)",
                "Wire down (MB)",
                "Wire total (MB)",
                "Messages",
            ]
            .map(String::from)
            .to_vec(),
            columns: vec![
                (
                    "ShadowTutor/shm (measured)".to_string(),
                    vec![0.5, measured - 0.5, measured, 30.0],
                ),
                ("Naive (measured)".to_string(), vec![0.9, 0.3, 1.2, 48.0]),
            ],
        };
        assert_eq!(shm_gate(&table(0.8)), Ok(()));
        let err = shm_gate(&table(1.2)).unwrap_err();
        assert!(
            err.contains("1.2 MB is not below naive wire total 1.2 MB"),
            "{err}"
        );
        assert!(shm_gate(&table(2.0)).is_err());
    }
}
