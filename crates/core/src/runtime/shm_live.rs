//! The two-process live runtime: client and server pool as separate OS
//! processes over the shared-memory ring transport.
//!
//! [`run_live_multi`](crate::runtime::live::run_live_multi) proves the
//! protocol under real concurrency, but both roles still share one address
//! space — nothing stops a message from smuggling a pointer. This module
//! runs the same client state machine (`drive_client`) against the same
//! [`ServerPool`], with an [`st_net::ShmTransport`] ring as the only thing
//! connecting them, so every message really is a sequence of bytes produced
//! by the versioned wire codec ([`st_net::Wire`]) and the traffic numbers
//! are *measured* (encoded frame sizes), not modelled.
//!
//! Topology:
//!
//! * **Host process** ([`host_stream_over_shm`]) — creates the shared-memory
//!   segment, spawns the server pool, connects one pool stream, and runs a
//!   bridge loop pumping uplink messages ring → pool and downlink messages
//!   pool → ring until the peer process closes its side. Between messages
//!   it waits on the pool's downlink, which the pool's answer wakes, and
//!   polls the ring at least every 200 µs.
//! * **Client process** ([`run_shm_client`]) — opens the segment, wraps the
//!   transport in the [`st_net::connect`] builder's endpoint, and drives the
//!   unmodified Algorithm-4 client over it. Both processes generate the
//!   stream's frames from the same deterministic [`st_video`] spec, so no
//!   frame content needs a side channel beyond the pool's ordinary
//!   connect-time pre-share.
//!
//! How the child reports back is also the wire format's job: the client
//! process writes its [`ExperimentRecord`] as one framed
//! [`st_net::wire::encode_frame`] blob, which the host decodes — a run
//! record crosses the process boundary the same way a key frame does.

use crate::config::ShadowTutorConfig;
use crate::report::ExperimentRecord;
use crate::runtime::live::drive_client;
use crate::serve::{PoolConfig, PoolStats, ServerPool, StreamClient};
use crate::Result;
use st_net::transport::ClientEndpoint;
use st_net::{
    ClientToServer, ServerToClient, ShmConfig, ShmSide, ShmTransport, StreamId, Transport,
    TransportError,
};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::TensorError;
use st_video::Frame;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long the bridge keeps serving after the last activity before
/// concluding the peer died without closing its side.
const BRIDGE_QUIET_BUDGET: Duration = Duration::from_secs(60);

/// The longest the bridge goes without polling the ring for the peer's
/// uplink while it waits on the pool's downlink.
const BRIDGE_POLL: Duration = Duration::from_micros(200);

/// What the host side of a two-process session measured.
#[derive(Debug)]
pub struct ShmHostOutcome {
    /// Server-pool statistics (queueing, batching, per-stream counters,
    /// final server-side checkpoints) — the same shape the in-process
    /// multi-stream runtime reports.
    pub pool: PoolStats,
    /// Measured client→server bytes that crossed the ring: framed wire
    /// messages plus the 4-byte stream length prefix each one carries.
    pub wire_bytes_up: usize,
    /// Measured server→client bytes that crossed the ring.
    pub wire_bytes_down: usize,
    /// Uplink messages the bridge forwarded into the pool.
    pub messages_up: usize,
    /// Downlink messages the bridge forwarded onto the ring.
    pub messages_down: usize,
}

fn io_err(context: &str, e: std::io::Error) -> TensorError {
    TensorError::InvalidArgument(format!("{context}: {e}"))
}

/// Host one client stream whose peer lives in another process.
///
/// Creates the shared-memory segment at `segment_path` (the client process
/// opens it with [`ShmTransport::open`]), spawns a [`ServerPool`],
/// pre-shares `frames` for `stream_id`, and bridges ring ↔ pool until the
/// peer closes. A pass that finds nothing on the ring waits up to 200 µs
/// on the pool's downlink ([`StreamClient::recv_timeout`](st_net::transport::ClientEndpoint::recv_timeout)),
/// so an update goes onto the ring the moment the pool sends it and the
/// peer's next key frame is picked up within one poll period; the bridge
/// never spins. Returns the joined pool statistics plus the measured ring
/// traffic. `_distill_step_latency` is ignored, as in [`ServerPool::spawn`].
#[allow(clippy::too_many_arguments)] // flat experiment parameters, as `stbench` calls it
pub fn host_stream_over_shm<T, F>(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    template: StudentNet,
    _distill_step_latency: f64,
    teacher_factory: F,
    stream_id: StreamId,
    frames: &[Frame],
    segment_path: &Path,
    shm: ShmConfig,
) -> Result<ShmHostOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    let mut ring =
        ShmTransport::<ServerToClient, ClientToServer>::create(segment_path, ShmSide::Server, shm)
            .map_err(|e| io_err("create shared-memory segment", e))?;
    let pool = ServerPool::spawn(config, pool_config, template, 0.0, teacher_factory)?;
    let mut client = pool.connect(stream_id, frames)?;

    let mut messages_up = 0usize;
    let mut messages_down = 0usize;
    let mut last_activity = Instant::now();
    let mut peer_done = false;
    while !peer_done {
        let mut idle = true;
        // Uplink: ring → pool. Forward with the measured frame length as the
        // modelled size, so the pool's per-message accounting and the ring's
        // byte counters agree on what a message costs.
        loop {
            match ring.try_recv() {
                Ok(Some(message)) => {
                    idle = false;
                    let bytes = st_net::wire::frame_len(&message);
                    if client.send(message, bytes).is_err() {
                        // Pool shut down under us; stop bridging uplink.
                        peer_done = true;
                        break;
                    }
                    messages_up += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    // Peer closed its side; drain the pool's remaining
                    // downlink below, then exit.
                    peer_done = true;
                    break;
                }
            }
        }
        // Downlink: pool → ring. After a pass that moved nothing up, the
        // first receive waits for the pool's answer (see `await_downlink`).
        let mut next = if idle {
            if last_activity.elapsed() > BRIDGE_QUIET_BUDGET {
                return Err(TensorError::InvalidArgument(
                    "shm bridge: peer process went quiet without closing".into(),
                ));
            }
            await_downlink(&mut client)
        } else {
            client.try_recv().ok().flatten()
        };
        while let Some(message) = next {
            idle = false;
            // The peer vanishing mid-send only loses its own updates.
            if ring.send(message, 0).is_err() {
                peer_done = true;
                break;
            }
            messages_down += 1;
            next = client.try_recv().ok().flatten();
        }
        if !idle {
            last_activity = Instant::now();
        }
    }
    let wire_bytes_up = ring.wire_received_bytes();
    let wire_bytes_down = ring.wire_sent_bytes();
    // Close our ring side *before* joining so a still-running peer errors
    // out fast instead of waiting on its 30 s receive budget.
    drop(ring);
    drop(client);
    let pool = pool.join()?;
    Ok(ShmHostOutcome {
        pool,
        wire_bytes_up,
        wire_bytes_down,
        messages_up,
        messages_down,
    })
}

/// The pool's next downlink message, waited for up to [`BRIDGE_POLL`]: the
/// pool's send wakes the wait the moment an answer exists, and the ring is
/// polled again at the latest when it runs out. A pool that has gone away
/// cannot wake it, so then the wait is a plain sleep, never a spin.
fn await_downlink(client: &mut StreamClient) -> Option<ServerToClient> {
    match client.recv_timeout(BRIDGE_POLL) {
        Ok(message) => Some(message),
        Err(TransportError::Timeout) => None,
        Err(TransportError::Disconnected) => {
            std::thread::sleep(BRIDGE_POLL);
            None
        }
    }
}

/// Run the client role against a host process, over the segment the host
/// created at `segment_path`.
///
/// Drives the unmodified Algorithm-4 client state machine; the only change
/// from the in-process runtime is the endpoint underneath it. On return the
/// record's `uplink_bytes`/`downlink_bytes` hold *measured* wire bytes (the
/// endpoint's count of encoded frame sizes), not the modelled payload sizes.
pub fn run_shm_client(
    config: ShadowTutorConfig,
    frames: &[Frame],
    student: StudentNet,
    label: &str,
    segment_path: &Path,
    open_timeout: Duration,
) -> Result<ExperimentRecord> {
    let ring = ShmTransport::<ClientToServer, ServerToClient>::open(
        segment_path,
        ShmSide::Client,
        open_timeout,
    )
    .map_err(|e| io_err("open shared-memory segment", e))?;
    let mut endpoint = st_net::connect().with_transport(ring);
    let output = drive_client(config, frames, student, &mut endpoint, label, "shm", false)?;
    let mut record = output.record;
    record.uplink_bytes = endpoint.wire_sent_bytes();
    record.downlink_bytes = endpoint.wire_received_bytes();
    Ok(record)
}

#[cfg(test)]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use st_nn::student::{StudentConfig, StudentNet};
    use st_teacher::OracleTeacher;
    use st_video::dataset::tiny_stream;
    use st_video::SceneKind;

    /// Bridge + client over one segment, in two threads of one process (the
    /// cross-process variant is exercised by the `st-bench` e2e test, which
    /// spawns a real child binary). Byte conservation must hold exactly:
    /// what the client's endpoint counts, plus the ring's 4-byte stream
    /// prefix per message, is what the host measured.
    #[test]
    fn bridged_session_conserves_wire_bytes() {
        let config = ShadowTutorConfig::paper();
        let frames = tiny_stream(SceneKind::People, 24, 7);
        let path =
            st_net::shm::default_segment_path(&format!("st-shm-live-test-{}", std::process::id()));
        let client_frames = frames.clone();
        let client_path = path.clone();
        let client = std::thread::spawn(move || {
            run_shm_client(
                config,
                &client_frames,
                StudentNet::new(StudentConfig::tiny()).unwrap(),
                "fixed/people",
                &client_path,
                Duration::from_secs(10),
            )
        });
        let host = host_stream_over_shm(
            config,
            PoolConfig::with_shards(1),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |_| OracleTeacher::perfect(7),
            0,
            &frames,
            &path,
            ShmConfig::default(),
        )
        .unwrap();
        let record = client.join().unwrap().unwrap();

        assert_eq!(record.frames, frames.len());
        assert!(record.uplink_bytes > 0, "client sent no measured bytes");
        assert!(record.downlink_bytes > 0, "client saw no measured bytes");
        // Every uplink message is framed + 4-byte stream prefix on the ring.
        assert_eq!(
            host.wire_bytes_up,
            record.uplink_bytes + 4 * host.messages_up,
            "uplink byte conservation"
        );
        assert_eq!(
            host.wire_bytes_down,
            record.downlink_bytes + 4 * host.messages_down,
            "downlink byte conservation"
        );
        // The pool served the stream's key frames (key frames the client
        // recorded are the updates it actually applied, so served >= applied).
        assert!(host.pool.total_key_frames() >= record.key_frames.len());
        assert!(host.pool.total_key_frames() > 0);
        // The pool's own wire meter saw the bridged traffic too.
        assert!(host.pool.wire_bytes_up > 0);
        assert!(host.pool.wire_bytes_down > 0);
    }
}
