//! `--check`: the bench-owned client driver against the product's.
//!
//! Three lockstep streams × 20 frames go through [`crate::client::drive`]
//! and through `run_live_multi_with`; lockstep (every frame a key frame,
//! the client blocks on every update) makes both deterministic, so they
//! must end on bit-equal students with equal key-frame and step counts.

use crate::trace::Tracer;
use crate::workload::{self, BenchTeacher};
use shadowtutor::runtime::live::{run_live_multi_with, ClientDriverMode, StreamSpec};

pub fn driver_matches_product() -> Result<String, String> {
    let workload = workload::by_name("pool_lockstep")
        .expect("pool_lockstep is a workload")
        .resized(3, 20);
    let prepared = workload.prepare(5).map_err(|e| e.to_string())?;
    let round = workload
        .run_round(&prepared, usize::MAX, &mut Tracer::off())
        .map_err(|e| format!("bench driver: {e}"))?;
    let failures = round.verify(&workload);
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    let specs = prepared
        .streams
        .iter()
        .enumerate()
        .map(|(stream, frames)| StreamSpec {
            stream_id: stream as u64,
            label: format!("check/{stream}"),
            frames: frames.clone(),
        })
        .collect();
    let kind = workload.teacher;
    let product = run_live_multi_with(
        workload.config,
        specs,
        prepared.template.clone(),
        workload.pool,
        |_| BenchTeacher::new(kind),
        ClientDriverMode::Multiplexed,
    )
    .map_err(|e| format!("run_live_multi_with: {e}"))?;

    let (mut key_frames, mut steps) = (0, 0);
    for (stream, (ours, theirs)) in round.drive.clients.iter().zip(&product.streams).enumerate() {
        if ours.final_student.encode() != theirs.final_student.encode() {
            return Err(format!("stream {stream}: final students differ"));
        }
        if ours.key_frames != theirs.server_key_frames
            || ours.distill_steps != theirs.server_distill_steps
        {
            return Err(format!(
                "stream {stream}: {} key frames / {} steps vs the product's {} / {}",
                ours.key_frames,
                ours.distill_steps,
                theirs.server_key_frames,
                theirs.server_distill_steps
            ));
        }
        key_frames += ours.key_frames;
        steps += ours.distill_steps;
    }
    if steps == 0 {
        return Err("no distillation step was taken: the comparison is vacuous".into());
    }
    Ok(format!(
        "{} streams, {key_frames} key frames, {steps} distillation steps, bit-equal final students",
        round.drive.clients.len()
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_driver_matches_run_live_multi_with() {
        st_tensor::parallel::set_threads(1);
        super::driver_matches_product().unwrap();
    }
}
