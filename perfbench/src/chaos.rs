//! `chaos_bytes`, the point-to-point workload on the paper's 2-node testbed
//! (Myri-10G + QsNetII): `StrategyKind::HeteroSplit` over `FaultSimDriver`
//! with integrity and fault tolerance on, real payload bytes, 4 posted per
//! step then drained, under recurring seeded fault windows.

use crate::input;
use crate::measure::{Checks, Counts, Pass, Workload};
use crate::trace::Tracer;
use bytes::Bytes;
use nm_core::driver::faulty::FaultSimDriver;
use nm_core::engine::{Engine, MsgId};
use nm_core::predictor::{Predictor, RailView};
use nm_core::strategy::StrategyKind;
use nm_core::transport::Transport;
use nm_core::{EngineError, HealthConfig};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::{SimDuration, SimTime, TransferMode};
use nm_sampler::{sample_rail, SampleTransport, SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, RailId};
use std::time::Instant;

/// Samples every rail of `spec` the way a session does at start-up
/// (natural and eager ping-pong per rail), one span per `sample_rail`.
fn sample_predictor(spec: &ClusterSpec, tr: &mut Tracer) -> Option<Predictor> {
    let mut sampler = SimTransport::new(spec.clone());
    let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
    let eager_cfg = SamplingConfig { mode: Some(TransferMode::Eager), ..cfg.clone() };
    let mut rails = Vec::with_capacity(sampler.rail_count());
    for i in 0..sampler.rail_count() {
        let natural = tr.span("sampler.sample_rail", || sample_rail(&mut sampler, i, &cfg)).ok()?;
        let eager =
            tr.span("sampler.sample_rail", || sample_rail(&mut sampler, i, &eager_cfg)).ok()?;
        rails.push(RailView {
            rail: RailId(i),
            name: sampler.rail_name(i).into(),
            natural,
            eager,
            rdv_threshold: spec.rails.get(i)?.rdv_threshold,
        });
    }
    Some(Predictor::new(rails))
}

/// FNV-1a, folded over the completion records for the fingerprint.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Drives one closed-loop pass: for each window of message indices, post
/// every message, drain, and check that exactly the posted messages came
/// back, each once and with its size.
fn drive<T: Transport>(
    eng: &mut Engine<T>,
    sizes: &[u64],
    mut post: impl FnMut(&mut Engine<T>, usize) -> Result<MsgId, EngineError>,
    tr: &mut Tracer,
    chk: &mut Checks,
) -> Pass {
    let mut steps_ns = Vec::with_capacity(sizes.len() / CHAOS_WINDOW + 1);
    let mut posted: Vec<(MsgId, u64)> = Vec::with_capacity(CHAOS_WINDOW);
    let mut ok_msgs = 0u64;
    let mut ok_bytes = 0u64;
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let indices: Vec<usize> = (0..sizes.len()).collect();
    for (step, win) in indices.chunks(CHAOS_WINDOW).enumerate() {
        tr.set_step(step as u32);
        posted.clear();
        let t0 = Instant::now();
        let root = tr.begin("step");
        for &i in win {
            match tr.span("core.post_send_bytes", || post(eng, i)) {
                Ok(id) => posted.push((id, sizes[i])),
                Err(e) => chk.fail(1, format!("post of message {i} failed: {e}")),
            }
        }
        let drained = tr.span("core.drain", || eng.drain());
        tr.end(root);
        steps_ns.push(t0.elapsed().as_nanos() as u64);
        chk.attempted += win.len() as u64;

        let mut done = match drained {
            Ok(done) => done,
            Err(e) => {
                chk.fail(posted.len() as u64, format!("drain at step {step} failed: {e}"));
                continue;
            }
        };
        done.sort_by_key(|c| c.id);
        let mut missing = 0;
        for &(id, size) in &posted {
            match done.binary_search_by_key(&id, |c| c.id) {
                Ok(k) if done[k].size == size => {
                    ok_msgs += 1;
                    ok_bytes += size;
                    hash = fnv(fnv(hash, id.0), done[k].delivered_at.as_nanos());
                }
                _ => missing += 1,
            }
        }
        if missing > 0 || done.len() != posted.len() || done.windows(2).any(|w| w[0].id == w[1].id)
        {
            chk.fail(
                missing.max(1),
                format!(
                    "step {step}: {} posted, {} completions, {missing} missing or resized",
                    posted.len(),
                    done.len()
                ),
            );
        }
    }

    let s = eng.stats();
    if (s.msgs_completed, s.bytes_completed) != (ok_msgs, ok_bytes) {
        chk.problem(format!(
            "engine stats report {} msgs / {} B completed, the benchmark saw {ok_msgs} / {ok_bytes}",
            s.msgs_completed, s.bytes_completed
        ));
    }
    let per_msg = |x: u64| x as f64 / s.msgs_completed.max(1) as f64;
    let makespan = eng.now();
    Pass {
        ops: ok_msgs,
        payload_bytes: ok_bytes,
        makespan_us: makespan.as_micros_f64(),
        steps_ns,
        hops: 0,
        fingerprint: format!(
            "makespan_ns={} msgs={} chunks={} packs={} aggregated={} retries={} corrupt={} \
             duplicates={} failovers={} quarantines={} completions={hash:016x}",
            makespan.as_nanos(),
            s.msgs_completed,
            s.chunks_submitted,
            s.packs_submitted,
            s.msgs_aggregated,
            s.retries,
            s.corrupt_chunks,
            s.duplicate_chunks_dropped,
            s.failovers,
            s.quarantines,
        ),
        counts: Counts {
            chunks_per_msg: per_msg(s.chunks_submitted),
            aggregated_share: per_msg(s.msgs_aggregated),
            retransmit_ratio: s.retransmitted_bytes as f64 / s.bytes_completed.max(1) as f64,
            retries: s.retries,
            corrupt_chunks: s.corrupt_chunks,
            duplicates_dropped: s.duplicate_chunks_dropped,
            ..Counts::default()
        },
    }
}

/// Fresh engine constructions timed per run for `setup_s` (~0.2 ms each).
const SETUPS: usize = 101;

/// `chaos_bytes`: the byte-moving path (framing, CRC32C, failover) under
/// recurring seeded fault windows.
pub struct ChaosBytes {
    seed: u64,
    sizes: Vec<u64>,
    offsets: Vec<usize>,
    buf: Bytes,
}

/// Messages posted per closed-loop step of `chaos_bytes`.
pub const CHAOS_WINDOW: usize = 4;
/// Smallest and largest `chaos_bytes` message.
const CHAOS_MIN: u64 = 4 << 10;
const CHAOS_MAX: u64 = 1 << 20;
/// Virtual-time period at which the fault windows recur.
pub const FAULT_PERIOD_US: u64 = 2_000;

impl ChaosBytes {
    /// `msgs` distinct sizes, log-uniform over 4 KiB..1 MiB with one size
    /// per quarter of the log range in each step, each a zero-copy slice at
    /// a seeded offset of one seeded buffer.
    pub fn new(seed: u64, msgs: usize) -> Self {
        let sizes = input::log_uniform_windows(seed, CHAOS_MIN, CHAOS_MAX, msgs, CHAOS_WINDOW);
        let buf = input::payload_buffer(seed, 2 * CHAOS_MAX as usize + msgs);
        let offsets = input::slice_offsets(seed, &sizes, buf.len());
        ChaosBytes { seed, sizes, offsets, buf }
    }

    /// Fault windows recurring every [`FAULT_PERIOD_US`] over the run's
    /// whole (estimated) virtual span. Each period holds, in five disjoint
    /// slots, payload corruption, header corruption, duplicates, a reorder
    /// storm and a rail outage, each on a seeded rail at a seeded offset.
    /// Slots never overlap, so one rail at a time is faulted and every
    /// chunk has a healthy rail to fail over to.
    pub fn schedule(&self) -> FaultSchedule {
        let mut rng = input::Rng::new(self.seed, 5);
        // ~2 GB/s over both rails; 2x margin for retries and outages.
        let est_us = 2 * self.sizes.iter().sum::<u64>() / 2_000 + FAULT_PERIOD_US;
        let slot = FAULT_PERIOD_US / 5;
        let mut schedule = FaultSchedule::new(self.seed);
        for base in (FAULT_PERIOD_US..est_us).step_by(FAULT_PERIOD_US as usize) {
            let kinds = [
                FaultKind::PayloadCorrupt { prob: 0.2, duration: us(slot / 2) },
                FaultKind::HeaderCorrupt { prob: 0.1, duration: us(slot / 2) },
                FaultKind::DuplicateChunk { prob: 0.2, duration: us(slot / 2) },
                FaultKind::ChunkReorderStorm { duration: us(slot / 4) },
                FaultKind::RailDown { duration: us(slot / 4) },
            ];
            for (k, kind) in kinds.into_iter().enumerate() {
                let at = base + k as u64 * slot + rng.below(slot / 4);
                let rail = RailId(rng.below(2) as usize);
                schedule = schedule.with(FaultSpec { rail, at: SimTime::from_micros(at), kind });
            }
        }
        schedule
    }
}

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

impl Workload for ChaosBytes {
    type State = Engine<FaultSimDriver>;

    fn setups(&self) -> usize {
        SETUPS
    }

    fn setup(&self, _traced: bool, tr: &mut Tracer, _chk: &mut Checks) -> Option<Self::State> {
        let spec = ClusterSpec::paper_testbed();
        let predictor = sample_predictor(&spec, tr)?;
        let schedule = tr.span("faults.schedule", || {
            let s = self.schedule();
            s.validate().map(|()| s)
        });
        let schedule = schedule.ok()?;
        let health = HealthConfig { max_retries: 8, ..HealthConfig::default() };
        tr.span("core.engine_new", || {
            let driver = FaultSimDriver::new(spec, schedule);
            Engine::new(driver, predictor, StrategyKind::HeteroSplit.build())
                .ok()?
                .with_integrity()
                .with_fault_tolerance(health)
                .ok()
        })
    }

    fn pass(&self, eng: &mut Self::State, tr: &mut Tracer, chk: &mut Checks) -> Pass {
        let (sizes, offsets, buf) = (&self.sizes, &self.offsets, &self.buf);
        let post = |e: &mut Engine<FaultSimDriver>, i: usize| {
            e.post_send_bytes(buf.slice(offsets[i]..offsets[i] + sizes[i] as usize))
        };
        let pass = drive(eng, sizes, post, tr, chk);
        if pass.counts.corrupt_chunks == 0 || pass.counts.retries == 0 {
            chk.problem(format!(
                "the fault path did not run: corrupt_chunks={} retries={}",
                pass.counts.corrupt_chunks, pass.counts.retries
            ));
        }
        pass
    }

    fn payload_sizes(&self) -> Vec<u64> {
        self.sizes.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }
}
