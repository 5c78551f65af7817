//! Statistics, process memory, output checks and the generic run loop every
//! workload goes through.
//!
//! A run is closed-loop *passes* over the workload's fixed seeded input
//! until `--seconds` have elapsed and at least [`MIN_STEPS`] steps were
//! timed, with `setups()` timed fresh constructions spread evenly over it
//! (their median is `setup_s`). Every pass starts from a freshly
//! built state, so the engine's per-message memory growth never accumulates
//! across passes and run length, for memory, is counted in operations.
//! With tracing on, passes alternate untraced/traced so the same run also
//! gives the tracing overhead.

use crate::trace::{to_tsv, Agg, Span, Tracer};
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measuring time: passes repeat until it has elapsed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Correctness bookkeeping. A failed check counts as a failed operation.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Checks {
    /// Records `n` failed operations.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        self.failed += n;
        if self.problems.len() < 16 {
            self.problems.push(what.into());
        }
    }

    /// Records a run-level check failure (not tied to one operation).
    pub fn problem(&mut self, what: impl Into<String>) {
        self.fail(0, what);
    }

    /// No failed operation and no failed check.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// What one closed-loop pass over the workload's input produced.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Operations completed.
    pub ops: u64,
    /// Application payload completed (bytes).
    pub payload_bytes: u64,
    /// Virtual (simulated) time the pass took (µs).
    pub makespan_us: f64,
    /// Wall-clock latency of each closed-loop step (ns).
    pub steps_ns: Vec<u64>,
    /// Collective hops executed (0 for point-to-point workloads).
    pub hops: u64,
    /// Deterministic summary: must repeat bit-for-bit for one seed.
    pub fingerprint: String,
    /// Per-layer counts read from the program's stats.
    pub counts: Counts,
}

/// Per-layer counts read from the program's own stats after a pass. They
/// repeat exactly for one seed. Zero where a workload bypasses the layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Chunks submitted per completed message.
    pub chunks_per_msg: f64,
    /// Share of messages that travelled inside an aggregate pack.
    pub aggregated_share: f64,
    /// Retransmitted payload bytes per completed payload byte.
    pub retransmit_ratio: f64,
    /// Chunk resubmissions.
    pub retries: u64,
    /// Chunks whose integrity check failed on delivery.
    pub corrupt_chunks: u64,
    /// Duplicate deliveries recognised and dropped.
    pub duplicates_dropped: u64,
    /// Collective hops executed per operation.
    pub hops_per_op: f64,
    /// Peak length of the runner's flow-held completion queue.
    pub retry_queue_peak: u64,
}

/// A workload: seeded input plus how to build and drive the system on it.
pub trait Workload {
    /// What one construction builds.
    type State;
    /// Fresh constructions timed for `setup_s`.
    fn setups(&self) -> usize;
    /// Builds the system (engine, cluster, ...), ready for a pass; a
    /// `traced` one for a traced pass, where the workload drives a
    /// call-for-call copy of an entry point it cannot trace into.
    fn setup(&self, traced: bool, tr: &mut Tracer, chk: &mut Checks) -> Option<Self::State>;
    /// One closed-loop pass over the whole input.
    fn pass(&self, st: &mut Self::State, tr: &mut Tracer, chk: &mut Checks) -> Pass;
    /// The payload sizes, in order, that the protocol layer is timed on.
    fn payload_sizes(&self) -> Vec<u64>;
    /// Seed of the payload bytes.
    fn seed(&self) -> u64;
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Metrics (end-to-end, or per-layer for a traced run).
    pub metrics: Vec<Metric>,
    /// Fingerprint of the (identical) passes.
    pub fingerprint: String,
    /// Untraced passes, traced passes, setups.
    pub passes: (usize, usize, usize),
    /// The recorded spans to write out (traced runs only).
    pub spans: Vec<Span>,
}

/// Linear-interpolated quantile of sorted values.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A `kB` field of `/proc/self/status`, in bytes (0 where unavailable).
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Current resident memory (bytes).
fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// Peak resident memory (bytes).
fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM:")
}

const MIB: f64 = 1024.0 * 1024.0;

/// Untraced steps a run times at least, whatever `--seconds` says, so the
/// step quantiles rest on at least 100 samples (ten beyond p90).
pub const MIN_STEPS: usize = 100;

/// Figures of the passes of one kind (untraced or traced). Throughputs are
/// totals over all passes: the machine moves between fast and slow spells
/// that last many passes, and a median over passes jumped between the two
/// speeds where the total moves with the share of time spent in each. Step
/// quantiles pool every step of every pass; per-pass quantiles were tried
/// and their median flipped between the spells.
#[derive(Default)]
struct Rates {
    passes: usize,
    wall_s: f64,
    steps_ns: Vec<u64>,
    ops: u64,
    payload_bytes: u64,
    hops: u64,
}

impl Rates {
    fn add(&mut self, p: &Pass, wall_s: f64) {
        self.passes += 1;
        self.wall_s += wall_s;
        self.steps_ns.extend_from_slice(&p.steps_ns);
        self.ops += p.ops;
        self.payload_bytes += p.payload_bytes;
        self.hops += p.hops;
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    fn mib_per_s(&self) -> f64 {
        self.payload_bytes as f64 / MIB / self.wall_s
    }
}

/// One timed construction, right after an untimed one; its spans (traced
/// runs) go to `agg` and `keep`.
fn timed_setup<W: Workload>(
    w: &W,
    traced: bool,
    tr: &mut Tracer,
    chk: &mut Checks,
    times: &mut Vec<f64>,
    agg: &mut Agg,
    keep: &mut Vec<Span>,
) -> Option<W::State> {
    // An untimed set-up first: the timed one then follows the drop of a
    // state of its own size, not of a pass's grown engine, after which a
    // set-up ran ~15-30 % slower and more erratically.
    drop(w.setup(traced, &mut Tracer::new(false), chk));
    tr.set_step(times.len() as u32);
    let t0 = Instant::now();
    let root = tr.begin("setup");
    let state = w.setup(traced, tr, chk);
    tr.end(root);
    times.push(t0.elapsed().as_secs_f64());
    let spans = tr.take();
    agg.absorb(&spans);
    keep.extend(spans);
    if state.is_none() {
        chk.fail(1, "set-up failed");
    }
    state
}

/// Runs `w` under `opts`: timed set-ups, passes, and (traced) the
/// protocol-layer timing, then assembles the metrics.
pub fn run<W: Workload>(w: &W, opts: &Options) -> Outcome {
    let mut chk = Checks::default();
    let mut tr = Tracer::new(false);
    let mut spans = Vec::new();
    let mut setup_s = Vec::with_capacity(w.setups());
    let mut setup_agg = Agg::default();
    let mut pass_agg = Agg::default();
    let mut untraced = Rates::default();
    let mut traced = Rates::default();
    let mut first: Option<Pass> = None;
    let mut growth_b_per_op = 0.0;
    // Read after the first pass: later passes repeat its work on a fresh
    // build, and their allocator history should not move the figure.
    let mut peak_rss = 0;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);

    loop {
        // The timed set-ups are spread evenly over the measuring time, so
        // machine-speed drift within a run reaches them as it reaches the
        // passes. A pass that follows no timed set-up builds untimed.
        let due = (w.setups() as f64 * started.elapsed().as_secs_f64() / opts.seconds).ceil();
        let due = (due as usize).clamp(1, w.setups());
        let trace_this = opts.trace && untraced.passes > traced.passes;
        let mut state = None;
        tr.set_on(opts.trace);
        while setup_s.len() < due {
            drop(state.take());
            state = timed_setup(
                w,
                opts.trace,
                &mut tr,
                &mut chk,
                &mut setup_s,
                &mut setup_agg,
                &mut spans,
            );
            if state.is_none() {
                break;
            }
        }
        tr.set_on(false);
        // A traced run times traced set-ups; its untraced passes build
        // their own.
        if trace_this != opts.trace {
            drop(state.take());
        }
        let Some(mut st) = state.or_else(|| w.setup(trace_this, &mut tr, &mut chk)) else {
            chk.fail(1, "set-up failed");
            break;
        };
        let rss_after_setup = rss_bytes();

        tr.set_on(trace_this);
        let t0 = Instant::now();
        let pass = w.pass(&mut st, &mut tr, &mut chk);
        let wall_s = t0.elapsed().as_secs_f64();
        if first.is_none() {
            let grown = rss_bytes().saturating_sub(rss_after_setup);
            growth_b_per_op = grown as f64 / pass.ops.max(1) as f64;
            peak_rss = peak_rss_bytes();
        }
        drop(st);
        if trace_this {
            let s = tr.take();
            pass_agg.absorb(&s);
            if traced.passes == 0 {
                spans.extend(s);
            }
            traced.add(&pass, wall_s);
        } else {
            untraced.add(&pass, wall_s);
        }
        match &first {
            None => first = Some(pass),
            Some(f) if f.fingerprint != pass.fingerprint => {
                chk.problem("passes over the same input disagree: the run is not deterministic")
            }
            Some(_) => {}
        }
        // A run that cannot time MIN_STEPS steps in twice its budget stops
        // anyway: the benchmark must end.
        let elapsed = started.elapsed();
        let steps_ok = untraced.steps_ns.len() >= MIN_STEPS || elapsed >= 2 * budget;
        if elapsed >= budget && steps_ok && (!opts.trace || traced.passes > 0) {
            break;
        }
    }
    tr.set_on(opts.trace);
    while setup_s.len() < w.setups() && chk.ok() {
        let st =
            timed_setup(w, opts.trace, &mut tr, &mut chk, &mut setup_s, &mut setup_agg, &mut spans);
        drop(st);
    }

    let first = first.unwrap_or_default();
    let metrics = if opts.trace {
        let (proto_agg, proto_mib) = time_proto(w, &mut tr, &mut chk);
        spans.extend(tr.take().into_iter().take(4096));
        let ctx = LayerCtx {
            setup: &setup_agg,
            setups: setup_s.len(),
            agg: &pass_agg,
            proto: &proto_agg,
            proto_mib,
        };
        layer_metrics(&ctx, &untraced, &traced, growth_b_per_op, &first.counts)
    } else {
        end_to_end_metrics(&setup_s, &untraced, &first, peak_rss)
    };
    Outcome {
        checks: chk,
        metrics,
        fingerprint: first.fingerprint,
        passes: (untraced.passes, traced.passes, setup_s.len()),
        spans,
    }
}

fn end_to_end_metrics(setup_s: &[f64], r: &Rates, first: &Pass, peak_rss: u64) -> Vec<Metric> {
    let mut steps = r.steps_ns.clone();
    steps.sort_unstable();
    let goodput = if first.makespan_us > 0.0 {
        first.payload_bytes as f64 / MIB / (first.makespan_us / 1e6)
    } else {
        0.0
    };
    let n = r.passes;
    let m = |name, value, unit, samples| Metric { name, value, unit, samples };
    vec![
        m("setup_s", median(setup_s), "s", setup_s.len()),
        m("ops_per_s", r.ops_per_s(), "1/s", n),
        m("step_p50_us", quantile_sorted(&steps, 0.5) / 1e3, "us", steps.len()),
        m("step_p90_us", quantile_sorted(&steps, 0.9) / 1e3, "us", steps.len()),
        m("payload_mib_per_s", r.mib_per_s(), "MiB/s", n),
        m("modeled_goodput_mib_per_s", goodput, "MiB/s", n),
        m("peak_rss_mib", peak_rss as f64 / MIB, "MiB", 1),
    ]
}

/// Bytes the protocol layer is timed on per traced run.
const PROTO_BYTES: u64 = 32 << 20;

/// Times `Packet::encode`, `Packet::decode` and `crc32c` on the
/// workload's own payload sequence (integrity framing, as the byte path
/// uses it), checking every round trip. Returns the span totals and the
/// MiB framed.
fn time_proto<W: Workload>(w: &W, tr: &mut Tracer, chk: &mut Checks) -> (Agg, f64) {
    use nm_proto::{crc32c, Packet, PacketHeader, PacketKind};
    let all = w.payload_sizes();
    let mut sizes = Vec::new();
    let mut total = 0u64;
    for &s in all.iter().cycle().take(all.len().max(1) * 64) {
        if total >= PROTO_BYTES {
            break;
        }
        sizes.push(s);
        total += s;
    }
    let max = sizes.iter().copied().max().unwrap_or(1) as usize;
    let buf = crate::input::payload_buffer(w.seed(), 2 * max);
    let offsets = crate::input::slice_offsets(w.seed(), &sizes, buf.len());
    tr.set_on(true);
    let mut agg = Agg::default();
    for (i, (&size, &off)) in sizes.iter().zip(&offsets).enumerate() {
        tr.set_step(i as u32);
        let header = PacketHeader {
            kind: PacketKind::Eager,
            flow: 0,
            msg_id: i as u64,
            offset: 0,
            total_len: size,
            chunk_index: 0,
            payload_len: 0,
        };
        let packet = Packet::new(header, buf.slice(off..off + size as usize)).with_integrity(true);
        let root = tr.begin("proto");
        let mut wire = tr.span("proto.encode", || packet.encode());
        let decoded = tr.span("proto.decode", || Packet::decode(&mut wire));
        let crc = tr.span("proto.crc32c", || crc32c(&packet.payload));
        tr.end(root);
        if decoded.as_ref() != Ok(&packet) || std::hint::black_box(crc) == 0 && size > 0 {
            chk.problem(format!("protocol round trip of a {size}-byte payload failed"));
        }
    }
    agg.absorb(tr.spans());
    (agg, total as f64 / MIB)
}

/// Span totals of the set-ups, the traced passes and the protocol timing.
struct LayerCtx<'a> {
    setup: &'a Agg,
    setups: usize,
    agg: &'a Agg,
    proto: &'a Agg,
    proto_mib: f64,
}

fn layer_metrics(
    ctx: &LayerCtx<'_>,
    untraced: &Rates,
    traced: &Rates,
    growth_b_per_op: f64,
    c: &Counts,
) -> Vec<Metric> {
    let (setup, agg, proto) = (ctx.setup, ctx.agg, ctx.proto);
    let k = ctx.setups.max(1) as f64;
    let n = traced.passes;
    let per_op_us = |ns: u64| ns as f64 / 1e3 / traced.ops.max(1) as f64;
    let post_ns = agg.total_ns("core.post_send_bytes");
    let share = |ns: u64| ns as f64 / agg.step_ns.max(1) as f64;
    let self_per_op = |layer: &str| per_op_us(agg.self_ns.get(layer).copied().unwrap_or(0));
    let proto_per_mib = |name: &str| proto.total_ns(name) as f64 / 1e3 / ctx.proto_mib;
    let packets = proto.by_name.get("proto").map_or(0, |a| a.count as usize);
    let m = |name, value, unit, samples| Metric { name, value, unit, samples };
    vec![
        m(
            "sampler.sample_s",
            setup.self_ns.get("sampler").copied().unwrap_or(0) as f64 / 1e9 / k,
            "s",
            ctx.setups,
        ),
        m("setup.warmup_s", setup.total_ns("setup.warmup") as f64 / 1e9 / k, "s", ctx.setups),
        m(
            "faults.schedule_us",
            setup.total_ns("faults.schedule") as f64 / 1e3 / k,
            "us",
            ctx.setups,
        ),
        m("core.post_us", agg.p50_ns("core.post_send_bytes") / 1e3, "us", n),
        m("core.drain_us", agg.p50_ns("core.drain") / 1e3, "us", n),
        m("core.post_share", share(post_ns), "share", n),
        m("proto.encode_us_per_mib", proto_per_mib("proto.encode"), "us/MiB", packets),
        m("proto.decode_us_per_mib", proto_per_mib("proto.decode"), "us/MiB", packets),
        m(
            "proto.crc32c_mib_per_s",
            1e6 / proto_per_mib("proto.crc32c").max(1e-9),
            "MiB/s",
            packets,
        ),
        m("schedule.dag_us", per_op_us(agg.total_ns("schedule.dag")), "us", n),
        m("cost.predict_us", per_op_us(agg.total_ns("cost.predict")), "us", n),
        m(
            "select.choose_us",
            per_op_us(agg.total_ns("select.choose") + agg.total_ns("select.record")),
            "us",
            n,
        ),
        m("runner.run_ms", per_op_us(agg.total_ns("runner.run")) / 1e3, "ms", n),
        m(
            "runner.us_per_hop",
            agg.total_ns("runner.run") as f64 / 1e3 / traced.hops.max(1) as f64,
            "us",
            n,
        ),
        m("mem.growth_b_per_op", growth_b_per_op, "B", 1),
        m("trace.span_coverage", share(agg.step_covered_ns), "share", n),
        m(
            "trace.overhead_ops_per_s",
            traced.ops_per_s() - untraced.ops_per_s(),
            "1/s",
            n + untraced.passes,
        ),
        m("selftime.bench_us_per_op", self_per_op("step"), "us", n),
        m("selftime.core_us_per_op", self_per_op("core"), "us", n),
        m("selftime.schedule_us_per_op", self_per_op("schedule"), "us", n),
        m("selftime.cost_us_per_op", self_per_op("cost"), "us", n),
        m("selftime.select_us_per_op", self_per_op("select"), "us", n),
        m("selftime.runner_us_per_op", self_per_op("runner"), "us", n),
        // Program counts: every pass repeats them exactly.
        m("core.chunks_per_msg", c.chunks_per_msg, "count", 1),
        m("core.aggregated_share", c.aggregated_share, "share", 1),
        m("core.retransmit_ratio", c.retransmit_ratio, "share", 1),
        m("core.retries", c.retries as f64, "count", 1),
        m("core.corrupt_chunks", c.corrupt_chunks as f64, "count", 1),
        m("core.duplicates_dropped", c.duplicates_dropped as f64, "count", 1),
        m("runner.hops_per_op", c.hops_per_op, "count", 1),
        m("runner.retry_queue_peak", c.retry_queue_peak as f64, "count", 1),
    ]
}

/// Writes the spans as TSV to `dir/trace-<workload>-seed<seed>.tsv`.
pub fn write_spans(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.tsv"));
    std::fs::write(&path, to_tsv(spans))?;
    Ok(path)
}
