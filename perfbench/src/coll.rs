//! `collectives_32n`: 32 nodes x 4 cores on the paper rails, one
//! collective per closed-loop step, cycling barrier, broadcast of ~1 MiB
//! and all-to-all of ~16 KiB blocks.
//!
//! Untraced passes call the crate's entry point, `Collectives::run`. A
//! traced pass cannot see inside it, so it drives a [`Stack`] instead,
//! which makes, one for one, the calls `Collectives::run` makes on a
//! healthy cluster (predict both variants, choose, predict again, compile,
//! run, record), each in its own span; the package's tests pin that both
//! paths select and measure identically.

use crate::input::Rng;
use crate::measure::{Checks, Counts, Pass, Workload};
use crate::trace::Tracer;
use nm_collectives::{
    cost, Algorithm, Collective, CollectiveCluster, Collectives, OpRecord, ProfileBank, Selector,
    BARRIER_BYTES,
};
use nm_model::builtin;
use nm_sim::ClusterSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// `nodes` nodes of 4 cores each on the paper rails.
pub fn spec(nodes: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(nodes, 4, builtin::paper_testbed())
}

/// The pieces `Collectives` bundles, held directly so each call is visible.
pub struct Stack {
    runner: CollectiveCluster,
    bank: ProfileBank,
    selector: Selector,
    nodes: usize,
}

/// What one executed operation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// The variant selection chose.
    pub algorithm: Algorithm,
    /// Simulated makespan (µs).
    pub measured_us: f64,
    /// Hops executed.
    pub hops: u64,
    /// Payload moved by the executed DAG (bytes).
    pub bytes: u64,
    /// Peak flow-held completion queue.
    pub retry_queue_peak: u64,
}

impl Stack {
    /// A fresh healthy `nodes`-node cluster (see [`spec`]).
    pub fn new(nodes: usize) -> Self {
        let spec = spec(nodes);
        Stack {
            runner: CollectiveCluster::new(spec.clone()),
            bank: ProfileBank::new(spec),
            selector: Selector::new(),
            nodes,
        }
    }

    /// Runs `collective` with the prediction-chosen variant and checks that
    /// every hop of the compiled DAG was delivered.
    pub fn run_op(
        &mut self,
        collective: Collective,
        bytes: u64,
        tr: &mut Tracer,
    ) -> Result<OpOutcome, String> {
        let nodes = self.nodes;
        let mut candidates = Vec::with_capacity(2);
        for a in collective.algorithms() {
            let dag = tr.span("schedule.dag", || a.dag(nodes, bytes));
            let predicted = tr.span("cost.predict", || cost::predict_dag_us(&mut self.bank, &dag));
            candidates.push((a, predicted));
        }
        let selector = &self.selector;
        let (algorithm, _) = tr
            .span("select.choose", || selector.choose(&candidates))
            .ok_or("no algorithm candidates")?;
        let dag = tr.span("schedule.dag", || algorithm.dag(nodes, bytes));
        let predicted_us = tr.span("cost.predict", || cost::predict_dag_us(&mut self.bank, &dag));
        let dag = tr.span("schedule.dag", || algorithm.dag(nodes, bytes));
        let result = tr.span("runner.run", || self.runner.run(&mut self.bank, &dag))?;
        let record = OpRecord {
            collective,
            algorithm,
            nodes,
            bytes,
            predicted_us,
            measured_us: result.duration_us,
        };
        tr.span("select.record", || self.selector.record(record));

        let delivered = result.deliveries.iter().filter(|d| d.is_some()).count();
        if result.hops.len() != dag.hops.len() || delivered != dag.hops.len() {
            return Err(format!(
                "{}: DAG has {} hops, {} executed, {delivered} delivered",
                algorithm.name(),
                dag.hops.len(),
                result.hops.len()
            ));
        }
        Ok(OpOutcome {
            algorithm,
            measured_us: result.duration_us,
            hops: dag.hops.len() as u64,
            bytes: dag.total_bytes(),
            retry_queue_peak: result.stats.retry_queue_peak as u64,
        })
    }
}

/// What a pass drives: the crate's entry point, or, for a traced pass, the
/// same calls made one by one.
pub enum System {
    /// `Collectives::run`, as a user calls it.
    Facade(Collectives),
    /// The calls of `Collectives::run`, each in its own span.
    Traced(Stack),
}

impl System {
    /// Current virtual time (ns).
    fn now_ns(&self) -> u64 {
        match self {
            System::Facade(c) => c.runner().now().as_nanos(),
            System::Traced(s) => s.runner.now().as_nanos(),
        }
    }

    /// Runs `op`. `CollectiveCluster::run` returns `Ok` on a healthy
    /// cluster only once every hop of the DAG was delivered; the facade's
    /// repair counters must also read zero, and the hop count and payload
    /// are those of the chosen variant's DAG.
    fn run_op(&mut self, op: &Op, tr: &mut Tracer) -> Result<OpOutcome, String> {
        let done = match self {
            System::Traced(s) => return s.run_op(op.collective, op.bytes, tr),
            System::Facade(c) => c.run(op.collective, op.bytes)?,
        };
        let st = done.stats;
        if (st.hops_retried, st.hops_rerouted, st.repairs, st.dead_nodes) != (0, 0, 0, 0) {
            return Err(format!("repair ran on a healthy cluster: {st:?}"));
        }
        let &(_, hops, bytes) = op
            .shapes
            .iter()
            .find(|s| s.0 == done.algorithm)
            .ok_or_else(|| format!("{:?} is not a candidate", done.algorithm))?;
        Ok(OpOutcome {
            algorithm: done.algorithm,
            measured_us: done.measured_us,
            hops,
            bytes,
            retry_queue_peak: st.retry_queue_peak as u64,
        })
    }
}

/// The operation cycle: barrier, broadcast, all-to-all.
const CYCLE: [Collective; 3] = [Collective::Barrier, Collective::Broadcast, Collective::AllToAll];
const BCAST_BYTES: u64 = 1 << 20;
const ALLTOALL_BYTES: u64 = 16 << 10;

/// One step's operation.
pub struct Op {
    collective: Collective,
    bytes: u64,
    /// (variant, DAG hops, DAG payload bytes) of each candidate variant,
    /// compiled once when the input is made, outside any timing.
    shapes: Vec<(Algorithm, u64, u64)>,
}

/// `collectives_32n`.
pub struct Collectives32n {
    seed: u64,
    nodes: usize,
    ops: Vec<Op>,
}

impl Collectives32n {
    /// `cycles` rounds of the operation cycle on `nodes` nodes. Sizes sit
    /// a seeded amount below nominal (under 1/256 of it), drawn once per
    /// cycle, so every seed runs its own inputs at the same scale.
    pub fn new(seed: u64, nodes: usize, cycles: usize) -> Self {
        let mut rng = Rng::new(seed, 6);
        let ops = (0..cycles)
            .flat_map(|_| {
                let bcast = BCAST_BYTES - rng.below(BCAST_BYTES / 256);
                let a2a = ALLTOALL_BYTES - rng.below(ALLTOALL_BYTES / 256);
                CYCLE.into_iter().zip([1, bcast, a2a])
            })
            .map(|(collective, bytes)| {
                let shapes = collective
                    .algorithms()
                    .into_iter()
                    .map(|a| {
                        let dag = a.dag(nodes, bytes);
                        (a, dag.hops.len() as u64, dag.total_bytes())
                    })
                    .collect();
                Op { collective, bytes, shapes }
            })
            .collect();
        Collectives32n { seed, nodes, ops }
    }

    /// Ops of the warm-up round: the first cycle.
    fn warmup(&self) -> &[Op] {
        &self.ops[..CYCLE.len().min(self.ops.len())]
    }
}

impl Workload for Collectives32n {
    type State = System;

    /// A set-up takes ~0.2–0.3 s and swings with the machine's speed
    /// spells, so several are spread over the run.
    fn setups(&self) -> usize {
        9
    }

    /// Builds the system and runs one warm-up round, which creates every
    /// pair engine. For a traced pass it also samples the rail set up
    /// front (the first `predictor_for_pair` call; later ones hit the
    /// bank's cache), so that call has a span of its own; the facade makes
    /// it inside its first operation.
    fn setup(&self, traced: bool, tr: &mut Tracer, chk: &mut Checks) -> Option<System> {
        let mut sys = if traced {
            let mut st = tr.span("runner.new", || Stack::new(self.nodes));
            let bank = &mut st.bank;
            tr.span("sampler.predictor_for_pair", || bank.predictor_for_pair(0, 1));
            System::Traced(st)
        } else {
            System::Facade(Collectives::new(spec(self.nodes)))
        };
        let root = tr.begin("setup.warmup");
        for op in self.warmup() {
            if let Err(e) = sys.run_op(op, tr) {
                chk.problem(format!("warm-up {}: {e}", op.collective.name()));
                tr.end(root);
                return None;
            }
        }
        tr.end(root);
        Some(sys)
    }

    fn pass(&self, sys: &mut System, tr: &mut Tracer, chk: &mut Checks) -> Pass {
        let start_ns = sys.now_ns();
        let mut pass = Pass { steps_ns: Vec::with_capacity(self.ops.len()), ..Pass::default() };
        let mut algos: BTreeMap<String, u64> = BTreeMap::new();
        let mut peak = 0;
        for (step, op) in self.ops.iter().enumerate() {
            tr.set_step(step as u32);
            chk.attempted += 1;
            let t0 = Instant::now();
            let root = tr.begin("step");
            let out = sys.run_op(op, tr);
            tr.end(root);
            pass.steps_ns.push(t0.elapsed().as_nanos() as u64);
            match out {
                Ok(done) => {
                    pass.ops += 1;
                    pass.hops += done.hops;
                    pass.payload_bytes += done.bytes;
                    peak = peak.max(done.retry_queue_peak);
                    *algos.entry(format!("{:?}", done.algorithm)).or_default() += 1;
                }
                Err(e) => chk.fail(1, format!("step {step} {}: {e}", op.collective.name())),
            }
        }
        let makespan_ns = sys.now_ns() - start_ns;
        pass.makespan_us = makespan_ns as f64 / 1e3;
        pass.fingerprint = format!(
            "makespan_ns={} ops={} hops={} bytes={} algorithms={algos:?}",
            makespan_ns, pass.ops, pass.hops, pass.payload_bytes,
        );
        pass.counts = Counts {
            hops_per_op: pass.hops as f64 / pass.ops.max(1) as f64,
            retry_queue_peak: peak,
            ..Counts::default()
        };
        pass
    }

    fn payload_sizes(&self) -> Vec<u64> {
        self.ops
            .iter()
            .map(|op| if op.collective == Collective::Barrier { BARRIER_BYTES } else { op.bytes })
            .collect()
    }

    fn seed(&self) -> u64 {
        self.seed
    }
}
