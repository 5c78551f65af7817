//! The benchmark's own checks: a seed's run repeats bit for bit, another
//! seed gives other inputs, tracing changes no work, the traced collectives
//! stack makes the same calls as `Collectives::run`, and every workload of
//! `BENCHMARK.json` reports exactly its metric names.

use nm_collectives::{Collective, Collectives};
use nm_perfbench::coll::{spec, Stack};
use nm_perfbench::measure::Options;
use nm_perfbench::trace::Tracer;
use nm_perfbench::{run, Scale, WORKLOADS};

/// One small pass of `name`; fails the test on any failed check.
fn fingerprint(name: &str, seed: u64, trace: bool) -> String {
    let opts = Options { seed, seconds: 1e-3, trace };
    let out = run(name, Scale::Small, &opts).expect("known workload");
    assert!(out.checks.ok(), "{name} seed {seed}: {:?}", out.checks.problems);
    assert!(out.checks.attempted > 0);
    out.fingerprint
}

#[test]
fn a_seed_repeats_bit_for_bit_and_another_seed_differs() {
    for name in WORKLOADS {
        let a = fingerprint(name, 11, false);
        assert_eq!(a, fingerprint(name, 11, false), "{name}: seed 11 must repeat");
        assert_ne!(a, fingerprint(name, 12, false), "{name}: seeds 11 and 12 must differ");
    }
}

#[test]
fn tracing_does_the_same_work() {
    for name in WORKLOADS {
        assert_eq!(fingerprint(name, 5, false), fingerprint(name, 5, true), "{name}");
    }
}

#[test]
fn stack_selects_and_measures_like_collectives_run() {
    let nodes = 8;
    let mut facade = Collectives::new(spec(nodes));
    let mut stack = Stack::new(nodes);
    let mut tr = Tracer::new(true);
    for round in 0..4u64 {
        for (c, bytes) in [
            (Collective::Barrier, 1),
            (Collective::Broadcast, (1 << 20) - round),
            (Collective::AllToAll, (16 << 10) - round),
        ] {
            let want = facade.run(c, bytes).expect("facade run");
            let got = stack.run_op(c, bytes, &mut tr).expect("stack run");
            assert_eq!((got.algorithm, got.measured_us), (want.algorithm, want.measured_us));
        }
    }
}

#[test]
fn every_benchmark_json_metric_is_reported() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    };
    assert_eq!(section("workloads"), WORKLOADS, "BENCHMARK.json lists every workload");
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = section(key);
        let opts = Options { seed: 1, seconds: 1e-3, trace };
        for w in section("workloads") {
            let out = run(&w, Scale::Small, &opts).expect("known workload");
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{w}: {key} metrics must match BENCHMARK.json, in order");
        }
    }
}
