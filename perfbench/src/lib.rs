//! # nm-perfbench — the repository benchmark
//!
//! Two seeded, single-process, single-threaded, closed-loop workloads
//! over the engine crates (see `README.md` beside this package):
//! `chaos_bytes` and `collectives_32n`. An untraced run prints
//! the end-to-end metrics; a traced run (`--trace 1`) times each call into
//! a crate's public functions from here and prints the per-layer metrics.
//! No program code is changed or instrumented.

pub mod chaos;
pub mod coll;
pub mod input;
pub mod measure;
pub mod trace;

use measure::{Options, Outcome};

/// Workload names, as `--workload` takes them and `BENCHMARK.json` lists
/// them.
pub const WORKLOADS: [&str; 2] = ["chaos_bytes", "collectives_32n"];

/// Input size of each workload: full for the benchmark, small for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's fixed per-pass input.
    Full,
    /// A few steps, for the package's own tests.
    Small,
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, scale: Scale, opts: &Options) -> Option<Outcome> {
    let full = scale == Scale::Full;
    Some(match name {
        "chaos_bytes" => {
            measure::run(&chaos::ChaosBytes::new(opts.seed, if full { 1000 } else { 400 }), opts)
        }
        "collectives_32n" => {
            let w = if full {
                coll::Collectives32n::new(opts.seed, 32, 8)
            } else {
                coll::Collectives32n::new(opts.seed, 6, 4)
            };
            measure::run(&w, opts)
        }
        _ => return None,
    })
}
