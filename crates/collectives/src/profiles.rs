//! Per-pair predictors for an N-node cluster, derived by sampling.
//!
//! Profiles describe *rails*, not node counts: the time for `b` bytes
//! between two nodes depends only on which rails the pair shares. The bank
//! therefore samples one two-node twin cluster per distinct common-rail
//! set (natural + forced-eager profiles per rail, exactly what a session
//! does at init) and reuses it for every pair with that rail set — on a
//! homogeneous cluster that is a single sampling run however many nodes
//! exist.
//!
//! Pricing a DAG asks for the same few numbers over and over, so the bank
//! derives each once: a pair's rail set is resolved on its first hop, a
//! set's latency floor when the set is sampled, and a hop time once per
//! `(rail set, bytes)` — the last an exact memo of the equal-completion
//! split, capped at [`HOP_MEMO_CAP`] entries.

use nm_core::predictor::{Predictor, RailView};
use nm_core::split::equal_completion_split;
use nm_model::TransferMode;
use nm_sampler::{sample_rail, SampleTransport, SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, RailId};
use std::collections::HashMap;

/// Most `(rail set, bytes)` hop times the bank memoizes. A DAG prices
/// every hop at one or two sizes, so a workload's working set is a few
/// entries per operation shape; the cap only matters for callers that
/// price an unbounded stream of distinct sizes, and then the memo is
/// cleared wholesale (entries are exact, so eviction never changes a
/// result, only how often the split is recomputed).
pub const HOP_MEMO_CAP: usize = 4096;

/// Pair-table sentinel: the pair's rail set has not been resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// One distinct common-rail set with everything derived from it once.
struct RailSet {
    /// Physical rail indices, ascending.
    rails: Vec<usize>,
    /// Sampled predictor in the pair's dense local rail space.
    predictor: Predictor,
    /// Candidate list for the all-idle equal-completion split.
    idle: Vec<(RailId, f64)>,
    /// Latency floor (µs): the fastest rail's time at its smallest
    /// sampled size.
    latency_us: f64,
}

/// Sampled cost knowledge for every node pair of one cluster spec.
pub struct ProfileBank {
    spec: ClusterSpec,
    /// Distinct common-rail sets sampled so far, in first-use order.
    sets: Vec<RailSet>,
    /// `pairs[src * n + dst]`: index into `sets` of the pair's common-rail
    /// set, or [`UNRESOLVED`]. Resolving a pair once spares every later
    /// hop the rail-set intersection and its lookup.
    pairs: Vec<u32>,
    /// `hop_time_us` by `(set index, bytes)`: the exact `f64` the split
    /// returned, so a hit is bit-identical to recomputing it.
    hop_memo: HashMap<(u32, u64), f64>,
}

impl ProfileBank {
    /// An empty bank over `spec`; predictors are sampled lazily per
    /// distinct common-rail set.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.validate().is_ok(), "invalid cluster spec");
        let n = spec.nodes.len();
        ProfileBank {
            spec,
            sets: Vec::new(),
            pairs: vec![UNRESOLVED; n * n],
            hop_memo: HashMap::new(),
        }
    }

    /// The cluster spec this bank describes.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Distinct rail sets sampled so far (observability for tests/benches).
    pub fn sampled_sets(&self) -> usize {
        self.sets.len()
    }

    /// Hop times currently memoized (never above [`HOP_MEMO_CAP`]).
    pub fn memoized_hops(&self) -> usize {
        self.hop_memo.len()
    }

    /// Index of the `src -> dst` pair's common-rail set, sampling the set
    /// on first use. Panics when the pair shares no rail — the same
    /// condition the driver rejects.
    fn set_for_pair(&mut self, src: usize, dst: usize) -> usize {
        let slot = src * self.spec.nodes.len() + dst;
        let known = self.pairs[slot];
        if known != UNRESOLVED {
            return known as usize;
        }
        let rails = self.spec.common_rails(src, dst);
        assert!(!rails.is_empty(), "nodes {src} and {dst} share no rail");
        let set = match self.sets.iter().position(|s| s.rails == rails) {
            Some(set) => set,
            None => self.sample_set(rails),
        };
        self.pairs[slot] = set as u32;
        set
    }

    /// Samples one two-node twin cluster with only the shared links (local
    /// rail i of the pair is twin rail i) and interns the result.
    // nm-analyzer: allow(unbounded-growth) -- one entry per distinct rail set the topology
    // exposes, reached only when the linear search in set_for_pair misses
    fn sample_set(&mut self, rails: Vec<usize>) -> usize {
        let links = rails
            .iter()
            .map(|&r| self.spec.rails.get(r).expect("validated rail index").clone())
            .collect::<Vec<_>>();
        let twin = ClusterSpec::two_nodes(4, links.clone());
        let mut sampler = SimTransport::new(twin);
        // Sampler defaults (multi-iter, warmed): a 1-iter/0-warmup
        // config fed the predictor cold-cache outliers, skewing the
        // equal-completion splits and the crossover points the bench
        // pins.
        let cfg = SamplingConfig::default();
        let views = (0..sampler.rail_count())
            .map(|i| {
                let natural = sample_rail(&mut sampler, i, &cfg).expect("sampling");
                let eager_cfg = SamplingConfig { mode: Some(TransferMode::Eager), ..cfg.clone() };
                let eager = sample_rail(&mut sampler, i, &eager_cfg).expect("sampling");
                RailView {
                    rail: RailId(i),
                    name: sampler.rail_name(i).into(),
                    natural,
                    eager,
                    rdv_threshold: links.get(i).expect("twin rail").rdv_threshold,
                }
            })
            .collect();
        let predictor = Predictor::new(views);
        let idle = (0..predictor.rail_count()).map(|i| (RailId(i), 0.0)).collect();
        let latency_us = predictor
            .rails()
            .iter()
            .map(|r| r.natural.predict_us(r.natural.sampled_range().0))
            .fold(f64::INFINITY, f64::min);
        self.sets.push(RailSet { rails, predictor, idle, latency_us });
        self.sets.len() - 1
    }

    /// The predictor for the `src -> dst` pair, in the pair's dense local
    /// rail space (matching [`nm_core::driver::cluster::PairDriver`]).
    /// Panics when the pair shares no rail — the same condition the driver
    /// rejects.
    pub fn predictor_for_pair(&mut self, src: usize, dst: usize) -> Predictor {
        let set = self.set_for_pair(src, dst);
        self.sets[set].predictor.clone()
    }

    /// Predicted best-effort time (µs) for `bytes` between `src` and
    /// `dst`: the equal-completion split over every shared rail, all idle —
    /// what the engine's hetero-split achieves on an uncontended pair.
    /// Memoized per (rail set, bytes); see [`HOP_MEMO_CAP`].
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn hop_time_us(&mut self, src: usize, dst: usize, bytes: u64) -> f64 {
        let set = self.set_for_pair(src, dst);
        let key = (set as u32, bytes);
        if let Some(&t) = self.hop_memo.get(&key) {
            return t;
        }
        let s = &self.sets[set];
        let t = equal_completion_split(&s.predictor.natural_cost(), &s.idle, bytes.max(1))
            .completion_us;
        self.trim_hop_memo();
        // nm-analyzer: bounded(HOP_MEMO_CAP) -- trim_hop_memo() empties the memo once it holds the cap
        self.hop_memo.insert(key, t);
        t
    }

    /// Makes room for one more memo entry: a full memo is cleared.
    fn trim_hop_memo(&mut self) {
        if self.hop_memo.len() >= HOP_MEMO_CAP {
            self.hop_memo.clear();
        }
    }

    /// Predicted one-way latency floor (µs) of the pair: the fastest
    /// rail's time at the smallest sampled size. The DAG cost model uses
    /// `hop_time - hop_latency` as the sender-occupancy ("overhead") part
    /// of a hop.
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn hop_latency_us(&mut self, src: usize, dst: usize) -> f64 {
        let set = self.set_for_pair(src, dst);
        self.sets[set].latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::builtin;
    use nm_model::units::MIB;
    use nm_sim::NodeSpec;

    #[test]
    fn homogeneous_cluster_samples_one_twin() {
        let mut bank = ProfileBank::new(ClusterSpec::homogeneous(8, 4, builtin::paper_testbed()));
        let t01 = bank.hop_time_us(0, 1, MIB);
        let t56 = bank.hop_time_us(5, 6, MIB);
        assert_eq!(t01, t56, "identical pairs share one profile");
        assert_eq!(bank.sampled_sets(), 1);
        assert!(t01 > 0.0);
    }

    #[test]
    fn partial_rail_pairs_get_their_own_profile_and_are_slower() {
        let mut spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
        spec.nodes[3] = NodeSpec::with_cores(4).on_rails(vec![1]);
        let mut bank = ProfileBank::new(spec);
        let both_rails = bank.hop_time_us(0, 1, 4 * MIB);
        let one_rail = bank.hop_time_us(0, 3, 4 * MIB);
        assert_eq!(bank.sampled_sets(), 2);
        assert!(
            one_rail > 1.5 * both_rails,
            "single-rail pair must be much slower: {one_rail} vs {both_rails}"
        );
        let p = bank.predictor_for_pair(0, 3);
        assert_eq!(p.rail_count(), 1, "pair predictor lives in the local rail space");
    }

    /// SplitMix64: a fixed, dependency-free size stream for the property
    /// tests below.
    fn sizes(seed: u64, count: usize) -> Vec<u64> {
        let mut x = seed;
        (0..count)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                // Log-spread over 0 B .. 64 MiB so every protocol regime
                // and the zero-size clamp are exercised.
                (z ^ (z >> 31)) >> (z % 26 + 38)
            })
            .collect()
    }

    /// The unmemoized model: a fresh split over the pair's sampled
    /// predictor, and the floor scanned from its rails.
    fn direct(bank: &mut ProfileBank, src: usize, dst: usize, bytes: u64) -> (f64, f64) {
        let p = bank.predictor_for_pair(src, dst);
        let idle: Vec<(RailId, f64)> = (0..p.rail_count()).map(|i| (RailId(i), 0.0)).collect();
        let t = equal_completion_split(&p.natural_cost(), &idle, bytes.max(1)).completion_us;
        let l = p
            .rails()
            .iter()
            .map(|r| r.natural.predict_us(r.natural.sampled_range().0))
            .fold(f64::INFINITY, f64::min);
        (t, l)
    }

    #[test]
    fn memoized_hop_model_is_bit_equal_to_a_direct_split() {
        let homogeneous = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
        let mut partial = homogeneous.clone();
        partial.nodes[2] = NodeSpec::with_cores(4).on_rails(vec![1]);
        partial.nodes[3] = NodeSpec::with_cores(4).on_rails(vec![0]);
        for (spec, sets) in [(homogeneous, 1), (partial, 3)] {
            let mut bank = ProfileBank::new(spec);
            for (i, &bytes) in sizes(7, 400).iter().enumerate() {
                // Cycle over every pair that shares a rail; ask twice so
                // the second answer comes from the memo.
                let (src, dst) = [(0, 1), (1, 0), (0, 2), (2, 1), (3, 0), (1, 3)][i % 6];
                let (t, l) = direct(&mut bank, src, dst, bytes);
                for _ in 0..2 {
                    assert_eq!(
                        bank.hop_time_us(src, dst, bytes).to_bits(),
                        t.to_bits(),
                        "{bytes} B"
                    );
                    assert_eq!(bank.hop_latency_us(src, dst).to_bits(), l.to_bits());
                }
            }
            assert_eq!(bank.sampled_sets(), sets, "the memo samples nothing extra");
        }
    }

    #[test]
    fn hop_memo_stays_within_its_cap() {
        let mut bank = ProfileBank::new(ClusterSpec::homogeneous(2, 4, builtin::paper_testbed()));
        let first = bank.hop_time_us(0, 1, 1);
        let mut peak = 0;
        for bytes in 2..=(HOP_MEMO_CAP as u64 + HOP_MEMO_CAP as u64 / 2) {
            bank.hop_time_us(0, 1, bytes);
            peak = peak.max(bank.memoized_hops());
        }
        assert_eq!(peak, HOP_MEMO_CAP, "the memo fills up to its cap and no further");
        assert!(bank.memoized_hops() < HOP_MEMO_CAP, "a full memo was cleared");
        assert_eq!(bank.hop_time_us(0, 1, 1).to_bits(), first.to_bits(), "eviction is exact");
    }

    #[test]
    fn latency_floor_is_below_any_transfer_time() {
        let mut bank = ProfileBank::new(ClusterSpec::homogeneous(2, 4, builtin::paper_testbed()));
        let lat = bank.hop_latency_us(0, 1);
        assert!(lat > 0.0 && lat < bank.hop_time_us(0, 1, 64 * 1024), "{lat}");
    }
}
