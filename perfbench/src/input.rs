//! Seeded input generation. Everything a workload feeds the engine comes
//! from here, derived from the `--seed` argument alone: the same seed gives
//! the same inputs on every machine.

use bytes::Bytes;

/// SplitMix64: small, fast and fully specified, so inputs never depend on
/// an external RNG crate's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two inputs of
    /// one workload do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// `n` distinct sizes, log-uniform over `[min, max)`, in seeded windows
/// of `window` messages; `n` must be a multiple of `window`.
///
/// Stratified twice: draw `i` falls in the `i`-th of `n` equal slices of
/// the log range, and each window takes one size from each of `window`
/// equal bands of it. Every seed then moves nearly the same bytes and every
/// window a similar load, so step-latency quantiles do not hinge on which
/// sizes a seed happened to group, while each size is still new (every
/// split decision runs cold) and order within a window is seeded.
pub fn log_uniform_windows(seed: u64, min: u64, max: u64, n: usize, window: usize) -> Vec<u64> {
    assert!(window > 0 && n.is_multiple_of(window), "{n} messages do not fill windows of {window}");
    let mut rng = Rng::new(seed, 2);
    let span = (max as f64 / min as f64).ln();
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let q = (i as f64 + rng.unit()) / n as f64;
            (min as f64 * (span * q).exp()) as u64
        })
        .collect();
    // Slices are ascending, so a collision can only be with the previous
    // draw; nudging it up keeps the order and makes every size unique.
    for i in 1..sizes.len() {
        if sizes[i] <= sizes[i - 1] {
            sizes[i] = sizes[i - 1] + 1;
        }
    }
    let per_band = n / window;
    let mut bands: Vec<Vec<u64>> = sizes.chunks(per_band).map(<[u64]>::to_vec).collect();
    for band in &mut bands {
        rng.shuffle(band);
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..per_band {
        let start = out.len();
        out.extend(bands.iter().map(|b| b[i]));
        rng.shuffle(&mut out[start..]);
    }
    out
}

/// One seeded buffer of `len` bytes. Payloads are zero-copy slices of it,
/// so the process's memory is the program's, not the inputs'.
pub fn payload_buffer(seed: u64, len: usize) -> Bytes {
    let mut rng = Rng::new(seed, 3);
    let mut buf = Vec::with_capacity(len + 8);
    while buf.len() < len {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf.truncate(len);
    Bytes::from(buf)
}

/// Seeded start offsets for slicing `sizes` out of a buffer of `buf_len`
/// bytes.
pub fn slice_offsets(seed: u64, sizes: &[u64], buf_len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 4);
    sizes.iter().map(|&s| rng.below((buf_len as u64 - s).max(1)) as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_uniform_sizes_are_unique_in_range_and_banded() {
        let s = log_uniform_windows(7, 4096, 1 << 20, 500, 4);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 500);
        assert!(s.iter().all(|&x| (4096..(1 << 20) + 500).contains(&x)));
        // Each window holds one size per quarter of the log range: 4 KiB,
        // 16 KiB, 64 KiB, 256 KiB and 1 MiB bound the quarters.
        for w in s.chunks(4) {
            let mut w = w.to_vec();
            w.sort_unstable();
            for (q, &x) in w.iter().enumerate() {
                assert!(x >= 4096 << (2 * q) && x <= (4096 << (2 * q + 2)) + 500, "{w:?}");
            }
        }
        assert_eq!(s, log_uniform_windows(7, 4096, 1 << 20, 500, 4));
    }
}
