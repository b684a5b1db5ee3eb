//! Deterministic random-number plumbing.
//!
//! All randomness in a simulation flows from a single master seed through a
//! [`RngTree`]: each component derives an independent, stable stream keyed
//! by its identifier. This keeps runs reproducible *and* insensitive to the
//! order in which unrelated components draw numbers.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One SplitMix64 step — the workspace's standard seed mixer; here it
/// derives stream seeds from `(master, key)`.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit over `bytes`: a stable, platform-independent,
/// dependency-free digest (stage-label seed keys, served-stream
/// digests).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Factory for independent, reproducible random streams.
///
/// # Examples
///
/// ```
/// use strent_sim::RngTree;
///
/// let tree = RngTree::new(1234);
/// let mut a = tree.stream(0);
/// let mut b = tree.stream(1);
/// // Streams with different keys are independent...
/// assert_ne!(a.next_u64(), b.next_u64());
/// // ...and the same key always yields the same stream.
/// assert_eq!(tree.stream(0).next_u64(), tree.stream(0).next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngTree {
    master: u64,
}

impl RngTree {
    /// Creates a tree rooted at the given master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        RngTree {
            master: master_seed,
        }
    }

    /// The master seed this tree was created with.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derives the independent stream for `key`.
    #[must_use]
    pub fn stream(&self, key: u64) -> SimRng {
        let seed = splitmix64(self.master ^ splitmix64(key));
        SimRng::seed_from_u64(seed)
    }

    /// Derives a sub-tree, for components that themselves own many
    /// stochastic elements (e.g. a board deriving per-LUT streams).
    #[must_use]
    pub fn subtree(&self, key: u64) -> RngTree {
        RngTree {
            master: splitmix64(self.master ^ splitmix64(key ^ 0x5bf0_3635_dcd1_d867)),
        }
    }

    /// Forks an independent per-job tree keyed by a stable identifier —
    /// the seed-sharding primitive behind
    /// [`sweep::SweepRunner`](crate::sweep::SweepRunner). `fork(i)`
    /// depends only on `(master, i)`, never on draw order, so sweeps
    /// stay bit-identical under any parallel schedule.
    #[must_use]
    pub fn fork(&self, key: u64) -> RngTree {
        self.subtree(key ^ 0x6a09_e667_f3bc_c908)
    }
}

/// A deterministic random stream with Gaussian sampling support.
///
/// Wraps [`StdRng`] and adds a Box–Muller normal sampler (with spare
/// caching), so the simulator does not need an external distributions
/// crate.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    spare: Option<f64>,
}

impl SimRng {
    /// Creates a stream from a raw seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal sample (mean 0, standard deviation 1) via
    /// Box–Muller with spare caching.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to avoid ln(0). `sin_cos` shares the
        // argument reduction between the two projections; libm computes
        // it with the same kernels as separate `sin`/`cos` calls, so the
        // samples (and every downstream RNG-dependent result) stay
        // bit-identical to the two-call form.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        let (sin, cos) = theta.sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    #[inline]
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative, got {sigma}"
        );
        mean + sigma * self.standard_normal()
    }

    /// Bernoulli sample with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        self.uniform() < p
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
}

/// A reusable normal distribution `N(mean, sigma^2)`.
///
/// # Examples
///
/// ```
/// use strent_sim::{Normal, RngTree};
///
/// let gate_delay = Normal::new(255.0, 2.0); // ps
/// let mut rng = RngTree::new(7).stream(0);
/// let d = gate_delay.sample(&mut rng);
/// assert!((d - 255.0).abs() < 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative, got {sigma}"
        );
        Normal { mean, sigma }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.normal(self.mean, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let tree = RngTree::new(99);
        let a: Vec<u64> = (0..8).map(|_| tree.stream(5).next_u64()).collect();
        // Same key, fresh streams: every draw equals the first draw.
        assert!(a.iter().all(|&x| x == a[0]));
        let mut s = tree.stream(5);
        let seq1: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
        let mut s = tree.stream(5);
        let seq2: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn streams_differ_across_keys_and_seeds() {
        let tree = RngTree::new(99);
        assert_ne!(tree.stream(0).next_u64(), tree.stream(1).next_u64());
        assert_ne!(
            RngTree::new(1).stream(0).next_u64(),
            RngTree::new(2).stream(0).next_u64()
        );
        assert_ne!(
            tree.subtree(0).stream(0).next_u64(),
            tree.subtree(1).stream(0).next_u64()
        );
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = RngTree::new(3).stream(0);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
        for _ in 0..100 {
            let u = rng.uniform_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = RngTree::new(11).stream(7);
        let dist = Normal::new(10.0, 2.0);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sigma {}", var.sqrt());
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = RngTree::new(5).stream(0);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_rejected() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn bad_bernoulli_rejected() {
        let mut rng = RngTree::new(5).stream(0);
        let _ = rng.bernoulli(1.5);
    }

    #[test]
    fn master_seed_accessor() {
        assert_eq!(RngTree::new(77).master_seed(), 77);
    }
}
