//! Random convex instances for property tests and benchmarks.
//!
//! Table costs are generated by integrating non-decreasing random slopes,
//! which yields *arbitrary* convex functions (not just the parametric
//! shapes), so optimality cross-checks explore the full problem class.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rsdc_core::prelude::*;

/// Parameters for random instance generation.
#[derive(Debug, Clone, Copy)]
pub struct RandomInstanceCfg {
    /// Number of servers.
    pub m: u32,
    /// Horizon.
    pub t_len: usize,
    /// Power-up cost range (log-uniform).
    pub beta_range: (f64, f64),
    /// Scale of the random slopes.
    pub slope_scale: f64,
}

impl Default for RandomInstanceCfg {
    fn default() -> Self {
        Self {
            m: 8,
            t_len: 12,
            beta_range: (0.1, 10.0),
            slope_scale: 2.0,
        }
    }
}

/// A random convex table cost over `0..=m`: start from a random value,
/// integrate slopes drawn increasingly from `[-s, s]` (sorted to enforce
/// convexity), then shift to be non-negative.
pub fn random_convex_table<R: Rng>(rng: &mut R, m: u32, slope_scale: f64) -> Cost {
    let mut slopes: Vec<f64> = (0..m)
        .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * slope_scale)
        .collect();
    slopes.sort_by(|a, b| a.partial_cmp(b).expect("no NaN slopes"));
    let mut vals = Vec::with_capacity(m as usize + 1);
    let mut v = rng.gen::<f64>() * slope_scale;
    vals.push(v);
    for s in slopes {
        v += s;
        vals.push(v);
    }
    let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
    for v in &mut vals {
        *v -= min; // non-negative, keeps convexity
    }
    Cost::table(vals)
}

/// Generate a full random instance (validated convex).
pub fn random_instance(cfg: &RandomInstanceCfg, seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (lo, hi) = cfg.beta_range;
    let beta = lo * (hi / lo).powf(rng.gen::<f64>());
    let costs = (0..cfg.t_len)
        .map(|_| random_convex_table(&mut rng, cfg.m, cfg.slope_scale))
        .collect();
    Instance::new(cfg.m, beta, costs).expect("generator must emit convex costs")
}

/// A batch of random instances with distinct seeds.
pub fn random_instances(cfg: &RandomInstanceCfg, base_seed: u64, n: usize) -> Vec<Instance> {
    (0..n)
        .map(|i| random_instance(cfg, base_seed.wrapping_add(i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_convex_and_nonnegative() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let c = random_convex_table(&mut rng, 10, 3.0);
            c.check_convex(10).unwrap();
            assert!((0..=10).all(|x| c.eval(x) >= 0.0));
            // Touches zero somewhere (we subtract the min).
            assert!((0..=10).map(|x| c.eval(x)).fold(f64::INFINITY, f64::min) < 1e-12);
        }
    }

    #[test]
    fn instances_are_reproducible() {
        let cfg = RandomInstanceCfg::default();
        let a = random_instance(&cfg, 42);
        let b = random_instance(&cfg, 42);
        assert_eq!(a, b);
        let c = random_instance(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn beta_in_range() {
        let cfg = RandomInstanceCfg {
            beta_range: (0.5, 2.0),
            ..Default::default()
        };
        for seed in 0..20 {
            let inst = random_instance(&cfg, seed);
            assert!(inst.beta() >= 0.5 && inst.beta() <= 2.0);
        }
    }

    #[test]
    fn batch_sizes() {
        let cfg = RandomInstanceCfg::default();
        let batch = random_instances(&cfg, 7, 5);
        assert_eq!(batch.len(), 5);
    }

    #[test]
    fn optimizers_agree_on_random_instances() {
        // Smoke-level agreement here; exhaustive property tests live in the
        // integration crate.
        let cfg = RandomInstanceCfg {
            m: 6,
            t_len: 8,
            ..Default::default()
        };
        for seed in 0..10 {
            let inst = random_instance(&cfg, seed);
            let a = rsdc_offline::dp::solve(&inst);
            let b = rsdc_offline::binsearch::solve(&inst);
            assert!(
                (a.cost - b.cost).abs() < 1e-9 * (1.0 + a.cost),
                "seed {seed}: {} vs {}",
                a.cost,
                b.cost
            );
        }
    }
}
