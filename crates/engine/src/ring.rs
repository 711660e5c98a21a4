//! Consistent-hash ring with virtual nodes: the engine's tenant → shard
//! partitioner.
//!
//! The seed engine routed with a bare `hash(id) % shards`, which reassigns
//! almost every tenant when the shard count changes. The ring hashes each
//! shard onto the unit circle at `vnodes` points ("virtual nodes") and
//! routes a tenant to the first point clockwise of its own hash, so
//! growing from `n` to `n+1` shards moves only `~1/(n+1)` of the tenants —
//! the property that makes [`Engine::rebalance`](crate::Engine::rebalance)
//! cheap, since every moved tenant is a full snapshot/restore migration.
//!
//! Determinism matters as much as hash quality here: the ring is rebuilt
//! from `(shards, vnodes)` on every process start (it is *not* persisted —
//! only the two integers are, in checkpoint documents and `Rebalance`
//! journal records), so two engines with the same topology always agree on
//! every tenant's placement. Both the point hashes and the lookup key use
//! FNV-1a (the seed partitioner's hash) pushed through a splitmix64
//! finalizer: bare FNV-1a has weak avalanche on short similar strings
//! (`ring-0-17` vs `ring-0-18`, `t1` vs `t2`), which bunches a shard's
//! vnodes together on the circle and defeats the balancing they exist
//! for — the mixer spreads them to within a few percent of uniform.

use serde::{Deserialize, Serialize};

/// FNV-1a, the engine's routing hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// splitmix64 finalizer: full-avalanche bit mixer over the FNV digest.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    h
}

/// Position of a byte string on the ring circle.
fn ring_hash(bytes: &[u8]) -> u64 {
    mix(fnv1a(bytes))
}

/// Ring topology: everything needed to rebuild the ring bit-identically.
/// This is what checkpoints and `Rebalance` journal records persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSpec {
    /// Shard (worker thread) count, `>= 1`.
    pub shards: usize,
    /// Virtual nodes per shard, `>= 1`. More vnodes spread tenants more
    /// evenly and shrink per-rebalance movement variance, at O(shards ·
    /// vnodes · log) lookup-table cost.
    pub vnodes: usize,
}

impl RingSpec {
    /// Clamp both counts to at least 1.
    pub fn new(shards: usize, vnodes: usize) -> RingSpec {
        RingSpec {
            shards: shards.max(1),
            vnodes: vnodes.max(1),
        }
    }
}

/// Most shards a wire `rebalance` may ask for: the autoscale policy's
/// 256-shard span. A shard is a worker thread, so the cap keeps one
/// request line from starting thousands of them.
pub const MAX_SHARDS: usize = 256;

/// Most virtual nodes per shard a wire `rebalance` may ask for. With
/// [`MAX_SHARDS`] the ring then holds at most 262 144 points, so one
/// request line cannot abort the process on the ring's allocation.
pub const MAX_VNODES: usize = 1024;

/// Default virtual nodes per shard: enough that an 8-shard ring is within
/// a few percent of uniform, small enough that building the ring is
/// negligible next to spawning the worker threads.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring: sorted `(hash, shard)` points, one lookup per
/// routed tenant (binary search + wrap).
#[derive(Debug, Clone)]
pub struct HashRing {
    spec: RingSpec,
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Build the ring for a topology. Deterministic: the point for shard
    /// `s`, vnode `v` hashes the text `ring-<s>-<v>`; ties (vanishingly
    /// rare under FNV-1a but possible) break toward the lower shard index
    /// so every engine resolves them identically.
    pub fn new(spec: RingSpec) -> HashRing {
        let mut points = Vec::with_capacity(spec.shards * spec.vnodes);
        for shard in 0..spec.shards {
            for vnode in 0..spec.vnodes {
                points.push((ring_hash(format!("ring-{shard}-{vnode}").as_bytes()), shard));
            }
        }
        points.sort_unstable();
        HashRing { spec, points }
    }

    /// The topology this ring was built from.
    pub fn spec(&self) -> RingSpec {
        self.spec
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.spec.shards
    }

    /// Route a tenant id: the shard owning the first ring point at or
    /// clockwise of `hash(id)`.
    pub fn route(&self, id: &str) -> usize {
        let key = ring_hash(id.as_bytes());
        let at = self.points.partition_point(|&(h, _)| h < key);
        self.points[if at == self.points.len() { 0 } else { at }].1
    }
}

/// The ids whose placement differs between two rings — the **exact**
/// tenant set a migration from `old` to `new` must move (and
/// the set it is forbidden to exceed; the migration tests assert equality
/// both ways). Order follows the input.
pub fn moved_ids<'a>(
    old: &HashRing,
    new: &HashRing,
    ids: impl IntoIterator<Item = &'a str>,
) -> Vec<String> {
    ids.into_iter()
        .filter(|id| old.route(id) != new.route(id))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("tenant-{i}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let a = HashRing::new(RingSpec::new(5, 32));
        let b = HashRing::new(RingSpec::new(5, 32));
        for id in ids(500) {
            let s = a.route(&id);
            assert!(s < 5);
            assert_eq!(s, b.route(&id), "same topology must agree on {id}");
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let ring = HashRing::new(RingSpec::new(1, DEFAULT_VNODES));
        for id in ids(64) {
            assert_eq!(ring.route(&id), 0);
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        let shards = 4;
        let ring = HashRing::new(RingSpec::new(shards, DEFAULT_VNODES));
        let mut counts = vec![0usize; shards];
        let n = 4000;
        for id in ids(n) {
            counts[ring.route(&id)] += 1;
        }
        let ideal = n / shards;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > ideal / 2 && c < 2 * ideal,
                "shard {s} got {c} of {n} (ideal {ideal})"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_a_minority_of_tenants() {
        // The consistent-hashing property the rebalance cost model rests
        // on: n → n+1 shards moves roughly 1/(n+1) of the tenants, and
        // never remaps a tenant between two surviving shards.
        let n = 2000;
        for shards in [2usize, 4, 7] {
            let old = HashRing::new(RingSpec::new(shards, DEFAULT_VNODES));
            let new = HashRing::new(RingSpec::new(shards + 1, DEFAULT_VNODES));
            let mut moved = 0;
            for id in ids(n) {
                let (from, to) = (old.route(&id), new.route(&id));
                if from != to {
                    moved += 1;
                    assert_eq!(to, shards, "a moved tenant only moves to the new shard");
                }
            }
            let expected = n / (shards + 1);
            assert!(
                moved < 2 * expected,
                "{shards}→{} moved {moved}, expected ~{expected}",
                shards + 1
            );
            assert!(moved > 0, "growth must move someone");
        }
    }

    #[test]
    fn moved_ids_is_exactly_the_route_diff() {
        let old = HashRing::new(RingSpec::new(3, DEFAULT_VNODES));
        let new = HashRing::new(RingSpec::new(4, DEFAULT_VNODES));
        let all = ids(600);
        let moved = moved_ids(&old, &new, all.iter().map(|s| s.as_str()));
        assert!(!moved.is_empty() && moved.len() < all.len());
        for id in &all {
            let should_move = old.route(id) != new.route(id);
            assert_eq!(moved.contains(id), should_move, "{id}");
        }
        // Identical rings move nothing.
        let same = HashRing::new(RingSpec::new(3, DEFAULT_VNODES));
        assert!(moved_ids(&old, &same, all.iter().map(|s| s.as_str())).is_empty());
    }

    #[test]
    fn clamps_degenerate_specs() {
        let spec = RingSpec::new(0, 0);
        assert_eq!(
            spec,
            RingSpec {
                shards: 1,
                vnodes: 1
            }
        );
        assert_eq!(HashRing::new(spec).route("x"), 0);
    }
}
