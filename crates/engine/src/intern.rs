//! Tenant-id interning: hash each id once, route on the integer.
//!
//! The intern table is the engine's one id → tenant index. Every admitted
//! tenant id is interned into a stable dense `u32` key, and its entry
//! carries everything the engine and the wire session look up by id: the
//! shared id string, the cached ring route, and the tenant's load
//! [`Pricing`]. The hot ingest path then carries `(Arc<str>, key)` pairs:
//! shards index a slab by key instead of hashing a `String` per event,
//! the ring route is computed once per id (and once more per topology
//! change) instead of once per event, and the id string itself is a
//! shared refcounted allocation instead of a per-event clone.
//!
//! Keys are never reused: an evicted tenant keeps its key (and its last
//! pricing), so a re-admit of the same id lands in the same slot and
//! stale keys can never alias a different tenant. An id is interned only
//! once its config or snapshot has validated, so refused admits and
//! restores leave no entry, and step events for unknown ids never
//! insert. The table therefore holds one entry per distinct id that was
//! ever admitted or restored — one id string plus a fixed-size entry
//! each. The admission gate's tenant cap bounds *live* tenants, not this
//! table: a stream that admits and evicts ever-fresh ids grows it without
//! bound.

use crate::ring::HashRing;
use crate::tenant::TenantConfig;
use rsdc_workloads::builder::CostModel;
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel key for ids that were never interned (never admitted).
pub const UNKNOWN_KEY: u32 = u32::MAX;

/// How a tenant's `load` step events are priced into engine events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pricing {
    /// Scalar tenant: a load becomes a [`rsdc_core::Cost::Server`] through
    /// this cost model.
    Scalar(CostModel),
    /// Heterogeneous tenant: the load rides through unpriced (the fleet
    /// spec prices it inside the tenant); explicit costs are refused.
    Hetero,
}

impl Pricing {
    /// The pricing `config` declares: hetero, or its load cost model.
    pub fn of(config: &TenantConfig) -> Pricing {
        if config.policy.is_hetero() {
            Pricing::Hetero
        } else {
            Pricing::Scalar(config.load_cost_model())
        }
    }
}

/// Ids with no successful admit price loads with the default cost model
/// (the step then fails as an unknown tenant).
impl Default for Pricing {
    fn default() -> Self {
        Pricing::Scalar(CostModel::default())
    }
}

/// One interned id: the shared string, its cached ring route and its
/// load pricing.
#[derive(Debug, Clone)]
pub struct InternEntry {
    /// The tenant id, shared with every in-flight event that names it.
    pub id: Arc<str>,
    /// Cached `ring.route(id)` under the engine's current ring.
    pub shard: u32,
    /// Written when an admit or a restore of this id succeeds.
    pub pricing: Pricing,
}

/// The id → key table plus the per-id entries. Owned by the engine
/// handle behind a mutex; shards only ever see resolved keys.
#[derive(Debug, Default)]
pub struct Interner {
    map: HashMap<Arc<str>, u32>,
    entries: Vec<InternEntry>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct ids ever interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Get-or-insert `id`, caching its route under `ring`. Returns its
    /// stable key and its current shard. A new entry starts with the
    /// default [`Pricing`] until [`Interner::set_pricing`].
    pub fn intern(&mut self, id: &str, ring: &HashRing) -> (u32, usize) {
        if let Some((key, e)) = self.lookup(id) {
            return (key, e.shard as usize);
        }
        let arc: Arc<str> = Arc::from(id);
        let shard = ring.route(id) as u32;
        let key = self.entries.len() as u32;
        self.entries.push(InternEntry {
            id: Arc::clone(&arc),
            shard,
            pricing: Pricing::default(),
        });
        self.map.insert(arc, key);
        (key, shard as usize)
    }

    /// Resolve an already-interned id without inserting. The hot step
    /// path uses this: ids that were never admitted stay out of the
    /// table, so hostile streams of garbage ids cannot grow it.
    pub fn lookup(&self, id: &str) -> Option<(u32, &InternEntry)> {
        let &key = self.map.get(id)?;
        Some((key, &self.entries[key as usize]))
    }

    /// The entry for `key`, if in range.
    pub fn entry(&self, key: u32) -> Option<&InternEntry> {
        self.entries.get(key as usize)
    }

    /// Record the pricing of the tenant just installed under `key`.
    pub fn set_pricing(&mut self, key: u32, pricing: Pricing) {
        if let Some(e) = self.entries.get_mut(key as usize) {
            e.pricing = pricing;
        }
    }

    /// Recompute every cached route after a ring change. Called under the
    /// same lock that swaps the engine's ring, so events resolved after
    /// the swap route onto the new topology.
    pub fn reroute(&mut self, ring: &HashRing) {
        for e in &mut self.entries {
            e.shard = ring.route(&e.id) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingSpec;

    #[test]
    fn keys_are_stable_and_routes_follow_the_ring() {
        let ring2 = HashRing::new(RingSpec::new(2, 16));
        let ring5 = HashRing::new(RingSpec::new(5, 16));
        let mut interner = Interner::new();
        let (key_a, shard_a) = interner.intern("a", &ring2);
        assert_eq!(shard_a, ring2.route("a"));
        let id_a = Arc::clone(&interner.entry(key_a).unwrap().id);
        assert_eq!(&*id_a, "a");
        let (key_b, _) = interner.intern("b", &ring2);
        assert_ne!(key_a, key_b);
        // Re-interning returns the same key and the same shared string.
        assert_eq!(interner.intern("a", &ring2).0, key_a);
        assert!(Arc::ptr_eq(&id_a, &interner.lookup("a").unwrap().1.id));
        // Lookup resolves without inserting; unknown ids stay unknown.
        assert_eq!(interner.lookup("a").unwrap().0, key_a);
        assert!(interner.lookup("ghost").is_none());
        assert_eq!(interner.len(), 2);
        // Pricing starts at the default and follows `set_pricing`.
        assert_eq!(interner.lookup("b").unwrap().1.pricing, Pricing::default());
        interner.set_pricing(key_b, Pricing::Hetero);
        assert_eq!(interner.lookup("b").unwrap().1.pricing, Pricing::Hetero);
        // A ring change re-derives every cached route.
        interner.reroute(&ring5);
        assert_eq!(
            interner.lookup("a").unwrap().1.shard as usize,
            ring5.route("a")
        );
        assert_eq!(
            interner.lookup("b").unwrap().1.shard as usize,
            ring5.route("b")
        );
    }
}
