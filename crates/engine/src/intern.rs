//! Tenant-id interning: hash each id once, route on the integer.
//!
//! The intern table is the engine's one per-tenant record on the handle
//! side. Every live tenant id is interned into a dense `u32` key, and its
//! entry carries everything the engine and the wire session keep per
//! tenant outside the shards: the shared id string, the cached ring
//! route, the tenant's load [`Pricing`], its admission
//! [`TokenBucket`] and its energy
//! attribution (`power::Attribution`). The hot ingest path then
//! carries `(Arc<str>, key)` pairs: shards index a slab by key instead of
//! hashing a `String` per event, the ring route is computed once per id
//! (and once more per topology change) instead of once per event, and
//! the id string itself is a shared refcounted allocation instead of a
//! per-event clone.
//!
//! An id is interned only once its config or snapshot has validated, so
//! refused admits and restores leave no entry, and step events for ids
//! that are not live never insert — nor are they gated or charged: they
//! fail as unknown tenants. An evict releases the entry: the id leaves
//! the map, the slot is reset so it names no id, and its key goes on a
//! free list that the next intern pops first. Keys are therefore
//! reused, and the table (like every shard slab's key index) grows to
//! the live-tenant high-water mark, not to the number of distinct ids
//! ever seen — a stream that admits and evicts ever-fresh ids holds it
//! flat. A re-admitted id starts from a fresh entry: full bucket, no
//! attributed energy.
//!
//! A key is a hint, the id is the truth. A resolved `(id, key)` pair may
//! outlive its entry, and the key may since name another tenant, so
//! every lookup by key — here and in the shards' slabs — also checks
//! that the id it finds is the id it was given.

use crate::admission::TokenBucket;
use crate::power::Attribution;
use crate::ring::HashRing;
use crate::tenant::TenantConfig;
use rsdc_workloads::builder::CostModel;
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel key for ids that are not interned (not live).
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

/// Ids that are not live price loads with the default cost model (the
/// step then fails as an unknown tenant).
impl Default for Pricing {
    fn default() -> Self {
        Pricing::Scalar(CostModel::default())
    }
}

/// One interned id: the shared string, its cached ring route, its load
/// pricing, and the tenant's admission and energy state.
#[derive(Debug, Clone)]
pub struct InternEntry {
    /// The tenant id, shared with every in-flight event that names it.
    pub id: Arc<str>,
    /// Cached `ring.route(id)` under the engine's current ring.
    pub shard: u32,
    /// Written when an admit or a restore of this id succeeds.
    pub pricing: Pricing,
    /// The tenant's token bucket (full until a rate limit charges it).
    pub(crate) bucket: TokenBucket,
    /// Energy attributed under the current meter, from the tenant's
    /// first commit on (`None` before it, or with accounting off).
    pub(crate) energy: Option<Attribution>,
}

/// The id → key table plus the per-key entries. Owned by the engine
/// handle, under its one lock; shards only ever see resolved keys.
#[derive(Debug, Default)]
pub struct Interner {
    map: HashMap<Arc<str>, u32>,
    /// One slot per key; `None` for a released key awaiting reuse.
    entries: Vec<Option<InternEntry>>,
    /// Released keys, popped first by [`Interner::intern`].
    free: Vec<u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of key slots: the high-water mark of interned ids.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Get-or-insert `id`, caching its route under `ring`. Returns its
    /// key (a released one when available) and its current shard. A new
    /// entry starts with the default [`Pricing`] until
    /// [`Interner::set_pricing`], a full bucket and no attributed energy.
    pub fn intern(&mut self, id: &str, ring: &HashRing) -> (u32, usize) {
        if let Some((key, e)) = self.lookup(id) {
            return (key, e.shard as usize);
        }
        let arc: Arc<str> = Arc::from(id);
        let shard = ring.route(id) as u32;
        let key = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            (self.entries.len() - 1) as u32
        });
        self.entries[key as usize] = Some(InternEntry {
            id: Arc::clone(&arc),
            shard,
            pricing: Pricing::default(),
            bucket: TokenBucket::default(),
            energy: None,
        });
        self.map.insert(arc, key);
        (key, shard as usize)
    }

    /// Resolve an interned id without inserting. The hot step path uses
    /// this: ids that are not live stay out of the table, so hostile
    /// streams of garbage ids cannot grow it.
    pub fn lookup(&self, id: &str) -> Option<(u32, &InternEntry)> {
        let &key = self.map.get(id)?;
        Some((key, self.entry(key)?))
    }

    /// The entry under `key`, if the key is in use.
    pub fn entry(&self, key: u32) -> Option<&InternEntry> {
        self.entries.get(key as usize)?.as_ref()
    }

    /// The entry `id` names, reached through `key` while the key still
    /// names `id` (a hint resolved against another table, or before a
    /// release, is looked up again by id).
    pub(crate) fn find_mut(&mut self, key: u32, id: &Arc<str>) -> Option<(u32, &mut InternEntry)> {
        let key = match self.entry(key) {
            Some(e) if Arc::ptr_eq(&e.id, id) || e.id == *id => key,
            _ => *self.map.get(&**id)?,
        };
        Some((key, self.entries[key as usize].as_mut()?))
    }

    /// Every entry in use.
    pub(crate) fn each_mut(&mut self) -> impl Iterator<Item = &mut InternEntry> {
        self.entries.iter_mut().flatten()
    }

    /// Record the pricing of the tenant just installed under `key`.
    pub fn set_pricing(&mut self, key: u32, pricing: Pricing) {
        if let Some(Some(e)) = self.entries.get_mut(key as usize) {
            e.pricing = pricing;
        }
    }

    /// Release `key` (its tenant was evicted, or its install failed):
    /// drop its id from the map, reset its slot and queue the key for
    /// reuse. Returns the entry.
    pub fn release(&mut self, key: u32) -> Option<InternEntry> {
        let entry = self.entries.get_mut(key as usize)?.take()?;
        self.map.remove(&entry.id);
        self.free.push(key);
        Some(entry)
    }

    /// Recompute every cached route after a ring change. Called in the
    /// same hold of the handle lock that swaps the engine's ring, so
    /// events resolved after the swap route onto the new topology.
    pub fn reroute(&mut self, ring: &HashRing) {
        for e in self.each_mut() {
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
        // A released key names no id, and the next new id reuses it.
        assert_eq!(&*interner.release(key_a).unwrap().id, "a");
        assert!(interner.lookup("a").is_none() && interner.entry(key_a).is_none());
        assert!(interner.find_mut(key_a, &id_a).is_none());
        assert_eq!(interner.intern("c", &ring5).0, key_a);
        assert_eq!(interner.len(), 2);
        // The stale `(a, key)` hint does not reach `c`; `a` comes back
        // on a fresh key with a fresh entry.
        assert!(interner.find_mut(key_a, &id_a).is_none());
        let (key_a2, _) = interner.intern("a", &ring5);
        assert_eq!(key_a2, 2);
        assert_eq!(interner.find_mut(key_a, &id_a).unwrap().0, key_a2);
        assert!(interner.release(key_a2).is_some() && interner.release(key_a2).is_none());
    }
}
