//! What the engine writes into the durability layer: WAL record payloads
//! (one per state-mutating shard operation, journaled *before* the
//! operation is applied) and the full-state checkpoint document.
//!
//! The `rsdc-store` backends treat both as opaque bytes; this module owns
//! their JSON encoding. Replay is exact because batch records carry the
//! already-priced [`Cost`] of every event — recovery never re-prices loads,
//! so it is independent of per-tenant cost models.

use crate::shard::ShardMeta;
use crate::tenant::{TenantConfig, TenantSnapshot};
use rsdc_core::Cost;
use serde::{Deserialize, Serialize};

/// One event inside a journaled batch: the priced cost plus the offered
/// load that feeds shard metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Tenant id.
    pub id: String,
    /// Priced cost function for the slot.
    pub cost: Cost,
    /// Offered load, when the event carried one.
    pub load: Option<f64>,
}

/// One WAL record: a state-mutating engine operation, journaled by the
/// owning shard before it applies the operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A tenant was admitted.
    Admit(TenantConfig),
    /// A batch of events was applied (including events that failed with a
    /// per-event error — replay reproduces those outcomes identically).
    Batch(Vec<JournalEvent>),
    /// End-of-stream flush for a tenant.
    Finish(String),
    /// A tenant was removed.
    Evict(String),
    /// A tenant was installed from a snapshot.
    Restore(Box<TenantSnapshot>),
    /// A topology change journaled by an older build, which rebuilt
    /// every shard. Read-only: the engine writes only
    /// [`Migrate`](Self::Migrate), and decodes this variant so that a data
    /// directory left by a crash inside such a rebalance still recovers
    /// ([`Engine::recover`](crate::Engine::recover) completes it exactly
    /// like an interrupted `Migrate`).
    Rebalance {
        /// Target shard count.
        shards: usize,
        /// Target virtual nodes per shard.
        vnodes: usize,
    },
    /// The ring topology changed: only the tenants in `moved` (the
    /// old-ring/new-ring route diff) change shards. Journaled
    /// (write-ahead, to shard 0's WAL) before a rebalance migrates
    /// anything; a completed rebalance truncates the record away with its
    /// fencing checkpoint, so finding one during recovery means the crash
    /// hit inside the migration window, and
    /// [`Engine::recover`](crate::Engine::recover) finishes the topology
    /// change after replay. Tenant state is topology-independent, so
    /// applying it at the end of replay is exact regardless of where the
    /// record sat in the WAL; the migration recomputes the ring diff, and
    /// the moved list documents the intended diff for operators.
    Migrate {
        /// Target shard count.
        shards: usize,
        /// Target virtual nodes per shard.
        vnodes: usize,
        /// Tenants whose placement the migration changes.
        moved: Vec<String>,
    },
}

impl JournalRecord {
    /// Encode for the WAL.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("journal records are serializable")
            .into_bytes()
    }

    /// Decode a WAL record payload.
    pub fn decode(bytes: &[u8]) -> Result<JournalRecord, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("journal not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("bad journal record: {e}"))
    }
}

/// The checkpoint document: complete engine state at one WAL boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointDoc {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// Shard count of the engine that wrote the checkpoint. Shard-level
    /// aggregates are only restored when the recovering engine's shard
    /// count matches (tenant state is shard-count independent).
    pub shards: usize,
    /// Virtual nodes per shard of the ring that wrote the checkpoint
    /// (routing topology; recorded so operators can reconstruct the
    /// placement that produced the per-shard aggregates).
    pub vnodes: usize,
    /// Every tenant's full snapshot, sorted by id for deterministic bytes.
    pub tenants: Vec<TenantSnapshot>,
    /// Per-shard aggregate state, indexed by shard.
    pub shard_meta: Vec<ShardMeta>,
}

impl CheckpointDoc {
    /// Encode for the store.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("checkpoint documents are serializable")
            .into_bytes()
    }

    /// Decode a checkpoint payload. Documents written before the ring
    /// existed carry no `vnodes` field; they decode with the default ring
    /// density rather than making pre-ring data dirs unrecoverable.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointDoc, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("checkpoint not UTF-8: {e}"))?;
        let mut v: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("bad checkpoint: {e}"))?;
        if let serde::Value::Object(entries) = &mut v {
            if !entries.iter().any(|(k, _)| k == "vnodes") {
                entries.push((
                    "vnodes".to_string(),
                    serde_json::to_value(&crate::ring::DEFAULT_VNODES),
                ));
            }
        }
        CheckpointDoc::from_value(&v).map_err(|e| format!("bad checkpoint: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{PolicySpec, Tenant};

    #[test]
    fn journal_record_round_trip() {
        let records = vec![
            JournalRecord::Admit(TenantConfig::new("a", 4, 2.0, PolicySpec::Lcp)),
            JournalRecord::Batch(vec![
                JournalEvent {
                    id: "a".into(),
                    cost: Cost::abs(1.5, 2.0),
                    load: Some(2.0),
                },
                JournalEvent {
                    id: "b".into(),
                    cost: Cost::Zero,
                    load: None,
                },
            ]),
            JournalRecord::Finish("a".into()),
            JournalRecord::Evict("a".into()),
            JournalRecord::Rebalance {
                shards: 4,
                vnodes: 64,
            },
            JournalRecord::Migrate {
                shards: 3,
                vnodes: 32,
                moved: vec!["a".into(), "b".into()],
            },
            JournalRecord::Migrate {
                shards: 1,
                vnodes: 64,
                moved: Vec::new(),
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            let back = JournalRecord::decode(&bytes).unwrap();
            assert_eq!(bytes, back.encode(), "{rec:?}");
        }
        assert!(JournalRecord::decode(b"{\"nope\":1}").is_err());
        assert!(JournalRecord::decode(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn hetero_records_round_trip() {
        use rsdc_hetero::{FleetSpec, HeteroAlgo, ServerType};
        let fleet = FleetSpec::new(vec![
            ServerType {
                count: 2,
                beta: 1.0,
                energy: 1.0,
                capacity: 1.0,
            },
            ServerType {
                count: 2,
                beta: 3.0,
                energy: 1.5,
                capacity: 2.5,
            },
        ]);
        let cfg = TenantConfig::hetero("h", fleet, HeteroAlgo::Frontier).with_opt_tracking();

        // Admit records carry the full fleet spec.
        let admit = JournalRecord::Admit(cfg.clone());
        let bytes = admit.encode();
        let back = JournalRecord::decode(&bytes).unwrap();
        assert_eq!(bytes, back.encode());
        match back {
            JournalRecord::Admit(got) => assert_eq!(got, cfg),
            other => panic!("unexpected {other:?}"),
        }

        // Restore records and checkpoint documents carry the DP frontier
        // (inside the tenant snapshot's policy payload) bit-exactly.
        let mut tenant = Tenant::new(cfg).unwrap();
        for i in 0..9 {
            tenant.step(&Cost::Zero, Some(0.5 + i as f64)).unwrap();
        }
        let restore = JournalRecord::Restore(Box::new(tenant.snapshot()));
        let bytes = restore.encode();
        let back = JournalRecord::decode(&bytes).unwrap();
        assert_eq!(bytes, back.encode());
        let JournalRecord::Restore(snapshot) = back else {
            panic!("unexpected record");
        };
        let restored = Tenant::from_snapshot(*snapshot).unwrap();
        assert_eq!(
            serde_json::to_string(&restored.report()).unwrap(),
            serde_json::to_string(&tenant.report()).unwrap(),
        );

        let doc = CheckpointDoc {
            seq: 3,
            shards: 1,
            vnodes: 64,
            tenants: vec![tenant.snapshot()],
            shard_meta: Vec::new(),
        };
        let back = CheckpointDoc::decode(&doc.encode()).unwrap();
        assert_eq!(back.encode(), doc.encode());
    }

    #[test]
    fn pre_ring_checkpoints_decode_with_default_vnodes() {
        // A document written before PR 4 has no "vnodes" field; recovery
        // of such a data dir must not hard-fail.
        let legacy = br#"{"seq":3,"shards":2,"tenants":[],"shard_meta":[]}"#;
        let doc = CheckpointDoc::decode(legacy).expect("legacy checkpoint decodes");
        assert_eq!(doc.seq, 3);
        assert_eq!(doc.shards, 2);
        assert_eq!(doc.vnodes, crate::ring::DEFAULT_VNODES);
    }

    #[test]
    fn checkpoint_doc_round_trip() {
        let mut tenant = Tenant::new(
            TenantConfig::new("t", 5, 1.5, PolicySpec::FlcpRounded { k: 2, seed: 3 })
                .with_opt_tracking(),
        )
        .unwrap();
        for i in 0..7 {
            tenant
                .step(&Cost::abs(1.0, i as f64), Some(i as f64))
                .unwrap();
        }
        let doc = CheckpointDoc {
            seq: 9,
            shards: 2,
            vnodes: 64,
            tenants: vec![tenant.snapshot()],
            shard_meta: Vec::new(),
        };
        let back = CheckpointDoc::decode(&doc.encode()).unwrap();
        assert_eq!(back.seq, 9);
        assert_eq!(back.shards, 2);
        assert_eq!(back.tenants.len(), 1);
        assert_eq!(back.encode(), doc.encode());
    }
}
