//! JSON-lines wire format: the engine's ingestion/response protocol.
//!
//! One JSON object per line. Request records (`op` field selects):
//!
//! ```text
//! {"op":"admit","id":"t1","m":8,"beta":6.0,"policy":"Lcp","track_opt":true}
//! {"op":"admit","id":"t2","m":8,"beta":6.0,"policy":{"FlcpRounded":{"k":4,"seed":7}}}
//! {"op":"admit","id":"h1","policy":"hetero:frontier","fleet":{"types":[
//!     {"count":3,"beta":1.0,"energy":1.0,"capacity":1.0},
//!     {"count":2,"beta":2.5,"energy":1.4,"capacity":2.0}]}}
//! {"op":"step","id":"t1","load":3.2}
//! {"op":"step","id":"t1","cost":{"Abs":{"slope":1.0,"center":3.0}}}
//! {"op":"finish","id":"t1"}
//! {"op":"snapshot","id":"t1"}
//! {"op":"restore","snapshot":{...}}
//! {"op":"report"}            // all tenants
//! {"op":"report","id":"t1"}
//! {"op":"stats"}
//! {"op":"checkpoint"}        // durable full-state checkpoint + WAL truncation
//! {"op":"recover"}           // rebuild the engine from the durable store
//! {"op":"wal_stats"}         // store + tenant-distribution statistics
//! {"op":"rebalance","shards":4,"vnodes":64}   // live ring re-partition (moves the ring diff)
//! {"op":"autoscale","min":1,"max":8,"switch_cost":32.0}  // lazy auto-rebalancing
//! {"op":"autoscale","min":1,"max":8,"switch_cost":32.0,"priced":true}  // price-aware
//! {"op":"energy","model":"linear:100:250","capacity":4.0,"price":"step:24:1,3.5"}
//! {"op":"limits","max_tenants":100,"rate":2.0,"burst":8.0}
//! {"op":"metrics"}           // metrics-registry dump
//! {"op":"trace","last":16}   // control-plane trace ring (newest N)
//! ```
//!
//! `step` events carry either an explicit serialized [`Cost`] or a raw
//! `load`, which the engine prices through the tenant's
//! [`rsdc_workloads::builder::CostModel`] (the admit record may override
//! the default model with a `"cost_model"` object). Heterogeneous tenants
//! (`"policy":"hetero[:frontier|:greedy]"` plus a `"fleet"` object — `m`
//! and `beta` are then optional/derived) accept **only** load-carrying
//! steps: the load is priced through the fleet's aggregate cost, and their
//! `stepped` responses carry the committed `configs` alongside the scalar
//! total-machine `states`. Response records mirror the request:
//! `admitted`, `stepped` (with committed `states`), `finished`,
//! `snapshot`, `restored`, `report` (incl. attributed `energy` when
//! accounting is on), `stats` (incl. per-shard skew, the
//! autoscale-policy state and the energy meter), `checkpointed`,
//! `recovered`, `wal_stats`,
//! `rebalanced` (emitted unsolicited with `"auto":true` when the
//! autoscale policy triggers a migration), `autoscale`,
//! `energy`, `limits`, `metrics`, `trace`, or
//! `{"op":"error","line":N,"message":...}` — error
//! responses carry the 1-based input line number of the offending record,
//! so a failing line inside a large JSONL batch is locatable.
//!
//! The full protocol, with request/response examples for every op, is
//! documented in `docs/WIRE.md`.

use crate::framed::{Codec, Core};
use crate::intern::Pricing;
use crate::shard::StepOutcome;
use crate::tenant::{PolicySpec, TenantConfig, TenantSnapshot};
use rsdc_core::Cost;
use rsdc_hetero::{FleetSpec, HeteroAlgo, ServerType};
use rsdc_power::{EnergyStatus, PowerConfig, PowerSpec, PriceSchedule};
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::traces::Trace;
use serde::{Deserialize, Serialize};

/// A parsed request record.
#[derive(Debug, Clone)]
pub enum Record {
    /// Admit a tenant; its config carries the optional cost model that
    /// prices its `load` events.
    Admit {
        /// Tenant configuration.
        config: TenantConfig,
    },
    /// One streamed slot for one tenant.
    Step {
        /// Tenant id.
        id: String,
        /// Explicit cost function, if given.
        cost: Option<Cost>,
        /// Raw offered load, if given (priced via the admit cost model).
        load: Option<f64>,
    },
    /// Flush lookahead states for a tenant.
    Finish {
        /// Tenant id.
        id: String,
    },
    /// Capture a tenant snapshot.
    Snapshot {
        /// Tenant id.
        id: String,
    },
    /// Re-install a tenant from a snapshot, with the cost model used to
    /// price its `load` events (defaults to the admit-time default).
    Restore {
        /// The tenant snapshot.
        snapshot: Box<TenantSnapshot>,
        /// Cost model for `load`-carrying step events, if carried.
        cost_model: Option<CostModel>,
    },
    /// Report one tenant (`Some`) or all (`None`).
    Report(Option<String>),
    /// Per-shard statistics.
    Stats,
    /// Durable full-state checkpoint (truncates the WAL).
    Checkpoint,
    /// Rebuild the engine from its durable store.
    Recover,
    /// Durability-layer statistics.
    WalStats,
    /// Re-partition the engine onto a new ring topology, live, moving
    /// only the ring-diff tenant set ([`Engine::rebalance`](crate::Engine::rebalance)).
    Rebalance {
        /// Target shard count.
        shards: usize,
        /// Target virtual nodes per shard (`None` keeps the current ring
        /// density).
        vnodes: Option<usize>,
    },
    /// Configure (`min`/`max` present), disable (`"off":true`) or read
    /// back (bare) the lazy auto-rebalancing policy.
    Autoscale {
        /// Disable the policy.
        off: bool,
        /// Smallest shard count the policy may target.
        min: Option<usize>,
        /// Largest shard count the policy may target.
        max: Option<usize>,
        /// Switching cost per shard powered up (the induced `beta`).
        switch_cost: Option<f64>,
        /// Per-shard per-tick overhead cost.
        shard_cost: Option<f64>,
        /// Ticks between applied changes / admission-window length.
        cooldown: Option<u64>,
        /// Price the induced instance through the engine's energy
        /// accounting (requires the `energy` op to be configured first).
        priced: bool,
    },
    /// Configure (`model` present), disable (`"off":true`) or read back
    /// (bare) the engine's energy accounting.
    Energy {
        /// Disable energy accounting.
        off: bool,
        /// Power-model short spec: `constant:W`, `linear:IDLE:PEAK` or
        /// `piecewise:W0,W1,...`.
        model: Option<String>,
        /// Events one machine serves per tick at full utilization.
        capacity: Option<f64>,
        /// Price-schedule short spec: a bare number, `constant:P`,
        /// `step:PERIOD:P1,P2,...` or `trace:P1,P2,...`.
        price: Option<String>,
    },
    /// Dump the metrics registry: counters, gauges, histogram summaries.
    Metrics,
    /// Dump the control-plane trace ring, oldest retained event first.
    Trace {
        /// Emit only the newest N retained events, when given.
        last: Option<usize>,
    },
    /// Set (fields present) and/or read back the admission limits.
    Limits {
        /// New tenant cap, when given (0 = unlimited).
        max_tenants: Option<usize>,
        /// New token-bucket refill rate, when given (0 = unlimited).
        rate: Option<f64>,
        /// New token-bucket capacity, when given.
        burst: Option<f64>,
    },
}

/// A wire-format error with the offending context.
#[derive(Debug, Clone)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Field `key` of `v`, when present and not `null`.
fn optional<'v>(v: &'v serde::Value, key: &str) -> Option<&'v serde::Value> {
    v.get(key).filter(|x| !x.is_null())
}

fn field<'v>(v: &'v serde::Value, key: &str) -> Result<&'v serde::Value, WireError> {
    optional(v, key).ok_or_else(|| WireError(format!("missing field {key:?}")))
}

/// Field `key` of `v` converted by `parse`, when present and not `null`.
/// A value `parse` refuses fails as ``field "key" must be {what}``.
fn optional_as<T>(
    v: &serde::Value,
    key: &str,
    what: &str,
    parse: impl FnOnce(&serde::Value) -> Option<T>,
) -> Result<Option<T>, WireError> {
    optional(v, key)
        .map(|x| parse(x).ok_or_else(|| WireError(format!("field {key:?} must be {what}"))))
        .transpose()
}

fn as_usize(x: &serde::Value) -> Option<usize> {
    x.as_u64().and_then(|n| usize::try_from(n).ok())
}

/// Optional field `key` of `v`: an integer `>= 1` when present.
fn count(v: &serde::Value, key: &str) -> Result<Option<usize>, WireError> {
    optional_as(v, key, "an integer >= 1", |x| {
        as_usize(x).filter(|&n| n >= 1)
    })
}

/// [`count`] capped at `max` (the `rebalance` shard and vnode counts).
fn count_at_most(v: &serde::Value, key: &str, max: usize) -> Result<Option<usize>, WireError> {
    match count(v, key)? {
        Some(n) if n > max => Err(WireError(format!("field {key:?} must be at most {max}"))),
        n => Ok(n),
    }
}

/// Optional field `key` of `v`: a finite number `> 0` when present.
fn positive(v: &serde::Value, key: &str) -> Result<Option<f64>, WireError> {
    optional_as(v, key, "a number > 0", |x| {
        x.as_f64().filter(|n| n.is_finite() && *n > 0.0)
    })
}

/// The optional `cost_model` field of an admit or restore record.
fn cost_model(v: &serde::Value) -> Result<Option<CostModel>, WireError> {
    optional(v, "cost_model")
        .map(|cm| CostModel::from_value(cm).map_err(|e| WireError(format!("bad cost_model: {e}"))))
        .transpose()
}

fn string_field(v: &serde::Value, key: &str) -> Result<String, WireError> {
    field(v, key)?
        .as_str()
        .map(|s| s.to_string())
        .ok_or_else(|| WireError(format!("field {key:?} must be a string")))
}

/// Parse a wire `fleet` object: a required `types` array of serialized
/// [`ServerType`]s plus optional `delay_weight` / `delay_eps` / `overload`
/// aggregate-cost parameters (defaulted as in [`FleetSpec::new`]).
fn fleet_from_value(v: &serde::Value) -> Result<FleetSpec, WireError> {
    let types = Vec::<ServerType>::from_value(field(v, "types")?)
        .map_err(|e| WireError(format!("bad fleet types: {e}")))?;
    let mut fleet = FleetSpec::new(types);
    let num = |key: &str, default: f64| -> Result<f64, WireError> {
        match optional(v, key) {
            Some(x) => x
                .as_f64()
                .ok_or_else(|| WireError(format!("fleet field {key:?} must be a number"))),
            None => Ok(default),
        }
    };
    fleet.delay_weight = num("delay_weight", fleet.delay_weight)?;
    fleet.delay_eps = num("delay_eps", fleet.delay_eps)?;
    fleet.overload = num("overload", fleet.overload)?;
    Ok(fleet)
}

/// Parse one JSONL request line.
pub fn parse_record(line: &str) -> Result<Record, WireError> {
    let v: serde::Value =
        serde_json::from_str(line).map_err(|e| WireError(format!("bad JSON: {e}")))?;
    let op = string_field(&v, "op")?;
    match op.as_str() {
        "admit" => {
            let id = string_field(&v, "id")?;
            let policy_value = field(&v, "policy")?;
            // Hetero short syntax first: "hetero[:frontier|:greedy]" plus a
            // "fleet" object on the record itself.
            let hetero = policy_value
                .as_str()
                .and_then(HeteroAlgo::parse_policy_prefix);
            let policy = match (hetero, policy_value.as_str()) {
                (Some(algo), _) => {
                    let algo = algo.map_err(|e| WireError(format!("bad policy: {e}")))?;
                    let fleet = fleet_from_value(field(&v, "fleet")?)?;
                    PolicySpec::Hetero { fleet, algo }
                }
                // Accept both the CLI short syntax ("lcp", "flcp:4,7") and
                // the canonical serde encoding ("Lcp", {"FlcpRounded":...}).
                (None, Some(s)) => PolicySpec::parse_short(&s.to_lowercase())
                    .or_else(|short_err| {
                        // Fall back to the canonical serde encoding, but
                        // keep the short-syntax message (it lists the
                        // valid policies) when both fail.
                        PolicySpec::from_value(policy_value).map_err(|_| short_err)
                    })
                    .map_err(|e| WireError(format!("bad policy: {e}")))?,
                (None, None) => PolicySpec::from_value(policy_value)
                    .map_err(|e| WireError(format!("bad policy: {e}")))?,
            };
            // Hetero tenants derive m (total machines) and beta (unused by
            // the vector accounting) from the fleet; scalar tenants must
            // state both.
            let (m, beta) = if let PolicySpec::Hetero { fleet, .. } = &policy {
                let m = optional_as(&v, "m", "a u32", |x| {
                    x.as_u64().and_then(|m| u32::try_from(m).ok())
                })?;
                let beta = optional_as(&v, "beta", "a number", |x| x.as_f64())?;
                (
                    m.unwrap_or_else(|| fleet.total_machines()),
                    beta.unwrap_or(0.0),
                )
            } else {
                let m = field(&v, "m")?
                    .as_u64()
                    .and_then(|m| u32::try_from(m).ok())
                    .ok_or_else(|| WireError("field \"m\" must be a u32".into()))?;
                let beta = field(&v, "beta")?
                    .as_f64()
                    .ok_or_else(|| WireError("field \"beta\" must be a number".into()))?;
                (m, beta)
            };
            let track_opt = v
                .get("track_opt")
                .and_then(|x| x.as_bool())
                .unwrap_or(false);
            let explicit_model = cost_model(&v)?;
            let mut config = TenantConfig::new(id, m, beta, policy);
            config.track_opt = track_opt;
            // An explicit model rides in the config so it lands in
            // snapshots and journaled admits — load pricing then survives
            // crash recovery.
            config.cost_model = explicit_model;
            Ok(Record::Admit { config })
        }
        "step" => {
            let id = string_field(&v, "id")?;
            let cost = optional(&v, "cost")
                .map(|c| Cost::from_value(c).map_err(|e| WireError(format!("bad cost: {e}"))))
                .transpose()?;
            let load = v.get("load").and_then(|x| x.as_f64());
            if let Some(l) = load {
                if !(l.is_finite() && l >= 0.0) {
                    return Err(WireError(format!(
                        "field \"load\" must be finite and >= 0, got {l}"
                    )));
                }
            }
            if cost.is_none() && load.is_none() {
                return Err(WireError("step needs \"cost\" or \"load\"".into()));
            }
            Ok(Record::Step { id, cost, load })
        }
        "finish" => Ok(Record::Finish {
            id: string_field(&v, "id")?,
        }),
        "snapshot" => Ok(Record::Snapshot {
            id: string_field(&v, "id")?,
        }),
        "restore" => {
            let snapshot = TenantSnapshot::from_value(field(&v, "snapshot")?)
                .map_err(|e| WireError(format!("bad snapshot: {e}")))?;
            Ok(Record::Restore {
                snapshot: Box::new(snapshot),
                cost_model: cost_model(&v)?,
            })
        }
        "report" => Ok(Record::Report(
            v.get("id").and_then(|x| x.as_str()).map(|s| s.to_string()),
        )),
        "stats" => Ok(Record::Stats),
        "checkpoint" => Ok(Record::Checkpoint),
        "recover" => Ok(Record::Recover),
        "wal_stats" => Ok(Record::WalStats),
        "metrics" => Ok(Record::Metrics),
        "trace" => {
            let last = optional_as(&v, "last", "a non-negative integer", as_usize)?;
            Ok(Record::Trace { last })
        }
        "rebalance" => {
            let shards = count_at_most(&v, "shards", crate::ring::MAX_SHARDS)?
                .ok_or_else(|| WireError("rebalance needs \"shards\"".into()))?;
            Ok(Record::Rebalance {
                shards,
                vnodes: count_at_most(&v, "vnodes", crate::ring::MAX_VNODES)?,
            })
        }
        "autoscale" => {
            let off = v.get("off").and_then(|x| x.as_bool()).unwrap_or(false);
            let cooldown = optional_as(&v, "cooldown", "a non-negative integer", |x| x.as_u64())?;
            let (min, max) = (count(&v, "min")?, count(&v, "max")?);
            let switch_cost = positive(&v, "switch_cost")?;
            let shard_cost = positive(&v, "shard_cost")?;
            let priced = v.get("priced").and_then(|x| x.as_bool()).unwrap_or(false);
            if !off && min.is_some() != max.is_some() {
                return Err(WireError(
                    "autoscale needs both \"min\" and \"max\" (or \"off\":true, or neither to read back)"
                        .into(),
                ));
            }
            // Knobs without the min/max pair would otherwise fall through
            // to the read-back arm and be silently dropped — refuse them
            // so a retune that didn't take is never mistaken for one that
            // did (the full policy is stated on every configure).
            if !off
                && min.is_none()
                && (switch_cost.is_some() || shard_cost.is_some() || cooldown.is_some() || priced)
            {
                return Err(WireError(
                    "autoscale knobs require \"min\" and \"max\": state the full policy to (re)configure"
                        .into(),
                ));
            }
            Ok(Record::Autoscale {
                off,
                min,
                max,
                switch_cost,
                shard_cost,
                cooldown,
                priced,
            })
        }
        "energy" => {
            let off = v.get("off").and_then(|x| x.as_bool()).unwrap_or(false);
            let text =
                |key: &str| optional_as(&v, key, "a string", |x| x.as_str().map(str::to_string));
            let capacity = positive(&v, "capacity")?;
            let (model, price) = (text("model")?, text("price")?);
            // Same contract as autoscale: knobs without the model would
            // fall through to the read-back arm and be silently dropped.
            if !off && model.is_none() && (capacity.is_some() || price.is_some()) {
                return Err(WireError(
                    "energy knobs require \"model\": state the full config to (re)configure".into(),
                ));
            }
            Ok(Record::Energy {
                off,
                model,
                capacity,
                price,
            })
        }
        "limits" => {
            let max_tenants = optional_as(&v, "max_tenants", "a non-negative integer", as_usize)?;
            let num = |key: &str| {
                optional_as(&v, key, "a number >= 0", |x| {
                    x.as_f64().filter(|n| n.is_finite() && *n >= 0.0)
                })
            };
            Ok(Record::Limits {
                max_tenants,
                rate: num("rate")?,
                burst: num("burst")?,
            })
        }
        other => Err(WireError(format!("unknown op {other:?}"))),
    }
}

/// Render an admit record for a tenant.
pub fn admit_line(config: &TenantConfig) -> String {
    let v = serde_json::json!({
        "op": "admit",
        "id": config.id,
        "m": config.m,
        "beta": config.beta,
        "policy": config.policy.to_value(),
        "track_opt": config.track_opt,
        "cost_model": config.cost_model.to_value(),
    });
    serde_json::to_string(&v).expect("serializable")
}

/// Render a load-carrying step record.
pub fn step_load_line(id: &str, load: f64) -> String {
    let v = serde_json::json!({"op": "step", "id": id, "load": load});
    serde_json::to_string(&v).expect("serializable")
}

/// Render an explicit-cost step record.
pub fn step_cost_line(id: &str, cost: &Cost) -> String {
    let v = serde_json::json!({"op": "step", "id": id, "cost": cost.to_value()});
    serde_json::to_string(&v).expect("serializable")
}

/// Render the `stepped` response for a batch of outcomes. Heterogeneous
/// outcomes additionally carry the committed configurations.
pub fn stepped_line(outcome: &StepOutcome) -> String {
    let v = match &outcome.error {
        None => match &outcome.configs {
            Some(configs) => serde_json::json!({
                "op": "stepped",
                "id": outcome.id,
                "states": outcome.states,
                "configs": configs.to_value(),
            }),
            None => serde_json::json!({
                "op": "stepped",
                "id": outcome.id,
                "states": outcome.states,
            }),
        },
        Some(message) => serde_json::json!({
            "op": "error",
            "id": outcome.id,
            "message": message,
        }),
    };
    serde_json::to_string(&v).expect("serializable")
}

/// Convert a workload trace into step records for one tenant — the bridge
/// from `rsdc-workloads` traces to the streaming wire format.
pub fn trace_records(id: &str, trace: &Trace) -> Vec<String> {
    trace
        .loads
        .iter()
        .map(|&load| step_load_line(id, load))
        .collect()
}

/// A stateful JSONL server over an [`Engine`](crate::Engine). A `load`
/// step is priced by the tenant's [`Pricing`], read from the engine's
/// intern table in the same lookup that resolves the id. Consecutive
/// `step` records are ingested as one batched
/// [`Engine::step_events`](crate::Engine::step_events) call.
///
/// When the engine journals through a durable store, the session also
/// serves the `checkpoint`/`recover`/`wal_stats` ops and can checkpoint
/// automatically every N applied step events
/// ([`with_auto_checkpoint`](Session::with_auto_checkpoint)).
pub struct Session {
    engine: crate::Engine,
    auto_checkpoint: u64,
    since_checkpoint: u64,
    /// The report of the most recent recovery this session performed
    /// (startup auto-recovery or a `recover` op); surfaced by `wal_stats`.
    last_recovery: Option<crate::RecoveryReport>,
    // Reusable batch buffers: pending steps flush through
    // [`crate::Engine::step_events`] with these vectors, which round-trip
    // every batch — steady-state ingest allocates nothing per event.
    events_buf: Vec<crate::StepEvent>,
    lines_buf: Vec<usize>,
    outcomes_buf: Vec<StepOutcome>,
}

/// One session response, framing-agnostic: the JSONL framing renders each
/// reply as a line ([`Reply::into_line`]), the binary framing packs
/// [`Reply::Stepped`]/[`Reply::Error`] into compact frames and everything
/// else into line frames. Both renderings decode to identical lines — the
/// differential suite pins this.
#[derive(Debug)]
pub enum Reply {
    /// A fully rendered JSONL response line.
    Line(String),
    /// A successful step outcome for the request at sequence `seq`.
    Stepped {
        /// 1-based request sequence (JSONL line number / binary frame
        /// number) of the step that produced this outcome.
        seq: usize,
        /// The committed outcome (`error` is always `None` here).
        outcome: StepOutcome,
    },
    /// An error attributed to the request at sequence `seq`.
    Error {
        /// 1-based request sequence of the offending record.
        seq: usize,
        /// Tenant id, when the error is per-event.
        id: Option<String>,
        /// Error message, exactly as a JSONL error line would carry it.
        message: String,
    },
}

impl Reply {
    /// Render this reply as its JSONL response line.
    pub fn into_line(self) -> String {
        match self {
            Reply::Line(line) => line,
            Reply::Stepped { outcome, .. } => stepped_line(&outcome),
            Reply::Error { seq, id, message } => error_reply_line(seq, id.as_deref(), &message),
        }
    }
}

impl Session {
    /// Serve over the given engine.
    pub fn new(engine: crate::Engine) -> Self {
        Session {
            engine,
            auto_checkpoint: 0,
            since_checkpoint: 0,
            last_recovery: None,
            events_buf: Vec::new(),
            lines_buf: Vec::new(),
            outcomes_buf: Vec::new(),
        }
    }

    /// Open a durable session over `store` with engine config `cfg`:
    /// recovers the pre-crash engine when the store holds state (returning
    /// the recovery report), otherwise starts a fresh journaling engine.
    pub fn open_durable_cfg(
        cfg: crate::EngineConfig,
        store: std::sync::Arc<dyn rsdc_store::Durability>,
    ) -> Result<(Session, Option<crate::RecoveryReport>), crate::EngineError> {
        if store.has_state().map_err(crate::EngineError::from_store)? {
            let (engine, report) = crate::Engine::recover(cfg, store)?;
            let mut session = Session::new(engine);
            session.last_recovery = Some(report.clone());
            Ok((session, Some(report)))
        } else {
            let engine = crate::Engine::with_store(cfg, store)?;
            Ok((Session::new(engine), None))
        }
    }

    /// Checkpoint automatically after every `every` applied step events
    /// (0 disables). Auto-checkpoints emit their own `checkpointed`
    /// response lines.
    pub fn with_auto_checkpoint(mut self, every: u64) -> Self {
        self.auto_checkpoint = every;
        self
    }

    /// The underlying engine.
    pub fn engine(&self) -> &crate::Engine {
        &self.engine
    }

    /// Price one step for tenant `id` under its `pricing`.
    fn cost_of(
        id: &str,
        pricing: Pricing,
        cost: Option<Cost>,
        load: Option<f64>,
    ) -> Result<(Cost, Option<f64>), String> {
        match (pricing, cost, load) {
            (Pricing::Hetero, Some(_), _) => Err(format!(
                "hetero tenant {id:?} accepts only load-carrying steps"
            )),
            // The fleet spec prices the load inside the engine; the 1-D
            // cost slot of the event is unused.
            (Pricing::Hetero, None, Some(load)) => Ok((Cost::Zero, Some(load))),
            (Pricing::Scalar(_), Some(c), load) => Ok((c, load)),
            (Pricing::Scalar(model), None, Some(load)) => Ok((
                Cost::Server {
                    lambda: load,
                    params: model.server,
                    overload: model.overload,
                },
                Some(load),
            )),
            // `parse_record` guarantees cost or load on the JSONL path,
            // but steps also arrive pre-parsed from the binary framing —
            // answer a malformed frame with a typed error, never a panic.
            (_, None, None) => Err(format!("step for {id:?} carries neither cost nor load")),
        }
    }

    /// Route one decoded request, the `seq`-th of its stream: a step is
    /// priced and queued on the `pending` batch (flushing at the batch
    /// cap), a control record flushes the batch and runs, and a malformed
    /// request flushes the batch and answers with an error at `seq`. The
    /// one dispatch behind [`Session::handle_lines`] and both streaming
    /// framings.
    pub(crate) fn dispatch(
        &mut self,
        seq: usize,
        request: Request<'_>,
        pending: &mut Vec<(usize, crate::StepEvent)>,
        out: &mut Vec<Reply>,
    ) {
        let owned;
        let step = match request {
            Request::Skip => return,
            Request::Step { id, cost, load } => Ok((id, cost, load)),
            Request::Record(Record::Step { id, cost, load }) => {
                owned = id;
                Ok((owned.as_str(), cost, load))
            }
            Request::Record(record) => {
                self.flush_steps(pending, out);
                return self.handle_control(record, seq, out);
            }
            Request::Error(message) => Err(message),
        };
        // Resolve the id once, here: its pricing comes from the same
        // lookup, and the batch then flushes through the engine's
        // pre-resolved zero-allocation path.
        let priced = step.and_then(|(id, cost, load)| {
            let (id, key, pricing) = self.engine.resolve_priced(id);
            let (cost, load) = Session::cost_of(&id, pricing, cost, load)?;
            Ok((
                seq,
                crate::StepEvent {
                    id,
                    key,
                    cost,
                    load,
                },
            ))
        });
        match priced {
            Err(message) => {
                self.flush_steps(pending, out);
                out.push(Reply::Error {
                    seq,
                    id: None,
                    message,
                });
            }
            Ok(step) => {
                pending.push(step);
                // Cap the batch: an unbounded run of consecutive steps
                // would otherwise become one giant engine call (and one
                // giant WAL record), starving the checkpoint cadence and
                // losing everything on a mid-file crash.
                if pending.len() >= MAX_STEP_BATCH {
                    self.flush_steps(pending, out);
                }
            }
        }
    }

    /// Ingest the pending steps as one batch, each `(seq, event)`
    /// answered at its request sequence.
    pub(crate) fn flush_steps(
        &mut self,
        pending: &mut Vec<(usize, crate::StepEvent)>,
        out: &mut Vec<Reply>,
    ) {
        if pending.is_empty() {
            return;
        }
        self.lines_buf.clear();
        self.outcomes_buf.clear();
        for (line, event) in pending.drain(..) {
            self.lines_buf.push(line);
            self.events_buf.push(event);
        }
        match self
            .engine
            .step_events(&mut self.events_buf, &mut self.outcomes_buf)
        {
            Ok(()) => {
                self.since_checkpoint += self.outcomes_buf.len() as u64;
                let last_line = *self.lines_buf.last().expect("non-empty batch");
                for (o, &line) in self.outcomes_buf.drain(..).zip(self.lines_buf.iter()) {
                    match o.error {
                        None => out.push(Reply::Stepped {
                            seq: line,
                            outcome: o,
                        }),
                        Some(message) => out.push(Reply::Error {
                            seq: line,
                            id: Some(o.id.to_string()),
                            message,
                        }),
                    }
                }
                // The batch fed the auto-rebalancing policy one tick;
                // apply any pending topology decision as a migration and
                // announce it (like auto-checkpoints, the
                // response is unsolicited but self-identifying). Failures
                // are attributed to the batch's *last* record — the one
                // whose ingestion triggered the background work.
                match self.engine.maybe_autoscale() {
                    Ok(None) => {}
                    Ok(Some(report)) => {
                        if report.durable {
                            // Fenced by its own checkpoint.
                            self.since_checkpoint = 0;
                        }
                        out.push(Reply::Line(rebalanced_line(&report, true)));
                    }
                    Err(e) => out.push(Reply::Error {
                        seq: last_line,
                        id: None,
                        message: e.to_string(),
                    }),
                }
                if self.auto_checkpoint > 0 && self.since_checkpoint >= self.auto_checkpoint {
                    self.since_checkpoint = 0;
                    match self.engine.checkpoint() {
                        Ok(report) => out.push(Reply::Line(checkpointed_line(&report))),
                        Err(e) => out.push(Reply::Error {
                            seq: last_line,
                            id: None,
                            message: e.to_string(),
                        }),
                    }
                }
            }
            Err(e) => {
                // A batch-level failure fails every event in it: report one
                // error *per queued step, each at its own sequence*, so a
                // multi-step batch never hides which records were lost —
                // and both framings agree on every failing position.
                let message = e.to_string();
                for &line in &self.lines_buf {
                    out.push(Reply::Error {
                        seq: line,
                        id: None,
                        message: message.clone(),
                    });
                }
            }
        }
    }

    fn recover_in_place(&mut self) -> Result<crate::RecoveryReport, crate::EngineError> {
        // The replacement engine starts with fresh metrics/trace state:
        // observation is process state, not journaled state.
        let store = self.engine.store().clone();
        if !store.is_durable() {
            return Err(crate::EngineError::Store(
                "engine has no durable store to recover from".into(),
            ));
        }
        let spec = self.engine.ring_spec();
        let mut cfg = crate::EngineConfig::with_topology(spec.shards, spec.vnodes);
        cfg.metrics = self.engine.obs().metrics_enabled();
        cfg.trace_capacity = self.engine.obs().trace().capacity();
        // Recover first and swap only on success: a failed recovery must
        // leave the session on its old, still-durable engine instead of
        // silently downgrading it. The old engine is idle while we do this
        // (the session serializes all requests), so nothing appends while
        // the scan repairs the WAL.
        let (engine, report) = crate::Engine::recover(cfg, store)?;
        std::mem::replace(&mut self.engine, engine).shutdown();
        self.since_checkpoint = 0;
        self.last_recovery = Some(report.clone());
        Ok(report)
    }

    fn handle_control(&mut self, record: Record, line: usize, out: &mut Vec<Reply>) {
        let error_line = |message: &str| Reply::Error {
            seq: line,
            id: None,
            message: message.to_string(),
        };
        match record {
            // `dispatch` queues steps before it hands controls here; a
            // step landing here is a routing bug. Answer with a typed
            // error — a server multiplexing thousands of connections must
            // never panic on one connection's traffic.
            Record::Step { .. } => out.push(error_line("step record misrouted as control")),
            Record::Admit { config } => {
                let id = config.id.clone();
                match self.engine.admit(config) {
                    Ok(()) => out.push(Reply::Line(
                        serde_json::to_string(&serde_json::json!({
                            "op": "admitted", "id": id,
                        }))
                        .expect("serializable"),
                    )),
                    Err(e) => out.push(error_line(&e.to_string())),
                }
            }
            Record::Finish { id } => match self.engine.finish(&id) {
                Ok(states) => out.push(Reply::Line(
                    serde_json::to_string(&serde_json::json!({
                        "op": "finished", "id": id, "states": states,
                    }))
                    .expect("serializable"),
                )),
                Err(e) => out.push(error_line(&e.to_string())),
            },
            Record::Snapshot { id } => match self.engine.snapshot(&id) {
                // The response carries the tenant's cost model alongside the
                // snapshot so a `restore` built from this line re-prices
                // `load` events identically after a restart. Hetero tenants
                // price through the fleet spec inside the snapshot's config,
                // so their cost model is null.
                Ok(snapshot) => {
                    let model = match Pricing::of(&snapshot.config) {
                        Pricing::Scalar(model) => model.to_value(),
                        Pricing::Hetero => serde::Value::Null,
                    };
                    out.push(Reply::Line(
                        serde_json::to_string(&serde_json::json!({
                            "op": "snapshot",
                            "id": id,
                            "snapshot": snapshot.to_value(),
                            "cost_model": model,
                        }))
                        .expect("serializable"),
                    ));
                }
                Err(e) => out.push(error_line(&e.to_string())),
            },
            Record::Restore {
                mut snapshot,
                cost_model,
            } => {
                let id = snapshot.config.id.clone();
                // An explicit model overrides; either way the effective
                // model rides in the config so it survives re-journaling.
                if cost_model.is_some() {
                    snapshot.config.cost_model = cost_model;
                }
                match self.engine.restore(*snapshot) {
                    Ok(()) => out.push(Reply::Line(
                        serde_json::to_string(&serde_json::json!({
                            "op": "restored", "id": id,
                        }))
                        .expect("serializable"),
                    )),
                    Err(e) => out.push(error_line(&e.to_string())),
                }
            }
            Record::Report(id) => {
                let reports = match id {
                    Some(id) => self.engine.report(&id).map(|r| vec![r]),
                    None => self.engine.report_all(),
                };
                match reports {
                    Ok(reports) => {
                        for r in reports {
                            out.push(Reply::Line(
                                serde_json::to_string(&serde_json::json!({
                                    "op": "report", "report": r.to_value(),
                                }))
                                .expect("serializable"),
                            ));
                        }
                    }
                    Err(e) => out.push(error_line(&e.to_string())),
                }
            }
            Record::Stats => match self.engine.shard_stats() {
                // Alongside the per-shard rows: the tenant/event skew over
                // the shards (max over mean, 1.0 = balanced) and the
                // auto-rebalancing policy state (null when disabled) — the
                // load-balance observability the topology policy acts on.
                Ok(stats) => {
                    let tenants: Vec<u64> = stats.iter().map(|s| s.tenants as u64).collect();
                    let events: Vec<u64> = stats.iter().map(|s| s.events).collect();
                    out.push(Reply::Line(
                        serde_json::to_string(&serde_json::json!({
                            "op": "stats",
                            "shards": stats.to_value(),
                            "skew": {
                                "tenants": crate::topology::skew_of(&tenants),
                                "events": crate::topology::skew_of(&events),
                            },
                            "autoscale": autoscale_value(self.engine.autoscale_status()),
                            "energy": energy_value(self.engine.energy_status()),
                        }))
                        .expect("serializable"),
                    ));
                }
                Err(e) => out.push(error_line(&e.to_string())),
            },
            Record::Checkpoint => match self.engine.checkpoint() {
                Ok(report) => {
                    self.since_checkpoint = 0;
                    out.push(Reply::Line(checkpointed_line(&report)));
                }
                Err(e) => out.push(error_line(&e.to_string())),
            },
            Record::Recover => match self.recover_in_place() {
                Ok(report) => out.push(Reply::Line(recovered_line(&report))),
                Err(e) => out.push(error_line(&e.to_string())),
            },
            Record::Rebalance { shards, vnodes } => {
                match self.engine.rebalance(shards, vnodes) {
                    Ok(report) => {
                        // A durable rebalance is fenced by a fresh
                        // checkpoint, so the auto-checkpoint clock restarts.
                        if report.durable {
                            self.since_checkpoint = 0;
                        }
                        out.push(Reply::Line(rebalanced_line(&report, false)));
                    }
                    Err(e) => out.push(error_line(&e.to_string())),
                }
            }
            Record::Autoscale {
                off,
                min,
                max,
                switch_cost,
                shard_cost,
                cooldown,
                priced,
            } => {
                let result = if off {
                    self.engine.set_autoscale(None).map_err(|e| e.to_string())
                } else if let (Some(min), Some(max)) = (min, max) {
                    let mut cfg = crate::TopologyConfig::new(min, max);
                    if let Some(b) = switch_cost {
                        cfg.switch_cost = b;
                    }
                    if let Some(c) = shard_cost {
                        cfg.shard_cost = c;
                    }
                    if let Some(k) = cooldown {
                        cfg.cooldown = k;
                    }
                    if priced {
                        // The policy prices its induced instance through
                        // the engine's energy physics — the same config
                        // the meter bills with, so decision and bill agree.
                        match self.engine.power_config() {
                            Some(p) => cfg.pricing = Some(p),
                            None => {
                                out.push(error_line(
                                    "autoscale \"priced\":true requires energy accounting: \
                                     configure the \"energy\" op first",
                                ));
                                return;
                            }
                        }
                    }
                    self.engine
                        .set_autoscale(Some(cfg))
                        .map_err(|e| e.to_string())
                } else {
                    Ok(()) // bare read-back
                };
                match result {
                    Ok(()) => out.push(Reply::Line(autoscale_line(
                        self.engine.autoscale_status(),
                        self.engine.logical_tick(),
                    ))),
                    Err(message) => out.push(error_line(&message)),
                }
            }
            Record::Energy {
                off,
                model,
                capacity,
                price,
            } => {
                let result: Result<(), String> = if off {
                    self.engine.set_power(None).map_err(|e| e.to_string())
                } else if let Some(model) = model {
                    PowerSpec::parse(&model)
                        .and_then(|spec| {
                            let mut cfg = PowerConfig::new(spec);
                            if let Some(c) = capacity {
                                cfg.capacity = c;
                            }
                            if let Some(p) = price.as_deref() {
                                cfg.price = PriceSchedule::parse(p)?;
                            }
                            Ok(cfg)
                        })
                        .and_then(|cfg| self.engine.set_power(Some(cfg)).map_err(|e| e.to_string()))
                } else {
                    Ok(()) // bare read-back
                };
                match result {
                    Ok(()) => out.push(Reply::Line(energy_line(
                        self.engine.energy_status(),
                        self.engine.logical_tick(),
                    ))),
                    Err(message) => out.push(error_line(&message)),
                }
            }
            Record::Limits {
                max_tenants,
                rate,
                burst,
            } => {
                let mut cfg = self.engine.limits();
                if let Some(n) = max_tenants {
                    cfg.max_tenants = n;
                }
                if let Some(r) = rate {
                    cfg.rate = r;
                }
                if let Some(b) = burst {
                    cfg.burst = b;
                }
                match self.engine.set_limits(cfg) {
                    // Read back from the engine: the echoed burst is the
                    // effective (rate-clamped) capacity, not the raw input.
                    Ok(()) => {
                        let effective = self.engine.limits();
                        out.push(Reply::Line(
                            serde_json::to_string(&serde_json::json!({
                                "op": "limits",
                                "max_tenants": effective.max_tenants,
                                "rate": effective.rate,
                                "burst": effective.burst,
                            }))
                            .expect("serializable"),
                        ));
                    }
                    Err(e) => out.push(error_line(&e.to_string())),
                }
            }
            Record::Metrics => {
                let obs = self.engine.obs();
                let rows: Vec<serde::Value> =
                    obs.registry().snapshot().iter().map(metric_row).collect();
                out.push(Reply::Line(
                    serde_json::to_string(&serde_json::json!({
                        "op": "metrics",
                        "enabled": obs.metrics_enabled(),
                        "metrics": serde::Value::Array(rows),
                    }))
                    .expect("serializable"),
                ));
            }
            Record::Trace { last } => {
                let trace = self.engine.obs().trace();
                let events: Vec<serde::Value> = trace.events(last).iter().map(trace_row).collect();
                out.push(Reply::Line(
                    serde_json::to_string(&serde_json::json!({
                        "op": "trace",
                        "enabled": trace.enabled(),
                        "capacity": trace.capacity(),
                        "recorded": trace.recorded(),
                        "events": serde::Value::Array(events),
                    }))
                    .expect("serializable"),
                ));
            }
            Record::WalStats => {
                // Write-volume counters, counted where the engine appends:
                // what *this* handle appended/synced (always counted, even
                // with metrics off) — distinct from the backend's own
                // `store` stats, which survive across handles via recovery.
                let (wal_records, wal_bytes, wal_syncs) = {
                    let v = self.engine.obs().wal_volume();
                    (v.0, v.1, v.2)
                };
                let gathered = self
                    .engine
                    .store()
                    .wal_stats()
                    .map_err(|e| e.to_string())
                    .and_then(|store| {
                        let ids = self.engine.tenant_ids().map_err(|e| e.to_string())?;
                        let shards = self.engine.shard_stats().map_err(|e| e.to_string())?;
                        Ok((store, ids, shards))
                    });
                match gathered {
                    // The trailing counter surfaces the interrupted
                    // topology changes the *last recovery* completed from
                    // the WAL tail (zero when this process never
                    // recovered).
                    Ok((store, ids, shards)) => out.push(Reply::Line(
                        serde_json::to_string(&serde_json::json!({
                            "op": "wal_stats",
                            "store": store.to_value(),
                            "wal": {
                                "appended_records": wal_records,
                                "appended_bytes": wal_bytes,
                                "fsyncs": wal_syncs,
                            },
                            "tenants": ids.len(),
                            "tenant_ids": ids,
                            "tenants_per_shard":
                                shards.iter().map(|s| s.tenants).collect::<Vec<_>>(),
                            "migrations_replayed": self
                                .last_recovery
                                .as_ref()
                                .map(|r| r.migrations_replayed)
                                .unwrap_or(0),
                            // The meter is process state: a recovered
                            // handle restarts these totals from zero.
                            "energy": match self.engine.energy_status() {
                                None => serde::Value::Null,
                                Some(s) => serde_json::json!({
                                    "joules": s.joules, "cost": s.cost,
                                }),
                            },
                        }))
                        .expect("serializable"),
                    )),
                    Err(message) => out.push(error_line(&message)),
                }
            }
        }
    }

    /// Process a block of JSONL request lines (blank lines and `#` comments
    /// skipped), returning the response lines. Runs of consecutive `step`
    /// records become single batched engine calls. Error responses carry
    /// the 1-based input line number of the record that caused them.
    pub fn handle_lines<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        let mut replies = Vec::new();
        let mut pending = Vec::new();
        for (index, line) in lines.into_iter().enumerate() {
            self.dispatch(index + 1, Request::line(line), &mut pending, &mut replies);
        }
        self.flush_steps(&mut pending, &mut replies);
        replies.into_iter().map(Reply::into_line).collect()
    }
}

/// One decoded request, before [`Session::dispatch`] routes it: a JSONL
/// line or a binary frame, whichever framing it arrived in.
pub(crate) enum Request<'a> {
    /// A hot-path step, its id borrowed from the input.
    Step {
        id: &'a str,
        cost: Option<Cost>,
        load: Option<f64>,
    },
    /// A parsed record (a JSON `step` included).
    Record(Record),
    /// A blank or `#` comment line: consumes a sequence number, does
    /// nothing.
    Skip,
    /// A malformed request, answered with this error message.
    Error(String),
}

impl Request<'_> {
    /// Decode one JSONL request line.
    pub(crate) fn line(text: &str) -> Request<'static> {
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            return Request::Skip;
        }
        match parse_record(text) {
            Ok(record) => Request::Record(record),
            Err(e) => Request::Error(e.to_string()),
        }
    }
}

/// Streaming JSONL framing over a [`Session`]: the framing core the
/// binary framing shares, driven by the line codec, so a chunked
/// connection batches, numbers and answers exactly like
/// [`Session::handle_lines`] over the same lines.
///
/// Untrusted buffering is capped: a line longer than [`MAX_LINE_LEN`],
/// terminated or not, is a fatal framing error — typed, line-numbered —
/// and the session dies, exactly as an oversize length prefix kills the
/// binary framing. The check counts the whole line, however its bytes
/// were chunked.
pub type LineSession = crate::framed::Framed<Lines>;

/// The JSONL codec of a [`LineSession`]: splits bytes into `\n`-terminated
/// lines and renders each reply as one line.
#[derive(Default)]
pub struct Lines {
    /// Bytes of the current incomplete line (no `\n` seen yet), capped at
    /// [`MAX_LINE_LEN`].
    partial: Vec<u8>,
}

impl Lines {
    /// Refuse the current line when `more` bytes would take it past
    /// [`MAX_LINE_LEN`]: the connection ends with a typed error at the
    /// line's number, so a peer streaming newline-free bytes cannot grow
    /// the buffer without bound.
    fn overlong(&mut self, more: usize, core: &mut Core) -> bool {
        if self.partial.len() + more <= MAX_LINE_LEN {
            return false;
        }
        self.partial = Vec::new();
        let message = format!("line length exceeds cap {MAX_LINE_LEN}");
        core.end(Some((core.next_seq(), message)));
        true
    }
}

/// Decode one complete request line (sans newline), the `seq`-th.
fn line_request(seq: usize, raw: &[u8]) -> Request<'static> {
    match std::str::from_utf8(raw) {
        Ok(text) => Request::line(text),
        // Whole-file input is read as `String` and never reaches here; on
        // a socket invalid UTF-8 is a line-numbered error like any other.
        Err(_) => Request::Error(format!("line {seq} is not valid UTF-8")),
    }
}

impl Codec for Lines {
    fn decode(&mut self, bytes: &[u8], core: &mut Core, _out: &mut Vec<u8>) {
        let mut rest = bytes;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            if self.overlong(head.len(), core) {
                return;
            }
            if self.partial.is_empty() {
                core.request(line_request(core.next_seq(), head));
            } else {
                self.partial.extend_from_slice(head);
                core.request(line_request(core.next_seq(), &self.partial));
                self.partial.clear();
            }
        }
        if !self.overlong(rest.len(), core) {
            self.partial.extend_from_slice(rest);
        }
    }

    /// A trailing unterminated line is the final request.
    fn finish(&mut self, core: &mut Core) -> Option<(usize, String)> {
        if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            core.request(line_request(core.next_seq(), &line));
        }
        None
    }

    fn encode(&mut self, reply: Reply, out: &mut Vec<u8>) {
        out.extend_from_slice(reply.into_line().as_bytes());
        out.push(b'\n');
    }
}

/// Most bytes one JSONL request line may span (terminator excluded)
/// before the connection is refused — the line framing's cap on
/// untrusted buffering, mirroring the binary framing's
/// [`crate::binwire::MAX_FRAME_LEN`]: a [`LineSession`] fed a longer
/// line, terminated or not and however chunked, emits a typed
/// line-numbered error and dies.
pub const MAX_LINE_LEN: usize = crate::binwire::MAX_FRAME_LEN as usize;

/// Most step events a [`Session`] batches into one engine call: large
/// enough to amortize dispatch, small enough that journaling and
/// auto-checkpointing stay fine-grained under an unbounded step stream.
pub(crate) const MAX_STEP_BATCH: usize = 1024;

/// Render an error response line: `{"op":"error","line":N[,"id":...],
/// "message":...}`. The single rendering both framings decode to — the
/// binary error frame carries (seq, id, message) and rebuilds exactly
/// this line.
pub(crate) fn error_reply_line(seq: usize, id: Option<&str>, message: &str) -> String {
    let v = match id {
        None => serde_json::json!({
            "op": "error", "line": seq, "message": message,
        }),
        Some(id) => serde_json::json!({
            "op": "error", "line": seq, "id": id, "message": message,
        }),
    };
    serde_json::to_string(&v).expect("serializable")
}

/// Render the scalar `stepped` response from its compact fields — the
/// exact line [`stepped_line`] produces for a config-free outcome. The
/// binary framing's `STEPPED` frame decodes through this, pinning
/// byte-identity with the JSONL rendering.
pub(crate) fn stepped_states_line(id: &str, states: &[u32]) -> String {
    serde_json::to_string(&serde_json::json!({
        "op": "stepped",
        "id": id,
        "states": states,
    }))
    .expect("serializable")
}

fn rebalanced_line(report: &crate::RebalanceReport, auto: bool) -> String {
    serde_json::to_string(&serde_json::json!({
        "op": "rebalanced",
        "auto": auto,
        "shards": report.shards,
        "vnodes": report.vnodes,
        "moved": report.moved,
        "seq": report.seq,
        "durable": report.durable,
        "tick": report.tick,
    }))
    .expect("serializable")
}

/// One metrics-registry row for the `metrics` response. Histograms are
/// flattened to their summary (count/sum/max + quantile estimates).
fn metric_row(m: &rsdc_obs::MetricSnapshot) -> serde::Value {
    let mut row: Vec<(String, serde::Value)> =
        vec![("name".to_string(), serde::Value::String(m.id.name.clone()))];
    if let Some((key, value)) = &m.id.label {
        row.push((
            "labels".to_string(),
            serde::Value::Object(vec![(key.clone(), serde::Value::String(value.clone()))]),
        ));
    }
    let kind = |k: &str| ("kind".to_string(), serde::Value::String(k.to_string()));
    match &m.value {
        rsdc_obs::MetricValue::Counter(v) => {
            row.push(kind("counter"));
            row.push(("value".to_string(), serde_json::to_value(v)));
        }
        rsdc_obs::MetricValue::Gauge(v) => {
            row.push(kind("gauge"));
            row.push(("value".to_string(), serde_json::to_value(v)));
        }
        rsdc_obs::MetricValue::Histogram(h) => {
            row.push(kind("histogram"));
            for (key, v) in [
                ("count", h.count),
                ("sum", h.sum),
                ("max", h.max),
                ("p50", h.p50),
                ("p90", h.p90),
                ("p99", h.p99),
            ] {
                row.push((key.to_string(), serde_json::to_value(&v)));
            }
        }
    }
    serde::Value::Object(row)
}

/// One trace event for the `trace` response.
fn trace_row(e: &rsdc_obs::TraceEvent) -> serde::Value {
    let fields: Vec<(String, serde::Value)> = e
        .fields
        .iter()
        .map(|(key, v)| (key.to_string(), trace_field(v)))
        .collect();
    serde::Value::Object(vec![
        ("seq".to_string(), serde_json::to_value(&e.seq)),
        ("tick".to_string(), serde_json::to_value(&e.tick)),
        ("kind".to_string(), serde::Value::String(e.kind.to_string())),
        ("fields".to_string(), serde::Value::Object(fields)),
    ])
}

fn trace_field(v: &rsdc_obs::FieldValue) -> serde::Value {
    match v {
        rsdc_obs::FieldValue::U64(n) => serde_json::to_value(n),
        rsdc_obs::FieldValue::I64(n) => serde_json::to_value(n),
        rsdc_obs::FieldValue::F64(n) => serde_json::to_value(n),
        rsdc_obs::FieldValue::Str(s) => serde::Value::String(s.clone()),
        rsdc_obs::FieldValue::Bool(b) => serde::Value::Bool(*b),
    }
}

/// The auto-rebalancing policy state as a JSON value (`null` = disabled),
/// shared by the `autoscale` response and the `stats` report.
fn autoscale_value(status: Option<crate::TopologyStatus>) -> serde::Value {
    match status {
        None => serde::Value::Null,
        Some(s) => serde_json::json!({
            "min": s.config.min_shards,
            "max": s.config.max_shards,
            "switch_cost": s.config.switch_cost,
            "shard_cost": s.config.shard_cost,
            "cooldown": s.config.cooldown,
            "shards": s.shards,
            "target": s.target,
            "lower": s.lower,
            "upper": s.upper,
            "ticks": s.ticks,
            "imbalance_cost": s.imbalance_cost,
            "switch_cost_accrued": s.switch_cost_accrued,
            "migrations": s.migrations,
            "tenants_moved": s.tenants_moved,
            "event_skew": s.event_skew,
            "priced": s.config.pricing.is_some(),
            "price_now": s.price_now,
        }),
    }
}

fn autoscale_line(status: Option<crate::TopologyStatus>, tick: u64) -> String {
    let enabled = status.is_some();
    serde_json::to_string(&serde_json::json!({
        "op": "autoscale",
        "enabled": enabled,
        "policy": autoscale_value(status),
        "tick": tick,
    }))
    .expect("serializable")
}

/// The energy-accounting state as a JSON value (`null` = disabled),
/// shared by the `energy` response and the `stats` report. Specs render
/// in the parse short syntax, so a read-back is directly replayable.
fn energy_value(status: Option<EnergyStatus>) -> serde::Value {
    match status {
        None => serde::Value::Null,
        Some(s) => serde_json::json!({
            "model": s.model.describe(),
            "capacity": s.capacity,
            "price": s.price.describe(),
            "ticks": s.ticks,
            "joules": s.joules,
            "cost": s.cost,
            "price_now": s.price_now,
            "watts": s.watts,
            "utilization": s.utilization,
        }),
    }
}

fn energy_line(status: Option<EnergyStatus>, tick: u64) -> String {
    let enabled = status.is_some();
    serde_json::to_string(&serde_json::json!({
        "op": "energy",
        "enabled": enabled,
        "meter": energy_value(status),
        "tick": tick,
    }))
    .expect("serializable")
}

fn checkpointed_line(report: &crate::CheckpointReport) -> String {
    serde_json::to_string(&serde_json::json!({
        "op": "checkpointed",
        "seq": report.seq,
        "tenants": report.tenants,
        "durable": report.durable,
    }))
    .expect("serializable")
}

/// Render the `recovered` response for a recovery report (shared by the
/// `recover` wire op and the CLI's startup auto-recovery).
pub fn recovered_line(report: &crate::RecoveryReport) -> String {
    serde_json::to_string(&serde_json::json!({
        "op": "recovered", "report": report.to_value(),
    }))
    .expect("serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_round_trip() {
        let cfg = TenantConfig::new("a", 8, 2.5, PolicySpec::FlcpRounded { k: 4, seed: 9 })
            .with_opt_tracking();
        let line = admit_line(&cfg);
        match parse_record(&line).unwrap() {
            Record::Admit { config } => {
                assert_eq!(config, cfg);
                assert_eq!(config.load_cost_model().beta, 2.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn short_policy_syntax_accepted() {
        let r = parse_record(
            "{\"op\":\"admit\",\"id\":\"x\",\"m\":4,\"beta\":1.0,\"policy\":\"flcp:2,7\"}",
        )
        .unwrap();
        match r {
            Record::Admit { config, .. } => {
                assert_eq!(config.policy, PolicySpec::FlcpRounded { k: 2, seed: 7 });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn step_records() {
        let line = step_load_line("t", 2.25);
        match parse_record(&line).unwrap() {
            Record::Step { id, cost, load } => {
                assert_eq!(id, "t");
                assert!(cost.is_none());
                assert_eq!(load, Some(2.25));
            }
            other => panic!("unexpected {other:?}"),
        }
        let line = step_cost_line("t", &Cost::abs(1.5, 3.0));
        match parse_record(&line).unwrap() {
            Record::Step { cost, .. } => {
                assert_eq!(cost.unwrap(), Cost::abs(1.5, 3.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_records_are_rejected() {
        assert!(parse_record("not json").is_err());
        assert!(parse_record("{\"op\":\"warp\"}").is_err());
        assert!(parse_record("{\"op\":\"step\",\"id\":\"t\"}").is_err());
        assert!(parse_record(
            "{\"op\":\"admit\",\"id\":\"t\",\"m\":4,\"beta\":1.0,\"policy\":\"zzz\"}"
        )
        .is_err());
        // Autoscale: min/max come as a pair, and knob-only retunes are
        // refused rather than silently read back.
        assert!(parse_record("{\"op\":\"autoscale\",\"max\":4}").is_err());
        assert!(parse_record("{\"op\":\"autoscale\",\"switch_cost\":2.0}").is_err());
        assert!(parse_record("{\"op\":\"autoscale\",\"cooldown\":3}").is_err());
        assert!(
            parse_record("{\"op\":\"autoscale\",\"off\":true,\"cooldown\":3}").is_ok(),
            "off wins; stray knobs on a disable are harmless"
        );
        assert!(
            parse_record("{\"op\":\"autoscale\"}").is_ok(),
            "bare read-back"
        );
        assert!(
            parse_record("{\"op\":\"autoscale\",\"priced\":true}").is_err(),
            "priced is a configure knob, not a read-back flag"
        );
        // Energy: knobs without a model are refused, bad values rejected.
        assert!(
            parse_record("{\"op\":\"energy\"}").is_ok(),
            "bare read-back"
        );
        assert!(parse_record("{\"op\":\"energy\",\"capacity\":4.0}").is_err());
        assert!(parse_record("{\"op\":\"energy\",\"price\":\"2.0\"}").is_err());
        assert!(
            parse_record("{\"op\":\"energy\",\"model\":\"linear:100:250\",\"capacity\":0}")
                .is_err()
        );
        assert!(parse_record("{\"op\":\"energy\",\"model\":7}").is_err());
        assert!(
            parse_record("{\"op\":\"energy\",\"off\":true,\"capacity\":4.0}").is_ok(),
            "off wins; stray knobs on a disable are harmless"
        );
    }

    #[test]
    fn trace_ingestion() {
        let tr = Trace::new("t", vec![1.0, 2.5]);
        let lines = trace_records("a", &tr);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(matches!(parse_record(line).unwrap(), Record::Step { .. }));
        }
    }

    #[test]
    fn restore_preserves_custom_cost_model_for_load_events() {
        // Admit with a non-default cost model, stream, snapshot; then build
        // a restore record from the snapshot *response* and continue in a
        // fresh session — load pricing must match the uninterrupted run.
        let admit = "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":2.0,\"policy\":\"lcp\",\
                     \"cost_model\":{\"server\":{\"e_idle\":0.5,\"e_peak\":9.0,\
                     \"delay_weight\":4.0,\"delay_eps\":0.01},\"overload\":99.0,\"beta\":2.0}}";
        let loads = [2.0, 5.5, 3.0, 1.0];
        let steps: Vec<String> = loads.iter().map(|&l| step_load_line("a", l)).collect();

        // Uninterrupted reference.
        let mut full = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut lines = vec![admit.to_string()];
        lines.extend(steps.iter().cloned());
        lines.push("{\"op\":\"report\",\"id\":\"a\"}".to_string());
        let full_out = full.handle_lines(lines.iter().map(|s| s.as_str()));
        let want: serde::Value = serde_json::from_str(full_out.last().unwrap()).unwrap();

        // Interrupted after two steps.
        let mut first = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut lines = vec![admit.to_string()];
        lines.extend(steps[..2].iter().cloned());
        lines.push("{\"op\":\"snapshot\",\"id\":\"a\"}".to_string());
        let out = first.handle_lines(lines.iter().map(|s| s.as_str()));
        let snap_line: serde::Value = serde_json::from_str(out.last().unwrap()).unwrap();
        let restore = serde_json::to_string(&serde_json::json!({
            "op": "restore",
            "snapshot": snap_line["snapshot"].clone(),
            "cost_model": snap_line["cost_model"].clone(),
        }))
        .unwrap();

        let mut second = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(2)));
        let mut lines = vec![restore];
        lines.extend(steps[2..].iter().cloned());
        lines.push("{\"op\":\"report\",\"id\":\"a\"}".to_string());
        let out = second.handle_lines(lines.iter().map(|s| s.as_str()));
        let got: serde::Value = serde_json::from_str(out.last().unwrap()).unwrap();

        assert_eq!(
            got["report"]["breakdown"], want["report"]["breakdown"],
            "restored session must price load events with the admit-time cost model"
        );
    }

    #[test]
    fn pricing_follows_the_tenant_not_the_session() {
        // A tenant admitted straight through the engine, before any session
        // existed, is priced by its own cost model — exactly like a twin
        // admitted over the wire.
        let model = CostModel {
            server: rsdc_core::ServerParams {
                e_idle: 0.5,
                e_peak: 9.0,
                delay_weight: 4.0,
                delay_eps: 0.01,
            },
            overload: 99.0,
            beta: 2.0,
        };
        let cfg = TenantConfig::new("a", 8, 2.0, PolicySpec::Lcp).with_cost_model(model);
        let mut lines: Vec<String> = [2.0, 5.5, 3.0, 7.5, 1.0]
            .iter()
            .map(|&l| step_load_line("a", l))
            .collect();
        lines.push("{\"op\":\"snapshot\",\"id\":\"a\"}".to_string());

        let engine = crate::Engine::new(crate::EngineConfig::with_shards(2));
        engine.admit(cfg.clone()).unwrap();
        let direct = Session::new(engine).handle_lines(lines.iter().map(|s| s.as_str()));

        let mut twin = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(2)));
        let admitted = twin.handle_lines([admit_line(&cfg).as_str()]);
        assert!(admitted[0].contains("\"admitted\""), "{admitted:?}");
        let wired = twin.handle_lines(lines.iter().map(|s| s.as_str()));

        assert_eq!(direct, wired);
        let snapshot: serde::Value = serde_json::from_str(direct.last().unwrap()).unwrap();
        assert_eq!(snapshot["cost_model"], model.to_value());
    }

    const HETERO_ADMIT: &str = "{\"op\":\"admit\",\"id\":\"h\",\"policy\":\"hetero:frontier\",\
         \"track_opt\":true,\"fleet\":{\"types\":[\
         {\"count\":3,\"beta\":1.0,\"energy\":1.0,\"capacity\":1.0},\
         {\"count\":2,\"beta\":2.5,\"energy\":1.4,\"capacity\":2.0}],\
         \"delay_eps\":0.3}}";

    #[test]
    fn hetero_admit_parses_fleet_and_derives_m() {
        match parse_record(HETERO_ADMIT).unwrap() {
            Record::Admit { config, .. } => {
                assert!(config.policy.is_hetero());
                assert_eq!(config.m, 5, "m derives from the fleet");
                assert_eq!(config.beta, 0.0);
                assert!(config.track_opt);
                let PolicySpec::Hetero { fleet, algo } = &config.policy else {
                    panic!("not hetero");
                };
                assert_eq!(*algo, HeteroAlgo::Frontier);
                assert_eq!(fleet.types.len(), 2);
                assert_eq!(fleet.delay_weight, 1.0, "defaulted");
                assert_eq!(fleet.overload, 25.0, "defaulted");
                // The canonical admit line for this config round-trips too.
                let line = admit_line(&config);
                match parse_record(&line).unwrap() {
                    Record::Admit { config: back, .. } => assert_eq!(back, config),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_record(
            "{\"op\":\"admit\",\"id\":\"h\",\"policy\":\"hetero:zap\",\"fleet\":{\"types\":[]}}"
        )
        .is_err());
        assert!(
            parse_record("{\"op\":\"admit\",\"id\":\"h\",\"policy\":\"hetero\"}").is_err(),
            "hetero admit requires a fleet"
        );
    }

    #[test]
    fn non_convex_explicit_costs_are_refused_typed_and_numbered() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let out = session.handle_lines([
            "{\"op\":\"admit\",\"id\":\"c\",\"m\":4,\"beta\":2.0,\"policy\":\"lcp\",\"track_opt\":true}",
            "{\"op\":\"step\",\"id\":\"c\",\"cost\":{\"Table\":[0.0,5.0,1.0,5.0,9.0]}}",
            "{\"op\":\"step\",\"id\":\"c\",\"cost\":{\"Abs\":{\"slope\":1.0,\"center\":3.0}}}",
            "{\"op\":\"step\",\"id\":\"c\",\"load\":2.5}",
            "{\"op\":\"report\",\"id\":\"c\"}",
        ]);
        let parsed: Vec<serde::Value> = out
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed[1]["op"], "error", "{out:?}");
        assert_eq!(parsed[1]["line"], 2);
        let message = parsed[1]["message"].as_str().unwrap();
        assert!(message.contains("slot 1 is not convex"), "{message}");
        // The refused step left the tenant untouched: the next two steps
        // are its slots 1 and 2.
        assert_eq!(parsed[2]["op"], "stepped");
        assert_eq!(parsed[3]["op"], "stepped");
        assert_eq!(parsed[4]["report"]["events"], 2);
    }

    #[test]
    fn fractional_tenants_refuse_concave_costs_without_track_opt() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        for (id, policy) in [("h", "halfstep:3"), ("m", "memoryless:3")] {
            let line = |rest: &str| format!("{{\"id\":\"{id}\",{rest}}}");
            let lines = [
                line(&format!(
                    "\"op\":\"admit\",\"m\":4,\"beta\":2.0,\"policy\":\"{policy}\""
                )),
                line("\"op\":\"step\",\"cost\":{\"Abs\":{\"slope\":1.0,\"center\":2.5}}"),
                line("\"op\":\"snapshot\""),
                line("\"op\":\"step\",\"cost\":{\"Table\":[0.0,3.0,5.0,6.0,6.5]}"),
                line("\"op\":\"snapshot\""),
            ];
            let out = session.handle_lines(lines.iter().map(String::as_str));
            let error: serde::Value = serde_json::from_str(&out[3]).unwrap();
            assert_eq!(error["op"], "error", "{policy}: {out:?}");
            assert_eq!(error["line"], 4);
            let message = error["message"].as_str().unwrap();
            assert!(message.contains("slot 2 is not convex"), "{message}");
            assert_eq!(
                out[2], out[4],
                "{policy}: the refused step moved the tenant"
            );
        }
    }

    #[test]
    fn fractional_tenants_step_over_an_infinite_prefix() {
        // A load cost is infinite below its load. The first state that
        // serves it is the minimizer, and every tenant must commit it.
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut lines = Vec::new();
        for (id, policy) in [("h", "halfstep:1"), ("m", "memoryless:1"), ("l", "lcp")] {
            lines.push(format!(
                "{{\"op\":\"admit\",\"id\":\"{id}\",\"m\":16,\"beta\":2.0,\"policy\":\"{policy}\"}}"
            ));
            lines.push(format!(
                "{{\"op\":\"step\",\"id\":\"{id}\",\"cost\":{{\"Load\":{{\"lambda\":12.0,\
                 \"unit\":{{\"Affine\":{{\"base\":1.0,\"slope\":1.0}}}}}}}}}}"
            ));
            lines.push(format!("{{\"op\":\"report\",\"id\":\"{id}\"}}"));
        }
        let out = session.handle_lines(lines.iter().map(String::as_str));
        for replies in out.chunks(3) {
            let stepped: serde::Value = serde_json::from_str(&replies[1]).unwrap();
            let report: serde::Value = serde_json::from_str(&replies[2]).unwrap();
            assert_eq!(stepped["states"], serde_json::json!([12]), "{replies:?}");
            let operating = &report["report"]["breakdown"]["operating"];
            assert_eq!(operating.as_f64(), Some(24.0), "{replies:?}");
        }
    }

    #[test]
    fn hetero_session_streams_snapshots_and_rejects_explicit_costs() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(2)));
        let loads = [1.0, 4.5, 2.0, 5.5];
        let mut lines = vec![HETERO_ADMIT.to_string()];
        lines.extend(loads.iter().map(|&l| step_load_line("h", l)));
        lines.push(
            "{\"op\":\"step\",\"id\":\"h\",\"cost\":{\"Abs\":{\"slope\":1.0,\"center\":3.0}}}"
                .into(),
        );
        lines.push("{\"op\":\"report\",\"id\":\"h\"}".into());
        lines.push("{\"op\":\"snapshot\",\"id\":\"h\"}".into());
        let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
        let parsed: Vec<serde::Value> = out
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed[0]["op"], "admitted");
        for p in &parsed[1..=loads.len()] {
            assert_eq!(p["op"], "stepped");
            assert!(p["configs"][0].as_array().is_some(), "{p:?}");
        }
        // The explicit-cost step on line 6 is rejected with its line number.
        let err = &parsed[loads.len() + 1];
        assert_eq!(err["op"], "error");
        assert_eq!(err["line"], 6);
        assert!(err["message"].as_str().unwrap().contains("load"));
        let report = &parsed[loads.len() + 2]["report"];
        assert_eq!(report["committed"], 4);
        assert!(report["last_config"].as_array().is_some());
        assert!(report["ratio"].as_f64().unwrap() >= 1.0 - 1e-9);
        // Hetero snapshots carry a null cost model and restore elsewhere.
        let snap_line = parsed.last().unwrap();
        assert!(snap_line["cost_model"].is_null());
        let restore = serde_json::to_string(&serde_json::json!({
            "op": "restore", "snapshot": snap_line["snapshot"].clone(),
        }))
        .unwrap();
        let mut second = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut lines = vec![restore];
        lines.extend(loads.iter().map(|&l| step_load_line("h", l)));
        lines.push("{\"op\":\"report\",\"id\":\"h\"}".into());
        let out = second.handle_lines(lines.iter().map(|s| s.as_str()));
        assert!(out[0].contains("restored"), "{}", out[0]);
        let got: serde::Value = serde_json::from_str(out.last().unwrap()).unwrap();
        assert_eq!(got["report"]["committed"], 8);
    }

    #[test]
    fn rebalance_op_repartitions_live_sessions() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut lines = vec![
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":2.0,\"policy\":\"lcp\"}".to_string(),
            "{\"op\":\"admit\",\"id\":\"b\",\"m\":8,\"beta\":2.0,\"policy\":\"flcp:2,7\"}"
                .to_string(),
        ];
        lines.extend(
            [2.0, 5.5, 3.0]
                .iter()
                .flat_map(|&l| [step_load_line("a", l), step_load_line("b", l)]),
        );
        lines.push("{\"op\":\"rebalance\",\"shards\":3}".to_string());
        lines.extend(
            [1.0, 4.0]
                .iter()
                .flat_map(|&l| [step_load_line("a", l), step_load_line("b", l)]),
        );
        lines.push("{\"op\":\"report\"}".to_string());
        let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
        let rebalanced: serde::Value = out
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .find(|v: &serde::Value| v["op"] == "rebalanced")
            .expect("rebalanced response");
        assert_eq!(rebalanced["shards"], 3);
        assert_eq!(
            rebalanced["moved"], 2,
            "1 → 3 shards moves both tenants here"
        );
        assert_eq!(rebalanced["durable"], false);
        assert_eq!(session.engine().shards(), 3);

        // Reports match an unrebalanced session fed the same stream.
        let mut reference = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let plain: Vec<String> = lines
            .iter()
            .filter(|l| !l.contains("rebalance"))
            .cloned()
            .collect();
        let want = reference.handle_lines(plain.iter().map(|s| s.as_str()));
        let reports = |outs: &[String]| -> Vec<String> {
            outs.iter()
                .filter(|l| l.contains("\"op\":\"report\""))
                .cloned()
                .collect()
        };
        assert_eq!(reports(&out), reports(&want));

        // Bad rebalance requests carry their line number.
        let out = session.handle_lines(["{\"op\":\"rebalance\"}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "error");
        assert_eq!(v["line"], 1);
        let out = session.handle_lines(["{\"op\":\"rebalance\",\"shards\":0}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "error");
    }

    #[test]
    fn limits_op_sets_and_reports_admission_config() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(2)));
        // Query before anything is set: everything unlimited.
        let out = session.handle_lines(["{\"op\":\"limits\"}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "limits");
        assert_eq!(v["max_tenants"], 0);
        assert_eq!(v["rate"], 0.0);
        // Cap at one tenant and throttle to 1 event per tick after a
        // burst of 2; the third step of the first batch and the second
        // admit must fail with typed, line-numbered errors.
        let lines = [
            "{\"op\":\"limits\",\"max_tenants\":1,\"rate\":1.0,\"burst\":2.0}",
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":2.0,\"policy\":\"lcp\"}",
            "{\"op\":\"admit\",\"id\":\"b\",\"m\":8,\"beta\":2.0,\"policy\":\"lcp\"}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":2.0}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":3.0}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":4.0}",
            "{\"op\":\"report\",\"id\":\"a\"}",
        ];
        let out = session.handle_lines(lines);
        let parsed: Vec<serde::Value> = out
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed[0]["op"], "limits");
        assert_eq!(parsed[0]["max_tenants"], 1);
        assert_eq!(parsed[1]["op"], "admitted");
        assert_eq!(parsed[2]["op"], "error");
        assert_eq!(parsed[2]["line"], 3);
        assert!(parsed[2]["message"].as_str().unwrap().contains("rejected"));
        let throttled = parsed
            .iter()
            .find(|v| v["op"] == "error" && v["line"] == 6)
            .expect("throttled step error");
        assert!(throttled["message"].as_str().unwrap().contains("throttled"));
        assert_eq!(parsed.last().unwrap()["report"]["events"], 2);
        // A burst below the rate is clamped up, and the echo reports the
        // capacity actually enforced, not the raw input.
        let out = session.handle_lines(["{\"op\":\"limits\",\"rate\":4.0,\"burst\":1.0}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "limits");
        assert_eq!(v["burst"], 4.0);
        // Invalid values are refused with a line number.
        let out = session.handle_lines(["{\"op\":\"limits\",\"rate\":-2.0}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "error");
        assert_eq!(v["line"], 1);
    }

    #[test]
    fn errors_carry_the_input_line_number() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let lines = [
            "# comment lines still count toward numbering",
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":4,\"beta\":1.0,\"policy\":\"lcp\"}",
            "",
            "not json at all",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":1.0}",
            "{\"op\":\"step\",\"id\":\"ghost\",\"load\":1.0}",
            "{\"op\":\"finish\",\"id\":\"ghost\"}",
        ];
        let out = session.handle_lines(lines);
        let parsed: Vec<serde::Value> = out
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // Parse error on line 4.
        assert_eq!(parsed[1]["op"], "error");
        assert_eq!(parsed[1]["line"], 4);
        // Per-event failure names line 6 (the ghost step), not the batch.
        let ghost = parsed
            .iter()
            .find(|v| v["op"] == "error" && v["id"] == "ghost")
            .expect("ghost error");
        assert_eq!(ghost["line"], 6);
        // Control-op failure names line 7.
        assert_eq!(parsed.last().unwrap()["op"], "error");
        assert_eq!(parsed.last().unwrap()["line"], 7);
    }

    #[test]
    fn durable_session_checkpoints_and_recovers_over_the_wire() {
        use rsdc_store::{FileStore, FileStoreConfig};
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join("rsdc-wire-tests")
            .join(format!("session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store: Arc<dyn rsdc_store::Durability> =
            Arc::new(FileStore::open(&dir, FileStoreConfig::default()).unwrap());

        // Admit with a custom cost model, stream, checkpoint mid-way, then
        // stream more events that only live in the WAL.
        let admit = "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":2.0,\"policy\":\"flcp:2,9\",\
                     \"cost_model\":{\"server\":{\"e_idle\":0.5,\"e_peak\":9.0,\
                     \"delay_weight\":4.0,\"delay_eps\":0.01},\"overload\":99.0,\"beta\":2.0}}";
        let loads = [2.0, 5.5, 3.0, 1.0, 4.0, 2.5];

        // Uninterrupted reference for the final report.
        let mut reference = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut lines = vec![admit.to_string()];
        lines.extend(loads.iter().map(|&l| step_load_line("a", l)));
        lines.push("{\"op\":\"report\",\"id\":\"a\"}".to_string());
        let want_out = reference.handle_lines(lines.iter().map(|s| s.as_str()));
        let want: serde::Value = serde_json::from_str(want_out.last().unwrap()).unwrap();

        // Durable run, killed after 4 of 6 loads (2 post-checkpoint).
        let (mut durable, recovered) =
            Session::open_durable_cfg(crate::EngineConfig::with_shards(1), store.clone()).unwrap();
        assert!(recovered.is_none(), "fresh store");
        let mut lines = vec![admit.to_string()];
        lines.extend(loads[..2].iter().map(|&l| step_load_line("a", l)));
        lines.push("{\"op\":\"checkpoint\"}".to_string());
        lines.extend(loads[2..4].iter().map(|&l| step_load_line("a", l)));
        let out = durable.handle_lines(lines.iter().map(|s| s.as_str()));
        let ck: serde::Value = serde_json::from_str(&out[3]).unwrap();
        assert_eq!(ck["op"], "checkpointed");
        assert_eq!(ck["durable"], true);
        drop(durable); // crash

        // Recover in a fresh session; the custom cost model must survive
        // so the remaining loads are priced identically.
        let (mut session, report) =
            Session::open_durable_cfg(crate::EngineConfig::with_shards(1), store).unwrap();
        let report = report.expect("store had state");
        assert_eq!(report.tenants_restored, 1);
        assert!(report.records_replayed >= 1);
        let mut lines: Vec<String> = loads[4..].iter().map(|&l| step_load_line("a", l)).collect();
        lines.push("{\"op\":\"report\",\"id\":\"a\"}".to_string());
        lines.push("{\"op\":\"wal_stats\"}".to_string());
        let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
        let got: serde::Value = serde_json::from_str(&out[out.len() - 2]).unwrap();
        assert_eq!(
            serde_json::to_string(&got["report"]).unwrap(),
            serde_json::to_string(&want["report"]).unwrap(),
            "recovered report must be byte-identical to the uninterrupted run"
        );
        let stats: serde::Value = serde_json::from_str(out.last().unwrap()).unwrap();
        assert_eq!(stats["op"], "wal_stats");
        assert_eq!(stats["store"]["durable"], true);
        assert_eq!(stats["tenants"], 1);
        assert_eq!(stats["tenant_ids"][0], "a");
        assert_eq!(stats["tenants_per_shard"][0], 1);

        // The explicit `recover` op also works mid-session.
        let out = session.handle_lines(["{\"op\":\"recover\"}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "recovered");
        assert_eq!(v["report"]["tenants_restored"], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn energy_op_meters_sessions_and_reads_back() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(2)));
        let mut lines = vec![
            // Bare read-back before anything is configured.
            "{\"op\":\"energy\"}".to_string(),
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":2.0,\"policy\":\"lcp\"}".to_string(),
            "{\"op\":\"energy\",\"model\":\"linear:100:250\",\"capacity\":4.0,\
             \"price\":\"step:2:1,5\"}"
                .to_string(),
        ];
        lines.extend([2.0, 5.0, 3.0].iter().map(|&l| step_load_line("a", l)));
        lines.push("{\"op\":\"energy\"}".to_string());
        lines.push("{\"op\":\"stats\"}".to_string());
        lines.push("{\"op\":\"report\",\"id\":\"a\"}".to_string());
        lines.push("{\"op\":\"energy\",\"off\":true}".to_string());
        let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
        let parsed: Vec<serde::Value> = out
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed[0]["op"], "energy");
        assert_eq!(parsed[0]["enabled"], false);
        assert!(parsed[0]["meter"].is_null());
        // The configure response echoes the specs in replayable syntax.
        let meter = &parsed[2]["meter"];
        assert_eq!(parsed[2]["enabled"], true);
        assert_eq!(meter["model"], "linear:100:250");
        assert_eq!(meter["price"], "step:2:1,5");
        assert_eq!(meter["ticks"], 0);
        // The three consecutive steps ingested as ONE batch = one logical
        // tick; the meter advanced once and billed it.
        let read = &parsed[6]["meter"];
        assert_eq!(read["ticks"], 1);
        assert!(read["joules"].as_f64().unwrap() > 0.0);
        assert!(read["cost"].as_f64().unwrap() > 0.0);
        assert_eq!(read["watts"].as_array().unwrap().len(), 2);
        assert_eq!(
            read["price_now"], 1.0,
            "tick 1 is still in the cheap window"
        );
        // Stats carries the same meter; the report carries attribution.
        assert_eq!(parsed[7]["op"], "stats");
        assert_eq!(parsed[7]["energy"]["ticks"], 1);
        let energy = &parsed[8]["report"]["energy"];
        assert!(energy["joules"].as_f64().unwrap() > 0.0);
        // Disable: read-back goes null again.
        assert_eq!(parsed[9]["op"], "energy");
        assert_eq!(parsed[9]["enabled"], false);
        assert!(parsed[9]["meter"].is_null());
        // Bad specs are refused with a line number, meter state unchanged.
        let out = session.handle_lines(["{\"op\":\"energy\",\"model\":\"warp:1\"}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "error");
        assert_eq!(v["line"], 1);
    }

    #[test]
    fn priced_autoscale_requires_energy_and_reports_the_price() {
        let mut session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        // Priced autoscale before energy accounting is an error.
        let out =
            session.handle_lines(["{\"op\":\"autoscale\",\"min\":1,\"max\":4,\"priced\":true}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["op"], "error");
        assert!(v["message"].as_str().unwrap().contains("energy"));
        // Configure energy, then priced autoscale takes and reads back.
        let out = session.handle_lines([
            "{\"op\":\"energy\",\"model\":\"linear:100:250\",\"capacity\":4.0,\"price\":\"2.5\"}",
            "{\"op\":\"autoscale\",\"min\":1,\"max\":4,\"priced\":true}",
            "{\"op\":\"autoscale\"}",
        ]);
        let read: serde::Value = serde_json::from_str(out.last().unwrap()).unwrap();
        assert_eq!(read["enabled"], true);
        assert_eq!(read["policy"]["priced"], true);
        assert_eq!(read["policy"]["price_now"], 2.5);
        // An unpriced reconfigure drops the pricing again.
        let out = session.handle_lines(["{\"op\":\"autoscale\",\"min\":1,\"max\":4}"]);
        let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
        assert_eq!(v["policy"]["priced"], false);
        assert!(v["policy"]["price_now"].is_null());
    }

    #[test]
    fn session_serves_full_lifecycle() {
        let engine = crate::Engine::new(crate::EngineConfig::with_shards(2));
        let mut session = Session::new(engine);
        let mut lines = vec![
            "# demo".to_string(),
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":6.0,\"policy\":\"lcp\",\"track_opt\":true}"
                .to_string(),
        ];
        lines.extend(trace_records(
            "a",
            &Trace::new("t", vec![2.0, 5.0, 3.0, 1.0]),
        ));
        lines.push("{\"op\":\"finish\",\"id\":\"a\"}".to_string());
        lines.push("{\"op\":\"report\",\"id\":\"a\"}".to_string());
        lines.push("{\"op\":\"snapshot\",\"id\":\"a\"}".to_string());
        lines.push("{\"op\":\"stats\"}".to_string());
        let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
        let kinds: Vec<String> = out
            .iter()
            .map(|l| {
                let v: serde::Value = serde_json::from_str(l).unwrap();
                v["op"].as_str().unwrap().to_string()
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "admitted", "stepped", "stepped", "stepped", "stepped", "finished", "report",
                "snapshot", "stats"
            ]
        );
        // The report is well-formed and the ratio was tracked.
        let report: serde::Value = serde_json::from_str(&out[6]).unwrap();
        assert_eq!(report["report"]["committed"], 4);
        assert!(report["report"]["ratio"].as_f64().unwrap() >= 1.0 - 1e-9);
        // The emitted snapshot restores into a fresh session.
        let snap_line: serde::Value = serde_json::from_str(&out[7]).unwrap();
        let restore = serde_json::to_string(&serde_json::json!({
            "op": "restore", "snapshot": snap_line["snapshot"].clone(),
        }))
        .unwrap();
        let mut session2 = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let out2 = session2.handle_lines([restore.as_str()]);
        assert!(out2[0].contains("restored"), "{}", out2[0]);
        assert_eq!(session2.engine().report("a").unwrap().committed, 4);
    }
}
