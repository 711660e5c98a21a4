//! The `rsdc` subcommands. Each returns its output as a string so the
//! logic is unit-testable without capturing stdout.

use crate::args::{ArgError, Args};
use rsdc_core::prelude::*;
use rsdc_engine::wire;
use rsdc_online::fractional::{EvalMode, HalfStep};
use rsdc_online::lcp::Lcp;
use rsdc_online::randomized::RandomizedOnline;
use rsdc_online::traits::run as run_online;
use rsdc_sim::{simulate_best_static, simulate_offline_optimum, simulate_online, SimConfig};
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::traces::{Bursty, Diurnal, Spiky, Stationary, Trace};
use rsdc_workloads::{fleet_size, io};

/// Any error a command can produce.
#[derive(Debug)]
pub enum CmdError {
    /// Bad command line.
    Args(ArgError),
    /// I/O failure.
    Io(std::io::Error),
    /// Anything else, with a message.
    Other(String),
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Args(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError::Args(e)
    }
}
impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::Io(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
rsdc — discrete data-center right-sizing (Albers & Quedenfeld, SPAA 2018)

USAGE: rsdc <command> [options]

COMMANDS
  generate   synthesize a workload trace
             --kind diurnal|bursty|spiky|stationary  --slots N [--seed S]
             [--out FILE(.json|.csv)]
  solve      optimal offline schedule for a trace
             --trace FILE [--m M] [--beta B]
             [--algorithm binsearch|dp|backward] [--out FILE]
  online     run an online policy over a trace
             --trace FILE [--m M] [--beta B]
             [--algorithm lcp|randomized] [--seed S] [--out FILE]
  simulate   cluster simulation with energy/SLA metrics
             --trace FILE [--m M] [--beta B] [--policy lcp|opt|static]
  analyze    trace statistics and the optimal schedule's structure
             --trace FILE [--m M] [--beta B]
  engine     sharded multi-tenant streaming engine (JSONL or binary wire)
             --events FILE [--shards N] [--out FILE]
             [--wire binary|jsonl|auto] (request framing of FILE; auto —
             the default — sniffs the binary preamble's RSDC magic;
             binary responses are re-rendered as their identical JSONL)
         or  --trace FILE [--tenants K] [--policy P] [--shards N]
             [--m M] [--beta B] [--out FILE]
             P: lcp | halfstep[:seed] | flcp[:k[,seed]] | memoryless[:seed]
                | lookahead[:w] | followmin | hysteresis[:band]
                | hetero[:frontier|:greedy]
             hetero fleets: --fleet \"count:beta:energy:capacity[,...]\"
             [--delay-weight W] [--delay-eps E] [--overload P]
             control plane: [--vnodes V] (ring density)
             [--max-tenants N] (admission cap, 0 = unlimited)
             [--rate-limit R[:BURST]] (per-tenant token bucket, events
             per batch tick; throttled events get typed error lines)
             [--auto-rebalance LO:HI[:BETA]] (lazy auto-rebalancing: the
             shard count follows the LCP policy between LO and HI, moving
             only when accumulated imbalance cost beats the switching
             cost BETA; changes are incremental migrations)
             live rebalance: send {\"op\":\"rebalance\",\"shards\":N}
             (add \"mode\":\"incremental\" to move only the ring diff)
             energy accounting: [--power-model constant:W | linear:I:P |
             piecewise:W0,W1,...] (per-machine watts vs utilization)
             [--power-capacity C] (events one machine serves per tick)
             [--price P | constant:P | step:PERIOD:P1,P2,.. | trace:P1,..]
             [--price-trace FILE] (one price per tick; text, # comments)
             [--priced-autoscale] (the auto-rebalance policy prices its
             induced costs through the energy model and schedule; query
             live via {\"op\":\"energy\"})
             durability: [--data-dir DIR] [--checkpoint-every N]
             [--fsync-every N]  (a non-empty DIR is recovered: checkpoint +
             WAL replay rebuild the pre-crash engine, then the run resumes)
             observability: [--no-metrics] (disable the metrics registry)
             [--trace-capacity N] (control-plane trace ring size, default
             256) [--metrics-dump FILE] (write Prometheus text on exit and
             after checkpoints; query live via {\"op\":\"metrics\"} /
             {\"op\":\"trace\"})
  serve      multiplexed TCP server for the engine wire protocol: one
             reactor and one engine-backed session shared by every
             connection (tenants, topology and stats are server-wide;
             tenants outlive the connection that admitted them). The
             session takes the engine's session flags: --shards, --vnodes,
             --no-metrics, --trace-capacity, the control-plane and energy
             flags, durability (--data-dir DIR is recovered before the
             readiness line, announced by a \"recovered\" line after it,
             and checkpointed when the server drains) and --metrics-dump
             [--listen ADDR] (default 127.0.0.1:7700; :0 picks a port —
             the bound address is announced on stdout as a JSONL line)
             [--max-conns N] (connection cap, default 64; over-cap
             connects get a typed sequence-0 error and are shed)
             [--write-buf BYTES] (per-connection outbound queue cap,
             default 262144; a connection whose backlog stays over the
             cap past --shed-timeout-ms is shed with a typed error)
             [--wire auto|jsonl|binary] (framing negotiation; auto sniffs
             the 6-byte RSDC preamble per connection)
             [--handshake-timeout-ms MS] (default 10000)
             [--shed-timeout-ms MS] (default 5000)
             [--max-accepts N] (serve N connections then exit; smoke
             tests and benchmarks use this — default serves forever)
  scenario   curated full-stack replay scenarios (the regression fleet)
             scenario list                 name + summary of every scenario
             scenario run <NAME> | --all   run one scenario, or the fleet
             [--quick] (120-tick CI horizon; default is the 960-tick
             nightly horizon) [--json] (emit the deterministic golden
             report instead of summary lines) [--out FILE]
             a run fails (non-zero exit) when any per-scenario bound —
             online/OPT ratio, zero lost events, required rejections /
             recoveries / rebalances / energy — is violated
  help       this text
";

/// Dispatch a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, CmdError> {
    // Only `scenario` has a positional grammar; everything else keeps the
    // historical "unexpected argument" behavior.
    if args.command.as_deref() != Some("scenario") {
        args.no_positionals()?;
    }
    match args.command.as_deref() {
        Some("generate") => cmd_generate(args),
        Some("solve") => cmd_solve(args),
        Some("online") => cmd_online(args),
        Some("simulate") => cmd_simulate(args),
        Some("analyze") => cmd_analyze(args),
        Some("engine") => cmd_engine(args),
        Some("serve") => cmd_serve(args),
        Some("scenario") => cmd_scenario(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CmdError::Other(format!(
            "unknown command {other:?}; try `rsdc help`"
        ))),
    }
}

fn load_trace(args: &Args) -> Result<Trace, CmdError> {
    let path: String = args.require("trace")?;
    let data = std::fs::read(&path)?;
    if io::is_binary(&data) {
        Ok(io::read_binary(&data).map_err(|e| CmdError::Other(format!("{path}: {e}")))?)
    } else if path.ends_with(".csv") {
        Ok(io::read_csv(&data[..], path.clone())?)
    } else {
        io::from_json(
            std::str::from_utf8(&data)
                .map_err(|e| CmdError::Other(format!("{path}: not UTF-8: {e}")))?,
        )
        .map_err(|e| CmdError::Other(format!("{path}: bad JSON trace: {e}")))
    }
}

fn write_output(args: &Args, default_desc: &str, body: String) -> Result<String, CmdError> {
    if let Some(path) = args.get_str("out") {
        std::fs::write(path, &body)?;
        Ok(format!("wrote {default_desc} to {path}\n"))
    } else {
        Ok(body)
    }
}

fn model_of(args: &Args) -> Result<(u32, CostModel, Trace), CmdError> {
    let trace = load_trace(args)?;
    let beta: f64 = args.get_or("beta", 6.0)?;
    if !(beta.is_finite() && beta > 0.0) {
        return Err(CmdError::Other(format!(
            "--beta must be positive, got {beta}"
        )));
    }
    let m: u32 = match args.get_str("m") {
        Some(_) => args.require("m")?,
        None => fleet_size(&trace, 0.8),
    };
    let model = CostModel {
        beta,
        ..Default::default()
    };
    Ok((m, model, trace))
}

fn cmd_generate(args: &Args) -> Result<String, CmdError> {
    let kind: String = args.require("kind")?;
    let slots: usize = args.require("slots")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let trace = match kind.as_str() {
        "diurnal" => Diurnal::default().generate(slots, seed),
        "bursty" => Bursty::default().generate(slots, seed),
        "spiky" => Spiky::default().generate(slots, seed),
        "stationary" => Stationary::default().generate(slots, seed),
        other => {
            return Err(CmdError::Other(format!(
                "unknown trace kind {other:?} (diurnal|bursty|spiky|stationary)"
            )))
        }
    };
    // Output format follows the --out extension: .csv, .rsdt (the compact
    // CRC-guarded binary format), else JSON.
    if let Some(path) = args.get_str("out") {
        if path.ends_with(".rsdt") {
            let mut buf = Vec::new();
            io::write_binary(&mut buf, &trace)?;
            std::fs::write(path, &buf)?;
            return Ok(format!("wrote {} slots of {kind} to {path}\n", trace.len()));
        }
    }
    let body = if args.get_str("out").map(|p| p.ends_with(".csv")) == Some(true) {
        let mut buf = Vec::new();
        io::write_csv(&mut buf, &trace)?;
        String::from_utf8(buf).expect("csv is ascii")
    } else {
        io::to_json(&trace).map_err(|e| CmdError::Other(e.to_string()))?
    };
    write_output(args, &format!("{} slots of {kind}", trace.len()), body)
}

fn cmd_solve(args: &Args) -> Result<String, CmdError> {
    let (m, model, trace) = model_of(args)?;
    let inst = model.instance(m, &trace);
    let algorithm: String = args.get_or("algorithm", "binsearch".to_string())?;
    let sol = match algorithm.as_str() {
        "binsearch" => rsdc_offline::binsearch::solve(&inst),
        "dp" => rsdc_offline::dp::solve(&inst),
        "backward" => rsdc_offline::backward::solve(&inst),
        other => {
            return Err(CmdError::Other(format!(
                "unknown offline algorithm {other:?} (binsearch|dp|backward)"
            )))
        }
    };
    let body = serde_json::json!({
        "trace": trace.label,
        "m": m,
        "beta": model.beta,
        "algorithm": algorithm,
        "cost": sol.cost,
        "schedule": sol.schedule.0,
    });
    write_output(
        args,
        "offline schedule",
        serde_json::to_string_pretty(&body).expect("serializable") + "\n",
    )
}

fn cmd_online(args: &Args) -> Result<String, CmdError> {
    let (m, model, trace) = model_of(args)?;
    let inst = model.instance(m, &trace);
    let algorithm: String = args.get_or("algorithm", "lcp".to_string())?;
    let xs = match algorithm.as_str() {
        "lcp" => {
            let mut a = Lcp::new(m, model.beta);
            run_online(&mut a, &inst)
        }
        "randomized" => {
            let seed: u64 = args.get_or("seed", 0)?;
            let mut a =
                RandomizedOnline::new(HalfStep::new(m, model.beta, EvalMode::Interpolate), m, seed);
            run_online(&mut a, &inst)
        }
        other => {
            return Err(CmdError::Other(format!(
                "unknown online algorithm {other:?} (lcp|randomized)"
            )))
        }
    };
    let alg_cost = cost(&inst, &xs);
    let opt = rsdc_offline::dp::solve_cost_only(&inst);
    let body = serde_json::json!({
        "trace": trace.label,
        "m": m,
        "beta": model.beta,
        "algorithm": algorithm,
        "cost": alg_cost,
        "offline_optimum": opt,
        "ratio": if opt > 0.0 { alg_cost / opt } else { 1.0 },
        "schedule": xs.0,
    });
    write_output(
        args,
        "online schedule",
        serde_json::to_string_pretty(&body).expect("serializable") + "\n",
    )
}

fn cmd_simulate(args: &Args) -> Result<String, CmdError> {
    let (m, model, trace) = model_of(args)?;
    let cfg = SimConfig {
        m,
        cost_model: model,
        ..Default::default()
    };
    let policy: String = args.get_or("policy", "lcp".to_string())?;
    let report = match policy.as_str() {
        "lcp" => {
            let mut a = Lcp::new(m, model.beta);
            simulate_online(&cfg, &trace, &mut a)
        }
        "opt" => simulate_offline_optimum(&cfg, &trace),
        "static" => simulate_best_static(&cfg, &trace),
        other => {
            return Err(CmdError::Other(format!(
                "unknown policy {other:?} (lcp|opt|static)"
            )))
        }
    };
    let body = serde_json::json!({
        "trace": trace.label,
        "m": m,
        "beta": model.beta,
        "policy": report.policy,
        "model_cost": report.model_cost,
        "total_energy": report.metrics.total_energy(),
        "drop_rate": report.metrics.drop_rate(),
        "mean_committed": report.metrics.mean_committed(),
        "total_wakes": report.metrics.total_wakes(),
        "slots": report.metrics.slots(),
    });
    Ok(serde_json::to_string_pretty(&body).expect("serializable") + "\n")
}

fn cmd_analyze(args: &Args) -> Result<String, CmdError> {
    let (m, model, trace) = model_of(args)?;
    let stats = rsdc_workloads::stats::trace_stats(&trace);
    let inst = model.instance(m, &trace);
    let sol = rsdc_offline::binsearch::solve(&inst);
    let breakdown = rsdc_core::analysis::breakdown(&inst, &sol.schedule);
    let sched_stats = rsdc_core::analysis::stats(&sol.schedule);
    let (_, static_cost) = model.best_static_cost(m, &trace);
    let body = serde_json::json!({
        "trace": {
            "label": trace.label,
            "slots": stats.len,
            "mean_load": stats.mean,
            "peak_load": stats.max,
            "peak_to_mean": stats.peak_to_mean,
            "cv": stats.cv,
            "autocorr_lag1": stats.autocorr1,
            "burstiness": stats.burstiness,
        },
        "optimal_schedule": {
            "m": m,
            "beta": model.beta,
            "cost": sol.cost,
            "operating_cost": breakdown.operating,
            "switching_cost": breakdown.switching,
            "switching_share": breakdown.switching_share(),
            "power_ups": sched_stats.total_power_ups,
            "phases": sched_stats.phase_count,
            "peak_servers": sched_stats.peak,
            "mean_servers": sched_stats.mean,
        },
        "right_sizing_savings_pct":
            if static_cost > 0.0 { 100.0 * (1.0 - sol.cost / static_cost) } else { 0.0 },
    });
    Ok(serde_json::to_string_pretty(&body).expect("serializable") + "\n")
}

fn other(e: impl std::fmt::Display) -> CmdError {
    CmdError::Other(e.to_string())
}

/// Build the session `rsdc engine` and `rsdc serve` both run, from the
/// flags they share: the engine config (`--shards`, 0 = the default
/// count; `--vnodes`, 0 = the default ring density; `--no-metrics`;
/// `--trace-capacity`), the store (`--data-dir`, `--fsync-every`) and its
/// recovery, `--checkpoint-every`, the admission limits, the energy meter
/// and the autoscale policy. A malformed flag is refused before the store
/// is opened. Returns the `recovered` line when recovery ran.
///
/// Limits, meter and policy are process state, not persisted: every
/// invocation states its own.
fn open_session(args: &Args) -> Result<(wire::Session, Option<String>), CmdError> {
    use rsdc_engine::{AdmissionConfig, Engine, EngineConfig, DEFAULT_TRACE_CAPACITY};
    use rsdc_engine::{PowerConfig, PowerSpec, PriceSchedule, TopologyConfig};
    use rsdc_store::{Durability, FileStore, FileStoreConfig};
    use std::sync::Arc;

    let shards: usize = args.get_or("shards", 0)?;
    let vnodes: usize = args.get_or("vnodes", 0)?;
    let mut engine_cfg = if shards == 0 {
        EngineConfig::default()
    } else {
        EngineConfig::with_shards(shards)
    };
    if vnodes > 0 {
        engine_cfg.vnodes = vnodes;
    }
    engine_cfg.metrics = !args.has_flag("no-metrics");
    engine_cfg.trace_capacity = args.get_or("trace-capacity", DEFAULT_TRACE_CAPACITY)?;
    let checkpoint_every: u64 = args.get_or("checkpoint-every", 0)?;
    if checkpoint_every > 0 && args.get_str("data-dir").is_none() {
        return Err(other("--checkpoint-every requires --data-dir"));
    }

    let mut limits = AdmissionConfig {
        max_tenants: args.get_or("max-tenants", 0)?,
        ..AdmissionConfig::default()
    };
    if let Some(spec) = args.get_str("rate-limit") {
        let parse = |what: &str, s: &str| -> Result<f64, CmdError> {
            s.parse()
                .map_err(|e| other(format!("bad --rate-limit {what} {s:?}: {e}")))
        };
        match spec.split_once(':') {
            Some((rate, burst)) => {
                limits.rate = parse("rate", rate)?;
                limits.burst = parse("burst", burst)?;
            }
            None => limits.rate = parse("rate", spec)?,
        }
    }

    // Energy accounting: --power-model installs the meter; capacity and
    // price schedule refine it.
    if args.get_str("power-model").is_none()
        && (args.options.contains_key("power-capacity")
            || args.get_str("price").is_some()
            || args.get_str("price-trace").is_some()
            || args.has_flag("priced-autoscale"))
    {
        return Err(other(
            "--power-capacity/--price/--price-trace/--priced-autoscale require --power-model",
        ));
    }
    let power = match args.get_str("power-model") {
        None => None,
        Some(spec) => {
            let mut cfg = PowerConfig::new(
                PowerSpec::parse(spec).map_err(|e| other(format!("bad --power-model: {e}")))?,
            );
            cfg.capacity = args.get_or("power-capacity", cfg.capacity)?;
            if args.get_str("price").is_some() && args.get_str("price-trace").is_some() {
                return Err(other("--price and --price-trace are mutually exclusive"));
            }
            if let Some(p) = args.get_str("price") {
                cfg.price =
                    PriceSchedule::parse(p).map_err(|e| other(format!("bad --price: {e}")))?;
            }
            if let Some(path) = args.get_str("price-trace") {
                let data = std::fs::read_to_string(path)?;
                let mut prices = Vec::new();
                for (n, line) in data.lines().enumerate() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    for tok in line.split([',', ' ', '\t']).filter(|t| !t.is_empty()) {
                        prices.push(tok.parse::<f64>().map_err(|e| {
                            other(format!(
                                "bad --price-trace {path} line {}: {tok:?}: {e}",
                                n + 1
                            ))
                        })?);
                    }
                }
                cfg.price = PriceSchedule::Trace { prices };
            }
            Some(cfg)
        }
    };
    if args.has_flag("priced-autoscale") && args.get_str("auto-rebalance").is_none() {
        return Err(other("--priced-autoscale requires --auto-rebalance"));
    }

    // Lazy auto-rebalancing: `lo:hi` bounds the shard count; the optional
    // `beta` is the induced switching cost per shard powered up.
    let autoscale = match args.get_str("auto-rebalance") {
        None => None,
        Some(spec) => {
            let parse = |what: &str, s: &str| -> Result<usize, CmdError> {
                s.parse()
                    .map_err(|e| other(format!("bad --auto-rebalance {what} {s:?}: {e}")))
            };
            let parts: Vec<&str> = spec.split(':').collect();
            let mut cfg = match parts.as_slice() {
                [lo, hi] | [lo, hi, _] => TopologyConfig::new(parse("lo", lo)?, parse("hi", hi)?),
                _ => {
                    return Err(other(format!(
                        "bad --auto-rebalance {spec:?}: expected lo:hi[:beta]"
                    )))
                }
            };
            if let [_, _, beta] = parts.as_slice() {
                cfg.switch_cost = beta
                    .parse()
                    .map_err(|e| other(format!("bad --auto-rebalance beta {beta:?}: {e}")))?;
            }
            // Priced mode: the policy sees induced costs in modeled watts
            // and priced energy — the same physics the meter bills with.
            if args.has_flag("priced-autoscale") {
                cfg.pricing = power.clone();
            }
            Some(cfg)
        }
    };

    let (session, recovered) = match args.get_str("data-dir") {
        Some(dir) => {
            let sync_every: u64 = args.get_or("fsync-every", 32)?;
            let store: Arc<dyn Durability> =
                Arc::new(FileStore::open(dir, FileStoreConfig { sync_every }).map_err(other)?);
            let (session, report) =
                wire::Session::open_durable_cfg(engine_cfg, store).map_err(other)?;
            (
                session.with_auto_checkpoint(checkpoint_every),
                report.map(|r| wire::recovered_line(&r)),
            )
        }
        None => (wire::Session::new(Engine::new(engine_cfg)), None),
    };
    // The defaults leave a fresh or recovered engine as it is.
    let engine = session.engine();
    engine.set_limits(limits).map_err(other)?;
    engine.set_power(power).map_err(other)?;
    engine.set_autoscale(autoscale).map_err(other)?;
    Ok((session, recovered))
}

/// `--metrics-dump FILE`: write the session's metrics as Prometheus text.
fn dump_metrics(args: &Args, session: &wire::Session) -> Result<(), CmdError> {
    if let Some(path) = args.get_str("metrics-dump") {
        let text = session.engine().obs().registry().render_prometheus();
        std::fs::write(path, text)
            .map_err(|e| other(format!("writing --metrics-dump {path}: {e}")))?;
    }
    Ok(())
}

/// End a session built by [`open_session`]: a durable one takes a final
/// checkpoint, so the next start over the same data directory replays
/// nothing, then `--metrics-dump` records the final totals. Returns the
/// checkpoint's response lines.
fn close_session(args: &Args, session: &mut wire::Session) -> Result<Vec<String>, CmdError> {
    let lines = if session.engine().store().is_durable() {
        session.handle_lines(["{\"op\":\"checkpoint\"}"])
    } else {
        Vec::new()
    };
    dump_metrics(args, session)?;
    Ok(lines)
}

/// Run the streaming engine over a JSONL event file, or over a synthetic
/// multi-tenant fleet derived from a trace, in the session
/// [`open_session`] builds. With `--data-dir` the engine journals every
/// applied event to a write-ahead log and checkpoints periodically;
/// restarting over a non-empty directory recovers the exact pre-crash
/// engine (checkpoint + WAL replay) before processing new input.
fn cmd_engine(args: &Args) -> Result<String, CmdError> {
    use rsdc_engine::binwire::{self, BinSession, MAGIC};
    use rsdc_engine::{PolicySpec, TenantConfig, WireMode};

    let wire_mode = WireMode::parse(&args.get_or("wire", "auto".to_string())?);
    let wire_mode = wire_mode.map_err(CmdError::Other)?;
    let (mut session, recovered) = open_session(args)?;
    let mut responses: Vec<String> = recovered.into_iter().collect();

    let body_lines = if let Some(path) = args.get_str("events") {
        let data = std::fs::read(path)?;
        // Framing negotiation: `auto` sniffs the binary preamble's magic
        // byte (no JSONL record can start with 'R'); `binary`/`jsonl`
        // force one framing — forcing `binary` on a text file yields the
        // protocol's own bad-preamble error rather than a parse spray.
        let binary = match wire_mode {
            WireMode::Jsonl => false,
            WireMode::Binary => true,
            WireMode::Auto => data.first() == Some(&MAGIC[0]),
        };
        if binary {
            let mut bin = BinSession::new(session);
            let mut reply_bytes = Vec::new();
            bin.feed(&data, &mut reply_bytes);
            bin.finish(&mut reply_bytes);
            session = bin.into_session();
            // Re-render the response stream as JSONL so --out, the
            // checkpoint detector and the exit dump stay framing-agnostic
            // (the two renderings are byte-identical by construction).
            binwire::decode_response(&reply_bytes).map_err(CmdError::Other)?
        } else {
            let text = std::str::from_utf8(&data)
                .map_err(|e| CmdError::Other(format!("{path}: not UTF-8: {e}")))?;
            session.handle_lines(text.lines())
        }
    } else {
        // Fleet mode: K tenants, all fed the trace's loads in batched slots.
        let (m, model, trace) = model_of(args)?;
        let tenants: usize = args.get_or("tenants", 4)?;
        if tenants == 0 {
            return Err(CmdError::Other("--tenants must be >= 1".into()));
        }
        let policy_arg: String = args.get_or("policy", "lcp".to_string())?;
        let hetero_fleet = if let Some(algo) =
            rsdc_engine::HeteroAlgo::parse_policy_prefix(&policy_arg)
        {
            use rsdc_engine::FleetSpec;
            let algo = algo.map_err(CmdError::Other)?;
            let types_arg = args.get_str("fleet").ok_or_else(|| {
                CmdError::Other(
                    "--policy hetero requires --fleet \"count:beta:energy:capacity[,...]\"".into(),
                )
            })?;
            let mut fleet =
                FleetSpec::new(FleetSpec::parse_types(types_arg).map_err(CmdError::Other)?);
            fleet.delay_weight = args.get_or("delay-weight", fleet.delay_weight)?;
            fleet.delay_eps = args.get_or("delay-eps", fleet.delay_eps)?;
            fleet.overload = args.get_or("overload", fleet.overload)?;
            fleet
                .validate()
                .map_err(|e| CmdError::Other(e.to_string()))?;
            Some((fleet, algo))
        } else {
            None
        };
        let mut lines: Vec<String> = Vec::new();
        for i in 0..tenants {
            let mut cfg = if let Some((fleet, algo)) = &hetero_fleet {
                TenantConfig::hetero(format!("tenant-{i}"), fleet.clone(), *algo)
            } else {
                // Per-tenant seeds so randomized tenants decorrelate.
                let spec = PolicySpec::parse_short(&policy_arg).map_err(CmdError::Other)?;
                let spec = match spec {
                    PolicySpec::HalfStepRounded { seed } => PolicySpec::HalfStepRounded {
                        seed: seed.wrapping_add(i as u64),
                    },
                    PolicySpec::FlcpRounded { k, seed } => PolicySpec::FlcpRounded {
                        k,
                        seed: seed.wrapping_add(i as u64),
                    },
                    PolicySpec::MemorylessRounded { seed } => PolicySpec::MemorylessRounded {
                        seed: seed.wrapping_add(i as u64),
                    },
                    other => other,
                };
                TenantConfig::new(format!("tenant-{i}"), m, model.beta, spec)
            };
            cfg.track_opt = true;
            lines.push(wire::admit_line(&cfg));
        }
        let mut out = session.handle_lines(lines.iter().map(|s| s.as_str()));
        // Slot-major order: every tenant sees slot t before any sees t+1,
        // and each slot is fed as its **own** session call so one slot is
        // exactly one engine batch — which makes the control plane's
        // logical clock (rate limits, the auto-rebalance policy) read in
        // slots, as documented. Line numbers in any per-event error are
        // slot-relative; fleet mode synthesizes its own lines, so they
        // locate the tenant within the slot.
        for &load in &trace.loads {
            let slot: Vec<String> = (0..tenants)
                .map(|i| wire::step_load_line(&format!("tenant-{i}"), load))
                .collect();
            out.extend(session.handle_lines(slot.iter().map(|s| s.as_str())));
        }
        let mut tail: Vec<String> = (0..tenants)
            .map(|i| format!("{{\"op\":\"finish\",\"id\":\"tenant-{i}\"}}"))
            .collect();
        tail.push("{\"op\":\"report\"}".to_string());
        tail.push("{\"op\":\"stats\"}".to_string());
        out.extend(session.handle_lines(tail.iter().map(|s| s.as_str())));
        out
    };
    // Prometheus text dump: refreshed after any checkpoint taken during the
    // run, and once more on exit so the file always reflects final totals.
    if body_lines
        .iter()
        .any(|l| l.contains("\"op\":\"checkpointed\""))
    {
        dump_metrics(args, &session)?;
    }
    responses.extend(body_lines);
    responses.extend(close_session(args, &mut session)?);

    let body = responses.join("\n") + "\n";
    write_output(args, "engine responses", body)
}

/// Serve the engine wire protocol over TCP: one reactor multiplexing up
/// to `--max-conns` connections over the session [`open_session`]
/// builds. Blocks until the reactor drains (`--max-accepts`) or the
/// process is killed, so the bound address is announced eagerly on
/// stdout, followed by the `recovered` line when recovery ran, rather
/// than in the dispatch result. A drained server closes its session like
/// `rsdc engine` does.
fn cmd_serve(args: &Args) -> Result<String, CmdError> {
    use rsdc_engine::{ServeConfig, Server, WireMode};
    use std::io::Write as _;
    use std::time::Duration;

    let wire_spec: String = args.get_or("wire", "auto".to_string())?;
    let wire = WireMode::parse(&wire_spec).map_err(CmdError::Other)?;
    let mut cfg = ServeConfig {
        wire,
        ..ServeConfig::default()
    };
    cfg.max_conns = args.get_or("max-conns", cfg.max_conns)?;
    if cfg.max_conns == 0 {
        return Err(CmdError::Other("--max-conns must be at least 1".into()));
    }
    cfg.write_buf = args.get_or("write-buf", cfg.write_buf)?;
    let handshake_ms: u64 = args.get_or(
        "handshake-timeout-ms",
        cfg.handshake_timeout.as_millis() as u64,
    )?;
    cfg.handshake_timeout = Duration::from_millis(handshake_ms);
    let shed_ms: u64 = args.get_or("shed-timeout-ms", cfg.shed_timeout.as_millis() as u64)?;
    cfg.shed_timeout = Duration::from_millis(shed_ms);
    if args.get_str("max-accepts").is_some() {
        cfg.max_accepts = Some(args.require("max-accepts")?);
    }

    let (session, recovered) = open_session(args)?;
    let max_conns = cfg.max_conns;
    let listen: String = args.get_or("listen", "127.0.0.1:7700".to_string())?;
    let mut server = Server::bind(session, cfg, &listen)
        .map_err(|e| CmdError::Other(format!("bind {listen}: {e}")))?;
    let addr = server.local_addr();

    // Announce readiness before blocking in the reactor: callers (smoke
    // tests, the bench harness) parse this first line to learn the real
    // port when `--listen` used :0.
    println!(
        "{{\"op\":\"serving\",\"addr\":\"{addr}\",\"wire\":\"{wire_spec}\",\"max_conns\":{max_conns}}}"
    );
    if let Some(line) = recovered {
        println!("{line}");
    }
    std::io::stdout().flush()?;

    let summary = server.run().map_err(CmdError::Io)?;
    let mut out = close_session(args, &mut server.into_session())?;
    out.push(format!(
        "{{\"op\":\"served\",\"accepted\":{},\"closed\":{},\"shed\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
        summary.accepted, summary.closed, summary.shed, summary.bytes_in, summary.bytes_out
    ));
    Ok(out.join("\n") + "\n")
}

const SCENARIO_USAGE: &str =
    "usage: rsdc scenario list | run <NAME>|--all [--quick] [--json] [--out FILE]";

fn cmd_scenario(args: &Args) -> Result<String, CmdError> {
    use rsdc_scenarios::zoo;
    let quick = args.has_flag("quick");
    if let Some(extra) = args.positionals.get(2) {
        return Err(CmdError::Args(ArgError::ExtraPositional(extra.clone())));
    }
    match args.positionals.first().map(|s| s.as_str()) {
        Some("list") => {
            if args.positionals.len() > 1 {
                return Err(CmdError::Args(ArgError::ExtraPositional(
                    args.positionals[1].clone(),
                )));
            }
            let mut out = String::new();
            for s in zoo::zoo(true) {
                out.push_str(&format!("{:22}  {}\n", s.spec.name, s.spec.summary));
            }
            Ok(out)
        }
        Some("run") => {
            let fleet = match (args.positionals.get(1), args.has_flag("all")) {
                (Some(name), false) => match zoo::find(name, quick) {
                    Some(s) => vec![s],
                    None => {
                        return Err(CmdError::Other(format!(
                            "unknown scenario {name:?}; try `rsdc scenario list`"
                        )))
                    }
                },
                (None, true) => zoo::zoo(quick),
                (Some(name), true) => {
                    return Err(CmdError::Other(format!(
                        "give either a scenario name ({name:?}) or --all, not both"
                    )))
                }
                (None, false) => return Err(CmdError::Other(SCENARIO_USAGE.into())),
            };
            let mut lines = String::new();
            let mut reports = Vec::new();
            let mut violations = Vec::new();
            for s in fleet {
                let report = rsdc_scenarios::run(&s.spec)
                    .map_err(|e| CmdError::Other(format!("{}: {e}", s.spec.name)))?;
                let errs = s.bounds.check(&report);
                let status = if errs.is_empty() { "ok" } else { "FAIL" };
                lines.push_str(&format!("[{status}] {}\n", report.summary_line()));
                for e in errs {
                    violations.push(format!("{}: {e}", s.spec.name));
                }
                reports.push(report);
            }
            let body = if args.has_flag("json") {
                // One golden report bare; a fleet as a JSON array.
                if reports.len() == 1 {
                    reports[0].golden_json()
                } else {
                    let docs: Vec<serde_json::Value> = reports
                        .iter()
                        .map(|r| serde_json::from_str(&r.golden_json()).expect("golden parses"))
                        .collect();
                    serde_json::to_string_pretty(&serde_json::Value::Array(docs))
                        .expect("fleet renders")
                        + "\n"
                }
            } else {
                lines
            };
            if !violations.is_empty() {
                return Err(CmdError::Other(format!(
                    "bounds violated:\n  {}",
                    violations.join("\n  ")
                )));
            }
            write_output(args, "scenario report", body)
        }
        Some(other) => Err(CmdError::Other(format!(
            "unknown scenario action {other:?}; {SCENARIO_USAGE}"
        ))),
        None => Err(CmdError::Other(SCENARIO_USAGE.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("rsdc-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_is_returned_by_default() {
        let out = dispatch(&args(&[])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_then_solve_then_online_then_simulate() {
        let trace_path = tmp("pipe.json");
        let out = dispatch(&args(&[
            "generate",
            "--kind",
            "diurnal",
            "--slots",
            "96",
            "--seed",
            "3",
            "--out",
            &trace_path,
        ]))
        .unwrap();
        assert!(out.contains("96 slots"));

        let solved = dispatch(&args(&["solve", "--trace", &trace_path, "--beta", "4.0"])).unwrap();
        let v: serde_json::Value = serde_json::from_str(&solved).unwrap();
        assert!(v["cost"].as_f64().unwrap() > 0.0);
        assert_eq!(v["schedule"].as_array().unwrap().len(), 96);

        let online = dispatch(&args(&["online", "--trace", &trace_path])).unwrap();
        let v: serde_json::Value = serde_json::from_str(&online).unwrap();
        let ratio = v["ratio"].as_f64().unwrap();
        assert!((1.0..=3.0 + 1e-9).contains(&ratio), "ratio {ratio}");

        let sim = dispatch(&args(&[
            "simulate",
            "--trace",
            &trace_path,
            "--policy",
            "opt",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&sim).unwrap();
        assert!(v["total_energy"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn generate_csv_roundtrip() {
        let p = tmp("t.csv");
        dispatch(&args(&[
            "generate", "--kind", "bursty", "--slots", "50", "--out", &p,
        ]))
        .unwrap();
        let solved = dispatch(&args(&["solve", "--trace", &p, "--m", "20"])).unwrap();
        let v: serde_json::Value = serde_json::from_str(&solved).unwrap();
        assert_eq!(v["m"], 20);
    }

    #[test]
    fn solver_choices_agree() {
        let p = tmp("agree.json");
        dispatch(&args(&[
            "generate", "--kind", "spiky", "--slots", "60", "--out", &p,
        ]))
        .unwrap();
        let mut costs = Vec::new();
        for alg in ["binsearch", "dp", "backward"] {
            let out = dispatch(&args(&["solve", "--trace", &p, "--algorithm", alg])).unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            costs.push(v["cost"].as_f64().unwrap());
        }
        assert!((costs[0] - costs[1]).abs() < 1e-6 * (1.0 + costs[1]));
        assert!((costs[1] - costs[2]).abs() < 1e-6 * (1.0 + costs[1]));
    }

    #[test]
    fn analyze_reports_structure() {
        let p = tmp("analyze.json");
        dispatch(&args(&[
            "generate", "--kind", "diurnal", "--slots", "96", "--out", &p,
        ]))
        .unwrap();
        let out = dispatch(&args(&["analyze", "--trace", &p])).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["trace"]["slots"], 96);
        assert!(v["trace"]["peak_to_mean"].as_f64().unwrap() > 1.0);
        assert!(v["optimal_schedule"]["cost"].as_f64().unwrap() > 0.0);
        let op = v["optimal_schedule"]["operating_cost"].as_f64().unwrap();
        let sw = v["optimal_schedule"]["switching_cost"].as_f64().unwrap();
        let total = v["optimal_schedule"]["cost"].as_f64().unwrap();
        assert!((op + sw - total).abs() < 1e-9);
    }

    #[test]
    fn engine_fleet_mode_reports_every_tenant() {
        let p = tmp("engine.json");
        dispatch(&args(&[
            "generate", "--kind", "diurnal", "--slots", "48", "--seed", "4", "--out", &p,
        ]))
        .unwrap();
        let out = dispatch(&args(&[
            "engine",
            "--trace",
            &p,
            "--tenants",
            "3",
            "--policy",
            "lcp",
            "--shards",
            "2",
        ]))
        .unwrap();
        let reports: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|v: &serde_json::Value| v["op"] == "report")
            .collect();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r["report"]["committed"], 48);
            let ratio = r["report"]["ratio"].as_f64().unwrap();
            assert!((1.0 - 1e-9..=3.0 + 1e-9).contains(&ratio), "ratio {ratio}");
        }
        let stats: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|v: &serde_json::Value| v["op"] == "stats")
            .collect();
        assert_eq!(stats.len(), 1);
        let shards = stats[0]["shards"].as_array().unwrap();
        assert_eq!(shards.len(), 2);
        let events: u64 = shards.iter().map(|s| s["events"].as_u64().unwrap()).sum();
        assert_eq!(events, 3 * 48);
    }

    #[test]
    fn engine_hetero_fleet_mode_end_to_end() {
        let p = tmp("engine-hetero.json");
        dispatch(&args(&[
            "generate", "--kind", "diurnal", "--slots", "36", "--seed", "7", "--out", &p,
        ]))
        .unwrap();
        // Hetero without a fleet spec is a usage error.
        assert!(dispatch(&args(&["engine", "--trace", &p, "--policy", "hetero"])).is_err());
        let dir = tmp(&format!("engine-hetero-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |data_dir: Option<&str>| {
            let mut tokens = vec![
                "engine",
                "--trace",
                &p,
                "--tenants",
                "2",
                "--policy",
                "hetero:frontier",
                "--fleet",
                "3:1:1:1,2:2.5:1.4:2",
                "--shards",
                "2",
            ];
            if let Some(d) = data_dir {
                tokens.extend(["--data-dir", d]);
            }
            dispatch(&args(&tokens)).unwrap()
        };
        let out = run(None);
        let reports: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|v: &serde_json::Value| v["op"] == "report")
            .collect();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r["report"]["committed"], 36);
            assert!(r["report"]["last_config"].as_array().is_some());
            assert!(r["report"]["policy"].as_str().unwrap().contains("frontier"));
            let ratio = r["report"]["ratio"].as_f64().unwrap();
            assert!(ratio >= 1.0 - 1e-9, "ratio {ratio}");
        }
        // A durable hetero run over the same trace reports identically and
        // leaves a recoverable data dir behind.
        let durable = run(Some(&dir));
        let durable_reports: Vec<String> = durable
            .lines()
            .filter(|l| l.contains("\"op\":\"report\""))
            .map(|s| s.to_string())
            .collect();
        let want: Vec<String> = out
            .lines()
            .filter(|l| l.contains("\"op\":\"report\""))
            .map(|s| s.to_string())
            .collect();
        assert_eq!(durable_reports, want);
        let resumed = dispatch(&args(&[
            "engine",
            "--events",
            "/dev/null",
            "--data-dir",
            &dir,
        ]))
        .unwrap();
        let first: serde_json::Value =
            serde_json::from_str(resumed.lines().next().unwrap()).unwrap();
        assert_eq!(first["op"], "recovered");
        assert_eq!(first["report"]["tenants_restored"], 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_events_mode_round_trips_wire_records() {
        let p = tmp("events.jsonl");
        let events = "\
{\"op\":\"admit\",\"id\":\"a\",\"m\":6,\"beta\":4.0,\"policy\":\"flcp:2,9\"}\n\
{\"op\":\"step\",\"id\":\"a\",\"load\":2.0}\n\
{\"op\":\"step\",\"id\":\"a\",\"load\":4.5}\n\
{\"op\":\"step\",\"id\":\"a\",\"cost\":{\"Abs\":{\"slope\":1.0,\"center\":3.0}}}\n\
{\"op\":\"report\",\"id\":\"a\"}\n";
        std::fs::write(&p, events).unwrap();
        let out = dispatch(&args(&["engine", "--events", &p, "--shards", "1"])).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        let report: serde_json::Value = serde_json::from_str(lines[4]).unwrap();
        assert_eq!(report["report"]["events"], 3);
        assert_eq!(report["report"]["committed"], 3);
    }

    #[test]
    fn engine_data_dir_resumes_across_invocations() {
        let dir = tmp(&format!("engine-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let admit = "{\"op\":\"admit\",\"id\":\"a\",\"m\":6,\"beta\":4.0,\"policy\":\"flcp:2,9\"}";
        let steps: Vec<String> = [2.0, 4.5, 3.0, 1.0, 5.0, 2.5]
            .iter()
            .map(|l| format!("{{\"op\":\"step\",\"id\":\"a\",\"load\":{l}}}"))
            .collect();
        let report = "{\"op\":\"report\",\"id\":\"a\"}";

        // Uninterrupted reference (no durability).
        let all = tmp("engine-all.jsonl");
        std::fs::write(&all, format!("{admit}\n{}\n{report}\n", steps.join("\n"))).unwrap();
        let out = dispatch(&args(&["engine", "--events", &all, "--shards", "1"])).unwrap();
        let want = out.lines().last().unwrap().to_string();

        // Same stream split across two engine processes sharing a data dir.
        let part1 = tmp("engine-part1.jsonl");
        std::fs::write(&part1, format!("{admit}\n{}\n", steps[..3].join("\n"))).unwrap();
        let part2 = tmp("engine-part2.jsonl");
        std::fs::write(&part2, format!("{}\n{report}\n", steps[3..].join("\n"))).unwrap();
        let out1 = dispatch(&args(&[
            "engine",
            "--events",
            &part1,
            "--shards",
            "1",
            "--data-dir",
            &dir,
            "--checkpoint-every",
            "2",
        ]))
        .unwrap();
        assert!(out1.contains("checkpointed"), "{out1}");
        assert!(!out1.contains("\"recovered\""), "first run starts cold");
        let out2 = dispatch(&args(&[
            "engine",
            "--events",
            &part2,
            "--shards",
            "2",
            "--data-dir",
            &dir,
        ]))
        .unwrap();
        let first: serde_json::Value = serde_json::from_str(out2.lines().next().unwrap()).unwrap();
        assert_eq!(first["op"], "recovered");
        assert_eq!(first["report"]["tenants_restored"], 1);
        let got = out2
            .lines()
            .find(|l| l.contains("\"op\":\"report\""))
            .unwrap()
            .to_string();
        assert_eq!(got, want, "resumed run must report byte-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_control_plane_flags_enforce_limits() {
        let p = tmp("limits.jsonl");
        let events = "\
{\"op\":\"admit\",\"id\":\"a\",\"m\":6,\"beta\":4.0,\"policy\":\"lcp\"}\n\
{\"op\":\"admit\",\"id\":\"b\",\"m\":6,\"beta\":4.0,\"policy\":\"lcp\"}\n\
{\"op\":\"step\",\"id\":\"a\",\"load\":2.0}\n\
{\"op\":\"step\",\"id\":\"a\",\"load\":3.0}\n\
{\"op\":\"step\",\"id\":\"a\",\"load\":4.0}\n\
{\"op\":\"rebalance\",\"shards\":2}\n\
{\"op\":\"report\",\"id\":\"a\"}\n";
        std::fs::write(&p, events).unwrap();
        let out = dispatch(&args(&[
            "engine",
            "--events",
            &p,
            "--shards",
            "1",
            "--vnodes",
            "16",
            "--max-tenants",
            "1",
            "--rate-limit",
            "1:2",
        ]))
        .unwrap();
        let parsed: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // Second admit rejected by the cap, with its line number.
        let rejected = parsed
            .iter()
            .find(|v| v["op"] == "error" && v["line"] == 2)
            .expect("cap rejection");
        assert!(rejected["message"].as_str().unwrap().contains("rejected"));
        // Third step throttled by the 1:2 token bucket.
        let throttled = parsed
            .iter()
            .find(|v| v["op"] == "error" && v["line"] == 5)
            .expect("throttled step");
        assert!(throttled["message"].as_str().unwrap().contains("throttled"));
        // The live rebalance happened and the surviving stream committed.
        let rebalanced = parsed
            .iter()
            .find(|v| v["op"] == "rebalanced")
            .expect("rebalanced");
        assert_eq!(rebalanced["shards"], 2);
        assert_eq!(rebalanced["vnodes"], 16, "--vnodes sets the ring density");
        let report = parsed.iter().find(|v| v["op"] == "report").unwrap();
        assert_eq!(report["report"]["events"], 2);
        // A malformed rate limit is a usage error.
        assert!(dispatch(&args(&["engine", "--events", &p, "--rate-limit", "fast",])).is_err());
    }

    #[test]
    fn engine_observability_flags() {
        let p = tmp("obsflags.jsonl");
        let events = "\
{\"op\":\"admit\",\"id\":\"a\",\"m\":6,\"beta\":4.0,\"policy\":\"lcp\"}\n\
{\"op\":\"step\",\"id\":\"a\",\"load\":2.0}\n\
{\"op\":\"metrics\"}\n\
{\"op\":\"trace\"}\n";
        std::fs::write(&p, events).unwrap();
        let dump = tmp("obsflags.prom");
        let out = dispatch(&args(&[
            "engine",
            "--events",
            &p,
            "--trace-capacity",
            "8",
            "--metrics-dump",
            &dump,
        ]))
        .unwrap();
        let parsed: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let metrics = parsed.iter().find(|v| v["op"] == "metrics").unwrap();
        assert_eq!(metrics["enabled"], true);
        let trace = parsed.iter().find(|v| v["op"] == "trace").unwrap();
        assert_eq!(trace["capacity"], 8, "--trace-capacity sizes the ring");
        let prom = std::fs::read_to_string(&dump).unwrap();
        assert!(
            prom.contains("engine_events_ingested 1"),
            "Prometheus dump records the ingested event: {prom}"
        );
        // --no-metrics empties the registry but keeps the ops answering.
        let out = dispatch(&args(&["engine", "--events", &p, "--no-metrics"])).unwrap();
        let metrics = out
            .lines()
            .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
            .find(|v| v["op"] == "metrics")
            .unwrap();
        assert_eq!(metrics["enabled"], false);
        assert_eq!(metrics["metrics"].as_array().unwrap().len(), 0);
        let _ = std::fs::remove_file(&dump);
    }

    #[test]
    fn engine_auto_rebalance_flag_scales_the_fleet() {
        let p = tmp("autoreb.json");
        dispatch(&args(&[
            "generate", "--kind", "diurnal", "--slots", "40", "--seed", "11", "--out", &p,
        ]))
        .unwrap();
        // 24 tenants in fleet mode = 24 events per slot tick: under
        // f(s) = 24/s + s with beta 4, the LCP plan leaves 1 shard fast.
        let out = dispatch(&args(&[
            "engine",
            "--trace",
            &p,
            "--tenants",
            "24",
            "--shards",
            "1",
            "--auto-rebalance",
            "1:4:4",
        ]))
        .unwrap();
        let parsed: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let auto = parsed
            .iter()
            .find(|v| v["op"] == "rebalanced")
            .expect("an auto-triggered migration");
        assert_eq!(auto["auto"], true);
        assert_eq!(auto["mode"], "incremental");
        assert!(auto["shards"].as_u64().unwrap() > 1);
        // The autoscale state is visible in the closing stats line.
        let stats = parsed.iter().find(|v| v["op"] == "stats").unwrap();
        assert_eq!(stats["autoscale"]["min"], 1);
        assert_eq!(stats["autoscale"]["max"], 4);
        assert!(stats["autoscale"]["migrations"].as_u64().unwrap() >= 1);
        assert!(stats["skew"]["tenants"].as_f64().unwrap() >= 1.0);
        // All 24 tenants still report.
        let reports = parsed.iter().filter(|v| v["op"] == "report").count();
        assert_eq!(reports, 24);
        // Malformed specs are usage errors.
        for bad in ["2", "a:b", "1:2:fast", "1:2:3:4"] {
            assert!(
                dispatch(&args(&["engine", "--trace", &p, "--auto-rebalance", bad])).is_err(),
                "{bad} should be rejected"
            );
        }
        // An inverted range is refused by policy validation.
        assert!(dispatch(&args(&["engine", "--trace", &p, "--auto-rebalance", "4:1"])).is_err());
    }

    #[test]
    fn engine_power_flags_install_the_meter() {
        let p = tmp("power.json");
        dispatch(&args(&[
            "generate", "--kind", "diurnal", "--slots", "20", "--seed", "3", "--out", &p,
        ]))
        .unwrap();
        let trace = tmp("prices.txt");
        std::fs::write(&trace, "# cheap, then expensive\n1.0 1.0\n5.0, 5.0\n").unwrap();
        let out = dispatch(&args(&[
            "engine",
            "--trace",
            &p,
            "--tenants",
            "6",
            "--shards",
            "2",
            "--power-model",
            "linear:100:250",
            "--power-capacity",
            "4.0",
            "--price-trace",
            &trace,
            "--auto-rebalance",
            "1:4:4",
            "--priced-autoscale",
        ]))
        .unwrap();
        let parsed: Vec<serde_json::Value> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // The closing stats line carries a live meter and a priced policy.
        let stats = parsed.iter().find(|v| v["op"] == "stats").unwrap();
        let energy = &stats["energy"];
        assert_eq!(energy["model"], "linear:100:250");
        assert_eq!(energy["capacity"], 4.0);
        assert_eq!(energy["price"], "trace:1,1,5,5");
        assert!(energy["ticks"].as_u64().unwrap() >= 20);
        assert!(energy["joules"].as_f64().unwrap() > 0.0);
        assert!(energy["cost"].as_f64().unwrap() > 0.0);
        assert_eq!(stats["autoscale"]["priced"], true);
        assert_eq!(stats["autoscale"]["price_now"], 5.0, "past the trace end");
        // Reports carry attributed energy.
        let report = parsed.iter().find(|v| v["op"] == "report").unwrap();
        assert!(report["report"]["energy"]["joules"].as_f64().is_some());
        // Knobs without the model, bad specs, and conflicting schedules
        // are usage errors.
        assert!(dispatch(&args(&["engine", "--trace", &p, "--price", "2.0"])).is_err());
        assert!(dispatch(&args(&["engine", "--trace", &p, "--priced-autoscale"])).is_err());
        assert!(dispatch(&args(&["engine", "--trace", &p, "--power-model", "warp:1"])).is_err());
        assert!(dispatch(&args(&[
            "engine",
            "--trace",
            &p,
            "--power-model",
            "linear:100:250",
            "--price",
            "1.0",
            "--price-trace",
            &trace,
        ]))
        .is_err());
        assert!(
            dispatch(&args(&[
                "engine",
                "--trace",
                &p,
                "--power-model",
                "linear:100:250",
                "--priced-autoscale",
            ]))
            .is_err(),
            "priced autoscale without --auto-rebalance is refused"
        );
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(dispatch(&args(&["solve"])).is_err()); // missing --trace
        assert!(dispatch(&args(&["generate", "--kind", "nope", "--slots", "5"])).is_err());
        let p = tmp("beta.json");
        dispatch(&args(&[
            "generate", "--kind", "diurnal", "--slots", "5", "--out", &p,
        ]))
        .unwrap();
        assert!(dispatch(&args(&["solve", "--trace", &p, "--beta", "-1"])).is_err());
    }

    #[test]
    fn legacy_commands_still_reject_positionals() {
        let cases: &[&[&str]] = &[
            &["solve", "extra", "--trace", "t.json"],
            &["generate", "bogus", "--kind", "diurnal", "--slots", "5"],
            &["engine", "surprise"],
        ];
        for case in cases {
            match dispatch(&args(case)) {
                Err(CmdError::Args(ArgError::ExtraPositional(_))) => {}
                other => panic!("{case:?}: expected ExtraPositional, got {other:?}"),
            }
        }
    }

    #[test]
    fn scenario_usage_errors() {
        // (argv, substring the error must mention)
        let cases: &[(&[&str], &str)] = &[
            (&["scenario"], "usage: rsdc scenario"),
            (&["scenario", "run"], "usage: rsdc scenario"),
            (&["scenario", "frobnicate"], "unknown scenario action"),
            (&["scenario", "run", "no-such-scenario"], "unknown scenario"),
            (
                &["scenario", "run", "diurnal-baseline", "--all"],
                "not both",
            ),
        ];
        for (case, needle) in cases {
            let err = dispatch(&args(case)).expect_err(&format!("{case:?} should fail"));
            let msg = err.to_string();
            assert!(msg.contains(needle), "{case:?}: {msg:?} missing {needle:?}");
        }
        // Trailing garbage after the grammar is an arg error, not a run.
        for case in [
            &["scenario", "run", "diurnal-baseline", "junk"][..],
            &["scenario", "list", "junk"][..],
        ] {
            match dispatch(&args(case)) {
                Err(CmdError::Args(ArgError::ExtraPositional(p))) => assert_eq!(p, "junk"),
                other => panic!("{case:?}: expected ExtraPositional, got {other:?}"),
            }
        }
    }

    #[test]
    fn scenario_list_names_the_fleet() {
        let out = dispatch(&args(&["scenario", "list"])).unwrap();
        for name in ["diurnal-baseline", "crash-recovery", "cold-start-flood"] {
            assert!(out.contains(name), "list output missing {name}: {out}");
        }
    }

    #[test]
    fn scenario_run_quick_is_green_and_deterministic() {
        let a = args(&["scenario", "run", "diurnal-baseline", "--quick"]);
        let out = dispatch(&a).unwrap();
        assert!(out.starts_with("[ok] diurnal-baseline:"), "{out}");

        let j = args(&["scenario", "run", "diurnal-baseline", "--quick", "--json"]);
        let one = dispatch(&j).unwrap();
        let two = dispatch(&j).unwrap();
        assert_eq!(one, two, "golden JSON must be byte-identical across runs");
        let doc: serde_json::Value = serde_json::from_str(&one).unwrap();
        assert_eq!(doc["scenario"].as_str(), Some("diurnal-baseline"));
        assert_eq!(doc["events_lost"].as_f64(), Some(0.0));
    }

    #[test]
    fn scenario_run_writes_out_file() {
        let p = tmp("scenario.json");
        let out = dispatch(&args(&[
            "scenario",
            "run",
            "cold-start-flood",
            "--quick",
            "--json",
            "--out",
            &p,
        ]))
        .unwrap();
        assert!(out.contains("wrote scenario report"));
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(doc["scenario"].as_str(), Some("cold-start-flood"));
        assert!(doc["events_throttled"].as_f64().unwrap() > 0.0);
        let _ = std::fs::remove_file(&p);
    }
}
