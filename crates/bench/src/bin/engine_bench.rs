//! Engine throughput trajectory: a small wall-clock bench runner whose
//! output is checked in as `BENCH_engine.json` at the repo root, so the
//! engine's performance shape is recorded alongside the code that produced
//! it.
//!
//! Eight measurements, mirroring the Criterion `engine_throughput` and
//! `wire_codec` groups but cheap enough to re-run by hand (and, with
//! `--quick`, in CI):
//!
//! - `throughput`  — policy-steps/s at shard counts 1, 2, 4, 8
//! - `store_overhead` — `NullStore` vs `FileStore` journaling at 2 shards
//! - `hetero`      — frontier vs greedy configuration-lattice stepping
//! - `rebalance`   — full vs incremental migration, tenants moved per
//!   second on a 4↔8 shard swing
//! - `energy`      — metering overhead (power meter off vs on at 4
//!   shards) and autoscale decision rates with counted vs priced
//!   induced costs
//! - `wire_codec`  — ingest decode rate and bytes/event per wire framing
//!   (JSONL parse vs binary frame walk); the schema pins binary at ≥2x
//!   the JSONL step rate, the one relative claim stable across machines
//! - `serve_throughput` — end-to-end served steps/s through the TCP
//!   reactor on loopback, concurrent connections per framing (prices the
//!   full stack: reactor, framing, engine, socket I/O)
//! - `fleet_scaling` — median latency of one 8-event batch on 2 shards
//!   with 1k, 10k and 100k admitted tenants: a batch must cost O(batch),
//!   not O(fleet), so the schema caps the 100k row at 1.5x the 1k row
//!
//! The engine runs with the metrics registry **disabled** (the documented
//! hot-path configuration), so these numbers price the engine, not the
//! observability layer.
//!
//! USAGE: engine_bench [--quick] [--out FILE] [--validate FILE] [--shape FILE]
//!
//! `--validate` checks an existing file against the schema (sections
//! present, every rate positive, binary wire decode ≥2x JSONL, the 100k
//! fleet batch ≤1.5x the 1k one) and exits non-zero on mismatch — CI runs
//! it over both a fresh `--quick` run and the checked-in trajectory.
//! Absolute numbers are machine-dependent; only the schema and those two
//! ratios are enforced.
//!
//! `--shape FILE` prints the file's deterministic projection — schema tag
//! plus section/row structure with every measured number elided — which
//! is byte-identical between a quick CI run and the checked-in full
//! recording, so the nightly job re-records and literally `diff`s the
//! shapes.

use rsdc_core::Cost;
use rsdc_engine::{
    Engine, EngineConfig, FleetSpec, HeteroAlgo, PolicySpec, PowerConfig, PowerSpec, PriceSchedule,
    TenantConfig, TopologyConfig, TopologyPolicy,
};
use rsdc_hetero::ServerType;
use rsdc_store::{Durability, FileStore, FileStoreConfig, NullStore};
use std::sync::Arc;
use std::time::Instant;

/// Schema tag validated by `--validate`; bump on shape changes.
const SCHEMA: &str = "rsdc-engine-bench/v5";

const M: u32 = 128;
const BETA: f64 = 4.0;

struct Scale {
    quick: bool,
    tenants: usize,
    hetero_tenants: usize,
    rebalance_tenants: usize,
    slots: usize,
}

impl Scale {
    fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                quick,
                tenants: 200,
                hetero_tenants: 40,
                rebalance_tenants: 100,
                slots: 2,
            }
        } else {
            Scale {
                quick,
                tenants: 2_000,
                hetero_tenants: 300,
                rebalance_tenants: 1_000,
                slots: 8,
            }
        }
    }
}

/// The hot-path engine configuration: metrics off.
fn bench_cfg(shards: usize) -> EngineConfig {
    let mut cfg = EngineConfig::with_shards(shards);
    cfg.metrics = false;
    cfg
}

fn scalar_batch(tenants: usize, slot: usize) -> Vec<(String, Cost)> {
    (0..tenants)
        .map(|i| {
            let center = ((slot * 5 + i) % (M as usize + 1)) as f64;
            (format!("t{i}"), Cost::abs(1.0, center))
        })
        .collect()
}

fn admit_scalar(engine: &Engine, tenants: usize) {
    for i in 0..tenants {
        let policy = if i % 2 == 0 {
            PolicySpec::Lcp
        } else {
            PolicySpec::HalfStepRounded { seed: i as u64 }
        };
        engine
            .admit(TenantConfig::new(format!("t{i}"), M, BETA, policy))
            .expect("admit");
    }
}

/// Steps/s over `slots` batches of one event per tenant.
fn run_slots(engine: &Engine, tenants: usize, slots: usize) -> f64 {
    let batches: Vec<_> = (0..slots).map(|t| scalar_batch(tenants, t)).collect();
    let start = Instant::now();
    for batch in batches {
        engine.step_batch(batch).expect("step");
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (tenants * slots) as f64 / secs
}

fn measure_throughput(s: &Scale) -> Vec<serde::Value> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| {
            let engine = Engine::new(bench_cfg(shards));
            admit_scalar(&engine, s.tenants);
            run_slots(&engine, s.tenants, s.slots); // warm-up pass
            let rate = run_slots(&engine, s.tenants, s.slots);
            engine.shutdown();
            serde_json::json!({"shards": shards, "steps_per_sec": rate})
        })
        .collect()
}

fn measure_store_overhead(s: &Scale) -> Vec<serde::Value> {
    let dir = std::env::temp_dir()
        .join("rsdc-engine-bench")
        .join(format!("wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = ["null", "file"]
        .iter()
        .map(|&backend| {
            let store: Arc<dyn Durability> = match backend {
                "null" => Arc::new(NullStore),
                _ => Arc::new(
                    FileStore::open(&dir, FileStoreConfig { sync_every: 64 }).expect("open store"),
                ),
            };
            let engine = Engine::with_store(bench_cfg(2), store).expect("durable engine");
            admit_scalar(&engine, s.tenants);
            run_slots(&engine, s.tenants, s.slots);
            let rate = run_slots(&engine, s.tenants, s.slots);
            engine.shutdown();
            serde_json::json!({"backend": backend, "steps_per_sec": rate})
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn measure_hetero(s: &Scale) -> Vec<serde::Value> {
    let fleet = FleetSpec::new(vec![
        ServerType {
            count: 3,
            beta: 1.0,
            energy: 1.0,
            capacity: 1.0,
        },
        ServerType {
            count: 2,
            beta: 2.5,
            energy: 1.4,
            capacity: 2.0,
        },
    ]);
    [HeteroAlgo::Frontier, HeteroAlgo::Greedy]
        .iter()
        .map(|&algo| {
            let engine = Engine::new(bench_cfg(2));
            for i in 0..s.hetero_tenants {
                engine
                    .admit(TenantConfig::hetero(format!("h{i}"), fleet.clone(), algo))
                    .expect("admit");
            }
            let run = |engine: &Engine| -> f64 {
                let start = Instant::now();
                for t in 0..s.slots {
                    let batch: Vec<(String, Cost, Option<f64>)> = (0..s.hetero_tenants)
                        .map(|i| {
                            let load = 0.5 + ((t * 5 + i) % 11) as f64 * 0.5;
                            (format!("h{i}"), Cost::Zero, Some(load))
                        })
                        .collect();
                    engine.step_batch_loads(batch).expect("step");
                }
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                (s.hetero_tenants * s.slots) as f64 / secs
            };
            run(&engine);
            let rate = run(&engine);
            engine.shutdown();
            let name = match algo {
                HeteroAlgo::Frontier => "frontier",
                HeteroAlgo::Greedy => "greedy",
            };
            serde_json::json!({"algo": name, "steps_per_sec": rate})
        })
        .collect()
}

fn measure_rebalance(s: &Scale) -> Vec<serde::Value> {
    ["full", "incremental"]
        .iter()
        .map(|&mode| {
            let mut engine = Engine::new(bench_cfg(4));
            admit_scalar(&engine, s.rebalance_tenants);
            for t in 0..2usize {
                engine
                    .step_batch(scalar_batch(s.rebalance_tenants, t))
                    .expect("step");
            }
            // Swing 4↔8 an even number of times so the engine ends where it
            // started; each swing moves the same deterministic ring diff.
            let swings = if s.quick { 2 } else { 6 };
            let mut moved_total = 0usize;
            let start = Instant::now();
            for k in 0..swings {
                let to = if k % 2 == 0 { 8 } else { 4 };
                let report = match mode {
                    "incremental" => engine.rebalance_incremental(to, None),
                    _ => engine.rebalance(to, None),
                }
                .expect("rebalance");
                moved_total += report.moved;
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            engine.shutdown();
            serde_json::json!({"mode": mode, "moved_per_sec": moved_total as f64 / secs})
        })
        .collect()
}

/// The reference power configuration the energy rows run under: a linear
/// machine, a modest serving capacity, a two-level price wave.
fn bench_power() -> PowerConfig {
    let mut p = PowerConfig::new(PowerSpec::Linear {
        idle: 100.0,
        peak: 250.0,
    });
    p.capacity = 4.0;
    p.price = PriceSchedule::Step {
        period: 3,
        prices: vec![1.0, 5.0],
    };
    p
}

fn measure_energy(s: &Scale) -> Vec<serde::Value> {
    let mut out = Vec::new();
    // Metering overhead: the 4-shard hot path with the meter off vs on.
    for metered in [false, true] {
        let engine = Engine::new(bench_cfg(4));
        if metered {
            engine.set_power(Some(bench_power())).expect("set_power");
        }
        admit_scalar(&engine, s.tenants);
        run_slots(&engine, s.tenants, s.slots); // warm-up pass
        let rate = run_slots(&engine, s.tenants, s.slots);
        engine.shutdown();
        let mode = if metered { "metered" } else { "unmetered" };
        out.push(serde_json::json!({"mode": mode, "rate": rate}));
    }
    // Autoscale decision rate: observe() calls/s on a swinging load, with
    // the counting induced cost vs the priced (modeled-watts) one.
    let ticks = if s.quick { 20_000usize } else { 200_000 };
    for priced in [false, true] {
        let mut cfg = TopologyConfig::new(1, 8);
        cfg.switch_cost = 8.0;
        cfg.cooldown = 0;
        if priced {
            cfg.pricing = Some(bench_power());
        }
        let mut policy = TopologyPolicy::new(cfg, 1).expect("policy");
        let start = Instant::now();
        for t in 0..ticks {
            let events = ((t * 37 + 11) % 500) as u64;
            if let Some(target) = policy.observe(&[events], &[(0, 1)]) {
                let from = policy.status().shards;
                policy.record_applied(from, target, 0);
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let mode = if priced {
            "autoscale_priced"
        } else {
            "autoscale_counted"
        };
        out.push(serde_json::json!({"mode": mode, "rate": ticks as f64 / secs}));
    }
    out
}

/// Codec-layer ingest rate per wire framing: how fast a pre-rendered
/// request stream decodes back into typed records, and how many bytes it
/// spends per event. JSONL parses each line through `parse_record`;
/// binary walks CRC-checked frames and reads the `step_load` body fields.
/// No engine behind either — this isolates the codec, where the binary
/// framing's whole advantage lives (the `wire/serve` Criterion group
/// covers the engine-dominated end-to-end path).
fn measure_wire_codec(s: &Scale) -> Vec<serde::Value> {
    use rsdc_engine::binwire::{
        put_frame, BodyReader, BodyWriter, FrameDecoder, PREAMBLE, TAG_STEP_LOAD,
    };
    use rsdc_engine::wire::parse_record;

    let events = if s.quick { 20_000usize } else { 200_000 };
    let tenants = 200usize;
    let load = |k: usize| 0.5 + (k % 11) as f64 * 0.5;
    let reps = if s.quick { 3 } else { 5 };

    let mut out = Vec::new();

    // JSONL stream: one step line per event (newline-framed).
    let mut text = String::new();
    for k in 0..events {
        use std::fmt::Write;
        writeln!(
            text,
            "{{\"op\":\"step\",\"id\":\"h{}\",\"load\":{}}}",
            k % tenants,
            load(k)
        )
        .expect("write");
    }
    let mut rate = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let mut n = 0usize;
        for line in text.lines() {
            let rec = parse_record(line).expect("parse");
            std::hint::black_box(&rec);
            n += 1;
        }
        assert_eq!(n, events);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        rate = rate.max(n as f64 / secs);
    }
    out.push(serde_json::json!({
        "framing": "jsonl",
        "steps_per_sec": rate,
        "bytes_per_event": text.len() as f64 / events as f64,
    }));

    // Binary stream: preamble + one TAG_STEP_LOAD frame per event.
    let mut stream = Vec::with_capacity(PREAMBLE.len() + events * 24);
    stream.extend_from_slice(&PREAMBLE);
    let mut payload = Vec::new();
    for k in 0..events {
        BodyWriter::start(&mut payload, TAG_STEP_LOAD)
            .str16(&format!("h{}", k % tenants))
            .f64(load(k));
        put_frame(&mut stream, &payload);
    }
    let mut rate = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let mut dec = FrameDecoder::new();
        dec.extend(&stream[PREAMBLE.len()..]);
        let mut n = 0usize;
        while let Some(frame) = dec.next_frame().expect("frame") {
            assert_eq!(frame.tag, TAG_STEP_LOAD);
            let mut r = BodyReader::new(frame.body);
            let id = r.str16().expect("id");
            let v = r.f64().expect("load");
            std::hint::black_box((id, v));
            n += 1;
        }
        assert_eq!(n, events);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        rate = rate.max(n as f64 / secs);
    }
    out.push(serde_json::json!({
        "framing": "binary",
        "steps_per_sec": rate,
        "bytes_per_event": stream.len() as f64 / events as f64,
    }));
    out
}

/// End-to-end served throughput: a reactor on loopback, concurrent
/// connections each streaming admits + steps for its own tenants through
/// the server's one engine, wall clock from first connect to last EOF.
/// Unlike `wire_codec` this prices the full serving stack — reactor
/// turns, framing, engine dispatch and socket I/O — per framing.
fn measure_serve(s: &Scale) -> Vec<serde::Value> {
    use rsdc_engine::binwire::{encode_request_line, PREAMBLE};
    use rsdc_engine::{ServeConfig, Server, WireMode};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let events = if s.quick { 2_000usize } else { 20_000 };
    let tenants = 50usize;
    let conns = 4usize;

    // Connection `c` drives tenants `c{c}-t*`: the engine is shared, so
    // each connection admits and steps a fleet of its own.
    let conn_lines = |c: usize| -> Vec<String> {
        let mut lines: Vec<String> = (0..tenants)
            .map(|i| {
                format!(r#"{{"op":"admit","id":"c{c}-t{i}","m":{M},"beta":{BETA},"policy":"lcp"}}"#)
            })
            .collect();
        for k in 0..events {
            lines.push(format!(
                r#"{{"op":"step","id":"c{c}-t{}","cost":{{"Abs":{{"slope":1.0,"center":{}.0}}}}}}"#,
                k % tenants,
                k % (M as usize + 1)
            ));
        }
        lines
    };

    ["jsonl", "binary"]
        .iter()
        .map(|&framing| {
            let requests: Vec<Vec<u8>> = (0..conns)
                .map(|c| {
                    let lines = conn_lines(c);
                    match framing {
                        "jsonl" => (lines.join("\n") + "\n").into_bytes(),
                        _ => {
                            let mut out = Vec::new();
                            out.extend_from_slice(&PREAMBLE);
                            let mut payload = Vec::new();
                            for line in &lines {
                                encode_request_line(line, &mut payload, &mut out);
                            }
                            out
                        }
                    }
                })
                .collect();
            let cfg = ServeConfig {
                engine: bench_cfg(1),
                wire: WireMode::Auto,
                max_conns: conns,
                max_accepts: Some(conns as u64),
                ..ServeConfig::default()
            };
            let mut server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
            let addr = server.local_addr();
            let server = std::thread::spawn(move || server.run().expect("serve"));
            let start = Instant::now();
            let clients: Vec<_> = requests
                .into_iter()
                .map(|request| {
                    std::thread::spawn(move || {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        let mut writer = stream.try_clone().expect("clone");
                        // Write and read concurrently: the reply stream is
                        // as long as the request stream, so a one-sided
                        // client would wedge on full buffers.
                        let sender = std::thread::spawn(move || {
                            writer.write_all(&request).expect("send");
                            writer
                                .shutdown(std::net::Shutdown::Write)
                                .expect("half-close");
                        });
                        let mut sink = Vec::new();
                        stream.read_to_end(&mut sink).expect("drain");
                        sender.join().expect("sender");
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client");
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            server.join().expect("server");
            serde_json::json!({
                "framing": framing,
                "conns": conns,
                "steps_per_sec": (events * conns) as f64 / secs,
            })
        })
        .collect()
}

/// Fleet sizes the `fleet_scaling` rows admit (quick runs too: the point
/// is the 100k row).
const FLEET_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// The cap `--validate` puts on the largest fleet's batch latency,
/// relative to the smallest's.
const FLEET_SPREAD: f64 = 1.5;

/// Median wall time of one 8-event batch on 2 shards per fleet size.
/// The batches cycle through the same 64 tenants, spread evenly over the
/// fleet, so the rows differ only in how many tenants sit idle: any work
/// proportional to the fleet shows up as a slope, and cache misses on a
/// cold working set do not.
fn measure_fleet_scaling(s: &Scale) -> Vec<serde::Value> {
    const BATCH: usize = 8;
    const HOT: usize = 64;
    let repeats = if s.quick { 400 } else { 4_000 };
    FLEET_SIZES
        .iter()
        .map(|&tenants| {
            let engine = Engine::new(bench_cfg(2));
            let ids: Vec<String> = (0..tenants).map(|i| format!("f{i}")).collect();
            for id in &ids {
                engine
                    .admit(TenantConfig::new(id.clone(), 16, BETA, PolicySpec::Lcp))
                    .expect("admit");
            }
            let hot: Vec<&String> = (0..HOT).map(|k| &ids[k * tenants / HOT]).collect();
            let mut samples: Vec<f64> = (0..repeats + repeats / 10)
                .map(|r| {
                    let batch: Vec<_> = (0..BATCH)
                        .map(|k| {
                            let load = ((r + k) % 16) as f64;
                            let id = hot[(r * BATCH + k) % HOT].clone();
                            (id, Cost::abs(1.0, load), Some(load))
                        })
                        .collect();
                    let start = Instant::now();
                    engine.step_batch_loads(batch).expect("step");
                    start.elapsed().as_secs_f64() * 1e6
                })
                .skip(repeats / 10) // warm-up
                .collect();
            engine.shutdown();
            samples.sort_by(f64::total_cmp);
            serde_json::json!({
                "tenants": tenants,
                "shards": 2,
                "batch_us": samples[samples.len() / 2],
            })
        })
        .collect()
}

/// Schema check: every section present, every rate a positive number.
/// Returns the list of violations (empty = valid).
pub fn validate(doc: &serde::Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        errs.push(format!("schema != {SCHEMA:?}"));
    }
    let sections: [(&str, &[&str]); 8] = [
        ("throughput", &["shards", "steps_per_sec"]),
        ("store_overhead", &["backend", "steps_per_sec"]),
        ("hetero", &["algo", "steps_per_sec"]),
        ("rebalance", &["mode", "moved_per_sec"]),
        ("energy", &["mode", "rate"]),
        (
            "wire_codec",
            &["framing", "steps_per_sec", "bytes_per_event"],
        ),
        ("serve_throughput", &["framing", "conns", "steps_per_sec"]),
        ("fleet_scaling", &["tenants", "shards", "batch_us"]),
    ];
    for (section, fields) in sections {
        let rows = match doc["results"][section].as_array() {
            Some(rows) if !rows.is_empty() => rows,
            _ => {
                errs.push(format!("results.{section}: missing or empty"));
                continue;
            }
        };
        for (i, row) in rows.iter().enumerate() {
            for field in fields {
                let v = &row[*field];
                let numeric_ok = v.as_f64().is_some_and(|x| x > 0.0);
                if !(numeric_ok || v.as_str().is_some()) {
                    errs.push(format!("results.{section}[{i}].{field}: bad value"));
                }
            }
        }
    }
    // The one machine-independent relative claim the recording makes: the
    // binary framing decodes at least twice as fast as JSONL.
    if let Some(rows) = doc["results"]["wire_codec"].as_array() {
        let rate = |framing: &str| {
            rows.iter()
                .find(|r| r["framing"].as_str() == Some(framing))
                .and_then(|r| r["steps_per_sec"].as_f64())
        };
        match (rate("jsonl"), rate("binary")) {
            (Some(j), Some(b)) if b < 2.0 * j => errs.push(format!(
                "results.wire_codec: binary decode is {b:.0} steps/s vs jsonl {j:.0} — \
                 under the pinned 2x floor"
            )),
            (Some(_), Some(_)) => {}
            _ => errs.push("results.wire_codec: missing jsonl/binary rows".into()),
        }
    }
    // Per-batch cost is O(batch): the largest fleet's batch stays within
    // a fixed factor of the smallest's.
    if let Some(rows) = doc["results"]["fleet_scaling"].as_array() {
        let latency = |tenants: usize| {
            rows.iter()
                .find(|r| r["tenants"].as_u64() == Some(tenants as u64))
                .and_then(|r| r["batch_us"].as_f64())
        };
        let (small, large) = (FLEET_SIZES[0], FLEET_SIZES[FLEET_SIZES.len() - 1]);
        match (latency(small), latency(large)) {
            (Some(a), Some(b)) if b > FLEET_SPREAD * a => errs.push(format!(
                "results.fleet_scaling: an 8-event batch takes {b:.1} us at {large} tenants \
                 vs {a:.1} us at {small} — over the {FLEET_SPREAD}x cap"
            )),
            (Some(_), Some(_)) => {}
            _ => errs.push(format!(
                "results.fleet_scaling: missing {small}/{large}-tenant rows"
            )),
        }
    }
    errs
}

/// The deterministic projection `--shape` prints: schema tag and full
/// section/row structure with every measured number replaced by `"_"`.
/// Quick and full runs of the same binary project identically, so the
/// nightly job byte-diffs a fresh run's shape against the recording's.
fn shape(doc: &serde::Value) -> serde::Value {
    fn strip(v: &serde::Value) -> serde::Value {
        match v {
            serde::Value::Number(_) => serde::Value::String("_".into()),
            serde::Value::Array(items) => serde::Value::Array(items.iter().map(strip).collect()),
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect::<Vec<_>>(),
            ),
            other => other.clone(),
        }
    }
    serde_json::json!({
        "schema": doc["schema"].clone(),
        "results": strip(&doc["results"]),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    if let Some(path) = opt("--shape") {
        let data = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let doc: serde::Value =
            serde_json::from_str(&data).unwrap_or_else(|e| panic!("parsing {path}: {e:?}"));
        println!(
            "{}",
            serde_json::to_string_pretty(&shape(&doc)).expect("render")
        );
        return;
    }

    if let Some(path) = opt("--validate") {
        let data = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let doc: serde::Value =
            serde_json::from_str(&data).unwrap_or_else(|e| panic!("parsing {path}: {e:?}"));
        let errs = validate(&doc);
        if errs.is_empty() {
            println!("{path}: valid {SCHEMA}");
            return;
        }
        for e in &errs {
            eprintln!("{path}: {e}");
        }
        std::process::exit(1);
    }

    let scale = Scale::new(flag("--quick"));
    eprintln!(
        "engine_bench: {} tenants x {} slots{}",
        scale.tenants,
        scale.slots,
        if scale.quick { " (quick)" } else { "" }
    );
    let throughput = measure_throughput(&scale);
    eprintln!("engine_bench: throughput done");
    let store_overhead = measure_store_overhead(&scale);
    eprintln!("engine_bench: store overhead done");
    let hetero = measure_hetero(&scale);
    eprintln!("engine_bench: hetero done");
    let rebalance = measure_rebalance(&scale);
    eprintln!("engine_bench: rebalance done");
    let energy = measure_energy(&scale);
    eprintln!("engine_bench: energy done");
    let wire_codec = measure_wire_codec(&scale);
    eprintln!("engine_bench: wire codec done");
    let serve_throughput = measure_serve(&scale);
    eprintln!("engine_bench: serve throughput done");
    let fleet_scaling = measure_fleet_scaling(&scale);
    eprintln!("engine_bench: fleet scaling done");

    let doc = serde_json::json!({
        "schema": SCHEMA,
        "quick": scale.quick,
        "tenants": scale.tenants,
        "slots": scale.slots,
        "results": {
            "throughput": serde::Value::Array(throughput),
            "store_overhead": serde::Value::Array(store_overhead),
            "hetero": serde::Value::Array(hetero),
            "rebalance": serde::Value::Array(rebalance),
            "energy": serde::Value::Array(energy),
            "wire_codec": serde::Value::Array(wire_codec),
            "serve_throughput": serde::Value::Array(serve_throughput),
            "fleet_scaling": serde::Value::Array(fleet_scaling),
        },
    });
    let errs = validate(&doc);
    assert!(errs.is_empty(), "self-validation failed: {errs:?}");
    let text = serde_json::to_string_pretty(&doc).expect("render") + "\n";
    match opt("--out") {
        Some(path) => {
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("engine_bench: wrote {path}");
        }
        None => print!("{text}"),
    }
}
