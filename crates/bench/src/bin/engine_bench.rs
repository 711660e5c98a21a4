//! Engine throughput trajectory: a small wall-clock bench runner whose
//! output is checked in as `BENCH_engine.json` at the repo root, so the
//! engine's performance shape is recorded alongside the code that produced
//! it. It is the workspace's one wall-clock benchmark, of the engine, the
//! wire and the policy step, cheap enough to re-run by hand (and, with
//! `--quick`, in CI):
//!
//! - `throughput`  — policy-steps/s at shard counts 1, 2, 4, 8
//! - `store_overhead` — `NullStore` vs `FileStore` journaling at 2 shards
//! - `hetero`      — frontier vs greedy configuration-lattice stepping
//! - `rebalance`   — tenants moved per second on a 4↔8 shard swing, on
//!   a `NullStore` and on a `FileStore` (which pays the journaled record
//!   and the fencing checkpoint)
//! - `energy`      — metering overhead (power meter off vs on at 4
//!   shards) and autoscale decision rates with counted vs priced
//!   induced costs
//! - `wire_codec`  — ingest decode rate and bytes/event per wire framing
//!   (JSONL parse vs binary frame walk); the schema pins binary at ≥2x
//!   the JSONL step rate, the one relative claim stable across machines
//! - `serve_throughput` — end-to-end served steps/s through the TCP
//!   reactor on loopback, concurrent connections per framing (prices the
//!   full stack: reactor, framing, engine, socket I/O)
//! - `fleet_scaling` — latency of one 8-event batch on 2 shards with 1k,
//!   10k and 100k admitted tenants: a batch must cost O(batch), not
//!   O(fleet), so the schema caps the 100k row at 1.5x the 1k row
//! - `policy_step` — ns per step of the policies with no engine around
//!   them: LCP and the bound tracker at m = 16, 256, 4096; the m = 1024
//!   `Server` load through the tracker (and at m = 65536), through
//!   `Cost::add_range_to` over the windows the tracker reads (the floor
//!   its step is read against), and through LCP+OPT and HalfStep+OPT
//!   tenants; `FrontierDp` at S = 91 and 4096; rounding, the fractional
//!   HalfStep stage and the LCP cluster simulator
//!
//! Every number is timed by [`timed`]: one untimed warm-up window, then
//! 5 timed windows of at least 200 ms (3 of 20 ms with `--quick`, except
//! `fleet_scaling`, which keeps its full windows). A
//! row's own field holds the median over the windows, and `min`/`max`
//! hold the spread. Rows timed together take their windows in turn: the
//! four m = 1024 `Server` rows do, so their ratios are read under the
//! same load on the host. The document's `host` block names the core
//! count and build profile the numbers were taken on.
//!
//! The engine runs with the metrics registry **disabled** (the documented
//! hot-path configuration), so these numbers price the engine, not the
//! observability layer.
//!
//! USAGE: engine_bench [--quick] [--out FILE] [--validate FILE] [--shape FILE]
//!
//! `--validate` checks an existing file against the schema (host block and
//! sections present, every number positive, `min ≤ median ≤ max` in every
//! row, binary wire decode ≥2x JSONL, the 100k fleet batch ≤1.5x the 1k
//! one, both ratios on medians) and exits 1 on mismatch — CI runs it over
//! both a fresh `--quick` run and the checked-in trajectory. Any other
//! argument, or an option without its value, exits 2 before any work.
//! Absolute numbers are machine-dependent; only the schema and those two
//! ratios are enforced.
//!
//! `--shape FILE` prints the file's deterministic projection — schema tag,
//! host block and section/row structure with every measured number elided
//! — which is byte-identical between a quick CI run and the checked-in
//! full recording, so the nightly job re-records and literally `diff`s the
//! shapes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsdc_bench::{read_doc, validate_file, write_doc, Args};
use rsdc_core::prelude::*;
use rsdc_engine::tenant::{StepScratch, Tenant, MAX_M};
use rsdc_engine::{
    Engine, EngineConfig, FleetSpec, HeteroAlgo, PolicySpec, PowerConfig, PowerSpec, PriceSchedule,
    TenantConfig, TopologyConfig, TopologyPolicy,
};
use rsdc_hetero::{FrontierDp, ServerType};
use rsdc_online::bounds::BoundTracker;
use rsdc_online::fractional::{EvalMode, HalfStep};
use rsdc_online::lcp::Lcp;
use rsdc_online::randomized::round_schedule;
use rsdc_online::traits::{run_frac, OnlineAlgorithm};
use rsdc_sim::{simulate_online, SimConfig};
use rsdc_store::{Durability, FileStore, FileStoreConfig, NullStore};
use rsdc_workloads::traces::Diurnal;
use serde::Value;
use serde_json::json;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag validated by `--validate`; bump on shape changes.
const SCHEMA: &str = "rsdc-engine-bench/v9";

const M: u32 = 128;
const BETA: f64 = 4.0;

struct Scale {
    quick: bool,
    tenants: usize,
    hetero_tenants: usize,
    rebalance_tenants: usize,
    /// Timed windows per row, after one untimed warm-up window.
    windows: usize,
    /// Least timed work per window.
    window: Duration,
}

impl Scale {
    /// A full run, or with `quick` the same run at a tenth of the size.
    fn new(quick: bool) -> Scale {
        let k = if quick { 1 } else { 10 };
        Scale {
            quick,
            tenants: 200 * k,
            hetero_tenants: 30 * k,
            rebalance_tenants: 100 * k,
            windows: if quick { 3 } else { 5 },
            window: Duration::from_millis(20 * k as u64),
        }
    }
}

/// One row's number over the timed windows.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// Time per unit, counted in `ticks_per_sec` ticks a second (1e6 for
    /// microseconds), from a spread of units per second.
    fn per_unit(self, ticks_per_sec: f64) -> Spread {
        Spread {
            median: ticks_per_sec / self.median,
            min: ticks_per_sec / self.max,
            max: ticks_per_sec / self.min,
        }
    }
}

/// One row of [`timed`]: each repetition runs a setup (untimed) and then
/// the timed work on what the setup returned, which gives the units of
/// work it did.
struct Row<'a>(Box<dyn FnMut() -> (usize, Duration) + 'a>);

impl<'a> Row<'a> {
    fn new<T>(mut setup: impl FnMut() -> T + 'a, mut run: impl FnMut(T) -> usize + 'a) -> Self {
        Row(Box::new(move || {
            let input = setup();
            let start = Instant::now();
            let units = run(input);
            (units, start.elapsed())
        }))
    }
}

/// The one timing helper. A row's window repeats it until `s.window` of
/// timed work has passed. The rows take their windows in turn, so rows
/// timed together see the same load on the host and their ratios hold
/// under it. Gives each row's spread of units per second over `s.windows`
/// windows, after one warm-up window that is thrown away.
fn timed<const N: usize>(s: &Scale, mut rows: [Row; N]) -> [Spread; N] {
    let mut rates = [(); N].map(|_| Vec::with_capacity(s.windows));
    for window in 0..=s.windows {
        for (row, rates) in rows.iter_mut().zip(&mut rates) {
            let (mut units, mut busy) = (0usize, Duration::ZERO);
            while busy < s.window {
                let (done, took) = (row.0)();
                units += done;
                busy += took;
            }
            if window > 0 {
                rates.push(units as f64 / busy.as_secs_f64());
            }
        }
    }
    rates.map(|mut rates| {
        rates.sort_by(f64::total_cmp);
        Spread {
            median: rates[rates.len() / 2],
            min: rates[0],
            max: rates[rates.len() - 1],
        }
    })
}

/// The hot-path engine configuration: metrics off.
fn bench_cfg(shards: usize) -> EngineConfig {
    let mut cfg = EngineConfig::with_shards(shards);
    cfg.metrics = false;
    cfg
}

/// Where the `FileStore` rows keep their stores, one directory per
/// section; removed once the run ends.
fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!("rsdc-engine-bench-{}", std::process::id()))
}

/// An engine on `shards` shards journaling to `backend`: `"null"`, or
/// `"file"` for a `FileStore` in `section`'s scratch directory.
fn engine_on(shards: usize, backend: &str, section: &str) -> Engine {
    let store: Arc<dyn Durability> = match backend {
        "null" => Arc::new(NullStore),
        _ => {
            let dir = scratch().join(section);
            Arc::new(FileStore::open(dir, FileStoreConfig { sync_every: 64 }).expect("open store"))
        }
    };
    Engine::with_store(bench_cfg(shards), store).expect("engine")
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

/// Steps/s of slot batches, one event per tenant, on an engine with
/// `tenants` scalar tenants admitted.
fn slot_rate(s: &Scale, engine: &Engine, tenants: usize) -> Spread {
    admit_scalar(engine, tenants);
    let mut slot = 0;
    let [rate] = timed(
        s,
        [Row::new(
            || {
                slot += 1;
                scalar_batch(tenants, slot)
            },
            |batch| engine.step_batch(batch).expect("step").len(),
        )],
    );
    rate
}

fn measure_throughput(s: &Scale) -> Vec<(Value, Spread)> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| {
            let engine = Engine::new(bench_cfg(shards));
            let rate = slot_rate(s, &engine, s.tenants);
            engine.shutdown();
            (json!({"shards": shards}), rate)
        })
        .collect()
}

fn measure_store_overhead(s: &Scale) -> Vec<(Value, Spread)> {
    ["null", "file"]
        .iter()
        .map(|&backend| {
            let engine = engine_on(2, backend, "store_overhead");
            let rate = slot_rate(s, &engine, s.tenants);
            engine.shutdown();
            (json!({"backend": backend}), rate)
        })
        .collect()
}

fn server(count: u32, beta: f64, energy: f64, capacity: f64) -> ServerType {
    ServerType {
        count,
        beta,
        energy,
        capacity,
    }
}

fn measure_hetero(s: &Scale) -> Vec<(Value, Spread)> {
    let fleet = FleetSpec::new(vec![server(3, 1.0, 1.0, 1.0), server(2, 2.5, 1.4, 2.0)]);
    [
        (HeteroAlgo::Frontier, "frontier"),
        (HeteroAlgo::Greedy, "greedy"),
    ]
    .iter()
    .map(|&(algo, name)| {
        let engine = Engine::new(bench_cfg(2));
        for i in 0..s.hetero_tenants {
            engine
                .admit(TenantConfig::hetero(format!("h{i}"), fleet.clone(), algo))
                .expect("admit");
        }
        let mut slot = 0;
        let [rate] = timed(
            s,
            [Row::new(
                || {
                    slot += 1;
                    (0..s.hetero_tenants)
                        .map(|i| {
                            let load = 0.5 + ((slot * 5 + i) % 11) as f64 * 0.5;
                            (format!("h{i}"), Cost::Zero, Some(load))
                        })
                        .collect()
                },
                |batch| engine.step_batch_loads(batch).expect("step").len(),
            )],
        );
        engine.shutdown();
        (json!({"algo": name}), rate)
    })
    .collect()
}

/// Tenants moved per second, one 4→8→4 swing per timed pass. Each swing
/// moves the ring diff; on a `FileStore` it also journals its record and
/// writes the fencing checkpoint.
fn measure_rebalance(s: &Scale) -> Vec<(Value, Spread)> {
    ["null", "file"]
        .iter()
        .map(|&backend| {
            let mut engine = engine_on(4, backend, "rebalance");
            admit_scalar(&engine, s.rebalance_tenants);
            for t in 0..2usize {
                engine
                    .step_batch(scalar_batch(s.rebalance_tenants, t))
                    .expect("step");
            }
            let [rate] = timed(
                s,
                [Row::new(
                    || (),
                    |()| {
                        [8, 4]
                            .iter()
                            .map(|&to| engine.rebalance(to, None).expect("rebalance").moved)
                            .sum()
                    },
                )],
            );
            engine.shutdown();
            (json!({"backend": backend}), rate)
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

fn measure_energy(s: &Scale) -> Vec<(Value, Spread)> {
    let mut out = Vec::new();
    // Metering overhead: the 4-shard hot path with the meter off vs on.
    for (metered, mode) in [(false, "unmetered"), (true, "metered")] {
        let engine = Engine::new(bench_cfg(4));
        if metered {
            engine.set_power(Some(bench_power())).expect("set_power");
        }
        let rate = slot_rate(s, &engine, s.tenants);
        engine.shutdown();
        out.push((json!({"mode": mode}), rate));
    }
    // Autoscale decision rate: observe() calls/s on a swinging load, with
    // the counting induced cost vs the priced (modeled-watts) one.
    const TICKS: usize = 1_000;
    for (priced, mode) in [(false, "autoscale_counted"), (true, "autoscale_priced")] {
        let mut cfg = TopologyConfig::new(1, 8);
        cfg.switch_cost = 8.0;
        cfg.cooldown = 0;
        if priced {
            cfg.pricing = Some(bench_power());
        }
        let mut policy = TopologyPolicy::new(cfg, 1).expect("policy");
        let mut t = 0usize;
        let [rate] = timed(
            s,
            [Row::new(
                || (),
                |()| {
                    for _ in 0..TICKS {
                        let events = ((t * 37 + 11) % 500) as u64;
                        if let Some(target) = policy.observe(&[events], &[(0, 1)]) {
                            policy.record_applied(policy.status().shards, target, 0);
                        }
                        t += 1;
                    }
                    TICKS
                },
            )],
        );
        out.push((json!({"mode": mode}), rate));
    }
    out
}

/// Codec-layer ingest rate per wire framing: how fast a pre-rendered
/// request stream decodes back into typed records, and how many bytes it
/// spends per event. JSONL parses each line through `parse_record`;
/// binary walks CRC-checked frames and reads the `step_load` body fields.
/// No engine behind either — this isolates the codec, where the binary
/// framing's whole advantage lives (`serve_throughput` covers the
/// engine-dominated end-to-end path).
fn measure_wire_codec(s: &Scale) -> Vec<(Value, Spread)> {
    use rsdc_engine::binwire::{
        put_frame, BodyReader, BodyWriter, FrameDecoder, PREAMBLE, TAG_STEP_LOAD,
    };
    use rsdc_engine::wire::parse_record;
    use std::fmt::Write;

    const EVENTS: usize = 20_000;
    const TENANTS: usize = 200;

    // JSONL stream: one step line per event (newline-framed).
    let mut text = String::new();
    // Binary stream: preamble + one TAG_STEP_LOAD frame per event.
    let mut stream = PREAMBLE.to_vec();
    let mut payload = Vec::new();
    for k in 0..EVENTS {
        let (id, v) = (format!("h{}", k % TENANTS), 0.5 + (k % 11) as f64 * 0.5);
        writeln!(text, "{{\"op\":\"step\",\"id\":\"{id}\",\"load\":{v}}}").expect("write");
        BodyWriter::start(&mut payload, TAG_STEP_LOAD)
            .str16(&id)
            .f64(v);
        put_frame(&mut stream, &payload);
    }

    let [jsonl] = timed(
        s,
        [Row::new(
            || (),
            |()| {
                for line in text.lines() {
                    std::hint::black_box(parse_record(line).expect("parse"));
                }
                EVENTS
            },
        )],
    );
    let [binary] = timed(
        s,
        [Row::new(
            || (),
            |()| {
                let mut dec = FrameDecoder::new();
                dec.extend(&stream[PREAMBLE.len()..]);
                let mut n = 0;
                while let Some(frame) = dec.next_frame().expect("frame") {
                    assert_eq!(frame.tag, TAG_STEP_LOAD);
                    let mut r = BodyReader::new(frame.body);
                    std::hint::black_box((r.str16().expect("id"), r.f64().expect("load")));
                    n += 1;
                }
                n
            },
        )],
    );
    let per_event = |bytes: usize| bytes as f64 / EVENTS as f64;
    vec![
        (
            json!({"framing": "jsonl", "bytes_per_event": per_event(text.len())}),
            jsonl,
        ),
        (
            json!({"framing": "binary", "bytes_per_event": per_event(stream.len())}),
            binary,
        ),
    ]
}

/// End-to-end served throughput: a reactor on loopback, concurrent
/// connections each streaming admits + steps for its own tenants through
/// a fresh server's one engine, timed from first connect to the server's
/// exit. Unlike `wire_codec` this prices the full serving stack — reactor
/// turns, framing, engine dispatch and socket I/O — per framing.
fn measure_serve(s: &Scale) -> Vec<(Value, Spread)> {
    use rsdc_engine::binwire::{encode_request_line, PREAMBLE};
    use rsdc_engine::wire::Session;
    use rsdc_engine::{ServeConfig, Server};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    const EVENTS: usize = 20_000;
    const TENANTS: usize = 50;
    const CONNS: usize = 4;

    // Connection `c` drives tenants `c{c}-t*`: the engine is shared, so
    // each connection admits and steps a fleet of its own.
    let conn_lines = |c: usize| -> Vec<String> {
        let mut lines: Vec<String> = (0..TENANTS)
            .map(|i| {
                format!(r#"{{"op":"admit","id":"c{c}-t{i}","m":{M},"beta":{BETA},"policy":"lcp"}}"#)
            })
            .collect();
        for k in 0..EVENTS {
            lines.push(format!(
                r#"{{"op":"step","id":"c{c}-t{}","cost":{{"Abs":{{"slope":1.0,"center":{}.0}}}}}}"#,
                k % TENANTS,
                k % (M as usize + 1)
            ));
        }
        lines
    };

    ["jsonl", "binary"]
        .iter()
        .map(|&framing| {
            let requests: Vec<Vec<u8>> = (0..CONNS)
                .map(|c| {
                    let lines = conn_lines(c);
                    match framing {
                        "jsonl" => (lines.join("\n") + "\n").into_bytes(),
                        _ => {
                            let mut out = PREAMBLE.to_vec();
                            let mut payload = Vec::new();
                            for line in &lines {
                                encode_request_line(line, &mut payload, &mut out);
                            }
                            out
                        }
                    }
                })
                .collect();
            let [rate] = timed(
                s,
                [Row::new(
                    || {
                        let cfg = ServeConfig {
                            max_conns: CONNS,
                            max_accepts: Some(CONNS as u64),
                            ..ServeConfig::default()
                        };
                        let session = Session::new(Engine::new(bench_cfg(1)));
                        let mut server = Server::bind(session, cfg, "127.0.0.1:0").expect("bind");
                        let addr = server.local_addr();
                        let server = std::thread::spawn(move || server.run().expect("serve"));
                        (addr, server, requests.clone())
                    },
                    |(addr, server, requests)| {
                        let clients: Vec<_> = requests
                            .into_iter()
                            .map(|request| {
                                std::thread::spawn(move || {
                                    let mut stream = TcpStream::connect(addr).expect("connect");
                                    let mut writer = stream.try_clone().expect("clone");
                                    // Write and read concurrently: the reply
                                    // stream is as long as the request stream,
                                    // so a one-sided client would wedge on full
                                    // buffers.
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
                        server.join().expect("server");
                        EVENTS * CONNS
                    },
                )],
            );
            (json!({"framing": framing, "conns": CONNS}), rate)
        })
        .collect()
}

/// Fleet sizes the `fleet_scaling` rows admit, at full windows (quick
/// runs too: the point is the 100k row, and one ~10 ms scheduler stall
/// would swing a 20 ms window's mean past the cap).
const FLEET_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// The cap `--validate` puts on the largest fleet's batch latency,
/// relative to the smallest's.
const FLEET_SPREAD: f64 = 1.5;

/// Wall time of one 8-event batch on 2 shards per fleet size. The batches
/// cycle through the same 64 tenants, spread evenly over the fleet, so
/// the rows differ only in how many tenants sit idle: any work
/// proportional to the fleet shows up as a slope, and cache misses on a
/// cold working set do not.
fn measure_fleet_scaling(_: &Scale) -> Vec<(Value, Spread)> {
    let s = &Scale::new(false);
    const BATCH: usize = 8;
    const HOT: usize = 64;
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
            let mut r = 0;
            let [batches] = timed(
                s,
                [Row::new(
                    || {
                        r += 1;
                        (0..BATCH)
                            .map(|k| {
                                let load = ((r + k) % 16) as f64;
                                let id = hot[(r * BATCH + k) % HOT].clone();
                                (id, Cost::abs(1.0, load), Some(load))
                            })
                            .collect()
                    },
                    |batch| {
                        engine.step_batch_loads(batch).expect("step");
                        1
                    },
                )],
            );
            engine.shutdown();
            (
                json!({"tenants": tenants, "shards": 2}),
                batches.per_unit(1e6),
            )
        })
        .collect()
}

/// 256 `Server` slot costs on a noisy diurnal load over `m` servers.
fn diurnal_server_costs(m: u32) -> Vec<Cost> {
    let cap = m as f64;
    (0..256)
        .map(|k| {
            let angle = 2.0 * std::f64::consts::PI * k as f64 / 48.0;
            let noise = ((k * 37 % 101) as f64 / 50.0 - 1.0) * 0.1;
            let lambda = (0.4 - 0.3 * angle.cos()) * cap * (1.0 + noise);
            Cost::Server {
                lambda: (lambda * 16.0).round() / 16.0,
                params: ServerParams::default(),
                overload: 20.0,
            }
        })
        .collect()
}

/// A row stepping a fresh tracker through `costs`.
fn tracker_row(m: u32, beta: f64, costs: &[Cost]) -> Row<'_> {
    Row::new(
        move || BoundTracker::new(m, beta),
        move |mut tracker| {
            for f in costs {
                tracker.step(black_box(f));
            }
            black_box((tracker.x_low(), tracker.x_up()));
            costs.len()
        },
    )
}

/// Two classes (power-up betas 4 and 10) of `small` and `large` machines.
fn two_class_fleet(small: u32, large: u32) -> FleetSpec {
    FleetSpec::new(vec![
        server(small, 4.0, 1.0, 1.0),
        server(large, 10.0, 1.6, 2.0),
    ])
}

/// Nanoseconds per step of the policies themselves, with no engine
/// around them; each row names its run.
///
/// - `lcp_full_run_T1024` and `bound_tracker_T1024`: LCP's step is
///   O(x^U - x^L + moved), since the bound tracker relaxes `\hat C^L` on
///   its window around the bounds (Lemma 7 derives `\hat C^U` from it).
/// - `server_m1024_T256` prices the `large-m` shape: `Server` costs on a
///   diurnal load at m = 1024, through the bare tracker and through
///   LCP+OPT and HalfStep+OPT tenants. `add_range` times
///   `Cost::add_range_to` alone over the window the tracker reads before
///   each step (recorded untimed): the slot cost's share of a tracker
///   step. These four rows take their windows in turn. `tracker_m65536`
///   runs the bare tracker on the same load at the engine's `MAX_M`, where
///   the window's sublinear scaling shows against the m = 1024 row.
/// - `frontier_step`: one `FrontierDp` step, O(S * D), on the
///   `durable-mixed` 12+6 fleet (S = 91) and a 63 x 63 fleet at the
///   lattice cap (S = 4096), from a warmed frontier.
/// - `rounding`: the randomized rounding of a fractional schedule and
///   the fractional HalfStep stage; `sim`: one simulated LCP slot.
fn measure_policy_step(s: &Scale) -> Vec<(Value, Spread)> {
    let mut rows = Vec::new();
    let mut push = |name: String, steps_per_sec: Spread| {
        rows.push((json!({ "row": name }), steps_per_sec.per_unit(1e9)));
    };
    for m in [16u32, 256, 4096] {
        let costs: Vec<Cost> = (0..1024)
            .map(|t| Cost::abs(1.0, (t % (m as usize + 1)) as f64))
            .collect();
        let [rate] = timed(
            s,
            [Row::new(
                || Lcp::new(m, 2.0),
                |mut lcp| {
                    for f in &costs {
                        black_box(lcp.step(black_box(f)));
                    }
                    costs.len()
                },
            )],
        );
        push(format!("online/lcp_full_run_T1024/lcp/{m}"), rate);
    }
    for m in [16u32, 256, 4096] {
        let costs: Vec<Cost> = (0..1024)
            .map(|t| Cost::quadratic(0.5, (t % (m as usize + 1)) as f64, 0.0))
            .collect();
        let [rate] = timed(s, [tracker_row(m, 2.0, &costs)]);
        push(format!("online/bound_tracker_T1024/tracker/{m}"), rate);
    }

    const SERVER_M: u32 = 1024;
    const SERVER_BETA: f64 = 6.0;
    let server = "online/server_m1024_T256";
    let costs = &diurnal_server_costs(SERVER_M);
    // The windows the tracker reads before each step, for `add_range`.
    let mut probe = BoundTracker::new(SERVER_M, SERVER_BETA);
    let spans: Vec<(u32, usize)> = costs
        .iter()
        .map(|f| {
            let (lo, window) = probe.window();
            let span = (lo, window.len());
            probe.step(f);
            span
        })
        .collect();
    let tenant_row = |policy: PolicySpec| {
        let cfg = TenantConfig::new("t", SERVER_M, SERVER_BETA, policy).with_opt_tracking();
        let mut scratch = StepScratch::default();
        Row::new(
            move || Tenant::new(cfg.clone()).expect("valid tenant"),
            move |mut tenant| {
                for f in costs {
                    tenant
                        .step_into(black_box(f), None, &mut scratch)
                        .expect("scalar step");
                }
                black_box(tenant.report().opt_cost);
                costs.len()
            },
        )
    };
    let [tracker, add_range, lcp_opt, halfstep_opt] = timed(
        s,
        [
            tracker_row(SERVER_M, SERVER_BETA, costs),
            Row::new(
                || vec![0.0; SERVER_M as usize + 1],
                |mut acc| {
                    for (f, &(lo, len)) in costs.iter().zip(&spans) {
                        f.add_range_to(lo, &mut acc[..len]);
                    }
                    black_box(&acc);
                    costs.len()
                },
            ),
            tenant_row(PolicySpec::Lcp),
            tenant_row(PolicySpec::HalfStepRounded { seed: 1 }),
        ],
    );
    let costs_m65536 = diurnal_server_costs(MAX_M);
    let [tracker_m65536] = timed(s, [tracker_row(MAX_M, SERVER_BETA, &costs_m65536)]);
    push(format!("{server}/tracker"), tracker);
    push(format!("{server}/add_range"), add_range);
    push(format!("{server}/tracker_m65536"), tracker_m65536);
    push(format!("{server}/lcp_opt_tenant"), lcp_opt);
    push(format!("{server}/halfstep_opt_tenant"), halfstep_opt);

    for fleet in [two_class_fleet(12, 6), two_class_fleet(63, 63)] {
        let cap: f64 = fleet
            .types
            .iter()
            .map(|t| t.count as f64 * t.capacity)
            .sum();
        let costs: Vec<_> = (0..48)
            .map(|k| {
                let angle = 2.0 * std::f64::consts::PI * k as f64 / 48.0;
                fleet.hcost((0.4 - 0.3 * angle.cos()) * cap)
            })
            .collect();
        // Warm the frontier so every timed step is a steady-state step.
        let mut dp = FrontierDp::new(&fleet.types);
        for cost in &costs {
            dp.step_cost(cost);
        }
        let [rate] = timed(
            s,
            [Row::new(
                || (),
                |()| {
                    for cost in &costs {
                        black_box(dp.step_cost(black_box(cost)));
                    }
                    costs.len()
                },
            )],
        );
        push(
            format!("hetero/frontier_step/lattice/{}", fleet.lattice_size()),
            rate,
        );
    }

    let xs = FracSchedule(
        (0..4096)
            .map(|t| 4.0 + 3.5 * ((t as f64) * 0.1).sin())
            .collect(),
    );
    let [rate] = timed(
        s,
        [Row::new(
            || StdRng::seed_from_u64(7),
            |rng| black_box(round_schedule(rng, black_box(&xs))).0.len(),
        )],
    );
    push("rounding/round_schedule_T4096".into(), rate);
    let costs = (0..1024)
        .map(|t| Cost::abs(1.0, 8.0 + 6.0 * ((t as f64) * 0.2).sin()))
        .collect();
    let inst = Instance::new(16, 2.0, costs).expect("valid instance");
    let [rate] = timed(
        s,
        [Row::new(
            || HalfStep::new(16, 2.0, EvalMode::Interpolate),
            |mut alg| black_box(run_frac(&mut alg, black_box(&inst))).0.len(),
        )],
    );
    push("rounding/halfstep_T1024".into(), rate);

    for m in [16u32, 64, 256] {
        let trace = Diurnal {
            period: 48,
            base: 2.0,
            peak: m as f64 * 0.7,
            noise: 0.1,
        }
        .generate(960, 3);
        let cfg = SimConfig {
            m,
            ..Default::default()
        };
        let [rate] = timed(
            s,
            [Row::new(
                || Lcp::new(cfg.m, cfg.cost_model.beta),
                |mut lcp| {
                    black_box(simulate_online(&cfg, &trace, &mut lcp).model_cost);
                    trace.len()
                },
            )],
        );
        push(format!("sim/lcp_diurnal_T960/m/{m}"), rate);
    }
    rows
}

/// How a section measures its rows: each row's identifying keys, and
/// the spread of its number.
type Measure = fn(&Scale) -> Vec<(Value, Spread)>;

/// The `results` sections: name, the keys that identify a row, the field
/// that holds each row's median (next to `min` and `max`), and how to
/// measure the rows.
const SECTIONS: [(&str, &[&str], &str, Measure); 9] = [
    (
        "throughput",
        &["shards"],
        "steps_per_sec",
        measure_throughput,
    ),
    (
        "store_overhead",
        &["backend"],
        "steps_per_sec",
        measure_store_overhead,
    ),
    ("hetero", &["algo"], "steps_per_sec", measure_hetero),
    (
        "rebalance",
        &["backend"],
        "moved_per_sec",
        measure_rebalance,
    ),
    ("energy", &["mode"], "rate", measure_energy),
    (
        "wire_codec",
        &["framing", "bytes_per_event"],
        "steps_per_sec",
        measure_wire_codec,
    ),
    (
        "serve_throughput",
        &["framing", "conns"],
        "steps_per_sec",
        measure_serve,
    ),
    (
        "fleet_scaling",
        &["tenants", "shards"],
        "batch_us",
        measure_fleet_scaling,
    ),
    ("policy_step", &["row"], "step_ns", measure_policy_step),
];

/// A result row: `keys`, then `field` holding the median, then `min`
/// and `max`.
fn row(keys: Value, field: &str, spread: Spread) -> Value {
    let Value::Object(mut fields) = keys else {
        unreachable!("row keys are a JSON object")
    };
    fields.push((field.to_string(), json!(spread.median)));
    fields.push(("min".to_string(), json!(spread.min)));
    fields.push(("max".to_string(), json!(spread.max)));
    Value::Object(fields)
}

/// Schema check: host block and every section present, every number
/// positive, every row's median within its spread, and the two pinned
/// ratios on medians. Returns the list of violations (empty = valid).
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        let found = doc["schema"].as_str().unwrap_or("(none)");
        errs.push(format!("schema {found:?} != {SCHEMA:?}"));
    }
    if !(doc["host"]["available_parallelism"]
        .as_u64()
        .is_some_and(|n| n > 0)
        && doc["host"]["profile"].as_str().is_some())
    {
        errs.push("host: missing available_parallelism or profile".into());
    }
    for (name, keys, field, _) in SECTIONS {
        let rows = match doc["results"][name].as_array() {
            Some(rows) if !rows.is_empty() => rows,
            _ => {
                errs.push(format!("results.{name}: missing or empty"));
                continue;
            }
        };
        for (i, row) in rows.iter().enumerate() {
            for key in keys {
                let v = &row[*key];
                if !(v.as_f64().is_some_and(|x| x > 0.0) || v.as_str().is_some()) {
                    errs.push(format!("results.{name}[{i}].{key}: bad value"));
                }
            }
            let number = |f: &str| row[f].as_f64().filter(|x| *x > 0.0);
            match (number("min"), number(field), number("max")) {
                (Some(lo), Some(mid), Some(hi)) if lo <= mid && mid <= hi => {}
                (Some(lo), Some(mid), Some(hi)) => errs.push(format!(
                    "results.{name}[{i}]: median {mid} outside [min {lo}, max {hi}]"
                )),
                _ => errs.push(format!(
                    "results.{name}[{i}]: {field}/min/max must be positive numbers"
                )),
            }
        }
    }
    // The one machine-independent relative claim the recording makes: the
    // binary framing decodes at least twice as fast as JSONL.
    let median = |section: &str, key: &str, id: &Value, field: &str| {
        doc["results"][section]
            .as_array()?
            .iter()
            .find(|r| r[key] == *id)?[field]
            .as_f64()
    };
    match (
        median("wire_codec", "framing", &json!("jsonl"), "steps_per_sec"),
        median("wire_codec", "framing", &json!("binary"), "steps_per_sec"),
    ) {
        (Some(j), Some(b)) if b < 2.0 * j => errs.push(format!(
            "results.wire_codec: binary decode is {b:.0} steps/s vs jsonl {j:.0} — \
             under the pinned 2x floor"
        )),
        (Some(_), Some(_)) => {}
        _ => errs.push("results.wire_codec: missing jsonl/binary rows".into()),
    }
    // Per-batch cost is O(batch): the largest fleet's batch stays within
    // a fixed factor of the smallest's.
    let (small, large) = (FLEET_SIZES[0], FLEET_SIZES[FLEET_SIZES.len() - 1]);
    match (
        median("fleet_scaling", "tenants", &json!(small), "batch_us"),
        median("fleet_scaling", "tenants", &json!(large), "batch_us"),
    ) {
        (Some(a), Some(b)) if b > FLEET_SPREAD * a => errs.push(format!(
            "results.fleet_scaling: an 8-event batch takes {b:.1} us at {large} tenants \
             vs {a:.1} us at {small} — over the {FLEET_SPREAD}x cap"
        )),
        (Some(_), Some(_)) => {}
        _ => errs.push(format!(
            "results.fleet_scaling: missing {small}/{large}-tenant rows"
        )),
    }
    errs
}

/// The deterministic projection `--shape` prints: schema tag, host block
/// and full section/row structure with every measured number replaced by
/// `"_"`. Quick and full runs of the same binary project identically, so
/// the nightly job byte-diffs a fresh run's shape against the recording's.
fn shape(doc: &Value) -> Value {
    fn strip(v: &Value) -> Value {
        match v {
            Value::Number(_) => Value::String("_".into()),
            Value::Array(items) => Value::Array(items.iter().map(strip).collect()),
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect::<Vec<_>>(),
            ),
            other => other.clone(),
        }
    }
    json!({
        "schema": doc["schema"].clone(),
        "host": strip(&doc["host"]),
        "results": strip(&doc["results"]),
    })
}

fn main() {
    let args = Args::from_env(
        "engine_bench",
        &["--quick"],
        &["--out", "--validate", "--shape"],
    );
    if let Some(path) = args.opt("--shape") {
        let text = serde_json::to_string_pretty(&shape(&read_doc(path))).expect("render");
        println!("{text}");
        return;
    }
    if let Some(path) = args.opt("--validate") {
        validate_file(path, SCHEMA, validate);
    }

    let scale = Scale::new(args.flag("--quick"));
    eprintln!(
        "engine_bench: {} tenants, {} windows of {:?}{}",
        scale.tenants,
        scale.windows,
        scale.window,
        if scale.quick { " (quick)" } else { "" }
    );
    let results = SECTIONS
        .iter()
        .map(|(name, _, field, measure)| {
            let rows = measure(&scale)
                .into_iter()
                .map(|(keys, spread)| row(keys, field, spread))
                .collect();
            eprintln!("engine_bench: {name} done");
            (name.to_string(), Value::Array(rows))
        })
        .collect();
    let _ = std::fs::remove_dir_all(scratch());

    let doc = json!({
        "schema": SCHEMA,
        "quick": scale.quick,
        "tenants": scale.tenants,
        "windows": scale.windows,
        "window_ms": scale.window.as_millis() as u64,
        "host": {
            "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        },
        "results": Value::Object(results),
    });
    // The document is written even when it breaks a bound, so the run
    // that broke it can be inspected.
    write_doc("engine_bench", args.opt("--out"), &doc);
    let errs = validate(&doc);
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("engine_bench: {e}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid v9 document whose spreads are wide enough that the two
    /// ratio checks pass on medians but would fail on the extremes.
    const DOC: &str = r#"{
      "schema": "rsdc-engine-bench/v9",
      "host": {"available_parallelism": 2, "profile": "release"},
      "results": {
        "throughput": [{"shards": 1, "steps_per_sec": 300, "min": 290, "max": 310}],
        "store_overhead": [{"backend": "file", "steps_per_sec": 200, "min": 190, "max": 210}],
        "hetero": [{"algo": "greedy", "steps_per_sec": 900, "min": 800, "max": 1000}],
        "rebalance": [{"backend": "file", "moved_per_sec": 30, "min": 25, "max": 35}],
        "energy": [{"mode": "metered", "rate": 250, "min": 240, "max": 260}],
        "wire_codec": [
          {"framing": "jsonl", "bytes_per_event": 35.5, "steps_per_sec": 100, "min": 90, "max": 110},
          {"framing": "binary", "bytes_per_event": 22.5, "steps_per_sec": 400, "min": 150, "max": 450}
        ],
        "serve_throughput": [{"framing": "jsonl", "conns": 4, "steps_per_sec": 200, "min": 180, "max": 220}],
        "fleet_scaling": [
          {"tenants": 1000, "shards": 2, "batch_us": 18, "min": 17, "max": 30},
          {"tenants": 100000, "shards": 2, "batch_us": 20, "min": 19, "max": 40}
        ],
        "policy_step": [{"row": "online/lcp_full_run_T1024/lcp/16", "step_ns": 180, "min": 170, "max": 190}]
      }
    }"#;

    fn errors(edit: &[(&str, &str)]) -> Vec<String> {
        let text = edit.iter().fold(DOC.to_string(), |doc, (from, to)| {
            assert!(doc.contains(from), "{from:?} is not in the document");
            doc.replacen(from, to, 1)
        });
        validate(&serde_json::from_str(&text).expect("parse"))
    }

    fn refused(edit: &[(&str, &str)], needle: &str) {
        let errs = errors(edit);
        assert!(
            errs.iter().any(|e| e.contains(needle)),
            "{edit:?}: {errs:?} lacks {needle:?}"
        );
    }

    #[test]
    fn accepts_a_valid_v9_document() {
        assert_eq!(errors(&[]), Vec::<String>::new());
    }

    #[test]
    fn refuses_a_v6_document() {
        refused(
            &[("rsdc-engine-bench/v9", "rsdc-engine-bench/v6")],
            "schema \"rsdc-engine-bench/v6\" != \"rsdc-engine-bench/v9\"",
        );
        // v7 adds the policy_step section.
        refused(
            &[("\"policy_step\"", "\"online_step\"")],
            "results.policy_step: missing or empty",
        );
    }

    /// v8 keys the rebalance rows by backend alone: v7 also keyed them by
    /// a rebalance mode the engine no longer has.
    #[test]
    fn refuses_a_v7_document() {
        refused(
            &[("rsdc-engine-bench/v9", "rsdc-engine-bench/v7")],
            "schema \"rsdc-engine-bench/v7\" != \"rsdc-engine-bench/v9\"",
        );
    }

    /// v9 adds the `policy_step` row `online/server_m1024_T256/add_range`,
    /// the slot-cost floor the `tracker` row is read against.
    #[test]
    fn refuses_a_v8_document() {
        refused(
            &[("rsdc-engine-bench/v9", "rsdc-engine-bench/v8")],
            "schema \"rsdc-engine-bench/v8\" != \"rsdc-engine-bench/v9\"",
        );
    }

    #[test]
    fn refuses_a_median_outside_its_spread() {
        refused(
            &[("\"min\": 290", "\"min\": 305")],
            "results.throughput[0]: median 300 outside [min 305, max 310]",
        );
        refused(
            &[("\"max\": 310", "\"max\": 295")],
            "results.throughput[0]: median 300 outside [min 290, max 295]",
        );
        refused(
            &[(", \"min\": 240", "")],
            "results.energy[0]: rate/min/max must be positive numbers",
        );
    }

    #[test]
    fn refuses_a_missing_host_block() {
        refused(
            &[(
                r#""host": {"available_parallelism": 2, "profile": "release"},"#,
                "",
            )],
            "host: missing",
        );
    }

    #[test]
    fn ratio_checks_read_the_medians() {
        // Binary's max is still over 2x JSONL's median; its median is not.
        refused(
            &[("\"steps_per_sec\": 400", "\"steps_per_sec\": 190")],
            "under the pinned 2x floor",
        );
        // The 100k row's median moves past 1.5x the 1k median, inside
        // its own spread.
        refused(
            &[("\"batch_us\": 20", "\"batch_us\": 28")],
            "over the 1.5x cap",
        );
    }
}
