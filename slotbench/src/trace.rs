//! The traced run: a per-layer split of a slot, timed from outside.
//!
//! After one untraced episode (the slot time the split is taken against),
//! the same generated inputs are replayed in this process and every call
//! into a layer's public entry point is recorded as a span — name, start,
//! end, parent, slot id, and an item count. Spans live in memory and are
//! written out when the run ends; every per-layer metric is derived from
//! them afterwards. Three replays share the inputs:
//!
//! * **session** — the slot's bytes through the framing session
//!   (`LineSession`/`BinSession::feed`, or `Session::handle_lines`) of an
//!   engine whose store is wrapped in [`SpanStore`], so WAL appends,
//!   syncs and checkpoints become child spans. Slots alternate between
//!   traced, untraced (store spans off: the tracing overhead) and
//!   layer-by-layer;
//! * **layers** — every third slot calls the layers one by one on the same
//!   engine: decode (`parse_record`, or `FrameDecoder::next_frame` +
//!   `BodyReader`), `Engine::resolve`, `Engine::step_events`, and reply
//!   render (`stepped_line`, or the compact stepped frame);
//! * **tenants** — each tenant's priced costs through a standalone
//!   `Tenant::step_into` (the shards' entry point), grouped by the shard
//!   the public `HashRing` assigns, so a slot's critical policy path is the
//!   slowest shard's sum.

use crate::durable::{file_store, open_session};
use crate::gate::{self, Tally};
use crate::pin::pin_threads;
use crate::stats::{self, mean, median, named, Metrics, PER_LAYER};
use crate::workload::{hetero_fleet, Family, Framing, Inputs, Step, SHARDS};
use crate::Episode;
use rsdc_core::prelude::Cost;
use rsdc_engine::binwire::{
    put_frame, BinSession, BodyReader, BodyWriter, FrameDecoder, PREAMBLE, TAG_RESP_STEPPED,
    TAG_STEP_LOAD,
};
use rsdc_engine::tenant::{StepScratch, Tenant};
use rsdc_engine::wire::{parse_record, stepped_line, LineSession, Record, Session};
use rsdc_engine::{
    Engine, EngineConfig, HashRing, HeteroAlgo, RingSpec, StepEvent, StepOutcome, TenantConfig,
    DEFAULT_VNODES,
};
use rsdc_store::{Durability, NullStore, Recovery, StoreError, StoreStats};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Most timed slots a traced replay walks (a third of them per kind).
const REPLAY_SLOTS: usize = 900;

/// Steps of the probe tenant that stands in for a policy family the
/// workload does not run.
const PROBE_STEPS: usize = 400;

/// Slot id of spans outside any slot (set-up, probes, checkpoints).
const NO_SLOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Slot the span belongs to ([`NO_SLOT`] outside slots).
    pub slot: u32,
    /// Items the call handled (records, ids, replies) or bytes it wrote.
    pub n: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder, shared with the shard threads through
/// [`SpanStore`].
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent and slot of spans the store wrapper records on shard threads.
    context: Mutex<(Option<usize>, u32)>,
    /// Whether the store wrapper records (off for untraced slots).
    on: AtomicBool,
    /// The checkpoint span a `begin_checkpoint` opened.
    checkpoint: Mutex<Option<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            context: Mutex::new((None, NO_SLOT)),
            on: AtomicBool::new(false),
            checkpoint: Mutex::new(None),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Open a span now; close it with [`Tracer::end`].
    fn begin(&self, name: &'static str, parent: Option<usize>, slot: u32) -> usize {
        let start = self.now();
        self.record(name, parent, slot, start, start, 0)
    }

    fn end(&self, index: usize, n: u64) {
        let end = self.now();
        let mut spans = self.spans();
        spans[index].end = end;
        spans[index].n = n;
    }

    fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        slot: u32,
        start: u64,
        end: u64,
        n: u64,
    ) -> usize {
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end,
            parent,
            slot,
            n,
        });
        spans.len() - 1
    }

    /// Time `f` as a span.
    fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        slot: u32,
        f: impl FnOnce() -> (T, u64),
    ) -> (T, usize) {
        let start = self.now();
        let (out, n) = f();
        let end = self.now();
        (out, self.record(name, parent, slot, start, end, n))
    }

    /// Where store spans recorded on other threads attach.
    fn set_context(&self, parent: Option<usize>, slot: u32) {
        *self.context.lock().expect("span context poisoned") = (parent, slot);
    }

    fn context(&self) -> (Option<usize>, u32) {
        *self.context.lock().expect("span context poisoned")
    }

    /// Write every span as one JSON line to `path`.
    fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let slot = if s.slot == NO_SLOT {
                "null".to_string()
            } else {
                s.slot.to_string()
            };
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"slot":{slot},"n":{}}}"#,
                s.name, s.start, s.end, s.n
            )?;
        }
        out.flush()
    }
}

/// A [`Durability`] wrapper that records each store call as a span under
/// the tracer's current context. A checkpoint span runs from
/// `begin_checkpoint` to the end of `commit_checkpoint`.
pub struct SpanStore {
    inner: Arc<dyn Durability>,
    tracer: Arc<Tracer>,
}

impl SpanStore {
    fn timed<T>(
        &self,
        name: &'static str,
        n: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.tracer.on.load(Ordering::Relaxed) {
            return f();
        }
        let (ctx, slot) = self.tracer.context();
        self.tracer.span(name, parent.or(ctx), slot, || (f(), n)).0
    }
}

impl Durability for SpanStore {
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn has_state(&self) -> Result<bool, StoreError> {
        self.inner.has_state()
    }

    fn append(&self, shard: usize, payload: &[u8]) -> Result<(), StoreError> {
        self.timed("store.append", payload.len() as u64, None, || {
            self.inner.append(shard, payload)
        })
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.timed("store.sync", 0, None, || self.inner.sync())
    }

    fn begin_checkpoint(&self) -> Result<u64, StoreError> {
        if self.tracer.on.load(Ordering::Relaxed) {
            let (ctx, slot) = self.tracer.context();
            let span = self.tracer.begin("store.checkpoint", ctx, slot);
            *self
                .tracer
                .checkpoint
                .lock()
                .expect("checkpoint span poisoned") = Some(span);
        }
        self.inner.begin_checkpoint()
    }

    fn rotate(&self, shard: usize, seq: u64) -> Result<(), StoreError> {
        let open = *self
            .tracer
            .checkpoint
            .lock()
            .expect("checkpoint span poisoned");
        self.timed("store.rotate", 0, open, || self.inner.rotate(shard, seq))
    }

    fn commit_checkpoint(&self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let open = *self
            .tracer
            .checkpoint
            .lock()
            .expect("checkpoint span poisoned");
        let out = self.timed("store.commit", payload.len() as u64, open, || {
            self.inner.commit_checkpoint(seq, payload)
        });
        self.close_checkpoint(payload.len() as u64);
        out
    }

    fn recover(&self) -> Result<Recovery, StoreError> {
        self.inner.recover()
    }

    fn wal_stats(&self) -> Result<StoreStats, StoreError> {
        self.inner.wal_stats()
    }
}

impl SpanStore {
    /// Close the open checkpoint span (a non-durable store never commits,
    /// so the caller closes it when `Engine::checkpoint` returns).
    fn close_checkpoint(&self, bytes: u64) {
        if let Some(span) = self
            .tracer
            .checkpoint
            .lock()
            .expect("checkpoint span poisoned")
            .take()
        {
            self.tracer.end(span, bytes);
        }
    }
}

/// The framing session a replay feeds.
enum Front {
    Line(LineSession),
    Bin(BinSession),
    Lines(Session),
}

impl Front {
    fn session(&self) -> &Session {
        match self {
            Front::Line(l) => l.session(),
            Front::Bin(b) => b.session(),
            Front::Lines(s) => s,
        }
    }

    /// Feed one block of requests; returns the tracer-clock start and end
    /// of the session call alone. Replies land in `out` as bytes (JSONL
    /// lines for the in-process framing).
    fn feed(
        &mut self,
        tracer: &Tracer,
        bytes: &[u8],
        lines: &[&str],
        out: &mut Vec<u8>,
    ) -> (u64, u64) {
        let start = tracer.now();
        let replies = match self {
            Front::Line(l) => {
                l.feed(bytes, out);
                None
            }
            Front::Bin(b) => {
                b.feed(bytes, out);
                None
            }
            Front::Lines(s) => Some(s.handle_lines(lines.iter().copied())),
        };
        let end = tracer.now();
        for line in replies.into_iter().flatten() {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        (start, end)
    }
}

/// Decode one slot's request bytes into `(tenant id, load)` steps, the
/// way the framing session does; control records are skipped.
fn decode(framing: Framing, bytes: &[u8]) -> Vec<(String, f64)> {
    let mut steps = Vec::new();
    if framing == Framing::Binary {
        let mut dec = FrameDecoder::new();
        dec.extend(bytes);
        while let Ok(Some(frame)) = dec.next_frame() {
            if frame.tag == TAG_STEP_LOAD {
                let mut r = BodyReader::new(frame.body);
                if let (Some(id), Some(load)) = (r.str16(), r.f64()) {
                    steps.push((id.to_string(), load));
                }
            }
        }
    } else {
        for line in std::str::from_utf8(bytes).unwrap_or("").lines() {
            if let Ok(Record::Step {
                id,
                load: Some(load),
                ..
            }) = parse_record(line)
            {
                steps.push((id, load));
            }
        }
    }
    steps
}

/// Render one outcome the way the framing session does.
fn render(framing: Framing, seq: usize, o: &StepOutcome, payload: &mut Vec<u8>, out: &mut Vec<u8>) {
    if framing == Framing::Binary {
        let mut w = BodyWriter::start(payload, TAG_RESP_STEPPED);
        w.u64(seq as u64).str16(&o.id).u16(o.states.len() as u16);
        for &s in o.states.iter() {
            w.u32(s);
        }
        put_frame(out, payload);
    } else {
        out.extend_from_slice(stepped_line(o).as_bytes());
        out.push(b'\n');
    }
}

/// The slot cost an event carries into the engine.
fn event_cost(inputs: &Inputs, step: Step) -> Cost {
    match Family::of(&inputs.configs[step.tenant as usize]) {
        Family::Hetero => Cost::Zero,
        _ => inputs.priced(step),
    }
}

/// Run the traced replays and derive the per-layer metrics.
pub fn run(
    inputs: &Inputs,
    e2e: &Metrics,
    episodes: &[Episode],
    scratch: &Path,
) -> Result<(Metrics, Tally), String> {
    let spec = &inputs.spec;
    let tracer = Arc::new(Tracer::new());
    let mut tally = Tally::default();

    // Engine admit cost, on a bare engine of the workload's shape.
    {
        let engine = Engine::new(EngineConfig::with_shards(SHARDS));
        // A round trip through every shard: their threads run (and carry
        // their names) before they are pinned.
        engine
            .shard_stats()
            .map_err(|e| format!("admit probe: {e}"))?;
        pin_threads("self");
        let root = tracer.begin("admit.probe", None, NO_SLOT);
        for cfg in &inputs.configs {
            let (ok, _) = tracer.span("engine.admit", Some(root), NO_SLOT, || {
                (engine.admit(cfg.clone()), 1)
            });
            ok.map_err(|e| format!("admit probe: {e}"))?;
        }
        tracer.end(root, inputs.configs.len() as u64);
    }

    // The session replay's engine: the workload's store, wrapped.
    let durable = spec.framing == Framing::InProcess;
    let inner: Arc<dyn Durability> = if durable {
        let dir = scratch.join("replay-store");
        Arc::new(file_store(&dir)?)
    } else {
        Arc::new(NullStore)
    };
    let store = Arc::new(SpanStore {
        inner,
        tracer: tracer.clone(),
    });
    let mut front = match spec.framing {
        Framing::InProcess => Front::Lines(open_session(store.clone())?),
        framing => {
            let engine = Engine::with_store(EngineConfig::with_shards(SHARDS), store.clone())
                .map_err(|e| format!("replay engine: {e}"))?;
            match framing {
                Framing::Binary => Front::Bin(BinSession::new(Session::new(engine))),
                _ => Front::Line(LineSession::new(Session::new(engine))),
            }
        }
    };

    pin_threads("self");

    // Set-up and warm-up, untraced.
    let mut out = Vec::new();
    let admit_lines = if durable {
        inputs.admit_lines()
    } else {
        Vec::new()
    };
    let mut setup = Vec::new();
    if spec.framing == Framing::Binary {
        setup.extend_from_slice(&PREAMBLE);
    }
    setup.extend_from_slice(&inputs.admit_bytes);
    front.feed(&tracer, &setup, &admit_lines, &mut out);
    let skip = if spec.framing == Framing::Binary {
        PREAMBLE.len()
    } else {
        0
    };
    gate::check_admits(
        if durable {
            Framing::Jsonl
        } else {
            spec.framing
        },
        out.get(skip..).unwrap_or(&[]),
        &mut tally,
    );
    let mut seq = spec.tenants;
    for s in 0..spec.warmup_slots {
        out.clear();
        front.feed(
            &tracer,
            inputs.slot_bytes(s),
            &inputs.slot_lines_if(durable, s),
            &mut out,
        );
        seq += inputs.slot_steps(s).len() + inputs.controls[s] as usize;
    }
    checkpoint(&tracer, &store, &front)?;

    // The replay proper.
    let replay = spec.timed_slots.min(REPLAY_SLOTS);
    let slots = spec.warmup_slots..spec.warmup_slots + replay;
    let mut layer_slots = 0;
    let mut payload = Vec::new();
    for (i, s) in slots.clone().enumerate() {
        let slot = s as u32;
        let lines = inputs.slot_lines_if(durable, s);
        out.clear();
        match i % 3 {
            0 | 1 => {
                // Traced slots record the session call as a span, with the
                // store calls inside it as children; untraced slots (store
                // spans off) give the tracing overhead.
                let traced = i % 3 == 0;
                let name = if traced {
                    "session.feed"
                } else {
                    "session.feed.untraced"
                };
                let span = tracer.begin(name, None, slot);
                tracer.set_context(Some(span), slot);
                tracer.on.store(traced, Ordering::Relaxed);
                let (start, end) = front.feed(&tracer, inputs.slot_bytes(s), &lines, &mut out);
                tracer.on.store(false, Ordering::Relaxed);
                {
                    let mut spans = tracer.spans();
                    spans[span].start = start;
                    spans[span].end = end;
                    spans[span].n = out.len() as u64;
                }
                if durable {
                    let replies: Vec<String> = String::from_utf8_lossy(&out)
                        .lines()
                        .map(str::to_string)
                        .collect();
                    gate::check_line_slot(inputs, s, &replies, &mut tally);
                } else {
                    gate::check_served_slot(inputs, s, seq, &out, &mut tally);
                }
                seq += inputs.slot_steps(s).len() + inputs.controls[s] as usize;
            }
            _ => {
                let outcomes = layers(inputs, s, &tracer, front.session().engine(), &mut payload);
                check_outcomes(inputs, s, &outcomes, &mut tally);
                layer_slots += 1;
            }
        }
    }
    checkpoint(&tracer, &store, &front)?;
    // Shutting the engine down flushes each shard through `sync`.
    tracer.set_context(None, NO_SLOT);
    tracer.on.store(true, Ordering::Relaxed);
    drop(front);
    tracer.on.store(false, Ordering::Relaxed);

    if !durable {
        // A NullStore engine never appends: time the entry point directly.
        let root = tracer.begin("store.probe", None, NO_SLOT);
        tracer.set_context(Some(root), NO_SLOT);
        tracer.on.store(true, Ordering::Relaxed);
        let record = vec![0u8; 256];
        for _ in 0..256 {
            store
                .append(0, &record)
                .map_err(|e| format!("store probe: {e}"))?;
        }
        tracer.on.store(false, Ordering::Relaxed);
        tracer.end(root, 256);
    }

    tenants(inputs, slots.end, &tracer);

    let spans = tracer.spans().clone();
    let dump = scratch.parent().unwrap_or(scratch).join(format!(
        "spans-{}-seed{}.jsonl",
        spec.kind.name(),
        inputs.seed
    ));
    tracer
        .dump(&dump)
        .map_err(|e| format!("write spans {}: {e}", dump.display()))?;
    eprintln!(
        "slotbench: {} spans written to {}",
        spans.len(),
        dump.display()
    );
    Ok((derive(&spans, e2e, episodes, layer_slots, slots), tally))
}

/// One explicit checkpoint through the session's engine. The store span
/// runs from `begin_checkpoint` to the commit, or to the call's return on
/// a store that commits nothing.
fn checkpoint(tracer: &Tracer, store: &SpanStore, front: &Front) -> Result<(), String> {
    tracer.set_context(None, NO_SLOT);
    tracer.on.store(true, Ordering::Relaxed);
    let (done, _) = tracer.span("engine.checkpoint", None, NO_SLOT, || {
        (front.session().engine().checkpoint(), 0)
    });
    store.close_checkpoint(0);
    tracer.on.store(false, Ordering::Relaxed);
    done.map(|_| ())
        .map_err(|e| format!("replay checkpoint: {e}"))
}

/// Slot `s` through the layers one by one.
fn layers(
    inputs: &Inputs,
    s: usize,
    tracer: &Tracer,
    engine: &Engine,
    payload: &mut Vec<u8>,
) -> Vec<StepOutcome> {
    let slot = s as u32;
    let framing = inputs.spec.framing;
    let root = tracer.begin("slot.layers", None, slot);
    let (decoded, _) = tracer.span("wire.decode", Some(root), slot, || {
        let d = decode(framing, inputs.slot_bytes(s));
        let n = d.len() as u64;
        (d, n)
    });
    let (resolved, _) = tracer.span("engine.resolve", Some(root), slot, || {
        let r: Vec<_> = decoded.iter().map(|(id, _)| engine.resolve(id)).collect();
        let n = r.len() as u64;
        (r, n)
    });
    let mut events: Vec<StepEvent> = resolved
        .into_iter()
        .zip(inputs.slot_steps(s))
        .map(|((id, key), &step)| StepEvent {
            id,
            key,
            cost: event_cost(inputs, step),
            load: Some(step.load),
        })
        .collect();
    let mut outcomes = Vec::with_capacity(events.len());
    let step_span = tracer.begin("engine.step_events", Some(root), slot);
    tracer.set_context(Some(step_span), slot);
    tracer.on.store(true, Ordering::Relaxed);
    let ok = engine.step_events(&mut events, &mut outcomes);
    tracer.on.store(false, Ordering::Relaxed);
    tracer.end(step_span, outcomes.len() as u64);
    if ok.is_err() {
        outcomes.clear();
    }
    let mut out = Vec::new();
    tracer.span("wire.render", Some(root), slot, || {
        for (j, o) in outcomes.iter().enumerate() {
            render(framing, j + 1, o, payload, &mut out);
        }
        ((), outcomes.len() as u64)
    });
    tracer.end(root, outcomes.len() as u64);
    outcomes
}

/// Gate the outcomes of a layer-by-layer slot.
fn check_outcomes(inputs: &Inputs, s: usize, outcomes: &[StepOutcome], tally: &mut Tally) {
    let lines: Vec<String> = outcomes.iter().map(stepped_line).collect();
    gate::check_line_slot(inputs, s, &lines, tally);
}

/// The tenant replay: every step of slots `0..end` through standalone
/// tenants (timed from the first replayed slot on), plus probe tenants
/// for the policy families the workload does not run.
fn tenants(inputs: &Inputs, end: usize, tracer: &Tracer) {
    let spec = &inputs.spec;
    let ring = HashRing::new(RingSpec::new(SHARDS, DEFAULT_VNODES));
    let shard_of: Vec<usize> = inputs.configs.iter().map(|c| ring.route(&c.id)).collect();
    let family: Vec<Family> = inputs.configs.iter().map(Family::of).collect();
    let mut live: Vec<Option<Tenant>> = (0..inputs.configs.len()).map(|_| None).collect();
    let mut scratch = StepScratch::default();
    for s in 0..end {
        let steps = inputs.slot_steps(s);
        let traced = s >= spec.warmup_slots;
        let slot = s as u32;
        let root = traced.then(|| tracer.begin("tenant.slot", None, slot));
        for shard in 0..SHARDS {
            let group = traced.then(|| tracer.begin("tenant.shard", root, slot));
            for &step in steps
                .iter()
                .filter(|st| shard_of[st.tenant as usize] == shard)
            {
                let t = step.tenant as usize;
                let tenant = live[t].get_or_insert_with(|| {
                    Tenant::new(inputs.configs[t].clone()).expect("valid tenant config")
                });
                let cost = event_cost(inputs, step);
                let start = tracer.now();
                tenant
                    .step_into(&cost, Some(step.load), &mut scratch)
                    .expect("tenant step");
                if traced {
                    tracer.record(family[t].span(), group, slot, start, tracer.now(), 1);
                }
            }
            if let Some(g) = group {
                tracer.end(g, 0);
            }
        }
        if let Some(r) = root {
            tracer.end(r, steps.len() as u64);
        }
    }
    // Families the workload does not run: a probe tenant of that family
    // (at the workload's m; hetero uses the durable-mixed fleet) driven by
    // tenant 0's load curve.
    for fam in Family::ALL {
        if family.contains(&fam) {
            continue;
        }
        let cfg = match fam {
            Family::Lcp => TenantConfig::new(
                "probe",
                spec.m,
                crate::workload::BETA,
                rsdc_engine::PolicySpec::Lcp,
            ),
            Family::HalfStep => TenantConfig::new(
                "probe",
                spec.m,
                crate::workload::BETA,
                rsdc_engine::PolicySpec::HalfStepRounded { seed: inputs.seed },
            ),
            Family::Hetero => TenantConfig::hetero("probe", hetero_fleet(), HeteroAlgo::Frontier),
        }
        .with_opt_tracking();
        let model = cfg.load_cost_model();
        let mut tenant = Tenant::new(cfg).expect("valid probe config");
        let root = tracer.begin("tenant.probe", None, NO_SLOT);
        for k in 0..PROBE_STEPS {
            let load = crate::workload::load(inputs.seed, 0, k, spec.m);
            let cost = match fam {
                Family::Hetero => Cost::Zero,
                _ => Cost::Server {
                    lambda: load,
                    params: model.server,
                    overload: model.overload,
                },
            };
            let start = tracer.now();
            tenant
                .step_into(&cost, Some(load), &mut scratch)
                .expect("probe step");
            tracer.record(fam.span(), Some(root), NO_SLOT, start, tracer.now(), 1);
        }
        tracer.end(root, PROBE_STEPS as u64);
    }
}

/// Per-layer metrics from the spans.
fn derive(
    spans: &[Span],
    e2e: &Metrics,
    episodes: &[Episode],
    layer_slots: usize,
    replayed: std::ops::Range<usize>,
) -> Metrics {
    let by_name = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let durs = |name: &'static str| by_name(name).map(|s| s.dur() as f64).collect::<Vec<f64>>();
    let per_item = |name: &'static str| {
        let (t, n) = by_name(name).fold((0u64, 0u64), |(t, n), s| (t + s.dur(), n + s.n));
        t as f64 / n.max(1) as f64
    };
    let children = |parent: usize| spans.iter().filter(move |s| s.parent == Some(parent));

    // Per-slot critical policy path: the slowest shard group.
    let n_slots = replayed.end;
    let mut critical = vec![f64::NAN; n_slots];
    for (i, s) in spans.iter().enumerate() {
        if s.name == "tenant.slot" {
            critical[s.slot as usize] = children(i).map(|c| c.dur() as f64).fold(0.0, f64::max);
        }
    }
    let critical_all: Vec<f64> = critical[replayed.clone()].to_vec();

    // Layer slots: step_events minus its critical path and store time.
    let step_events = durs("engine.step_events");
    let decode = durs("wire.decode");
    let resolve = durs("engine.resolve");
    let render = durs("wire.render");
    let mut dispatch = Vec::new();
    let mut store_slot = Vec::new();
    let mut appends = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let layered = s.name == "engine.step_events" || s.name == "session.feed";
        if !layered {
            continue;
        }
        let store: Vec<&Span> = children(i)
            .filter(|c| c.name.starts_with("store."))
            .collect();
        appends += store.iter().filter(|c| c.name == "store.append").count() as u64;
        let store_ns: u64 = store.iter().map(|c| c.dur()).sum();
        if s.name == "engine.step_events" {
            store_slot.push(store_ns as f64);
            dispatch.push(s.dur() as f64 - critical[s.slot as usize] - store_ns as f64);
        }
    }
    let traced_slots = by_name("session.feed").count() + layer_slots;

    let feed = durs("session.feed");
    let untraced = durs("session.feed.untraced");
    let us = |ns: f64| ns / 1e3;
    let slot_p50 = stats::get(e2e, "slot_p50_us");
    let feed_us = us(median(&feed));
    let residual = slot_p50 - feed_us;
    let critical_us = us(median(&critical_all));
    let dispatch_us = us(median(&dispatch));
    let store_us = us(median(&store_slot));
    let explained = residual
        + us(median(&decode))
        + us(median(&resolve))
        + us(median(&render))
        + dispatch_us
        + critical_us
        + store_us;
    let commits: Vec<u64> = by_name("store.commit").map(|s| s.n).collect();
    let checkpoints = durs("store.checkpoint");
    let steps: u64 = episodes.iter().map(|e| e.steps).sum();
    let bytes_in: u64 = episodes.iter().map(|e| e.bytes_in).sum();
    let bytes_out: u64 = episodes.iter().map(|e| e.bytes_out).sum();

    let step_ns = |fam: Family| mean(&durs(fam.span()));
    named(
        &PER_LAYER,
        &[
            step_ns(Family::Lcp),
            step_ns(Family::HalfStep),
            step_ns(Family::Hetero),
            critical_us,
            us(median(&step_events)),
            dispatch_us,
            per_item("engine.resolve"),
            us(mean(&durs("engine.admit"))),
            per_item("wire.decode"),
            per_item("wire.render"),
            bytes_in as f64 / steps as f64,
            bytes_out as f64 / steps as f64,
            feed_us,
            residual,
            us(mean(&durs("store.append"))),
            us(mean(&durs("store.sync"))),
            appends as f64 / traced_slots.max(1) as f64,
            mean(&checkpoints) / 1e6,
            commits.first().copied().unwrap_or(0) as f64,
            commits.last().copied().unwrap_or(0) as f64,
            1.0 - explained / slot_p50,
            median(&feed) / median(&untraced) - 1.0,
        ],
    )
}
