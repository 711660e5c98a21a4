//! Allocation-regression pin for the zero-copy binary ingest path.
//!
//! The binary wire hot path is designed to do **zero per-event heap
//! allocations** in steady state: interned tenant ids, slab tenant
//! storage, recycled dispatch and reply buffers, and response frames
//! written into reusable scratch. This test holds that design with a
//! counting global allocator and a differential methodology immune to
//! fixed costs: after warmup (which sizes every buffer to its high-water
//! mark), stream `E` events and then `2E` events through the same
//! connection and require the allocation-count difference to stay under
//! `E / 8` — amortized fixed-rate costs (channel nodes per batch flush,
//! buffer doublings) pass, anything per-event fails.
//!
//! The workload is the steady-state shape: scalar `lcp` tenants stepped
//! by load-only `TAG_STEP_LOAD` frames (costs come from the tenants'
//! cost model, so no per-event cost JSON is parsed), flushed at the
//! protocol's `MAX_STEP_BATCH` boundary.
//!
//! The `#[ignore]`d heavy variant re-runs the pin at `RSDC_HEAVY_CASES`
//! scale for the nightly `--include-ignored` CI job.
//!
//! A second pin holds the engine's batch handoff itself: small
//! `Engine::step_events` batches with recycled buffers, compared at `B`
//! and `2B` batches, may not allocate per batch either — with no limits
//! and under a per-tenant rate limit that never throttles (the bucket
//! check runs in the routing loop, on the tenant's intern entry).
//!
//! A third holds the policy step of the `large-m` shape: LCP+OPT and
//! HalfStep+OPT tenants at m = 1024, stepped by load over a 48-slot
//! diurnal period, allocate nothing at all once a period has warmed them.

use rsdc_core::{Cost, ServerParams};
use rsdc_engine::binwire::{put_frame, BinSession, BodyWriter, PREAMBLE, TAG_STEP_LOAD};
use rsdc_engine::tenant::{StepScratch, Tenant};
use rsdc_engine::wire::Session;
use rsdc_engine::{
    AdmissionConfig, Engine, EngineConfig, PolicySpec, StepEvent, StepOutcome, TenantConfig,
};
use rsdc_tests::heavy_cases;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts every `alloc`/`realloc` (not bytes — the pin is on allocation
/// *events*) and forwards to the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The same count for the current thread alone: a pin whose work runs
    /// on the test's own thread reads it, so the allocations of other test
    /// threads and of the harness never reach it. (`const` and without a
    /// destructor, so reading it allocates nothing.)
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Only one measurement may run at a time — the counter is process-wide.
static MEASURE: Mutex<()> = Mutex::new(());

const TENANTS: usize = 64;

/// `events` load-only step frames (no preamble), tenants round-robin,
/// constant load — the steady-state ingest stream.
fn step_frames(events: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(events * 20);
    let mut payload = Vec::new();
    let ids: Vec<String> = (0..TENANTS).map(|i| format!("t{i}")).collect();
    for k in 0..events {
        BodyWriter::start(&mut payload, TAG_STEP_LOAD)
            .str16(&ids[k % TENANTS])
            .f64(2.0);
        put_frame(&mut out, &payload);
    }
    out
}

/// A warmed binary connection: tenants admitted, preamble exchanged, and
/// one full-size stream already served so every buffer sits at its
/// high-water mark.
fn warmed_connection(warm_events: usize) -> (BinSession, Vec<u8>) {
    let mut cfg = EngineConfig::with_shards(2);
    cfg.metrics = false;
    let engine = Engine::new(cfg);
    for i in 0..TENANTS {
        engine
            .admit(TenantConfig::new(format!("t{i}"), 16, 4.0, PolicySpec::Lcp))
            .expect("admit");
    }
    let mut bin = BinSession::new(Session::new(engine));
    let mut replies = Vec::new();
    bin.feed(&PREAMBLE, &mut replies);
    bin.feed(&step_frames(warm_events), &mut replies);
    assert!(!bin.is_dead(), "warmup stream must be healthy");
    (bin, replies)
}

/// Allocations counted while feeding `stream` into the warmed session.
fn allocations_for(bin: &mut BinSession, replies: &mut Vec<u8>, stream: &[u8]) -> u64 {
    replies.clear(); // keeps capacity — response bytes reuse it
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    bin.feed(stream, replies);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(!bin.is_dead(), "measured stream must be healthy");
    after - before
}

/// The differential pin at a given event scale.
fn run_pin(events: usize) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let small = step_frames(events);
    let large = step_frames(events * 2);
    let (mut bin, mut replies) = warmed_connection(events * 2);

    // One pre-measurement pass of each size settles any remaining
    // capacity growth (the decoder buffer, the reply sink).
    allocations_for(&mut bin, &mut replies, &small);
    allocations_for(&mut bin, &mut replies, &large);

    let a_small = allocations_for(&mut bin, &mut replies, &small);
    let a_large = allocations_for(&mut bin, &mut replies, &large);
    let delta = a_large.saturating_sub(a_small);
    let slack = (events / 8) as u64;
    assert!(
        delta <= slack,
        "binary ingest allocates per event: {events} extra events cost {delta} \
         allocations (small run {a_small}, large run {a_large}, slack {slack})"
    );
}

/// Steady-state binary ingest performs zero per-event allocations.
#[test]
fn steady_state_binary_ingest_allocates_nothing_per_event() {
    run_pin(4096);
}

/// Nightly-depth pin (`--include-ignored`): same property at
/// `RSDC_HEAVY_CASES`-scaled event counts.
#[test]
#[ignore = "heavy: run via the nightly --include-ignored CI job"]
fn steady_state_binary_ingest_allocates_nothing_per_event_heavy() {
    let scale = heavy_cases(16) as usize;
    run_pin((4096 * scale).min(1 << 20));
}

/// Events per `step_events` batch in the engine-level pin.
const BATCH: usize = 8;

/// Step `batches` batches of [`BATCH`] events through `engine`, tenants
/// round-robin from `*next`, reusing `events` and `out`; returns the
/// allocations counted meanwhile.
fn engine_allocations(
    engine: &Engine,
    ids: &[(Arc<str>, u32)],
    batches: usize,
    next: &mut usize,
    events: &mut Vec<StepEvent>,
    out: &mut Vec<StepOutcome>,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..batches {
        for _ in 0..BATCH {
            let (id, key) = &ids[*next % ids.len()];
            *next += 1;
            events.push(StepEvent {
                id: id.clone(),
                key: *key,
                cost: Cost::abs(1.0, (*next % 7) as f64),
                load: None,
            });
        }
        out.clear();
        engine.step_events(events, out).expect("step");
        assert_eq!(out.len(), BATCH);
        assert!(out.iter().all(|o| o.error.is_none()));
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Steady-state `Engine::step_events` batches allocate nothing per batch:
/// the per-shard handoff (job and reply channels, event and outcome
/// buffers) is created once and recycled, and a rate limit adds no
/// per-event or per-batch allocation either.
#[test]
fn steady_state_engine_batches_allocate_nothing_per_batch() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let rate_limited = AdmissionConfig {
        rate: 8.0,
        burst: 64.0,
        ..AdmissionConfig::default()
    };
    for limits in [AdmissionConfig::default(), rate_limited] {
        let batches = 2048;
        let mut cfg = EngineConfig::with_shards(2);
        cfg.metrics = false;
        let engine = Engine::new(cfg);
        engine.set_limits(limits).expect("limits");
        let ids: Vec<(Arc<str>, u32)> = (0..TENANTS)
            .map(|i| {
                let id = format!("t{i}");
                engine
                    .admit(TenantConfig::new(id.clone(), 16, 4.0, PolicySpec::Lcp))
                    .expect("admit");
                engine.resolve(&id)
            })
            .collect();
        let mut events = Vec::with_capacity(BATCH);
        let mut out = Vec::with_capacity(BATCH);
        let mut next = 0;
        let mut run = |n| engine_allocations(&engine, &ids, n, &mut next, &mut events, &mut out);
        // Warmup sizes every buffer to its high-water mark.
        run(batches * 2);
        let small = run(batches);
        let large = run(batches * 2);
        let delta = large.saturating_sub(small);
        let slack = (batches / 4) as u64;
        eprintln!(
            "engine batches ({limits:?}): {small} allocations for {batches}, {large} for twice that"
        );
        assert!(
            delta <= slack,
            "engine batches allocate per batch under {limits:?}: {batches} extra batches cost \
             {delta} allocations (small run {small}, large run {large}, slack {slack})"
        );
    }
}

/// Slots in one period of the `large-m` load curve.
const PERIOD: usize = 48;

/// The `Server` cost the engine prices tenant `t`'s load at slot `k` into
/// (the default cost model), on a diurnal curve between 10% and 70% of
/// m = 1024 with a phase per tenant and ±10% noise, in sixteenths.
fn large_m_step(t: usize, k: usize) -> (Cost, f64) {
    let angle = 2.0 * std::f64::consts::PI * ((k + 5 * t) % PERIOD) as f64 / PERIOD as f64;
    let noise = ((k * 37 + t * 11) % 101) as f64 / 50.0 - 1.0;
    let load = (409.6 - 307.2 * angle.cos()) * (1.0 + 0.1 * noise);
    let load = (load * 16.0).round() / 16.0;
    let cost = Cost::Server {
        lambda: load,
        params: ServerParams::default(),
        overload: 20.0,
    };
    (cost, load)
}

/// The `large-m` tenants allocate nothing per step once warm: after one
/// period of load steps, every buffer a step uses (a bound tracker's
/// column and step scratch, the HalfStep stage, the tenant's effect
/// scratch) has reached the size the load's swing needs, so two more
/// periods of steps allocate nothing at all on the stepping thread.
#[test]
fn steady_state_large_m_tenants_allocate_nothing_per_step() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut tenants: Vec<Tenant> = (0..8)
        .map(|i| {
            let policy = if i % 2 == 0 {
                PolicySpec::Lcp
            } else {
                PolicySpec::HalfStepRounded { seed: i as u64 }
            };
            let cfg = TenantConfig::new(format!("L{i}"), 1024, 6.0, policy).with_opt_tracking();
            Tenant::new(cfg).expect("valid tenant")
        })
        .collect();
    let mut scratch = StepScratch::default();
    let mut slot = 0;
    let mut run = |slots: usize| {
        let before = THREAD_ALLOCATIONS.with(Cell::get);
        for _ in 0..slots {
            for (t, tenant) in tenants.iter_mut().enumerate() {
                let (cost, load) = large_m_step(t, slot);
                tenant
                    .step_into(&cost, Some(load), &mut scratch)
                    .expect("step");
            }
            slot += 1;
        }
        THREAD_ALLOCATIONS.with(Cell::get) - before
    };
    let warmup = run(PERIOD);
    let steady = run(2 * PERIOD);
    eprintln!("large-m tenants: {warmup} allocations warming up, {steady} in two periods after");
    assert_eq!(
        steady,
        0,
        "large-m tenants allocate per step: {steady} allocations in {} warm steps",
        2 * PERIOD * tenants.len()
    );
}
