//! Workload definitions and seeded input generation.
//!
//! Every request byte a run sends is generated here, from the seed, before
//! any timed window opens. The same seed (and the same `--seconds`) gives
//! byte-identical inputs; the program under test only ever sees bytes.

use rsdc_core::prelude::{Cost, Instance};
use rsdc_engine::binwire::encode_request_line;
use rsdc_engine::wire::{admit_line, step_load_line};
use rsdc_engine::{FleetSpec, HeteroAlgo, PolicySpec, TenantConfig};
use rsdc_hetero::ServerType;

/// Shard count every engine is pinned to (the `rsdc serve` default on a
/// 2-core host, stated explicitly so a workload means the same anywhere).
pub const SHARDS: usize = 2;

/// Power-up cost of every scalar tenant. Equal to the default cost
/// model's beta, so a `load` is priced the same way everywhere.
pub const BETA: f64 = 6.0;

/// The read-only control record that ends every served slot: sessions
/// hold step replies until a control record arrives, so without it a
/// closed-loop client would wait forever for its replies.
pub const FLUSH_LINE: &str = r#"{"op":"limits"}"#;

/// The control read `durable-mixed` sends every [`STATS_EVERY`] slots.
pub const STATS_LINE: &str = r#"{"op":"stats"}"#;

/// The final read of every episode: one report per tenant.
pub const REPORT_LINE: &str = r#"{"op":"report"}"#;

/// `durable-mixed` appends a `stats` read to every this-many-th slot.
pub const STATS_EVERY: usize = 8;

/// Auto-checkpoint cadence of `durable-mixed`, in applied step events.
/// At 64 steps per slot this is one checkpoint per 1024 slots, so the
/// checkpointed slots stay well under a third of the slots beyond p99.
pub const CHECKPOINT_EVERY: u64 = 65_536;

/// Request framing of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// CRC-framed binary protocol over a socket.
    Binary,
    /// JSON lines over a socket.
    Jsonl,
    /// JSON lines handed to `Session::handle_lines` in-process.
    InProcess,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Served, binary, 64 tenants at m=1024: the policy step dominates.
    LargeM,
    /// Served, JSONL, 50 000 tenants at m=16: fixed per-batch costs dominate.
    WideFleet,
    /// In-process durable session over a `FileStore`: journaling dominates.
    DurableMixed,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "large-m" => Ok(Kind::LargeM),
            "wide-fleet" => Ok(Kind::WideFleet),
            "durable-mixed" => Ok(Kind::DurableMixed),
            other => Err(format!(
                "unknown workload {other:?} (large-m, wide-fleet, durable-mixed)"
            )),
        }
    }

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LargeM => "large-m",
            Kind::WideFleet => "wide-fleet",
            Kind::DurableMixed => "durable-mixed",
        }
    }
}

/// Sizes of one run of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Tenants admitted at set-up.
    pub tenants: usize,
    /// Fleet size of every tenant.
    pub m: u32,
    /// Step requests per slot.
    pub steps_per_slot: usize,
    /// Untimed slots sent after set-up, before the window.
    pub warmup_slots: usize,
    /// Timed slots per episode.
    pub timed_slots: usize,
    /// Fresh-process episodes per run (each sets up once).
    pub episodes: usize,
    /// Set-up-only episodes before each episode (served workloads only).
    pub extra_setups: usize,
    /// Timed slots per steal block (see `stats::kept_slots`): about 80 ms.
    pub block_slots: usize,
    /// Blocks the end-to-end metrics measure, per block position of a
    /// window: half of [`Spec::episodes`] (see `stats::kept_slots`).
    pub keep_per_block: usize,
    /// Request framing.
    pub framing: Framing,
}

impl Spec {
    /// Sizes for a run of `seconds` nominal seconds. The timed slot count
    /// is fixed by the workload and `seconds` alone — never by measured
    /// speed — so every run of one seed does exactly the same work.
    pub fn new(kind: Kind, seconds: u64, tiny: bool) -> Spec {
        let seconds = seconds.max(1) as usize;
        // (tenants, m, warm-up slots, nominal timed slots per second,
        // episodes, set-up-only episodes before each, slots per steal
        // block). At 12 s every run measures at least 2 000 slots, so a
        // p99 has twenty beyond it; a `durable-mixed` episode (1 152 timed
        // slots) crosses exactly one auto-checkpoint.
        let (tenants, m, warmup_slots, slots_per_s, episodes, extra_setups, block_slots, framing) =
            match kind {
                Kind::LargeM => (64, 1024, 40, 336, 4, 8, 32, Framing::Binary),
                Kind::WideFleet => (50_000, 16, 200, 1024, 4, 0, 128, Framing::Jsonl),
                Kind::DurableMixed => (1_000, 64, 40, 768, 8, 0, 64, Framing::InProcess),
            };
        if tiny {
            return Spec {
                kind,
                tenants: tenants.min(48),
                m: m.min(32),
                steps_per_slot: 16,
                warmup_slots: 4,
                timed_slots: 24,
                episodes: 1,
                extra_setups: extra_setups.min(1),
                block_slots: 4,
                keep_per_block: 1,
                framing,
            };
        }
        // Whole steal blocks only, so every kept block is as long.
        let timed_slots = (slots_per_s * seconds / episodes).next_multiple_of(block_slots);
        Spec {
            kind,
            tenants,
            m,
            steps_per_slot: 64,
            warmup_slots,
            timed_slots,
            episodes,
            extra_setups,
            block_slots,
            keep_per_block: episodes.div_ceil(2),
            framing,
        }
    }

    /// All slots a session sees: warm-up then timed.
    pub fn total_slots(&self) -> usize {
        self.warmup_slots + self.timed_slots
    }
}

/// A small deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Hash two words into one (a SplitMix64 step of their mix).
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// A tenant's policy family, as the per-layer split names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Lcp`.
    Lcp,
    /// `HalfStepRounded`.
    HalfStep,
    /// `hetero:frontier`.
    Hetero,
}

impl Family {
    /// Every family, in metric order.
    pub const ALL: [Family; 3] = [Family::Lcp, Family::HalfStep, Family::Hetero];

    /// Name of the span a standalone tenant step of this family records.
    pub fn span(self) -> &'static str {
        match self {
            Family::Lcp => "tenant.step.lcp",
            Family::HalfStep => "tenant.step.halfstep",
            Family::Hetero => "tenant.step.hetero",
        }
    }

    /// The family of a tenant config.
    pub fn of(cfg: &TenantConfig) -> Family {
        match cfg.policy {
            PolicySpec::Lcp => Family::Lcp,
            PolicySpec::Hetero { .. } => Family::Hetero,
            _ => Family::HalfStep,
        }
    }
}

/// The `durable-mixed` hetero fleet: two machine classes, 18 machines in
/// all (a 13 x 7 configuration lattice). `FrontierDp` is quadratic in the
/// lattice: at 40 + 24 machines one step costs ~5 ms, here ~50 us.
pub fn hetero_fleet() -> FleetSpec {
    FleetSpec::new(vec![
        ServerType {
            count: 12,
            beta: 4.0,
            energy: 1.0,
            capacity: 1.0,
        },
        ServerType {
            count: 6,
            beta: 10.0,
            energy: 1.6,
            capacity: 2.0,
        },
    ])
}

/// The config of tenant `index` of a workload.
pub fn tenant_config(kind: Kind, m: u32, seed: u64, index: usize) -> TenantConfig {
    let policy_seed = mix(seed, index as u64 ^ 0x5EED);
    let (prefix, family) = match kind {
        Kind::LargeM => (
            "L",
            if index.is_multiple_of(2) {
                Family::Lcp
            } else {
                Family::HalfStep
            },
        ),
        Kind::WideFleet => ("w", Family::Lcp),
        Kind::DurableMixed => (
            "d",
            if index % 8 == 7 {
                Family::Hetero
            } else if index.is_multiple_of(2) {
                Family::Lcp
            } else {
                Family::HalfStep
            },
        ),
    };
    let id = format!("{prefix}{index:05}");
    let cfg = match family {
        Family::Lcp => TenantConfig::new(id, m, BETA, PolicySpec::Lcp),
        Family::HalfStep => TenantConfig::new(
            id,
            m,
            BETA,
            PolicySpec::HalfStepRounded { seed: policy_seed },
        ),
        Family::Hetero => TenantConfig::hetero(id, hetero_fleet(), HeteroAlgo::Frontier),
    };
    cfg.with_opt_tracking()
}

/// Offered load of tenant `tenant`'s `k`-th step: a per-tenant diurnal
/// curve (48-slot period, seeded phase) with seeded multiplicative noise,
/// quantized to sixteenths so its decimal rendering is exact and every
/// parser reads back the same `f64`.
pub fn load(seed: u64, tenant: usize, k: usize, m: u32) -> f64 {
    let cap = m as f64;
    let (base, peak) = (0.1 * cap, 0.7 * cap);
    let (mid, amp) = ((peak + base) / 2.0, (peak - base) / 2.0);
    let t_seed = mix(seed, tenant as u64);
    let phase = (t_seed % 48) as f64;
    let angle = 2.0 * std::f64::consts::PI * (k as f64 + phase) / 48.0;
    let noise = Rng::new(mix(t_seed, k as u64)).unit() * 2.0 - 1.0;
    let v = (mid - amp * angle.cos()) * (1.0 + 0.1 * noise);
    ((v * 16.0).round() / 16.0).max(0.0)
}

/// One step request: tenant index and offered load.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Index into [`Inputs::configs`].
    pub tenant: u32,
    /// Offered load.
    pub load: f64,
}

/// Everything a run sends, generated up front.
pub struct Inputs {
    /// Run sizes.
    pub spec: Spec,
    /// The generating seed.
    pub seed: u64,
    /// Tenant configs, by index.
    pub configs: Vec<TenantConfig>,
    /// Set-up bytes: one admit record per tenant (no binary preamble).
    pub admit_bytes: Vec<u8>,
    /// Request bytes of all slots, back to back.
    pub bytes: Vec<u8>,
    /// `bytes[slot_off[s]..slot_off[s + 1]]` is slot `s`.
    pub slot_off: Vec<usize>,
    /// Step requests of all slots, back to back.
    pub steps: Vec<Step>,
    /// `steps[step_off[s]..step_off[s + 1]]` are slot `s`'s steps.
    pub step_off: Vec<usize>,
    /// Control records per slot (their replies are not step replies).
    pub controls: Vec<u8>,
}

impl Inputs {
    /// Generate a run's inputs from `seed`.
    pub fn generate(spec: Spec, seed: u64) -> Inputs {
        let configs: Vec<TenantConfig> = (0..spec.tenants)
            .map(|i| tenant_config(spec.kind, spec.m, seed, i))
            .collect();
        let mut admit_bytes = Vec::new();
        let mut payload = Vec::new();
        for cfg in &configs {
            push_record(
                spec.framing,
                &admit_line(cfg),
                &mut payload,
                &mut admit_bytes,
            );
        }

        let chooser = Chooser::new(&spec, seed);
        let mut rng = Rng::new(mix(seed, 0xC0FFEE));
        let mut per_tenant = vec![0usize; spec.tenants];
        let total = spec.total_slots();
        let mut inputs = Inputs {
            spec,
            seed,
            configs,
            admit_bytes,
            bytes: Vec::new(),
            slot_off: vec![0],
            steps: Vec::new(),
            step_off: vec![0],
            controls: Vec::with_capacity(total),
        };
        let spec = &inputs.spec;
        for slot in 0..total {
            for j in 0..spec.steps_per_slot {
                let tenant = chooser.pick(slot, j, &mut rng);
                let k = per_tenant[tenant];
                per_tenant[tenant] += 1;
                let load = load(seed, tenant, k, spec.m);
                inputs.steps.push(Step {
                    tenant: tenant as u32,
                    load,
                });
                let line = step_load_line(&inputs.configs[tenant].id, load);
                push_record(spec.framing, &line, &mut payload, &mut inputs.bytes);
            }
            let mut controls = 0;
            match spec.framing {
                Framing::Binary | Framing::Jsonl => {
                    push_record(spec.framing, FLUSH_LINE, &mut payload, &mut inputs.bytes);
                    controls += 1;
                }
                Framing::InProcess => {
                    if slot % STATS_EVERY == STATS_EVERY - 1 {
                        push_record(spec.framing, STATS_LINE, &mut payload, &mut inputs.bytes);
                        controls += 1;
                    }
                }
            }
            inputs.controls.push(controls);
            inputs.slot_off.push(inputs.bytes.len());
            inputs.step_off.push(inputs.steps.len());
        }
        inputs
    }

    /// Number of slots (warm-up plus timed).
    pub fn slots(&self) -> usize {
        self.slot_off.len() - 1
    }

    /// Request bytes of slot `s`.
    pub fn slot_bytes(&self, s: usize) -> &[u8] {
        &self.bytes[self.slot_off[s]..self.slot_off[s + 1]]
    }

    /// Step requests of slot `s`.
    pub fn slot_steps(&self, s: usize) -> &[Step] {
        &self.steps[self.step_off[s]..self.step_off[s + 1]]
    }

    /// Slot `s` as JSONL lines (in-process framing only).
    pub fn slot_lines(&self, s: usize) -> Vec<&str> {
        std::str::from_utf8(self.slot_bytes(s))
            .expect("generated JSONL is UTF-8")
            .lines()
            .collect()
    }

    /// Slot `s` as JSONL lines when `in_process`, else no lines (a socket
    /// framing feeds the raw bytes instead).
    pub fn slot_lines_if(&self, in_process: bool, s: usize) -> Vec<&str> {
        if in_process {
            self.slot_lines(s)
        } else {
            Vec::new()
        }
    }

    /// Set-up records as JSONL lines (in-process framing only).
    pub fn admit_lines(&self) -> Vec<&str> {
        std::str::from_utf8(&self.admit_bytes)
            .expect("generated JSONL is UTF-8")
            .lines()
            .collect()
    }

    /// The slot cost a session prices `step` into for a scalar tenant.
    pub fn priced(&self, step: Step) -> Cost {
        let model = self.configs[step.tenant as usize].load_cost_model();
        Cost::Server {
            lambda: step.load,
            params: model.server,
            overload: model.overload,
        }
    }

    /// Every load tenant `t` received over the first `slots` slots, in
    /// order.
    pub fn history(&self, t: usize, slots: usize) -> Vec<f64> {
        self.steps[..self.step_off[slots]]
            .iter()
            .filter(|s| s.tenant as usize == t)
            .map(|s| s.load)
            .collect()
    }

    /// The offline instance of scalar tenant `t` over the first `slots`
    /// slots (what its prefix optimum is defined over).
    pub fn instance(&self, t: usize, slots: usize) -> Instance {
        let cfg = &self.configs[t];
        let model = cfg.load_cost_model();
        let costs = self
            .history(t, slots)
            .into_iter()
            .map(|lambda| Cost::Server {
                lambda,
                params: model.server,
                overload: model.overload,
            })
            .collect();
        Instance::new(cfg.m, cfg.beta, costs).expect("valid tenant instance")
    }
}

/// Append one request record in the given framing.
pub fn push_record(framing: Framing, line: &str, payload: &mut Vec<u8>, out: &mut Vec<u8>) {
    match framing {
        Framing::Binary => encode_request_line(line, payload, out),
        Framing::Jsonl | Framing::InProcess => {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
    }
}

/// Which tenant each step of a slot goes to.
enum Chooser {
    /// Every tenant once per slot, in index order.
    AllOnce,
    /// Zipf(1.0)-skewed choice over a seeded permutation of the tenants
    /// (so the hot tenants are scattered over the key space and shards).
    Zipf { cdf: Vec<f64>, perm: Vec<u32> },
    /// Round robin over a seeded permutation.
    RoundRobin { perm: Vec<u32>, per_slot: usize },
}

impl Chooser {
    fn new(spec: &Spec, seed: u64) -> Chooser {
        let tenants = spec.tenants;
        let mut perm: Vec<u32> = (0..tenants as u32).collect();
        let mut rng = Rng::new(mix(seed, 0xBEEF));
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        match spec.kind {
            Kind::LargeM => Chooser::AllOnce,
            Kind::WideFleet => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (1..=tenants)
                    .map(|r| {
                        acc += 1.0 / r as f64;
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                Chooser::Zipf { cdf, perm }
            }
            Kind::DurableMixed => Chooser::RoundRobin {
                perm,
                per_slot: spec.steps_per_slot,
            },
        }
    }

    fn pick(&self, slot: usize, j: usize, rng: &mut Rng) -> usize {
        match self {
            Chooser::AllOnce => j,
            Chooser::Zipf { cdf, perm } => {
                let u = rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                perm[rank] as usize
            }
            Chooser::RoundRobin { perm, per_slot } => {
                perm[(slot * per_slot + j) % perm.len()] as usize
            }
        }
    }
}
