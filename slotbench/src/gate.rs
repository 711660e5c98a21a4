//! The correctness gate, run after every timed window.
//!
//! * exactly one `stepped` reply per step, at that step's own sequence
//!   number (binary replies carry it; JSONL replies are matched by
//!   position and tenant id);
//! * every committed state is in `[0, m]`;
//! * every tenant ingested exactly the steps sent to it;
//! * the engine's prefix OPT agrees with
//!   `rsdc_offline::dp::solve_cost_only` on a fixed sample of tenants;
//! * every LCP tenant's online/OPT ratio is at most 3 (Theorem 2), and no
//!   tenant beats its own offline optimum.
//!
//! Every violation counts as a failure; any failure fails the command.

use crate::workload::{Family, Framing, Inputs};
use rsdc_engine::binwire::{BodyReader, Frame, FrameDecoder, TAG_RESP_LINE, TAG_RESP_STEPPED};

/// Relative tolerance of the OPT cross-check.
const OPT_TOL: f64 = 1e-9;

/// Tenants whose OPT is recomputed offline, per episode.
const OPT_SAMPLE: usize = 8;

/// Requests checked and failures found.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests (and end-of-run checks) the gate looked at.
    pub attempted: u64,
    /// Requests with a wrong or missing reply, plus violated checks.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: impl FnOnce() -> String) {
        self.fail_n(1, note);
    }

    fn fail_n(&mut self, n: u64, note: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in &other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n.clone());
            }
        }
    }
}

/// A parsed `stepped` reply: tenant id and committed states.
pub fn parse_stepped(line: &str) -> Option<(&str, Vec<u32>)> {
    let rest = line.strip_prefix(r#"{"op":"stepped","id":""#)?;
    let (id, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(r#","states":["#)?;
    let (states, tail) = rest.split_once(']')?;
    if !(tail == "}" || tail.starts_with(r#","configs":"#)) {
        return None;
    }
    let states = if states.is_empty() {
        Vec::new()
    } else {
        states
            .split(',')
            .map(|x| x.parse().ok())
            .collect::<Option<Vec<u32>>>()?
    };
    Some((id, states))
}

/// One decoded reply, framing-independent.
enum Reply {
    Stepped {
        seq: Option<u64>,
        id: String,
        states: Vec<u32>,
    },
    Other(String),
}

impl Reply {
    fn from_line(line: &str) -> Reply {
        match parse_stepped(line) {
            Some((id, states)) => Reply::Stepped {
                seq: None,
                id: id.to_string(),
                states,
            },
            None => Reply::Other(line.to_string()),
        }
    }
}

/// Split a reply byte range into replies.
fn replies(framing: Framing, bytes: &[u8]) -> Result<Vec<Reply>, String> {
    if framing != Framing::Binary {
        let text = std::str::from_utf8(bytes).map_err(|_| "reply is not UTF-8")?;
        return Ok(text.lines().map(Reply::from_line).collect());
    }
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    let mut out = Vec::new();
    while let Some(Frame { tag, body }) = dec.next_frame().map_err(|e| e.to_string())? {
        out.push(match tag {
            TAG_RESP_STEPPED => stepped_frame(body).ok_or("bad stepped frame")?,
            TAG_RESP_LINE => Reply::Other(String::from_utf8_lossy(body).into_owned()),
            tag => Reply::Other(format!("frame tag {tag:#04x}")),
        });
    }
    dec.finish().map_err(|e| e.to_string())?;
    Ok(out)
}

fn stepped_frame(body: &[u8]) -> Option<Reply> {
    let mut r = BodyReader::new(body);
    let seq = r.u64()?;
    let id = r.str16()?.to_string();
    let n = r.u16()?;
    let states = (0..n).map(|_| r.u32()).collect::<Option<Vec<u32>>>()?;
    Some(Reply::Stepped {
        seq: Some(seq),
        id,
        states,
    })
}

/// Reply lines of a byte range (binary frames re-rendered as text where
/// they carry a line).
pub fn reply_lines(framing: Framing, bytes: &[u8]) -> Result<Vec<String>, String> {
    Ok(replies(framing, bytes)?
        .into_iter()
        .map(|r| match r {
            Reply::Stepped { id, .. } => format!("stepped {id}"),
            Reply::Other(line) => line,
        })
        .collect())
}

/// Every set-up reply must be an `admitted`.
pub fn check_admits(framing: Framing, bytes: &[u8], tally: &mut Tally) {
    let lines = reply_lines(framing, bytes).unwrap_or_default();
    for line in &lines {
        tally.attempted += 1;
        if !line.starts_with(r#"{"op":"admitted""#) {
            tally.fail(|| format!("admit reply {line:?}"));
        }
    }
}

/// Check slot `s`'s step replies: one `stepped` per step, in order, at the
/// step's own sequence number (`first_seq + j + 1` for step `j`, when the
/// framing carries it), for the right tenant, with one state in `[0, m]`.
/// Control replies (flush, `stats`, unsolicited `checkpointed`) are
/// skipped; anything else is a failure.
fn check_slot(inputs: &Inputs, s: usize, first_seq: usize, got: Vec<Reply>, tally: &mut Tally) {
    let steps = inputs.slot_steps(s);
    let mut stepped = 0;
    for reply in got {
        match reply {
            Reply::Stepped { seq, id, states } => {
                let j = stepped;
                stepped += 1;
                let Some(step) = steps.get(j) else {
                    tally.fail(|| format!("slot {s}: extra stepped reply for {id}"));
                    continue;
                };
                let cfg = &inputs.configs[step.tenant as usize];
                let want_seq = (first_seq + j + 1) as u64;
                if seq.is_some_and(|q| q != want_seq)
                    || id != cfg.id
                    || states.len() != 1
                    || states[0] > cfg.m
                {
                    tally.fail(|| {
                        format!(
                            "slot {s} step {j}: got seq {seq:?} id {id} states {states:?}, \
                             want seq {want_seq} id {} one state <= {}",
                            cfg.id, cfg.m
                        )
                    });
                }
            }
            Reply::Other(line) => {
                let control = [
                    r#"{"op":"limits""#,
                    r#"{"op":"stats""#,
                    r#"{"op":"checkpointed""#,
                ];
                if !control.iter().any(|c| line.starts_with(c)) {
                    tally.fail(|| format!("slot {s}: unexpected reply {line:.200}"));
                }
            }
        }
    }
    tally.attempted += steps.len() as u64;
    if stepped < steps.len() {
        let missing = steps.len() - stepped;
        tally.fail_n(missing as u64, || {
            format!("slot {s}: {missing} stepped replies missing")
        });
    }
}

/// Gate one served slot's reply bytes.
pub fn check_served_slot(
    inputs: &Inputs,
    s: usize,
    first_seq: usize,
    bytes: &[u8],
    tally: &mut Tally,
) {
    match replies(inputs.spec.framing, bytes) {
        Ok(got) => {
            let controls = got.iter().filter(|r| matches!(r, Reply::Other(_))).count();
            if controls != inputs.controls[s] as usize {
                tally.fail(|| format!("slot {s}: {controls} control replies"));
            }
            check_slot(inputs, s, first_seq, got, tally)
        }
        Err(e) => {
            let n = inputs.slot_steps(s).len() as u64;
            tally.attempted += n;
            tally.fail_n(n, || format!("slot {s}: undecodable replies: {e}"));
        }
    }
}

/// Gate one in-process slot's reply lines.
pub fn check_line_slot(inputs: &Inputs, s: usize, lines: &[String], tally: &mut Tally) {
    let got = lines.iter().map(|l| Reply::from_line(l)).collect();
    check_slot(inputs, s, 0, got, tally)
}

/// Sums over the scalar tenants of one final report.
#[derive(Debug, Default, Clone, Copy)]
pub struct CostSums {
    /// Σ online cost (operating + switching).
    pub online: f64,
    /// Σ prefix OPT.
    pub opt: f64,
}

/// Gate the final `report` lines (one per tenant) after `slots` slots and
/// return the scalar cost sums behind `cost_ratio`.
pub fn check_reports(
    inputs: &Inputs,
    slots: usize,
    lines: &[String],
    tally: &mut Tally,
) -> CostSums {
    let mut sums = CostSums::default();
    let mut seen = vec![false; inputs.configs.len()];
    let mut events = vec![0u64; inputs.configs.len()];
    for step in &inputs.steps[..inputs.step_off[slots]] {
        events[step.tenant as usize] += 1;
    }
    let mut opts: Vec<(usize, f64)> = Vec::new();
    for line in lines {
        tally.attempted += 1;
        let parsed = serde_json::from_str::<serde::Value>(line)
            .ok()
            .and_then(|v| v.get("report").cloned());
        let Some(r) = parsed else {
            tally.fail(|| format!("bad report line {line:.200}"));
            continue;
        };
        let id = r.get("id").and_then(|x| x.as_str()).unwrap_or("");
        let index = id.get(1..).and_then(|d| d.parse::<usize>().ok());
        let Some(t) =
            index.filter(|&t| inputs.configs.get(t).is_some_and(|c| c.id == id) && !seen[t])
        else {
            tally.fail(|| format!("report for unknown or repeated tenant {id:?}"));
            continue;
        };
        seen[t] = true;
        let cfg = &inputs.configs[t];
        let num = |v: &serde::Value, k: &str| v.get(k).and_then(|x| x.as_f64());
        let got_events = r.get("events").and_then(|x| x.as_u64()).unwrap_or(u64::MAX);
        let last = r
            .get("last_state")
            .and_then(|x| x.as_u64())
            .unwrap_or(u64::MAX);
        let online = r
            .get("breakdown")
            .and_then(|b| Some(num(b, "operating")? + num(b, "switching")?));
        let opt = num(&r, "opt_cost");
        if got_events != events[t] || last > cfg.m as u64 {
            tally.fail(|| {
                format!(
                    "{id}: {got_events} events (sent {}), last state {last}",
                    events[t]
                )
            });
            continue;
        }
        if events[t] == 0 {
            continue;
        }
        let (Some(online), Some(opt)) = (online, opt) else {
            tally.fail(|| format!("{id}: report lacks cost or opt_cost"));
            continue;
        };
        if online < opt * (1.0 - OPT_TOL) {
            tally.fail(|| format!("{id}: online {online} below its offline optimum {opt}"));
        }
        match Family::of(cfg) {
            Family::Hetero => continue,
            Family::Lcp if online > 3.0 * opt * (1.0 + OPT_TOL) => {
                tally.fail(|| format!("{id}: LCP ratio {} exceeds 3", online / opt));
            }
            _ => {}
        }
        sums.online += online;
        sums.opt += opt;
        opts.push((t, opt));
    }
    if let Some(t) = seen.iter().position(|&s| !s) {
        tally.fail(|| format!("no report for tenant {}", inputs.configs[t].id));
    }
    // Fixed OPT sample: the most-stepped scalar tenants, ties by index.
    opts.sort_by_key(|&(t, _)| (std::cmp::Reverse(events[t]), t));
    for &(t, opt) in opts.iter().take(OPT_SAMPLE) {
        tally.attempted += 1;
        let offline = rsdc_offline::dp::solve_cost_only(&inputs.instance(t, slots));
        if (offline - opt).abs() > OPT_TOL * offline.abs().max(1.0) {
            let id = &inputs.configs[t].id;
            tally.fail(|| format!("{id}: engine opt_cost {opt} vs offline DP {offline}"));
        }
    }
    sums
}
