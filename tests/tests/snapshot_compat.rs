//! Tenant snapshots written by earlier engines still restore.
//!
//! `fixtures/two_dp_tenant_snapshots.jsonl` holds the `snapshot` replies of
//! an LCP and a HalfStep tenant, both with `track_opt`, taken by
//! `rsdc engine --events` over [`prefix_records`] before the tracker
//! collapsed to one DP. Those snapshots carry a `c_up` vector in every
//! tracker and, for the LCP tenant, a duplicate prefix-OPT tracker. Restored
//! into the current engine, they must answer the rest of the stream with
//! replies byte-identical to tenants that never snapshotted.
//!
//! `fixtures/scalar_policy_snapshots.jsonl` holds the `snapshot` replies of
//! one tenant per scalar policy, taken by `rsdc engine --events` over
//! [`scalar_prefix`] while each policy still ran inside its own streaming
//! wrapper struct. The engine must write those bytes after the same prefix,
//! except that the lookahead tenant's policy payload no longer carries
//! `buffered`, a copy of its pending costs; and each restored tenant must
//! continue byte-identically. Its `halfstep` and `memoryless` lines were
//! re-captured when the fractional policies' minimizer search became an
//! integer bisection; the lines the ternary search wrote are in
//! `fixtures/ternary_search_snapshots.jsonl`, and they still restore.
//!
//! A HalfStep or memoryless tenant restored from a snapshot the ternary
//! search wrote holds a fractional state that the current engine does not
//! reach over the same prefix. Its reference is therefore the
//! uninterrupted run with that tenant restored to its fixture's own
//! policy state and the run's own OPT tracker, which depends only on the
//! costs ([`continue_from_fixture_states`]). Every other tenant is compared
//! with the uninterrupted run itself.

use rsdc_engine::wire::Session;
use rsdc_engine::{Engine, EngineConfig};
use serde_json::json;

const FIXTURE: &str = include_str!("../fixtures/two_dp_tenant_snapshots.jsonl");
const SCALAR_FIXTURE: &str = include_str!("../fixtures/scalar_policy_snapshots.jsonl");
const TERNARY_FIXTURE: &str = include_str!("../fixtures/ternary_search_snapshots.jsonl");

const TENANTS: [&str; 2] = ["lcp", "half"];

fn line(record: serde::Value) -> String {
    serde_json::to_string(&record).expect("JSON values render")
}

fn step_load(id: &str, load: f64) -> String {
    line(json!({"op": "step", "id": id, "load": load}))
}

/// The admits and steps the fixture was captured after.
fn prefix_records() -> Vec<String> {
    let mut lines = vec![
        line(
            json!({"op": "admit", "id": "lcp", "m": 16, "beta": 3.5, "policy": "Lcp",
               "track_opt": true}),
        ),
        line(json!({"op": "admit", "id": "half", "m": 16, "beta": 3.5,
               "policy": {"HalfStepRounded": {"seed": 7}}, "track_opt": true})),
    ];
    let loads = [
        2.0, 5.5, 9.25, 12.0, 7.5, 3.0, 1.0, 0.5, 4.75, 11.5, 14.0, 6.25,
    ];
    for (i, &load) in loads.iter().enumerate() {
        lines.extend(TENANTS.map(|id| step_load(id, load)));
        if i == 5 {
            lines.extend(TENANTS.map(|id| {
                line(json!({"op": "step", "id": id,
                       "cost": {"Abs": {"slope": 2.0, "center": 9.0}}}))
            }));
        }
    }
    lines
}

/// The rest of the stream: more steps, then both reports.
fn suffix_records() -> Vec<String> {
    let mut lines = Vec::new();
    for load in [8.0, 15.5, 13.25, 2.5, 0.0, 10.0, 16.0, 4.0, 9.5, 6.75] {
        lines.extend(TENANTS.map(|id| step_load(id, load)));
    }
    lines.extend(TENANTS.map(|id| line(json!({"op": "report", "id": id}))));
    lines
}

fn run(lines: &[String]) -> Vec<String> {
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    session.handle_lines(lines.iter().map(String::as_str))
}

/// The `restore` line of a fixture's `snapshot` reply.
fn restore_line(reply: &serde::Value) -> String {
    line(
        json!({"op": "restore", "snapshot": reply["snapshot"].clone(),
       "cost_model": reply["cost_model"].clone()}),
    )
}

/// An uninterrupted run of `prefix`, then each of the fixture's
/// `fractional` tenants restored to its fixture policy state and
/// accounting with the run's own OPT tracker, then `suffix`: the
/// replies to `suffix`.
fn continue_from_fixture_states(
    prefix: &[String],
    fixture: &[serde::Value],
    fractional: &[&str],
    suffix: &[String],
) -> Vec<String> {
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    session.handle_lines(prefix.iter().map(String::as_str));
    for &id in fractional {
        let reply = fixture
            .iter()
            .find(|reply| reply["id"] == id)
            .unwrap_or_else(|| panic!("no fixture line for {id}"));
        let snapshot = line(json!({"op": "snapshot", "id": id}));
        let fresh: serde::Value =
            serde_json::from_str(&session.handle_lines([snapshot.as_str()])[0]).unwrap();
        let mut reply = reply.clone();
        *field(field(&mut reply, "snapshot"), "opt") = fresh["snapshot"]["opt"].clone();
        let ack = session.handle_lines([restore_line(&reply).as_str()]);
        assert!(ack[0].contains("\"restored\""), "{id}: {ack:?}");
    }
    session.handle_lines(suffix.iter().map(String::as_str))
}

fn fixture_snapshots() -> Vec<serde::Value> {
    parse_fixture(FIXTURE)
}

fn parse_fixture(text: &str) -> Vec<serde::Value> {
    text.lines()
        .map(|l| serde_json::from_str(l).expect("fixture line is JSON"))
        .collect()
}

#[test]
fn two_dp_snapshots_restore_and_continue_byte_identically() {
    let fixture = fixture_snapshots();
    for (reply, id) in fixture.iter().zip(TENANTS) {
        assert_eq!(reply["id"], id);
        let opt = &reply["snapshot"]["opt"];
        assert!(
            opt["c_up"].as_array().is_some(),
            "{id}: fixture is pre-change"
        );
    }

    let want =
        continue_from_fixture_states(&prefix_records(), &fixture, &["half"], &suffix_records());

    let mut restored: Vec<String> = fixture.iter().map(restore_line).collect();
    restored.extend(suffix_records());
    let got = run(&restored);
    assert!(
        got[..TENANTS.len()]
            .iter()
            .all(|l| l.contains("\"restored\"")),
        "{:?}",
        &got[..TENANTS.len()]
    );
    assert_eq!(&got[TENANTS.len()..], want);
    assert!(
        want.last().unwrap().contains("\"ratio\":"),
        "reports carry the ratio"
    );
}

#[test]
fn snapshots_share_the_lcp_tracker_and_drop_c_up() {
    let mut lines = prefix_records();
    lines.extend(TENANTS.map(|id| line(json!({"op": "snapshot", "id": id}))));
    let out = run(&lines);
    let fresh: Vec<serde::Value> = out[out.len() - TENANTS.len()..]
        .iter()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let (lcp, half) = (&fresh[0]["snapshot"], &fresh[1]["snapshot"]);
    assert!(
        lcp["opt"].is_null(),
        "LCP reads its optimum from its policy"
    );
    assert!(lcp["policy"]["tracker"]["c_up"].is_null());
    assert!(half["opt"]["c_up"].is_null());

    // The one-DP tracker's value function is the two-DP tracker's, bit for
    // bit.
    let fixture = fixture_snapshots();
    assert_eq!(
        lcp["policy"]["tracker"]["c_low"],
        fixture[0]["snapshot"]["policy"]["tracker"]["c_low"]
    );
    assert_eq!(half["opt"]["c_low"], fixture[1]["snapshot"]["opt"]["c_low"]);
}

/// (tenant id, policy) for every scalar policy family.
const SCALAR_TENANTS: [(&str, &str); 7] = [
    ("lcp", "lcp"),
    ("halfstep", "halfstep:7"),
    ("flcp", "flcp:3,5"),
    ("memoryless", "memoryless:11"),
    ("lookahead", "lookahead:2"),
    ("followmin", "followmin"),
    ("hysteresis", "hysteresis:1"),
];

/// The scalar tenants whose policy searches for the minimizer of each
/// slot cost: HalfStep and memoryless balance.
const FRACTIONAL_TENANTS: [&str; 2] = ["halfstep", "memoryless"];

/// The admits and steps the scalar fixture was captured after: twelve
/// load steps and one explicit cost, so the lookahead tenant holds two
/// pending slots.
fn scalar_prefix() -> Vec<String> {
    let mut lines: Vec<String> = SCALAR_TENANTS
        .iter()
        .map(|(id, policy)| {
            line(
                json!({"op": "admit", "id": id, "m": 16, "beta": 3.5, "policy": policy,
                   "track_opt": true}),
            )
        })
        .collect();
    let loads = [
        2.0, 5.5, 9.25, 11.0, 7.5, 3.0, 1.0, 0.5, 4.75, 10.5, 12.0, 6.25,
    ];
    for (i, &load) in loads.iter().enumerate() {
        lines.extend(SCALAR_TENANTS.map(|(id, _)| step_load(id, load)));
        if i == 5 {
            lines.extend(SCALAR_TENANTS.map(|(id, _)| {
                line(json!({"op": "step", "id": id,
                       "cost": {"Abs": {"slope": 2.0, "center": 8.0}}}))
            }));
        }
    }
    lines
}

/// The rest of the scalar stream: more steps, a finish, then the reports.
fn scalar_suffix() -> Vec<String> {
    let mut lines = Vec::new();
    for load in [8.0, 15.5, 13.25, 2.5, 0.0, 10.0, 16.0, 4.0] {
        lines.extend(SCALAR_TENANTS.map(|(id, _)| step_load(id, load)));
    }
    lines.extend(SCALAR_TENANTS.map(|(id, _)| line(json!({"op": "finish", "id": id}))));
    lines.extend(SCALAR_TENANTS.map(|(id, _)| line(json!({"op": "report", "id": id}))));
    lines
}

/// The entries of the object `v`.
fn entries(v: &mut serde::Value) -> &mut Vec<(String, serde::Value)> {
    match v {
        serde::Value::Object(entries) => entries,
        other => panic!("not an object: {other:?}"),
    }
}

/// The field `key` of the object `v`.
fn field<'a>(v: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
    let found = entries(v).iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no field {key}")).1
}

/// The fixture's lookahead line without its policy's `buffered` field, the
/// second copy of the pending costs that lookahead snapshots no longer
/// write. Re-rendering the parsed line must give back its exact bytes, so
/// the derived line differs from it in that field alone.
fn without_buffered(fixture_line: &str) -> String {
    let mut reply: serde::Value = serde_json::from_str(fixture_line).expect("JSON line");
    assert_eq!(
        line(reply.clone()),
        fixture_line,
        "the line re-renders exactly"
    );
    let policy = entries(field(field(&mut reply, "snapshot"), "policy"));
    let before = policy.len();
    policy.retain(|(key, _)| key != "buffered");
    assert_eq!(policy.len(), before - 1, "the fixture carries buffered");
    line(reply)
}

#[test]
fn scalar_policy_snapshots_keep_their_bytes() {
    let mut lines = scalar_prefix();
    lines.extend(SCALAR_TENANTS.map(|(id, _)| line(json!({"op": "snapshot", "id": id}))));
    let out = run(&lines);
    let fresh = &out[out.len() - SCALAR_TENANTS.len()..];
    let fixture: Vec<&str> = SCALAR_FIXTURE.lines().collect();
    assert_eq!(fixture.len(), SCALAR_TENANTS.len());
    for ((got, want), (id, _)) in fresh.iter().zip(&fixture).zip(SCALAR_TENANTS) {
        if id == "lookahead" {
            // The pending slots are the window: the policy payload drops
            // its copy of them and nothing else.
            assert_eq!(got, &without_buffered(want), "{id}: snapshot bytes changed");
        } else {
            assert_eq!(got, want, "{id}: snapshot bytes changed");
        }
    }
}

#[test]
fn scalar_policy_snapshots_restore_and_continue_byte_identically() {
    // The fixture as captured: the fractional tenants' lines are the
    // ones the ternary search wrote.
    let mut fixture = parse_fixture(SCALAR_FIXTURE);
    for reply in parse_fixture(TERNARY_FIXTURE) {
        let at = SCALAR_TENANTS.iter().position(|(id, _)| reply["id"] == *id);
        fixture[at.expect("a scalar tenant")] = reply;
    }
    let lookahead = &fixture[4]["snapshot"];
    assert_eq!(lookahead["pending"].as_array().map(Vec::len), Some(2));

    let want = continue_from_fixture_states(
        &scalar_prefix(),
        &fixture,
        &FRACTIONAL_TENANTS,
        &scalar_suffix(),
    );

    let mut restored: Vec<String> = fixture
        .iter()
        .zip(SCALAR_TENANTS)
        .map(|(reply, (id, _))| {
            assert_eq!(reply["id"], id);
            restore_line(reply)
        })
        .collect();
    restored.extend(scalar_suffix());
    let got = run(&restored);
    let (acks, got) = got.split_at(SCALAR_TENANTS.len());
    assert!(acks.iter().all(|l| l.contains("\"restored\"")), "{acks:?}");
    assert_eq!(got, want);
    assert!(want.iter().any(|l| l.contains("LCP(lookahead,w=2)")));
}

#[test]
fn ternary_search_snapshots_restore_to_their_bytes() {
    let fixture: Vec<&str> = TERNARY_FIXTURE.lines().collect();
    assert_eq!(fixture.len(), FRACTIONAL_TENANTS.len());
    let mut lines = Vec::new();
    for (text, id) in fixture.iter().zip(FRACTIONAL_TENANTS) {
        let reply: serde::Value = serde_json::from_str(text).expect("JSON line");
        assert_eq!(reply["id"], id);
        // Restored without a `cost_model`, the tenant's config keeps the
        // snapshot's `null` one, as the captured tenant had.
        lines.push(line(
            json!({"op": "restore", "snapshot": reply["snapshot"].clone()}),
        ));
        lines.push(line(json!({"op": "snapshot", "id": id})));
    }
    let out = run(&lines);
    for (pair, want) in out.chunks(2).zip(&fixture) {
        assert!(pair[0].contains("\"restored\""), "{pair:?}");
        assert_eq!(&pair[1], want);
    }
    // The memoryless line is one the integer search no longer writes: its
    // fractional state sits ulps below the minimizer 12.
    assert!(fixture[1].contains("\"fractional\":11.999999999999993"));
}
