//! The streaming writer and the tree printer are one format.
//!
//! `json::to_string`/`to_string_pretty` stream through
//! `ToJson::write_json`; `to_value(..).to_string()`/`.pretty()` build the
//! `JsonValue` tree first. Every report must come out byte-identical
//! both ways, and every generated tree must parse back to itself.

use rce::core::REGISTRY;
use rce::prelude::*;
use rce_common::check::{check_n, Unshrunk};
use rce_common::json::{self, JsonValue};
use rce_common::{prop_assert_eq, ObsConfig, Rng, SplitMix64};

fn assert_stream_matches_tree(what: &str, r: &SimReport) {
    let tree = json::to_value(r);
    assert!(
        json::to_string(r) == tree.to_string(),
        "{what}: compact output differs"
    );
    assert!(
        json::to_string_pretty(r) == tree.pretty(),
        "{what}: pretty output differs"
    );
}

#[test]
fn streamed_reports_match_the_tree() {
    for w in [WorkloadSpec::Canneal, WorkloadSpec::RacyPair] {
        let program = w.build(4, 1, 42);
        for v in &REGISTRY {
            let what = format!("{w}/{}", v.cli_name);
            // Timeline, tracer and forensics all on: the omitted-when-None
            // fields are present, and `NocStats`/`SimEvent` take the tree
            // fallback inside an otherwise streamed report.
            let mut r = Machine::new(&v.config(4))
                .unwrap()
                .with_observability(ObsConfig::full(500))
                .run(&program)
                .unwrap();
            assert!(r.timeline.is_some() && r.trace.is_some() && r.forensics.is_some());
            assert!(
                !r.trace.as_ref().unwrap().events.is_empty(),
                "{what}: no events"
            );
            assert_stream_matches_tree(&what, &r);
            // And with them absent, both sides omit them.
            r.timeline = None;
            r.trace = None;
            r.forensics = None;
            assert_stream_matches_tree(&what, &r);
        }
    }
}

fn gen_string(rng: &mut SplitMix64) -> String {
    const POOL: [char; 14] = [
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
    ];
    (0..rng.gen_range(6))
        .map(|_| POOL[rng.gen_range(POOL.len() as u64) as usize])
        .collect()
}

fn gen_value(rng: &mut SplitMix64, depth: u32) -> JsonValue {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.gen_range(kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen_bool(0.5)),
        2 => JsonValue::Int(match rng.gen_range(3) {
            0 => i64::MIN,
            1 => -1,
            _ => rng.next_u64() as i64,
        }),
        3 => JsonValue::UInt(match rng.gen_range(3) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.next_u64(),
        }),
        4 => JsonValue::Float(match rng.gen_range(8) {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => 1e15,
            4 => 1e-7,
            5 => -2.5,
            _ => f64::from_bits(rng.next_u64()),
        }),
        5 => JsonValue::Str(gen_string(rng)),
        6 => JsonValue::Array(
            (0..rng.gen_range(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.gen_range(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// What a tree reads back as: the writer prints non-finite floats as
/// `null`.
fn written_form(v: &JsonValue) -> JsonValue {
    match v {
        JsonValue::Float(f) if !f.is_finite() => JsonValue::Null,
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(written_form).collect()),
        JsonValue::Object(pairs) => JsonValue::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), written_form(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn written_values_parse_back_to_themselves() {
    check_n(
        "written values parse back to themselves",
        500,
        |rng| Unshrunk(gen_value(rng, 4)),
        |Unshrunk(v)| {
            let want = written_form(v);
            prop_assert_eq!(JsonValue::parse(&json::to_string(v)), Ok(want.clone()));
            prop_assert_eq!(JsonValue::parse(&json::to_string_pretty(v)), Ok(want));
            Ok(())
        },
    );
}
