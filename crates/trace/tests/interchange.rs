//! Trace interchange: programs serialize to JSON and back without
//! loss (the contract behind `tracegen dump` / `tracegen run`).

use rce_common::json;
use rce_trace::{validate, Program, WorkloadSpec};

#[test]
fn every_workload_round_trips_through_json() {
    for w in WorkloadSpec::PARSEC
        .iter()
        .chain(WorkloadSpec::MICRO.iter())
    {
        let p = w.build(4, 1, 42);
        let text = json::to_string(&p);
        let back: Program = json::from_str(&text).expect("deserialize");
        assert_eq!(p, back, "{w} did not round-trip");
        validate(&back).unwrap();
    }
}

#[test]
fn injected_races_survive_round_trip() {
    let mut p = WorkloadSpec::Blackscholes.build(4, 1, 7);
    let addrs = rce_trace::inject_races(&mut p, 3, 7);
    let text = json::to_string(&p);
    let back: Program = json::from_str(&text).unwrap();
    assert_eq!(p, back);
    // The racy accesses are still in place.
    for a in addrs {
        let touchers = back
            .threads
            .iter()
            .filter(|ops| ops.iter().any(|o| o.addr() == Some(a)))
            .count();
        assert!(touchers >= 2);
    }
}

#[test]
fn foreign_json_is_validated_not_trusted() {
    // A structurally broken program (unbalanced lock) deserializes
    // fine but must be rejected by validate() — the tracegen `run`
    // path depends on this.
    let text = r#"{
        "name": "hostile",
        "threads": [[{"Acquire": {"lock": 0}}]],
        "n_locks": 1,
        "n_barriers": 0,
        "shared_base": 268435456,
        "shared_end": 268435520
    }"#;
    let p: Program = json::from_str(text).expect("shape is valid JSON");
    assert!(validate(&p).is_err(), "unbalanced lock must be rejected");
}

#[test]
fn compact_encoding_is_reasonable() {
    // Guard against accidental bloat in the interchange format: one
    // op should serialize to well under 100 bytes.
    let p = WorkloadSpec::Canneal.build(8, 1, 1);
    let text = json::to_string(&p);
    let per_op = text.len() as f64 / p.total_ops() as f64;
    assert!(per_op < 100.0, "{per_op:.1} bytes/op is too fat");
}

#[test]
fn damaged_trace_files_are_rejected_not_panicked_on() {
    use rce_common::check::{check_n, Unshrunk};
    use rce_common::{prop_assert, Rng};
    // Between them the two programs use every op kind.
    let texts: Vec<String> = [WorkloadSpec::PingPong, WorkloadSpec::RacyPair]
        .iter()
        .map(|w| json::to_string(&w.build(2, 1, 42)))
        .collect();
    check_n(
        "damaged trace files are rejected, not panicked on",
        1000,
        |rng| {
            let which = rng.gen_range(texts.len() as u64) as usize;
            let at = rng.gen_range(texts[which].len() as u64) as usize;
            // 0 truncates at `at`; anything else is XORed into that byte.
            // Both keep the ASCII text valid UTF-8.
            let flip = if rng.gen_bool(0.5) {
                0
            } else {
                1 + rng.gen_range(127) as u8
            };
            Unshrunk((which, at, flip))
        },
        |Unshrunk((which, at, flip))| {
            let mut bytes = texts[*which].as_bytes().to_vec();
            if *flip == 0 {
                bytes.truncate(*at);
            } else {
                bytes[*at] ^= flip;
            }
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            let outcome = std::panic::catch_unwind(|| {
                json::from_str::<Program>(&text).map(|p| validate(&p).is_ok())
            });
            prop_assert!(outcome.is_ok(), "panicked on {text}");
            Ok(())
        },
    );
}
