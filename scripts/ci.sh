#!/usr/bin/env bash
# Hermetic CI: format, lint, build, test — all offline — plus a dependency
# hygiene gate that fails if any non-workspace (non rce-*) dependency
# reappears in a Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets --offline -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --workspace --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --workspace -q --offline =="
cargo test --workspace -q --offline

echo "== dependency hygiene =="
# Collect every dependency name declared in any Cargo.toml. Anything
# that is not an in-tree rce-* path crate breaks hermeticity.
bad=0
for toml in Cargo.toml crates/*/Cargo.toml; do
    deps=$(awk '
        /^\[(workspace\.)?(dev-|build-)?dependencies\]/ { in_deps = 1; next }
        /^\[/ { in_deps = 0 }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ { split($0, kv, /[ \t=]/); print kv[1] }
    ' "$toml")
    for dep in $deps; do
        case "$dep" in
        rce-*) ;;
        *)
            echo "FAIL: $toml declares non-workspace dependency '$dep'" >&2
            bad=1
            ;;
        esac
    done
done
if [ "$bad" -ne 0 ]; then
    exit 1
fi
echo "ok: all dependencies are in-tree rce-* crates"

echo "== observability smoke (paper trace) =="
# One fully-observed run: must emit a parseable Chrome trace + NDJSON
# log and pass its built-in zero-perturbation check (the binary exits
# nonzero if the obs-on report differs from the obs-off report).
obs_out=$(mktemp -d)
trap 'rm -rf "$obs_out"' EXIT
cargo run -q --release --offline -p rce-bench --bin paper -- \
    trace ping_pong CE+ --cores 4 --scale 1 --out "$obs_out"
for f in trace-ping_pong-ceplus.json trace-ping_pong-ceplus.ndjson; do
    if [ ! -s "$obs_out/$f" ]; then
        echo "FAIL: paper trace did not write $f" >&2
        exit 1
    fi
done
echo "ok: trace artifacts written and zero-perturbation check passed"

echo "== golden reports (paper report vs tests/goldens) =="
# The four seed engine configurations must emit SimReport JSON that is
# byte-identical to the pinned goldens. This is the refactor gate: the
# coherence/detection/metadata layering must never drift the
# simulation. (The small-AIM spill-path goldens are covered by
# tests/golden_reports.rs.)
for engine in MESI CE CE+ ARC; do
    slug=$(printf '%s' "$engine" | sed 's/+/plus/' | tr '[:upper:]' '[:lower:]')
    if ! cargo run -q --release --offline -p rce-bench --bin paper -- \
        report canneal "$engine" --cores 4 --scale 3 --seed 42 |
        diff -q - "tests/goldens/canneal-4c-$slug.json" >/dev/null; then
        echo "FAIL: $engine report drifted from tests/goldens/canneal-4c-$slug.json" >&2
        exit 1
    fi
    echo "ok: $engine report is byte-identical to its golden"
done

echo "== core-count limit (paper report --cores 65) =="
# The directory and the oracle keep one bit per core in a u64. A config
# past that limit must be refused with an error and a nonzero exit, not
# reach the simulator and panic.
if cargo run -q --release --offline -p rce-bench --bin paper -- \
    report racy_pair CE --cores 65 --scale 1 >/dev/null 2>"$obs_out/cores65.err"; then
    echo "FAIL: paper report accepted a 65-core machine" >&2
    exit 1
fi
if grep -q panicked "$obs_out/cores65.err"; then
    echo "FAIL: paper report panicked on a 65-core machine instead of refusing it:" >&2
    cat "$obs_out/cores65.err" >&2
    exit 1
fi
echo "ok: a 65-core machine is refused with: $(cat "$obs_out/cores65.err")"

echo "== ablation smoke (paper ablate-aim) =="
# The AIM sensitivity study must run end to end and write R-A7.json
# with both AIM-backed designs in it.
cargo run -q --release --offline -p rce-bench --bin paper -- \
    ablate-aim --cores 4 --scale 1 --out "$obs_out" >/dev/null
if [ ! -s "$obs_out/R-A7.json" ]; then
    echo "FAIL: ablate-aim did not write R-A7.json" >&2
    exit 1
fi
for design in "CE+" "ARC"; do
    if ! grep -q "\"$design\"" "$obs_out/R-A7.json"; then
        echo "FAIL: R-A7.json has no rows for $design" >&2
        exit 1
    fi
done
echo "ok: ablate-aim wrote R-A7.json with CE+ and ARC curves"

echo "== forensics smoke (paper explain) =="
# A conflict-bearing workload must produce at least one provenance
# record naming both endpoints and the detecting metadata path.
for engine in CE CE+ ARC; do
    out=$(cargo run -q --release --offline -p rce-bench --bin paper -- \
        explain racy_pair "$engine" --cores 4 --scale 1 --seed 42)
    if ! printf '%s' "$out" | grep -q "found via:"; then
        echo "FAIL: paper explain racy_pair $engine printed no provenance record" >&2
        exit 1
    fi
    if ! printf '%s' "$out" | grep -q "hottest conflict lines:"; then
        echo "FAIL: paper explain racy_pair $engine printed no heatmap" >&2
        exit 1
    fi
done
echo "ok: paper explain names both endpoints and the detection path"

echo "== report diffing (paper diff) =="
# Self-diff of a pinned golden must be empty and exit 0; an injected
# counter drift must be caught with exit 1.
cargo run -q --release --offline -p rce-bench --bin paper -- \
    diff tests/goldens/canneal-4c-ce.json tests/goldens/canneal-4c-ce.json 2>/dev/null
sed 's/"mem_ops": [0-9]*/"mem_ops": 1/' tests/goldens/canneal-4c-ce.json \
    >"$obs_out/drifted.json"
if cargo run -q --release --offline -p rce-bench --bin paper -- \
    diff tests/goldens/canneal-4c-ce.json "$obs_out/drifted.json" >/dev/null 2>&1; then
    echo "FAIL: paper diff did not flag an injected counter drift" >&2
    exit 1
fi
echo "ok: self-diff is clean, injected drift exits nonzero"

echo "== perf trajectory gate (paper trajectory + diff) =="
# Re-run the pinned micro-sweep and compare against the committed
# baseline at 0 % tolerance. The sweep is deterministic and records only
# simulated counters, so any drift is a real change; a deliberate model
# change regenerates results/bench_trajectory.json.
cargo run -q --release --offline -p rce-bench --bin paper -- \
    trajectory --out "$obs_out"
if ! cargo run -q --release --offline -p rce-bench --bin paper -- \
    diff results/bench_trajectory.json "$obs_out/bench_trajectory.json" \
    --tolerance 0; then
    echo "FAIL: bench trajectory drifted from the committed baseline" >&2
    echo "      (regenerate results/bench_trajectory.json if the change is intended)" >&2
    exit 1
fi
echo "ok: bench trajectory matches the committed baseline"

echo "== simbench build + pinned values (rce-simbench --pin) =="
# simbench is its own workspace, so the workspace build above does not
# compile it: a change to an API it calls (e.g. the json traits) would
# otherwise only break the benchmark. --pin re-runs every simulation of
# its three workloads (32 and 64 cores) and prints the values the
# benchmark checks; they must equal the committed pin exactly.
cargo build --release --offline --manifest-path simbench/Cargo.toml
if ! simbench/target/release/rce-simbench --pin --seed 42 |
    diff - simbench/expected/seed-42.tsv; then
    echo "FAIL: simbench pinned values drifted from simbench/expected/seed-42.tsv" >&2
    exit 1
fi
echo "ok: simbench builds and its pinned 32/64-core values are unchanged"

echo "== ci passed =="
