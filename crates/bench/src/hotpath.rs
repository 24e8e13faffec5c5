//! Hot-path microbenchmarks (`paper bench-hot`).
//!
//! The simulator's per-access path is dominated by metadata and
//! sharer-state lookups. This module times the three structures that
//! carry that load — the interned flat access-bit tables, the
//! region-boundary flush sets, and the AIM spill/refill path — plus
//! one pinned paper workload to anchor wall time per simulated access.
//! The flat-table cases run against a `std::collections` reference
//! implementation doing the identical work, which is what backs the
//! "flat storage is ≥2x a hash map on the raw access path" claim in
//! EXPERIMENTS.md; [`MIN_SPEEDUP_X`] pins that floor and `paper
//! bench-hot` exits nonzero below it, so a hot-path regression fails
//! CI even when reports stay byte-identical.
//!
//! Everything here is deterministic in *work* (fixed seeds, fixed op
//! streams); only the measured wall times vary by machine, which is
//! why `results/bench_trajectory.json` keeps them in a `measured`
//! section that the CI diff ignores.

use crate::bencher::Bencher;
use rce_common::{
    AimConfig, CoreId, LineAddr, LineFlags, LineMap, LineSet, LineTable, MachineConfig,
    ProtocolKind, RegionId, Rng, SplitMix64, WordIdx, WordMask,
};
use rce_core::{AccessType, AimMeta, Machine};
use rce_trace::{Program, WorkloadSpec};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Hard floor for flat-vs-hashmap raw access throughput. `paper
/// bench-hot` fails below this, and the pinned section of the
/// trajectory baseline records it so it cannot be lowered silently.
pub const MIN_SPEEDUP_X: f64 = 2.0;

/// Cores, scale and seed of `paper trajectory`'s pinned micro-sweep,
/// shared with the pinned paper workload behind `ns_per_access`.
pub const TRAJECTORY_CORES: usize = 4;
/// See [`TRAJECTORY_CORES`].
pub const TRAJECTORY_SCALE: u32 = 1;
/// See [`TRAJECTORY_CORES`].
pub const TRAJECTORY_SEED: u64 = 42;

/// The PARSEC stand-in and design whose simulation anchors
/// `ns_per_access`.
const SIM_WORKLOAD: WorkloadSpec = WorkloadSpec::Streamcluster;
const SIM_PROTOCOL: ProtocolKind = ProtocolKind::CePlus;

/// Timed runs of the pinned paper workload. One run takes well under a
/// millisecond, so a wide median costs little and steadies the number.
const SIM_SAMPLES: usize = 21;

/// Seed for every synthetic op stream (arbitrary, fixed).
const STREAM_SEED: u64 = 0x5EED_C0FF_EE11_D00D;

/// Distinct lines in the synthetic working set — roughly the per-run
/// footprint of the paper's micro workloads.
const WORKING_SET_LINES: u64 = 4096;

/// The measured half of the hot-path summary: machine-dependent
/// numbers that CI tracks but never gates exactly.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeasurement {
    /// Simulator wall time per simulated memory or sync op
    /// (nanoseconds): `Machine::run` alone on the pinned paper
    /// workload, program build and machine setup excluded.
    pub ns_per_access: f64,
    /// Raw access-table throughput of the interned flat path relative
    /// to the `HashMap` reference doing identical work.
    pub speedup_vs_hashmap: f64,
}

/// One deterministic pseudo-random line stream. Re-created per timing
/// closure so every implementation sees the identical sequence.
fn line_stream(ops: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(STREAM_SEED);
    (0..ops)
        .map(|_| (rng.next_u64() % WORKING_SET_LINES) * 64)
        .collect()
}

/// Cores in the synthetic access mix (the trajectory core count).
const MIX_CORES: usize = 4;

/// The reference raw access path: what one engine access did before
/// interning — a displaced-line `HashSet` probe, an access-bit
/// `HashMap` `entry().or_default()` merge, and a per-core touched-set
/// `HashSet` insert. Three independent hashes of the same address.
fn raw_access_hashmap(stream: &[u64]) -> u64 {
    let mut displaced: HashSet<u64> = HashSet::new();
    let mut bits_by_line: HashMap<u64, u64> = HashMap::new();
    let mut touched: Vec<HashSet<u64>> = (0..MIX_CORES).map(|_| HashSet::new()).collect();
    let mut acc = 0u64;
    for (i, &line) in stream.iter().enumerate() {
        if displaced.contains(&line) {
            acc = acc.wrapping_add(1);
        }
        let bits = bits_by_line.entry(line).or_default();
        *bits |= 1 << (i % 64);
        acc = acc.wrapping_add(*bits);
        touched[i % MIX_CORES].insert(line);
        // Every 16th access displaces its line (eviction pressure).
        if i % 16 == 0 {
            displaced.insert(line);
        }
    }
    acc.wrapping_add(touched.iter().map(|t| t.len() as u64).sum())
}

/// The flat raw access path doing identical work: intern the address
/// once, then the displaced probe, bit merge, and touched insert are
/// all dense bitset/vector ops on the same id.
fn raw_access_flat(stream: &[u64]) -> u64 {
    let mut table = LineTable::new();
    let mut displaced = LineFlags::new();
    let mut bits_by_line: LineMap<u64> = LineMap::new();
    let mut touched: Vec<LineSet> = (0..MIX_CORES).map(|_| LineSet::new()).collect();
    let mut acc = 0u64;
    for (i, &line) in stream.iter().enumerate() {
        let id = table.intern(LineAddr(line));
        if displaced.contains(id) {
            acc = acc.wrapping_add(1);
        }
        let bits = bits_by_line.slot(id);
        *bits |= 1 << (i % 64);
        acc = acc.wrapping_add(*bits);
        touched[i % MIX_CORES].insert(id);
        if i % 16 == 0 {
            displaced.insert(id);
        }
    }
    acc.wrapping_add(touched.iter().map(|t| t.len() as u64).sum())
}

/// Reference region-boundary flush: accumulate touched lines in a
/// `HashSet`, then drain and address-sort (what the engines did before
/// [`LineSet`]).
fn region_flush_hashset(stream: &[u64], region_len: usize) -> u64 {
    let mut touched: HashSet<u64> = HashSet::new();
    let mut acc = 0u64;
    for chunk in stream.chunks(region_len) {
        for &line in chunk {
            touched.insert(line);
        }
        let mut drained: Vec<u64> = touched.drain().collect();
        drained.sort_unstable();
        acc = acc.wrapping_add(drained.len() as u64);
    }
    acc
}

/// Flat region-boundary flush: [`LineSet`] insert-dedup, then the
/// engines' actual drain path (take ids, map back to addresses, sort).
fn region_flush_flat(stream: &[u64], region_len: usize) -> u64 {
    let mut table = LineTable::new();
    let mut touched = LineSet::new();
    let mut acc = 0u64;
    for chunk in stream.chunks(region_len) {
        for &line in chunk {
            let id = table.intern(LineAddr(line));
            touched.insert(id);
        }
        let mut drained: Vec<u64> = touched
            .take()
            .into_iter()
            .map(|id| table.addr(id).0)
            .collect();
        drained.sort_unstable();
        acc = acc.wrapping_add(drained.len() as u64);
    }
    acc
}

/// AIM spill/refill churn: a working set several times the AIM's
/// capacity, so nearly every `ensure` misses, spills a victim to the
/// flat overflow table, and later refills it.
fn aim_spill_refill(stream: &[u64]) -> u64 {
    let mut aim = AimMeta::new(&AimConfig {
        entries: 64,
        ways: 4,
        latency: 4,
        entry_bytes: 16,
    });
    let mut acc = 0u64;
    for &line in stream {
        let o = aim.ensure(LineAddr(line));
        aim.entry(LineAddr(line)).record(
            CoreId(0),
            RegionId(1),
            AccessType::Write,
            WordMask::single(WordIdx(0)),
        );
        acc = acc.wrapping_add(u64::from(o.spilled) + u64::from(o.refilled));
    }
    acc
}

/// The pinned paper workload and a machine to run it on, both built
/// outside any timed region.
fn sim_setup() -> (Machine, Program) {
    let cfg = MachineConfig::paper_default(TRAJECTORY_CORES, SIM_PROTOCOL);
    let machine = Machine::new(&cfg).expect("paper_default configs are valid");
    let program = SIM_WORKLOAD.build(TRAJECTORY_CORES, TRAJECTORY_SCALE, TRAJECTORY_SEED);
    (machine, program)
}

/// One simulation of the pinned workload; returns the simulated ops
/// (memory + sync) it committed.
fn sim_run(machine: &Machine, program: &Program) -> u64 {
    let r = machine
        .run(program)
        .expect("generated workloads are valid programs");
    r.mem_ops + r.sync_ops
}

/// Median wall time of `samples` runs of `f`, in seconds.
fn median_secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("bench times are finite"));
    times[times.len() / 2]
}

/// Silent measurement of the two headline hot-path numbers, sized for
/// a CI gate. Used by `paper trajectory` (which embeds them in the
/// baseline's `measured` section) and by [`run`].
pub fn measure(smoke: bool) -> HotPathMeasurement {
    let ops = if smoke { 200_000 } else { 2_000_000 };
    let stream = line_stream(ops);
    let samples = if smoke { 3 } else { 5 };
    let t_hash = median_secs(samples, || raw_access_hashmap(&stream));
    let t_flat = median_secs(samples, || raw_access_flat(&stream));

    // The pinned paper workload anchors simulated-op wall cost.
    let (machine, program) = sim_setup();
    let ops = sim_run(&machine, &program).max(1);
    let t_sim = median_secs(SIM_SAMPLES, || sim_run(&machine, &program));

    HotPathMeasurement {
        ns_per_access: t_sim * 1e9 / ops as f64,
        speedup_vs_hashmap: t_hash / t_flat.max(f64::MIN_POSITIVE),
    }
}

/// Run the full printed suite (`paper bench-hot`). Returns the
/// headline measurement so the caller can enforce [`MIN_SPEEDUP_X`].
pub fn run(smoke: bool) -> HotPathMeasurement {
    let ops = if smoke { 200_000 } else { 2_000_000 };
    let stream = line_stream(ops);
    let elements = Some(ops as u64);

    let mut b = Bencher::group("hot-path");
    b.case("raw-access/hashmap", elements, || {
        raw_access_hashmap(&stream)
    });
    b.case("raw-access/flat", elements, || raw_access_flat(&stream));
    b.case("region-flush/hashset", elements, || {
        region_flush_hashset(&stream, 256)
    });
    b.case("region-flush/flat", elements, || {
        region_flush_flat(&stream, 256)
    });
    b.case("aim-spill-refill/flat", elements, || {
        aim_spill_refill(&stream)
    });
    let (machine, program) = sim_setup();
    let sim_ops = Some((program.total_mem_ops() + program.total_sync_ops()) as u64);
    b.case(&format!("sim/{}", SIM_WORKLOAD.name()), sim_ops, || {
        sim_run(&machine, &program)
    });

    let m = measure(smoke);
    println!(
        "hot-path summary: {:.1} ns per simulated op, flat raw-access path {:.2}x the \
         HashMap reference (floor {MIN_SPEEDUP_X}x)",
        m.ns_per_access, m.speedup_vs_hashmap,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementations_agree_on_the_work() {
        // The timed closures must do identical logical work, or the
        // comparison is meaningless: same accumulator on the same
        // stream, same drain counts at every region boundary.
        let stream = line_stream(10_000);
        assert_eq!(raw_access_hashmap(&stream), raw_access_flat(&stream));
        assert_eq!(
            region_flush_hashset(&stream, 128),
            region_flush_flat(&stream, 128)
        );
    }

    #[test]
    fn aim_churn_actually_spills_and_refills() {
        let stream = line_stream(20_000);
        assert!(
            aim_spill_refill(&stream) > 0,
            "the working set must exceed AIM capacity"
        );
    }

    #[test]
    fn measure_reports_positive_numbers() {
        let m = measure(true);
        assert!(m.ns_per_access > 0.0);
        assert!(m.speedup_vs_hashmap > 0.0);
    }
}
