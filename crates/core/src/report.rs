//! Simulation reports and cross-design normalization.

use crate::exception::ConflictException;
use crate::forensics::ForensicsReport;
use rce_common::obs::{MetricsTimeline, TraceLog};
use rce_common::{impl_json_struct, Bytes, Cycles, PicoJoules, ProtocolKind};
use rce_dram::DramStats;
use rce_energy::EnergyBreakdown;
use rce_noc::NocStats;

/// Per-core execution summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// The core's local clock when its thread finished.
    pub finish: Cycles,
    /// Memory operations the core committed.
    pub mem_ops: u64,
    /// Synchronization operations the core executed.
    pub sync_ops: u64,
}

impl_json_struct!(CoreStats {
    finish,
    mem_ops,
    sync_ops,
});

/// AIM summary for designs that have one.
#[derive(Debug, Clone, Copy)]
pub struct AimSummary {
    /// Total lookups.
    pub accesses: u64,
    /// Resident hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Entries spilled to DRAM.
    pub spills: u64,
}

impl AimSummary {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

impl_json_struct!(AimSummary {
    accesses,
    hits,
    misses,
    spills,
});

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated design.
    pub protocol: ProtocolKind,
    /// Workload name.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Execution time (cycles until the last core finished).
    pub cycles: Cycles,
    /// Committed memory operations.
    pub mem_ops: u64,
    /// Synchronization operations executed.
    pub sync_ops: u64,
    /// Region boundaries processed.
    pub regions: u64,
    /// L1 hits (all cores).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L1 capacity evictions.
    pub l1_evictions: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Network statistics.
    pub noc: NocStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// AIM summary (CE+ and ARC).
    pub aim: Option<AimSummary>,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Engine-specific counters.
    pub engine_counters: Vec<(String, u64)>,
    /// Distribution of memory-access latencies (cycles from issue to
    /// completion, including queueing).
    pub access_latency: rce_common::Histogram,
    /// Distribution of region lengths (memory ops per region,
    /// non-empty regions only).
    pub region_len: rce_common::Histogram,
    /// Distribution of region-boundary costs (cycles spent in
    /// flush/scrub/self-invalidate work).
    pub boundary_cost: rce_common::Histogram,
    /// Per-core finish time and committed memory operations (load
    /// imbalance diagnostics).
    pub per_core: Vec<CoreStats>,
    /// Deduplicated conflict exceptions the engine delivered.
    pub exceptions: Vec<ConflictException>,
    /// Ground-truth conflicts from the oracle on the same schedule.
    pub oracle_conflicts: Vec<ConflictException>,
    /// True if the run stopped at the first exception
    /// (`ExceptionPolicy::AbortOnFirst`).
    pub aborted: bool,
    /// Interval metrics timeline (observability runs only).
    pub timeline: Option<MetricsTimeline>,
    /// Event trace (observability runs only).
    pub trace: Option<TraceLog>,
    /// Conflict provenance: heatmaps, lifetimes, and per-exception
    /// root-cause records (forensics runs only).
    pub forensics: Option<ForensicsReport>,
}

// The observability fields are omitted, not `null`, when absent, so a
// report produced with observability off serializes byte-for-byte the
// same as before the fields existed.
impl_json_struct!(SimReport {
    protocol,
    workload,
    cores,
    cycles,
    mem_ops,
    sync_ops,
    regions,
    l1_hits,
    l1_misses,
    l1_evictions,
    llc_hits,
    llc_misses,
    noc,
    dram,
    aim,
    energy,
    engine_counters,
    access_latency,
    region_len,
    boundary_cost,
    per_core,
    exceptions,
    oracle_conflicts,
    aborted;
    omitted_if_none: timeline, trace, forensics
});

impl SimReport {
    /// Total on-chip traffic.
    pub fn noc_bytes(&self) -> Bytes {
        self.noc.total_bytes()
    }

    /// Total off-chip traffic.
    pub fn dram_bytes(&self) -> Bytes {
        self.dram.total_bytes()
    }

    /// Total energy.
    pub fn energy_total(&self) -> PicoJoules {
        self.energy.total()
    }

    /// L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        let t = self.l1_hits + self.l1_misses;
        if t == 0 {
            0.0
        } else {
            self.l1_misses as f64 / t as f64
        }
    }

    /// Load imbalance: slowest core finish / mean finish (1.0 =
    /// perfectly balanced). Returns 1.0 when per-core data is absent.
    pub fn load_imbalance(&self) -> f64 {
        if self.per_core.is_empty() {
            return 1.0;
        }
        let finishes: Vec<f64> = self.per_core.iter().map(|c| c.finish.0 as f64).collect();
        let max = finishes.iter().cloned().fold(0.0f64, f64::max);
        let mean = finishes.iter().sum::<f64>() / finishes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// True if the engine's exception set matches the oracle's
    /// (identity comparison; detection times may differ).
    pub fn matches_oracle(&self) -> bool {
        use std::collections::HashSet;
        let e: HashSet<_> = self.exceptions.iter().map(|x| x.key()).collect();
        let o: HashSet<_> = self.oracle_conflicts.iter().map(|x| x.key()).collect();
        e == o
    }

    /// Normalize the headline metrics to a baseline run (same
    /// workload, same cores, MESI).
    pub fn normalized_to(&self, base: &SimReport) -> NormalizedRow {
        fn ratio(a: f64, b: f64) -> f64 {
            if b == 0.0 {
                if a == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                a / b
            }
        }
        NormalizedRow {
            protocol: self.protocol,
            workload: self.workload.clone(),
            cores: self.cores,
            runtime: ratio(self.cycles.0 as f64, base.cycles.0 as f64),
            energy: ratio(self.energy_total().0, base.energy_total().0),
            noc_traffic: ratio(self.noc_bytes().as_f64(), base.noc_bytes().as_f64()),
            dram_traffic: ratio(self.dram_bytes().as_f64(), base.dram_bytes().as_f64()),
        }
    }
}

/// One figure row: metrics relative to the MESI baseline.
#[derive(Debug, Clone)]
pub struct NormalizedRow {
    /// Design.
    pub protocol: ProtocolKind,
    /// Workload.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Run time / baseline run time.
    pub runtime: f64,
    /// Energy / baseline energy.
    pub energy: f64,
    /// NoC bytes / baseline NoC bytes.
    pub noc_traffic: f64,
    /// DRAM bytes / baseline DRAM bytes.
    pub dram_traffic: f64,
}

impl_json_struct!(NormalizedRow {
    protocol,
    workload,
    cores,
    runtime,
    energy,
    noc_traffic,
    dram_traffic,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(protocol: ProtocolKind, cycles: u64) -> SimReport {
        SimReport {
            protocol,
            workload: "w".into(),
            cores: 4,
            cycles: Cycles(cycles),
            mem_ops: 10,
            sync_ops: 2,
            regions: 3,
            l1_hits: 8,
            l1_misses: 2,
            l1_evictions: 0,
            llc_hits: 1,
            llc_misses: 1,
            noc: NocStats::default(),
            dram: DramStats::default(),
            aim: None,
            energy: EnergyBreakdown::default(),
            engine_counters: vec![],
            access_latency: rce_common::Histogram::new(),
            region_len: rce_common::Histogram::new(),
            boundary_cost: rce_common::Histogram::new(),
            per_core: vec![],
            exceptions: vec![],
            oracle_conflicts: vec![],
            aborted: false,
            timeline: None,
            trace: None,
            forensics: None,
        }
    }

    #[test]
    fn obs_fields_roundtrip_and_are_omitted_when_absent() {
        let plain = dummy(ProtocolKind::Ce, 10);
        let j = rce_common::json::to_string(&plain);
        assert!(!j.contains("\"timeline\""));
        assert!(!j.contains("\"trace\""));
        assert!(!j.contains("\"forensics\""));
        let back: SimReport = rce_common::json::from_str(&j).unwrap();
        assert!(back.timeline.is_none() && back.trace.is_none());

        let mut obs = dummy(ProtocolKind::Ce, 10);
        obs.timeline = Some(MetricsTimeline {
            interval: 8,
            samples: vec![],
        });
        obs.trace = Some(TraceLog {
            capacity: 4,
            emitted: 9,
            drops: 5,
            events: vec![],
        });
        let j2 = rce_common::json::to_string(&obs);
        let back: SimReport = rce_common::json::from_str(&j2).unwrap();
        assert_eq!(back.timeline.unwrap().interval, 8);
        assert_eq!(back.trace.unwrap().drops, 5);
    }

    #[test]
    fn normalization_ratios() {
        let base = dummy(ProtocolKind::MesiBaseline, 100);
        let ce = dummy(ProtocolKind::Ce, 150);
        let row = ce.normalized_to(&base);
        assert!((row.runtime - 1.5).abs() < 1e-12);
        // Zero-over-zero traffic normalizes to 1.
        assert_eq!(row.noc_traffic, 1.0);
        assert_eq!(row.dram_traffic, 1.0);
    }

    #[test]
    fn l1_miss_rate() {
        let r = dummy(ProtocolKind::MesiBaseline, 1);
        assert!((r.l1_miss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn oracle_match_on_empty() {
        let r = dummy(ProtocolKind::Ce, 1);
        assert!(r.matches_oracle());
    }

    #[test]
    fn aim_summary_hit_rate() {
        let a = AimSummary {
            accesses: 10,
            hits: 8,
            misses: 2,
            spills: 1,
        };
        assert!((a.hit_rate() - 0.8).abs() < 1e-12);
        let z = AimSummary {
            accesses: 0,
            hits: 0,
            misses: 0,
            spills: 0,
        };
        assert_eq!(z.hit_rate(), 0.0);
    }
}
