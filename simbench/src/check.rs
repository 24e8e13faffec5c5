//! Output check: every simulation's report against pinned values and
//! the simulator's own invariants.
//!
//! The pinned values (`expected/seed-<n>.tsv`, one line per simulation)
//! are compiled in, so a check cannot be lost to a missing file. They
//! exist for seed 42 and for the held-out seed 7; other seeds get the
//! invariant checks plus a determinism check: every pass must reproduce
//! the first pass's summary line exactly.

use crate::workloads::Sim;
use rce_common::ProtocolKind;
use rce_core::SimReport;
use rce_trace::Program;
use std::collections::HashMap;

const PINNED: [(u64, &str); 2] = [
    (42, include_str!("../expected/seed-42.tsv")),
    (7, include_str!("../expected/seed-7.tsv")),
];

/// The pinned quantities of one report, as `name=value` fields.
pub fn summary(r: &SimReport) -> String {
    let aim = r.aim.map_or("-".to_string(), |a| {
        format!("{}/{}/{}/{}", a.accesses, a.hits, a.misses, a.spills)
    });
    format!(
        "cycles={} mem_ops={} sync_ops={} regions={} l1_hits={} l1_misses={} \
         llc_hits={} llc_misses={} noc_bytes={} dram_bytes={} aim={} exceptions={} \
         energy_pj={:?}",
        r.cycles.0,
        r.mem_ops,
        r.sync_ops,
        r.regions,
        r.l1_hits,
        r.l1_misses,
        r.llc_hits,
        r.llc_misses,
        r.noc.total_bytes().0,
        r.dram.total_bytes().0,
        aim,
        r.exceptions.len(),
        r.energy.total().0,
    )
}

pub struct Checker {
    pinned: Option<HashMap<String, String>>,
    first_pass: HashMap<String, String>,
}

impl Checker {
    pub fn new(seed: u64) -> Self {
        let pinned = PINNED.iter().find(|(s, _)| *s == seed).map(|(_, text)| {
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| {
                    let (key, fields) = split_line(l);
                    (key.to_string(), fields.to_string())
                })
                .collect()
        });
        Checker {
            pinned,
            first_pass: HashMap::new(),
        }
    }

    /// A checker with no pinned values, for re-pinning.
    pub fn unpinned() -> Self {
        Checker {
            pinned: None,
            first_pass: HashMap::new(),
        }
    }

    pub fn is_pinned(&self) -> bool {
        self.pinned.is_some()
    }

    /// Check one report of `sim` run on `program`.
    pub fn check(&mut self, sim: &Sim, program: &Program, r: &SimReport) -> Result<(), String> {
        let cores = sim.cores as u64;
        if r.aborted {
            return Err("run aborted".into());
        }
        if r.mem_ops != program.total_mem_ops() as u64
            || r.sync_ops != program.total_sync_ops() as u64
        {
            return Err(format!(
                "committed {} mem / {} sync ops, program has {} / {}",
                r.mem_ops,
                r.sync_ops,
                program.total_mem_ops(),
                program.total_sync_ops()
            ));
        }
        if r.regions != r.sync_ops + cores {
            return Err(format!(
                "{} regions for {} sync ops on {cores} cores",
                r.regions, r.sync_ops
            ));
        }
        if !sim.app.is_racy() && !r.oracle_conflicts.is_empty() {
            return Err(format!(
                "race-free program, oracle found {} conflicts",
                r.oracle_conflicts.len()
            ));
        }
        if sim.protocol == ProtocolKind::MesiBaseline {
            if !r.exceptions.is_empty() {
                return Err(format!("MESI delivered {} exceptions", r.exceptions.len()));
            }
        } else {
            let mut delivered: Vec<_> = r.exceptions.iter().map(|x| x.key()).collect();
            let mut truth: Vec<_> = r.oracle_conflicts.iter().map(|x| x.key()).collect();
            delivered.sort_unstable();
            truth.sort_unstable();
            if delivered != truth {
                return Err(format!(
                    "delivered exception set ({}) differs from the oracle conflict set ({})",
                    delivered.len(),
                    truth.len()
                ));
            }
        }

        let key = sim.key();
        let got = summary(r);
        if let Some(pinned) = &self.pinned {
            match pinned.get(&key) {
                Some(want) => compare(want, &got).map_err(|d| format!("pinned value: {d}"))?,
                None => return Err("no pinned values for this simulation".into()),
            }
        }
        match self.first_pass.get(&key) {
            Some(first) => compare(first, &got).map_err(|d| format!("nondeterministic: {d}"))?,
            None => {
                self.first_pass.insert(key, got);
            }
        }
        Ok(())
    }
}

/// Split a pinned line into its simulation key (three words) and fields.
fn split_line(line: &str) -> (&str, &str) {
    let mut cut = 0;
    for _ in 0..3 {
        cut += line[cut..].find(' ').map_or(line.len() - cut, |i| i + 1);
    }
    (line[..cut].trim_end(), &line[cut..])
}

/// Name every field whose value differs.
fn compare(want: &str, got: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let diffs: Vec<String> = want
        .split(' ')
        .zip(got.split(' '))
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("expected {w}, got {g}"))
        .collect();
    Err(if diffs.is_empty() {
        format!("expected `{want}`, got `{got}`")
    } else {
        diffs.join("; ")
    })
}
