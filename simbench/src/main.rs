//! Paper-sweep benchmark of the RCE simulator.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload <parsec-32c|canneal-32c|scale-64c|all> \
//!     [--seed 42] [--seconds 25] [--trace 0|1]
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- --pin --seed 42 \
//!     > simbench/expected/seed-42.tsv
//! ```
//!
//! One process runs one workload: passes over its simulations, one at a
//! time on one thread, until `--seconds` have elapsed. Every report is
//! checked (see `check`). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics, writes the span records to
//! `.simbench/` and reports the tracing overhead. The last line of
//! standard output is one JSON object with the result; a readable table
//! goes to standard error. See `README.md` for the metric definitions and
//! which end-to-end metric each layer metric should move.

mod check;
mod drift;
mod replay;
mod spans;
mod workloads;

use check::Checker;
use drift::Kernel;
use rce_common::{ProtocolKind, RceResult};
use rce_core::{Machine, SimReport};
use rce_trace::Program;
use spans::Spans;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{Sim, Workload, SCALE};

struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench --workload <parsec-32c|canneal-32c|scale-64c|all> \
         [--seed N] [--seconds S] [--trace 0|1]\n       simbench --pin [--seed N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        trace: false,
        pin: false,
    };
    let mut workload_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    w => Some(Workload::parse(w).unwrap_or_else(|| usage())),
                };
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage());
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !workload_given && !args.pin {
        usage();
    }
    args
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Raw host seconds spent in each layer call of one simulation.
#[derive(Debug, Default, Clone, Copy)]
struct Timing {
    build: f64,
    new: f64,
    run: f64,
    serialize: f64,
}

impl Timing {
    fn setup(&self) -> f64 {
        self.build + self.new
    }

    fn sweep(&self) -> f64 {
        self.build + self.new + self.run + self.serialize
    }
}

/// Where a traced simulation records its spans.
struct Trace<'a> {
    spans: &'a mut Spans,
    run: u32,
    parent: usize,
}

/// Time `f`, add its seconds to `acc` and, when tracing, record a span.
fn timed<T>(
    trace: &mut Option<Trace>,
    name: &'static str,
    acc: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    *acc += (end - start).as_secs_f64();
    if let Some(t) = trace {
        t.spans.record(name, t.run, Some(t.parent), start, end);
    }
    out
}

/// One simulation's program and report, with the serialized size.
struct Run {
    program: Program,
    report: SimReport,
    bytes: u64,
    timing: Timing,
}

/// Build, run and serialize one simulation, timing each layer call.
fn simulate(sim: &Sim, seed: u64, mut trace: Option<Trace>) -> RceResult<Run> {
    let mut t = Timing::default();
    let cfg = sim.config();
    let program = timed(&mut trace, "trace.build", &mut t.build, || {
        sim.app.build(sim.cores, SCALE, sim.program_seed(seed))
    });
    let machine = timed(&mut trace, "core.new", &mut t.new, || Machine::new(&cfg))?;
    let report = timed(&mut trace, "core.run", &mut t.run, || machine.run(&program))?;
    let json = timed(&mut trace, "report.serialize", &mut t.serialize, || {
        rce_common::json::to_string(&report)
    });
    let bytes = black_box(json).len() as u64;
    Ok(Run {
        program,
        report,
        bytes,
        timing: t,
    })
}

/// Design slug used in per-design metric names.
fn slug(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::MesiBaseline => "mesi",
        ProtocolKind::Ce => "ce",
        ProtocolKind::CePlus => "ceplus",
        ProtocolKind::Arc => "arc",
    }
}

/// Engine and oracle replay results of one traced simulation.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    engine_s: f64,
    accesses: u64,
    oracle_s: f64,
    observes: u64,
    conflicts: u64,
}

/// What one simulation of a pass contributes to the metrics.
#[derive(Default)]
struct SimRecord {
    /// Tracing off.
    timing: Timing,
    /// The traced repetition (trace mode only).
    traced: Timing,
    replay: Replay,
    /// Memory + sync ops simulated.
    ops: u64,
    /// Operations in the generated program, `Work` included.
    program_ops: u64,
    bytes: u64,
    /// Serialized exception and oracle-conflict entries.
    records: u64,
    /// Modelled work counts, in `COUNTS` order (trace mode only).
    counts: [u64; COUNTS.len()],
    cycles: u64,
}

/// Modelled work counts taken from each report: name and unit.
const COUNTS: [(&str, &str); 19] = [
    ("cache.l1_hits", "count"),
    ("cache.l1_misses", "count"),
    ("cache.l1_evictions", "count"),
    ("cache.llc_hits", "count"),
    ("cache.llc_misses", "count"),
    ("noc.msgs", "count"),
    ("noc.bytes", "B"),
    ("noc.flit_hops", "count"),
    ("noc.queue_delay", "cycles"),
    ("dram.accesses", "count"),
    ("dram.bytes", "B"),
    ("meta.aim_accesses", "count"),
    ("meta.aim_hits", "count"),
    ("meta.aim_misses", "count"),
    ("meta.aim_spills", "count"),
    ("detect.exceptions", "count"),
    ("detect.conflict_checks_hit", "count"),
    ("sync.regions", "count"),
    ("sync.ops", "count"),
];

/// The `COUNTS` of one report, exact and deterministic.
fn counts(r: &SimReport) -> [u64; COUNTS.len()] {
    let aim = r
        .aim
        .map_or([0; 4], |a| [a.accesses, a.hits, a.misses, a.spills]);
    let checks_hit = r
        .engine_counters
        .iter()
        .find(|(k, _)| k == "conflict_checks_hit")
        .map_or(0, |(_, v)| *v);
    [
        r.l1_hits,
        r.l1_misses,
        r.l1_evictions,
        r.llc_hits,
        r.llc_misses,
        r.noc.total_msgs(),
        r.noc.total_bytes().0,
        r.noc.flit_hops.get(),
        r.noc.total_queue_delay.get(),
        r.dram.total_accesses(),
        r.dram.total_bytes().0,
        aim[0],
        aim[1],
        aim[2],
        aim[3],
        r.exceptions.len() as u64,
        checks_hit,
        r.regions,
        r.sync_ops,
    ]
}

/// One pass over a workload's simulations.
struct Pass {
    /// Drift-correction factor for every interval of the pass.
    factor: f64,
    /// Raw kernel times of this pass, seconds.
    ref_samples: Vec<f64>,
    sims: Vec<(Sim, SimRecord)>,
}

struct Bench {
    seed: u64,
    trace: bool,
    kernel: Kernel,
    checker: Checker,
    spans: Spans,
    next_run: u32,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Count one attempt: an error, a panic or a failed check fails it.
    fn attempt<T>(
        &mut self,
        sim: &Sim,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let out = match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(r) => r,
            Err(p) => Err(p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or("panicked".to_string(), |m| format!("panicked: {m}"))),
        };
        out.map_err(|e| {
            self.failed += 1;
            eprintln!("FAILED {} (seed {}): {e}", sim.key(), self.seed);
        })
        .ok()
    }

    /// Run, check and drop one untraced simulation.
    fn plain(&mut self, sim: &Sim, rec: &mut SimRecord) {
        let seed = self.seed;
        self.attempt(sim, |b| {
            let run = simulate(sim, seed, None).map_err(|e| e.to_string())?;
            let r = &run.report;
            rec.timing = run.timing;
            rec.ops = r.mem_ops + r.sync_ops;
            rec.program_ops = run.program.total_ops() as u64;
            rec.bytes = run.bytes;
            rec.records = (r.exceptions.len() + r.oracle_conflicts.len()) as u64;
            b.checker.check(sim, &run.program, r)
        });
    }

    /// The untraced repetition of a traced run, as one opaque span.
    fn plain_span(&mut self, sim: &Sim, rec: &mut SimRecord, run_id: u32, root: usize) {
        let start = Instant::now();
        self.plain(sim, rec);
        self.spans
            .record("bench.untraced", run_id, Some(root), start, Instant::now());
    }

    /// Run one simulation with spans, then replay it through the engine
    /// and oracle layers.
    fn traced(&mut self, sim: &Sim, rec: &mut SimRecord, run_id: u32, root: usize) {
        let seed = self.seed;
        self.attempt(sim, |b| {
            let trace = Trace {
                spans: &mut b.spans,
                run: run_id,
                parent: root,
            };
            let run = simulate(sim, seed, Some(trace)).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let checked = b.checker.check(sim, &run.program, &run.report);
            b.spans
                .record("bench.check", run_id, Some(root), start, Instant::now());
            checked?;
            rec.traced = run.timing;
            rec.counts = counts(&run.report);
            rec.cycles = run.report.cycles.0;
            drop(run.report);

            let cfg = sim.config();
            let mut r = Replay::default();
            let mut trace = Some(Trace {
                spans: &mut b.spans,
                run: run_id,
                parent: root,
            });
            r.accesses = timed(&mut trace, "engine.replay", &mut r.engine_s, || {
                replay::engine(&cfg, &run.program)
            })
            .map_err(|e| format!("engine replay: {e}"))?;
            (r.observes, r.conflicts) = timed(&mut trace, "oracle.replay", &mut r.oracle_s, || {
                replay::oracle(&cfg, &run.program)
            })
            .map_err(|e| format!("oracle replay: {e}"))?;
            rec.replay = r;
            Ok(())
        });
    }

    fn time_kernel(&mut self, samples: &mut Vec<f64>) {
        let start = Instant::now();
        samples.push(self.kernel.sample());
        if self.trace {
            self.spans
                .record("host.ref", self.next_run, None, start, Instant::now());
        }
    }

    fn pass(&mut self, sims: &[Sim]) -> Pass {
        let mut ref_samples = Vec::with_capacity(sims.len() + 1);
        let mut records = Vec::with_capacity(sims.len());
        self.time_kernel(&mut ref_samples);
        for sim in sims {
            let mut rec = SimRecord::default();
            if self.trace {
                let run_id = self.next_run;
                let root = self.spans.open("sim", run_id, None);
                // Alternate which repetition goes first, so neither side
                // of the overhead difference always runs on a warm heap.
                if run_id.is_multiple_of(2) {
                    self.plain_span(sim, &mut rec, run_id, root);
                    self.traced(sim, &mut rec, run_id, root);
                } else {
                    self.traced(sim, &mut rec, run_id, root);
                    self.plain_span(sim, &mut rec, run_id, root);
                }
                self.spans.close(root);
            } else {
                self.plain(sim, &mut rec);
            }
            self.next_run += 1;
            self.time_kernel(&mut ref_samples);
            records.push((*sim, rec));
        }
        Pass {
            factor: drift::factor(&ref_samples),
            ref_samples,
            sims: records,
        }
    }
}

/// Sum over a pass's simulations of each one's drift-corrected median
/// over passes. Taking the median per simulation keeps a slow spell
/// during one simulation from moving the whole pass.
fn corrected(passes: &[Pass], f: impl Fn(&Sim, &SimRecord) -> f64) -> f64 {
    (0..passes[0].sims.len())
        .map(|i| {
            median(passes.iter().map(|p| {
                let (s, r) = &p.sims[i];
                p.factor * f(s, r)
            }))
        })
        .sum()
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(passes: &[Pass], bench: &Bench) -> Metrics {
    let first = &passes[0];
    let ops: u64 = first.sims.iter().map(|(_, r)| r.ops).sum();
    let bytes: u64 = first.sims.iter().map(|(_, r)| r.bytes).sum();
    let run_s = corrected(passes, |_, r| r.timing.run);
    vec![
        (
            "sweep_s".into(),
            corrected(passes, |_, r| r.timing.sweep()),
            "s",
        ),
        ("sim_mops".into(), ops as f64 / run_s / 1e6, "Mops/s"),
        (
            "setup_s".into(),
            corrected(passes, |_, r| r.timing.setup()),
            "s",
        ),
        ("report_mb".into(), bytes as f64 / 1e6, "MB"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        (
            "pass_rate".into(),
            (bench.attempted - bench.failed) as f64 / bench.attempted as f64,
            "ratio",
        ),
    ]
}

fn per_layer(passes: &[Pass]) -> Metrics {
    let first = &passes[0];
    let sum_first = |f: &dyn Fn(&Sim, &SimRecord) -> u64| -> u64 {
        first.sims.iter().map(|(s, r)| f(s, r)).sum()
    };
    let mut m: Metrics = Vec::new();
    m.push((
        "trace.build_s".into(),
        corrected(passes, |_, r| r.traced.build),
        "s",
    ));
    m.push((
        "trace.ops".into(),
        sum_first(&|_, r| r.program_ops) as f64,
        "count",
    ));
    m.push((
        "core.new_s".into(),
        corrected(passes, |_, r| r.traced.new),
        "s",
    ));
    let run_s = corrected(passes, |_, r| r.traced.run);
    m.push(("core.run_s".into(), run_s, "s"));
    for p in ProtocolKind::ALL {
        let ops = sum_first(&|s, r| if s.protocol == p { r.ops } else { 0 });
        let t = corrected(
            passes,
            |s, r| if s.protocol == p { r.traced.run } else { 0.0 },
        );
        m.push((
            format!("core.ns_per_op.{}", slug(p)),
            if ops == 0 { 0.0 } else { t * 1e9 / ops as f64 },
            "ns",
        ));
    }
    let engine_s = corrected(passes, |_, r| r.replay.engine_s);
    m.push(("engine.replay_s".into(), engine_s, "s"));
    for p in ProtocolKind::ALL {
        let n = sum_first(&|s, r| {
            if s.protocol == p {
                r.replay.accesses
            } else {
                0
            }
        });
        let t = corrected(passes, |s, r| {
            if s.protocol == p {
                r.replay.engine_s
            } else {
                0.0
            }
        });
        m.push((
            format!("engine.ns_per_access.{}", slug(p)),
            if n == 0 { 0.0 } else { t * 1e9 / n as f64 },
            "ns",
        ));
    }
    let oracle_s = corrected(passes, |_, r| r.replay.oracle_s);
    let observes = sum_first(&|_, r| r.replay.observes);
    m.push(("oracle.replay_s".into(), oracle_s, "s"));
    m.push((
        "oracle.ns_per_observe".into(),
        if observes == 0 {
            0.0
        } else {
            oracle_s * 1e9 / observes as f64
        },
        "ns",
    ));
    m.push((
        "oracle.conflicts".into(),
        sum_first(&|_, r| r.replay.conflicts) as f64,
        "count",
    ));
    m.push(("driver.residual_s".into(), run_s - engine_s - oracle_s, "s"));
    m.push((
        "report.serialize_s".into(),
        corrected(passes, |_, r| r.traced.serialize),
        "s",
    ));
    m.push((
        "report.bytes".into(),
        sum_first(&|_, r| r.bytes) as f64,
        "B",
    ));
    m.push((
        "report.exception_records".into(),
        sum_first(&|_, r| r.records) as f64,
        "count",
    ));
    for (i, (name, unit)) in COUNTS.iter().enumerate() {
        m.push((
            name.to_string(),
            sum_first(&|_, r| r.counts[i]) as f64,
            unit,
        ));
    }
    for p in ProtocolKind::ALL {
        let cycles = sum_first(&|s, r| if s.protocol == p { r.cycles } else { 0 });
        m.push((format!("sim.cycles.{}", slug(p)), cycles as f64, "cycles"));
    }
    m.push((
        "host.ref_s".into(),
        median(passes.iter().flat_map(|p| p.ref_samples.iter().copied())),
        "s",
    ));
    m.push((
        "host.sweep_raw_s".into(),
        median(
            passes
                .iter()
                .map(|p| p.sims.iter().map(|(_, r)| r.traced.sweep()).sum::<f64>()),
        ),
        "s",
    ));
    m.push((
        "bench.tracing_overhead_s".into(),
        corrected(passes, |_, r| r.traced.sweep() - r.timing.sweep()),
        "s",
    ));
    m
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run each workload in its own process (so peak memory is per
/// workload) and print one result line per workload.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut code = 0;
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn the benchmark for one workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        println!("{}: {last}", w.name());
        if !out.status.success() || !last.starts_with("{\"correct\": true") {
            code = 1;
        }
    }
    code
}

/// Print the pinned summary line of every simulation of every workload.
fn pin(seed: u64) -> i32 {
    let mut checker = Checker::unpinned();
    let mut code = 0;
    for w in Workload::ALL {
        for sim in w.sims() {
            let run = simulate(&sim, seed, None).expect("paper workloads simulate");
            if let Err(e) = checker.check(&sim, &run.program, &run.report) {
                eprintln!("{}: {e}", sim.key());
                code = 1;
            }
            println!("{} {}", sim.key(), check::summary(&run.report));
        }
    }
    code
}

fn main() {
    let args = parse_args();
    if args.pin {
        std::process::exit(pin(args.seed));
    }
    let Some(workload) = args.workload else {
        std::process::exit(run_all(&args));
    };
    let sims = workload.sims();
    let mut bench = Bench {
        seed: args.seed,
        trace: args.trace,
        kernel: Kernel::new(),
        checker: Checker::new(args.seed),
        spans: Spans::new(),
        next_run: 0,
        attempted: 0,
        failed: 0,
    };
    if !bench.checker.is_pinned() {
        eprintln!(
            "seed {} has no pinned values: checking invariants and determinism only",
            args.seed
        );
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(bench.pass(&sims));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let metrics = if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".simbench/spans-{}-seed{}.ndjson",
            workload.name(),
            args.seed
        ));
        if let Err(e) = bench.spans.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "spans: {} records in {}",
            bench.spans.spans.len(),
            path.display()
        );
        eprintln!("self time by span (raw, all passes):");
        for (name, t) in bench.spans.self_time_by_name() {
            eprintln!("  {name:<18} {:>10.4} s", t.as_secs_f64());
        }
        per_layer(&passes)
    } else {
        end_to_end(&passes, &bench)
    };
    eprintln!(
        "{} seed {}: {} passes in {:.1} s, {} attempted, {} failed",
        workload.name(),
        args.seed,
        passes.len(),
        start.elapsed().as_secs_f64(),
        bench.attempted,
        bench.failed
    );
    let raw: Vec<String> = passes
        .iter()
        .map(|p| {
            let raw: f64 = p.sims.iter().map(|(_, r)| r.timing.sweep()).sum();
            format!("{raw:.3}->{:.3}", raw * p.factor)
        })
        .collect();
    eprintln!("  pass sweep seconds, raw->corrected: {}", raw.join(" "));
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<30} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_json(bench.failed == 0, bench.attempted, bench.failed, &metrics)
    );
}
