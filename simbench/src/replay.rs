//! Layer replays for the traced run.
//!
//! Each program is replayed outside the machine, once through the engine
//! layer (`engine_for` + `Substrate`, which carries the cache, NoC, DRAM,
//! detector and metadata layers) and once through the reference oracle,
//! so their host time can be taken apart from the driver's. Threads
//! advance round-robin, one operation each per round; every sync
//! operation ends the thread's region. Locks and barriers block as they
//! do in the machine, so a race-free program stays race-free, but the
//! interleaving differs from the machine's (smallest clock first), so
//! the split of host time is approximate.

use rce_common::{CoreId, Cycles, MachineConfig, RceError, RceResult, RegionId, WordMask};
use rce_core::{AccessType, Oracle, Substrate};
use rce_trace::{Op, Program};

/// What one memory or sync operation of the replay is.
enum Step {
    Access {
        addr: rce_common::Addr,
        mask: WordMask,
        kind: AccessType,
    },
    Boundary,
}

/// Per-thread replay state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    Running,
    /// Arrived at a barrier in the given generation.
    Barrier(u64),
}

/// Visit every memory and sync operation round-robin across threads.
/// `visit` returns the thread's clock after the operation; `Work` ops
/// only advance the clock. A thread whose lock is held, or that waits at
/// a barrier, is skipped until it can go on. Returns each thread's final
/// clock.
fn round_robin(
    program: &Program,
    mut visit: impl FnMut(CoreId, Step, Cycles) -> RceResult<Cycles>,
) -> RceResult<Vec<Cycles>> {
    let n = program.n_threads();
    let mut cursor = vec![0usize; n];
    let mut clock = vec![Cycles::ZERO; n];
    let mut wait = vec![Wait::Running; n];
    // Lock holder and the clock of the lock's last release.
    let mut locks = vec![(None::<usize>, Cycles::ZERO); program.n_locks as usize];
    // Per barrier: arrivals in the current generation, generation, and
    // the latest arrival clock of the last completed generation.
    let mut barriers = vec![(0usize, 0u64, Cycles::ZERO); program.n_barriers as usize];
    let mut live = program.threads.iter().filter(|t| !t.is_empty()).count();
    while live > 0 {
        let mut progressed = false;
        for c in 0..n {
            let Some(&op) = program.threads[c].get(cursor[c]) else {
                continue;
            };
            let core = CoreId(c as u16);
            let now = clock[c];
            let next = match op {
                Op::Work { cycles } => Cycles(now.0 + u64::from(cycles.max(1))),
                Op::Read { addr, len } | Op::Write { addr, len } => {
                    let kind = if matches!(op, Op::Write { .. }) {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    };
                    let mask = WordMask::span(addr, len as u64);
                    visit(core, Step::Access { addr, mask, kind }, now)?
                }
                Op::Acquire { lock } => {
                    let (holder, released) = &mut locks[lock.0 as usize];
                    if holder.is_some() {
                        continue;
                    }
                    *holder = Some(c);
                    let start = now.max(*released);
                    visit(core, Step::Boundary, start)?
                }
                Op::Release { lock } => {
                    let done = visit(core, Step::Boundary, now)?;
                    locks[lock.0 as usize] = (None, done);
                    done
                }
                Op::Barrier { bar } => {
                    let (arrived, generation, released) = &mut barriers[bar.0 as usize];
                    match wait[c] {
                        Wait::Running => {
                            let done = visit(core, Step::Boundary, now)?;
                            wait[c] = Wait::Barrier(*generation);
                            *arrived += 1;
                            *released = (*released).max(done);
                            if *arrived == n {
                                *arrived = 0;
                                *generation += 1;
                            }
                            clock[c] = done;
                            progressed = true;
                            continue;
                        }
                        Wait::Barrier(g) if g < *generation => {
                            wait[c] = Wait::Running;
                            now.max(*released)
                        }
                        Wait::Barrier(_) => continue,
                    }
                }
            };
            clock[c] = next;
            cursor[c] += 1;
            progressed = true;
            if cursor[c] == program.threads[c].len() {
                live -= 1;
            }
        }
        if !progressed {
            return Err(RceError::DriverProtocol(
                "replay: every live thread is blocked".into(),
            ));
        }
    }
    Ok(clock)
}

/// Replay through the engine layer; returns the number of accesses.
pub fn engine(cfg: &MachineConfig, program: &Program) -> RceResult<u64> {
    let mut engine = rce_core::engine_for(cfg);
    let mut sub = Substrate::new(cfg);
    let mut accesses = 0u64;
    let clocks = round_robin(program, |core, step, now| match step {
        Step::Access { addr, mask, kind } => {
            accesses += 1;
            let res = engine.access(&mut sub, core, addr, mask, kind, now)?;
            Ok(res.done.max(Cycles(now.0 + 1)))
        }
        Step::Boundary => {
            let b = engine.region_boundary(&mut sub, core, now)?;
            sub.advance_region(core);
            Ok(b.done.max(now))
        }
    })?;
    for (c, now) in clocks.into_iter().enumerate() {
        let core = CoreId(c as u16);
        engine.region_boundary(&mut sub, core, now)?;
        sub.advance_region(core);
    }
    Ok(accesses)
}

/// Replay through the reference oracle, word by word at the configured
/// detection granularity; returns `(observes, distinct conflicts)`.
pub fn oracle(cfg: &MachineConfig, program: &Program) -> RceResult<(u64, u64)> {
    let n = program.n_threads() as u64;
    let initial: Vec<RegionId> = (0..n).map(RegionId).collect();
    let mut oracle = Oracle::new(&initial);
    let mut next_region = n;
    let mut observes = 0u64;
    round_robin(program, |core, step, now| {
        match step {
            Step::Access { addr, mask, kind } => {
                let line = addr.line();
                for w in cfg.detect_mask(mask).iter() {
                    observes += 1;
                    let _ = oracle.observe(core, line.word_addr(w), kind, now);
                }
            }
            Step::Boundary => {
                oracle.region_boundary(core, RegionId(next_region));
                next_region += 1;
            }
        }
        Ok(Cycles(now.0 + 1))
    })?;
    Ok((observes, oracle.count() as u64))
}
