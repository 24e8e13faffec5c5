//! Driver edge cases: deadlock detection, runaway protection,
//! degenerate programs.

use rce_common::{MachineConfig, ProtocolKind, RceError, MAX_CORES};
use rce_core::Machine;
use rce_trace::Builder;

#[test]
fn cross_lock_deadlock_is_reported_not_hung() {
    // Classic AB-BA deadlock: structurally valid (balanced locks) but
    // can deadlock at run time. The driver must detect it and return
    // an error instead of spinning.
    let mut b = Builder::new("deadlock", 2);
    let la = b.lock();
    let lb = b.lock();
    let arena = b.shared(64);
    // Thread 0: A then B. Thread 1: B then A. No intervening sync, so
    // with the deterministic scheduler both grab their first lock.
    b.acquire(0, la);
    // Memory op so both threads are mid-region when they block.
    b.read(0, arena.word(0));
    b.acquire(0, lb);
    b.release(0, lb);
    b.release(0, la);

    b.acquire(1, lb);
    b.read(1, arena.word(1));
    b.acquire(1, la);
    b.release(1, la);
    b.release(1, lb);

    let p = b.finish();
    rce_trace::validate(&p).expect("structurally valid");
    let cfg = MachineConfig::paper_default(2, ProtocolKind::MesiBaseline);
    let err = Machine::new(&cfg).unwrap().run(&p).unwrap_err();
    assert!(
        matches!(err, RceError::DriverProtocol(_)),
        "expected deadlock report, got {err:?}"
    );
    assert!(err.to_string().contains("deadlock"));
}

#[test]
fn empty_threads_complete_immediately() {
    let b = Builder::new("empty", 3);
    let p = b.finish();
    let cfg = MachineConfig::paper_default(3, ProtocolKind::Arc);
    let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
    assert_eq!(r.mem_ops, 0);
    assert!(r.exceptions.is_empty());
    // Each thread still closes its final region.
    assert_eq!(r.regions, 3);
}

#[test]
fn single_core_machine_works() {
    let mut b = Builder::new("solo", 1);
    let a = b.private(0, 1024);
    for i in 0..50 {
        b.read(0, a.word(i % a.words()));
        b.write(0, a.word(i % a.words()));
    }
    let p = b.finish();
    for proto in ProtocolKind::ALL {
        let cfg = MachineConfig::paper_default(1, proto);
        let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
        assert_eq!(r.mem_ops, 100, "{proto}");
        assert!(r.exceptions.is_empty(), "{proto}");
    }
}

#[test]
fn work_only_program_advances_time() {
    let mut b = Builder::new("work", 2);
    for t in 0..2 {
        b.work(t, 1000);
        b.work(t, 500);
    }
    let p = b.finish();
    let cfg = MachineConfig::paper_default(2, ProtocolKind::MesiBaseline);
    let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
    assert!(r.cycles.0 >= 1500);
    assert_eq!(r.mem_ops, 0);
}

#[test]
fn invalid_config_rejected_at_construction() {
    let mut cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
    cfg.aim.entries = 999; // not a power of two
    assert!(matches!(
        Machine::new(&cfg),
        Err(RceError::InvalidConfig(_))
    ));
    // One core past the directory's and oracle's per-core bit masks
    // is an error, not a panic deeper in the build.
    let cfg = MachineConfig::paper_default(MAX_CORES + 1, ProtocolKind::Ce);
    assert!(matches!(
        Machine::new(&cfg),
        Err(RceError::InvalidConfig(_))
    ));
}

#[test]
fn lock_contention_serializes_critical_sections() {
    // N threads each do K lock-protected increments of one word; the
    // total time must be at least N*K critical-section latencies
    // (they cannot overlap).
    let n = 4;
    let k = 10;
    let mut b = Builder::new("serialize", n);
    let l = b.lock();
    let a = b.shared(64);
    for t in 0..n {
        for _ in 0..k {
            b.critical(t, l, |b| {
                b.read(t, a.word(0));
                b.write(t, a.word(0));
            });
        }
    }
    let p = b.finish();
    let cfg = MachineConfig::paper_default(n, ProtocolKind::MesiBaseline);
    let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
    // Each critical section costs at least 2 L1-ish accesses (~4 cyc);
    // with handoffs (60 cyc) strictly serialized:
    let lower_bound = (n * k) as u64 * 4;
    assert!(r.cycles.0 > lower_bound);
    assert!(r.exceptions.is_empty());
}

#[test]
fn lock_held_across_barrier_deadlock_names_both_waits() {
    // Each thread runs `Acquire lk0; Barrier br0; Release lk0`. Core 0
    // takes the lock and waits at the barrier; core 1 blocks on the
    // lock, so the barrier never fills. The report must describe both
    // kinds of wait.
    let mut b = Builder::new("lock-across-barrier", 2);
    let lk = b.lock();
    let bar = b.barrier();
    for t in 0..2 {
        b.acquire(t, lk);
        b.barrier_one(t, bar);
        b.release(t, lk);
    }
    let p = b.finish();
    let cfg = MachineConfig::paper_default(2, ProtocolKind::Ce);
    let err = Machine::new(&cfg).unwrap().run(&p).unwrap_err();
    assert!(
        matches!(err, RceError::DriverProtocol(_)),
        "expected deadlock report, got {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(
        msg.contains("c0 waits at br0 (1 of 2 cores arrived)"),
        "{msg}"
    );
    assert!(msg.contains("c1 waits on lk0 held by c0"), "{msg}");
}
