//! End-to-end behavioral tests across the whole stack: every workload
//! on every design, with assertions about the *relationships* the
//! paper's evaluation depends on.

use rce::prelude::*;

fn run(w: WorkloadSpec, proto: ProtocolKind, cores: usize, scale: u32) -> SimReport {
    let cfg = MachineConfig::paper_default(cores, proto);
    let p = w.build(cores, scale, 42);
    Machine::new(&cfg).unwrap().run(&p).unwrap()
}

#[test]
fn every_workload_runs_on_every_design() {
    for w in WorkloadSpec::PARSEC
        .iter()
        .chain(WorkloadSpec::MICRO.iter())
    {
        for proto in ProtocolKind::ALL {
            let r = run(*w, proto, 4, 1);
            assert!(r.cycles.0 > 0, "{w} {proto}");
            assert_eq!(r.l1_hits + r.l1_misses, r.mem_ops, "{w} {proto}");
            assert!(r.energy_total().0 > 0.0, "{w} {proto}");
        }
    }
}

#[test]
fn detection_is_never_free() {
    // Every detector must cost at least as much NoC traffic or time as
    // the baseline on sharing-heavy workloads — nothing is free.
    for w in [WorkloadSpec::Dedup, WorkloadSpec::Fluidanimate] {
        let base = run(w, ProtocolKind::MesiBaseline, 8, 1);
        for proto in [ProtocolKind::Ce, ProtocolKind::CePlus] {
            let r = run(w, proto, 8, 1);
            assert!(
                r.noc_bytes() >= base.noc_bytes(),
                "{w} {proto}: piggybacked metadata must not shrink traffic"
            );
        }
    }
}

#[test]
fn ce_pays_off_chip_metadata_ceplus_does_not() {
    // The paper's starting point (CE's off-chip metadata) and C1.
    let ce = run(WorkloadSpec::Canneal, ProtocolKind::Ce, 8, 2);
    let cep = run(WorkloadSpec::Canneal, ProtocolKind::CePlus, 8, 2);
    assert!(
        ce.dram.metadata_bytes().0 > 0,
        "CE must spill metadata to DRAM on canneal"
    );
    assert!(
        cep.dram.metadata_bytes().0 < ce.dram.metadata_bytes().0 / 4,
        "the AIM must absorb almost all of CE's off-chip metadata ({} vs {})",
        cep.dram.metadata_bytes(),
        ce.dram.metadata_bytes()
    );
    assert!(cep.aim.unwrap().accesses > 0);
}

#[test]
fn arc_sends_no_invalidations() {
    // C3's mechanism: release consistency + self-invalidation has no
    // eager invalidation traffic at all.
    for w in [WorkloadSpec::Canneal, WorkloadSpec::Streamcluster] {
        let r = run(w, ProtocolKind::Arc, 8, 1);
        assert_eq!(r.noc.invalidation_bytes().0, 0, "{w}");
    }
}

#[test]
fn arc_noc_traffic_below_ce_family_on_aggregate() {
    // C3: ARC stresses the interconnect much less — an aggregate
    // claim (individual workloads can go either way; barrier-dense
    // read-sharing makes ARC refetch, write-sharing makes CE+
    // invalidate).
    let workloads = [
        WorkloadSpec::Canneal,
        WorkloadSpec::Dedup,
        WorkloadSpec::Fluidanimate,
        WorkloadSpec::Streamcluster,
        WorkloadSpec::Vips,
    ];
    let ratio_product: f64 = workloads
        .iter()
        .map(|w| {
            let ce = run(*w, ProtocolKind::CePlus, 8, 2);
            let arc = run(*w, ProtocolKind::Arc, 8, 2);
            arc.noc_bytes().as_f64() / ce.noc_bytes().as_f64()
        })
        .product();
    let geomean = ratio_product.powf(1.0 / workloads.len() as f64);
    assert!(
        geomean < 1.0,
        "ARC/CE+ NoC traffic geomean must be below 1, got {geomean:.3}"
    );
}

#[test]
fn private_workloads_cost_all_designs_little() {
    let base = run(WorkloadSpec::PrivateOnly, ProtocolKind::MesiBaseline, 4, 1);
    for proto in ProtocolKind::DETECTORS {
        let r = run(WorkloadSpec::PrivateOnly, proto, 4, 1);
        let overhead = r.cycles.0 as f64 / base.cycles.0 as f64;
        assert!(
            overhead < 1.25,
            "{proto}: {overhead:.3}x on purely private data"
        );
    }
}

#[test]
fn self_invalidation_costs_arc_misses_on_read_shared_data() {
    // ARC's known tax: shared lines are refetched each region.
    let base = run(
        WorkloadSpec::Streamcluster,
        ProtocolKind::MesiBaseline,
        8,
        1,
    );
    let arc = run(WorkloadSpec::Streamcluster, ProtocolKind::Arc, 8, 1);
    assert!(
        arc.l1_misses > base.l1_misses,
        "ARC {} misses vs MESI {}",
        arc.l1_misses,
        base.l1_misses
    );
}

#[test]
fn exception_reports_carry_precise_provenance() {
    let r = run(WorkloadSpec::RacyPair, ProtocolKind::Ce, 4, 1);
    assert!(!r.exceptions.is_empty());
    for ex in &r.exceptions {
        assert!(ex.involves_write());
        assert_ne!(ex.a.core, ex.b.core);
        assert_eq!(ex.word_addr.0 % 8, 0, "word-aligned");
    }
}

#[test]
fn abort_policy_is_fail_stop() {
    let p = WorkloadSpec::RacyPair.build(4, 1, 42);
    for proto in ProtocolKind::DETECTORS {
        let cfg = MachineConfig::paper_default(4, proto);
        let r = Machine::new(&cfg)
            .unwrap()
            .run_with_policy(&p, ExceptionPolicy::AbortOnFirst)
            .unwrap();
        assert!(r.aborted, "{proto}");
        assert_eq!(r.exceptions.len(), 1, "{proto}");
        // The aborting access committed, so every count of memory
        // accesses includes it.
        let per_core: u64 = r.per_core.iter().map(|c| c.mem_ops).sum();
        assert_eq!(per_core, r.mem_ops, "{proto}");
        assert_eq!(r.access_latency.count(), r.mem_ops, "{proto}");
        assert_eq!(r.l1_hits + r.l1_misses, r.mem_ops, "{proto}");
    }
}

#[test]
fn abort_stops_at_the_first_delivered_exception() {
    for w in [WorkloadSpec::RacyPair, WorkloadSpec::Canneal] {
        let p = w.build(4, 1, 42);
        for proto in ProtocolKind::DETECTORS {
            let cfg = MachineConfig::paper_default(4, proto);
            let aborted = Machine::new(&cfg)
                .unwrap()
                .run_with_policy(&p, ExceptionPolicy::AbortOnFirst)
                .unwrap();
            // Forensics records are kept in delivery order.
            let full = Machine::new(&cfg)
                .unwrap()
                .with_observability(rce::common::obs::ObsConfig::forensics_only())
                .run(&p)
                .unwrap();
            let first = full.forensics.expect("forensics was on").records[0].exception;
            assert_eq!(aborted.exceptions, vec![first], "{w} {proto}");
        }
    }
}

#[test]
fn scaling_cores_scales_work() {
    for proto in [ProtocolKind::MesiBaseline, ProtocolKind::Arc] {
        let small = run(WorkloadSpec::Blackscholes, proto, 2, 1);
        let large = run(WorkloadSpec::Blackscholes, proto, 8, 1);
        assert!(
            large.mem_ops > small.mem_ops,
            "{proto}: more cores, more total work"
        );
    }
}

#[test]
fn deterministic_across_machine_instances() {
    let p = WorkloadSpec::Ferret.build(8, 1, 99);
    let mut reports = Vec::new();
    for _ in 0..2 {
        let cfg = MachineConfig::paper_default(8, ProtocolKind::CePlus);
        reports.push(Machine::new(&cfg).unwrap().run(&p).unwrap());
    }
    assert_eq!(reports[0].cycles, reports[1].cycles);
    assert_eq!(reports[0].noc.total_bytes(), reports[1].noc.total_bytes());
    assert_eq!(reports[0].dram.total_bytes(), reports[1].dram.total_bytes());
    assert_eq!(reports[0].exceptions, reports[1].exceptions);
}
