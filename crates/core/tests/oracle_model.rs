//! Property test: the reference [`Oracle`] against a brute-force model
//! of region-conflict semantics.
//!
//! The model keeps each core's current-region live set as a
//! `HashSet<(word, kind)>` with an explicit region id, and on every
//! access scans every other core's set for an overlap with at least one
//! write. It remembers every identity it has reported and reports each
//! only the first time it is seen. The oracle must return exactly the
//! model's new identities on every observe, at the same cycle, and end
//! with the same conflict list.
//!
//! Streams draw from a handful of words, so conflicts are dense, and
//! favour core 0 and the last core, so a 64-core stream exercises the
//! top bit of the oracle's per-word core masks.

use rce_common::check::check_n;
use rce_common::{prop_assert_eq, Addr, CoreId, Cycles, RegionId, Rng};
use rce_core::exception::ConflictSide;
use rce_core::{AccessType, ConflictException, Oracle};
use std::collections::{BTreeSet, HashSet};

/// One packed stream step: `(op, core, word)`; op 0 is a region
/// boundary, 1 a read, anything else a write.
type Op = (u8, u16, u8);

const WORDS: u64 = 6;

type Identity = ((ConflictSide, ConflictSide, Addr), Cycles);

fn identities(found: &[ConflictException]) -> BTreeSet<Identity> {
    found.iter().map(|c| (c.key(), c.detected_at)).collect()
}

struct Model {
    regions: Vec<RegionId>,
    live: Vec<HashSet<(Addr, AccessType)>>,
    seen: HashSet<(ConflictSide, ConflictSide, Addr)>,
    found: Vec<ConflictException>,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            regions: (0..n as u64).map(RegionId).collect(),
            live: vec![HashSet::new(); n],
            seen: HashSet::new(),
            found: Vec::new(),
        }
    }

    fn observe(
        &mut self,
        core: CoreId,
        word: Addr,
        kind: AccessType,
        now: Cycles,
    ) -> Vec<ConflictException> {
        let me = ConflictSide {
            core,
            region: self.regions[core.index()],
            kind,
        };
        let mut new = Vec::new();
        for (i, set) in self.live.iter().enumerate() {
            if i == core.index() {
                continue;
            }
            for other_kind in [AccessType::Read, AccessType::Write] {
                let has_write = kind == AccessType::Write || other_kind == AccessType::Write;
                if has_write && set.contains(&(word, other_kind)) {
                    let other = ConflictSide {
                        core: CoreId(i as u16),
                        region: self.regions[i],
                        kind: other_kind,
                    };
                    let ex = ConflictException::new(me, other, word, now);
                    if self.seen.insert(ex.key()) {
                        new.push(ex);
                    }
                }
            }
        }
        self.live[core.index()].insert((word, kind));
        self.found.extend_from_slice(&new);
        new
    }

    fn region_boundary(&mut self, core: CoreId, region: RegionId) {
        self.live[core.index()].clear();
        self.regions[core.index()] = region;
    }
}

fn gen_ops(rng: &mut impl Rng, cores: usize) -> Vec<Op> {
    let n = 1 + rng.gen_range(300) as usize;
    let last = cores as u64 - 1;
    (0..n)
        .map(|_| {
            let core = match rng.gen_range(4) {
                0 => 0,
                1 => last,
                _ => rng.gen_range(cores as u64),
            };
            let op = if rng.gen_bool(0.1) {
                0
            } else {
                1 + rng.gen_range(2) as u8
            };
            (op, core as u16, rng.gen_range(WORDS) as u8)
        })
        .collect()
}

fn matches_model(cores: usize, ops: &[Op]) -> Result<(), String> {
    let initial: Vec<RegionId> = (0..cores as u64).map(RegionId).collect();
    let mut oracle = Oracle::new(&initial);
    let mut model = Model::new(cores);
    let mut next_region = cores as u64;
    for (t, &(op, core, word)) in ops.iter().enumerate() {
        let core = CoreId(core);
        if op == 0 {
            oracle.region_boundary(core, RegionId(next_region));
            model.region_boundary(core, RegionId(next_region));
            next_region += 1;
            continue;
        }
        let kind = if op == 1 {
            AccessType::Read
        } else {
            AccessType::Write
        };
        let addr = Addr(8 * (1 + u64::from(word)));
        let now = Cycles(t as u64);
        let got = oracle.observe(core, addr, kind, now);
        let want = model.observe(core, addr, kind, now);
        prop_assert_eq!(identities(&got), identities(&want));
    }
    prop_assert_eq!(oracle.count(), model.found.len());
    prop_assert_eq!(identities(&oracle.conflicts()), identities(&model.found));
    Ok(())
}

#[test]
fn oracle_matches_brute_force_model() {
    for cores in [2, 7, 32, 64] {
        check_n(
            &format!("oracle matches the brute-force model at {cores} cores"),
            64,
            |rng| gen_ops(rng, cores),
            |ops| matches_model(cores, ops),
        );
    }
}
