//! The golden region-conflict detector.
//!
//! The oracle observes the committed access stream in the exact order
//! the machine executes it and maintains, per core, the read/write
//! word sets of the core's *current* region. An access conflicts iff
//! it overlaps an opposing live set with at least one write — the
//! definitional semantics of region conflict exceptions. Every engine
//! must detect exactly the oracle's conflict set on the same schedule;
//! the differential tests enforce this.
//!
//! The oracle is infrastructure, not architecture: it charges no time.
//! Its storage, however, sits on the machine's hot loop (one observe
//! per committed word), so it keeps the live sets the way the paper's
//! designs keep access bits: per word, one reader and one writer mask
//! with a bit per core, set iff that core's current region read
//! (wrote) the word. Words are interned into dense ids
//! ([`LineTable`]) indexing one flat [`LineMap`], so an observe reads
//! one slot and its opponents are that slot's other set bits. Each
//! core lists the bits its current region set, and its region
//! boundary clears exactly those: O(bits set), each already paid for
//! by the observe that set it.
//!
//! If the observing core's same-kind bit is already set, the observe
//! returns at once: every identity a repeat could discover pairs that
//! bit with a live opponent bit, and was found when the later of the
//! two bits was set. Every bit is set once per region, so every
//! identity is found exactly once and the conflict store is a plain
//! list.

use crate::exception::{AccessType, ConflictException, ConflictSide};
use rce_common::{Addr, CoreId, Cycles, LineAddr, LineId, LineMap, LineTable, RegionId, MAX_CORES};

/// The cores whose current region read / wrote one word, bit `c` for
/// core `c`.
#[derive(Debug, Clone, Copy, Default)]
struct WordBits {
    readers: u64,
    writers: u64,
}

impl WordBits {
    fn mask(&mut self, kind: AccessType) -> &mut u64 {
        match kind {
            AccessType::Read => &mut self.readers,
            AccessType::Write => &mut self.writers,
        }
    }
}

/// The shadow detector.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Interner over word-aligned addresses (not lines — the oracle
    /// tracks words; the table is just a dense id allocator).
    words: LineTable,
    bits: LineMap<WordBits>,
    /// Each core's current region.
    regions: Vec<RegionId>,
    /// Per core, the bits its current region set.
    touched: Vec<Vec<(LineId, AccessType)>>,
    /// Every identity found so far, each exactly once.
    conflicts: Vec<ConflictException>,
}

impl Oracle {
    /// Build for `n` cores with their initial region IDs.
    ///
    /// # Panics
    /// If there are more than [`MAX_CORES`] cores.
    pub fn new(initial_regions: &[RegionId]) -> Self {
        assert!(
            initial_regions.len() <= MAX_CORES,
            "oracle supports up to {MAX_CORES} cores"
        );
        Oracle {
            words: LineTable::new(),
            bits: LineMap::new(),
            regions: initial_regions.to_vec(),
            touched: vec![Vec::new(); initial_regions.len()],
            conflicts: Vec::new(),
        }
    }

    /// Observe one committed word access. `word_addr` must be
    /// word-aligned. Returns conflicts newly discovered by this access.
    pub fn observe(
        &mut self,
        core: CoreId,
        word_addr: Addr,
        kind: AccessType,
        now: Cycles,
    ) -> Vec<ConflictException> {
        debug_assert_eq!(word_addr.0 % 8, 0, "oracle expects word-aligned addresses");
        let id = self.words.intern(LineAddr(word_addr.0));
        let me_bit = 1u64 << core.index();
        let word = self.bits.slot(id);
        let WordBits { readers, writers } = *word;
        let own = word.mask(kind);
        if *own & me_bit != 0 {
            return Vec::new();
        }
        *own |= me_bit;
        self.touched[core.index()].push((id, kind));

        // Set-intersection semantics: every overlapping kind pair with
        // at least one write is its own conflict identity (see
        // `MetaMap::check` for why both identities are emitted when
        // the opponent both read and wrote).
        let read_side = if kind == AccessType::Write {
            readers
        } else {
            0
        };
        let mut opponents = (writers | read_side) & !me_bit;
        let mut found = Vec::new();
        let me = ConflictSide {
            core,
            region: self.regions[core.index()],
            kind,
        };
        while opponents != 0 {
            let i = opponents.trailing_zeros() as usize;
            opponents &= opponents - 1;
            for (mask, other_kind) in [(writers, AccessType::Write), (read_side, AccessType::Read)]
            {
                if mask >> i & 1 != 0 {
                    let other = ConflictSide {
                        core: CoreId(i as u16),
                        region: self.regions[i],
                        kind: other_kind,
                    };
                    found.push(ConflictException::new(me, other, word_addr, now));
                }
            }
        }
        self.conflicts.extend_from_slice(&found);
        found
    }

    /// The core's region ended; the bits it set clear and the new
    /// region begins.
    pub fn region_boundary(&mut self, core: CoreId, new_region: RegionId) {
        let c = core.index();
        for (id, kind) in self.touched[c].drain(..) {
            *self.bits.slot(id).mask(kind) &= !(1u64 << c);
        }
        self.regions[c] = new_region;
    }

    /// All conflicts observed so far, sorted for deterministic
    /// comparison.
    ///
    /// # Panics
    /// If an identity was found twice, which would be an oracle bug.
    pub fn conflicts(&self) -> Vec<ConflictException> {
        let mut v = self.conflicts.clone();
        v.sort();
        assert!(
            v.windows(2).all(|w| w[0] != w[1]),
            "oracle found a conflict identity twice"
        );
        v
    }

    /// Number of distinct conflicts.
    pub fn count(&self) -> usize {
        self.conflicts.len()
    }

    /// The core's live (read, written) word-set sizes (diagnostics).
    pub fn live_set_sizes(&self, core: CoreId) -> (usize, usize) {
        let touched = &self.touched[core.index()];
        let reads = touched
            .iter()
            .filter(|(_, k)| *k == AccessType::Read)
            .count();
        (reads, touched.len() - reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(n: usize) -> Oracle {
        let regions: Vec<_> = (0..n as u64).map(RegionId).collect();
        Oracle::new(&regions)
    }

    const W: AccessType = AccessType::Write;
    const R: AccessType = AccessType::Read;

    #[test]
    fn write_write_conflict() {
        let mut o = oracle(2);
        assert!(o.observe(CoreId(0), Addr(8), W, Cycles(0)).is_empty());
        let c = o.observe(CoreId(1), Addr(8), W, Cycles(1));
        assert_eq!(c.len(), 1);
        assert!(c[0].involves_write());
        assert_eq!(o.count(), 1);
    }

    #[test]
    fn read_write_conflict_both_orders() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), R, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(1)).len(), 1);

        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), R, Cycles(1)).len(), 1);
    }

    #[test]
    fn read_read_no_conflict() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), R, Cycles(0));
        assert!(o.observe(CoreId(1), Addr(8), R, Cycles(1)).is_empty());
        assert_eq!(o.count(), 0);
    }

    #[test]
    fn region_boundary_clears() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        o.region_boundary(CoreId(0), RegionId(100));
        assert!(
            o.observe(CoreId(1), Addr(8), W, Cycles(1)).is_empty(),
            "regions no longer concurrent"
        );
    }

    #[test]
    fn duplicate_conflicts_dedup() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(1)).len(), 1);
        // Repeat in the same regions: same identity.
        assert!(o.observe(CoreId(1), Addr(8), W, Cycles(2)).is_empty());
        assert_eq!(o.count(), 1);
        // New region on core 1: new identity.
        o.region_boundary(CoreId(1), RegionId(50));
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(3)).len(), 1);
        assert_eq!(o.count(), 2);
    }

    #[test]
    fn three_core_conflicts() {
        let mut o = oracle(3);
        o.observe(CoreId(0), Addr(16), W, Cycles(0));
        o.observe(CoreId(1), Addr(16), R, Cycles(1)); // conflict 0-1
        let c = o.observe(CoreId(2), Addr(16), W, Cycles(2)); // conflicts 2-0, 2-1
        assert_eq!(c.len(), 2);
        assert_eq!(o.count(), 3);
    }

    #[test]
    fn different_words_independent() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        assert!(o.observe(CoreId(1), Addr(16), W, Cycles(1)).is_empty());
    }

    #[test]
    fn write_then_read_same_core_then_remote_read() {
        // Core 0 writes then reads a word; core 1's read conflicts
        // with the *write* (the read side alone would be fine).
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        o.observe(CoreId(0), Addr(8), R, Cycles(1));
        let c = o.observe(CoreId(1), Addr(8), R, Cycles(2));
        assert_eq!(c.len(), 1);
        assert!(c[0].involves_write());
    }

    #[test]
    fn epoch_reuse_after_boundary_is_fresh() {
        // A word touched in an old region must read as dead after the
        // boundary, and re-touching it must make it live again (and
        // repopulate the live-set sizes).
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        o.observe(CoreId(0), Addr(16), R, Cycles(1));
        assert_eq!(o.live_set_sizes(CoreId(0)), (1, 1));
        o.region_boundary(CoreId(0), RegionId(100));
        assert_eq!(o.live_set_sizes(CoreId(0)), (0, 0));
        o.observe(CoreId(0), Addr(8), W, Cycles(2));
        assert_eq!(o.live_set_sizes(CoreId(0)), (0, 1));
        // The new-region write is live: a remote write now conflicts.
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(3)).len(), 1);
    }

    #[test]
    fn repeat_observe_is_a_fast_path_noop() {
        // The same core re-observing a live same-kind bit must change
        // nothing — not the conflict set, not the live sizes.
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        for t in 1..5 {
            assert!(o.observe(CoreId(0), Addr(8), W, Cycles(t)).is_empty());
        }
        assert_eq!(o.live_set_sizes(CoreId(0)), (0, 1));
        assert_eq!(o.count(), 0);
    }

    #[test]
    fn top_core_bit_conflicts_and_clears() {
        // Core 63 owns the mask's top bit (`1 << 63`).
        let mut o = oracle(64);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        let c = o.observe(CoreId(63), Addr(8), R, Cycles(1));
        assert_eq!(c.len(), 1);
        assert_eq!((c[0].a.core, c[0].b.core), (CoreId(0), CoreId(63)));
        assert_eq!(c[0].b.kind, R);
        o.observe(CoreId(63), Addr(16), W, Cycles(2));
        o.region_boundary(CoreId(63), RegionId(100));
        assert_eq!(o.live_set_sizes(CoreId(63)), (0, 0));
        // Core 63's old bits are gone; core 0's write is still live.
        assert!(o.observe(CoreId(1), Addr(16), W, Cycles(3)).is_empty());
        let c = o.observe(CoreId(2), Addr(8), W, Cycles(4));
        assert_eq!(c.len(), 1);
        assert_eq!((c[0].a.core, c[0].b.core), (CoreId(0), CoreId(2)));
    }

    #[test]
    fn boundary_keeps_other_cores_bits_on_the_word() {
        let mut o = oracle(3);
        o.observe(CoreId(0), Addr(8), R, Cycles(0));
        o.observe(CoreId(1), Addr(8), R, Cycles(1));
        o.observe(CoreId(1), Addr(8), W, Cycles(2)); // conflict 1w-0r
        o.region_boundary(CoreId(0), RegionId(100));
        // Only core 1's read and write remain on the word.
        let c = o.observe(CoreId(2), Addr(8), W, Cycles(3));
        let sides: Vec<_> = c.iter().map(|x| (x.a.core, x.a.kind)).collect();
        assert_eq!(sides, [(CoreId(1), W), (CoreId(1), R)]);
        assert_eq!(o.count(), 3);
    }
}
