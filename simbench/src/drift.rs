//! Host-drift correction.
//!
//! Wall time on a small shared host drifts by tens of percent between
//! identical passes: neighbours load the shared cores, caches and memory
//! unevenly over time (the simulator's own CPU time drifts as much as
//! its wall time, so the host slows rather than deschedules it). A fixed
//! reference kernel is sampled between simulations, and every interval
//! of a pass is scaled by the kernel's pinned nominal time over its mean
//! sample in that pass: a host that slows down uniformly leaves the
//! corrected number unchanged.
//!
//! The kernel uses no workspace crate, so no change to the simulator can
//! change what it measures. It has two halves, like the simulator's own
//! mix: hash-table work that stays in the private caches (insert or
//! update of random keys in a std `HashMap` with a fixed hasher), and
//! independent random reads of a 32 MiB table, which depend on the
//! shared cache and memory. Over 48 four-second blocks of paper
//! simulations, the variation of four-block medians was 13% raw, 4-5%
//! corrected by either half alone (9-10% with a pure ALU kernel) and
//! 2.7% corrected by both.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's pinned nominal time: its median on the host the
/// benchmark was tuned on (2-vCPU KVM guest on a Xeon with 2 MiB L2 per
/// core). Corrected times are seconds on a host where the kernel takes
/// exactly this long.
pub const NOMINAL: Duration = Duration::from_micros(2_600);

const HASH_STEPS: u32 = 30_000;
const KEY_MASK: u64 = 0xFFFF;
const READ_STEPS: u32 = 100_000;
const TABLE_WORDS: usize = 1 << 22;
/// Timed runs per sample, after one untimed run.
const TIMED: u32 = 2;

/// The reference kernel and its reusable state.
pub struct Kernel {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    table: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        Kernel {
            map: HashMap::with_capacity_and_hasher(1 << 14, BuildHasherDefault::default()),
            table: (0..TABLE_WORDS).map(|_| xorshift(&mut x)).collect(),
        }
    }

    /// One sample: the mean wall time in seconds of `TIMED` runs, after
    /// one untimed run. Without that run the sample measured how cold
    /// the last simulation left the caches, not how fast the host was
    /// (cold samples took twice as long and varied three-fold).
    pub fn sample(&mut self) -> f64 {
        black_box(self.run());
        let t = Instant::now();
        for _ in 0..TIMED {
            black_box(self.run());
        }
        t.elapsed().as_secs_f64() / f64::from(TIMED)
    }

    fn run(&mut self) -> u64 {
        self.map.clear();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for _ in 0..HASH_STEPS {
            let key = xorshift(&mut x) & KEY_MASK;
            match self.map.get_mut(&key) {
                Some(v) => {
                    *v += 1;
                    acc ^= *v;
                }
                None => {
                    self.map.insert(key, x);
                }
            }
        }
        for _ in 0..READ_STEPS {
            let v = self.table[xorshift(&mut x) as usize & (TABLE_WORDS - 1)];
            acc = acc.rotate_left(5) ^ v.wrapping_mul(x | 1);
        }
        acc ^ self.map.len() as u64
    }
}

/// Scale factor for the intervals of one pass, from the kernel samples
/// taken between its simulations. The mean, not a per-simulation pair:
/// the host's speed also flickers within a second, which no sample next
/// to a simulation predicts, so only the pass-long level is corrected.
pub fn factor(samples: &[f64]) -> f64 {
    NOMINAL.as_secs_f64() * samples.len() as f64 / samples.iter().sum::<f64>()
}
