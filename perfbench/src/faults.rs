//! Seeded storage bit flips injected between scheduler steps, and the
//! bookkeeping that decides which of them the engine detected.
//!
//! A flip targets a private (reference count 1) cache block of a
//! decoding request, so exactly one request is exposed to it. It counts
//! as detected once the request is quarantined (online alarm, or an
//! unrecoverable scrub verdict) or the flipped lane reads back its
//! original bits (a scrub finding repaired in place).

use crate::serving::mix;
use fa_attention::serve::{Phase, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Injection schedule.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// One flip lands before every `every_steps`-th step.
    pub every_steps: u64,
    /// Flipped bits are drawn uniformly from `low_bit..64` of the f64 lane.
    pub low_bit: u32,
}

/// One landed flip.
#[derive(Clone, Debug)]
pub struct Flip {
    step: u64,
    /// Scheduler record index of the exposed request.
    rec: usize,
    seq: usize,
    pos: usize,
    /// Index of the flipped lane within the cached row (kv head major).
    lane: usize,
    key_side: bool,
    original: u64,
    quarantines_before: u32,
    /// Step at whose end the engine had detected the flip.
    detected_step: Option<u64>,
    /// Whether the flip is still being watched.
    open: bool,
}

/// Injects flips on schedule and watches each one until it is detected
/// or its request leaves the engine.
pub struct Injector {
    spec: FaultSpec,
    rng: StdRng,
    pub flips: Vec<Flip>,
    /// Scheduled injections that found no target.
    pub missed: usize,
}

impl Injector {
    pub fn new(spec: FaultSpec, seed: u64) -> Injector {
        Injector {
            spec,
            rng: StdRng::seed_from_u64(mix(seed, 3)),
            flips: Vec::new(),
            missed: 0,
        }
    }

    /// Lands this step's flip, if one is due.
    pub fn before_step(&mut self, sched: &mut Scheduler) {
        let step = sched.now();
        if step == 0 || !step.is_multiple_of(self.spec.every_steps) {
            return;
        }
        let key_side = self.flips.len().is_multiple_of(2);
        match self.pick(sched) {
            Some((rec, seq, pos, lane)) => {
                let bit = self.rng.gen_range(self.spec.low_bit..64);
                let d = sched.engine().config().head.head_dim();
                let read = |s: &Scheduler| {
                    let cache = s.engine().cache();
                    let row = if key_side {
                        cache.key_row(seq, pos)
                    } else {
                        cache.value_row(seq, pos)
                    };
                    row[lane].to_bits()
                };
                let original = read(sched);
                sched
                    .engine_mut()
                    .flip_storage_bit(seq, pos, lane / d, lane % d, key_side, bit);
                debug_assert_ne!(read(sched), original, "the flip changed the lane");
                self.flips.push(Flip {
                    step,
                    rec,
                    seq,
                    pos,
                    lane,
                    key_side,
                    original,
                    quarantines_before: sched.records()[rec].quarantines,
                    detected_step: None,
                    open: true,
                });
            }
            None => self.missed += 1,
        }
    }

    /// A decoding request and a cached native lane of it that sits in a
    /// block no other reader shares.
    fn pick(&mut self, sched: &Scheduler) -> Option<(usize, usize, usize, usize)> {
        let targets = sched.active_decoding();
        if targets.is_empty() {
            return None;
        }
        let e = sched.engine();
        let cache = e.cache();
        let width = e.config().kv_dim();
        for _ in 0..16 {
            let (rec, seq) = targets[self.rng.gen_range(0..targets.len())];
            let len = e.seq_len(seq);
            let first = cache.first_retained(seq);
            if len <= first {
                continue;
            }
            let pos = self.rng.gen_range(first..len);
            let blk = cache.seq_blocks(seq)[(pos - first) / cache.block_rows()];
            let lane = self.rng.gen_range(0..width);
            if cache.block_ref_count(blk) == 1 && !blk.bf16 {
                return Some((rec, seq, pos, lane));
            }
        }
        None
    }

    /// Closes every open flip the engine detected this step, or whose
    /// request left the engine with the flip unseen.
    pub fn after_step(&mut self, sched: &Scheduler) {
        let step = sched.now() - 1;
        for f in self.flips.iter_mut().filter(|f| f.open) {
            let r = &sched.records()[f.rec];
            if r.quarantines > f.quarantines_before {
                f.detected_step = Some(step);
                f.open = false;
                continue;
            }
            if matches!(r.phase, Phase::Finished | Phase::Shed) {
                f.open = false;
                continue;
            }
            let cache = sched.engine().cache();
            let row = if f.key_side {
                cache.key_row(f.seq, f.pos)
            } else {
                cache.value_row(f.seq, f.pos)
            };
            if row[f.lane].to_bits() == f.original {
                f.detected_step = Some(step);
                f.open = false;
            }
        }
    }

    /// Record indices of every request a flip landed in.
    pub fn exposed(&self) -> Vec<usize> {
        let mut recs: Vec<usize> = self.flips.iter().map(|f| f.rec).collect();
        recs.sort_unstable();
        recs.dedup();
        recs
    }

    /// Steps from landing to detection, for every detected flip.
    pub fn detect_steps(&self) -> Vec<f64> {
        self.flips
            .iter()
            .filter_map(|f| f.detected_step.map(|d| (d + 1 - f.step) as f64))
            .collect()
    }

    pub fn detected(&self) -> usize {
        self.flips
            .iter()
            .filter(|f| f.detected_step.is_some())
            .count()
    }
}
