//! The outside-in layer trace of a served run.
//!
//! Every `Scheduler::step` becomes a span carrying its `StepReport`
//! counts and the engine gauges read through `Scheduler::engine()`. At
//! sampled steps the tracer clones the live engine and replays the
//! step's engine calls on the clone — prefill, decode (or speculate and
//! resolve), scrub, and one audit-and-repair — as shadow spans, with the
//! live decoding set and shapes; the served stream is never touched.
//! Spans stay in memory and are written out when the run ends.

use crate::serving::{mix, ServingWorkload};
use fa_attention::batch::DecodeBatch;
use fa_attention::serve::{Scheduler, StepReport};
use fa_tensor::{random::ElementDist, Matrix};
use std::io::Write;
use std::time::Instant;

/// One recorded span. Shadow spans name their step span as parent.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub step: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Engine gauges after one step.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub live_kv_bytes: usize,
    pub live_unique_blocks: usize,
    pub cached_rows: usize,
    pub bf16_rows: usize,
    pub recovery_log_bytes: usize,
    pub recycled_blocks: usize,
    pub cow_copies: usize,
    pub shared_score_tiles: u64,
    pub scrubbed_blocks: u64,
}

fn gauges(sched: &Scheduler) -> Gauges {
    let e = sched.engine();
    let cache = e.cache();
    let live: Vec<usize> = (0..e.num_sequences())
        .filter(|&s| !e.is_retired(s))
        .collect();
    Gauges {
        live_kv_bytes: cache.live_kv_bytes(),
        live_unique_blocks: cache.live_unique_blocks(),
        cached_rows: live.iter().map(|&s| e.seq_len(s)).sum(),
        bf16_rows: live.iter().map(|&s| e.demoted_len(s)).sum(),
        recovery_log_bytes: e.recovery_log_bytes(),
        recycled_blocks: cache.recycled_blocks(),
        cow_copies: cache.cow_copies(),
        shared_score_tiles: e.shared_score_tiles(),
        scrubbed_blocks: e.scrubbed_blocks(),
    }
}

/// Shadow timings of one sampled step, in ms (`None` when the step had
/// nothing for that call to do).
#[derive(Clone, Copy, Debug, Default)]
pub struct Shadow {
    pub step: u64,
    pub prefill_ms: Option<f64>,
    pub decode_ms: Option<f64>,
    pub speculate_ms: Option<f64>,
    pub resolve_ms: Option<f64>,
    pub scrub_ms: Option<f64>,
    pub audit_ms: Option<f64>,
}

impl Shadow {
    /// The engine time of the step the shadow replays.
    pub fn engine_ms(&self) -> f64 {
        [
            self.prefill_ms,
            self.decode_ms,
            self.speculate_ms,
            self.resolve_ms,
            self.scrub_ms,
        ]
        .iter()
        .flatten()
        .sum()
    }
}

pub struct Tracer {
    w: ServingWorkload,
    seed: u64,
    sample_every: u64,
    pub spans: Vec<Span>,
    pub gauges: Vec<Gauges>,
    pub shadows: Vec<Shadow>,
    /// Wall time spent cloning and replaying shadows.
    pub shadow_s: f64,
    pending_shadow: Option<(Shadow, Vec<Span>)>,
}

impl Tracer {
    pub fn new(w: ServingWorkload, seed: u64, sample_every: u64) -> Tracer {
        Tracer {
            w,
            seed,
            sample_every,
            spans: Vec::new(),
            gauges: Vec::new(),
            shadows: Vec::new(),
            shadow_s: 0.0,
            pending_shadow: None,
        }
    }

    /// Replays the coming step on a clone of the engine at sampled steps.
    pub fn before_step(&mut self, sched: &Scheduler, t0: Instant) {
        let step = sched.now();
        if !step.is_multiple_of(self.sample_every) {
            return;
        }
        let begin = t0.elapsed().as_secs_f64();
        let mut spans = Vec::new();
        let timed = |name: &'static str, spans: &mut Vec<Span>, f: &mut dyn FnMut() -> f64| {
            let s0 = t0.elapsed().as_secs_f64();
            let count = f();
            let s1 = t0.elapsed().as_secs_f64();
            spans.push(Span {
                name,
                start_s: s0,
                end_s: s1,
                parent: None,
                step,
                counts: vec![("work", count)],
            });
            (s1 - s0) * 1e3
        };
        let mut e = sched.engine().clone();
        let mut sh = Shadow {
            step,
            ..Shadow::default()
        };
        let gamma = self.w.serve.speculation_gamma.max(1);
        let decoding: Vec<usize> = sched
            .active_decoding()
            .into_iter()
            .map(|(_, s)| s)
            .filter(|&s| !e.is_pending(s))
            .collect();
        // A clone's vectors have no spare capacity, so its first appends
        // would reallocate every arena and per-sequence log. Grow them
        // first with a speculative window that is rolled back whole,
        // which restores the engine state exactly.
        if !decoding.is_empty() {
            let pad = gamma + 1;
            e.reserve_rows(decoding.len() * pad + self.w.serve.token_budget);
            let (qs, ks, vs) = self.rows(&e, decoding.len() * pad, mix(step, 0x9AD));
            e.speculate(&decoding, &qs, &ks, &vs, pad);
            e.resolve_speculation(&vec![0; decoding.len()]);
        }

        // Prefill set: pending prompts in slot order under the prefill
        // share, the first one always advancing (the scheduler's rule).
        let chunk = e.prefill_chunk();
        let mut prefill_set = Vec::new();
        let mut claim = 0;
        for s in 0..e.num_sequences() {
            if e.is_retired(s) || !e.is_pending(s) {
                continue;
            }
            let p = e.pending_len(s).min(chunk);
            if claim > 0 && claim + p > self.w.serve.prefill_budget {
                continue;
            }
            claim += p;
            prefill_set.push(s);
        }
        if !prefill_set.is_empty() {
            sh.prefill_ms = Some(timed("batch.prefill_step_for", &mut spans, &mut || {
                e.prefill_step_for(&prefill_set) as f64
            }));
        }

        // Decode set: the live decoding requests, as many as the rest of
        // the token budget admits.
        let room = self.w.serve.token_budget.saturating_sub(claim) / gamma;
        let seqs: Vec<usize> = decoding.into_iter().take(room).collect();
        if !seqs.is_empty() {
            let (qs, ks, vs) = self.rows(&e, seqs.len() * gamma, mix(self.seed, step));
            if gamma >= 2 {
                let accepted = vec![
                    (self.w.serve.draft_acceptance * gamma as f64).round() as usize;
                    seqs.len()
                ];
                sh.speculate_ms = Some(timed("batch.speculate", &mut spans, &mut || {
                    e.speculate(&seqs, &qs, &ks, &vs, gamma).len() as f64
                }));
                sh.resolve_ms = Some(timed("batch.resolve_speculation", &mut spans, &mut || {
                    e.resolve_speculation(&accepted).len() as f64
                }));
            } else {
                sh.decode_ms = Some(timed("batch.step_decode", &mut spans, &mut || {
                    e.step_decode(&seqs, &qs, &ks, &vs).len() as f64
                }));
            }
        }

        if e.scrub_policy().is_some() && e.live_blocks() > 0 {
            sh.scrub_ms = Some(timed("batch.scrub_step", &mut spans, &mut || {
                e.scrub_step().len() as f64
            }));
        }

        // One full audit-and-repair of the longest decoding sequence: what
        // the scheduler pays whenever a scrub finding lands on it.
        let longest = seqs.iter().copied().max_by_key(|&s| e.seq_len(s));
        if let Some(s) = longest.filter(|_| e.recovery_log_enabled()) {
            let tol = self.w.serve.tol;
            sh.audit_ms = Some(timed("batch.audit_and_repair", &mut spans, &mut || {
                e.audit_and_repair(s, tol).blocks_recovered as f64
            }));
        }
        drop(e);
        self.shadow_s += t0.elapsed().as_secs_f64() - begin;
        self.pending_shadow = Some((sh, spans));
    }

    /// Random Q/K/V rows of the engine's widths.
    fn rows(
        &self,
        e: &DecodeBatch<f64>,
        n: usize,
        lane: u64,
    ) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let topo = *e.config();
        let dist = ElementDist::default();
        (
            Matrix::random_seeded(n, topo.q_dim(), dist, mix(lane, 1)),
            Matrix::random_seeded(n, topo.kv_dim(), dist, mix(lane, 2)),
            Matrix::random_seeded(n, topo.kv_dim(), dist, mix(lane, 3)),
        )
    }

    /// Records the step span, its counts, and the engine gauges.
    pub fn after_step(&mut self, sched: &Scheduler, rep: &StepReport, s0: f64, s1: f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: "serve.step",
            start_s: s0,
            end_s: s1,
            parent: None,
            step: rep.step,
            counts: vec![
                ("arrived", rep.arrived as f64),
                ("admitted", rep.admitted as f64),
                ("prefill_tokens", rep.prefill_tokens as f64),
                ("decode_tokens", rep.decode_tokens as f64),
                ("finished", rep.finished as f64),
                ("shed", rep.shed as f64),
                ("online_alarms", rep.online_alarms as f64),
                ("scrub_findings", rep.scrub_findings as f64),
                ("repaired_blocks", rep.repaired_blocks as f64),
                ("quarantines", rep.quarantines as f64),
                ("preemptions", rep.preemptions as f64),
                ("speculated_tokens", rep.speculated_tokens as f64),
                ("spec_accepted", rep.spec_accepted as f64),
            ],
        });
        if let Some((sh, shadow_spans)) = self.pending_shadow.take() {
            self.shadows.push(sh);
            self.spans.extend(shadow_spans.into_iter().map(|s| Span {
                parent: Some(id),
                ..s
            }));
        }
        self.gauges.push(gauges(sched));
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"step\":{},\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"counts\":{{{}}}}}",
                s.name,
                s.step,
                s.start_s,
                s.end_s,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}
