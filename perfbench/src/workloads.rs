//! The serving workloads and the metrics one served run yields.

use crate::faults::FaultSpec;
use crate::kernels;
use crate::report::{peak_rss_mib, Metric, Outcome};
use crate::serving::{request_stream, serve, Arrivals, Episode, ServingWorkload, Shape};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::twin::{compare, golden_hashes, Delivered, Verdict};
use fa_attention::batch::KvFormat;
use fa_attention::serve::{LoadSpec, Phase, Request, ServeConfig};
use std::time::Instant;

/// Set-ups timed per run; the median is reported as `setup_s`.
const SETUPS: usize = 5;

const CHAT_SHAPE: Shape = Shape {
    query_heads: 8,
    kv_heads: 2,
    head_dim: 64,
    block_rows: 16,
    format: KvFormat::F64,
    prefill_chunk: 32,
};

const LOAD: LoadSpec = LoadSpec {
    tenants: 4,
    burst_prob: 1.0,
    burst_max: 1,
    prompt_min: 32,
    prompt_max: 512,
    prompt_tail: 1.2,
    output_min: 32,
    output_max: 384,
    output_tail: 1.2,
    interactive_prob: 0.5,
    prefix_tokens: 0,
    prefix_share_prob: 0.0,
};

const SERVE: ServeConfig = ServeConfig {
    token_budget: 128,
    prefill_budget: 64,
    queue_bound: 1 << 20,
    max_kv_bytes: None,
    demote_burst_blocks: 1,
    scrub_slo_steps: None,
    recovery_log: true,
    log_budget_rows: None,
    tol: 1e-6,
    speculation_gamma: 0,
    draft_acceptance: 0.0,
};

/// Open loop, tiny batches: the fixed cost per step sets the latency.
pub const CHAT_OPEN: ServingWorkload = ServingWorkload {
    name: "chat_open",
    shape: CHAT_SHAPE,
    serve: ServeConfig {
        scrub_slo_steps: Some(32),
        ..SERVE
    },
    load: LOAD,
    arrivals: Arrivals::Open { rate_per_s: 15.0 },
    faults: None,
    slo_ttft_ms: 500.0,
    slo_gap_ms: 50.0,
};

/// Closed loop, long prompts over a mixed-format cache: chunked prefill
/// and the K sweep / V fold dominate every step.
pub const LONG_CONTEXT: ServingWorkload = ServingWorkload {
    name: "long_context",
    shape: Shape {
        head_dim: 128,
        format: KvFormat::Mixed { burst_blocks: 4 },
        ..CHAT_SHAPE
    },
    // Four prompt chunks a step: prefill keeps up with 16 clients, so a
    // request's TTFT is its own chunked prefill rather than a queue.
    serve: ServeConfig {
        token_budget: 144,
        prefill_budget: 128,
        ..SERVE
    },
    // One tenant of interactive requests: admission is first come, first
    // served, so TTFT reflects prefill work rather than fairness ties.
    load: LoadSpec {
        tenants: 1,
        interactive_prob: 1.0,
        prompt_min: 512,
        prompt_max: 1024,
        output_min: 64,
        output_max: 256,
        ..LOAD
    },
    arrivals: Arrivals::Closed {
        clients: 16,
        requests_per_s: 5.0,
        stagger_steps: 8,
    },
    faults: None,
    slo_ttft_ms: 2500.0,
    slo_gap_ms: 250.0,
};

/// Closed loop over shared system prompts with speculation and seeded
/// storage flips: writes beside reads in the paged cache.
pub const SHARED_SPEC_FAULTS: ServingWorkload = ServingWorkload {
    name: "shared_spec_faults",
    // 24-row blocks leave each 1024-token prefix's last block partly
    // filled and shared, so every reader's first append splits it.
    shape: Shape {
        block_rows: 24,
        ..CHAT_SHAPE
    },
    serve: ServeConfig {
        token_budget: 192,
        prefill_budget: 64,
        scrub_slo_steps: Some(32),
        speculation_gamma: 4,
        draft_acceptance: 0.7,
        ..SERVE
    },
    load: LoadSpec {
        prompt_min: 8,
        prompt_max: 64,
        output_min: 16,
        output_max: 128,
        prefix_tokens: 1024,
        prefix_share_prob: 0.9,
        ..LOAD
    },
    arrivals: Arrivals::Closed {
        clients: 32,
        requests_per_s: 20.0,
        stagger_steps: 2,
    },
    faults: Some(FaultSpec {
        every_steps: 25,
        low_bit: 40,
    }),
    slo_ttft_ms: 1000.0,
    slo_gap_ms: 1000.0,
};

/// Seed of the warm-up requests, shared by every run.
const WARM_UP_SEED: u64 = 0x5741_524D;
/// Requests served by one warm-up.
const WARM_UP_REQUESTS: usize = 8;

/// Shadow replays aimed for in one traced run.
const SHADOWS: usize = 60;

/// Brings the process to a ready state: serves a fixed, seed-independent
/// handful of short requests of the workload's shape to completion on a
/// throwaway scheduler, touching every code path a step takes.
fn warm_up(w: &ServingWorkload) {
    let requests: Vec<Request> = request_stream(&w.load, WARM_UP_SEED, WARM_UP_REQUESTS)
        .into_iter()
        .map(|r| Request {
            prompt_tokens: r.prompt_tokens.min(64),
            output_tokens: r.output_tokens.min(16),
            prefix_seed: None,
            prefix_tokens: 0,
            ..r
        })
        .collect();
    let mut sched = w.scheduler();
    sched.step(&requests);
    while sched
        .records()
        .iter()
        .any(|r| !matches!(r.phase, Phase::Finished | Phase::Shed))
    {
        sched.step(&[]);
    }
}

/// Serves `w` for one run and checks every delivered token against the
/// golden twin.
pub fn run(w: &ServingWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let plan = w.plan(seed, seconds);
        warm_up(w);
        let sched = w.scheduler();
        setups.push(t.elapsed().as_secs_f64());
        built = Some((plan, sched));
    }
    let (plan, mut sched) = built.expect("at least one set-up");

    let (untraced, traced) = if trace {
        let replay = plan.clone();
        let (ep, _) = serve(w, plan, seed, &mut sched, None);
        let mut sched = w.scheduler();
        let every = (ep.reports.len() / SHADOWS).max(1) as u64;
        let tracer = Tracer::new(*w, seed, every);
        let (tep, tracer) = serve(w, replay, seed, &mut sched, Some(tracer));
        (
            ep,
            Some((tep, tracer.expect("the traced run keeps its tracer"))),
        )
    } else {
        (serve(w, plan, seed, &mut sched, None).0, None)
    };
    let rss = peak_rss_mib();

    let t = Instant::now();
    let golden = golden_hashes(w, &untraced.requests);
    let twin_s = t.elapsed().as_secs_f64();
    let verdict = check(&untraced, &golden);
    let traced_verdict = traced.as_ref().map(|(ep, _)| check(ep, &golden));

    let correct = verdict.unexplained == 0
        && golden.iter().all(|g| !g.is_empty())
        && traced_verdict.as_ref().is_none_or(|v| v.unexplained == 0);
    let mut out = Outcome {
        correct,
        attempted: verdict.sent,
        failed: verdict.failed,
        ..Outcome::default()
    };
    out.note("requests_sent", verdict.sent.to_string());
    out.note("requests_succeeded", verdict.succeeded.to_string());
    out.note("requests_failed", verdict.failed.to_string());
    out.note("tokens_checked", verdict.tokens_compared.to_string());
    out.note("steps", untraced.reports.len().to_string());
    if let Some(inj) = &untraced.injector {
        out.note("flips_landed", inj.flips.len().to_string());
        out.note("flips_missed", inj.missed.to_string());
        out.note("flips_detected", inj.detected().to_string());
    }
    out.note("slo_ttft_ms", w.slo_ttft_ms.to_string());
    out.note("slo_gap_ms", w.slo_gap_ms.to_string());
    out.e2e = end_to_end(w, &untraced, &verdict, median(&setups), rss);
    if let Some((tep, tracer)) = traced {
        out.layer = layers(w, seed, &untraced, &tep, &tracer, twin_s);
        let path = std::path::PathBuf::from(format!(".bench_out/trace_{}_{seed}.jsonl", w.name));
        if let Err(e) = tracer.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        out.note("trace_file", path.display().to_string());
    }
    out
}

/// Compares one served run with the twin.
fn check(ep: &Episode, golden: &[Vec<u64>]) -> Verdict {
    let exposed = ep
        .injector
        .as_ref()
        .map(|i| i.exposed())
        .unwrap_or_default();
    let mut by_req: Vec<Option<usize>> = vec![None; ep.requests.len()];
    for (rec, &req) in ep.rec_req.iter().enumerate() {
        by_req[req] = Some(rec);
    }
    let live: Vec<Delivered<'_>> = by_req
        .iter()
        .map(|rec| match rec {
            Some(rec) => Delivered {
                finished: ep.records[*rec].phase == Phase::Finished,
                hashes: &ep.records[*rec].token_hashes,
                exposed: exposed.binary_search(rec).is_ok(),
            },
            None => Delivered {
                finished: false,
                hashes: &[],
                exposed: false,
            },
        })
        .collect();
    compare(&live, golden)
}

/// Per-request wall-clock latencies of a served run, in ms.
struct Latencies {
    ttft: Vec<f64>,
    gaps: Vec<f64>,
    slo_met: usize,
    queue_wait: Vec<f64>,
}

fn latencies(w: &ServingWorkload, ep: &Episode) -> Latencies {
    let mut l = Latencies {
        ttft: Vec::new(),
        gaps: Vec::new(),
        slo_met: 0,
        queue_wait: Vec::new(),
    };
    for (rec, &req) in ep.rec_req.iter().enumerate() {
        let r = &ep.records[rec];
        let start = ep.start_s[req];
        if let Some(a) = r.admitted_step {
            l.queue_wait
                .push((ep.step_start_s[a as usize] - start) * 1e3);
        }
        let Some(first) = r.first_token_step else {
            continue;
        };
        let ttft = (ep.step_end_s[first as usize] - start) * 1e3;
        l.ttft.push(ttft);
        let gaps: Vec<f64> = r
            .token_steps
            .windows(2)
            .map(|s| (ep.step_end_s[s[1] as usize] - ep.step_end_s[s[0] as usize]) * 1e3)
            .collect();
        let worst = gaps.iter().copied().fold(0.0, f64::max);
        if r.phase == Phase::Finished && ttft <= w.slo_ttft_ms && worst <= w.slo_gap_ms {
            l.slo_met += 1;
        }
        l.gaps.extend(gaps);
    }
    l
}

fn end_to_end(
    w: &ServingWorkload,
    ep: &Episode,
    v: &Verdict,
    setup_s: f64,
    rss: f64,
) -> Vec<Metric> {
    let l = latencies(w, ep);
    let tokens: usize = ep.reports.iter().map(|r| r.decode_tokens).sum();
    let pct = |x: usize| 100.0 * x as f64 / v.sent.max(1) as f64;
    let (nt, ng) = (l.ttft.len(), l.gaps.len());
    let mut m = vec![
        Metric::new("decode_tok_per_s", "1/s", tokens as f64 / ep.busy_s).with_samples(tokens),
        Metric::opt("ttft_p50_ms", "ms", percentile(&l.ttft, 50.0)).with_samples(nt),
        Metric::opt("ttft_p90_ms", "ms", percentile(&l.ttft, 90.0)).with_samples(nt),
        Metric::opt("ttft_p99_ms", "ms", percentile(&l.ttft, 99.0)).with_samples(nt),
        Metric::opt("itl_p50_ms", "ms", percentile(&l.gaps, 50.0)).with_samples(ng),
        Metric::opt("itl_p99_ms", "ms", percentile(&l.gaps, 99.0)).with_samples(ng),
        Metric::new("slo_attainment_pct", "%", pct(l.slo_met)).with_samples(v.sent),
        Metric::new("failed_pct", "%", pct(v.failed)).with_samples(v.sent),
        Metric::new("silent_tokens", "count", v.silent_tokens as f64),
    ];
    if let Some(inj) = &ep.injector {
        let landed = inj.flips.len();
        let detected = 100.0 * inj.detected() as f64 / landed.max(1) as f64;
        m.push(Metric::new("detected_pct", "%", detected).with_samples(landed));
    }
    m.push(Metric::new("setup_s", "s", setup_s).with_samples(SETUPS));
    m.push(Metric::new("peak_rss_mib", "MiB", rss));
    m
}

/// The prompt length the checksum-overhead probe uses for `w`: its
/// typical full prompt (shared prefix included).
fn probe_prompt(w: &ServingWorkload) -> usize {
    w.load.prefix_tokens + (w.load.prompt_min + w.load.prompt_max) / 2
}

fn layers(
    w: &ServingWorkload,
    seed: u64,
    untraced: &Episode,
    ep: &Episode,
    tr: &Tracer,
    twin_s: f64,
) -> Vec<Metric> {
    let steps = ep.reports.len().max(1) as f64;
    let sum = |f: fn(&fa_attention::serve::StepReport) -> usize| -> f64 {
        ep.reports.iter().map(f).sum::<usize>() as f64
    };
    // Step times come from the untraced run: shadow replays between
    // traced steps evict the caches the next step would have found warm.
    let step_ms: Vec<f64> = untraced
        .step_start_s
        .iter()
        .zip(&untraced.step_end_s)
        .map(|(a, b)| (b - a) * 1e3)
        .collect();
    let l = latencies(w, untraced);
    let shadow = |f: fn(&crate::trace::Shadow) -> Option<f64>| -> Vec<f64> {
        tr.shadows.iter().filter_map(f).collect()
    };
    let med = |xs: Vec<f64>| (median(&xs), xs.len());
    let step_at = |step: u64| {
        tr.spans
            .iter()
            .find(|s| s.name == "serve.step" && s.step == step)
            .map(|s| s.ms())
    };
    let self_ms: Vec<f64> = tr
        .shadows
        .iter()
        .filter_map(|sh| step_at(sh.step).map(|ms| ms - sh.engine_ms()))
        .collect();
    let g = &tr.gauges;
    let last = g.last().copied().unwrap_or_default();
    let kv_per_token: Vec<f64> = g
        .iter()
        .filter(|x| x.cached_rows > 0)
        .map(|x| x.live_kv_bytes as f64 / x.cached_rows as f64)
        .collect();
    let prefix_hit_pct = {
        let admitted: Vec<_> = ep
            .records
            .iter()
            .filter(|r| r.admitted_step.is_some())
            .collect();
        let total: usize = admitted
            .iter()
            .map(|r| r.prefix_tokens + r.prompt_tokens)
            .sum();
        let mut pairs: Vec<(u64, usize)> = admitted
            .iter()
            .filter_map(|r| r.prefix_seed.map(|s| (s, r.prefix_tokens)))
            .collect();
        let shared: usize = pairs.iter().map(|p| p.1).sum();
        pairs.sort_unstable();
        pairs.dedup();
        let registered: usize = pairs.iter().map(|p| p.1).sum();
        100.0 * (shared - registered) as f64 / total.max(1) as f64
    };
    let spec_tokens = sum(|r| r.speculated_tokens);
    let detect = ep
        .injector
        .as_ref()
        .map(|i| i.detect_steps())
        .unwrap_or_default();
    let (overhead, overhead_iqr, pairs) =
        kernels::checksum_overhead(probe_prompt(w), w.shape.head_dim, 2.0, seed);
    let untraced_per_token = untraced.busy_s
        / untraced
            .reports
            .iter()
            .map(|r| r.decode_tokens)
            .sum::<usize>()
            .max(1) as f64;
    let traced_per_token = (ep.busy_s + tr.shadow_s) / sum(|r| r.decode_tokens).max(1.0);
    let lag_ms = (0..untraced.requests.len())
        .map(|i| (untraced.submit_s[i] - untraced.start_s[i]) * 1e3)
        .fold(0.0, f64::max);
    let (dec, n_dec) = med(shadow(|s| {
        s.decode_ms
            .or(s.speculate_ms.zip(s.resolve_ms).map(|(a, b)| a + b))
    }));
    let (pre, n_pre) = med(shadow(|s| s.prefill_ms));
    let (specm, n_spec) = med(shadow(|s| s.speculate_ms));
    let (resm, n_res) = med(shadow(|s| s.resolve_ms));
    let (scrub, n_scrub) = med(shadow(|s| s.scrub_ms));
    let (audit, n_audit) = med(shadow(|s| s.audit_ms));
    let mib = |b: usize| b as f64 / (1u64 << 20) as f64;
    vec![
        Metric::opt("serve.step_ms_p50", "ms", percentile(&step_ms, 50.0))
            .with_samples(step_ms.len()),
        Metric::opt("serve.step_ms_p90", "ms", percentile(&step_ms, 90.0))
            .with_samples(step_ms.len()),
        Metric::new(
            "serve.decode_tokens_per_step",
            "count",
            sum(|r| r.decode_tokens) / steps,
        ),
        Metric::new(
            "serve.prefill_tokens_per_step",
            "count",
            sum(|r| r.prefill_tokens) / steps,
        ),
        Metric::opt(
            "serve.queue_wait_ms_p50",
            "ms",
            percentile(&l.queue_wait, 50.0),
        )
        .with_samples(l.queue_wait.len()),
        Metric::new(
            "serve.idle_pct",
            "%",
            100.0 * (1.0 - untraced.busy_s / untraced.wall_s.max(1e-9)),
        ),
        Metric::new("serve.shed", "count", sum(|r| r.shed)),
        Metric::new(
            "serve.requeues",
            "count",
            sum(|r| r.preemptions + r.quarantines),
        ),
        Metric::new("serve.self_ms_per_step", "ms", median(&self_ms)).with_samples(self_ms.len()),
        Metric::new("batch.step_decode_ms", "ms", dec).with_samples(n_dec),
        Metric::new("batch.prefill_step_ms", "ms", pre).with_samples(n_pre),
        Metric::new("batch.kv_bytes_per_token", "B", median(&kv_per_token))
            .with_samples(kv_per_token.len()),
        Metric::new(
            "batch.kv_mib_peak",
            "MiB",
            mib(g.iter().map(|x| x.live_kv_bytes).max().unwrap_or(0)),
        ),
        Metric::new(
            "batch.live_blocks_peak",
            "count",
            g.iter().map(|x| x.live_unique_blocks).max().unwrap_or(0) as f64,
        ),
        Metric::new(
            "batch.demoted_rows",
            "count",
            g.iter().map(|x| x.bf16_rows).max().unwrap_or(0) as f64,
        ),
        Metric::new(
            "batch.recycled_blocks",
            "count",
            last.recycled_blocks as f64,
        ),
        Metric::new(
            "batch.recovery_log_mib_peak",
            "MiB",
            mib(g.iter().map(|x| x.recovery_log_bytes).max().unwrap_or(0)),
        ),
        Metric::new("batch.prefix_hit_pct", "%", prefix_hit_pct),
        Metric::new("batch.cow_copies", "count", last.cow_copies as f64),
        Metric::new(
            "batch.shared_score_tiles",
            "count",
            last.shared_score_tiles as f64,
        ),
        Metric::new(
            "spec.accept_pct",
            "%",
            if spec_tokens > 0.0 {
                100.0 * sum(|r| r.spec_accepted) / spec_tokens
            } else {
                0.0
            },
        )
        .with_samples(spec_tokens as usize),
        Metric::new("spec.speculate_ms", "ms", specm).with_samples(n_spec),
        Metric::new("spec.resolve_ms", "ms", resm).with_samples(n_res),
        Metric::new(
            "scrub.blocks_per_step",
            "count",
            last.scrubbed_blocks as f64 / steps,
        ),
        Metric::new("scrub.step_ms", "ms", scrub).with_samples(n_scrub),
        Metric::new("guard.online_alarms", "count", sum(|r| r.online_alarms)),
        Metric::new("guard.scrub_findings", "count", sum(|r| r.scrub_findings)),
        Metric::new("guard.repaired_blocks", "count", sum(|r| r.repaired_blocks)),
        Metric::new("guard.quarantines", "count", sum(|r| r.quarantines)),
        Metric::new("guard.detect_steps_mean", "steps", mean(&detect)).with_samples(detect.len()),
        Metric::new(
            "guard.detect_steps_max",
            "steps",
            detect.iter().copied().fold(0.0, f64::max),
        )
        .with_samples(detect.len()),
        Metric::new("guard.audit_repair_ms", "ms", audit).with_samples(n_audit),
        Metric::new("check.overhead_pct", "%", overhead).with_samples(pairs),
        Metric::new("check.overhead_iqr_pct", "%", overhead_iqr).with_samples(pairs),
        Metric::new("par.fork_us", "us", kernels::fork_us(200)),
        Metric::new("gen.lag_ms_max", "ms", lag_ms),
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (traced_per_token / untraced_per_token - 1.0),
        ),
        Metric::new("twin.check_s", "s", twin_s),
    ]
    .into_iter()
    .chain(crate::campaign::probe(seed))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few short requests on a small engine, closed loop.
    const TINY: ServingWorkload = ServingWorkload {
        name: "tiny",
        shape: Shape {
            head_dim: 8,
            ..CHAT_SHAPE
        },
        serve: SERVE,
        load: LoadSpec {
            prompt_min: 4,
            prompt_max: 40,
            output_min: 2,
            output_max: 12,
            ..LOAD
        },
        arrivals: Arrivals::Closed {
            clients: 4,
            requests_per_s: 12.0,
            stagger_steps: 1,
        },
        faults: None,
        slo_ttft_ms: 1e3,
        slo_gap_ms: 1e3,
    };

    #[test]
    fn a_served_run_matches_its_twin_and_an_altered_token_hash_fails() {
        let mut sched = TINY.scheduler();
        let (mut ep, _) = serve(&TINY, TINY.plan(5, 1.0), 5, &mut sched, None);
        let golden = golden_hashes(&TINY, &ep.requests);
        let v = check(&ep, &golden);
        assert_eq!(
            (v.sent, v.succeeded, v.failed, v.unexplained),
            (12, 12, 0, 0)
        );
        assert!(v.tokens_compared > 0);

        ep.records[3].token_hashes[1] ^= 1 << 17;
        let v = check(&ep, &golden);
        assert_eq!((v.succeeded, v.failed, v.unexplained), (11, 1, 1));
        assert_eq!(v.silent_tokens, 0);
    }

    #[test]
    fn speculation_and_flips_leave_only_explained_differences() {
        let w = ServingWorkload {
            serve: SHARED_SPEC_FAULTS.serve,
            faults: Some(FaultSpec {
                every_steps: 3,
                low_bit: 40,
            }),
            ..TINY
        };
        let mut sched = w.scheduler();
        let (ep, _) = serve(&w, w.plan(9, 2.0), 9, &mut sched, None);
        let inj = ep.injector.as_ref().expect("faults were configured");
        assert!(!inj.flips.is_empty());
        let v = check(&ep, &golden_hashes(&w, &ep.requests));
        assert_eq!(v.unexplained, 0);
        assert_eq!(v.failed, 0);
    }
}
