//! `table1_campaign`: the paper's Table I — single-fault campaigns at
//! N=256 on the four paper models under the paper's criterion — driven
//! through `fa_accel_sim::Accelerator` and `fa_fault`.

use crate::report::{Metric, Outcome};
use crate::serving::mix;
use crate::stats::median;
use fa_accel_sim::config::AcceleratorConfig;
use fa_accel_sim::fault::Fault;
use fa_accel_sim::{Accelerator, RunResult};
use fa_attention::flash2;
use fa_fault::campaign::run_one;
use fa_fault::{classify, CampaignSpec, CampaignStats};
use fa_models::{LlmModel, Workload, WorkloadSpec, PAPER_MODELS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;

/// Campaigns per model in one round; every round repeats the same set.
const CAMPAIGNS_PER_MODEL: usize = 48;
/// Parallel query blocks of the simulated accelerator (the paper's 16).
const PARALLEL_QUERIES: usize = 16;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 3;

struct Model {
    workload: Workload,
    spec: CampaignSpec,
    accel: Accelerator,
    golden: RunResult,
}

fn setup(seed: u64) -> Vec<Model> {
    setup_models(&PAPER_MODELS, seed)
}

fn setup_models(models: &[LlmModel], seed: u64) -> Vec<Model> {
    models
        .iter()
        .map(|m| {
            let cfg = m.config();
            let workload = Workload::generate(&cfg, WorkloadSpec::paper(mix(seed, 7)));
            let accel_cfg = AcceleratorConfig::new(PARALLEL_QUERIES, cfg.head_dim);
            let spec = CampaignSpec::new(accel_cfg, CAMPAIGNS_PER_MODEL, mix(seed, 8));
            let accel = Accelerator::new(accel_cfg);
            let golden = accel.run(&workload.q, &workload.k, &workload.v);
            Model {
                workload,
                spec,
                accel,
                golden,
            }
        })
        .collect()
}

/// One round: every model's campaign set on the rayon pool.
fn round(models: &[Model]) -> Vec<CampaignStats> {
    models
        .iter()
        .map(|m| {
            (0..m.spec.campaigns)
                .into_par_iter()
                .map(|i| {
                    let mut s = CampaignStats::default();
                    s.record(&run_one(&m.spec, &m.accel, &m.workload, &m.golden, i).0);
                    s
                })
                .reduce(CampaignStats::default, |mut a, b| {
                    a.merge(&b);
                    a
                })
        })
        .collect()
}

fn total(stats: &[CampaignStats]) -> CampaignStats {
    let mut t = CampaignStats::default();
    for s in stats {
        t.merge(s);
    }
    t
}

/// Whether the golden accelerator pass matches the software kernel: the
/// pre-rounding row sums agree with FlashAttention-2 in f64 and the
/// checker's residual is clean.
fn golden_matches_kernel(m: &Model) -> bool {
    let w = &m.workload;
    let cfg = fa_attention::AttentionConfig::new(w.head_dim());
    let reference = flash2::attention(&w.q.to_f64(), &w.k.to_f64(), &w.v.to_f64(), &cfg);
    (0..w.seq_len()).all(|i| {
        let expected: f64 = reference.row(i).iter().sum();
        (m.golden.per_query_row_sums[i] - expected).abs() < 1e-9
    }) && m.golden.residual().abs() < 1e-6
}

/// The faults `run_one` samples for campaign `i` (same stream, same
/// order), so the traced run can time simulation and classification
/// separately.
fn sampled_fault(m: &Model, i: usize) -> Fault {
    let mut rng = StdRng::seed_from_u64(
        m.spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
    );
    let map = m.accel.storage_map();
    let n = m.workload.seq_len();
    let total_cycles = m.spec.accel.total_cycles(n, n);
    let bit_index = rng.gen_range(0..map.total_bits());
    let (target, bit) = map.locate_bit(bit_index);
    let cycle = rng.gen_range(0..total_cycles);
    Fault { cycle, target, bit }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut models = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        models = setup(seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    let golden_ok = models.iter().all(golden_matches_kernel);

    let t = Instant::now();
    let first = round(&models);
    let mut rounds = 1;
    let mut deterministic = true;
    while t.elapsed().as_secs_f64() < seconds {
        deterministic &= round(&models) == first;
        rounds += 1;
    }
    let elapsed = t.elapsed().as_secs_f64();
    let rss = crate::report::peak_rss_mib();

    // Twin: the same campaigns on one thread must classify identically.
    let t_twin = Instant::now();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    let twin = pool.install(|| round(&models));
    let twin_s = t_twin.elapsed().as_secs_f64();
    let twin_ok = twin == first;

    let stats = total(&first);
    let sent = CAMPAIGNS_PER_MODEL * models.len();
    let correct = golden_ok && deterministic && twin_ok;
    let mut out = Outcome {
        correct,
        attempted: sent,
        failed: if correct { 0 } else { sent },
        ..Outcome::default()
    };
    out.note("campaigns_sent", sent.to_string());
    out.note("campaigns_succeeded", (sent - out.failed).to_string());
    out.note("campaigns_failed", out.failed.to_string());
    out.note("rounds", rounds.to_string());
    out.note("golden_matches_kernel", golden_ok.to_string());
    out.note("rounds_identical", deterministic.to_string());
    out.note("twin_identical", twin_ok.to_string());
    out.e2e = vec![
        Metric::new("campaigns_per_s", "1/s", (sent * rounds) as f64 / elapsed),
        Metric::new(
            "detected_pct",
            "%",
            stats.pct_of_consequential(stats.detected),
        )
        .with_samples(stats.consequential() as usize),
        Metric::new("setup_s", "s", median(&setups)).with_samples(SETUPS),
        Metric::new("peak_rss_mib", "MiB", rss),
    ];
    if trace {
        let (layers, traced_s) = simulator_layers(&models);
        out.layer = layers;
        let traced_per_campaign = traced_s / sent as f64;
        out.layer.push(Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (traced_per_campaign / (twin_s / sent as f64) - 1.0),
        ));
        out.layer.push(Metric::new("twin.check_s", "s", twin_s));
    }
    out
}

/// Per-layer metrics from spans around `Accelerator::run`,
/// `Accelerator::run_faulted` and `classify`, replayed one campaign at a
/// time over every model's campaign set (the faults `run_one` samples).
/// Also returns the replay's wall time, golden passes excluded.
fn simulator_layers(models: &[Model]) -> (Vec<Metric>, f64) {
    let mut golden_ms = Vec::new();
    let mut faulted_ms = Vec::new();
    let mut classify_ms = Vec::new();
    let mut stats = CampaignStats::default();
    let t = Instant::now();
    for m in models {
        let w = &m.workload;
        let s = Instant::now();
        let golden = m.accel.run(&w.q, &w.k, &w.v);
        golden_ms.push(s.elapsed().as_secs_f64() * 1e3);
        for i in 0..m.spec.campaigns {
            let fault = sampled_fault(m, i);
            let s = Instant::now();
            let faulty = m
                .accel
                .run_faulted(&w.q, &w.k, &w.v, &[fault], Some(&golden));
            faulted_ms.push(s.elapsed().as_secs_f64() * 1e3);
            let s = Instant::now();
            let c = classify(
                &golden,
                &faulty,
                fault.target.is_checker(),
                m.spec.criterion,
                m.spec.tolerance,
                m.spec.output_tolerance,
            );
            classify_ms.push(s.elapsed().as_secs_f64() * 1e3);
            stats.record(&c);
        }
    }
    // The golden passes are set-up work the untraced rounds do not repeat.
    let elapsed = t.elapsed().as_secs_f64() - golden_ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        Metric::new("accel.golden_run_ms", "ms", median(&golden_ms)).with_samples(golden_ms.len()),
        Metric::new("accel.run_faulted_ms", "ms", median(&faulted_ms))
            .with_samples(faulted_ms.len()),
        Metric::new("fault.classify_ms", "ms", median(&classify_ms))
            .with_samples(classify_ms.len()),
        Metric::new("fault.masked_pct", "%", stats.pct_of_total(stats.masked))
            .with_samples(stats.total() as usize),
        Metric::new(
            "fault.silent_pct",
            "%",
            stats.pct_of_consequential(stats.silent),
        )
        .with_samples(stats.consequential() as usize),
        Metric::new(
            "fault.false_positive_pct",
            "%",
            stats.pct_of_consequential(stats.false_positive),
        )
        .with_samples(stats.consequential() as usize),
    ];
    (metrics, elapsed)
}

/// The simulator probe of a serving workload's traced run: the first
/// paper model's campaign set (BERT, d=64, N=256), replayed with spans.
pub fn probe(seed: u64) -> Vec<Metric> {
    simulator_layers(&setup_models(&PAPER_MODELS[..1], seed)).0
}
