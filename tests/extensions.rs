//! Integration tests for the extension features: checked decoding,
//! full locate-and-correct, the composite detector, GQA and activity
//! measurement — everything layered on top of the paper's core.

use fa_abft::composite::CompositeChecker;
use fa_accel_sim::activity::measure_activity;
use fa_accel_sim::config::AcceleratorConfig;
use fa_attention::{naive, AttentionConfig, HeadTopology};
use fa_models::{LlmModel, Workload, WorkloadSpec};
use fa_numerics::Tolerance;
use fa_tensor::{random::ElementDist, Matrix};
use flash_abft::decode::CheckedDecodeSession;
use flash_abft::localize::{
    correct_error, localize_single_error, predicted_column_checks, predicted_row_checks,
};
use flash_abft::FlashAbft;

fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
    (
        Matrix::random_seeded(n, d, ElementDist::default(), seed),
        Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
        Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
    )
}

#[test]
fn end_to_end_generation_with_per_token_checking() {
    // A realistic decode loop: prefill-free generation of 32 tokens with
    // a sliding window, every token checked, session-level check clean.
    let cfg = AttentionConfig::new(16).with_sliding_window(8);
    let (q, k, v) = rand_qkv(32, 16, 1);
    let mut session = CheckedDecodeSession::new(HeadTopology::mha(1, cfg));
    for i in 0..32 {
        let step = session.step(q.row(i), k.row(i), v.row(i)).remove(0);
        assert!(!step.report.is_alarm(), "token {i}");
        assert_eq!(step.output.len(), 16);
    }
    assert!(!session.global_report().is_alarm());
}

#[test]
fn detect_localize_correct_pipeline() {
    // The full recovery story: the fused check detects, row+column
    // checks localize, correction restores — without recomputation.
    let (q, k, v) = rand_qkv(12, 8, 10);
    let cfg = AttentionConfig::new(8);
    let engine = FlashAbft::new(cfg);
    let clean = engine.compute(&q, &k, &v).into_output();

    let mut corrupted = clean.clone();
    corrupted[(9, 2)] -= 0.75;

    // 1. Detect.
    assert!(engine.verify(&q, &k, &v, &corrupted).is_alarm());
    // 2. Localize.
    let row_checks = predicted_row_checks(&q, &k, &v, &cfg);
    let col_checks = predicted_column_checks(&q, &k, &v, &cfg);
    let err = localize_single_error(&corrupted, &row_checks, &col_checks, 1e-6)
        .expect("single error must localize");
    assert_eq!((err.row, err.col), (9, 2));
    // 3. Correct.
    correct_error(&mut corrupted, err);
    assert!(corrupted.max_abs_diff(&clean) < 1e-9);
    // 4. Re-verify.
    assert!(!engine.verify(&q, &k, &v, &corrupted).is_alarm());
}

#[test]
fn composite_detector_on_accelerator_outputs() {
    // Composite checking applied to real accelerator writebacks.
    let model = LlmModel::Bert.config();
    let w = Workload::generate(
        &model,
        WorkloadSpec {
            seq_len: 32,
            ..WorkloadSpec::paper(4)
        },
    );
    let accel = fa_accel_sim::Accelerator::new(AcceleratorConfig::new(8, model.head_dim));
    let run = accel.run(&w.q, &w.k, &w.v);
    let composite = CompositeChecker::new(
        Tolerance::Relative {
            bound: 0.05,
            floor: 1e-3,
        },
        fa_abft::extreme::ExtremeChecker::default(),
    );
    // Note: the accelerator's actual checksum taps pre-rounding values;
    // verifying the BF16 writeback needs the relative tolerance.
    let verdict = composite.verify(run.predicted, &run.output);
    assert!(!verdict.is_alarm(), "{verdict:?}");
}

#[test]
fn gqa_with_sliding_window_checked() {
    // Llama-3.1-flavoured geometry: GQA heads with a local window.
    let head = AttentionConfig::new(8)
        .with_causal(true)
        .with_sliding_window(6);
    let gqa = HeadTopology::gqa(4, 2, head);
    let n = 16;
    let q = Matrix::<f64>::random_seeded(n, gqa.q_dim(), ElementDist::default(), 20);
    let k = Matrix::<f64>::random_seeded(n, gqa.kv_dim(), ElementDist::default(), 21);
    let v = Matrix::<f64>::random_seeded(n, gqa.kv_dim(), ElementDist::default(), 22);
    let (out, reports) = flash_abft::api::gqa_checked(&q, &k, &v, &gqa, Tolerance::PAPER);
    assert!(reports.iter().all(|r| !r.is_alarm()));
    assert_eq!(out.cols(), gqa.q_dim());
    // Cross-check one head against the reference kernel.
    let reference = fa_attention::gqa::attention(&q, &k, &v, &gqa);
    assert!(out.max_abs_diff(&reference) < 1e-12);
}

#[test]
fn activity_profile_reflects_workload_structure() {
    // Adversarially sorted keys vs random keys: the rescale path must be
    // busier on the sorted workload — the effect the activity-aware
    // power model captures.
    let d = 8;
    let cfg = AcceleratorConfig::new(2, d);
    let q: Matrix<fa_numerics::BF16> = Matrix::random_seeded(4, d, ElementDist::default(), 30);
    let v: Matrix<fa_numerics::BF16> = Matrix::random_seeded(24, d, ElementDist::default(), 31);

    let random_k: Matrix<fa_numerics::BF16> =
        Matrix::random_seeded(24, d, ElementDist::default(), 32);
    let sorted_k: Matrix<fa_numerics::BF16> = Matrix::from_fn(24, d, |r, _| {
        fa_numerics::BF16::from_f32(0.05 * (r as f32 + 1.0))
    });

    let random_profile = measure_activity(&cfg, &q, &random_k, &v);
    let sorted_profile = measure_activity(&cfg, &q, &sorted_k, &v);
    assert!(
        sorted_profile.rescale_active >= random_profile.rescale_active,
        "sorted {} vs random {}",
        sorted_profile.rescale_active,
        random_profile.rescale_active
    );
}

#[test]
fn localization_composes_with_naive_reference() {
    // The column checks derive from Eq. 3 column sums: verify against a
    // brute-force recomputation for a masked configuration too.
    let (q, k, v) = rand_qkv(10, 4, 40);
    let cfg = AttentionConfig::new(4).with_causal(true);
    let out = naive::attention(&q, &k, &v, &cfg);
    let col_checks = predicted_column_checks(&q, &k, &v, &cfg);
    for (p, a) in col_checks.iter().zip(out.col_sums()) {
        assert!((p - a).abs() < 1e-10);
    }
}

#[test]
fn flash_abft_protects_attention_inside_a_full_encoder_layer() {
    // The paper's Fig. 1 context: a BERT-style encoder layer. Flash-ABFT
    // guards the attention block per head; a fault injected into the
    // attention output is caught before it propagates into the FFN.
    use fa_attention::encoder::EncoderLayer;

    let topo = HeadTopology::mha(4, AttentionConfig::new(8));
    let layer = EncoderLayer::new(topo, 77);
    let emb = Matrix::<f64>::random_seeded(24, 32, ElementDist::default(), 78);
    let out = layer.forward(&emb);

    let engine = FlashAbft::new(topo.head);
    let head = |m: &Matrix<f64>, h: usize| m.column_block(topo.q_head_cols(h));
    // Every head of the genuine attention verifies clean.
    for h in 0..4 {
        let report = engine.verify(
            &head(&out.q, h),
            &head(&out.k, h),
            &head(&out.v, h),
            &head(&out.attention, h),
        );
        assert!(!report.is_alarm(), "head {h}");
    }
    // Corrupt one element of head 2's attention output: caught.
    let mut bad = out.attention.clone();
    bad[(10, 2 * 8 + 3)] += 0.03;
    let report = engine.verify(
        &head(&out.q, 2),
        &head(&out.k, 2),
        &head(&out.v, 2),
        &head(&bad, 2),
    );
    assert!(
        report.is_alarm(),
        "corruption inside the encoder must be caught"
    );
}
