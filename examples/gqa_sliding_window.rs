//! Extension features: checked grouped-query attention (what Llama-3.1
//! actually deploys) and sliding-window (local) attention — the checksum
//! identity holds under both.
//!
//! Run with: `cargo run --release --example gqa_sliding_window`

use fa_attention::{AttentionConfig, HeadTopology};
use fa_numerics::Tolerance;
use fa_tensor::{random::ElementDist, Matrix};
use flash_abft::api::gqa_checked;
use flash_abft::FlashAbft;

fn main() {
    // --- GQA: 8 query heads sharing 2 KV heads (Llama-style), d=32.
    let gqa = HeadTopology::gqa(8, 2, AttentionConfig::new(32));
    let n = 64;
    let q = Matrix::<f64>::random_seeded(n, gqa.q_dim(), ElementDist::default(), 1);
    let k = Matrix::<f64>::random_seeded(n, gqa.kv_dim(), ElementDist::default(), 2);
    let v = Matrix::<f64>::random_seeded(n, gqa.kv_dim(), ElementDist::default(), 3);

    let (out, reports) = gqa_checked(&q, &k, &v, &gqa, Tolerance::PAPER);
    println!(
        "GQA: {} query heads / {} KV heads (group size {}), output {}x{}",
        gqa.query_heads,
        gqa.kv_heads,
        gqa.group_size(),
        out.rows(),
        out.cols()
    );
    for (h, r) in reports.iter().enumerate() {
        println!(
            "  head {h} (KV group {}): residual {:.2e}, alarm {}",
            gqa.group_of(h),
            r.residual().abs(),
            r.is_alarm()
        );
    }
    assert!(reports.iter().all(|r| !r.is_alarm()));

    // --- Sliding-window attention (Gemma2-style local layer).
    println!();
    let local = AttentionConfig::new(32)
        .with_causal(true)
        .with_sliding_window(16);
    let q1 = Matrix::<f64>::random_seeded(n, 32, ElementDist::default(), 10);
    let k1 = Matrix::<f64>::random_seeded(n, 32, ElementDist::default(), 11);
    let v1 = Matrix::<f64>::random_seeded(n, 32, ElementDist::default(), 12);
    let engine = FlashAbft::new(local);
    let checked = engine.compute(&q1, &k1, &v1);
    println!(
        "sliding window 16, causal: residual {:.2e}, alarm {}",
        checked.report().residual().abs(),
        checked.report().is_alarm()
    );
    assert!(!checked.report().is_alarm());

    // Detection still works under the mask: corrupt and re-verify.
    let mut corrupted = checked.output().clone();
    corrupted[(40, 7)] -= 0.02;
    let verdict = engine.verify(&q1, &k1, &v1, &corrupted);
    println!(
        "after corrupting one masked-attention output: residual {:.2e}, alarm {}",
        verdict.residual().abs(),
        verdict.is_alarm()
    );
    assert!(verdict.is_alarm());
}
