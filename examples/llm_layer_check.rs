//! Checked multi-head attention for the four LLM layers the paper
//! evaluates (Bert, Phi-3-mini, Llama-3.1, Gemma2), with per-head
//! verification reports — the deployment scenario motivating Flash-ABFT.
//!
//! Run with: `cargo run --release --example llm_layer_check`

use fa_attention::HeadTopology;
use fa_models::{Workload, WorkloadSpec, PAPER_MODELS};
use fa_numerics::Tolerance;
use fa_tensor::{random::ElementDist, Matrix};
use flash_abft::api::gqa_checked;

fn main() {
    let seq_len = 128;
    for model in PAPER_MODELS {
        let cfg = model.config();
        // Keep the example fast: 4 heads of the layer, full head_dim.
        let heads = cfg.num_heads.min(4);
        let mh = HeadTopology::mha(heads, cfg.attention());
        let dim = mh.q_dim();
        let q = Matrix::<f64>::random_seeded(seq_len, dim, ElementDist::default(), 10);
        let k = Matrix::<f64>::random_seeded(seq_len, dim, ElementDist::default(), 11);
        let v = Matrix::<f64>::random_seeded(seq_len, dim, ElementDist::default(), 12);

        let (out, reports) = gqa_checked(&q, &k, &v, &mh, Tolerance::PAPER);
        let alarms = reports.iter().filter(|r| r.is_alarm()).count();
        let worst = reports
            .iter()
            .map(|r| r.residual().abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} d={:<3} heads checked={} | output {}x{} | alarms {} | worst residual {:.2e}",
            cfg.name,
            cfg.head_dim,
            heads,
            out.rows(),
            out.cols(),
            alarms,
            worst
        );
        assert_eq!(alarms, 0, "fault-free layers must verify clean");
    }

    println!();
    println!("BF16 accelerator inputs (the paper's datapath format) with a");
    println!("format-appropriate relative tolerance:");
    let model = PAPER_MODELS[2].config(); // Llama-3.1
    let w = Workload::generate(&model, WorkloadSpec::paper(99));
    let engine =
        flash_abft::FlashAbft::new(model.attention()).with_tolerance(Tolerance::Relative {
            bound: 0.05,
            floor: 1e-3,
        });
    let checked = engine.compute(&w.q, &w.k, &w.v);
    println!(
        "{}: N={} BF16 head | residual {:.2e} | alarm {}",
        model.name,
        w.seq_len(),
        checked.report().residual().abs(),
        checked.report().is_alarm()
    );
    assert!(!checked.report().is_alarm());
}
