//! Continuous batching: serving sequences that arrive and finish
//! mid-flight, with the fused ABFT checksum covering every prefill and
//! decode token, and retired sequences' cache blocks recycled through
//! the head-major paged KV cache's free list.
//!
//! Run with: `cargo run --release --example continuous_batching`

use fa_attention::batch::DecodeBatch;
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};

fn main() {
    // Four heads of dimension 32; the head-major paged cache (64-row
    // blocks) gives each (sequence, head) decode pass one pure
    // contiguous K/V stream.
    let cfg = HeadTopology::mha(4, AttentionConfig::new(32));
    let dim = cfg.q_dim();
    let mut engine = DecodeBatch::<f64>::new(cfg, 64);

    let prompt = |len: usize, seed: u64| {
        (
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed),
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed + 1),
            Matrix::<f64>::random_seeded(len, dim, ElementDist::default(), seed + 2),
        )
    };

    // Admit the opening batch: all prompts × heads are checked through
    // the batched fused-checksum prefill in ONE fork (the batched form of
    // flash2_with_checksum), so admission cost amortizes across the batch.
    let prompts: Vec<_> = (0..3)
        .map(|i| prompt(24 + 16 * i, 10 * (i as u64 + 1)))
        .collect();
    let refs: Vec<_> = prompts.iter().map(|(q, k, v)| (q, k, v)).collect();
    let mut live: Vec<usize> = Vec::new();
    for admitted in engine.admit_all(&refs) {
        println!(
            "admitted seq {} ({} prompt tokens, prompt residual {:+.3e})",
            admitted.seq,
            engine.prompt_len(admitted.seq),
            admitted.residual()
        );
        assert!(admitted.residual().abs() < 1e-9, "prompt check must hold");
        live.push(admitted.seq);
    }

    let decode = |engine: &mut DecodeBatch<f64>, live: &[usize], t: u64| {
        let qs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 100 + t);
        let ks = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 200 + t);
        let vs = Matrix::<f64>::random_seeded(live.len(), dim, ElementDist::default(), 300 + t);
        for out in engine.step_all(live, &qs, &ks, &vs) {
            assert!(out.residual().abs() < 1e-9, "fused per-token check");
        }
    };

    // Decode a few tokens, then one sequence finishes: retire it. Its
    // blocks go to the free list; everyone else keeps decoding.
    for t in 0..4 {
        decode(&mut engine, &live, t);
    }
    let finished = live.remove(1);
    let verdict = engine.global_residual(finished);
    engine.retire(finished);
    println!(
        "retired seq {finished} (final residual {verdict:+.3e}); free blocks: {}",
        engine.cache().free_block_list().len()
    );

    // A new request arrives mid-flight: admission reuses the retired
    // slot and its recycled blocks — the arena does not grow.
    let arena_before = engine.cache().allocated_blocks();
    let (q, k, v) = prompt(40, 99);
    let admitted = engine.admit(&q, &k, &v);
    live.push(admitted.seq);
    println!(
        "admitted replacement as seq {} — recycled {} blocks, arena {} -> {} blocks",
        admitted.seq,
        engine.cache().recycled_blocks(),
        arena_before,
        engine.cache().allocated_blocks(),
    );
    assert!(engine.cache().recycled_blocks() > 0, "blocks were reused");

    for t in 4..8 {
        decode(&mut engine, &live, t);
    }

    // Session verdicts: the running checksum covers each sequence's
    // admitted prompt AND every checked decode token.
    println!("session verdicts (prompt + decode coverage):");
    for &id in &live {
        println!(
            "  seq {id}: {} prompt + {} decoded tokens, residual {:+.3e}, unchecked {}",
            engine.prompt_len(id),
            engine.decoded_len(id),
            engine.global_residual(id),
            engine.unchecked_len(id),
        );
        assert!(engine.global_residual(id).abs() < 1e-8);
        assert_eq!(engine.unchecked_len(id), 0, "full coverage");
    }
    println!("all continuous-batching checksums verified");
}
