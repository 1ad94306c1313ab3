//! The encoder-only transformer layer of the paper's Fig. 1.
//!
//! "The input embedding is first projected to Query (Q), Key (K) and
//! Value (V) matrices through a linear transformation. ... To complete
//! self-attention the output is normalized and added to the input of the
//! attention block. The self-attention block is followed by a
//! feed-forward block that consists of two fully-connected layers that
//! are separated by a GELU activation function" (§I). This module builds
//! that layer so examples and integration tests can exercise Flash-ABFT
//! inside its real architectural context (e.g. BERT-base stacks twelve
//! of these).

use crate::gqa;
use crate::topology::HeadTopology;
use fa_tensor::{random::ElementDist, Matrix, Scalar};

/// Layer normalization over the last dimension: per row,
/// `(x − mean)/√(var + ε)`, with learned scale/shift.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
    epsilon: f64,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm (γ=1, β=0) of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            epsilon: 1e-5,
        }
    }

    /// Width this norm expects.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Applies the normalization row-wise.
    ///
    /// # Panics
    ///
    /// Panics if the matrix width differs from [`Self::dim`].
    pub fn forward<T: Scalar>(&self, x: &Matrix<T>) -> Matrix<f64> {
        assert_eq!(x.cols(), self.dim(), "width mismatch in LayerNorm");
        let mut out = x.to_f64();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let n = row.len() as f64;
            let mean = row.iter().sum::<f64>() / n;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            let inv = 1.0 / (var + self.epsilon).sqrt();
            for (v, (g, b)) in row.iter_mut().zip(self.gamma.iter().zip(&self.beta)) {
                *v = (*v - mean) * inv * g + b;
            }
        }
        out
    }
}

/// Exact GELU activation: `x · Φ(x)` with the Gaussian CDF via `erf`.
pub fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (|error| < 1.5×10⁻⁷ — far below BF16 resolution).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// A dense layer `y = x·W + b` with deterministic Xavier-style init.
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Matrix<f64>,
    bias: Vec<f64>,
}

impl Linear {
    /// Creates a layer with seeded Gaussian weights scaled by
    /// `1/√in_dim` and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be positive");
        let dist = ElementDist::Gaussian {
            std_dev: 1.0 / (in_dim as f64).sqrt(),
        };
        Linear {
            weight: Matrix::random_seeded(in_dim, out_dim, dist, seed),
            bias: vec![0.0; out_dim],
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the layer's input width.
    pub fn forward(&self, x: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(x.cols(), self.weight.rows(), "width mismatch in Linear");
        let mut out = x.matmul(&self.weight);
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        out
    }
}

/// One encoder layer (Fig. 1): QKV projection → multi-head attention →
/// residual + LayerNorm → FFN (Linear→GELU→Linear) → residual +
/// LayerNorm. The K/V projections are `kv_dim` wide, so a grouped
/// topology projects each token to its `kv_heads` shared K/V heads.
#[derive(Clone, Debug)]
pub struct EncoderLayer {
    topo: HeadTopology,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    norm1: LayerNorm,
    ffn1: Linear,
    ffn2: Linear,
    norm2: LayerNorm,
}

impl EncoderLayer {
    /// Builds a layer for model dimension `topo.q_dim()` with an FFN
    /// hidden width of 4× (the BERT ratio), deterministically seeded.
    pub fn new(topo: HeadTopology, seed: u64) -> Self {
        let dim = topo.q_dim();
        EncoderLayer {
            topo,
            wq: Linear::new(dim, dim, seed),
            wk: Linear::new(dim, topo.kv_dim(), seed + 1),
            wv: Linear::new(dim, topo.kv_dim(), seed + 2),
            wo: Linear::new(dim, dim, seed + 3),
            norm1: LayerNorm::new(dim),
            ffn1: Linear::new(dim, 4 * dim, seed + 4),
            ffn2: Linear::new(4 * dim, dim, seed + 5),
            norm2: LayerNorm::new(dim),
        }
    }

    /// The head topology.
    pub fn config(&self) -> &HeadTopology {
        &self.topo
    }

    /// Forward pass over embeddings (N × model_dim). Also returns the
    /// projected Q/K/V so a checker can verify the attention block
    /// (the deployment point of Flash-ABFT).
    ///
    /// # Panics
    ///
    /// Panics if the embedding width differs from the model dimension.
    pub fn forward(&self, embeddings: &Matrix<f64>) -> EncoderOutput {
        assert_eq!(
            embeddings.cols(),
            self.topo.q_dim(),
            "embedding width mismatch"
        );
        let q = self.wq.forward(embeddings);
        let k = self.wk.forward(embeddings);
        let v = self.wv.forward(embeddings);
        let attn = gqa::attention(&q, &k, &v, &self.topo);
        let projected = self.wo.forward(&attn);

        // Residual + norm 1.
        let mut resid1 = projected.clone();
        for r in 0..resid1.rows() {
            for c in 0..resid1.cols() {
                resid1[(r, c)] += embeddings[(r, c)];
            }
        }
        let normed1 = self.norm1.forward(&resid1);

        // FFN with GELU.
        let hidden = self.ffn1.forward(&normed1).map(gelu);
        let ffn_out = self.ffn2.forward(&hidden);

        // Residual + norm 2.
        let mut resid2 = ffn_out;
        for r in 0..resid2.rows() {
            for c in 0..resid2.cols() {
                resid2[(r, c)] += normed1[(r, c)];
            }
        }
        let output = self.norm2.forward(&resid2);

        EncoderOutput {
            output,
            q,
            k,
            v,
            attention: attn,
        }
    }
}

/// Result of one encoder-layer forward pass, exposing the attention
/// block's operands for checking.
#[derive(Clone, Debug)]
pub struct EncoderOutput {
    /// The layer output (N × model_dim).
    pub output: Matrix<f64>,
    /// Projected queries.
    pub q: Matrix<f64>,
    /// Projected keys.
    pub k: Matrix<f64>,
    /// Projected values.
    pub v: Matrix<f64>,
    /// The (unprojected) multi-head attention output.
    pub attention: Matrix<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttentionConfig;

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(8);
        let x = Matrix::<f64>::from_fn(4, 8, |r, c| (r * 8 + c) as f64 * 3.0 + 5.0);
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f64 = row.iter().sum::<f64>() / 8.0;
            let var: f64 = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 8.0;
            assert!(mean.abs() < 1e-12, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.841345).abs() < 1e-4);
        assert!((gelu(-1.0) + 0.158655).abs() < 1e-4);
        // Asymptotics: identity for large x, zero for very negative x.
        assert!((gelu(6.0) - 6.0).abs() < 1e-6);
        assert!(gelu(-6.0).abs() < 1e-6);
    }

    #[test]
    fn erf_matches_tabulated_values() {
        for (x, expected) in [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
        ] {
            assert!((erf(x) - expected).abs() < 2e-7, "erf({x})");
            assert!((erf(-x) + expected).abs() < 2e-7, "erf(-{x})");
        }
    }

    #[test]
    fn linear_layer_shapes_and_bias() {
        let mut layer = Linear::new(4, 6, 1);
        layer.bias = vec![1.0; 6];
        let x = Matrix::<f64>::zeros(3, 4);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
        assert!(
            y.as_slice().iter().all(|&v| v == 1.0),
            "zero input + unit bias"
        );
    }

    #[test]
    fn encoder_layer_forward_is_sane() {
        let topo = HeadTopology::mha(2, AttentionConfig::new(4));
        let layer = EncoderLayer::new(topo, 42);
        let emb = Matrix::<f64>::random_seeded(6, 8, ElementDist::Gaussian { std_dev: 1.0 }, 7);
        let out = layer.forward(&emb);
        assert_eq!((out.output.rows(), out.output.cols()), (6, 8));
        assert!(out.output.all_finite());
        // Output rows are LayerNorm'd: zero mean.
        for r in 0..6 {
            let mean: f64 = out.output.row(r).iter().sum::<f64>() / 8.0;
            assert!(mean.abs() < 1e-10);
        }
        // Exposed Q/K/V have the right shape for checking.
        assert_eq!(out.q.cols(), 8);
        assert_eq!(out.attention.cols(), 8);
    }

    #[test]
    fn encoder_is_deterministic_per_seed() {
        let topo = HeadTopology::mha(2, AttentionConfig::new(4));
        let emb = Matrix::<f64>::random_seeded(4, 8, ElementDist::default(), 9);
        let a = EncoderLayer::new(topo, 1).forward(&emb);
        let b = EncoderLayer::new(topo, 1).forward(&emb);
        assert_eq!(a.output, b.output);
        let c = EncoderLayer::new(topo, 2).forward(&emb);
        assert_ne!(a.output, c.output);
    }

    #[test]
    fn attention_inside_encoder_is_checkable() {
        // The deployment point: verify the attention block of a real
        // encoder layer per head with Flash-ABFT-style row checks.
        let topo = HeadTopology::mha(2, AttentionConfig::new(4));
        let layer = EncoderLayer::new(topo, 10);
        let emb = Matrix::<f64>::random_seeded(5, 8, ElementDist::default(), 11);
        let out = layer.forward(&emb);
        for h in 0..2 {
            let cols = topo.q_head_cols(h);
            let qh = out.q.column_block(cols.clone());
            let kh = out.k.column_block(cols.clone());
            let vh = out.v.column_block(cols.clone());
            let ah = out.attention.column_block(cols);
            // Row-sum identity: Σ_j attn_ij equals the Eq. 8 check.
            let reference = crate::naive::attention(&qh, &kh, &vh, &topo.head);
            assert!(ah.max_abs_diff(&reference) < 1e-12, "head {h}");
        }
    }
}
