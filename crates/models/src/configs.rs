//! The four evaluated LLM attention-layer configurations (paper §IV-B).

use fa_attention::{AttentionConfig, HeadTopology};

/// The LLMs of the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LlmModel {
    /// BERT-base: head dimension 64 (12 heads × 64 = 768 model dim).
    Bert,
    /// Phi-3-mini: head dimension 96.
    Phi3Mini,
    /// Llama-3.1: head dimension 128.
    Llama31,
    /// Gemma2: head dimension 256.
    Gemma2,
}

/// Per-model attention-layer parameters.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Which model.
    pub model: LlmModel,
    /// Display name.
    pub name: &'static str,
    /// Per-head hidden dimension d (the paper's independent variable).
    pub head_dim: usize,
    /// Number of (query) attention heads in the first layer.
    pub num_heads: usize,
    /// Number of key/value heads: equal to `num_heads` for MHA models
    /// (BERT, Phi-3-mini), smaller for the grouped-query models — each
    /// kv head's K/V stream (and its `sumrow(V)` checksum input) is
    /// shared by `num_heads / kv_heads` query heads.
    pub kv_heads: usize,
}

impl ModelConfig {
    /// The single-head attention configuration the paper evaluates
    /// ("without loss of generality, we will limit our discussion to a
    /// single-head attention", §II), with standard 1/√d scaling.
    pub fn attention(&self) -> AttentionConfig {
        AttentionConfig::new(self.head_dim)
    }

    /// Model dimension (query heads × head_dim).
    pub fn model_dim(&self) -> usize {
        self.head_dim * self.num_heads
    }

    /// Width of the model's packed K/V projections
    /// (kv heads × head_dim) — what the per-kv-head paged cache stores
    /// per token.
    pub fn kv_dim(&self) -> usize {
        self.head_dim * self.kv_heads
    }

    /// Query heads sharing each kv head (1 for the MHA models).
    pub fn group_size(&self) -> usize {
        self.num_heads / self.kv_heads
    }

    /// The full head topology — what the one-shot kernels
    /// (`fa_attention::gqa::attention`, `flash_abft::api::gqa_checked`),
    /// the golden decode sessions and the GQA-native serving stack
    /// (`fa_attention::batch::DecodeBatch`) all consume.
    pub fn topology(&self) -> HeadTopology {
        HeadTopology::gqa(self.num_heads, self.kv_heads, self.attention())
    }
}

impl LlmModel {
    /// This model's configuration. Head counts follow the deployed
    /// checkpoints: Llama-3.1-8B (32 query / 8 kv heads) and Gemma2-2B
    /// (8 query / 4 kv heads, d=256) are grouped-query; BERT-base and
    /// Phi-3-mini (32 heads with full K/V) are the `kv_heads ==
    /// num_heads` point.
    pub fn config(self) -> ModelConfig {
        match self {
            LlmModel::Bert => ModelConfig {
                model: self,
                name: "Bert",
                head_dim: 64,
                num_heads: 12,
                kv_heads: 12,
            },
            LlmModel::Phi3Mini => ModelConfig {
                model: self,
                name: "Phi-3-mini",
                head_dim: 96,
                num_heads: 32,
                kv_heads: 32,
            },
            LlmModel::Llama31 => ModelConfig {
                model: self,
                name: "Llama-3.1",
                head_dim: 128,
                num_heads: 32,
                kv_heads: 8,
            },
            LlmModel::Gemma2 => ModelConfig {
                model: self,
                name: "Gemma2",
                head_dim: 256,
                num_heads: 8,
                kv_heads: 4,
            },
        }
    }
}

impl std::fmt::Display for LlmModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.config().name)
    }
}

/// The four models of Table I, in the paper's column order (ascending d).
pub const PAPER_MODELS: [LlmModel; 4] = [
    LlmModel::Bert,
    LlmModel::Phi3Mini,
    LlmModel::Llama31,
    LlmModel::Gemma2,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_head_dims() {
        // Table I header: d = 64, 96, 128, 256.
        let dims: Vec<usize> = PAPER_MODELS.iter().map(|m| m.config().head_dim).collect();
        assert_eq!(dims, vec![64, 96, 128, 256]);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = PAPER_MODELS.iter().map(|m| m.config().name).collect();
        assert_eq!(names, vec!["Bert", "Phi-3-mini", "Llama-3.1", "Gemma2"]);
    }

    #[test]
    fn attention_config_uses_head_dim() {
        for m in PAPER_MODELS {
            let cfg = m.config().attention();
            assert_eq!(cfg.head_dim(), m.config().head_dim);
            assert!((cfg.scale() - 1.0 / (m.config().head_dim as f64).sqrt()).abs() < 1e-15);
        }
    }

    #[test]
    fn model_dim_is_heads_times_head_dim() {
        assert_eq!(LlmModel::Bert.config().model_dim(), 768);
    }

    #[test]
    fn deployed_head_topologies() {
        // Grouped-query geometries of the deployed checkpoints: the KV
        // cache (and its decode bytes/step) shrinks by group_size.
        let llama = LlmModel::Llama31.config();
        assert_eq!((llama.num_heads, llama.kv_heads), (32, 8));
        assert_eq!(llama.group_size(), 4);
        assert_eq!(llama.kv_dim(), 8 * 128);
        let gemma = LlmModel::Gemma2.config();
        assert_eq!((gemma.num_heads, gemma.kv_heads), (8, 4));
        assert_eq!(gemma.group_size(), 2);
        // The MHA models sit at the degenerate point.
        assert_eq!(LlmModel::Bert.config().group_size(), 1);
        assert_eq!(LlmModel::Phi3Mini.config().group_size(), 1);
        for m in PAPER_MODELS {
            let cfg = m.config();
            let topo = cfg.topology();
            assert_eq!(topo.query_heads, cfg.num_heads);
            assert_eq!(topo.kv_heads, cfg.kv_heads);
            assert_eq!(topo.q_dim(), cfg.model_dim());
            assert_eq!(topo.kv_dim(), cfg.kv_dim());
        }
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(format!("{}", LlmModel::Llama31), "Llama-3.1");
    }
}
