//! Model and workload configurations from the paper (Tables I and II).

use er_units::ElemKind;
use serde::{Deserialize, Serialize};

/// Configuration of one embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EmbeddingTableConfig {
    /// Number of embedding vectors (rows).
    pub rows: u64,
    /// Embedding vector dimension (columns).
    pub dim: u32,
    /// Average number of vectors gathered per input (the pooling factor,
    /// "number of embedding gathers" in Table II).
    pub pooling: u32,
    /// Storage precision of the table's elements (f32 in the paper's
    /// workloads; quantized kinds shrink `bytes`/`vector_bytes` and flow
    /// into the partitioner's cost model, making quantization a placement
    /// decision).
    pub elem: ElemKind,
}

impl EmbeddingTableConfig {
    /// Bytes needed to store this table at its element precision,
    /// including per-row i8 scales — `rows x` [`ElemKind::row_bytes`].
    pub fn bytes(&self) -> u64 {
        self.rows * self.elem.row_bytes(self.dim).whole()
    }

    /// Stored bytes of one embedding vector (with its i8 scale, if any).
    pub fn vector_bytes(&self) -> u64 {
        self.elem.row_bytes(self.dim).whole()
    }
}

/// A complete DLRM workload configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Workload name (e.g. `"RM1"`).
    pub name: String,
    /// Number of continuous (dense) input features.
    pub num_dense_features: usize,
    /// Bottom MLP hidden widths, e.g. `[256, 128, 32]`.
    pub bottom_mlp: Vec<usize>,
    /// Top MLP hidden widths ending in 1, e.g. `[256, 64, 1]`.
    pub top_mlp: Vec<usize>,
    /// Embedding tables (all identical in the paper's workloads).
    pub tables: Vec<EmbeddingTableConfig>,
    /// Locality metric `P`: fraction of accesses covered by the hottest 10%
    /// of each table.
    pub locality_p: f64,
    /// Query batch size (number of items ranked per query; 32 in Section
    /// V-C).
    pub batch_size: usize,
}

impl ModelConfig {
    /// Embedding dimension shared by all tables.
    ///
    /// # Panics
    ///
    /// Panics if the model has no tables.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: configs are built with at least one table"
    )]
    pub fn embedding_dim(&self) -> u32 {
        self.tables.first().expect("model has tables").dim
    }

    /// Total embedding storage across tables, in bytes.
    pub fn embedding_bytes(&self) -> u64 {
        self.tables.iter().map(EmbeddingTableConfig::bytes).sum()
    }

    /// Width of the feature-interaction output feeding the top MLP: the
    /// bottom-MLP output concatenated with all pairwise dots among the
    /// `(1 + num_tables)` latent vectors.
    pub fn interaction_dim(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: configs are built with a non-empty bottom MLP"
        )]
        let d = *self.bottom_mlp.last().expect("bottom MLP is non-empty");
        let n = self.tables.len() + 1;
        d + n * (n - 1) / 2
    }

    /// Returns a copy with every table shrunk to `rows` rows — used to run
    /// the functional model at test scale while keeping the architecture.
    pub fn scaled_tables(mut self, rows: u64) -> Self {
        for t in &mut self.tables {
            t.rows = rows;
        }
        self
    }

    /// Returns a copy with a different table count (microbenchmark knob,
    /// Table I row "Table (N)").
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the model has no tables to clone.
    pub fn with_num_tables(mut self, n: usize) -> Self {
        assert!(n > 0, "a DLRM needs at least one embedding table");
        #[expect(
            clippy::expect_used,
            reason = "documented panic: configs are built with at least one table"
        )]
        let proto = *self.tables.first().expect("model has tables");
        self.tables = vec![proto; n];
        self
    }

    /// Returns a copy with a different locality `P` (Table I row
    /// "Locality").
    pub fn with_locality(mut self, p: f64) -> Self {
        self.locality_p = p;
        self
    }

    /// Returns a copy with every embedding table stored at `elem`
    /// precision — the model-level quantization knob the planner prices.
    pub fn with_elem_kind(mut self, elem: ElemKind) -> Self {
        for t in &mut self.tables {
            t.elem = elem;
        }
        self
    }
}

/// MLP sizing for the Table I microbenchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MlpSize {
    /// Bottom 64-32-32, top 64-32-1.
    Light,
    /// Bottom 256-128-32, top 256-64-1 (the RM1 default).
    Medium,
    /// Bottom 512-256-32, top 512-64-1.
    Heavy,
}

impl MlpSize {
    /// The bottom-MLP widths for this size.
    pub fn bottom(&self) -> Vec<usize> {
        match self {
            MlpSize::Light => vec![64, 32, 32],
            MlpSize::Medium => vec![256, 128, 32],
            MlpSize::Heavy => vec![512, 256, 32],
        }
    }

    /// The top-MLP widths for this size.
    pub fn top(&self) -> Vec<usize> {
        match self {
            MlpSize::Light => vec![64, 32, 1],
            MlpSize::Medium => vec![256, 64, 1],
            MlpSize::Heavy => vec![512, 64, 1],
        }
    }

    /// All sizes in Table I order.
    pub const ALL: [MlpSize; 3] = [MlpSize::Light, MlpSize::Medium, MlpSize::Heavy];
}

impl std::fmt::Display for MlpSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MlpSize::Light => "Light",
            MlpSize::Medium => "Medium",
            MlpSize::Heavy => "Heavy",
        };
        f.write_str(s)
    }
}

/// The Table I microbenchmark parameter grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicrobenchGrid {
    /// MLP layer sizes swept in Figure 12(a).
    pub mlp_sizes: Vec<MlpSize>,
    /// Locality values swept in Figure 12(b).
    pub localities: Vec<f64>,
    /// Table counts swept in Figure 12(c).
    pub table_counts: Vec<usize>,
    /// Manual shard counts swept in Figure 12(d).
    pub shard_counts: Vec<usize>,
}

impl Default for MicrobenchGrid {
    /// Exactly the values in Table I.
    fn default() -> Self {
        Self {
            mlp_sizes: MlpSize::ALL.to_vec(),
            localities: vec![0.10, 0.50, 0.90],
            table_counts: vec![1, 4, 10, 16],
            shard_counts: vec![1, 2, 4, 8, 16],
        }
    }
}

/// Number of dense features; the paper inherits DLRM's Criteo default.
pub const NUM_DENSE_FEATURES: usize = 13;
/// Paper query batch size (Section V-C).
pub const BATCH_SIZE: usize = 32;
/// Paper table size for the RM workloads (Table II).
pub const RM_TABLE_ROWS: u64 = 20_000_000;

fn rm(name: &str, bottom: &[usize], top: &[usize], num_tables: usize, pooling: u32) -> ModelConfig {
    ModelConfig {
        name: name.to_owned(),
        num_dense_features: NUM_DENSE_FEATURES,
        bottom_mlp: bottom.to_vec(),
        top_mlp: top.to_vec(),
        tables: vec![
            EmbeddingTableConfig {
                rows: RM_TABLE_ROWS,
                dim: 32,
                pooling,
                elem: ElemKind::F32,
            };
            num_tables
        ],
        locality_p: 0.90,
        batch_size: BATCH_SIZE,
    }
}

/// Table II RM1: bottom 256-128-32, top 256-64-1, 10 tables, 128 gathers.
pub fn rm1() -> ModelConfig {
    rm("RM1", &[256, 128, 32], &[256, 64, 1], 10, 128)
}

/// Table II RM2: bottom 256-128-32, top 512-128-1, 32 tables, 128 gathers.
pub fn rm2() -> ModelConfig {
    rm("RM2", &[256, 128, 32], &[512, 128, 1], 32, 128)
}

/// Table II RM3: bottom 2560-512-32, top 512-128-1, 10 tables, 32 gathers.
pub fn rm3() -> ModelConfig {
    rm("RM3", &[2560, 512, 32], &[512, 128, 1], 10, 32)
}

/// All three state-of-the-art workloads in Table II order.
pub fn all_rms() -> Vec<ModelConfig> {
    vec![rm1(), rm2(), rm3()]
}

/// The Table I microbenchmark base model: RM1 with a configurable MLP size.
pub fn microbench(mlp: MlpSize) -> ModelConfig {
    let mut cfg = rm1();
    cfg.name = format!("micro-{mlp}");
    cfg.bottom_mlp = mlp.bottom();
    cfg.top_mlp = mlp.top();
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_values_are_faithful() {
        let m1 = rm1();
        assert_eq!(m1.bottom_mlp, vec![256, 128, 32]);
        assert_eq!(m1.top_mlp, vec![256, 64, 1]);
        assert_eq!(m1.tables.len(), 10);
        assert_eq!(m1.tables[0].pooling, 128);
        assert_eq!(m1.tables[0].rows, 20_000_000);
        assert_eq!(m1.tables[0].dim, 32);
        assert_eq!(m1.locality_p, 0.90);

        let m2 = rm2();
        assert_eq!(m2.top_mlp, vec![512, 128, 1]);
        assert_eq!(m2.tables.len(), 32);

        let m3 = rm3();
        assert_eq!(m3.bottom_mlp, vec![2560, 512, 32]);
        assert_eq!(m3.tables[0].pooling, 32);
    }

    #[test]
    fn embedding_bytes_match_hand_computation() {
        // RM1: 10 tables x 20M x 32 dims x 4 bytes = 25.6 GB.
        assert_eq!(rm1().embedding_bytes(), 10 * 20_000_000 * 32 * 4);
        assert_eq!(rm1().tables[0].vector_bytes(), 128);
    }

    #[test]
    fn elem_kind_shrinks_config_bytes() {
        assert_eq!(rm1().tables[0].elem, ElemKind::F32);
        let f16 = rm1().with_elem_kind(ElemKind::F16).tables[0];
        assert_eq!(f16.vector_bytes(), 64);
        let m = rm1().with_elem_kind(ElemKind::I8);
        // i8: 32 code bytes + one 4-byte scale per row.
        assert_eq!(m.tables[0].vector_bytes(), 36);
        assert_eq!(m.tables[0].bytes(), RM_TABLE_ROWS * (32 + 4));
        assert!(m.tables.iter().all(|t| t.elem == ElemKind::I8));
        // 0.1 + 0.9 dense/sparse ratio unchanged: quantization only moves
        // the sparse byte count, never the architecture.
        assert_eq!(m.tables.len(), 10);
    }

    #[test]
    fn interaction_dim_counts_pairwise_dots() {
        // RM1: bottom out 32, 10 tables -> 11 vectors -> 55 dots -> 87.
        assert_eq!(rm1().interaction_dim(), 32 + 55);
        // RM2: 33 vectors -> 528 dots.
        assert_eq!(rm2().interaction_dim(), 32 + 33 * 32 / 2);
    }

    #[test]
    fn scaled_tables_only_changes_rows() {
        let s = rm1().scaled_tables(1000);
        assert_eq!(s.tables[0].rows, 1000);
        assert_eq!(s.tables.len(), 10);
        assert_eq!(s.tables[0].pooling, 128);
    }

    #[test]
    fn with_num_tables_replicates_prototype() {
        let m = rm1().with_num_tables(4);
        assert_eq!(m.tables.len(), 4);
        assert!(m.tables.iter().all(|t| t.rows == RM_TABLE_ROWS));
    }

    #[test]
    fn with_locality_overrides_p() {
        assert_eq!(rm1().with_locality(0.5).locality_p, 0.5);
    }

    #[test]
    fn microbench_sizes_match_table_one() {
        assert_eq!(MlpSize::Light.bottom(), vec![64, 32, 32]);
        assert_eq!(MlpSize::Heavy.top(), vec![512, 64, 1]);
        let grid = MicrobenchGrid::default();
        assert_eq!(grid.localities, vec![0.10, 0.50, 0.90]);
        assert_eq!(grid.table_counts, vec![1, 4, 10, 16]);
        assert_eq!(grid.shard_counts, vec![1, 2, 4, 8, 16]);
        let m = microbench(MlpSize::Heavy);
        assert_eq!(m.bottom_mlp, vec![512, 256, 32]);
    }

    #[test]
    #[should_panic(expected = "at least one embedding table")]
    fn zero_tables_panics() {
        rm1().with_num_tables(0);
    }
}
