//! Event schema and synthetic event generation.
//!
//! The paper's input is "around 12 000 particle events" in a 700 MB ROOT
//! file. We generate events with the same *texture*: a handful of scalar
//! kinematic branches plus a large sparse calorimeter-cell array (quantized
//! ADC counts, mostly zero) that dominates the byte count and compresses the
//! way real detector data does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scalar/array element type of a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// One `f32` per event.
    F32,
    /// One `i8` per event.
    I8,
    /// One `u16` per event.
    U16,
    /// `n` `i16`s per event (quantized cells).
    I16Array(usize),
}

impl BranchKind {
    /// Bytes per event for this branch.
    pub fn width(&self) -> usize {
        match self {
            BranchKind::F32 => 4,
            BranchKind::I8 => 1,
            BranchKind::U16 => 2,
            BranchKind::I16Array(n) => 2 * n,
        }
    }
}

/// One branch of the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchDef {
    /// Branch name.
    pub name: String,
    /// Element type.
    pub kind: BranchKind,
}

/// The tree schema: an ordered list of branches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Branch definitions.
    pub branches: Vec<BranchDef>,
}

impl Schema {
    /// The default HEP-like schema. `cal_cells` controls the size of the
    /// calorimeter array (and hence bytes/event).
    pub fn hep(cal_cells: usize) -> Schema {
        let b = |name: &str, kind: BranchKind| BranchDef { name: name.to_string(), kind };
        Schema {
            branches: vec![
                b("px", BranchKind::F32),
                b("py", BranchKind::F32),
                b("pz", BranchKind::F32),
                b("energy", BranchKind::F32),
                b("charge", BranchKind::I8),
                b("nhits", BranchKind::U16),
                b("cal", BranchKind::I16Array(cal_cells)),
            ],
        }
    }

    /// Index of a branch by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.branches.iter().position(|b| b.name == name)
    }
}

/// Columnar storage for a run of events: one byte buffer per branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventBatch {
    /// Number of events in this batch.
    pub n_events: usize,
    /// Per-branch column bytes (`n_events × width` each).
    pub columns: Vec<Vec<u8>>,
}

/// Seeded event generator (same seed → identical file bytes).
pub struct Generator {
    schema: Schema,
    rng: StdRng,
}

impl Generator {
    /// New generator for `schema`.
    pub fn new(schema: Schema, seed: u64) -> Generator {
        Generator { schema, rng: StdRng::seed_from_u64(seed) }
    }

    /// The schema being generated.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Approximate a normal deviate (Irwin–Hall of 12 uniforms).
    fn normalish(&mut self) -> f32 {
        let s: f32 = (0..12).map(|_| self.rng.gen::<f32>()).sum();
        s - 6.0
    }

    /// Generate the next `n` events as a columnar batch.
    pub fn batch(&mut self, n: usize) -> EventBatch {
        let mut columns: Vec<Vec<u8>> =
            self.schema.branches.iter().map(|b| Vec::with_capacity(n * b.kind.width())).collect();
        let schema = self.schema.clone();
        for _ in 0..n {
            // Kinematics: momentum components ~ N(0, 20 GeV), mass ~ pion.
            let px = self.normalish() * 20.0;
            let py = self.normalish() * 20.0;
            let pz = self.normalish() * 50.0;
            let m = 0.1396f32;
            let energy = (px * px + py * py + pz * pz + m * m).sqrt();
            let charge: i8 = if self.rng.gen::<bool>() { 1 } else { -1 };
            let nhits: u16 = 20 + (self.rng.gen::<u16>() % 80);

            for (bi, b) in schema.branches.iter().enumerate() {
                match (b.name.as_str(), b.kind) {
                    ("px", _) => columns[bi].extend_from_slice(&px.to_le_bytes()),
                    ("py", _) => columns[bi].extend_from_slice(&py.to_le_bytes()),
                    ("pz", _) => columns[bi].extend_from_slice(&pz.to_le_bytes()),
                    ("energy", _) => columns[bi].extend_from_slice(&energy.to_le_bytes()),
                    ("charge", _) => columns[bi].push(charge as u8),
                    ("nhits", _) => columns[bi].extend_from_slice(&nhits.to_le_bytes()),
                    (_, BranchKind::I16Array(cells)) => {
                        // Sparse calorimeter: ~15% of cells fire; deposits
                        // decay exponentially (quantized ADC counts).
                        for _ in 0..cells {
                            let v: i16 = if self.rng.gen::<f32>() < 0.15 {
                                let e = -(1.0 - self.rng.gen::<f32>()).ln() * 120.0;
                                e.min(i16::MAX as f32) as i16
                            } else {
                                0
                            };
                            columns[bi].extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    (_, BranchKind::F32) => {
                        columns[bi].extend_from_slice(&self.normalish().to_le_bytes())
                    }
                    (_, BranchKind::I8) => columns[bi].push(self.rng.gen::<u8>()),
                    (_, BranchKind::U16) => {
                        columns[bi].extend_from_slice(&self.rng.gen::<u16>().to_le_bytes())
                    }
                }
            }
        }
        EventBatch { n_events: n, columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Schema {
        /// Bytes per event across all branches.
        pub(crate) fn event_width(&self) -> usize {
            self.branches.iter().map(|b| b.kind.width()).sum()
        }
    }

    impl EventBatch {
        /// Decode an `f32` field of event `i` from branch column `col`.
        pub(crate) fn f32_at(&self, col: usize, i: usize) -> f32 {
            let bytes = &self.columns[col][i * 4..i * 4 + 4];
            f32::from_le_bytes(bytes.try_into().expect("4 bytes"))
        }

        /// Decode an `i8` field.
        fn i8_at(&self, col: usize, i: usize) -> i8 {
            self.columns[col][i] as i8
        }

        /// The `i16` array of event `i` in an array branch of width `n`.
        pub(crate) fn i16_array_at(&self, col: usize, i: usize, n: usize) -> Vec<i16> {
            let bytes = &self.columns[col][i * 2 * n..(i + 1) * 2 * n];
            bytes
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes(c.try_into().expect("2 bytes")))
                .collect()
        }
    }

    #[test]
    fn schema_widths() {
        let s = Schema::hep(64);
        assert_eq!(s.event_width(), 4 * 4 + 1 + 2 + 128);
        assert_eq!(s.index_of("energy"), Some(3));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn generation_is_deterministic() {
        let mut g1 = Generator::new(Schema::hep(16), 42);
        let mut g2 = Generator::new(Schema::hep(16), 42);
        assert_eq!(g1.batch(100), g2.batch(100));
        let mut g3 = Generator::new(Schema::hep(16), 43);
        assert_ne!(g1.batch(100), g3.batch(100));
    }

    #[test]
    fn batch_columns_have_consistent_sizes() {
        let schema = Schema::hep(32);
        let mut g = Generator::new(schema.clone(), 7);
        let b = g.batch(50);
        assert_eq!(b.n_events, 50);
        for (col, def) in b.columns.iter().zip(&schema.branches) {
            assert_eq!(col.len(), 50 * def.kind.width());
        }
    }

    #[test]
    fn physics_is_plausible() {
        let schema = Schema::hep(8);
        let mut g = Generator::new(schema.clone(), 1);
        let b = g.batch(500);
        let e_col = schema.index_of("energy").unwrap();
        let px_col = schema.index_of("px").unwrap();
        for i in 0..500 {
            let e = b.f32_at(e_col, i);
            let px = b.f32_at(px_col, i);
            assert!(e > 0.0, "energy must be positive");
            assert!(e >= px.abs(), "E >= |px| for a physical particle");
            let q = b.i8_at(schema.index_of("charge").unwrap(), i);
            assert!(q == 1 || q == -1);
        }
    }

    #[test]
    fn calorimeter_is_sparse() {
        let schema = Schema::hep(128);
        let mut g = Generator::new(schema.clone(), 9);
        let b = g.batch(100);
        let cal = schema.index_of("cal").unwrap();
        let mut zeros = 0usize;
        let mut total = 0usize;
        for i in 0..100 {
            for v in b.i16_array_at(cal, i, 128) {
                total += 1;
                if v == 0 {
                    zeros += 1;
                }
                assert!(v >= 0);
            }
        }
        let frac = zeros as f64 / total as f64;
        assert!(frac > 0.7 && frac < 0.95, "sparsity {frac}");
    }
}
