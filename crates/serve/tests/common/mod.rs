//! Fixtures shared by the daemon's integration-test binaries.
#![allow(dead_code)] // each binary uses its own subset

use sapla_baselines::SaplaReducer;
use sapla_core::TimeSeries;
use sapla_index::{Engine, EngineConfig, TreeKind};

pub const LEN: usize = 64;

pub fn samples(i: usize) -> Vec<f64> {
    (0..LEN)
        .map(|t| {
            ((t + i * 13) as f64 * 0.19).sin() * (1.0 + (i % 4) as f64 * 0.3)
                + (i as f64 * 0.37).cos() * 0.4
        })
        .collect()
}

pub fn dataset(n: usize) -> Vec<TimeSeries> {
    (0..n).map(|i| TimeSeries::new(samples(i)).unwrap().znormalized()).collect()
}

/// Raw query vectors, already z-normalized to match the dataset.
pub fn query_samples(n: usize) -> Vec<Vec<f64>> {
    dataset(n).iter().map(|s| s.values().to_vec()).collect()
}

pub fn build_engine(raws: &[TimeSeries], shards: usize, tree: TreeKind) -> Engine {
    let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
    Engine::build(cfg, Box::new(SaplaReducer::new()), raws.to_vec(), 2).unwrap()
}
