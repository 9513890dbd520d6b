//! Images of the retired ε-quantized format are refused by both loaders,
//! never read as exact.
//!
//! The two fixtures under `tests/data/` were written by the last writer
//! that could produce them, from a 2-shard DBCH engine over 24 seeded
//! 64-point random walks (`random_walks(24, 64, 37)` of the index's
//! unit tests, default configuration):
//! - `quantized.snap`: that engine's image with ε = 1e-3 leaves (header
//!   flag bit 0, `i32` coefficient arenas, per-rep slacks);
//! - `quantized_resaved.snap`: the engine loaded from `quantized.snap`,
//!   saved again as an exact image. Its header flag is clear and its
//!   coefficients are `f64`, but it carries each shard's `Dist_LB` slack
//!   in an arena of a retired kind, so an exact load would prune unsoundly.

use std::path::{Path, PathBuf};

use sapla_core::Error;
use sapla_index::Engine;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data").join(name)
}

#[test]
fn quantized_images_are_refused_from_an_image_and_from_a_file() {
    let want = Error::UnsupportedRepresentation { operation: "load a quantized snapshot image" };
    for name in ["quantized.snap", "quantized_resaved.snap"] {
        let path = fixture(name);
        let image = std::fs::read(&path).unwrap();
        let from_image = Engine::from_snapshot_image(&image).map(|_| ());
        assert_eq!(from_image, Err(want.clone()), "{name} from an image");
        let from_file = Engine::from_snapshot_file(&path).map(|_| ());
        assert_eq!(from_file, Err(want.clone()), "{name} from a file");
    }
}
