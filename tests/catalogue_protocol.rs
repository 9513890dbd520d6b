//! The evaluation substrate: catalogue integrity, protocol handling and
//! the UCR loader.

use sapla_data::{catalogue, Family, Protocol};

#[test]
fn catalogue_matches_the_papers_dataset_count() {
    // 117 equal-length UCR-2018 datasets.
    assert_eq!(catalogue().len(), 117);
}

#[test]
fn paper_protocol_dimensions() {
    let p = Protocol::paper();
    assert_eq!(p.series_len, 1024);
    assert_eq!(p.series_per_dataset, 100);
    assert_eq!(p.queries_per_dataset, 5);
}

#[test]
fn every_family_is_represented_and_loads() {
    let protocol = Protocol { series_len: 96, series_per_dataset: 4, queries_per_dataset: 1 };
    let cat = catalogue();
    for family in Family::ALL {
        let spec = cat
            .iter()
            .find(|d| d.family == family)
            .unwrap_or_else(|| panic!("family {} missing from catalogue", family.name()));
        let ds = spec.load(&protocol);
        assert_eq!(ds.series.len(), 4);
        assert_eq!(ds.queries.len(), 1);
        for s in ds.series.iter().chain(&ds.queries) {
            assert_eq!(s.len(), 96);
            // z-normalised by construction.
            assert!(s.mean().abs() < 1e-9);
        }
    }
}

#[test]
fn dataset_series_within_a_family_variant_differ() {
    let protocol = Protocol { series_len: 64, series_per_dataset: 8, queries_per_dataset: 2 };
    let ds = catalogue()[3].load(&protocol);
    for i in 0..ds.series.len() {
        for j in (i + 1)..ds.series.len() {
            assert_ne!(ds.series[i], ds.series[j], "series {i} == series {j}");
        }
    }
}

#[test]
fn full_protocol_loads_one_dataset() {
    // One full-size dataset (n = 1024, 100 series) materialises fine.
    let ds = catalogue()[0].load(&Protocol::paper());
    assert_eq!(ds.series.len(), 100);
    assert_eq!(ds.series_len(), 1024);
}

#[test]
fn ucr_round_trip_through_a_temp_dir() {
    // Write a miniature UCR-layout dataset and load it back.
    let temp = sapla_core::temp::TempPath::new("sapla-ucr-test", "");
    let dir = temp.path();
    let name = "MiniDataset";
    let base = dir.join(name);
    std::fs::create_dir_all(&base).unwrap();
    let train = "1\t0.0\t1.0\t2.0\t3.0\n2\t3.0\t2.0\t1.0\t0.0\n1\t1.0\t1.0\t2.0\t2.0\n";
    let test = "1\t0.5\t1.5\t2.5\t3.5\n";
    std::fs::write(base.join(format!("{name}_TRAIN.tsv")), train).unwrap();
    std::fs::write(base.join(format!("{name}_TEST.tsv")), test).unwrap();

    let ds = sapla_data::ucr::load_dataset(dir, name, 10, 5).unwrap();
    assert_eq!(ds.name, name);
    assert_eq!(ds.series.len(), 3);
    assert_eq!(ds.queries.len(), 1);
    assert_eq!(ds.series_len(), 4);
    // Labels were dropped and series z-normalised.
    for s in &ds.series {
        assert!(s.mean().abs() < 1e-9);
    }
}

#[test]
fn exact_knn_is_stable_under_ties() {
    // Duplicated series: ties break by id, deterministically.
    let protocol = Protocol { series_len: 32, series_per_dataset: 3, queries_per_dataset: 1 };
    let mut ds = catalogue()[0].load(&protocol);
    ds.series.push(ds.series[0].clone());
    let truth = ds.exact_knn(&ds.series[0].clone(), 2);
    assert_eq!(truth, vec![0, 3]);
}
