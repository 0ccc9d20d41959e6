//! Spatial indexing in front of the AP (the paper's §III-D and Table V scenario).
//!
//! For datasets much larger than one board configuration, scanning everything on the
//! AP is dominated by partial-reconfiguration time on Gen-1 hardware. The paper's
//! answer is to keep a spatial index (kd-trees, hierarchical k-means, LSH) on the
//! host, traverse it per query, and let the AP scan only the selected bucket.
//!
//! This example builds all three indexes over a clustered dataset, runs the same
//! query batch through (a) the host-only CPU versions and (b) the AP bucket-scan
//! engine, and prints candidate counts, recall against the exact answer, and the
//! Gen-1 vs Gen-2 run-time estimates.
//!
//! Run with: `cargo run --release --example indexed_search`

use ap_knn::indexed::{DatasetBackedIndex, IndexedApEngine};
use ap_similarity::prelude::*;
use baselines::{BucketIndex, KMeansConfig, KdForestConfig, LshConfig};
use binvec::metrics::recall_at_k;

fn main() {
    let dims = 64;
    let k = 8;
    let (data, _) = binvec::generate::clustered_dataset(
        4096,
        dims,
        binvec::generate::ClusterParams {
            clusters: 32,
            flip_probability: 0.03,
        },
        5,
    );
    let queries = binvec::generate::planted_queries(&data, 32, 2, 9);
    let query_vectors: Vec<BinaryVector> = queries.iter().map(|q| q.query.clone()).collect();

    let exact = LinearScan::new(data.clone());
    let truth: Vec<_> = query_vectors.iter().map(|q| exact.search(q, k)).collect();

    println!(
        "Indexed AP search: {} vectors x {dims} dims, {} queries, k = {k}",
        data.len(),
        query_vectors.len()
    );
    println!();
    println!(
        "{:<22} {:>12} {:>9} {:>14} {:>14}",
        "index", "cands/query", "recall@k", "Gen1 est (ms)", "Gen2 est (ms)"
    );

    // kd-forest
    let kd = DatasetBackedIndex {
        index: KdForest::build(
            data.clone(),
            KdForestConfig {
                trees: 4,
                bucket_size: 512,
                top_variance_candidates: 5,
                seed: 1,
            },
        ),
        data: data.clone(),
    };
    report_index("randomized kd-trees", &kd, &query_vectors, &truth, k, dims);

    // hierarchical k-means
    let km = DatasetBackedIndex {
        index: HierarchicalKMeans::build(
            data.clone(),
            KMeansConfig {
                branching: 8,
                bucket_size: 512,
                iterations: 4,
                seed: 2,
            },
        ),
        data: data.clone(),
    };
    report_index("hierarchical k-means", &km, &query_vectors, &truth, k, dims);

    // multi-probe LSH
    let lsh = DatasetBackedIndex {
        index: LshIndex::build(
            data.clone(),
            LshConfig {
                tables: 4,
                bits_per_table: 8,
                probes: 2,
                seed: 3,
            },
        ),
        data: data.clone(),
    };
    report_index("multi-probe LSH", &lsh, &query_vectors, &truth, k, dims);

    // The same index families are constructible through the uniform pipeline
    // entry point — one builder call instead of hand-wiring index + engine.
    println!();
    println!("the same families through SearchPipeline::over(..).backend(Indexed(..)):");
    for (name, kind) in [
        ("randomized kd-trees", IndexKind::KdForest),
        ("hierarchical k-means", IndexKind::KMeans),
        ("multi-probe LSH", IndexKind::Lsh),
    ] {
        let pipeline = SearchPipeline::over(data.clone())
            .backend(BackendSpec::Indexed(kind))
            .build()
            .expect("valid pipeline configuration");
        let responses = pipeline
            .query_batch(&query_vectors, &QueryOptions::top(k))
            .expect("well-formed queries");
        let recall: f64 = responses
            .iter()
            .zip(truth.iter())
            .map(|(r, want)| recall_at_k(&r.neighbors, want))
            .sum::<f64>()
            / truth.len() as f64;
        println!(
            "  {:<22} recall@{k} {:>5.1}%   (backend: {})",
            name,
            recall * 100.0,
            pipeline.backend_name()
        );
    }

    println!();
    println!("(recall is measured against the exact linear scan; Gen1/Gen2 estimates include");
    println!(" host index traversal, AP streaming, and any board reconfigurations)");
}

fn report_index<I>(
    name: &str,
    index: &DatasetBackedIndex<I>,
    queries: &[BinaryVector],
    truth: &[Vec<Neighbor>],
    k: usize,
    dims: usize,
) where
    I: BucketIndex,
{
    let gen1 = IndexedApEngine::new(index, KnnDesign::new(dims));
    let (results, stats1) = gen1.search_batch(queries, k);
    let gen2 = IndexedApEngine::new(
        index,
        KnnDesign::new(dims).with_device(DeviceConfig::gen2()),
    );
    let (_, stats2) = gen2.search_batch(queries, k);

    let recall: f64 = results
        .iter()
        .zip(truth.iter())
        .map(|(got, want)| recall_at_k(got, want))
        .sum::<f64>()
        / truth.len() as f64;

    println!(
        "{:<22} {:>12.0} {:>8.1}% {:>14.3} {:>14.3}",
        name,
        stats1.candidates_scanned as f64 / queries.len() as f64,
        recall * 100.0,
        stats1.total_seconds() * 1e3,
        stats2.total_seconds() * 1e3
    );
}
