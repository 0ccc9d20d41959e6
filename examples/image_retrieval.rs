//! Content-based image retrieval scenario (the paper's kNN-SIFT workload).
//!
//! Real deployments extract 128-dimensional SIFT descriptors from images, quantize
//! them offline into 128-bit binary codes (ITQ-style), and answer retrieval queries
//! with Hamming-space kNN. This example walks that pipeline end to end with
//! synthetic descriptors:
//!
//! 1. generate clustered real-valued descriptors (stand-ins for SIFT features),
//! 2. quantize them with a random-rotation + sign quantizer,
//! 3. plant queries by perturbing known database images,
//! 4. search with the AP engine and with CPU baselines (exact scan + kd-forest),
//! 5. report recall and the projected device run times.
//!
//! Run with: `cargo run --release --example image_retrieval`

use ap_similarity::prelude::*;
use baselines::{BucketIndex, KdForestConfig};
use binvec::quantize::{Quantizer, RandomRotationQuantizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let descriptor_dims = 64; // real-valued feature dimensionality
    let code_dims = 128; // binary code width (kNN-SIFT)
    let database_size = 512;
    let n_queries = 32;
    let k = 4;

    // 1. Synthetic "SIFT" descriptors: clustered Gaussians around random centroids.
    let mut rng = StdRng::seed_from_u64(2024);
    let centroids: Vec<Vec<f64>> = (0..16)
        .map(|_| {
            (0..descriptor_dims)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect();
    let descriptors: Vec<Vec<f64>> = (0..database_size)
        .map(|_| {
            let c = &centroids[rng.gen_range(0..centroids.len())];
            c.iter().map(|x| x + rng.gen_range(-0.15..0.15)).collect()
        })
        .collect();

    // 2. Offline quantization into Hamming space (excluded from the search kernel,
    //    exactly as the paper assumes).
    let quantizer = RandomRotationQuantizer::new(descriptor_dims, code_dims, 99);
    let codes = quantizer.quantize_batch(&descriptors);
    let data = BinaryDataset::from_vectors(code_dims, codes);

    // 3. Queries: perturbed copies of database descriptors, so ground truth is known.
    let mut expected = Vec::new();
    let mut queries = Vec::new();
    for _ in 0..n_queries {
        let source = rng.gen_range(0..database_size);
        let noisy: Vec<f64> = descriptors[source]
            .iter()
            .map(|x| x + rng.gen_range(-0.02..0.02))
            .collect();
        queries.push(quantizer.quantize(&noisy));
        expected.push(source);
    }

    // 4a. Exact search on the AP (cycle-accurate simulation) through the pipeline.
    let pipeline = SearchPipeline::over(data.clone())
        .backend(BackendSpec::ap())
        .build()
        .expect("valid pipeline configuration");
    let responses = pipeline
        .query_batch(&queries, &QueryOptions::top(k))
        .expect("well-formed queries");
    let ap_results: Vec<Vec<Neighbor>> = responses.iter().map(|r| r.neighbors.clone()).collect();
    let stats = responses[0]
        .ap_run
        .expect("the AP engine reports full run statistics");

    // 4b. Exact CPU scan and an approximate kd-forest.
    let cpu = LinearScan::new(data.clone());
    let forest = KdForest::build(
        data.clone(),
        KdForestConfig {
            trees: 4,
            bucket_size: 64,
            top_variance_candidates: 5,
            seed: 3,
        },
    );

    let mut ap_hits = 0usize;
    let mut forest_hits = 0usize;
    let mut forest_candidates = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            ap_results[qi],
            cpu.search(q, k),
            "AP must equal exact search"
        );
        if ap_results[qi].iter().any(|n| n.id == expected[qi]) {
            ap_hits += 1;
        }
        if forest.search(q, k).iter().any(|n| n.id == expected[qi]) {
            forest_hits += 1;
        }
        forest_candidates += forest.candidates(q).len();
    }

    // 5. Projected device run times for the full-size workload.
    let job = KnnJob {
        dims: code_dims,
        dataset_size: database_size,
        queries: n_queries,
        k,
    };
    println!(
        "Image retrieval (kNN-SIFT style): {database_size} images, {n_queries} queries, k = {k}"
    );
    println!();
    println!("recall of the planted source image in the top-{k}:");
    println!(
        "  AP exact scan   : {:>5.1} %",
        100.0 * ap_hits as f64 / n_queries as f64
    );
    println!(
        "  kd-forest (approx, scans {:.0} candidates/query on average): {:>5.1} %",
        forest_candidates as f64 / n_queries as f64,
        100.0 * forest_hits as f64 / n_queries as f64
    );
    println!();
    println!(
        "AP execution: {} symbols streamed, {} report events, {:.3} ms estimated",
        stats.symbols_streamed,
        stats.reports,
        stats.total_seconds() * 1e3
    );
    println!();
    println!("projected run time of this batch on the paper's platforms:");
    for platform in [
        Platform::XeonE5_2620,
        Platform::CortexA15,
        Platform::Kintex7,
        Platform::ApGen1,
    ] {
        let report = EnergyReport::evaluate(platform, &job);
        println!(
            "  {:<13} {:>10.3} ms   {:>12.0} queries/J",
            platform.name(),
            report.run_time_s * 1e3,
            report.queries_per_joule
        );
    }
}
