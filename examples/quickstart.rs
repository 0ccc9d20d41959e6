//! Quickstart: exact kNN on the simulated Automata Processor vs. a CPU baseline.
//!
//! Builds a small binary dataset, runs the same query batch through (a) the exact
//! CPU linear scan and (b) the AP engine behind the uniform `SearchPipeline` (one
//! NFA per dataset vector, cycle-accurate simulation, temporally encoded sort),
//! verifies they agree, and prints the AP-side execution statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use ap_similarity::prelude::*;

fn main() {
    // 1. A Hamming-space dataset. Real deployments would quantize SIFT descriptors /
    //    word embeddings offline (see the `image_retrieval` example); here we use a
    //    synthetic clustered dataset.
    let dims = 64;
    let (data, _clusters) = binvec::generate::clustered_dataset(
        256,
        dims,
        binvec::generate::ClusterParams {
            clusters: 8,
            flip_probability: 0.05,
        },
        7,
    );
    let queries = binvec::generate::uniform_queries(8, dims, 11);
    let k = 4;

    // 2. Exact CPU baseline (FLANN-style XOR + POPCOUNT linear scan).
    let cpu = LinearScan::new(data.clone());
    let cpu_results = cpu.search_batch(&queries, k);

    // 3. The Automata Processor engine behind the one query API.
    let pipeline = SearchPipeline::over(data.clone())
        .metric(Metric::Hamming)
        .backend(BackendSpec::ap())
        .build()
        .expect("valid pipeline configuration");
    let responses = pipeline
        .query_batch(&queries, &QueryOptions::top(k))
        .expect("well-formed queries");

    // 4. The AP's temporally encoded sort returns exactly the same neighbors.
    for (response, cpu_neighbors) in responses.iter().zip(&cpu_results) {
        assert_eq!(&response.neighbors, cpu_neighbors);
    }

    println!(
        "AP kNN quickstart ({} vectors x {} dims, {} queries, k = {k})",
        data.len(),
        dims,
        queries.len()
    );
    println!("backend: {}", pipeline.backend_name());
    println!();
    for (qi, response) in responses.iter().enumerate().take(3) {
        let formatted: Vec<String> = response
            .neighbors
            .iter()
            .map(|n| format!("#{} (d={})", n.id, n.distance))
            .collect();
        println!("query {qi}: {}", formatted.join(", "));
    }
    println!("  ... ({} more queries)", responses.len().saturating_sub(3));
    println!();
    println!("AP execution statistics");
    let stats = responses[0]
        .ap_run
        .expect("the AP engine reports full run statistics");
    println!("  board configurations : {}", stats.board_configurations);
    println!("  reconfigurations     : {}", stats.reconfigurations);
    println!("  symbols streamed     : {}", stats.symbols_streamed);
    println!("  report events        : {}", stats.reports);
    println!(
        "  estimated run time   : {:.3} ms",
        stats.total_seconds() * 1e3
    );
    println!();
    println!("results verified against the exact CPU linear scan ✔");
}
