//! Near-duplicate detection — one of the motivating applications in the paper's
//! introduction (content deduplication alongside document retrieval and
//! content-based search).
//!
//! Pipeline:
//! 1. generate real-valued "document feature vectors" and plant near-duplicates of
//!    some of them (small perturbations of an original);
//! 2. train an **ITQ quantizer** (PCA + learned rotation, `binvec::itq`) offline and
//!    quantize everything into 64-bit Hamming codes — exactly the offline step the
//!    paper assumes before the AP ever sees the data;
//! 3. stream every document's code as a query against the encoded corpus on the
//!    cycle-accurate AP engine through the uniform `SearchPipeline`, using a
//!    `QueryOptions` **distance bound** (the §VII ε-bounded range query) so the
//!    fabric itself answers "which documents are within the duplicate radius";
//! 4. check the planted duplicates were recovered.
//!
//! Run with: `cargo run --release --example deduplication`

use ap_similarity::binvec::itq::{ItqConfig, ItqQuantizer};
use ap_similarity::binvec::quantize::Quantizer;
use ap_similarity::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2017);
    let input_dims = 96; // raw feature dimensionality (e.g. a document embedding)
    let code_dims = 64; // Hamming code length streamed to the AP
    let originals = 192;
    let planted_duplicates = 24;

    // 1. Corpus: clustered "topics" plus planted near-duplicates.
    let mut corpus: Vec<Vec<f64>> = Vec::new();
    let topics: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            (0..input_dims)
                .map(|_| rng.gen::<f64>() * 8.0 - 4.0)
                .collect()
        })
        .collect();
    for i in 0..originals {
        let topic = &topics[i % topics.len()];
        corpus.push(
            topic
                .iter()
                .map(|&x| x + (rng.gen::<f64>() - 0.5) * 6.0)
                .collect(),
        );
    }
    let mut duplicate_of = Vec::new();
    for _ in 0..planted_duplicates {
        let src = rng.gen_range(0..originals);
        duplicate_of.push((corpus.len(), src));
        let near: Vec<f64> = corpus[src]
            .iter()
            .map(|&x| x + (rng.gen::<f64>() - 0.5) * 0.05)
            .collect();
        corpus.push(near);
    }

    // 2. Offline quantization with ITQ.
    let itq = ItqQuantizer::fit(&corpus, &ItqConfig::new(code_dims).with_iterations(30));
    let codes: Vec<BinaryVector> = corpus.iter().map(|v| itq.quantize(v)).collect();
    let mut dataset = BinaryDataset::new(code_dims);
    for code in &codes {
        dataset.push(code);
    }

    // 3. All-pairs near-duplicate search on the AP: every document is also a query.
    //    The distance bound makes this a range query — the response contains
    //    exactly the neighbors at Hamming distance <= threshold, no post-filter.
    let pipeline = SearchPipeline::over(dataset)
        .metric(Metric::Hamming)
        .backend(BackendSpec::ap())
        .build()
        .expect("valid pipeline configuration");
    let k = 3;
    let threshold = 3u32; // Hamming distance below which we call it a duplicate
    let options = QueryOptions::top(k).within(threshold + 1); // bound is exclusive
    let responses = pipeline
        .query_batch(&codes, &options)
        .expect("well-formed queries");
    let stats = responses[0]
        .ap_run
        .expect("the AP engine reports full run statistics");

    let mut flagged: Vec<(usize, usize, u32)> = Vec::new();
    for (doc, response) in responses.iter().enumerate() {
        for n in &response.neighbors {
            if n.id != doc {
                flagged.push((doc, n.id, n.distance));
            }
        }
    }

    // 4. Report.
    let recovered = duplicate_of
        .iter()
        .filter(|(dup, src)| {
            flagged
                .iter()
                .any(|(a, b, _)| (a == dup && b == src) || (a == src && b == dup))
        })
        .count();

    println!("near-duplicate detection on the simulated AP");
    println!(
        "  corpus: {} documents ({} planted near-duplicates), {}-d features -> {}-bit ITQ codes",
        corpus.len(),
        planted_duplicates,
        input_dims,
        code_dims
    );
    println!(
        "  ITQ training loss: {:.3} -> {:.3} over {} iterations",
        itq.loss_history().first().unwrap(),
        itq.loss_history().last().unwrap(),
        itq.loss_history().len()
    );
    println!(
        "  AP run: {} board configuration(s), {} report events, estimated {:.2} ms",
        stats.board_configurations,
        stats.reports,
        stats.total_seconds() * 1e3
    );
    println!(
        "  flagged {} document pairs at Hamming distance <= {threshold}",
        flagged.len()
    );
    println!("  planted duplicates recovered: {recovered}/{planted_duplicates}");
    for (doc, other, dist) in flagged.iter().take(8) {
        println!("    doc {doc:>3} ~ doc {other:>3} (distance {dist})");
    }
    if flagged.len() > 8 {
        println!("    ... ({} more pairs)", flagged.len() - 8);
    }

    assert!(
        recovered * 10 >= planted_duplicates * 9,
        "expected at least 90% of planted duplicates to be recovered"
    );
    println!();
    println!("at least 90% of planted duplicates recovered ✔");
}
