//! Live corpora — serving similarity queries while the corpus itself churns.
//!
//! The paper's serving story (§VI) assumes a frozen dataset compiled once
//! into board images. Real retrieval corpora grow and shrink continuously, so
//! this example walks the live-corpus subsystem end to end:
//!
//! 1. build a [`LiveEngine`] over a base corpus (an immutable compiled
//!    "generation 0" segment);
//! 2. insert and delete vectors — inserts land in append-only **delta
//!    partitions**, deletes become **tombstones** filtered at the top-k
//!    merge, and every mutation installs a new epoch snapshot so in-flight
//!    query batches keep a consistent view;
//! 3. show bit-identity: at any generation, results match a fresh
//!    `prepare()` over the equivalent corpus;
//! 4. trigger **compaction** — deltas and tombstones fold into a new base
//!    segment without changing any result;
//! 5. serve the same engine concurrently through a [`ServiceRuntime`] with a
//!    [`LiveBackend`], where mutation tickets ride the admission queue next
//!    to queries and the result cache flushes on every epoch swap.
//!
//! Run with: `cargo run --release --example live_corpus`

use ap_similarity::prelude::*;
use std::sync::Arc;

fn main() {
    let dims = 32;
    let base = ap_similarity::binvec::generate::uniform_dataset(48, dims, 2017);
    let engine = ApKnnEngine::new(KnnDesign::new(dims));

    // 1. A live engine over the base corpus: generation 0, ids 0..48.
    let live = LiveEngine::new(
        engine.clone(),
        &base,
        LiveConfig::default()
            .with_background(false)
            .with_compact_threshold(16),
    )
    .expect("valid live configuration");
    println!(
        "generation {}: {} vectors live (all in the compiled base segment)",
        live.generation(),
        live.len()
    );

    // 2. Churn: insert a probe vector, delete an original.
    let probe = ap_similarity::binvec::generate::uniform_queries(1, dims, 7)
        .pop()
        .unwrap();
    let ack = live.insert(&probe).expect("insert");
    println!(
        "inserted -> stable id {} visible at generation {}",
        ack.id, ack.generation
    );
    let ack = live.delete(3).expect("delete");
    println!(
        "deleted id 3 -> tombstoned at generation {}",
        ack.generation
    );

    let options = QueryOptions::top(5);
    let (results, _) = live
        .try_search_batch(std::slice::from_ref(&probe), &options)
        .expect("live search");
    assert_eq!(
        results[0][0],
        Neighbor::new(48, 0),
        "the inserted vector is its own nearest neighbor"
    );
    assert!(
        results[0].iter().all(|n| n.id != 3),
        "deleted id never appears"
    );

    // 3. Bit-identity against a fresh prepare over the equivalent corpus:
    // survivors in stable-id order, fresh ids mapped back through the
    // (monotone) survivor bijection.
    let survivors: Vec<(usize, BinaryVector)> = (0..base.len())
        .filter(|&i| i != 3)
        .map(|i| (i, base.vector(i)))
        .chain(std::iter::once((48, probe.clone())))
        .collect();
    let fresh_corpus = BinaryDataset::from_vectors(dims, survivors.iter().map(|(_, v)| v.clone()));
    let fresh = engine.prepare(&fresh_corpus).expect("fresh prepare");
    let (fresh_results, _) = fresh
        .try_search_batch(std::slice::from_ref(&probe), &options)
        .expect("fresh search");
    let mapped: Vec<Neighbor> = fresh_results[0]
        .iter()
        .map(|n| Neighbor::new(survivors[n.id].0, n.distance))
        .collect();
    assert_eq!(
        results[0], mapped,
        "live results are bit-identical to a re-prepare"
    );
    println!(
        "bit-identity: live == fresh prepare at generation {}",
        live.generation()
    );

    // 4. Compaction folds the delta + tombstone into a new base segment.
    let status_before = live.status();
    live.compact_now().expect("compaction");
    let status = live.status();
    println!(
        "compaction: {} delta vectors + {} tombstones folded -> base {} vectors, generation {}",
        status_before.delta_vectors, status_before.tombstones, status.base_len, status.generation
    );
    let (after, _) = live
        .try_search_batch(std::slice::from_ref(&probe), &options)
        .expect("post-compaction search");
    assert_eq!(results[0], after[0], "compaction changes no result");

    // 5. The same engine behind the concurrent serving runtime: mutations are
    // admission-queue tickets, acks carry the visibility generation, and the
    // result cache can never serve a pre-mutation answer afterwards.
    let data = ap_similarity::binvec::generate::uniform_dataset(48, dims, 2018);
    let backend = LiveBackend::try_new(
        ApKnnEngine::new(KnnDesign::new(dims)),
        &data,
        LiveConfig::default(),
    )
    .expect("live backend");
    let runtime = ServiceRuntime::try_shared(
        RuntimeConfig::default()
            .with_workers(2)
            .with_cache_capacity(64)
            .with_options(options),
        Arc::new(backend),
    )
    .expect("runtime");

    let hot = ap_similarity::binvec::generate::uniform_queries(1, dims, 9)
        .pop()
        .unwrap();
    let cold = runtime.try_submit(hot.clone()).unwrap().wait().unwrap();
    let ack = runtime
        .try_submit_mutation(
            Mutation::Insert {
                vector: hot.clone(),
            },
            &options,
        )
        .unwrap()
        .wait()
        .unwrap()
        .mutation
        .expect("mutation tickets resolve with an ack");
    let warm = runtime.try_submit(hot).unwrap().wait().unwrap();
    assert_ne!(cold.neighbors[0].distance, 0);
    assert_eq!(warm.neighbors[0], Neighbor::new(ack.id, 0));

    let stats = runtime.shutdown();
    println!(
        "serving runtime: generation {}, {} mutation applied, staleness recorded: {}",
        stats.live.map_or(0, |live| live.generation),
        stats.mutations_applied,
        stats.mutation_staleness.summary().is_some()
    );
    println!("live corpus walkthrough complete");
}
