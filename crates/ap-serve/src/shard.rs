//! Corpus sharding: N simulated boards, each serving one slice of the dataset.
//!
//! A shard is exactly what a board configuration is in the paper (§III-C): a
//! contiguous slice of the corpus compiled into one image. Where the
//! single-board engine *time-multiplexes* partitions through sequential
//! reconfigurations, a sharded deployment populates several boards with
//! different partitions and broadcasts each query batch to all of them. The
//! per-query results are merged on the host with the same bounded top-k merge
//! the engine already uses across reconfigurations, so sharded results are
//! bit-identical to a single-board scan of the whole corpus.

use crate::backend::{BackendBatch, SimilarityBackend};
use binvec::{BinaryDataset, BinaryVector, QueryOptions, SearchError, TopK};

/// A corpus partitioned into contiguous shards with a global → local id map.
#[derive(Clone, Debug)]
pub struct ShardedDataset {
    dims: usize,
    shards: Vec<BinaryDataset>,
    /// Global index of each shard's first vector.
    bases: Vec<usize>,
}

impl ShardedDataset {
    /// Splits `data` into `shards` near-equal contiguous slices.
    ///
    /// The first `len % shards` shards hold one extra vector, so shard sizes
    /// differ by at most one.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn split(data: &BinaryDataset, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let n = data.len();
        let shards = shards.min(n.max(1));
        let base_size = n / shards;
        let remainder = n % shards;

        let mut out_shards = Vec::with_capacity(shards);
        let mut bases = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let size = base_size + usize::from(s < remainder);
            let mut shard = BinaryDataset::with_capacity(data.dims(), size);
            for i in start..start + size {
                shard.push(&data.vector(i));
            }
            out_shards.push(shard);
            bases.push(start);
            start += size;
        }
        Self {
            dims: data.dims(),
            shards: out_shards,
            bases,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Dimensionality of the sharded vectors.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total vectors across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(BinaryDataset::len).sum()
    }

    /// Whether the sharded corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shards, in global id order.
    pub fn shards(&self) -> &[BinaryDataset] {
        &self.shards
    }

    /// Global index of shard `s`'s first vector.
    pub fn base(&self, s: usize) -> usize {
        self.bases[s]
    }

    /// Consumes the sharding, yielding `(base_global_index, shard)` pairs.
    pub fn into_parts(self) -> Vec<(usize, BinaryDataset)> {
        self.bases.into_iter().zip(self.shards).collect()
    }
}

/// A backend per shard, queried in parallel, merged on the host.
///
/// Built from a [`ShardedDataset`] and a factory that binds an engine to each
/// shard's slice of the corpus. Backends report neighbor ids local to their
/// shard; the merge rebases them into the global id space.
pub struct ShardedBackend<B: SimilarityBackend> {
    backends: Vec<B>,
    bases: Vec<usize>,
    dims: usize,
}

impl<B: SimilarityBackend> ShardedBackend<B> {
    /// Builds one backend per shard with `factory(shard_index, shard_data)`.
    pub fn build(sharding: &ShardedDataset, factory: impl Fn(usize, &BinaryDataset) -> B) -> Self {
        let backends: Vec<B> = sharding
            .shards()
            .iter()
            .enumerate()
            .map(|(s, shard)| factory(s, shard))
            .collect();
        Self {
            backends,
            bases: (0..sharding.shard_count())
                .map(|s| sharding.base(s))
                .collect(),
            dims: sharding.dims(),
        }
    }

    /// Builds one backend per shard with a fallible factory, propagating the
    /// first construction error. This is the path the pipeline builder uses,
    /// so a mis-configured shard backend surfaces as a [`SearchError`] instead
    /// of a panic mid-construction.
    pub fn try_build(
        sharding: &ShardedDataset,
        factory: impl Fn(usize, &BinaryDataset) -> Result<B, SearchError>,
    ) -> Result<Self, SearchError> {
        let backends = sharding
            .shards()
            .iter()
            .enumerate()
            .map(|(s, shard)| factory(s, shard))
            .collect::<Result<Vec<B>, SearchError>>()?;
        Ok(Self {
            backends,
            bases: (0..sharding.shard_count())
                .map(|s| sharding.base(s))
                .collect(),
            dims: sharding.dims(),
        })
    }

    /// Number of shards served.
    pub fn shard_count(&self) -> usize {
        self.backends.len()
    }

    /// The per-shard backends.
    pub fn backends(&self) -> &[B] {
        &self.backends
    }
}

impl<B: SimilarityBackend> SimilarityBackend for ShardedBackend<B> {
    fn name(&self) -> String {
        let inner = self
            .backends
            .first()
            .map(SimilarityBackend::name)
            .unwrap_or_else(|| "empty".to_string());
        format!("sharded({inner} x{})", self.backends.len())
    }

    fn len(&self) -> usize {
        self.backends.iter().map(|b| b.len()).sum()
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        match self.try_serve_batch(queries, &QueryOptions::top(k)) {
            Ok(batch) => batch,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        options.validate()?;
        for q in queries {
            if q.dims() != self.dims {
                return Err(SearchError::DimMismatch {
                    expected: self.dims,
                    actual: q.dims(),
                });
            }
        }
        if queries.is_empty() {
            return Ok(BackendBatch::default());
        }

        // Fan the batch out: one scoped thread per shard (each thread stands in
        // for one board's host-side driver). The full options travel to every
        // shard, so per-shard engines honour the distance bound and execution
        // preference, and a shard's typed failure propagates instead of
        // panicking inside the fan-out.
        let shard_batches: Vec<Result<BackendBatch, SearchError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .backends
                .iter()
                .map(|backend| scope.spawn(move || backend.try_serve_batch(queries, options)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let shard_batches: Vec<BackendBatch> =
            shard_batches.into_iter().collect::<Result<_, _>>()?;

        // Host-side top-k merge, identical to the engine's merge across
        // sequential reconfigurations — with the shard-local ids rebased first.
        // Clipping per shard and again after the merge is equivalent to
        // clipping once at the end: the bound removes a sorted suffix.
        let mut merged: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(options.k)).collect();
        let mut ap_symbol_cycles = 0u64;
        let mut reconfigurations = 0u64;
        let mut shard_cycles = Vec::with_capacity(shard_batches.len());
        for (batch, &base) in shard_batches.iter().zip(&self.bases) {
            for (acc, neighbors) in merged.iter_mut().zip(&batch.results) {
                for n in neighbors {
                    acc.offer(binvec::Neighbor::new(base + n.id, n.distance));
                }
            }
            // Shards run concurrently: charge the slowest board as the batch's
            // critical path, but report every board for the utilization stats.
            ap_symbol_cycles = ap_symbol_cycles.max(batch.ap_symbol_cycles);
            reconfigurations += batch.reconfigurations;
            shard_cycles.push(batch.ap_symbol_cycles);
        }

        let mut results: Vec<Vec<binvec::Neighbor>> =
            merged.into_iter().map(TopK::into_sorted).collect();
        for neighbors in &mut results {
            options.clip(neighbors);
        }
        Ok(BackendBatch {
            results,
            ap_symbol_cycles,
            reconfigurations,
            shard_cycles,
            run_stats: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_knn::{ApKnnEngine, ExecutionMode, KnnDesign};
    use baselines::{LinearScan, SearchIndex};
    use binvec::generate::{uniform_dataset, uniform_queries};

    #[test]
    fn split_is_a_partition_of_the_corpus() {
        let data = uniform_dataset(103, 16, 3);
        let sharding = ShardedDataset::split(&data, 4);
        assert_eq!(sharding.shard_count(), 4);
        assert_eq!(sharding.len(), 103);
        // Sizes differ by at most one and bases are cumulative.
        let sizes: Vec<usize> = sharding.shards().iter().map(BinaryDataset::len).collect();
        assert_eq!(sizes, vec![26, 26, 26, 25]);
        let mut expected_base = 0;
        for (s, &size) in sizes.iter().enumerate() {
            assert_eq!(sharding.base(s), expected_base);
            expected_base += size;
        }
        // Every vector is where the id map says it is.
        for s in 0..4 {
            for local in 0..sharding.shards()[s].len() {
                assert_eq!(
                    sharding.shards()[s].vector(local),
                    data.vector(sharding.base(s) + local)
                );
            }
        }
    }

    #[test]
    fn more_shards_than_vectors_clamps() {
        let data = uniform_dataset(3, 8, 1);
        let sharding = ShardedDataset::split(&data, 16);
        assert_eq!(sharding.shard_count(), 3);
        assert_eq!(sharding.len(), 3);
    }

    #[test]
    fn sharded_linear_scan_matches_unsharded() {
        let data = uniform_dataset(90, 32, 5);
        let queries = uniform_queries(7, 32, 6);
        let sharding = ShardedDataset::split(&data, 4);
        let sharded = ShardedBackend::build(&sharding, |_, shard| LinearScan::new(shard.clone()));
        let expected = LinearScan::new(data).search_batch(&queries, 5);
        let got = sharded.serve_batch(&queries, 5);
        assert_eq!(got.results, expected);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(SimilarityBackend::len(&sharded), 90);
    }

    #[test]
    fn sharded_ap_engine_matches_unsharded_and_tracks_cycles() {
        let dims = 16;
        let data = uniform_dataset(60, dims, 9);
        let queries = uniform_queries(5, dims, 10);
        let sharding = ShardedDataset::split(&data, 3);
        let sharded = ShardedBackend::try_build(&sharding, |_, shard| {
            crate::ApEngineBackend::try_new(
                ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral),
                shard.clone(),
            )
        })
        .unwrap();
        let expected = LinearScan::new(data).search_batch(&queries, 4);
        let got = sharded.serve_batch(&queries, 4);
        assert_eq!(got.results, expected);
        assert_eq!(got.shard_cycles.len(), 3);
        assert!(got.ap_symbol_cycles > 0);
        assert_eq!(
            got.ap_symbol_cycles,
            *got.shard_cycles.iter().max().unwrap()
        );
    }

    #[test]
    fn sharded_jaccard_selects_the_same_global_top_k() {
        // The per-shard selection (by Jaccard similarity) and the cross-shard
        // merge (by the quantized dissimilarity distance key) use the same
        // ordering, so sharding must not change which similarity values make
        // the global top-k.
        let dims = 16;
        let k = 4;
        let data = uniform_dataset(48, dims, 31);
        let queries = uniform_queries(6, dims, 32);

        let unsharded = crate::JaccardBackend::try_new(
            ap_knn::JaccardSearcher::new(KnnDesign::new(dims)),
            data.clone(),
        )
        .unwrap();
        let sharding = ShardedDataset::split(&data, 3);
        let sharded = ShardedBackend::try_build(&sharding, |_, shard| {
            crate::JaccardBackend::try_new(
                ap_knn::JaccardSearcher::new(KnnDesign::new(dims)),
                shard.clone(),
            )
        })
        .unwrap();

        let single = unsharded.serve_batch(&queries, k);
        let fanned = sharded.serve_batch(&queries, k);
        for (one, many) in single.results.iter().zip(&fanned.results) {
            // Compare distance multisets: membership at the k boundary may
            // differ only among exact similarity ties.
            let dist = |r: &[binvec::Neighbor]| r.iter().map(|n| n.distance).collect::<Vec<_>>();
            assert_eq!(dist(one), dist(many));
            assert!(many.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn try_serve_batch_propagates_options_and_typed_errors() {
        let dims = 16;
        let data = uniform_dataset(40, dims, 33);
        let queries = uniform_queries(4, dims, 34);
        let sharding = ShardedDataset::split(&data, 3);
        let sharded = ShardedBackend::try_build(&sharding, |_, shard| {
            crate::ApEngineBackend::try_new(
                ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral),
                shard.clone(),
            )
        })
        .unwrap();

        // The distance bound travels through the fan-out and the merge.
        let bound = 6u32;
        let options = binvec::QueryOptions::top(data.len()).within(bound);
        let batch = sharded.try_serve_batch(&queries, &options).unwrap();
        for (q, neighbors) in queries.iter().zip(&batch.results) {
            let expected: Vec<binvec::Neighbor> = LinearScan::new(data.clone())
                .search(q, data.len())
                .into_iter()
                .filter(|n| n.distance < bound)
                .collect();
            assert_eq!(neighbors, &expected);
        }

        // Mis-sized queries come back as typed errors, not shard panics.
        let narrow = [binvec::BinaryVector::zeros(8)];
        assert!(matches!(
            sharded.try_serve_batch(&narrow, &binvec::QueryOptions::top(2)),
            Err(SearchError::DimMismatch {
                expected: 16,
                actual: 8
            })
        ));
        assert!(matches!(
            sharded.try_serve_batch(&queries, &binvec::QueryOptions::top(0)),
            Err(SearchError::ZeroK)
        ));
    }

    #[test]
    fn empty_batch_returns_empty() {
        let data = uniform_dataset(10, 8, 2);
        let sharding = ShardedDataset::split(&data, 2);
        let sharded = ShardedBackend::build(&sharding, |_, shard| LinearScan::new(shard.clone()));
        assert!(sharded.serve_batch(&[], 3).results.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let data = uniform_dataset(4, 8, 0);
        let _ = ShardedDataset::split(&data, 0);
    }
}
