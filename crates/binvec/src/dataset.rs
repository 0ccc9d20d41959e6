//! Collections of binary vectors.
//!
//! A [`BinaryDataset`] stores a set of equal-dimensionality [`BinaryVector`]s
//! contiguously (vector-major, word-packed) so that the linear-scan baselines touch
//! memory sequentially — the access pattern the paper identifies as the von-Neumann
//! bottleneck — and so datasets can be partitioned into per-board-configuration
//! chunks for the AP's partial-reconfiguration engine.

use crate::bits::{words_for, BinaryVector};
use serde::{Deserialize, Serialize};

/// A dense collection of `n` binary vectors, each with the same dimensionality.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryDataset {
    dims: usize,
    words_per_vec: usize,
    /// Flat storage: vector `i` occupies `words[i*words_per_vec .. (i+1)*words_per_vec]`.
    words: Vec<u64>,
    len: usize,
}

impl BinaryDataset {
    /// Creates an empty dataset holding vectors of `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            words_per_vec: words_for(dims),
            words: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty dataset with capacity for `n` vectors.
    pub fn with_capacity(dims: usize, n: usize) -> Self {
        Self {
            dims,
            words_per_vec: words_for(dims),
            words: Vec::with_capacity(n * words_for(dims)),
            len: 0,
        }
    }

    /// Builds a dataset from an iterator of vectors.
    ///
    /// # Panics
    /// Panics if any vector's dimensionality differs from `dims`.
    pub fn from_vectors<I>(dims: usize, vectors: I) -> Self
    where
        I: IntoIterator<Item = BinaryVector>,
    {
        let mut ds = Self::new(dims);
        for v in vectors {
            ds.push(&v);
        }
        ds
    }

    /// Dimensionality of every vector in the dataset.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a vector to the dataset.
    ///
    /// # Panics
    /// Panics if the vector's dimensionality differs from the dataset's.
    pub fn push(&mut self, v: &BinaryVector) {
        assert_eq!(
            v.dims(),
            self.dims,
            "vector dims {} != dataset dims {}",
            v.dims(),
            self.dims
        );
        self.words.extend_from_slice(v.words());
        // A vector may carry exactly words_for(dims) words by construction.
        debug_assert_eq!(v.words().len(), self.words_per_vec);
        self.len += 1;
    }

    /// Returns the packed words of vector `i`.
    #[inline]
    pub fn vector_words(&self, i: usize) -> &[u64] {
        assert!(
            i < self.len,
            "vector index {i} out of range (len={})",
            self.len
        );
        let start = i * self.words_per_vec;
        &self.words[start..start + self.words_per_vec]
    }

    /// Materializes vector `i` as an owned [`BinaryVector`].
    pub fn vector(&self, i: usize) -> BinaryVector {
        BinaryVector::from_words(self.dims, self.vector_words(i).to_vec())
    }

    /// Hamming distance between the stored vector `i` and an external query.
    ///
    /// Operates directly on the packed words without materializing the vector.
    #[inline]
    pub fn hamming_to(&self, i: usize, query: &BinaryVector) -> u32 {
        assert_eq!(query.dims(), self.dims, "query dims mismatch");
        self.vector_words(i)
            .iter()
            .zip(query.words().iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distances from `query` to every vector in the dataset, written into
    /// a caller-owned buffer (cleared first, then filled in vector order).
    ///
    /// One dimensionality check covers the whole batch and the kernel runs straight
    /// over the packed word storage. Vectors of one to four words (up to 256 dims)
    /// take a kernel specialised on that word count, which the compiler unrolls and
    /// vectorises; wider vectors take the generic loop. This is the kernel behind
    /// the behavioural AP engine and the linear-scan baseline.
    ///
    /// # Panics
    /// Panics if the query's dimensionality differs from the dataset's.
    pub fn hamming_batch_into(&self, query: &BinaryVector, out: &mut Vec<u32>) {
        assert_eq!(
            query.dims(),
            self.dims,
            "query dims {} != dataset dims {}",
            query.dims(),
            self.dims
        );
        out.clear();
        out.resize(self.len, 0);
        let qw = query.words();
        match self.words_per_vec {
            0 => {}
            1 => scan::<1>(&self.words, qw, out),
            2 => scan::<2>(&self.words, qw, out),
            3 => scan::<3>(&self.words, qw, out),
            4 => scan::<4>(&self.words, qw, out),
            w => {
                for (dist, v) in out.iter_mut().zip(self.words.chunks_exact(w)) {
                    *dist = v.iter().zip(qw).map(|(a, b)| (a ^ b).count_ones()).sum();
                }
            }
        }
    }

    /// Iterates over all vectors as owned [`BinaryVector`]s.
    pub fn iter(&self) -> impl Iterator<Item = BinaryVector> + '_ {
        (0..self.len).map(move |i| self.vector(i))
    }

    /// Splits the dataset into contiguous partitions of at most `chunk` vectors.
    ///
    /// This mirrors how the AP engine splits a large dataset across board
    /// configurations: each partition keeps the global index of its first vector so
    /// reported IDs can be mapped back to dataset positions.
    pub fn partition(&self, chunk: usize) -> Vec<DatasetPartition> {
        assert!(chunk > 0, "partition chunk size must be positive");
        let mut parts = Vec::new();
        let mut start = 0;
        while start < self.len {
            let end = (start + chunk).min(self.len);
            let mut data = BinaryDataset::with_capacity(self.dims, end - start);
            for i in start..end {
                data.push(&self.vector(i));
            }
            parts.push(DatasetPartition {
                base_index: start,
                data,
            });
            start = end;
        }
        parts
    }

    /// Total bytes of payload (packed) — used for bandwidth accounting.
    pub fn payload_bytes(&self) -> usize {
        self.len * self.dims / 8
            + if !self.dims.is_multiple_of(8) {
                self.len
            } else {
                0
            }
    }
}

/// [`BinaryDataset::hamming_batch_into`]'s kernel for vectors of exactly `W` words.
fn scan<const W: usize>(words: &[u64], query: &[u64], out: &mut [u32]) {
    let (vectors, _) = words.as_chunks::<W>();
    let q = &query.as_chunks::<W>().0[0];
    for (dist, v) in out.iter_mut().zip(vectors) {
        *dist = (0..W).map(|i| (v[i] ^ q[i]).count_ones()).sum();
    }
}

/// A contiguous slice of a dataset assigned to one AP board configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetPartition {
    /// Global index (into the parent dataset) of this partition's first vector.
    pub base_index: usize,
    /// The vectors belonging to this partition.
    pub data: BinaryDataset,
}

impl DatasetPartition {
    /// Maps a local vector index within this partition to its global dataset index.
    #[inline]
    pub fn global_index(&self, local: usize) -> usize {
        self.base_index + local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> BinaryDataset {
        BinaryDataset::from_vectors(
            4,
            vec![
                BinaryVector::from_bits(&[1, 0, 1, 1]),
                BinaryVector::from_bits(&[0, 0, 0, 0]),
                BinaryVector::from_bits(&[1, 1, 1, 1]),
                BinaryVector::from_bits(&[1, 0, 0, 1]),
                BinaryVector::from_bits(&[0, 1, 0, 1]),
            ],
        )
    }

    #[test]
    fn push_and_retrieve() {
        let ds = small_dataset();
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.dims(), 4);
        assert!(!ds.is_empty());
        assert_eq!(ds.vector(0).to_bits(), vec![1, 0, 1, 1]);
        assert_eq!(ds.vector(4).to_bits(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn hamming_to_matches_vector_hamming() {
        let ds = small_dataset();
        let q = BinaryVector::from_bits(&[1, 0, 0, 1]);
        for i in 0..ds.len() {
            assert_eq!(ds.hamming_to(i, &q), ds.vector(i).hamming(&q));
        }
    }

    #[test]
    fn hamming_batch_matches_per_pair_kernel() {
        let ds = small_dataset();
        let q = BinaryVector::from_bits(&[1, 0, 0, 1]);
        let mut batch = vec![99; 2]; // stale contents must be cleared
        ds.hamming_batch_into(&q, &mut batch);
        let expected: Vec<u32> = (0..ds.len()).map(|i| ds.hamming_to(i, &q)).collect();
        assert_eq!(batch, expected);
        // Reuse the same buffer against an empty dataset.
        let empty = BinaryDataset::new(4);
        empty.hamming_batch_into(&q, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    #[should_panic(expected = "query dims")]
    fn hamming_batch_rejects_wrong_dims() {
        let ds = small_dataset();
        let mut out = Vec::new();
        ds.hamming_batch_into(&BinaryVector::zeros(5), &mut out);
    }

    #[test]
    fn iter_yields_all_vectors() {
        let ds = small_dataset();
        let collected: Vec<_> = ds.iter().collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[2].to_bits(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn partition_covers_everything_in_order() {
        let ds = small_dataset();
        let parts = ds.partition(2);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].base_index, 0);
        assert_eq!(parts[1].base_index, 2);
        assert_eq!(parts[2].base_index, 4);
        assert_eq!(parts[0].data.len(), 2);
        assert_eq!(parts[2].data.len(), 1);
        // Reassemble and compare.
        let mut reassembled = Vec::new();
        for p in &parts {
            for i in 0..p.data.len() {
                reassembled.push((p.global_index(i), p.data.vector(i)));
            }
        }
        for (gi, v) in reassembled {
            assert_eq!(v, ds.vector(gi));
        }
    }

    #[test]
    fn partition_chunk_larger_than_len() {
        let ds = small_dataset();
        let parts = ds.partition(100);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].data.len(), 5);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn partition_zero_chunk_panics() {
        let _ = small_dataset().partition(0);
    }

    #[test]
    #[should_panic(expected = "vector dims")]
    fn push_wrong_dims_panics() {
        let mut ds = BinaryDataset::new(4);
        ds.push(&BinaryVector::zeros(5));
    }

    #[test]
    fn empty_dataset() {
        let ds = BinaryDataset::new(64);
        assert!(ds.is_empty());
        assert_eq!(ds.partition(10).len(), 0);
    }

    #[test]
    fn payload_bytes_for_byte_aligned_dims() {
        let mut ds = BinaryDataset::new(128);
        ds.push(&BinaryVector::zeros(128));
        ds.push(&BinaryVector::ones(128));
        assert_eq!(ds.payload_bytes(), 2 * 128 / 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generate::{uniform_dataset, uniform_queries};
    use proptest::prelude::*;

    /// Hamming distance counted bit by bit, independent of any word kernel.
    fn per_bit(a: &BinaryVector, b: &BinaryVector) -> u32 {
        (0..a.dims()).filter(|&i| a.get(i) != b.get(i)).count() as u32
    }

    proptest! {
        // One to five words covers every specialised kernel and the generic
        // loop; `tail` puts the last word anywhere from one bit to full.
        #[test]
        fn hamming_batch_matches_a_per_bit_count(
            words in 1usize..=5,
            tail in 1usize..=64,
            n in 0usize..24,
            seed in any::<u64>(),
        ) {
            let dims = (words - 1) * 64 + tail;
            let ds = uniform_dataset(n, dims, seed);
            let q = &uniform_queries(1, dims, seed ^ 1)[0];
            let mut out = vec![u32::MAX; 3]; // stale contents must be cleared
            ds.hamming_batch_into(q, &mut out);
            let expected: Vec<u32> = (0..n).map(|i| per_bit(&ds.vector(i), q)).collect();
            prop_assert_eq!(&out, &expected);
            BinaryDataset::new(dims).hamming_batch_into(q, &mut out);
            prop_assert!(out.is_empty());
        }
    }
}
