//! The length-prefixed binary wire protocol.
//!
//! Every message on an `ap-serve` connection is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "APWF"
//! 4       1     protocol version (currently 3)
//! 5       1     frame type tag
//! 6       2     reserved (must be zero)
//! 8       4     payload length (u32, little-endian; hard cap 16 MiB)
//! 12      8     correlation id (u64, little-endian)
//! 20      ...   payload (frame-type specific, see [`Frame`])
//! ```
//!
//! The correlation id is chosen by the submitting side and echoed verbatim on
//! the response, so one connection can keep any number of queries in flight
//! and match completions arriving in any order. Payload encodings are built
//! from the [`binvec::wire`] vocabulary; every decoder is bounds-checked,
//! refuses hostile declared lengths *before* sizing any allocation, and
//! returns a typed [`WireError`] instead of panicking.

use crate::stats::ServiceStats;
use binvec::wire::{put_f64, put_string, put_u32, put_u64, WireError, WireReader};
use binvec::{BinaryVector, MutAck, Neighbor, QueryOptions, SearchError};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"APWF";

/// The protocol version this build speaks. Version 2 added the live-corpus
/// frames (`Insert`, `Delete`, `MutAck`) and the mutation block of
/// [`StatsFrame`]; version 3 added the write-ahead-log gauge block of
/// [`StatsFrame`]; version 4 added the lane-core gauges (`lane_width`,
/// `lane_batches`, `lane_fill`). Older-version peers are refused at decode.
pub const VERSION: u8 = 4;

/// Bytes of frame header before the payload.
pub const HEADER_LEN: usize = 20;

/// Hard cap on a frame's declared payload length. A peer declaring more is a
/// protocol fault ([`WireError::Oversized`]) — the declaration is refused
/// before any buffer is sized from it, so a hostile length cannot drive an
/// allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Frame type tags (byte 5 of the header).
mod tag {
    pub const PING: u8 = 0;
    pub const PONG: u8 = 1;
    pub const SUBMIT: u8 = 2;
    pub const COMPLETED: u8 = 3;
    pub const FAILED: u8 = 4;
    pub const STATS_REQUEST: u8 = 5;
    pub const STATS: u8 = 6;
    pub const INSERT: u8 = 7;
    pub const DELETE: u8 = 8;
    pub const MUT_ACK: u8 = 9;
}

/// A point-in-time view of a serving runtime, as carried by [`Frame::Stats`]:
/// the [`crate::RuntimeConfig`] shape plus the [`ServiceStats`] counters a
/// remote operator needs to decompose network-visible latency.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsFrame {
    /// The backend's label.
    pub backend: String,
    /// Configured worker threads.
    pub workers: u64,
    /// Configured admission-queue capacity.
    pub queue_capacity: u64,
    /// Configured dispatch batch size.
    pub batch_size: u64,
    /// Configured result-cache capacity.
    pub cache_capacity: u64,
    /// Queries admitted (tickets minted).
    pub queries_submitted: u64,
    /// Queries served with results.
    pub queries_served: u64,
    /// Queries failed at dispatch.
    pub failed_queries: u64,
    /// Queries shed because their deadline passed.
    pub deadline_expired: u64,
    /// Submissions refused by the full admission queue.
    pub queue_full_rejections: u64,
    /// Batches dispatched to the backend.
    pub batches_dispatched: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that missed the cache.
    pub cache_misses: u64,
    /// AP symbol cycles charged across all dispatches.
    pub ap_symbol_cycles: u64,
    /// The backend's corpus generation (0 for a frozen corpus).
    pub generation: u64,
    /// Mutations admitted (tickets minted).
    pub mutations_submitted: u64,
    /// Mutations applied and acknowledged.
    pub mutations_applied: u64,
    /// Mutations refused, failed, or shed past their deadline.
    pub mutations_failed: u64,
    /// Vectors resident in uncompacted delta partitions.
    pub delta_vectors: u64,
    /// Tombstoned ids not yet folded away by compaction.
    pub tombstones: u64,
    /// WAL records appended (0 when serving without a write-ahead log).
    pub wal_records: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// fsyncs issued by the WAL (group commit makes this ≤ `wal_records`).
    pub wal_fsyncs: u64,
    /// Largest commit group (records covered by one fsync).
    pub wal_group_max: u64,
    /// Checkpoints taken.
    pub wal_checkpoints: u64,
    /// Records replayed from the log tail at the most recent restore.
    pub wal_replayed: u64,
    /// Bytes truncated off a torn log tail at the most recent restore.
    pub wal_truncated_bytes: u64,
    /// Lane width of the cycle-accurate execution core (64 once any batch ran
    /// cycle-accurately, 0 before).
    pub lane_width: u64,
    /// Cycle-accurate batches (every one runs on the lane core).
    pub lane_batches: u64,
    /// Wall-clock uptime in milliseconds.
    pub uptime_ms: f64,
    /// Mean records per fsync (0.0 before the first fsync).
    pub wal_group_mean: f64,
    /// Mean lane occupancy of cycle-accurate batches (0.0 before the first).
    pub lane_fill: f64,
    /// Submit→dispatch queue-wait percentiles `(p50, p95, p99)` in
    /// milliseconds, absent before the first dispatched query.
    pub queue_wait_ms: Option<(f64, f64, f64)>,
    /// Mutation submit→visible staleness percentiles `(p50, p95, p99)` in
    /// milliseconds, absent before the first applied mutation.
    pub mutation_staleness_ms: Option<(f64, f64, f64)>,
}

impl StatsFrame {
    /// Builds the frame from a runtime's config shape and stats snapshot.
    pub fn snapshot(backend: &str, config: &crate::RuntimeConfig, stats: &ServiceStats) -> Self {
        Self {
            backend: backend.to_string(),
            workers: config.workers as u64,
            queue_capacity: config.queue_capacity as u64,
            batch_size: config.batch_size as u64,
            cache_capacity: config.cache_capacity as u64,
            queries_submitted: stats.queries_submitted,
            queries_served: stats.queries_served,
            failed_queries: stats.failed_queries,
            deadline_expired: stats.deadline_expired,
            queue_full_rejections: stats.queue_full_rejections,
            batches_dispatched: stats.batches_dispatched,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            ap_symbol_cycles: stats.ap_symbol_cycles,
            generation: stats.generation,
            mutations_submitted: stats.mutations_submitted,
            mutations_applied: stats.mutations_applied,
            mutations_failed: stats.mutations_failed,
            delta_vectors: stats.delta_vectors,
            tombstones: stats.tombstones,
            wal_records: stats.wal_records,
            wal_bytes: stats.wal_bytes,
            wal_fsyncs: stats.wal_fsyncs,
            wal_group_max: stats.wal_group_max,
            wal_checkpoints: stats.wal_checkpoints,
            wal_replayed: stats.wal_replayed,
            wal_truncated_bytes: stats.wal_truncated_bytes,
            lane_width: stats.lane_width as u64,
            lane_batches: stats.lane_batches,
            uptime_ms: stats.uptime.as_secs_f64() * 1e3,
            wal_group_mean: stats.wal_group_mean,
            lane_fill: stats.lane_fill().unwrap_or(0.0),
            queue_wait_ms: stats.queue_wait_percentiles_ms(),
            mutation_staleness_ms: stats.mutation_staleness_percentiles_ms(),
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_string(out, &self.backend);
        for value in [
            self.workers,
            self.queue_capacity,
            self.batch_size,
            self.cache_capacity,
            self.queries_submitted,
            self.queries_served,
            self.failed_queries,
            self.deadline_expired,
            self.queue_full_rejections,
            self.batches_dispatched,
            self.cache_hits,
            self.cache_misses,
            self.ap_symbol_cycles,
            self.generation,
            self.mutations_submitted,
            self.mutations_applied,
            self.mutations_failed,
            self.delta_vectors,
            self.tombstones,
            self.wal_records,
            self.wal_bytes,
            self.wal_fsyncs,
            self.wal_group_max,
            self.wal_checkpoints,
            self.wal_replayed,
            self.wal_truncated_bytes,
            self.lane_width,
            self.lane_batches,
        ] {
            put_u64(out, value);
        }
        put_f64(out, self.uptime_ms);
        put_f64(out, self.wal_group_mean);
        put_f64(out, self.lane_fill);
        for triple in [self.queue_wait_ms, self.mutation_staleness_ms] {
            match triple {
                None => out.push(0),
                Some((p50, p95, p99)) => {
                    out.push(1);
                    put_f64(out, p50);
                    put_f64(out, p95);
                    put_f64(out, p99);
                }
            }
        }
    }

    fn decode_payload(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let backend = reader.string()?;
        let mut counters = [0u64; 28];
        for slot in &mut counters {
            *slot = reader.u64()?;
        }
        let uptime_ms = reader.f64()?;
        let wal_group_mean = reader.f64()?;
        let lane_fill = reader.f64()?;
        let queue_wait_ms = if reader.presence()? {
            Some((reader.f64()?, reader.f64()?, reader.f64()?))
        } else {
            None
        };
        let mutation_staleness_ms = if reader.presence()? {
            Some((reader.f64()?, reader.f64()?, reader.f64()?))
        } else {
            None
        };
        let [workers, queue_capacity, batch_size, cache_capacity, queries_submitted, queries_served, failed_queries, deadline_expired, queue_full_rejections, batches_dispatched, cache_hits, cache_misses, ap_symbol_cycles, generation, mutations_submitted, mutations_applied, mutations_failed, delta_vectors, tombstones, wal_records, wal_bytes, wal_fsyncs, wal_group_max, wal_checkpoints, wal_replayed, wal_truncated_bytes, lane_width, lane_batches] =
            counters;
        Ok(Self {
            backend,
            workers,
            queue_capacity,
            batch_size,
            cache_capacity,
            queries_submitted,
            queries_served,
            failed_queries,
            deadline_expired,
            queue_full_rejections,
            batches_dispatched,
            cache_hits,
            cache_misses,
            ap_symbol_cycles,
            generation,
            mutations_submitted,
            mutations_applied,
            mutations_failed,
            delta_vectors,
            tombstones,
            wal_records,
            wal_bytes,
            wal_fsyncs,
            wal_group_max,
            wal_checkpoints,
            wal_replayed,
            wal_truncated_bytes,
            lane_width,
            lane_batches,
            uptime_ms,
            wal_group_mean,
            lane_fill,
            queue_wait_ms,
            mutation_staleness_ms,
        })
    }
}

/// One protocol message. Request frames travel client→server (`Ping`,
/// `Submit`, `Insert`, `Delete`, `StatsRequest`); response frames travel
/// server→client (`Pong`, `Completed`, `Failed`, `MutAck`, `Stats`), echoing
/// the request's correlation id.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Liveness probe; answered with [`Frame::Pong`].
    Ping,
    /// Liveness answer.
    Pong,
    /// One query submission: full [`QueryOptions`] (k, bound, execution
    /// preference, priority, deadline budget) plus the query bits.
    Submit {
        /// Per-query options.
        options: QueryOptions,
        /// The query vector.
        query: BinaryVector,
    },
    /// A successful completion: the submission's neighbors.
    Completed {
        /// Neighbors, sorted by `(distance, id)`.
        neighbors: Vec<Neighbor>,
    },
    /// A failed submission: the typed error.
    Failed {
        /// Why the query failed.
        error: SearchError,
    },
    /// Request for a [`Frame::Stats`] snapshot.
    StatsRequest,
    /// A runtime statistics snapshot.
    Stats(Box<StatsFrame>),
    /// Append a vector to a live corpus; answered with [`Frame::MutAck`].
    /// The options carry the mutation's priority and deadline budget.
    Insert {
        /// Scheduling options for the mutation ticket.
        options: QueryOptions,
        /// The vector to append.
        vector: BinaryVector,
    },
    /// Tombstone a stable id out of a live corpus; answered with
    /// [`Frame::MutAck`].
    Delete {
        /// Scheduling options for the mutation ticket.
        options: QueryOptions,
        /// The stable id to delete.
        id: u64,
    },
    /// A mutation acknowledgement: op, assigned/echoed id, and the corpus
    /// generation at which the mutation became visible.
    MutAck(MutAck),
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Self::Ping => tag::PING,
            Self::Pong => tag::PONG,
            Self::Submit { .. } => tag::SUBMIT,
            Self::Completed { .. } => tag::COMPLETED,
            Self::Failed { .. } => tag::FAILED,
            Self::StatsRequest => tag::STATS_REQUEST,
            Self::Stats(_) => tag::STATS,
            Self::Insert { .. } => tag::INSERT,
            Self::Delete { .. } => tag::DELETE,
            Self::MutAck(_) => tag::MUT_ACK,
        }
    }

    /// Appends the full frame — header and payload — to `out`. Encoding into
    /// a caller-owned buffer keeps a warmed connection allocation-free on the
    /// encode side.
    pub fn encode(&self, correlation: u64, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.tag());
        out.extend_from_slice(&[0, 0]);
        put_u32(out, 0); // payload length, backpatched below
        put_u64(out, correlation);
        let payload_at = out.len();
        match self {
            Self::Ping | Self::Pong | Self::StatsRequest => {}
            Self::Submit { options, query } => {
                options.encode_wire(out);
                query.encode_wire(out);
            }
            Self::Completed { neighbors } => {
                put_u32(out, neighbors.len() as u32);
                for neighbor in neighbors {
                    neighbor.encode_wire(out);
                }
            }
            Self::Failed { error } => error.encode_wire(out),
            Self::Stats(stats) => stats.encode_payload(out),
            Self::Insert { options, vector } => {
                options.encode_wire(out);
                vector.encode_wire(out);
            }
            Self::Delete { options, id } => {
                options.encode_wire(out);
                put_u64(out, *id);
            }
            Self::MutAck(ack) => ack.encode_wire(out),
        }
        let payload_len = (out.len() - payload_at) as u32;
        out[header_at + 8..header_at + 12].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Attempts to decode one frame from the front of `bytes`.
    ///
    /// Returns `Ok(None)` when `bytes` holds a valid but incomplete frame
    /// (read more and retry), or `Ok(Some((correlation, frame, consumed)))`
    /// on success. Header faults (bad magic, unsupported version, unknown
    /// type, oversized declared length) are detected from however many bytes
    /// are available, so garbage fails fast instead of waiting forever for
    /// "more" of a frame that will never become valid.
    ///
    /// # Errors
    /// [`WireError`] on any protocol fault; the connection that produced the
    /// bytes cannot be resynchronized and should be failed.
    pub fn decode(bytes: &[u8]) -> Result<Option<(u64, Frame, usize)>, WireError> {
        // Validate the header prefix as far as the buffer reaches.
        let check = bytes.len().min(4);
        if bytes[..check] != MAGIC[..check] {
            let mut found = [0u8; 4];
            found[..check].copy_from_slice(&bytes[..check]);
            return Err(WireError::BadMagic { found });
        }
        if bytes.len() >= 5 && bytes[4] != VERSION {
            return Err(WireError::UnsupportedVersion { found: bytes[4] });
        }
        if bytes.len() >= 6 && bytes[5] > tag::MUT_ACK {
            return Err(WireError::UnknownFrameType { found: bytes[5] });
        }
        if bytes.len() < HEADER_LEN {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if declared > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                declared: declared as u64,
                limit: MAX_PAYLOAD as u64,
            });
        }
        if bytes.len() < HEADER_LEN + declared {
            return Ok(None);
        }
        let correlation = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let mut reader = WireReader::new(&bytes[HEADER_LEN..HEADER_LEN + declared]);
        let frame = match bytes[5] {
            tag::PING => Self::Ping,
            tag::PONG => Self::Pong,
            tag::SUBMIT => Self::Submit {
                options: QueryOptions::decode_wire(&mut reader)?,
                query: BinaryVector::decode_wire(&mut reader)?,
            },
            tag::COMPLETED => {
                let count = reader.u32()? as usize;
                // A neighbor is 12 payload bytes; a count the payload cannot
                // hold is refused before the Vec is sized from it.
                if count > reader.remaining() / 12 {
                    return Err(WireError::Oversized {
                        declared: count as u64,
                        limit: (reader.remaining() / 12) as u64,
                    });
                }
                let mut neighbors = Vec::with_capacity(count);
                for _ in 0..count {
                    neighbors.push(Neighbor::decode_wire(&mut reader)?);
                }
                Self::Completed { neighbors }
            }
            tag::FAILED => Self::Failed {
                error: SearchError::decode_wire(&mut reader)?,
            },
            tag::STATS_REQUEST => Self::StatsRequest,
            tag::STATS => Self::Stats(Box::new(StatsFrame::decode_payload(&mut reader)?)),
            tag::INSERT => Self::Insert {
                options: QueryOptions::decode_wire(&mut reader)?,
                vector: BinaryVector::decode_wire(&mut reader)?,
            },
            tag::DELETE => Self::Delete {
                options: QueryOptions::decode_wire(&mut reader)?,
                id: reader.u64()?,
            },
            tag::MUT_ACK => Self::MutAck(MutAck::decode_wire(&mut reader)?),
            found => return Err(WireError::UnknownFrameType { found }),
        };
        if !reader.is_empty() {
            return Err(WireError::Malformed {
                what: "trailing payload bytes",
            });
        }
        Ok(Some((correlation, frame, HEADER_LEN + declared)))
    }
}

/// Accumulates stream bytes and yields complete frames — the reassembly
/// buffer each connection end owns. TCP gives no message boundaries; callers
/// [`Self::feed`] whatever `read` returned and drain frames with
/// [`Self::next_frame`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim consumed space only when it dominates the
        // buffer, so feeding stays amortized O(bytes).
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Decodes the next complete frame, if one is buffered.
    ///
    /// # Errors
    /// [`WireError`] on a protocol fault; the stream cannot be resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<(u64, Frame)>, WireError> {
        match Frame::decode(&self.buf[self.consumed..])? {
            None => Ok(None),
            Some((correlation, frame, consumed)) => {
                self.consumed += consumed;
                Ok(Some((correlation, frame)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame, correlation: u64) -> Frame {
        let mut buf = Vec::new();
        frame.encode(correlation, &mut buf);
        let (corr, decoded, consumed) = Frame::decode(&buf).expect("decodes").expect("complete");
        assert_eq!(corr, correlation);
        assert_eq!(consumed, buf.len());
        decoded
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        assert_eq!(roundtrip(Frame::Ping, 0), Frame::Ping);
        assert_eq!(roundtrip(Frame::Pong, u64::MAX), Frame::Pong);
        assert_eq!(roundtrip(Frame::StatsRequest, 7), Frame::StatsRequest);

        let mut query = BinaryVector::zeros(65);
        query.set(64, true);
        let submit = Frame::Submit {
            options: QueryOptions::top(5).within(9),
            query: query.clone(),
        };
        match roundtrip(submit, 42) {
            Frame::Submit {
                options,
                query: decoded,
            } => {
                assert_eq!(
                    options.result_key(),
                    QueryOptions::top(5).within(9).result_key()
                );
                assert_eq!(decoded, query);
            }
            other => panic!("expected Submit, got {other:?}"),
        }

        let completed = Frame::Completed {
            neighbors: vec![Neighbor::new(3, 0), Neighbor::new(11, 2)],
        };
        assert_eq!(roundtrip(completed.clone(), 42), completed);
        let empty = Frame::Completed { neighbors: vec![] };
        assert_eq!(roundtrip(empty.clone(), 1), empty);

        let failed = Frame::Failed {
            error: SearchError::QueueFull { capacity: 64 },
        };
        assert_eq!(roundtrip(failed.clone(), 9), failed);

        let insert = Frame::Insert {
            options: QueryOptions::top(1),
            vector: query,
        };
        assert_eq!(roundtrip(insert.clone(), 77), insert);
        let delete = Frame::Delete {
            options: QueryOptions::top(1),
            id: u64::MAX,
        };
        assert_eq!(roundtrip(delete.clone(), 78), delete);
        let ack = Frame::MutAck(MutAck {
            op: binvec::MutationOp::Insert,
            id: 4096,
            generation: 17,
        });
        assert_eq!(roundtrip(ack.clone(), 79), ack);
    }

    #[test]
    fn stats_frame_roundtrips() {
        let stats = StatsFrame {
            backend: "ap-engine[prepared]".to_string(),
            workers: 4,
            queue_capacity: 1024,
            batch_size: 7,
            cache_capacity: 128,
            queries_submitted: 1000,
            queries_served: 990,
            failed_queries: 6,
            deadline_expired: 4,
            queue_full_rejections: 12,
            batches_dispatched: 150,
            cache_hits: 30,
            cache_misses: 970,
            ap_symbol_cycles: 123_456,
            generation: 42,
            mutations_submitted: 25,
            mutations_applied: 21,
            mutations_failed: 4,
            delta_vectors: 19,
            tombstones: 2,
            wal_records: 21,
            wal_bytes: 840,
            wal_fsyncs: 7,
            wal_group_max: 5,
            wal_checkpoints: 1,
            wal_replayed: 4,
            wal_truncated_bytes: 13,
            lane_width: 64,
            lane_batches: 140,
            uptime_ms: 1234.5,
            wal_group_mean: 3.0,
            lane_fill: 0.109375,
            queue_wait_ms: Some((0.2, 1.5, 3.0)),
            mutation_staleness_ms: Some((0.4, 2.0, 5.5)),
        };
        assert_eq!(
            roundtrip(Frame::Stats(Box::new(stats.clone())), 3),
            Frame::Stats(Box::new(stats.clone()))
        );
        // A frozen-corpus runtime: no mutation percentiles on the wire.
        let frozen = StatsFrame {
            mutation_staleness_ms: None,
            queue_wait_ms: None,
            ..stats
        };
        assert_eq!(
            roundtrip(Frame::Stats(Box::new(frozen.clone())), 4),
            Frame::Stats(Box::new(frozen))
        );
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let mut buf = Vec::new();
        Frame::Completed {
            neighbors: vec![Neighbor::new(1, 2)],
        }
        .encode(5, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                Frame::decode(&buf[..cut]).expect("valid prefix"),
                None,
                "prefix of {cut} bytes is incomplete, not an error"
            );
        }
    }

    #[test]
    fn bad_magic_fails_fast_even_on_short_buffers() {
        assert!(matches!(
            Frame::decode(b"GET"),
            Err(WireError::BadMagic { .. })
        ));
        assert!(matches!(
            Frame::decode(b"HTTP/1.1 200 OK"),
            Err(WireError::BadMagic { .. })
        ));
        // A correct 1-byte prefix is not yet a fault.
        assert_eq!(Frame::decode(b"A").unwrap(), None);
    }

    #[test]
    fn version_and_type_faults_are_typed() {
        let mut buf = Vec::new();
        Frame::Ping.encode(0, &mut buf);
        buf[4] = 9;
        assert_eq!(
            Frame::decode(&buf),
            Err(WireError::UnsupportedVersion { found: 9 })
        );
        buf[4] = VERSION;
        buf[5] = 200;
        assert_eq!(
            Frame::decode(&buf),
            Err(WireError::UnknownFrameType { found: 200 })
        );
    }

    #[test]
    fn oversized_declared_payload_is_refused_before_buffering() {
        let mut buf = Vec::new();
        Frame::Ping.encode(0, &mut buf);
        buf[8..12].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&buf),
            Err(WireError::Oversized {
                declared: MAX_PAYLOAD as u64 + 1,
                limit: MAX_PAYLOAD as u64,
            })
        );
    }

    #[test]
    fn hostile_neighbor_count_is_refused_before_allocation() {
        let mut buf = Vec::new();
        Frame::Completed { neighbors: vec![] }.encode(0, &mut buf);
        // Declare u32::MAX neighbors in a 4-byte payload.
        let payload_at = HEADER_LEN;
        buf[payload_at..payload_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&buf),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn frame_buffer_reassembles_across_arbitrary_fragmentation() {
        let frames = [
            Frame::Ping,
            Frame::Submit {
                options: QueryOptions::top(3),
                query: BinaryVector::ones(32),
            },
            Frame::Completed {
                neighbors: vec![Neighbor::new(0, 1), Neighbor::new(2, 3)],
            },
        ];
        let mut stream = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            frame.encode(i as u64, &mut stream);
        }
        // Feed one byte at a time: every frame must still come out, in order.
        let mut buffer = FrameBuffer::new();
        let mut decoded = Vec::new();
        for &byte in &stream {
            buffer.feed(&[byte]);
            while let Some((corr, frame)) = buffer.next_frame().expect("valid stream") {
                decoded.push((corr, frame));
            }
        }
        assert_eq!(decoded.len(), frames.len());
        for (i, (corr, frame)) in decoded.iter().enumerate() {
            assert_eq!(*corr, i as u64);
            assert_eq!(frame, &frames[i]);
        }
        assert_eq!(buffer.pending(), 0);
    }

    #[test]
    fn garbage_mid_stream_poisons_the_buffer_with_a_typed_error() {
        let mut buffer = FrameBuffer::new();
        let mut stream = Vec::new();
        Frame::Ping.encode(1, &mut stream);
        stream.extend_from_slice(b"garbage bytes here");
        buffer.feed(&stream);
        assert_eq!(
            buffer.next_frame().unwrap(),
            Some((1, Frame::Ping)),
            "the valid frame ahead of the garbage still decodes"
        );
        assert!(matches!(
            buffer.next_frame(),
            Err(WireError::BadMagic { .. })
        ));
    }
}
