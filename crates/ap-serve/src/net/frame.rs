//! The length-prefixed binary wire protocol.
//!
//! Every message on an `ap-serve` connection is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "APWF"
//! 4       1     protocol version (currently 5)
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

use crate::stats::{MetricEntry, MetricValue, Metrics};
use binvec::wire::{put_f64, put_string, put_u32, put_u64, WireError, WireReader};
use binvec::{BinaryVector, MutAck, Neighbor, QueryOptions, SearchError};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"APWF";

/// The protocol version this build speaks. Version 2 added the live-corpus
/// frames (`Insert`, `Delete`, `MutAck`); versions 2, 3 and 4 each also grew
/// the fixed field list [`StatsFrame`] then was. Version 5 made that frame a
/// self-describing list of named metrics, so a new metric no longer moves the
/// version. Older-version peers are refused at decode.
pub const VERSION: u8 = 5;

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
/// the backend's label and the runtime's [`crate::ServiceStats::metrics`] list
/// (whose `config.*` entries are the [`crate::RuntimeConfig`] shape).
///
/// The payload is self-describing — `backend` string, `u32` entry count, then
/// per entry a name string, a kind byte (0 count, 1 gauge, 2 latency) and the
/// value (a `u64`; an `f64`; a `u64` sample count and the p50/p95/p99 `f64`
/// milliseconds) — so a decoder keeps entries whose names it has never heard
/// of and a new metric is not a protocol change.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsFrame {
    /// The backend's label.
    pub backend: String,
    /// Every metric of the snapshot, in the sender's order.
    pub metrics: Metrics,
}

/// Kind bytes of a [`StatsFrame`] entry.
mod metric_kind {
    pub const COUNT: u8 = 0;
    pub const GAUGE: u8 = 1;
    pub const LATENCY: u8 = 2;
}

/// Fewest payload bytes one entry can occupy: an empty name's length prefix,
/// the kind byte and an 8-byte value.
const MIN_ENTRY_LEN: usize = 4 + 1 + 8;

impl StatsFrame {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_string(out, &self.backend);
        put_u32(out, self.metrics.0.len() as u32);
        for MetricEntry { name, value } in &self.metrics.0 {
            put_string(out, name);
            match *value {
                MetricValue::Count(value) => {
                    out.push(metric_kind::COUNT);
                    put_u64(out, value);
                }
                MetricValue::Gauge(value) => {
                    out.push(metric_kind::GAUGE);
                    put_f64(out, value);
                }
                MetricValue::Latency {
                    count,
                    percentiles_ms,
                } => {
                    out.push(metric_kind::LATENCY);
                    put_u64(out, count);
                    for percentile in percentiles_ms {
                        put_f64(out, percentile);
                    }
                }
            }
        }
    }

    fn decode_payload(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let backend = reader.string()?;
        let count = reader.u32()? as usize;
        // A count the payload cannot hold is refused before the Vec is sized
        // from it (a name's declared length is bounds-checked by `string`).
        let limit = reader.remaining() / MIN_ENTRY_LEN;
        if count > limit {
            return Err(WireError::Oversized {
                declared: count as u64,
                limit: limit as u64,
            });
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let name = reader.string()?;
            let value = match reader.u8()? {
                metric_kind::COUNT => MetricValue::Count(reader.u64()?),
                metric_kind::GAUGE => MetricValue::Gauge(reader.f64()?),
                metric_kind::LATENCY => MetricValue::Latency {
                    count: reader.u64()?,
                    percentiles_ms: [reader.f64()?, reader.f64()?, reader.f64()?],
                },
                _ => {
                    return Err(WireError::Malformed {
                        what: "metric kind",
                    })
                }
            };
            entries.push(MetricEntry { name, value });
        }
        Ok(Self {
            backend,
            metrics: Metrics(entries),
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

    fn stats_frame(entries: &[(&str, MetricValue)]) -> Frame {
        Frame::Stats(Box::new(StatsFrame {
            backend: "ap-engine[prepared]".to_string(),
            metrics: Metrics(
                entries
                    .iter()
                    .map(|&(name, value)| MetricEntry {
                        name: name.to_string(),
                        value,
                    })
                    .collect(),
            ),
        }))
    }

    #[test]
    fn stats_frame_roundtrips() {
        // All three kinds, and a name no table in this build lists: the
        // decoder keeps what it is sent.
        let full = stats_frame(&[
            ("queries.served", MetricValue::Count(990)),
            ("lanes.fill", MetricValue::Gauge(0.109375)),
            (
                "queries.queue_wait",
                MetricValue::Latency {
                    count: 970,
                    percentiles_ms: [0.2, 1.5, 3.0],
                },
            ),
            ("from.a.newer.peer", MetricValue::Count(u64::MAX)),
        ]);
        assert_eq!(roundtrip(full.clone(), 3), full);
        let empty = stats_frame(&[]);
        assert_eq!(roundtrip(empty.clone(), 4), empty);
    }

    #[test]
    fn batch_fill_is_computable_from_a_decoded_frame_alone() {
        let stats = crate::ServiceStats {
            batch_size: 7,
            batches_dispatched: 2,
            full_batches: 1,
            batched_queries: 10,
            reconfigurations: 6,
            ..Default::default()
        };
        let sent = Frame::Stats(Box::new(StatsFrame {
            backend: "linear".to_string(),
            metrics: stats.metrics(),
        }));
        let Frame::Stats(frame) = roundtrip(sent, 5) else {
            panic!("expected Stats");
        };
        let count = |name| frame.metrics.count(name).expect(name) as f64;
        let fill =
            count("batches.queries") / (count("batches.dispatched") * count("config.batch_size"));
        assert_eq!(Some(fill), stats.batch_fill_ratio());
        assert_eq!(frame.metrics.gauge("batches.fill"), Some(fill));
        assert_eq!(frame.metrics.count("ap.reconfigurations"), Some(6));
        assert_eq!(frame.metrics.count("batches.full"), Some(1));
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
