//! Wire-codec integration tests: property round-trips over random frames and
//! adversarial decoding of hostile byte streams.
//!
//! The contract under test: every encodable frame decodes back to itself
//! (deadlines round-trip as remaining budget, not an instant); every hostile
//! byte stream — truncation, corruption, oversized declared lengths, garbage
//! mid-stream — yields a typed [`WireError`], never a panic and never an
//! allocation sized from an unvalidated declared length.

use ap_serve::net::{Frame, FrameBuffer, StatsFrame, HEADER_LEN, MAX_PAYLOAD, VERSION};
use ap_serve::{MetricEntry, MetricValue, Metrics, ServiceStats};
use binvec::wire::{put_string, put_u32, WireError};
use binvec::{
    Deadline, ExecutionPreference, MutAck, MutationOp, Neighbor, Priority, QueryOptions,
    SearchError,
};
use proptest::prelude::*;
use std::time::Duration;

/// Deterministically builds the `i`-th sample frame from a seed, covering
/// every frame kind and exercising every optional field both ways.
fn sample_frame(seed: u64, kind: usize) -> Frame {
    let mix = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(kind as u64);
    match kind % 10 {
        0 => Frame::Ping,
        1 => Frame::Pong,
        2 => Frame::StatsRequest,
        3 => {
            let dims = 1 + (mix % 300) as usize;
            let mut options = QueryOptions::top(1 + (mix % 50) as usize);
            if mix.is_multiple_of(2) {
                options = options.within((mix % 1000) as u32);
            }
            options = options.execution(match mix % 3 {
                0 => ExecutionPreference::Auto,
                1 => ExecutionPreference::CycleAccurate,
                _ => ExecutionPreference::Behavioral,
            });
            options = options.prioritized(match mix % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            });
            if mix.is_multiple_of(3) {
                options = options.by(Deadline::after(Duration::from_micros(mix % 5_000_000)));
            }
            let query = binvec::generate::uniform_queries(1, dims, mix)
                .pop()
                .unwrap();
            Frame::Submit { options, query }
        }
        4 => Frame::Completed {
            neighbors: (0..(mix % 40))
                .map(|i| Neighbor::new(mix.wrapping_add(i) as usize, (mix % 97) as u32 + i as u32))
                .collect(),
        },
        5 => {
            let errors = [
                SearchError::ZeroDims,
                SearchError::DimMismatch {
                    expected: (mix % 512) as usize,
                    actual: (mix % 77) as usize,
                },
                SearchError::ZeroK,
                SearchError::QueueFull {
                    capacity: (mix % 4096) as usize,
                },
                SearchError::DeadlineExceeded,
                SearchError::Backend {
                    backend: format!("backend-{}", mix % 10),
                    reason: format!("reason {} with unicode ✓", mix % 100),
                },
            ];
            Frame::Failed {
                error: errors[(mix % errors.len() as u64) as usize].clone(),
            }
        }
        6 => Frame::Insert {
            options: QueryOptions::top(1 + (mix % 9) as usize),
            vector: binvec::generate::uniform_queries(1, 1 + (mix % 200) as usize, mix)
                .pop()
                .unwrap(),
        },
        7 => Frame::Delete {
            options: QueryOptions::top(1).prioritized(Priority::High),
            id: mix,
        },
        8 => Frame::MutAck(MutAck {
            op: if mix.is_multiple_of(2) {
                MutationOp::Insert
            } else {
                MutationOp::Delete
            },
            id: (mix % 1_000_000) as usize,
            generation: mix / 3,
        }),
        _ => Frame::Stats(Box::new(StatsFrame {
            backend: format!("engine-{}", mix % 5),
            metrics: sample_metrics(mix),
        })),
    }
}

/// An arbitrary metric list: 0 to 12 entries (empty whenever `mix` is a
/// multiple of 13), the three value kinds in rotation, names unique by
/// position — and none of them a name `ServiceStats::metrics` would emit, so
/// a round-trip also shows the decoder keeps names no table of its own lists.
fn sample_metrics(mix: u64) -> Metrics {
    let entries = (0..mix % 13).map(|i| {
        let v = mix.rotate_left(i as u32 * 5) ^ i;
        MetricEntry {
            name: format!("group{}.metric-{i}-{}", i / 3, v % 1000),
            value: match (mix + i) % 3 {
                0 => MetricValue::Count(v),
                1 => MetricValue::Gauge((v % 1_000_000) as f64 / 7.0),
                _ => MetricValue::Latency {
                    count: v % 100_000,
                    percentiles_ms: [(v % 10) as f64, (v % 100) as f64, (v % 1000) as f64 / 3.0],
                },
            },
        }
    });
    Metrics(entries.collect())
}

/// Frame equality for round-trips: everything must match exactly except a
/// Submit deadline, which travels as a remaining budget and re-anchors on
/// decode — compare budgets with a generous tolerance instead.
fn assert_roundtrip_eq(original: &Frame, decoded: &Frame) {
    match (original, decoded) {
        (
            Frame::Submit {
                options: a,
                query: qa,
            },
            Frame::Submit {
                options: b,
                query: qb,
            },
        ) => {
            assert_eq!(qa, qb);
            assert_eq!(a.k, b.k);
            assert_eq!(a.within, b.within);
            assert_eq!(a.execution, b.execution);
            assert_eq!(a.priority, b.priority);
            match (a.deadline, b.deadline) {
                (None, None) => {}
                (Some(da), Some(db)) => {
                    let (ra, rb) = (da.remaining(), db.remaining());
                    let drift = ra.abs_diff(rb);
                    assert!(
                        drift < Duration::from_secs(1),
                        "deadline budget drifted {drift:?} across the wire"
                    );
                }
                (a, b) => panic!("deadline presence changed across the wire: {a:?} vs {b:?}"),
            }
        }
        (a, b) => assert_eq!(a, b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame kind round-trips through encode → decode, whole and under
    /// arbitrary stream fragmentation, for random contents.
    #[test]
    fn random_frames_roundtrip(seed in 0u64..1_000_000, kind in 0usize..10) {
        let frame = sample_frame(seed, kind);
        let correlation = seed.wrapping_mul(31);

        // Whole-buffer decode.
        let mut buf = Vec::new();
        frame.encode(correlation, &mut buf);
        let (corr, decoded, consumed) = Frame::decode(&buf).unwrap().expect("complete frame");
        prop_assert_eq!(corr, correlation);
        prop_assert_eq!(consumed, buf.len());
        assert_roundtrip_eq(&frame, &decoded);

        // Fragmented decode: split the stream at a random point and feed the
        // halves separately; every strict prefix must report "incomplete".
        let cut = (seed % buf.len() as u64) as usize;
        let mut buffer = FrameBuffer::new();
        buffer.feed(&buf[..cut]);
        if cut < buf.len() {
            prop_assert_eq!(buffer.next_frame().unwrap(), None);
        }
        buffer.feed(&buf[cut..]);
        let (corr, decoded) = buffer.next_frame().unwrap().expect("reassembled frame");
        prop_assert_eq!(corr, correlation);
        assert_roundtrip_eq(&frame, &decoded);
        prop_assert_eq!(buffer.pending(), 0);
    }

    /// Corrupting any single byte of a valid frame either still decodes (the
    /// byte was don't-care for structure, e.g. inside the query bits or the
    /// correlation id) or fails with a typed error — never a panic.
    #[test]
    fn single_byte_corruption_never_panics(seed in 0u64..100_000, kind in 0usize..10) {
        let frame = sample_frame(seed, kind);
        let mut buf = Vec::new();
        frame.encode(seed, &mut buf);
        let at = (seed % buf.len() as u64) as usize;
        let flip = 1u8 << (seed % 8);
        buf[at] ^= flip;
        // Either outcome is fine; what must never happen is a panic or an
        // attempt to over-allocate (the 16 MiB cap guards declared lengths).
        let _ = Frame::decode(&buf);
    }

    /// Random garbage never decodes to success silently when it cannot be a
    /// frame, and never panics regardless.
    #[test]
    fn random_garbage_never_panics(seed in 0u64..100_000, len in 0usize..256) {
        let mut state = seed;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        if let Ok(None) = Frame::decode(&bytes) {
            // Only acceptable while the buffer is still a plausible
            // prefix: the magic must match as far as the bytes reach.
            let check = bytes.len().min(4);
            prop_assert_eq!(&bytes[..check], &b"APWF"[..check]);
        }
    }
}

#[test]
fn truncation_reports_incomplete_for_every_prefix_of_every_kind() {
    for kind in 0..10 {
        let frame = sample_frame(99, kind);
        let mut buf = Vec::new();
        frame.encode(7, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                Frame::decode(&buf[..cut]).unwrap_or_else(|e| panic!(
                    "prefix {cut} of kind {kind} must be incomplete, got error {e}"
                )),
                None,
                "prefix {cut} of kind {kind}"
            );
        }
    }
}

#[test]
fn oversized_declared_length_is_refused_not_buffered() {
    let mut buf = Vec::new();
    Frame::Ping.encode(0, &mut buf);
    buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Frame::decode(&buf),
        Err(WireError::Oversized { declared, limit })
            if declared == u64::from(u32::MAX) && limit == MAX_PAYLOAD as u64
    ));

    // The same check through the reassembly buffer: feeding the poisoned
    // header alone must fault immediately, without waiting for 4 GiB.
    let mut buffer = FrameBuffer::new();
    buffer.feed(&buf[..HEADER_LEN]);
    assert!(matches!(
        buffer.next_frame(),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn bad_magic_and_version_fail_from_partial_headers() {
    assert!(matches!(
        Frame::decode(b"SSH-2.0-OpenSSH"),
        Err(WireError::BadMagic { .. })
    ));
    assert!(matches!(
        Frame::decode(b"\x00"),
        Err(WireError::BadMagic { .. })
    ));
    // A matching prefix is not yet a fault...
    assert_eq!(Frame::decode(b"APW").unwrap(), None);
    // ...but a wrong version right after the magic is.
    assert!(matches!(
        Frame::decode(b"APWF\x63"),
        Err(WireError::UnsupportedVersion { found: 0x63 })
    ));
}

#[test]
fn a_v4_peer_is_refused_by_version() {
    // v4 carried the fixed 35-field stats frame; whatever its payload, the
    // header alone refuses it.
    assert_eq!(VERSION, 5);
    for kind in 0..10 {
        let mut buf = Vec::new();
        sample_frame(5, kind).encode(1, &mut buf);
        buf[4] = 4;
        assert_eq!(
            Frame::decode(&buf),
            Err(WireError::UnsupportedVersion { found: 4 }),
            "kind {kind}"
        );
    }
}

#[test]
fn stats_frames_keep_every_entry_they_are_sent() {
    let mut saw_empty = false;
    for mix in 0..200u64 {
        let metrics = sample_metrics(mix);
        saw_empty |= metrics.0.is_empty();
        let mut names: Vec<&str> = metrics.0.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.0.len(), "generator names are unique");

        let frame = Frame::Stats(Box::new(StatsFrame {
            backend: "b".to_string(),
            metrics,
        }));
        let mut buf = Vec::new();
        frame.encode(mix, &mut buf);
        let (_, decoded, consumed) = Frame::decode(&buf).unwrap().expect("complete");
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, frame);
    }
    assert!(saw_empty, "the empty list is one of the cases");

    // A frame mixing names this build emits with one it does not: the
    // stranger survives, in place.
    let mut metrics = ServiceStats::default().metrics();
    metrics.0.insert(
        3,
        MetricEntry {
            name: "stage.simulate".to_string(),
            value: MetricValue::Gauge(1.5),
        },
    );
    let frame = Frame::Stats(Box::new(StatsFrame {
        backend: "b".to_string(),
        metrics,
    }));
    let mut buf = Vec::new();
    frame.encode(0, &mut buf);
    let Frame::Stats(decoded) = Frame::decode(&buf).unwrap().unwrap().1 else {
        panic!("expected Stats");
    };
    assert_eq!(decoded.metrics.0[3].name, "stage.simulate");
    assert_eq!(decoded.metrics.gauge("stage.simulate"), Some(1.5));
    assert_eq!(Frame::Stats(decoded), frame);
}

#[test]
fn hostile_counts_inside_payloads_are_refused_before_allocation() {
    // Completed frame declaring u32::MAX neighbors in a 4-byte payload.
    let mut buf = Vec::new();
    Frame::Completed { neighbors: vec![] }.encode(0, &mut buf);
    buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Frame::decode(&buf),
        Err(WireError::Oversized { .. })
    ));

    // Submit frame whose query declares a dimension count far beyond its
    // payload: the vector decoder must refuse it, typed.
    let query = binvec::generate::uniform_queries(1, 64, 3).pop().unwrap();
    let mut buf = Vec::new();
    Frame::Submit {
        options: QueryOptions::top(3),
        query,
    }
    .encode(1, &mut buf);
    let dims_at = buf.len() - 8 - 4; // one 64-bit word + the u32 dims field
    buf[dims_at..dims_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(Frame::decode(&buf).is_err());

    // Stats frames: a declared entry count, then a declared name length,
    // larger than what is left of the payload.
    let stats_frame = |tail: &[u8]| {
        let mut buf = Vec::new();
        Frame::Stats(Box::new(StatsFrame {
            backend: "b".to_string(),
            metrics: Metrics::default(),
        }))
        .encode(0, &mut buf);
        buf.truncate(buf.len() - 4); // drop the honest zero count
        buf.extend_from_slice(tail);
        let payload_len = (buf.len() - HEADER_LEN) as u32;
        buf[8..12].copy_from_slice(&payload_len.to_le_bytes());
        buf
    };
    for declared in [1u32, 1000, u32::MAX] {
        let mut tail = Vec::new();
        put_u32(&mut tail, declared);
        // Twelve bytes follow: one short of the smallest possible entry.
        tail.extend_from_slice(&[0; 12]);
        assert_eq!(
            Frame::decode(&stats_frame(&tail)),
            Err(WireError::Oversized {
                declared: u64::from(declared),
                limit: 0,
            })
        );
    }
    let mut tail = Vec::new();
    put_u32(&mut tail, 1);
    put_u32(&mut tail, u32::MAX); // the name's length
    tail.extend_from_slice(&[0; 32]);
    assert_eq!(
        Frame::decode(&stats_frame(&tail)),
        Err(WireError::Truncated {
            needed: u32::MAX as usize,
            available: 32,
        })
    );
    // An honest name, then a kind byte no version defines.
    let mut tail = Vec::new();
    put_u32(&mut tail, 1);
    put_string(&mut tail, "queries.served");
    tail.push(7);
    tail.extend_from_slice(&[0; 8]);
    assert!(matches!(
        Frame::decode(&stats_frame(&tail)),
        Err(WireError::Malformed { .. })
    ));
}

#[test]
fn a_stream_of_many_frames_survives_pathological_fragmentation() {
    let frames: Vec<Frame> = (0..30)
        .map(|i| sample_frame(i as u64 * 7 + 1, i % 10))
        .collect();
    let mut stream = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        frame.encode(i as u64, &mut stream);
    }
    // Feed in chunks of 1, 3, and 17 bytes; each chunking must reproduce the
    // exact frame sequence.
    for chunk in [1usize, 3, 17] {
        let mut buffer = FrameBuffer::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            buffer.feed(piece);
            while let Some((corr, frame)) = buffer.next_frame().expect("valid stream") {
                decoded.push((corr, frame));
            }
        }
        assert_eq!(decoded.len(), frames.len(), "chunk size {chunk}");
        for (i, (corr, frame)) in decoded.iter().enumerate() {
            assert_eq!(*corr, i as u64);
            assert_roundtrip_eq(&frames[i], frame);
        }
        assert_eq!(buffer.pending(), 0);
    }
}

#[test]
fn every_search_error_variant_crosses_the_wire_typed() {
    let errors = vec![
        SearchError::ZeroDims,
        SearchError::ZeroK,
        SearchError::ZeroDistanceBound,
        SearchError::DimMismatch {
            expected: 64,
            actual: 32,
        },
        SearchError::CapacityExceeded {
            needed: 1 << 40,
            limit: 1 << 20,
        },
        SearchError::Unsupported {
            what: "jaccard over packed streams".to_string(),
        },
        SearchError::QueueFull { capacity: 128 },
        SearchError::DeadlineExceeded,
        SearchError::Backend {
            backend: "ap-knn".to_string(),
            reason: "fabric fault".to_string(),
        },
    ];
    for error in errors {
        let mut buf = Vec::new();
        Frame::Failed {
            error: error.clone(),
        }
        .encode(0, &mut buf);
        match Frame::decode(&buf).unwrap().unwrap().1 {
            Frame::Failed { error: decoded } => assert_eq!(decoded, error),
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}
