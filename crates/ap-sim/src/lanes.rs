//! Bit-parallel lane execution: up to 64 symbol streams per pass.
//!
//! The sparse-frontier core in [`crate::compiled`] advances one stream at a
//! time — each element's activation is a single bit. This module widens that
//! bit into a `u64` **lane word**: lane `l` of every word belongs to stream
//! `l`, so one pass over the compiled CSR successors advances up to 64
//! streams in lockstep (the "Simultaneous Finite Automata" construction of
//! Sin'ya & Matsuzaki, turned 90°: parallel *queries* instead of parallel
//! *text chunks*).
//!
//! Lanes only pay off when the streams are position-aligned but may disagree
//! on the symbol at a position — exactly the shape of the kNN query windows
//! of the paper, where every query shares the control skeleton (SOF, filler,
//! EOF) and differs only in the per-dimension data bits. The input is
//! therefore a [`LaneStream`]: per cycle, a handful of *groups*, each pairing
//! one symbol with the lane mask of the streams presenting it. Symbol
//! matching uses the compile-time **symbol-class planes** of
//! [`CompiledNetwork`] (elements with identical 256-bit masks share a class):
//! each cycle folds the groups into one `u64` match word per class, and an
//! element's eligible lanes are a single indexed load — no per-lane, per-
//! element mask probing.
//!
//! Counters are **bit-sliced**: a slot holds 33 lane words (*planes*), bit
//! `l` of plane `b` being bit `b` of lane `l`'s value, so one ripple carry of
//! the enabled-lane word increments every lane at once. Each lane stores
//! `count + (2^k − threshold)` with `2^k` the smallest power of two at or
//! above the threshold, which makes the threshold crossing the carry into
//! plane `k`: a sticky "reached" word per slot, no comparator. The same
//! representation serves every width. Only counters with a per-cycle
//! increment cap above 1 and values near `u32` saturation are updated lane by
//! lane, over the same planes.
//!
//! Semantics are bit-identical per lane to [`CompiledNetwork::step_into`]
//! (and therefore to [`crate::reference::ReferenceSimulator`]): counters
//! count per lane, boolean gates evaluate bitwise across lanes, and each
//! [`LaneReportEvent`] carries the lane mask of the streams that reported,
//! sorted by element id within a cycle — demultiplexing the event stream by
//! lane bit reproduces each stream's scalar run exactly. The workspace
//! proptest sweep (`tests/compiled_equivalence.rs`) enforces this.

use crate::compiled::CompiledNetwork;
use crate::element::{BooleanFunction, ElementId};

/// Maximum number of lanes (streams) in one pass: the width of a lane word.
pub const MAX_LANES: usize = 64;

/// Bit planes per counter slot: a lane stores `count + offset` with
/// `count ≤ u32::MAX` and `offset < 2^31`, which fits in 33 bits.
const PLANES: usize = 33;
/// Planes every increment updates without a branch; a +1 carries past them
/// one time in 32. Measured on the kNN images (counts up to ~130): 5 beats 3
/// by ~3 % at width 1 and at width 64, and covering every plane in use
/// gains nothing more.
const LOW_PLANES: usize = 5;
/// The word-parallel +1 serves a slot while every lane is below `2^31`
/// (`hi ≤ 31`), where `count` cannot reach `u32` saturation; past that the
/// slot is incremented lane by lane with a saturating add.
const FAST_HI: u8 = 31;

/// How a counter slot's threshold is folded into its stored values: lanes
/// hold `count + offset`, `offset = 2^k − threshold`, so `count ≥ threshold`
/// exactly when the stored value reaches `2^k`.
#[derive(Clone, Copy, Debug)]
struct SliceBias {
    offset: u32,
    k: u8,
    /// The `hi` of a freshly reset slot: the planes `offset` occupies, and
    /// at least the [`LOW_PLANES`] the increment always writes.
    floor: u8,
}

impl SliceBias {
    fn new(threshold: u32) -> Self {
        let pow = u64::from(threshold).next_power_of_two();
        let offset = (pow - u64::from(threshold)) as u32;
        let bits = 32 - offset.leading_zeros();
        Self {
            offset,
            k: pow.trailing_zeros() as u8,
            floor: bits.max(LOW_PLANES as u32) as u8,
        }
    }

    /// Plane `b` of a slot whose every lane holds `offset`.
    #[inline]
    fn seed(self, b: usize) -> u64 {
        0u64.wrapping_sub(u64::from(self.offset) >> b & 1)
    }
}

/// Lane `lane`'s stored value (`count + offset`) from a slot's planes.
fn gather(planes: &[u64], lane: usize) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(0, |value, (b, p)| value | (p >> lane & 1) << b)
}

/// Adds 1 to the lanes of `inc` (every lane below `2^31`) and returns the
/// lanes whose value crossed `2^k`: the carry into plane `k`.
#[inline]
fn increment(planes: &mut [u64], hi: &mut u8, k: u8, inc: u64) -> u64 {
    let k = k as usize;
    let mut carry = inc;
    let mut crossed = 0;
    for (b, p) in planes[..LOW_PLANES].iter_mut().enumerate() {
        if b == k {
            crossed = carry;
        }
        let next = *p & carry;
        *p ^= carry;
        carry = next;
    }
    let mut b = LOW_PLANES;
    while carry != 0 {
        if b == k {
            crossed |= carry;
        }
        let next = planes[b] & carry;
        planes[b] ^= carry;
        carry = next;
        b += 1;
    }
    *hi = (*hi).max(b as u8);
    crossed
}

/// Adds `add` to lane `lane`'s count, saturating at `u32::MAX`, and returns
/// whether the lane has reached its threshold.
fn add_lane(planes: &mut [u64], hi: &mut u8, bias: SliceBias, lane: usize, add: u32) -> bool {
    let offset = u64::from(bias.offset);
    let count = (gather(&planes[..*hi as usize], lane) - offset) as u32;
    let value = u64::from(count.saturating_add(add)) + offset;
    *hi = (*hi).max((64 - value.leading_zeros()) as u8);
    let bit = 1u64 << lane;
    for (b, p) in planes[..*hi as usize].iter_mut().enumerate() {
        *p = *p & !bit | 0u64.wrapping_sub(value >> b & 1) & bit;
    }
    value >> bias.k != 0
}

/// One group of a lane-stream cycle: the lanes presenting `symbol`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LaneGroup {
    symbol: u8,
    lanes: u64,
}

/// Up to 64 position-aligned symbol streams, grouped per cycle by symbol.
///
/// Each cycle is a set of `(symbol, lane-mask)` groups whose masks are
/// disjoint and together cover every lane — every stream presents exactly one
/// symbol per cycle. Streams that share most of their symbols (the kNN window
/// skeleton) compress to one or two groups per cycle, which is what makes the
/// lane pass cheap: per-cycle work is `O(groups × classes)` for matching plus
/// the usual sparse frontier walk.
///
/// The buffer is reusable: [`LaneStream::begin`] clears it while keeping the
/// allocations, so pooled serving encodes into the same stream batch after
/// batch without allocating.
#[derive(Clone, Debug, Default)]
pub struct LaneStream {
    /// Number of lanes in use (1..=64).
    width: usize,
    /// CSR offsets into `groups`, one per cycle (`cycles + 1` entries).
    cycle_off: Vec<u32>,
    /// Concatenated per-cycle symbol groups.
    groups: Vec<LaneGroup>,
}

impl LaneStream {
    /// Creates an empty stream (0 lanes, 0 cycles); call [`Self::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the stream and sets the lane count, keeping allocations.
    ///
    /// # Panics
    /// If `width` is 0 or exceeds [`MAX_LANES`].
    pub fn begin(&mut self, width: usize) {
        assert!(
            (1..=MAX_LANES).contains(&width),
            "lane width {width} outside 1..={MAX_LANES}"
        );
        self.width = width;
        self.cycle_off.clear();
        self.cycle_off.push(0);
        self.groups.clear();
    }

    /// Number of lanes in use.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mask with one bit set per lane in use.
    pub fn width_mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Number of complete cycles pushed so far.
    pub fn cycles(&self) -> usize {
        self.cycle_off.len() - 1
    }

    /// Adds a `(symbol, lanes)` group to the cycle being built.
    ///
    /// Groups of one cycle must be disjoint and (by [`Self::end_cycle`])
    /// cover every lane; empty groups are ignored.
    pub fn push_group(&mut self, symbol: u8, lanes: u64) {
        if lanes == 0 {
            return;
        }
        debug_assert_eq!(
            lanes & !self.width_mask(),
            0,
            "group lanes outside stream width"
        );
        self.groups.push(LaneGroup { symbol, lanes });
    }

    /// Completes the cycle being built.
    pub fn end_cycle(&mut self) {
        #[cfg(debug_assertions)]
        {
            let start = *self.cycle_off.last().unwrap() as usize;
            let mut seen = 0u64;
            for g in &self.groups[start..] {
                debug_assert_eq!(seen & g.lanes, 0, "overlapping lane groups in a cycle");
                seen |= g.lanes;
            }
            debug_assert_eq!(seen, self.width_mask(), "cycle does not cover every lane");
        }
        self.cycle_off.push(self.groups.len() as u32);
    }

    /// Pushes one cycle in which every lane presents the same `symbol`.
    pub fn push_uniform_cycle(&mut self, symbol: u8) {
        let mask = self.width_mask();
        self.push_group(symbol, mask);
        self.end_cycle();
    }

    /// Builds a lane stream from equal-length scalar streams (lane `l` =
    /// `streams[l]`), grouping each cycle's symbols.
    ///
    /// # Panics
    /// If `streams` is empty, exceeds [`MAX_LANES`], or lengths differ.
    pub fn from_streams(streams: &[&[u8]]) -> Self {
        let width = streams.len();
        let len = streams.first().map_or(0, |s| s.len());
        assert!(
            streams.iter().all(|s| s.len() == len),
            "unequal stream lengths"
        );
        let mut out = Self::new();
        out.begin(width);
        for t in 0..len {
            let cycle_start = out.groups.len();
            for (l, s) in streams.iter().enumerate() {
                let symbol = s[t];
                match out.groups[cycle_start..]
                    .iter_mut()
                    .find(|g| g.symbol == symbol)
                {
                    Some(g) => g.lanes |= 1u64 << l,
                    None => out.groups.push(LaneGroup {
                        symbol,
                        lanes: 1u64 << l,
                    }),
                }
            }
            out.end_cycle();
        }
        out
    }

    fn cycle_groups(&self, cycle: usize) -> &[LaneGroup] {
        let lo = self.cycle_off[cycle] as usize;
        let hi = self.cycle_off[cycle + 1] as usize;
        &self.groups[lo..hi]
    }
}

/// A report event of the lane core: the scalar [`crate::ReportEvent`] widened
/// with the lane mask of the streams that reported.
///
/// Demultiplex by lane bit: stream `l` observed `(element, code, offset)` iff
/// bit `l` of `lanes` is set. Within one cycle, events are ordered by element
/// id — the same order as the scalar core and the reference stepper — so the
/// per-lane projection of the event stream is bit-identical to a scalar run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneReportEvent {
    /// The reporting element.
    pub element: ElementId,
    /// Its report code.
    pub code: u32,
    /// Stream offset (cycle) of the report.
    pub offset: u64,
    /// Lane mask of the streams for which the element reported.
    pub lanes: u64,
}

/// Mutable lane-parallel execution state over a [`CompiledNetwork`].
///
/// The lane analogue of [`crate::CompiledState`]: every per-element bit
/// becomes a `u64` lane word, and every counter count becomes 33 bit-sliced
/// lane words (see the module docs). Obtain via
/// [`CompiledNetwork::new_lane_state`] and reuse across networks via
/// [`CompiledNetwork::recycle_lane_state`].
#[derive(Clone, Debug, Default)]
pub struct LaneState {
    /// Per-element lane words active on the previous cycle.
    prev: Vec<u64>,
    /// Elements with a nonzero `prev` word (no duplicates).
    prev_list: Vec<u32>,
    /// Per-element lane words for the cycle being computed.
    cur: Vec<u64>,
    /// Elements with a nonzero `cur` word.
    cur_list: Vec<u32>,
    /// Bit-sliced counter values, [`PLANES`] words per slot: bit `l` of
    /// plane `b` is bit `b` of lane `l`'s `count + offset`.
    planes: Vec<u64>,
    /// Per slot: planes that may hold a set bit in some lane; every plane
    /// at or above it is zero, so resets write only the planes below.
    hi: Vec<u8>,
    /// Per slot: lanes at or past the threshold, sticky until reset — the
    /// carry into plane `k`. Thresholds are at least 1 (validation refuses
    /// 0), so a lane is reached only by an increment: this word is also the
    /// pulse-mode "already fired" set and the latch-mode "held" set.
    reached: Vec<u64>,
    /// Per slot: the threshold folded into the stored values, kept here so
    /// [`Self::reset`] can re-seed the planes.
    bias: Vec<SliceBias>,
    /// Per-lane enable pulse counts, slot-major — allocated only when some
    /// counter has `max_increment_per_cycle > 1`, and filled only for those
    /// slots; elsewhere the enable lane word alone is the increment.
    pulses: Vec<u32>,
    /// Latch-mode slots with a nonzero `reached` word (pruned lazily each
    /// cycle).
    latched_list: Vec<u32>,
    /// Per-cycle enable lane words, by counter slot (zeroed after each cycle).
    enables: Vec<u64>,
    /// Per-cycle reset lane words, by counter slot (zeroed after each cycle).
    resets: Vec<u64>,
    /// Counter slots touched this cycle (so scratch clearing is sparse).
    touched: Vec<u32>,
    /// Per-class matched-lane words for the cycle in flight.
    cls_match: Vec<u64>,
    /// Mask of the lanes in use by the stream being executed.
    width_mask: u64,
    /// Cycles executed so far.
    cycle: u64,
}

impl LaneState {
    /// Clears all run state (activations, counters, cycle count).
    ///
    /// Frontier words are cleared sparsely through the active lists and each
    /// counter slot re-seeds only the planes in use; the other per-counter
    /// vectors are bulk-filled.
    pub fn reset(&mut self) {
        self.clear_frontier();
        for (c, &bias) in self.bias.iter().enumerate() {
            let hi = &mut self.hi[c];
            let planes = &mut self.planes[c * PLANES..(c + 1) * PLANES];
            for (b, p) in planes[..(*hi).max(bias.floor) as usize]
                .iter_mut()
                .enumerate()
            {
                *p = bias.seed(b);
            }
            *hi = bias.floor;
        }
        self.reached.fill(0);
        self.pulses.fill(0);
        self.latched_list.clear();
        self.enables.fill(0);
        self.resets.fill(0);
        self.touched.clear();
        self.cycle = 0;
    }

    /// Zeroes the frontier words sparsely through the active lists.
    fn clear_frontier(&mut self) {
        for &e in &self.prev_list {
            self.prev[e as usize] = 0;
        }
        self.prev_list.clear();
        for &e in &self.cur_list {
            self.cur[e as usize] = 0;
        }
        self.cur_list.clear();
    }

    /// Whether element `index` was active in lane `lane` on the most recently
    /// executed cycle.
    #[inline]
    pub fn is_active(&self, index: usize, lane: usize) -> bool {
        self.prev
            .get(index)
            .is_some_and(|w| (w >> (lane & 63)) & 1 == 1)
    }

    /// Cycles executed so far (also the offset of the next cycle).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// Bitwise lane evaluation of a boolean gate: each lane sees the same result
/// [`BooleanFunction::evaluate`] computes on that lane's scalar inputs, with
/// complements masked to the lanes in use so unused lanes never activate.
#[inline]
fn eval_gate_lanes<I>(function: BooleanFunction, mut preds: I, width_mask: u64) -> u64
where
    I: ExactSizeIterator<Item = u64>,
{
    match function {
        BooleanFunction::And => {
            if preds.len() == 0 {
                0
            } else {
                preds.fold(width_mask, |acc, p| acc & p)
            }
        }
        BooleanFunction::Or => preds.fold(0, |acc, p| acc | p),
        BooleanFunction::Nand => {
            if preds.len() == 0 {
                width_mask
            } else {
                !preds.fold(width_mask, |acc, p| acc & p) & width_mask
            }
        }
        BooleanFunction::Nor => !preds.fold(0, |acc, p| acc | p) & width_mask,
        BooleanFunction::Xor => preds.fold(0, |acc, p| acc ^ p),
        BooleanFunction::Not => match preds.next() {
            Some(p) => !p & width_mask,
            None => width_mask,
        },
    }
}

impl CompiledNetwork {
    /// Creates a fresh lane execution state for this network.
    pub fn new_lane_state(&self) -> LaneState {
        let mut st = LaneState::default();
        self.recycle_lane_state(&mut st);
        st
    }

    /// Adapts `st` — possibly last used with a *different* compiled network —
    /// to this network's geometry and clears it, reusing allocations wherever
    /// they are large enough. The lane analogue of
    /// [`CompiledNetwork::recycle_state`], and the pooled-serving entry point
    /// for the lane path.
    pub fn recycle_lane_state(&self, st: &mut LaneState) {
        // Resizing keeps old contents: the frontier words are zero once the
        // active lists are cleared, and the counter planes at or above each
        // slot's `hi` are zero, so the closing `reset` re-seeds the rest.
        st.clear_frontier();
        st.prev.resize(self.n, 0);
        st.cur.resize(self.n, 0);
        let counters = self.cnt_elem.len();
        st.planes.resize(counters * PLANES, 0);
        st.hi.resize(counters, 0);
        st.reached.resize(counters, 0);
        st.bias.clear();
        st.bias
            .extend(self.cnt_threshold.iter().map(|&t| SliceBias::new(t)));
        let exact = self.cnt_max_inc.iter().any(|&m| m > 1);
        st.pulses
            .resize(if exact { counters * MAX_LANES } else { 0 }, 0);
        st.enables.resize(counters, 0);
        st.resets.resize(counters, 0);
        st.cls_match.resize(self.class_masks.len(), 0);
        st.reset();
    }

    /// Per-lane internal count of the counter at `element`, if that element
    /// is a counter: the lane's bits gathered from the planes, less the
    /// slot's offset.
    pub fn lane_counter_count(
        &self,
        state: &LaneState,
        element: usize,
        lane: usize,
    ) -> Option<u32> {
        let slot = *self.counter_slot_of.get(element)?;
        if slot == crate::compiled::NO_SLOT {
            None
        } else {
            let slot = slot as usize;
            let planes = &state.planes[slot * PLANES..(slot + 1) * PLANES];
            Some((gather(planes, lane & 63) - u64::from(state.bias[slot].offset)) as u32)
        }
    }

    /// Executes one lane cycle, appending report events to `out`.
    fn step_lanes(&self, st: &mut LaneState, groups: &[LaneGroup], out: &mut Vec<LaneReportEvent>) {
        let offset = st.cycle;
        let report_start = out.len();

        // Fold the cycle's symbol groups into one matched-lane word per
        // symbol class: lanes whose symbol this cycle is in the class plane.
        st.cls_match.fill(0);
        for g in groups {
            let wi = (g.symbol >> 6) as usize;
            let bit = 1u64 << (g.symbol & 63);
            for (c, plane) in self.class_masks.iter().enumerate() {
                if plane[wi] & bit != 0 {
                    st.cls_match[c] |= g.lanes;
                }
            }
        }

        macro_rules! activate {
            ($e:expr, $lanes:expr) => {{
                let e = $e as usize;
                let lanes = $lanes;
                if lanes != 0 {
                    if st.cur[e] == 0 {
                        st.cur_list.push(e as u32);
                    }
                    st.cur[e] |= lanes;
                }
            }};
        }

        // Phase 1a: always-eligible start STEs. Each group walks its symbol's
        // candidate index (dense bitset or CSR list) and ORs the group's lanes
        // into the candidates' words.
        for g in groups {
            let sym = g.symbol as usize;
            let dense = self.sym_dense_off[sym];
            if dense != crate::compiled::NO_SLOT {
                let base = dense as usize;
                for w in 0..self.words {
                    let mut bits = self.sym_dense[base + w];
                    while bits != 0 {
                        let e = (w << 6) | bits.trailing_zeros() as usize;
                        activate!(e, g.lanes);
                        bits &= bits - 1;
                    }
                }
            } else {
                for &e in
                    &self.sym_candidates[self.sym_off[sym] as usize..self.sym_off[sym + 1] as usize]
                {
                    activate!(e, g.lanes);
                }
            }
        }
        // Phase 1b: start-of-data STEs are eligible only on the first cycle.
        if st.cycle == 0 {
            for &e in &self.start_of_data {
                activate!(e, st.cls_match[self.mask_class[e as usize] as usize]);
            }
        }

        // Phase 2: sparse propagation from the previous cycle's frontier. An
        // activation edge passes the source lanes filtered by the target's
        // class match word; counter ports OR lane words into slot scratch.
        let exact_pulses = !st.pulses.is_empty();
        let prev_list = std::mem::take(&mut st.prev_list);
        for &e in &prev_list {
            let src = st.prev[e as usize];
            let lo = self.succ_off[e as usize] as usize;
            let hi = self.succ_off[e as usize + 1] as usize;
            for &packed in &self.succ[lo..hi] {
                let payload = (packed >> 2) as usize;
                match packed & 3 {
                    0 => {
                        // TAG_ACTIVATE_STE
                        activate!(
                            payload,
                            src & st.cls_match[self.mask_class[payload] as usize]
                        );
                    }
                    1 => {
                        // TAG_COUNT_ENABLE
                        if st.enables[payload] | st.resets[payload] == 0 {
                            st.touched.push(payload as u32);
                        }
                        st.enables[payload] |= src;
                        if exact_pulses && self.cnt_max_inc[payload] > 1 {
                            let base = payload * MAX_LANES;
                            let mut lanes = src;
                            while lanes != 0 {
                                let l = lanes.trailing_zeros() as usize;
                                st.pulses[base + l] += 1;
                                lanes &= lanes - 1;
                            }
                        }
                    }
                    _ => {
                        // TAG_COUNT_RESET
                        if st.enables[payload] | st.resets[payload] == 0 {
                            st.touched.push(payload as u32);
                        }
                        st.resets[payload] |= src;
                    }
                }
            }
        }

        // Phase 3: counters whose ports saw a pulse this cycle, every lane at
        // once on the bit planes.
        let touched = std::mem::take(&mut st.touched);
        for &c in &touched {
            let c = c as usize;
            let en = st.enables[c];
            let rs = st.resets[c];
            st.enables[c] = 0;
            st.resets[c] = 0;
            let bias = st.bias[c];
            let planes = &mut st.planes[c * PLANES..(c + 1) * PLANES];
            let hi = &mut st.hi[c];
            let reached_before = st.reached[c];
            if rs != 0 {
                // Reset lanes return to `offset`; planes at or above `hi`
                // are already zero in every lane.
                for (b, p) in planes[..*hi as usize].iter_mut().enumerate() {
                    *p = *p & !rs | bias.seed(b) & rs;
                }
                st.reached[c] &= !rs;
            }
            let inc = en & !rs;
            let exact = exact_pulses && self.cnt_max_inc[c] > 1;
            if exact || (*hi > FAST_HI && inc != 0) {
                // Per-lane pulse counts, or values nearing u32 saturation:
                // one lane at a time over the same planes. Pulses of reset
                // lanes are drained too.
                let mut lanes = if exact { en } else { inc };
                while lanes != 0 {
                    let l = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    let add = if exact {
                        std::mem::take(&mut st.pulses[c * MAX_LANES + l]).min(self.cnt_max_inc[c])
                    } else {
                        1
                    };
                    if inc >> l & 1 == 1 && add_lane(planes, hi, bias, l, add) {
                        st.reached[c] |= 1 << l;
                    }
                }
            } else if inc != 0 {
                st.reached[c] |= increment(planes, hi, bias.k, inc);
            }
            // Thresholds are at least 1, so a lane is reached only by an
            // increment and only a reset clears it: a pulse counter fires
            // on the lanes that crossed this cycle, and a latch counter holds
            // every reached lane (activated below with the held ones).
            if self.cnt_latch[c] {
                if reached_before == 0 && st.reached[c] != 0 {
                    st.latched_list.push(c as u32);
                }
            } else {
                activate!(self.cnt_elem[c], st.reached[c] & !reached_before);
            }
        }
        let mut touched = touched;
        touched.clear();
        st.touched = touched;

        // Latch-mode counters stay active without new pulses until reset.
        if !st.latched_list.is_empty() {
            let mut latched_list = std::mem::take(&mut st.latched_list);
            latched_list.retain(|&c| st.reached[c as usize] != 0);
            for &c in &latched_list {
                activate!(self.cnt_elem[c as usize], st.reached[c as usize]);
            }
            st.latched_list = latched_list;
        }

        // Phase 4: boolean gates — the same bounded Gauss–Seidel sweep as the
        // scalar core, evaluated bitwise across lanes. Complements are masked
        // to the stream width so unused lanes can never activate a gate.
        if !self.bool_elem.is_empty() {
            for _pass in 0..self.bool_elem.len() {
                let mut changed = false;
                for bi in 0..self.bool_elem.len() {
                    let lo = self.bool_pred_off[bi] as usize;
                    let hi = self.bool_pred_off[bi + 1] as usize;
                    // Gates pull their (few) inputs; fold without a scratch Vec.
                    let value = eval_gate_lanes(
                        self.bool_fn[bi],
                        self.bool_preds[lo..hi].iter().map(|&p| st.cur[p as usize]),
                        st.width_mask,
                    );
                    let e = self.bool_elem[bi] as usize;
                    if st.cur[e] != value {
                        st.cur[e] = value;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            // Gates were toggled word-only during the fix-point; record the
            // ones that settled active so frontier clearing stays sparse.
            for &e in &self.bool_elem {
                if st.cur[e as usize] != 0 {
                    st.cur_list.push(e);
                }
            }
        }

        // Phase 5: reports, in element-id order within the cycle, carrying
        // the lane mask of the streams for which the element is active.
        for &e in &st.cur_list {
            let code = self.report_of[e as usize];
            if code != crate::compiled::NO_REPORT {
                let lanes = st.cur[e as usize];
                if lanes != 0 {
                    out.push(LaneReportEvent {
                        element: ElementId(e as usize),
                        code: code as u32,
                        offset,
                        lanes,
                    });
                }
            }
        }
        if out.len() > report_start + 1 {
            out[report_start..].sort_unstable_by_key(|r| r.element);
        }

        // Phase 6: the current frontier becomes the previous one; the old
        // previous frontier is cleared sparsely and recycled as scratch.
        for &e in &prev_list {
            st.prev[e as usize] = 0;
        }
        let mut recycled = prev_list;
        recycled.clear();
        std::mem::swap(&mut st.prev, &mut st.cur);
        st.prev_list = std::mem::take(&mut st.cur_list);
        st.cur_list = recycled;
        st.cycle += 1;
    }

    /// Runs an entire [`LaneStream`], appending every lane report event to
    /// `out`. The sink is caller-owned so repeated runs (one per board
    /// partition, one per 64-query pass) reuse a single allocation.
    ///
    /// The state's lane width is taken from the stream; continuing a previous
    /// run (without [`LaneState::reset`]) is only meaningful with a stream of
    /// the same width.
    pub fn run_lanes_into(
        &self,
        st: &mut LaneState,
        stream: &LaneStream,
        out: &mut Vec<LaneReportEvent>,
    ) {
        st.width_mask = stream.width_mask();
        for cycle in 0..stream.cycles() {
            self.step_lanes(st, stream.cycle_groups(cycle), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{CounterMode, StartKind};
    use crate::network::{AutomataNetwork, ConnectPort};
    use crate::reference::ReferenceSimulator;
    use crate::symbol::SymbolClass;

    /// Demultiplexes lane events into per-lane scalar event streams.
    fn demux(events: &[LaneReportEvent], width: usize) -> Vec<Vec<(usize, u32, u64)>> {
        let mut out = vec![Vec::new(); width];
        for ev in events {
            for (l, lane_out) in out.iter_mut().enumerate() {
                if ev.lanes >> l & 1 == 1 {
                    lane_out.push((ev.element.index(), ev.code, ev.offset));
                }
            }
        }
        out
    }

    fn reference_events(net: &AutomataNetwork, stream: &[u8]) -> Vec<(usize, u32, u64)> {
        let mut sim = ReferenceSimulator::new(net).unwrap();
        sim.run(stream)
            .into_iter()
            .map(|r| (r.element.index(), r.code, r.offset))
            .collect()
    }

    /// Steps `streams` (one per lane) a cycle at a time on `st`, checking
    /// every lane after every cycle against its own reference stepper:
    /// report events, activations and every counter's count.
    fn assert_tracks_reference(
        net: &AutomataNetwork,
        compiled: &CompiledNetwork,
        st: &mut LaneState,
        streams: &[Vec<u8>],
    ) {
        let mut refs: Vec<ReferenceSimulator<'_>> = streams
            .iter()
            .map(|_| ReferenceSimulator::new(net).unwrap())
            .collect();
        let counters: Vec<ElementId> = net
            .elements()
            .iter()
            .filter(|e| e.is_counter())
            .map(|e| e.id)
            .collect();
        let mut events = Vec::new();
        for t in 0..streams[0].len() {
            let column: Vec<&[u8]> = streams.iter().map(|s| &s[t..=t]).collect();
            events.clear();
            compiled.run_lanes_into(st, &LaneStream::from_streams(&column), &mut events);
            let per_lane = demux(&events, streams.len());
            for (l, reference) in refs.iter_mut().enumerate() {
                let expected: Vec<_> = reference
                    .step(streams[l][t])
                    .into_iter()
                    .map(|r| (r.element.index(), r.code, r.offset))
                    .collect();
                assert_eq!(per_lane[l], expected, "lane {l} cycle {t} reports");
                for id in 0..net.len() {
                    assert_eq!(
                        st.is_active(id, l),
                        reference.is_active(ElementId(id)),
                        "lane {l} cycle {t} element {id}"
                    );
                }
                for &c in &counters {
                    assert_eq!(
                        compiled.lane_counter_count(st, c.index(), l),
                        reference.counter_value(c).ok(),
                        "lane {l} cycle {t} counter {}",
                        c.index()
                    );
                }
            }
        }
    }

    /// 64 lanes of symbols over `e` (enable), `r` (reset), `b` (both) and
    /// `x` (idle); lane `l` resets at a lane-dependent rate, so some lanes
    /// count far past their thresholds and others restart often.
    fn counter_streams(seed: u64, len: usize) -> Vec<Vec<u8>> {
        let mut x = seed | 1;
        (0..MAX_LANES)
            .map(|l| {
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        match (x % 100) as usize {
                            p if p < (l % 5) * 4 => b'r',
                            p if p < (l % 5) * 4 + 5 => b'b',
                            p if p < (l % 5) * 4 + 5 + (l % 3) * 10 => b'x',
                            _ => b'e',
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn slice_bias_folds_the_threshold_into_plane_k() {
        // (threshold, k, offset): the stored value reaches 2^k exactly when
        // the count reaches the threshold; at reset (count 0) it is below.
        for (threshold, k, offset) in [
            (1u32, 0u8, 0u32),
            (4, 2, 0),
            (5, 3, 3),
            (0x8000_0002, 32, 0x7FFF_FFFE),
            (u32::MAX, 32, 1),
        ] {
            let bias = SliceBias::new(threshold);
            assert_eq!((bias.k, bias.offset), (k, offset), "threshold {threshold}");
            assert!(u64::from(offset) < 1 << k);
            assert!(bias.floor as usize >= LOW_PLANES);
        }
        // Threshold 0 (reached with no increment) never reaches the planes:
        // validation refuses it.
        let mut net = AutomataNetwork::new();
        let s = net.add_ste("s", SymbolClass::any(), StartKind::AllInput, None);
        let c = net.add_counter("c", 0, CounterMode::Pulse, Some(1));
        net.connect_port(s, c, ConnectPort::CountEnable).unwrap();
        assert!(CompiledNetwork::compile(&net).is_err());
    }

    #[test]
    fn lane_by_lane_adds_saturate_at_u32_max() {
        let bias = SliceBias::new(5);
        let mut planes = [0u64; PLANES];
        let mut hi = bias.floor;
        for (b, p) in planes.iter_mut().enumerate() {
            *p = bias.seed(b);
        }
        assert!(!add_lane(&mut planes, &mut hi, bias, 7, 4));
        assert!(add_lane(&mut planes, &mut hi, bias, 7, u32::MAX - 6));
        assert_eq!(
            gather(&planes, 7) - u64::from(bias.offset),
            u64::from(u32::MAX) - 2
        );
        assert!(add_lane(&mut planes, &mut hi, bias, 7, 5));
        assert_eq!(
            gather(&planes, 7) - u64::from(bias.offset),
            u64::from(u32::MAX)
        );
        assert_eq!(hi as usize, PLANES);
        // The other lanes still hold the bare offset.
        assert_eq!(gather(&planes, 6), u64::from(bias.offset));

        // Through the step: a lane preset two short of saturation takes the
        // lane-by-lane path and clips, while its neighbours count normally.
        let mut net = AutomataNetwork::new();
        let s = net.add_ste("s", SymbolClass::any(), StartKind::AllInput, None);
        let c = net.add_counter("c", 5, CounterMode::Latch, Some(1));
        net.connect_port(s, c, ConnectPort::CountEnable).unwrap();
        let compiled = CompiledNetwork::compile(&net).unwrap();
        let mut st = compiled.new_lane_state();
        add_lane(
            &mut st.planes[..PLANES],
            &mut st.hi[0],
            st.bias[0],
            3,
            u32::MAX - 2,
        );
        let stream = LaneStream::from_streams(&[&b"xxxx"[..]; 4]);
        compiled.run_lanes_into(&mut st, &stream, &mut Vec::new());
        assert_eq!(
            compiled.lane_counter_count(&st, c.index(), 3),
            Some(u32::MAX)
        );
        assert_eq!(compiled.lane_counter_count(&st, c.index(), 0), Some(3));
    }

    #[test]
    fn bit_sliced_counters_match_reference_at_full_width() {
        let mut net = AutomataNetwork::new();
        let inc = net.add_ste("inc", SymbolClass::of(b"eb"), StartKind::AllInput, None);
        let inc2 = net.add_ste("inc2", SymbolClass::of(b"e"), StartKind::AllInput, None);
        let inc3 = net.add_ste("inc3", SymbolClass::of(b"eb"), StartKind::AllInput, None);
        let rst = net.add_ste("rst", SymbolClass::of(b"rb"), StartKind::AllInput, None);
        // Threshold 1 (k = 0), a power of two (offset 0), a non-power latch,
        // a capped multi-enable latch, one whose values pass 2^31 after two
        // increments so it is updated lane by lane from then on, and two
        // whose crossing carries beyond the branch-free low planes.
        let counters = [
            net.add_counter("t1", 1, CounterMode::Pulse, Some(1)),
            net.add_counter("t4", 4, CounterMode::Pulse, Some(4)),
            net.add_counter("t5", 5, CounterMode::Latch, Some(5)),
            net.add_counter_with_increment("t6x3", 6, CounterMode::Latch, Some(6), 3),
            net.add_counter("big", 0x8000_0002, CounterMode::Pulse, Some(7)),
            net.add_counter("t32", 32, CounterMode::Pulse, Some(32)),
            net.add_counter("t40", 40, CounterMode::Latch, Some(40)),
        ];
        for &c in &counters {
            // `b` drives enable and reset on the same cycle.
            net.connect_port(inc, c, ConnectPort::CountEnable).unwrap();
            net.connect_port(rst, c, ConnectPort::CountReset).unwrap();
        }
        net.connect_port(inc2, counters[3], ConnectPort::CountEnable)
            .unwrap();
        net.connect_port(inc3, counters[3], ConnectPort::CountEnable)
            .unwrap();
        let after = net.add_ste("after", SymbolClass::any(), StartKind::None, Some(9));
        net.connect(counters[1], after).unwrap();
        let compiled = CompiledNetwork::compile(&net).unwrap();

        // Lanes that rarely reset count past 32: carries run beyond the
        // branch-free low planes, well above k.
        let mut st = compiled.new_lane_state();
        assert_tracks_reference(&net, &compiled, &mut st, &counter_streams(11, 64));
        assert!(st.hi[0] as usize > LOW_PLANES, "t1 counted past 32");
        assert!(
            st.reached[5] != 0 && st.reached[6] != 0,
            "t32 and t40 crossed"
        );

        // `reset` re-seeds every slot's offset.
        st.reset();
        assert_tracks_reference(&net, &compiled, &mut st, &counter_streams(12, 40));

        // So does recycling through a network whose same slots carry other
        // thresholds and increments.
        let mut other = AutomataNetwork::new();
        let s = other.add_ste("s", SymbolClass::any(), StartKind::AllInput, None);
        for (i, threshold) in [3u32, 2, 9, 33, 7, 1].into_iter().enumerate() {
            let c = other.add_counter(
                format!("o{i}"),
                threshold,
                CounterMode::Latch,
                Some(i as u32),
            );
            other.connect_port(s, c, ConnectPort::CountEnable).unwrap();
        }
        let other_compiled = CompiledNetwork::compile(&other).unwrap();
        other_compiled.recycle_lane_state(&mut st);
        assert_tracks_reference(&other, &other_compiled, &mut st, &counter_streams(13, 40));
        compiled.recycle_lane_state(&mut st);
        assert_tracks_reference(&net, &compiled, &mut st, &counter_streams(14, 40));
    }

    #[test]
    fn lane_stream_groups_and_masks() {
        let s = LaneStream::from_streams(&[b"ab", b"ab", b"cb"]);
        assert_eq!(s.width(), 3);
        assert_eq!(s.width_mask(), 0b111);
        assert_eq!(s.cycles(), 2);
        assert_eq!(
            s.cycle_groups(0),
            &[
                LaneGroup {
                    symbol: b'a',
                    lanes: 0b011
                },
                LaneGroup {
                    symbol: b'c',
                    lanes: 0b100
                }
            ]
        );
        assert_eq!(
            s.cycle_groups(1),
            &[LaneGroup {
                symbol: b'b',
                lanes: 0b111
            }]
        );

        let mut reused = s.clone();
        reused.begin(64);
        assert_eq!(reused.width_mask(), u64::MAX);
        assert_eq!(reused.cycles(), 0);
        reused.push_uniform_cycle(b'x');
        assert_eq!(reused.cycles(), 1);
    }

    #[test]
    fn lanes_match_reference_on_counter_chain() {
        // STE chain into a pulse counter with a reset — the kNN macro shape.
        let mut net = AutomataNetwork::new();
        let a = net.add_ste("a", SymbolClass::single(b'a'), StartKind::AllInput, None);
        let b = net.add_ste("b", SymbolClass::single(b'b'), StartKind::None, None);
        let r = net.add_ste("r", SymbolClass::single(b'!'), StartKind::AllInput, None);
        let c = net.add_counter("c", 2, CounterMode::Pulse, Some(7));
        net.connect(a, b).unwrap();
        net.connect_port(a, c, ConnectPort::CountEnable).unwrap();
        net.connect_port(b, c, ConnectPort::CountEnable).unwrap();
        net.connect_port(r, c, ConnectPort::CountReset).unwrap();
        let compiled = CompiledNetwork::compile(&net).unwrap();

        let streams: [&[u8]; 4] = [b"ababab", b"aaabbb", b"ab!bab", b"bbbbbb"];
        let lane_stream = LaneStream::from_streams(&streams);
        let mut st = compiled.new_lane_state();
        let mut events = Vec::new();
        compiled.run_lanes_into(&mut st, &lane_stream, &mut events);

        let per_lane = demux(&events, streams.len());
        for (l, stream) in streams.iter().enumerate() {
            assert_eq!(per_lane[l], reference_events(&net, stream), "lane {l}");
        }
        // Per-lane counter values match the reference too.
        for (l, stream) in streams.iter().enumerate() {
            let mut reference = ReferenceSimulator::new(&net).unwrap();
            reference.run(stream);
            assert_eq!(
                compiled.lane_counter_count(&st, c.index(), l),
                Some(reference.counter_value(c).unwrap()),
                "lane {l} counter"
            );
            assert_eq!(
                st.is_active(a.index(), l),
                reference.is_active(a),
                "lane {l} activation"
            );
        }
    }

    #[test]
    fn lanes_match_reference_on_gates_and_latch() {
        let mut net = AutomataNetwork::new();
        let x = net.add_ste("x", SymbolClass::single(b'x'), StartKind::AllInput, None);
        let y = net.add_ste("y", SymbolClass::single(b'y'), StartKind::AllInput, None);
        let g = net.add_boolean("g", BooleanFunction::And, Some(5));
        net.connect(x, g).unwrap();
        net.connect(y, g).unwrap();
        let n = net.add_boolean("n", BooleanFunction::Nor, Some(6));
        net.connect(x, n).unwrap();
        let sod = net.add_ste("s", SymbolClass::any(), StartKind::StartOfData, Some(8));
        let c = net.add_counter("c", 1, CounterMode::Latch, Some(9));
        net.connect_port(sod, c, ConnectPort::CountEnable).unwrap();
        let compiled = CompiledNetwork::compile(&net).unwrap();

        // Width 2 (< 64) so the unused-lane masking of Nor/Nand is exercised.
        let streams: [&[u8]; 2] = [b"xyxx", b"yyxy"];
        let lane_stream = LaneStream::from_streams(&streams);
        let mut st = compiled.new_lane_state();
        let mut events = Vec::new();
        compiled.run_lanes_into(&mut st, &lane_stream, &mut events);
        let per_lane = demux(&events, streams.len());
        for (l, stream) in streams.iter().enumerate() {
            assert_eq!(per_lane[l], reference_events(&net, stream), "lane {l}");
        }
        // Ghost lanes above the width never report.
        for ev in &events {
            assert_eq!(ev.lanes & !lane_stream.width_mask(), 0);
        }
    }

    #[test]
    fn eval_gate_lanes_matches_scalar_evaluate() {
        use BooleanFunction::*;
        let wm = 0b1111u64;
        for function in [And, Or, Nand, Nor, Xor, Not] {
            for preds in [vec![], vec![0b0101], vec![0b0101, 0b0011]] {
                let lanes = eval_gate_lanes(function, preds.iter().copied(), wm);
                for l in 0..4 {
                    let scalar: Vec<bool> = preds.iter().map(|p| p >> l & 1 == 1).collect();
                    assert_eq!(
                        lanes >> l & 1 == 1,
                        function.evaluate(&scalar),
                        "{function:?} {preds:?} lane {l}"
                    );
                }
                assert_eq!(lanes & !wm, 0, "{function:?} leaked past the width");
            }
        }
    }

    #[test]
    fn recycle_lane_state_adapts_across_network_geometries() {
        let mut small = AutomataNetwork::new();
        small.add_ste("s", SymbolClass::single(b's'), StartKind::AllInput, Some(1));
        let small = CompiledNetwork::compile(&small).unwrap();

        let mut big = AutomataNetwork::new();
        let drv = big.add_ste("d", SymbolClass::any(), StartKind::AllInput, None);
        let cnt = big.add_counter("c", 3, CounterMode::Pulse, Some(7));
        big.connect_port(drv, cnt, ConnectPort::CountEnable)
            .unwrap();
        for i in 0..80 {
            big.add_ste(
                format!("p{i}"),
                SymbolClass::single(b'p'),
                StartKind::AllInput,
                None,
            );
        }
        let big = CompiledNetwork::compile(&big).unwrap();

        let mut pooled = big.new_lane_state();
        let mut sink = Vec::new();
        big.run_lanes_into(
            &mut pooled,
            &LaneStream::from_streams(&[b"ppp", b"ddd"]),
            &mut sink,
        );
        small.recycle_lane_state(&mut pooled);
        let mut fresh = small.new_lane_state();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let stream = LaneStream::from_streams(&[b"ss", b"s!"]);
        small.run_lanes_into(&mut pooled, &stream, &mut a);
        small.run_lanes_into(&mut fresh, &stream, &mut b);
        assert_eq!(a, b);
        assert_eq!(pooled.cycle(), fresh.cycle());

        big.recycle_lane_state(&mut pooled);
        let mut fresh = big.new_lane_state();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let stream = LaneStream::from_streams(&[b"dddd", b"pppp", b"dpdp"]);
        big.run_lanes_into(&mut pooled, &stream, &mut a);
        big.run_lanes_into(&mut fresh, &stream, &mut b);
        assert_eq!(a, b);
        for l in 0..3 {
            assert_eq!(
                big.lane_counter_count(&pooled, cnt.index(), l),
                big.lane_counter_count(&fresh, cnt.index(), l)
            );
        }
    }

    #[test]
    fn class_plane_fault_diverts_lane_matching() {
        // Flipping a plane bit changes lane matching but not scalar matching —
        // the validator satellite depends on the lane core reading the planes.
        let mut net = AutomataNetwork::new();
        net.add_ste("a", SymbolClass::single(b'a'), StartKind::AllInput, Some(1));
        let t = net.add_ste("t", SymbolClass::single(b't'), StartKind::None, Some(2));
        net.connect(ElementId(0), t).unwrap();
        let mut compiled = CompiledNetwork::compile(&net).unwrap();

        let healthy = {
            let mut st = compiled.new_lane_state();
            let mut out = Vec::new();
            compiled.run_lanes_into(&mut st, &LaneStream::from_streams(&[b"at"]), &mut out);
            out
        };
        assert_eq!(healthy.len(), 2);

        // Knock 't' out of the target's class plane: the successor edge now
        // finds no eligible lanes and the second report disappears.
        compiled.inject_class_plane_fault(t.index(), b't').unwrap();
        let mut st = compiled.new_lane_state();
        let mut out = Vec::new();
        compiled.run_lanes_into(&mut st, &LaneStream::from_streams(&[b"at"]), &mut out);
        assert_eq!(out.len(), 1);
        assert!(compiled.inject_class_plane_fault(99, b'a').is_err());
    }
}
