//! Fixed-width packed encoding of the dynamic micro-op stream.
//!
//! A [`MicroOp`] is convenient to produce and consume but bulky to store:
//! `Option<VReg>` fields alone push it to 88 bytes, so a large-scale
//! recording is gigabytes of memory — and replay, which dominates the
//! suite's wall-clock, re-walks all of it once per platform model. The
//! packed encoding shrinks the per-op record to a fixed 12 bytes plus a
//! structure-of-arrays `u64` address stream for memory ops, cutting
//! replay's memory traffic roughly sixfold while decoding back to the
//! *bit-identical* op stream.
//!
//! Three observations make 12 bytes enough:
//!
//! * **Destinations are (almost) emission order.** The tape assigns SSA
//!   virtual registers from a monotone counter, so an op's destination is
//!   exactly the decoder's running counter — it does not need to be
//!   stored. The only exceptions are gaps introduced by [`Tracer::lit`]
//!   (which claims a vreg but emits no op); those ops record their true
//!   destination in a rare side table that also resynchronizes the
//!   counter.
//! * **Sources are close.** Dependence distances are short in real code;
//!   a source is stored as a backward delta from the running counter and
//!   fits 16 bits essentially always. Far references fall back to a
//!   side table of full `u64`s.
//! * **Only memory ops carry addresses.** The `u64` effective address
//!   moves to a parallel array indexed by a presence flag, so ALU ops and
//!   branches pay nothing for it.
//!
//! Every fallback keeps the format lossless for *arbitrary* op streams
//! (the property test round-trips adversarial ones), but on real traces
//! the side tables hold well under 0.1% of the ops, and
//! [`PackedStream::bytes_per_op`] stays under 24 bytes even for
//! all-memory traces.
//!
//! [`Tracer::lit`]: crate::Tracer::lit

use bioperf_isa::{MicroOp, OpKind, StaticId, VReg, MAX_SRCS};

/// Bit layout of [`PackedOp::flags`].
const KIND_MASK: u16 = 0b1111;
const TAKEN_BIT: u16 = 1 << 4;
const ADDR_BIT: u16 = 1 << 5;
const DST_SHIFT: u32 = 6;
const SRC_SHIFT: [u32; MAX_SRCS] = [8, 10, 12];
const FIELD_MASK: u16 = 0b11;

/// Destination / source field modes (2 bits each).
const MODE_NONE: u16 = 0;
const MODE_NEAR: u16 = 1; // dst: implicit counter; src: 16-bit backward delta
const MODE_FAR: u16 = 2; // full u64 in the corresponding side table

/// One dynamic op in packed form: static id, a flag word, and up to
/// three 16-bit backward source deltas. 12 bytes, `u32`-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOp {
    sid: u32,
    flags: u16,
    deltas: [u16; MAX_SRCS],
}

/// An append-only packed op stream with streaming decode.
///
/// Encoding is stateful (the running vreg counter), so ops must be
/// pushed in trace order; decoding replays the same counter arithmetic.
///
/// # Example
///
/// ```
/// use bioperf_isa::{here, MicroOp, OpKind, StaticId, VReg};
/// use bioperf_trace::packed::PackedStream;
///
/// let op = MicroOp::load(StaticId::from_raw(0), OpKind::IntLoad, VReg(0), 0x40, None);
/// let mut stream = PackedStream::new();
/// stream.push(&op);
/// let mut decoded = Vec::new();
/// stream.for_each(|d| decoded.push(*d));
/// assert_eq!(decoded, vec![op]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedStream {
    ops: Vec<PackedOp>,
    /// Effective addresses of ops with [`ADDR_BIT`], in stream order.
    addrs: Vec<u64>,
    /// Full destinations of ops whose dst is not the running counter.
    far_dsts: Vec<u64>,
    /// Full sources whose backward delta overflows 16 bits.
    far_srcs: Vec<u64>,
    /// Encoder-side running vreg counter.
    counter: u64,
    /// Counter value encoding started from (decoding restarts here). `0`
    /// for a whole-trace stream; a segment of a spilled trace carries the
    /// counter it was split off at, so it decodes standalone (see
    /// [`crate::segment`]).
    base_counter: u64,
}

impl PackedStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream whose SSA counter starts at `base` instead of 0.
    ///
    /// This is the segment-spilling hook: a trace split into segments
    /// keeps encoding each segment with the counter value the previous
    /// segment ended on, so per-segment decode reproduces exactly the
    /// ops an unsegmented decode would.
    pub fn with_base_counter(base: u64) -> Self {
        Self { counter: base, base_counter: base, ..Self::default() }
    }

    /// The encoder's current running SSA counter (what the *next*
    /// segment of a split trace must start from).
    pub fn encode_counter(&self) -> u64 {
        self.counter
    }

    /// The counter value this stream's encoding started from.
    pub fn base_counter(&self) -> u64 {
        self.base_counter
    }

    /// Element counts of the four encoded columns:
    /// `[ops, addrs, far_dsts, far_srcs]`.
    pub fn column_lens(&self) -> [usize; 4] {
        [self.ops.len(), self.addrs.len(), self.far_dsts.len(), self.far_srcs.len()]
    }

    /// Exact wire size of [`write_payload`](Self::write_payload) for the
    /// given [`column_lens`](Self::column_lens), or `None` if it does not
    /// fit in a `usize` (only possible for counts read from a damaged
    /// header).
    pub fn payload_wire_len(columns: [usize; 4]) -> Option<usize> {
        let words = columns[1].checked_add(columns[2])?.checked_add(columns[3])?;
        columns[0].checked_mul(12)?.checked_add(words.checked_mul(8)?)
    }

    /// Appends the wire encoding of the stream's payload to `out`: the
    /// 12-byte op records (`sid:u32, flags:u16, deltas:3×u16`, all
    /// little-endian) followed by the address, far-destination, and
    /// far-source `u64` columns.
    pub fn write_payload(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let len = Self::payload_wire_len(self.column_lens()).expect("in-memory columns fit");
        out.resize(start + len, 0);
        let (records, mut words) = out[start..].split_at_mut(self.ops.len() * 12);
        for (rec, op) in records.chunks_exact_mut(12).zip(&self.ops) {
            rec[0..4].copy_from_slice(&op.sid.to_le_bytes());
            rec[4..6].copy_from_slice(&op.flags.to_le_bytes());
            rec[6..8].copy_from_slice(&op.deltas[0].to_le_bytes());
            rec[8..10].copy_from_slice(&op.deltas[1].to_le_bytes());
            rec[10..12].copy_from_slice(&op.deltas[2].to_le_bytes());
        }
        for column in [&self.addrs, &self.far_dsts, &self.far_srcs] {
            let (head, rest) = words.split_at_mut(column.len() * 8);
            for (word, v) in head.chunks_exact_mut(8).zip(column) {
                word.copy_from_slice(&v.to_le_bytes());
            }
            words = rest;
        }
    }

    /// Parses a payload produced by [`write_payload`](Self::write_payload)
    /// back into a decodable stream whose SSA counter starts at
    /// `base_counter`. Returns `None` if `bytes` is not exactly the wire
    /// size implied by `columns`, or if any flag word could make decode
    /// panic: an unassigned kind code, or more address / far flags than
    /// the side columns hold entries.
    ///
    /// The parsed stream is for *decoding*: its encoder counter is left
    /// at `base_counter`, so pushing further ops onto it would re-encode
    /// from the segment start rather than the true stream tail.
    pub fn from_payload(columns: [usize; 4], base_counter: u64, bytes: &[u8]) -> Option<Self> {
        if Some(bytes.len()) != Self::payload_wire_len(columns) {
            return None;
        }
        let [n_ops, n_addrs, n_far_dsts, n_far_srcs] = columns;
        let mut stream = Self::with_base_counter(base_counter);
        let (records, mut words) = bytes.split_at(n_ops * 12);
        let u16_at = |rec: &[u8], at: usize| u16::from_le_bytes([rec[at], rec[at + 1]]);
        // Each record's flags are validated as it is parsed, and the
        // address / far entries they claim are tallied against the
        // header's column counts.
        let mut valid = true;
        let (mut addrs, mut far_dsts, mut far_srcs) = (0usize, 0usize, 0usize);
        stream.ops = records
            .chunks_exact(12)
            .map(|rec| {
                let flags = u16_at(rec, 4);
                valid &= OpKind::from_code((flags & KIND_MASK) as u8).is_some();
                for shift in SRC_SHIFT {
                    far_srcs += usize::from((flags >> shift) & FIELD_MASK == MODE_FAR);
                }
                far_dsts += usize::from((flags >> DST_SHIFT) & FIELD_MASK == MODE_FAR);
                addrs += usize::from(flags & ADDR_BIT != 0);
                PackedOp {
                    sid: u32::from_le_bytes(rec[0..4].try_into().expect("4-byte slice")),
                    flags,
                    deltas: [u16_at(rec, 6), u16_at(rec, 8), u16_at(rec, 10)],
                }
            })
            .collect();
        if !valid || (addrs, far_dsts, far_srcs) != (n_addrs, n_far_dsts, n_far_srcs) {
            return None;
        }
        for (column, n) in [
            (&mut stream.addrs, n_addrs),
            (&mut stream.far_dsts, n_far_dsts),
            (&mut stream.far_srcs, n_far_srcs),
        ] {
            let (head, rest) = words.split_at(n * 8);
            *column = head
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
                .collect();
            words = rest;
        }
        Some(stream)
    }

    /// Number of encoded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no op has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends one op. Ops must arrive in trace order.
    #[inline]
    pub fn push(&mut self, op: &MicroOp) {
        let base = self.counter;
        let mut flags = u16::from(op.kind.code()) & KIND_MASK;
        if op.taken {
            flags |= TAKEN_BIT;
        }
        let mut deltas = [0u16; MAX_SRCS];
        for (i, src) in op.srcs.iter().enumerate() {
            if let Some(v) = src {
                let delta = base.wrapping_sub(v.0);
                if v.0 < base && delta <= u64::from(u16::MAX) {
                    flags |= MODE_NEAR << SRC_SHIFT[i];
                    let mut near = delta as u16;
                    if crate::inject::active(crate::inject::SRC_DELTA) && near >= 2 {
                        near -= 1;
                    }
                    deltas[i] = near;
                } else {
                    flags |= MODE_FAR << SRC_SHIFT[i];
                    self.far_srcs.push(v.0);
                }
            }
        }
        match op.dst {
            None => {}
            Some(v) if v.0 == self.counter => {
                flags |= MODE_NEAR << DST_SHIFT;
                self.counter = self.counter.wrapping_add(1);
            }
            Some(v) => {
                flags |= MODE_FAR << DST_SHIFT;
                self.far_dsts.push(v.0);
                self.counter = if crate::inject::active(crate::inject::SSA_RESYNC) {
                    self.counter.wrapping_add(1)
                } else {
                    v.0.wrapping_add(1)
                };
            }
        }
        if let Some(addr) = op.addr {
            flags |= ADDR_BIT;
            self.addrs.push(addr);
        }
        self.ops.push(PackedOp { sid: op.sid.index() as u32, flags, deltas });
    }

    /// Decodes the stream into a reused [`MicroOp`], calling `f` once
    /// per op in trace order. No unpacked vector is ever materialized.
    pub fn for_each(&self, mut f: impl FnMut(&MicroOp)) {
        let mut cursor = self.start_cursor();
        let mut op = MicroOp {
            sid: StaticId::from_raw(0),
            kind: OpKind::IntAlu,
            dst: None,
            srcs: [None; MAX_SRCS],
            addr: None,
            taken: false,
        };
        for packed in &self.ops {
            self.decode_into(packed, &mut cursor, &mut op);
            f(&op);
        }
    }

    /// Iterates the decoded ops by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter { stream: self, index: 0, cursor: self.start_cursor() }
    }

    /// A block decoder positioned at the start of the stream — the
    /// batched form of [`iter`](Self::iter) (see [`BlockDecoder`]).
    pub fn block_decoder(&self) -> BlockDecoder<'_> {
        BlockDecoder { stream: self, index: 0, cursor: self.start_cursor() }
    }

    /// Decode state positioned at the start of the stream (the SSA
    /// counter begins at [`base_counter`](Self::base_counter)).
    fn start_cursor(&self) -> Cursor {
        Cursor { counter: self.base_counter, ..Cursor::default() }
    }

    /// Bytes held by the encoded representation (ops, addresses, side
    /// tables), excluding `Vec` headers and unused capacity.
    pub fn payload_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<PackedOp>()
            + (self.addrs.len() + self.far_dsts.len() + self.far_srcs.len())
                * std::mem::size_of::<u64>()
    }

    /// Average encoded bytes per op (0 for an empty stream).
    pub fn bytes_per_op(&self) -> f64 {
        if self.ops.is_empty() {
            0.0
        } else {
            self.payload_bytes() as f64 / self.ops.len() as f64
        }
    }

    /// Ops that needed a side-table entry (far destination or source) —
    /// diagnostics for the "rare fallback" claim.
    pub fn far_entries(&self) -> usize {
        self.far_dsts.len() + self.far_srcs.len()
    }

    fn decode_into(&self, packed: &PackedOp, cursor: &mut Cursor, op: &mut MicroOp) {
        let base = cursor.counter;
        op.sid = StaticId::from_raw(packed.sid);
        op.kind = OpKind::from_code((packed.flags & KIND_MASK) as u8)
            .expect("encoder only writes valid kind codes");
        op.taken = packed.flags & TAKEN_BIT != 0;
        for (i, shift) in SRC_SHIFT.iter().enumerate() {
            op.srcs[i] = match (packed.flags >> shift) & FIELD_MASK {
                MODE_NONE => None,
                MODE_NEAR => Some(VReg(base.wrapping_sub(u64::from(packed.deltas[i])))),
                _ => {
                    let v = self.far_srcs[cursor.far_src];
                    cursor.far_src += 1;
                    Some(VReg(v))
                }
            };
        }
        op.dst = match (packed.flags >> DST_SHIFT) & FIELD_MASK {
            MODE_NONE => None,
            MODE_NEAR => {
                let v = cursor.counter;
                cursor.counter = cursor.counter.wrapping_add(1);
                Some(VReg(v))
            }
            _ => {
                let v = self.far_dsts[cursor.far_dst];
                cursor.far_dst += 1;
                cursor.counter = v.wrapping_add(1);
                Some(VReg(v))
            }
        };
        op.addr = if packed.flags & ADDR_BIT != 0 {
            let a = self.addrs[cursor.addr];
            cursor.addr += 1;
            Some(a)
        } else {
            None
        };
    }
}

/// Streaming decode position.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    counter: u64,
    addr: usize,
    far_dst: usize,
    far_src: usize,
}

/// Default ops per decoded block: big enough to amortize per-block setup
/// to noise, small enough that a block (~0.5 MiB of decoded ops plus
/// filter columns) stays cache-resident while a consumer drains it.
pub const BLOCK_OPS: usize = 4096;

/// A reusable batch of decoded ops with structure-of-arrays filter
/// columns, filled by [`BlockDecoder::next_block`].
///
/// The `ops` array is the decode-once product every consumer can walk
/// (the default [`TraceConsumer::consume_block`] does exactly that); the
/// side columns pre-filter the two op classes the hot simulators care
/// about so their block loops touch no non-participating op:
///
/// * the **memory column** holds `(addr, is_load)` for every op carrying
///   an effective address — the cache hierarchy's exact access stream,
///   including non-load/store kinds with addresses, which the per-op
///   path also treats as accesses;
/// * the **branch column** holds `(sid, taken)` for every conditional
///   branch — the branch predictors' exact observation stream.
///
/// Capacity is retained across refills, so a replay loop allocates one
/// block up front and reuses it for the whole trace.
///
/// [`TraceConsumer::consume_block`]: crate::TraceConsumer::consume_block
#[derive(Debug, Clone, Default)]
pub struct OpBlock {
    ops: Vec<MicroOp>,
    mem_addrs: Vec<u64>,
    mem_loads: Vec<bool>,
    /// Block-relative op index of each memory-column entry.
    mem_idx: Vec<u32>,
    branch_sids: Vec<StaticId>,
    branch_taken: Vec<bool>,
    /// Block-relative op index of each branch-column entry.
    branch_idx: Vec<u32>,
    /// Block-relative op index of each conditional move (select); on
    /// platforms without if-conversion these resolve like branches, so
    /// their sid and predicate ride along in parallel columns.
    select_idx: Vec<u32>,
    select_sids: Vec<StaticId>,
    select_taken: Vec<bool>,
    /// `OpKind::code()` per op: a dense latency-class column.
    kind_codes: Vec<u8>,
    /// Program-ordered register-event stream: one entry per *present*
    /// source or destination, so register-model consumers never test
    /// `Option` slots. Parallel to [`reg_event_vreg`](Self::reg_event_vreg);
    /// see [`reg_event_meta`](Self::reg_event_meta) for the encoding.
    reg_event_meta: Vec<u32>,
    reg_event_vreg: Vec<u64>,
}

/// [`OpBlock::reg_event_meta`] bit layout: the event is a destination
/// write (else a source read at position `meta & REG_EVENT_POS`).
pub const REG_EVENT_DST: u32 = 1 << 2;
/// The destination value was produced by a load (meaningful only with
/// [`REG_EVENT_DST`]).
pub const REG_EVENT_DST_LOAD: u32 = 1 << 3;
/// Source-position mask (0..3).
pub const REG_EVENT_POS: u32 = 0b11;
/// The owning op's block-relative index is `meta >> REG_EVENT_IDX_SHIFT`.
pub const REG_EVENT_IDX_SHIFT: u32 = 4;

impl OpBlock {
    /// An empty block with room for `ops` decoded ops.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            ops: Vec::with_capacity(ops),
            mem_addrs: Vec::with_capacity(ops),
            mem_loads: Vec::with_capacity(ops),
            mem_idx: Vec::with_capacity(ops),
            branch_sids: Vec::with_capacity(ops),
            branch_taken: Vec::with_capacity(ops),
            branch_idx: Vec::with_capacity(ops),
            select_idx: Vec::new(),
            select_sids: Vec::new(),
            select_taken: Vec::new(),
            kind_codes: Vec::with_capacity(ops),
            reg_event_meta: Vec::with_capacity(ops * 2),
            reg_event_vreg: Vec::with_capacity(ops * 2),
        }
    }

    /// Number of decoded ops in the block.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the block holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The decoded ops, in trace order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Effective addresses of the block's address-carrying ops, in trace
    /// order (parallel to [`mem_loads`](Self::mem_loads)).
    pub fn mem_addrs(&self) -> &[u64] {
        &self.mem_addrs
    }

    /// Whether each address-carrying op is a load (`false` means the
    /// access is treated as a store), parallel to
    /// [`mem_addrs`](Self::mem_addrs).
    pub fn mem_loads(&self) -> &[bool] {
        &self.mem_loads
    }

    /// Static ids of the block's conditional branches, in trace order
    /// (parallel to [`branch_taken`](Self::branch_taken)).
    pub fn branch_sids(&self) -> &[StaticId] {
        &self.branch_sids
    }

    /// Outcome of each conditional branch, parallel to
    /// [`branch_sids`](Self::branch_sids).
    pub fn branch_taken(&self) -> &[bool] {
        &self.branch_taken
    }

    /// Block-relative op index of each memory-column entry (parallel to
    /// [`mem_addrs`](Self::mem_addrs)), for consumers that scatter
    /// per-access results back to ops.
    pub fn mem_idx(&self) -> &[u32] {
        &self.mem_idx
    }

    /// Block-relative op index of each branch-column entry (parallel to
    /// [`branch_sids`](Self::branch_sids)).
    pub fn branch_idx(&self) -> &[u32] {
        &self.branch_idx
    }

    /// Block-relative op indices of the block's conditional moves, in
    /// trace order (parallel to [`select_sids`](Self::select_sids) and
    /// [`select_taken`](Self::select_taken)).
    pub fn select_idx(&self) -> &[u32] {
        &self.select_idx
    }

    /// Static ids of the block's conditional moves, parallel to
    /// [`select_idx`](Self::select_idx).
    pub fn select_sids(&self) -> &[StaticId] {
        &self.select_sids
    }

    /// Predicate of each conditional move, parallel to
    /// [`select_idx`](Self::select_idx).
    pub fn select_taken(&self) -> &[bool] {
        &self.select_taken
    }

    /// `OpKind::code()` of each op — a dense latency-class column.
    pub fn kind_codes(&self) -> &[u8] {
        &self.kind_codes
    }

    /// Register-event metadata, parallel to
    /// [`reg_event_vreg`](Self::reg_event_vreg): for each *present* source
    /// or destination, in program order (an op's sources by position,
    /// then its destination), `idx << REG_EVENT_IDX_SHIFT` plus the
    /// `REG_EVENT_*` bits.
    pub fn reg_event_meta(&self) -> &[u32] {
        &self.reg_event_meta
    }

    /// The virtual register of each register event.
    pub fn reg_event_vreg(&self) -> &[u64] {
        &self.reg_event_vreg
    }

    /// Refills the block with the single op `op` — the per-op form of
    /// [`BlockDecoder::next_block`], for consumers whose per-op path
    /// runs their block engine on one-op blocks. The filter columns are
    /// derived exactly as the decoder derives them.
    pub fn fill_one(&mut self, op: &MicroOp) {
        self.reset();
        self.push(op);
    }

    /// Appends `op` after the block's last op, deriving its filter
    /// columns exactly as the decoder does: how a live feed
    /// ([`BlockFeed`](crate::BlockFeed)) builds a block op by op.
    #[inline(always)]
    pub fn push(&mut self, op: &MicroOp) {
        self.ops.push(*op);
        self.push_columns(self.ops.len() - 1);
    }

    /// Empties the block, keeping every column's capacity.
    pub fn reset(&mut self) {
        self.clear();
        self.ops.clear();
    }

    /// Appends op `i`'s entries to every filter column. The one place
    /// column derivation lives, shared by the decoder and
    /// [`push`](Self::push).
    #[inline(always)]
    fn push_columns(&mut self, i: usize) {
        let op = &self.ops[i];
        self.kind_codes.push(op.kind.code());
        if let Some(addr) = op.addr {
            self.mem_addrs.push(addr);
            self.mem_loads.push(op.kind.is_load());
            self.mem_idx.push(i as u32);
        }
        if op.kind.is_cond_branch() {
            self.branch_sids.push(op.sid);
            self.branch_taken.push(op.taken);
            self.branch_idx.push(i as u32);
        } else if op.kind == OpKind::CondMove {
            self.select_idx.push(i as u32);
            self.select_sids.push(op.sid);
            self.select_taken.push(op.taken);
        }
        let idx = (i as u32) << REG_EVENT_IDX_SHIFT;
        for (pos, src) in op.srcs.iter().enumerate() {
            if let Some(v) = src {
                self.reg_event_meta.push(idx | pos as u32);
                self.reg_event_vreg.push(v.0);
            }
        }
        if let Some(dst) = op.dst {
            let load = if op.kind.is_load() { REG_EVENT_DST_LOAD } else { 0 };
            self.reg_event_meta.push(idx | REG_EVENT_DST | load);
            self.reg_event_vreg.push(dst.0);
        }
    }

    /// Clears the side columns only: `ops` is resized (not cleared) by
    /// the decoder so a steady-state refill overwrites each op in place
    /// instead of re-initializing it and writing it twice.
    fn clear(&mut self) {
        self.mem_addrs.clear();
        self.mem_loads.clear();
        self.mem_idx.clear();
        self.branch_sids.clear();
        self.branch_taken.clear();
        self.branch_idx.clear();
        self.select_idx.clear();
        self.select_sids.clear();
        self.select_taken.clear();
        self.kind_codes.clear();
        self.reg_event_meta.clear();
        self.reg_event_vreg.clear();
    }
}

/// Resumable block decoder over a [`PackedStream`].
///
/// Carries the streaming decode state (its cursor) across
/// [`next_block`](Self::next_block) calls, so a sequence of block
/// decodes reproduces exactly the op stream a single
/// [`for_each`](PackedStream::for_each) pass would — the property the
/// block-size proptests and the `block-boundary-carry` conformance fault
/// pin down.
#[derive(Debug, Clone)]
pub struct BlockDecoder<'a> {
    stream: &'a PackedStream,
    index: usize,
    cursor: Cursor,
}

impl<'a> BlockDecoder<'a> {
    /// Fills `block` with up to `max_ops` decoded ops and returns how
    /// many were decoded (0 once the stream is exhausted). The block is
    /// cleared first; its capacity is reused.
    ///
    /// # Panics
    ///
    /// Panics if `max_ops` is 0 on a non-exhausted stream (the decode
    /// loop could never terminate).
    pub fn next_block(&mut self, block: &mut OpBlock, max_ops: usize) -> usize {
        block.clear();
        let remaining = self.stream.ops.len() - self.index;
        if remaining == 0 {
            block.ops.clear();
            return 0;
        }
        assert!(max_ops > 0, "block size must be at least 1 op");
        // The carried cursor is the only state crossing the block edge;
        // the armed fault corrupts exactly that carry (and nothing about
        // a first or only block), which per-op replay never performs —
        // the divergence the conformance fuzzer must catch.
        if self.index > 0 && crate::inject::active(crate::inject::BLOCK_CARRY) {
            self.cursor.counter = self.cursor.counter.wrapping_add(1);
        }
        let count = remaining.min(max_ops);
        let end = self.index + count;
        // Reuse the previous refill's op storage: a steady-state block is
        // the same size, so this writes nothing and `decode_into` below
        // overwrites every field of every op exactly once.
        block.ops.resize(
            count,
            MicroOp {
                sid: StaticId::from_raw(0),
                kind: OpKind::IntAlu,
                dst: None,
                srcs: [None; MAX_SRCS],
                addr: None,
                taken: false,
            },
        );
        for (i, packed) in self.stream.ops[self.index..end].iter().enumerate() {
            self.stream.decode_into(packed, &mut self.cursor, &mut block.ops[i]);
            block.push_columns(i);
        }
        let decoded = end - self.index;
        self.index = end;
        decoded
    }
}

/// By-value iterator over the decoded ops.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a PackedStream,
    index: usize,
    cursor: Cursor,
}

impl Iterator for Iter<'_> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let packed = self.stream.ops.get(self.index)?;
        self.index += 1;
        let mut op = MicroOp {
            sid: StaticId::from_raw(0),
            kind: OpKind::IntAlu,
            dst: None,
            srcs: [None; MAX_SRCS],
            addr: None,
            taken: false,
        };
        self.stream.decode_into(packed, &mut self.cursor, &mut op);
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.stream.ops.len() - self.index;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::here;

    fn sid(n: u32) -> StaticId {
        StaticId::from_raw(n)
    }

    fn round_trip(ops: &[MicroOp]) {
        let mut stream = PackedStream::new();
        for op in ops {
            stream.push(op);
        }
        assert_eq!(stream.len(), ops.len());
        let mut decoded = Vec::with_capacity(ops.len());
        stream.for_each(|op| decoded.push(*op));
        assert_eq!(decoded, ops, "for_each decode must reproduce the stream");
        let via_iter: Vec<MicroOp> = stream.iter().collect();
        assert_eq!(via_iter, ops, "iterator decode must reproduce the stream");
    }

    #[test]
    fn packed_op_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<PackedOp>(), 12);
        assert_eq!(std::mem::align_of::<PackedOp>(), 4);
    }

    #[test]
    fn empty_stream_round_trips() {
        round_trip(&[]);
        assert!(PackedStream::new().is_empty());
        assert_eq!(PackedStream::new().bytes_per_op(), 0.0);
    }

    #[test]
    fn tape_shaped_stream_round_trips_with_no_far_entries() {
        // Loads, ALU, branches, stores with in-order dsts — the shape the
        // tape emits when no lit() gaps occur.
        let mut ops = Vec::new();
        let mut vreg = 0u64;
        for i in 0..200u64 {
            let a = VReg(vreg);
            ops.push(MicroOp::load(sid(0), OpKind::IntLoad, a, 0x1000 + i * 8, None));
            vreg += 1;
            let b = VReg(vreg);
            ops.push(MicroOp::compute(sid(1), OpKind::IntAlu, b, [Some(a), None, None]));
            vreg += 1;
            ops.push(MicroOp::store(sid(2), OpKind::IntStore, Some(b), 0x2000 + i * 8));
            ops.push(MicroOp::branch(sid(3), [Some(b), None, None], i % 3 == 0));
        }
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        assert_eq!(stream.far_entries(), 0, "in-order dsts and near srcs need no side table");
        round_trip(&ops);
    }

    #[test]
    fn lit_gaps_use_the_dst_side_table() {
        // A vreg claimed without an emitted op (lit) leaves a gap; the
        // next producing op must record its dst explicitly.
        let ops = vec![
            MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]),
            // vreg 1 was claimed by lit(): no op produced it.
            MicroOp::compute(sid(1), OpKind::IntAlu, VReg(2), [Some(VReg(1)), None, None]),
            MicroOp::compute(sid(2), OpKind::IntAlu, VReg(3), [Some(VReg(2)), None, None]),
        ];
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        // One dst exception resynchronizes the counter, and the zero-
        // distance reference to the gap vreg (delta 0 is unencodable as
        // near) takes the far-src path.
        assert_eq!(stream.far_entries(), 2);
        round_trip(&ops);
    }

    #[test]
    fn far_sources_round_trip() {
        let mut ops = Vec::new();
        // Create a producer, then reference it from far beyond u16 range.
        ops.push(MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]));
        for i in 1..=70_000u64 {
            ops.push(MicroOp::compute(sid(1), OpKind::IntAlu, VReg(i), [Some(VReg(i - 1)), None, None]));
        }
        ops.push(MicroOp::compute(
            sid(2),
            OpKind::IntAlu,
            VReg(70_001),
            [Some(VReg(0)), Some(VReg(70_000)), None],
        ));
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        assert_eq!(stream.far_entries(), 1, "only the 70k-distance source goes far");
        round_trip(&ops);
    }

    #[test]
    fn adversarial_dsts_and_sources_round_trip() {
        // Non-monotone dsts, self-references, u64 extremes, holes.
        let ops = vec![
            MicroOp::compute(sid(9), OpKind::FpDiv, VReg(u64::MAX), [Some(VReg(u64::MAX)), None, None]),
            MicroOp::compute(sid(8), OpKind::IntMul, VReg(5), [Some(VReg(u64::MAX)), None, Some(VReg(0))]),
            MicroOp { sid: sid(7), kind: OpKind::Jump, dst: Some(VReg(5)), srcs: [None, Some(VReg(6)), None], addr: Some(0xdead), taken: true },
            MicroOp::branch(sid(6), [Some(VReg(5)), Some(VReg(4)), Some(VReg(3))], false),
            MicroOp { sid: sid(5), kind: OpKind::IntStore, dst: None, srcs: [None, None, Some(VReg(6))], addr: None, taken: false },
        ];
        round_trip(&ops);
    }

    #[test]
    fn addresses_only_cost_memory_ops() {
        let mut stream = PackedStream::new();
        for i in 0..100u64 {
            let dst = VReg(i);
            if i % 4 == 0 {
                stream.push(&MicroOp::load(sid(0), OpKind::IntLoad, dst, i, None));
            } else {
                stream.push(&MicroOp::compute(sid(1), OpKind::IntAlu, dst, [None; MAX_SRCS]));
            }
        }
        assert_eq!(stream.addrs.len(), 25);
        // 12 fixed + 8 * mem-fraction, far below the 24-byte budget.
        assert!(stream.bytes_per_op() <= 14.0, "got {}", stream.bytes_per_op());
    }

    #[test]
    fn worst_case_bytes_per_op_is_within_budget() {
        // Every op a memory op: 12 + 8 = 20 bytes, still ≤ 24.
        let mut stream = PackedStream::new();
        for i in 0..64u64 {
            stream.push(&MicroOp::load(sid(0), OpKind::FpLoad, VReg(i), i * 8, None));
        }
        assert!(stream.bytes_per_op() <= 24.0, "got {}", stream.bytes_per_op());
    }

    #[test]
    fn ssa_resync_gaps_round_trip() {
        // lit() gaps force far-dst entries (counter resyncs); zero-distance
        // references force far srcs; loads and stores exercise the address
        // column.
        let ops = vec![
            MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]),
            // vreg 1 claimed by lit(): the next producer resyncs the counter.
            MicroOp::compute(sid(1), OpKind::IntAlu, VReg(2), [Some(VReg(1)), None, None]),
            MicroOp::load(sid(2), OpKind::IntLoad, VReg(3), 0x40, Some(VReg(2))),
            // Another gap (vreg 4), split points land right on the resync.
            MicroOp::compute(sid(3), OpKind::IntMul, VReg(5), [Some(VReg(4)), Some(VReg(3)), None]),
            MicroOp::store(sid(4), OpKind::IntStore, Some(VReg(5)), 0x80),
            MicroOp::branch(sid(5), [Some(VReg(5)), None, None], true),
            // Non-monotone dst: counter jumps backward.
            MicroOp::compute(sid(6), OpKind::IntAlu, VReg(3), [Some(VReg(5)), None, None]),
            MicroOp::compute(sid(7), OpKind::IntAlu, VReg(4), [Some(VReg(3)), None, None]),
        ];
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        assert!(stream.far_entries() > 0, "the fixture must exercise the side tables");
        round_trip(&ops);
    }

    #[test]
    fn lit_gapped_tape_round_trips() {
        use crate::{Tape, TraceConsumer, Tracer};
        use bioperf_isa::Program;

        #[derive(Default)]
        struct Both {
            raw: Vec<MicroOp>,
            packed: PackedStream,
        }
        impl TraceConsumer for Both {
            fn consume(&mut self, op: &MicroOp, _p: &Program) {
                self.raw.push(*op);
                self.packed.push(op);
            }
        }

        let xs: Vec<u64> = (0..16).collect();
        let mut tape = Tape::new(Both::default());
        let mut acc = tape.lit();
        for (i, x) in xs.iter().enumerate() {
            let v = tape.int_load(here!("k"), x);
            let lit = tape.lit(); // gap: forces an SSA resync downstream
            acc = tape.int_op(here!("k"), &[acc, v, lit]);
            tape.int_store(here!("k"), x, acc);
            tape.branch(here!("k"), &[acc], i % 3 == 0);
        }
        let (_, both) = tape.finish();
        assert_eq!(both.packed.len(), both.raw.len());
        round_trip(&both.raw);
    }

    #[test]
    fn payload_wire_encoding_round_trips() {
        let ops = vec![
            MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]),
            MicroOp::compute(sid(1), OpKind::IntAlu, VReg(2), [Some(VReg(1)), None, None]),
            MicroOp::load(sid(2), OpKind::IntLoad, VReg(3), 0x40, Some(VReg(2))),
            MicroOp::compute(sid(9), OpKind::FpDiv, VReg(u64::MAX), [Some(VReg(u64::MAX)), None, None]),
        ];
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        let mut bytes = Vec::new();
        stream.write_payload(&mut bytes);
        assert_eq!(Some(bytes.len()), PackedStream::payload_wire_len(stream.column_lens()));
        let parsed = PackedStream::from_payload(stream.column_lens(), 0, &bytes)
            .expect("well-formed payload parses");
        let decoded: Vec<MicroOp> = parsed.iter().collect();
        assert_eq!(decoded, ops);
    }

    #[test]
    fn from_payload_rejects_malformed_bytes() {
        let mut stream = PackedStream::new();
        stream.push(&MicroOp::load(sid(0), OpKind::IntLoad, VReg(0), 0x40, None));
        let mut bytes = Vec::new();
        stream.write_payload(&mut bytes);
        let columns = stream.column_lens();
        // Wrong payload size for the claimed columns.
        assert!(PackedStream::from_payload(columns, 0, &bytes[..bytes.len() - 1]).is_none());
        assert!(PackedStream::from_payload([2, 1, 0, 0], 0, &bytes).is_none());
        // Address flag set but the address column count claims zero
        // entries: the cross-validation must reject rather than letting
        // decode index out of range.
        let stripped = &bytes[..12];
        assert!(PackedStream::from_payload([1, 0, 0, 0], 0, stripped).is_none());
        // Invalid kind code (flags low nibble 0xF is unassigned).
        let mut bad_kind = bytes.clone();
        bad_kind[4] |= 0b1111;
        assert!(PackedStream::from_payload(columns, 0, &bad_kind).is_none());
    }

    #[test]
    fn base_counter_continuation_matches_unsegmented_decode() {
        // Encode a lit()-gap-heavy stream whole, then re-encode it as two
        // chunks where the second starts from the first's end counter —
        // concatenated decodes must be op-identical, including when the
        // split lands exactly on an SSA resync (far-dst) gap.
        let ops = vec![
            MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]),
            MicroOp::compute(sid(1), OpKind::IntAlu, VReg(2), [Some(VReg(1)), None, None]),
            MicroOp::load(sid(2), OpKind::IntLoad, VReg(3), 0x40, Some(VReg(2))),
            MicroOp::compute(sid(3), OpKind::IntMul, VReg(5), [Some(VReg(4)), Some(VReg(3)), None]),
            MicroOp::store(sid(4), OpKind::IntStore, Some(VReg(5)), 0x80),
            MicroOp::compute(sid(6), OpKind::IntAlu, VReg(3), [Some(VReg(5)), None, None]),
            MicroOp::compute(sid(7), OpKind::IntAlu, VReg(4), [Some(VReg(3)), None, None]),
        ];
        for split in 0..=ops.len() {
            let mut head = PackedStream::new();
            for op in &ops[..split] {
                head.push(op);
            }
            let mut tail = PackedStream::with_base_counter(head.encode_counter());
            assert_eq!(tail.base_counter(), head.encode_counter());
            for op in &ops[split..] {
                tail.push(op);
            }
            let mut decoded: Vec<MicroOp> = head.iter().collect();
            decoded.extend(tail.iter());
            assert_eq!(decoded, ops, "split at {split} diverged");
        }
    }

    #[test]
    fn block_decode_matches_per_op_decode_at_every_block_size() {
        // The fixture of `ssa_resync_gaps_round_trip`: block edges
        // must carry the counter across lit() gaps exactly like a
        // single-pass decode.
        let ops = vec![
            MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]),
            MicroOp::compute(sid(1), OpKind::IntAlu, VReg(2), [Some(VReg(1)), None, None]),
            MicroOp::load(sid(2), OpKind::IntLoad, VReg(3), 0x40, Some(VReg(2))),
            MicroOp::compute(sid(3), OpKind::IntMul, VReg(5), [Some(VReg(4)), Some(VReg(3)), None]),
            MicroOp::store(sid(4), OpKind::IntStore, Some(VReg(5)), 0x80),
            MicroOp::branch(sid(5), [Some(VReg(5)), None, None], true),
            MicroOp { sid: sid(6), kind: OpKind::Jump, dst: None, srcs: [None; MAX_SRCS], addr: Some(0xbeef), taken: true },
            MicroOp::compute(sid(7), OpKind::IntAlu, VReg(3), [Some(VReg(5)), None, None]),
            MicroOp::compute(sid(8), OpKind::IntAlu, VReg(4), [Some(VReg(3)), None, None]),
        ];
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        for block_size in 1..=ops.len() + 1 {
            let mut decoder = stream.block_decoder();
            let mut block = OpBlock::with_capacity(block_size);
            let mut decoded = Vec::new();
            let (mut mem, mut branches) = (Vec::new(), Vec::new());
            loop {
                let n = decoder.next_block(&mut block, block_size);
                if n == 0 {
                    break;
                }
                assert_eq!(n, block.len());
                assert!(n <= block_size);
                decoded.extend_from_slice(block.ops());
                mem.extend(block.mem_addrs().iter().zip(block.mem_loads()).map(|(&a, &l)| (a, l)));
                branches.extend(
                    block.branch_sids().iter().zip(block.branch_taken()).map(|(&s, &t)| (s, t)),
                );
            }
            assert_eq!(decoded, ops, "block size {block_size} diverged");
            // The memory column covers every address-carrying op — the
            // Jump with an address included — with its load/store class.
            let expect_mem: Vec<(u64, bool)> = ops
                .iter()
                .filter_map(|op| op.addr.map(|a| (a, op.kind.is_load())))
                .collect();
            assert_eq!(mem, expect_mem, "block size {block_size} memory column");
            let expect_branches: Vec<(StaticId, bool)> = ops
                .iter()
                .filter(|op| op.kind.is_cond_branch())
                .map(|op| (op.sid, op.taken))
                .collect();
            assert_eq!(branches, expect_branches, "block size {block_size} branch column");
        }
    }

    /// `fill_one` must build exactly the block a one-op decode builds —
    /// every filter column included.
    #[test]
    fn fill_one_matches_one_op_block_decode() {
        let ops = vec![
            MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]),
            MicroOp::load(sid(1), OpKind::FpLoad, VReg(2), 0x40, Some(VReg(0))),
            MicroOp::store(sid(2), OpKind::IntStore, Some(VReg(2)), 0x80),
            MicroOp::branch(sid(3), [Some(VReg(2)), None, Some(VReg(0))], true),
            MicroOp { sid: sid(4), kind: OpKind::CondMove, dst: Some(VReg(3)), srcs: [Some(VReg(2)), None, None], addr: None, taken: true },
            MicroOp { sid: sid(5), kind: OpKind::Jump, dst: None, srcs: [None; MAX_SRCS], addr: Some(0xbeef), taken: false },
        ];
        let mut stream = PackedStream::new();
        for op in &ops {
            stream.push(op);
        }
        let mut decoder = stream.block_decoder();
        let mut decoded = OpBlock::with_capacity(1);
        let mut filled = OpBlock::default();
        for op in &ops {
            assert_eq!(decoder.next_block(&mut decoded, 1), 1);
            filled.fill_one(op);
            assert_eq!(format!("{filled:?}"), format!("{decoded:?}"), "op {op:?}");
        }
    }

    #[test]
    fn exhausted_block_decoder_keeps_returning_zero() {
        let mut stream = PackedStream::new();
        stream.push(&MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]));
        let mut decoder = stream.block_decoder();
        let mut block = OpBlock::with_capacity(BLOCK_OPS);
        assert_eq!(decoder.next_block(&mut block, BLOCK_OPS), 1);
        assert_eq!(decoder.next_block(&mut block, BLOCK_OPS), 0);
        assert!(block.is_empty(), "an exhausted decode clears the block");
        assert_eq!(decoder.next_block(&mut block, BLOCK_OPS), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 op")]
    fn zero_block_size_is_rejected() {
        let mut stream = PackedStream::new();
        stream.push(&MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [None; MAX_SRCS]));
        let mut block = OpBlock::with_capacity(1);
        let _ = stream.block_decoder().next_block(&mut block, 0);
    }

    #[test]
    fn real_tape_stream_round_trips() {
        use crate::{Tape, TraceConsumer, Tracer};
        use bioperf_isa::Program;

        // Record through a (Collect, PackedStream-feeder) pair and prove
        // packed-decode == the original stream, lit gaps included.
        #[derive(Default)]
        struct Both {
            raw: Vec<MicroOp>,
            packed: PackedStream,
        }
        impl TraceConsumer for Both {
            fn consume(&mut self, op: &MicroOp, _p: &Program) {
                self.raw.push(*op);
                self.packed.push(op);
            }
        }

        let xs: Vec<u64> = (0..32).collect();
        let mut tape = Tape::new(Both::default());
        let mut acc = tape.lit(); // forces a dst-table entry on the next producer
        for (i, x) in xs.iter().enumerate() {
            let v = tape.int_load(here!("k"), x);
            let lit = tape.lit();
            acc = tape.int_op(here!("k"), &[acc, v, lit]);
            let sel = tape.select(here!("k"), &[acc, v], i % 2 == 0);
            tape.int_store(here!("k"), x, sel);
            tape.branch(here!("k"), &[sel], i % 3 == 0);
            tape.jump(here!("k"));
        }
        let (_, both) = tape.finish();
        let mut decoded = Vec::new();
        both.packed.for_each(|op| decoded.push(*op));
        assert_eq!(decoded, both.raw);
        assert!(both.packed.bytes_per_op() <= 24.0);
    }
}
