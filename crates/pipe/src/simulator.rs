//! The trace-driven replay engine.
//!
//! [`PlatformBank`] is the one replay engine. Per block it makes one
//! plan pass (the `plan` module), one predictor walk per (if-conversion,
//! predictor kind) family, one flag column per (walk, register-file
//! size) pair and one latency fill per *fill group*; each member then
//! runs only its timing core (the `timing` module). A fill group's access
//! latencies come from one of three sources:
//!
//! * a live cache hierarchy — every live member has a group of its own;
//! * a cache pass's miss-level annotations, shared by every member with
//!   the same stream and latency table;
//! * the bank's own *keyed* hierarchies: one per cache-axis key, run off
//!   the plan's access events, whose per-block miss-level codes the
//!   fill reads directly. Keys whose codes have agreed so far form a
//!   class, timed by one lane per timing configuration; a key whose
//!   block codes differ from its class representative's splits off
//!   before any core runs the block, and its class's lanes start as
//!   shadows of the parent's.
//!
//! **Shadow lanes.** Lanes of different classes on one timing axis
//! often see equal codes for long stretches (BioPerf loads almost always
//! hit L1), and once a disagreement has drained from the window their
//! states differ only by a constant number of cycles. Before each block
//! a keyed bank makes such a lane a *shadow* `(leader, shift)` of the
//! first running lane on its axis whose class has equal block codes and
//! whose state equals its own shifted (`TimingCore::offset_of`): a
//! shadow's core does not run, no fill group only shadows read is
//! loaded, and its cycles are its leader's plus the shift. A shadow
//! whose codes diverge from its leader's is *materialized* before the
//! block runs: its core takes over the leader's live state, shifted.
//! A new class's lanes start as shadows of the parent's lanes, on fresh
//! cores, instead of copies of them. [`BankWork`] counts the
//! lane-blocks, the core-blocks that ran, merges and materializations.
//!
//! *Which state is live.* At a block's start the front end is at or
//! after the completion of every op more than a ROB's worth back (the
//! ROB's head bounds dispatch), and every op from now on dispatches at
//! or after the front-end cycle, so a cycle value at or before it can
//! never delay anything: such values count as equal. What is left is
//! the fetch count, the last issue and last completion, the ROB, the
//! ready slots the last ROB's worth of ops wrote (destinations and
//! reloaded sources, which the bank remembers across blocks), and the
//! issue counts from the front-end cycle through the last completion
//! (every claim lies between its op's dispatch and completion). A
//! materialized core keeps its own values everywhere else: a fresh
//! core's zeros, or the state it stopped at when it became a shadow,
//! which is the state it would have run from, so only the slots the
//! skipped ops wrote differ — the remembered ones while they are the
//! last ROB's worth of ops, and values at or before the front-end cycle
//! after that.
//!
//! *Precondition.* A shadow is exact only because the recurrence is
//! shift-invariant: shifting every live cycle of a state shifts every
//! later result by the same amount. Maxima, additions of latencies and
//! the issue claims all are, as long as the issue ring loses no live
//! cycle — which is why the ring grows instead of aliasing (the
//! `timing` module). Shadows are off in a bank that records event
//! metrics or a timeline: a shadow's events would never happen.
//!
//! [`CycleSim`] is a one-member live bank, the sweep's unfactored oracle
//! replays its cells as live members (each with its own hierarchy,
//! predictor and prefetcher), the factored sweep's first pass is a keyed
//! bank ([`PlatformBank::keyed`]) fed live by the kernel, and
//! [`TimingBank`], its later passes, is a bank of annotated members over
//! one register file and if-conversion mode. Per-op
//! [`TraceConsumer::consume`] runs the same engine on one-op blocks, so
//! there is a single execution path.

use std::sync::Arc;

use bioperf_branch::PredictorKind;
use bioperf_cache::{AnnotationStream, Hierarchy, HierarchyStats, MissLevelBank, Prefetcher};
use bioperf_isa::{MicroOp, Program};
use bioperf_metrics::MetricSet;
use bioperf_trace::{inject, OpBlock, TraceConsumer};

use crate::config::PlatformConfig;
use crate::plan::Plan;
use crate::timing::{LatencyFill, PredictorWalk, TimingCore};
pub use crate::timing::OpTiming;

/// Results of simulating one trace on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed trace instructions (excludes inserted spill traffic).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branches mispredicted by the platform predictor.
    pub mispredicts: u64,
    /// Spill stores inserted by the register-pressure model.
    pub spill_stores: u64,
    /// Reload loads inserted by the register-pressure model.
    pub spill_reloads: u64,
    /// Cache demand statistics.
    pub cache: HierarchyStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Where a fill group's access latencies come from.
#[derive(Debug, Clone)]
enum Source {
    /// A live cache hierarchy, simulated access by access.
    Live(Box<Hierarchy>),
    /// A cache pass's miss-level stream, read from cursor `pos` on.
    Annotated {
        stream: Arc<AnnotationStream>,
        pos: usize,
        /// Total access latency by 2-bit level code
        /// ([`level_latencies`]). An exhausted cursor reads the benign L1
        /// code, so a skewed replay diverges instead of crashing.
        lat: [u64; 4],
    },
    /// The bank's keyed hierarchies: the block codes of `class`'s
    /// representative key, read through `lat` like an annotation.
    Keyed { class: usize, lat: [u64; 4] },
}

impl Source {
    /// `stream` read through `cfg`'s level latencies.
    fn annotated(cfg: &PlatformConfig, stream: Arc<AnnotationStream>) -> Self {
        // An armed `factored-annotation-skew` fault starts the cursor one
        // annotation in — the off-by-one the conformance fuzzer and the
        // sweep self-check must catch.
        let pos = inject::active(inject::ANN_SKEW) as usize;
        Source::Annotated { stream, pos, lat: level_latencies(cfg) }
    }
}

/// `cfg`'s total access latency by 2-bit level code (L1 / L2 / memory;
/// the fourth entry aliases L1 so indexing a raw code never
/// bounds-checks).
fn level_latencies(cfg: &PlatformConfig) -> [u64; 4] {
    let lat = cfg.latencies();
    let hit = lat.total(false, false);
    [hit, lat.total(true, false), lat.total(true, true), hit]
}

/// One latency fill per block, read by every member of the group.
#[derive(Debug, Clone)]
struct FillGroup {
    source: Source,
    /// Index into the plan's register-file sizes (access events).
    size: usize,
    /// Index into the plan's if-conversion modes (resolving branches).
    mode: usize,
    fill: LatencyFill,
}

impl FillGroup {
    /// Whether a member with `other`'s source can read this group's
    /// fill: both annotated, with the same stream (the same `Arc`, or
    /// equal contents) and cursor start, or both keyed on the same
    /// class; and with the same level latencies, latency table,
    /// register-file size and if-conversion mode. A live hierarchy
    /// belongs to its member alone.
    fn shares_fill(&self, other: &Self) -> bool {
        let (same_stream, same_levels) = match (&self.source, &other.source) {
            (
                Source::Annotated { stream, pos, lat },
                Source::Annotated { stream: other_stream, pos: other_pos, lat: other_lat },
            ) => (
                pos == other_pos && (Arc::ptr_eq(stream, other_stream) || stream == other_stream),
                lat == other_lat,
            ),
            (
                Source::Keyed { class, lat },
                Source::Keyed { class: other_class, lat: other_lat },
            ) => (class == other_class, lat == other_lat),
            _ => return false,
        };
        // An armed `timing-fill-overshare` fault keys the fill on the
        // stream (or class) alone, so members with different latency
        // tables share.
        let same_table = (same_levels && self.fill.same_table(&other.fill))
            || inject::active(inject::FILL_OVERSHARE);
        same_table && same_stream && (self.size, self.mode) == (other.size, other.mode)
    }

    /// Fills the block's latencies (`codes` are its kind codes) from
    /// this group's source.
    fn load(&mut self, codes: &[u8], plan: &Plan, keyed: Option<&Keyed>) {
        let (size, branches) = (&plan.sizes[self.size], &plan.modes[self.mode]);
        match &mut self.source {
            Source::Live(hierarchy) => {
                self.fill.load(codes, size, branches, |addr, kind| hierarchy.access(addr, kind))
            }
            Source::Annotated { stream, pos, lat } => {
                // Every planned access pops exactly one annotation.
                self.fill.load(codes, size, branches, |_, _| {
                    let code = stream.code(*pos);
                    *pos += 1;
                    lat[code as usize]
                })
            }
            Source::Keyed { class, lat } => {
                let keyed = keyed.expect("a keyed group lives in a keyed bank");
                let mut levels = keyed.codes(*class).iter();
                self.fill.load(codes, size, branches, |_, _| {
                    lat[*levels.next().expect("one code per planned access") as usize]
                })
            }
        }
    }
}

/// One flag column per block — a register-file size's spill flags plus
/// a predictor walk's redirect bits — read by every member with both.
#[derive(Debug, Clone)]
struct FlagColumn {
    /// Index into the bank's predictor walks.
    walk: usize,
    /// Index into the plan's register-file sizes.
    size: usize,
    flags: Vec<u8>,
}

/// One platform model: the flag column and fill group it reads, and
/// its own timing core.
#[derive(Debug, Clone)]
struct Member {
    cfg: PlatformConfig,
    /// Index into the bank's flag columns.
    column: usize,
    /// Index into the bank's fill groups.
    group: usize,
    core: TimingCore,
    /// Set while the member is a keyed bank's shadow lane: its core does
    /// not run, and its state is its leader's shifted.
    shadow: Option<Shadow>,
}

/// A shadow lane's leader: a running lane on the same timing axis whose
/// class has had the same block codes since, and the offset its state
/// stands at.
#[derive(Debug, Clone, Copy)]
struct Shadow {
    /// Index into the bank's members.
    leader: usize,
    /// The leader's class.
    class: usize,
    /// The shadow's cycles minus the leader's (wrapping).
    shift: u64,
}

/// How much timing work a bank has done, in (member, block) pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankWork {
    /// Member-blocks consumed: every member, shadow or not, per block.
    pub lane_blocks: u64,
    /// Member-blocks whose timing core ran: all of them, less the
    /// blocks keyed lanes spent as shadows.
    pub core_blocks: u64,
    /// Running keyed lanes that became shadows of an equivalent lane.
    pub merges: u64,
    /// Shadows whose codes diverged from their leader's, so their core
    /// took over the leader's live state.
    pub materializations: u64,
}

impl std::ops::AddAssign for BankWork {
    fn add_assign(&mut self, other: Self) {
        self.lane_blocks += other.lane_blocks;
        self.core_blocks += other.core_blocks;
        self.merges += other.merges;
        self.materializations += other.materializations;
    }
}

/// A keyed bank's hierarchies, one per cache-axis key, and the
/// partition of the keys into classes whose codes have agreed on every
/// block so far.
#[derive(Debug, Clone)]
struct Keyed {
    hierarchies: MissLevelBank,
    /// Index into the plan's register-file sizes (access events).
    size: usize,
    /// Each class's keys, ascending; the first is its representative.
    classes: Vec<Vec<usize>>,
    /// `lanes[class][lane]`: the member timing keyed lane `lane` on
    /// `class`'s codes.
    lanes: Vec<Vec<usize>>,
    /// The destination and source slots of up to the last `history` ops
    /// (in no particular order): every ready slot the last ROB's worth
    /// of ops of any lane can have written.
    recent: Vec<[u32; 4]>,
    /// Next `recent` entry to overwrite once it is full.
    recent_pos: usize,
    /// The largest lane ROB.
    history: usize,
    /// Per class this block: the lowest class with equal block codes.
    code_class: Vec<usize>,
    /// Per fill group this block: whether a running lane reads it.
    needed: Vec<bool>,
}

impl Keyed {
    /// The block codes of `class`'s representative.
    fn codes(&self, class: usize) -> &[u8] {
        self.hierarchies.codes(self.classes[class][0])
    }

    /// Remembers the block's destination and source slots, keeping the
    /// last `history` ops'.
    fn remember(&mut self, plan: &Plan) {
        let skip = plan.dst.len().saturating_sub(self.history);
        for (&dst, src) in plan.dst.iter().zip(&plan.src).skip(skip) {
            let slots = [dst, src[0], src[1], src[2]];
            if self.recent.len() < self.history {
                self.recent.push(slots);
            } else {
                self.recent[self.recent_pos] = slots;
                self.recent_pos = (self.recent_pos + 1) % self.history;
            }
        }
    }

    /// Decides, before any core runs the block, which lanes run it:
    /// materializes every shadow whose class's block codes differ from
    /// its leader's, then makes each running lane a shadow of the first
    /// running lane on its timing axis, in class order, whose class has
    /// the same block codes and whose state it equals shifted.
    fn shadow(&mut self, members: &mut [Member], work: &mut BankWork) {
        let window = !inject::active(inject::SHADOW_STALE);
        self.code_class.clear();
        for class in 0..self.classes.len() {
            let codes = self.codes(class);
            let same = (0..class).find(|&c| self.code_class[c] == c && self.codes(c) == codes);
            self.code_class.push(same.unwrap_or(class));
        }
        let slots = self.recent.as_flattened();
        for (class, lanes) in self.lanes.iter().enumerate() {
            for &m in lanes {
                let Some(s) = members[m].shadow else { continue };
                if self.code_class[s.class] == self.code_class[class] {
                    continue;
                }
                let (leader, member) = pair_mut(members, s.leader, m);
                member.core.materialize(&leader.core, s.shift, slots, window);
                member.shadow = None;
                work.materializations += 1;
            }
        }
        for class in 1..self.lanes.len() {
            for (axis, &m) in self.lanes[class].iter().enumerate() {
                if members[m].shadow.is_some() {
                    continue;
                }
                let merged = (0..class).find_map(|c| {
                    let l = self.lanes[c][axis];
                    if self.code_class[c] != self.code_class[class] || members[l].shadow.is_some() {
                        return None;
                    }
                    let shift = members[l].core.offset_of(&members[m].core, slots, window)?;
                    Some(Shadow { leader: l, class: c, shift })
                });
                let Some(shadow) = merged else { continue };
                members[m].shadow = Some(shadow);
                work.merges += 1;
                // The new shadow's own shadows follow it to its leader.
                for lanes in &self.lanes {
                    let follower = &mut members[lanes[axis]];
                    if let Some(s) = follower.shadow.as_mut().filter(|s| s.leader == m) {
                        *s = Shadow { shift: s.shift.wrapping_add(shadow.shift), ..shadow };
                    }
                }
            }
        }
    }

    /// The class `key` belongs to.
    fn class_of(&self, key: usize) -> usize {
        self.classes.iter().position(|keys| keys.contains(&key)).expect("a key of the bank")
    }

    /// Splits off, from every class, the keys whose block codes differ
    /// from its representative's. Keys that split from one class with
    /// equal codes stay together, as a new class whose representative is
    /// its lowest key. Returns `(parent, child)` per new class, in
    /// creation order.
    fn refine(&mut self) -> Vec<(usize, usize)> {
        let mut forks = Vec::new();
        for parent in 0..self.classes.len() {
            let keys = &self.classes[parent];
            let rep = self.hierarchies.codes(keys[0]);
            if keys[1..].iter().all(|&k| self.hierarchies.codes(k) == rep) {
                continue;
            }
            let mut stay = Vec::new();
            let mut split: Vec<Vec<usize>> = Vec::new();
            for &k in keys {
                let codes = self.hierarchies.codes(k);
                if codes == rep {
                    stay.push(k);
                } else if let Some(group) =
                    split.iter_mut().find(|g| self.hierarchies.codes(g[0]) == codes)
                {
                    group.push(k);
                } else {
                    split.push(vec![k]);
                }
            }
            self.classes[parent] = stay;
            for keys in split {
                forks.push((parent, self.classes.len()));
                self.classes.push(keys);
            }
        }
        forks
    }
}

/// `v[a]` and `v[b]` (distinct), the second mutably.
fn pair_mut<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    if a < b {
        let (head, tail) = v.split_at_mut(b);
        (&head[a], &mut tail[0])
    } else {
        let (head, tail) = v.split_at_mut(a);
        (&tail[0], &mut head[b])
    }
}

/// The index of the first element of `v` that is `same` as `item`,
/// after pushing `item` if there is none.
fn index_or_push<T>(v: &mut Vec<T>, item: T, same: impl Fn(&T, &T) -> bool) -> usize {
    match v.iter().position(|x| same(x, &item)) {
        Some(i) => i,
        None => {
            v.push(item);
            v.len() - 1
        }
    }
}

/// Trace-driven cycle-level models of several platforms off one decode
/// and one plan walk.
///
/// Per block the bank makes one register walk through a multi-size
/// register file (the plan's spill flags and access events per distinct
/// register-file size), one predictor walk per (if-conversion, predictor
/// kind) family, one flag column per (walk, size) pair and one latency
/// fill per fill group; each member then runs only its timing core.
/// Every member's result equals its own [`CycleSim`] replay, which is a
/// one-member bank.
#[derive(Debug, Clone)]
pub struct PlatformBank {
    plan: Plan,
    walks: Vec<PredictorWalk>,
    columns: Vec<FlagColumn>,
    groups: Vec<FillGroup>,
    members: Vec<Member>,
    keyed: Option<Box<Keyed>>,
    work: BankWork,
    /// Reused one-op block for per-op [`TraceConsumer::consume`].
    one: OpBlock,
}

impl PlatformBank {
    /// One member per platform, each with the paper's hybrid predictor
    /// and no prefetcher (panics like [`Self::with_predictors`]).
    pub fn new(platforms: &[PlatformConfig]) -> Self {
        Self::with_predictors(platforms.iter().map(|&p| (p, PredictorKind::Hybrid, Prefetcher::None)))
    }

    /// One live member per (platform, predictor family, prefetcher)
    /// triple, in order; each member's hierarchy is its own.
    ///
    /// # Panics
    ///
    /// If `members` is empty or spans more than 32 register-file
    /// capacities, or a platform fails the timing core's or the latency
    /// fill's bounds ([`MAX_WIDTH`](crate::MAX_WIDTH),
    /// [`MAX_LATENCY`](crate::MAX_LATENCY)).
    pub fn with_predictors(
        members: impl IntoIterator<Item = (PlatformConfig, PredictorKind, Prefetcher)>,
    ) -> Self {
        let members: Vec<(PlatformConfig, PredictorKind, Prefetcher)> = members.into_iter().collect();
        let regs: Vec<u32> = members.iter().map(|(cfg, ..)| cfg.logical_regs).collect();
        let modes: Vec<bool> = members.iter().map(|(cfg, ..)| cfg.if_conversion).collect();
        let mut bank = Self::planned(&regs, &modes);
        for (cfg, kind, prefetcher) in members {
            let hierarchy = cfg.hierarchy().with_prefetcher(prefetcher);
            bank.push(cfg, kind, Source::Live(Box::new(hierarchy)));
        }
        bank
    }

    /// An empty bank whose plan covers register files of `logical_regs`
    /// registers and the if-conversion `modes`.
    fn planned(logical_regs: &[u32], modes: &[bool]) -> Self {
        Self {
            plan: Plan::new(logical_regs, modes),
            walks: Vec::new(),
            columns: Vec::new(),
            groups: Vec::new(),
            members: Vec::new(),
            keyed: None,
            work: BankWork::default(),
            one: OpBlock::default(),
        }
    }

    /// Adds a member timing `cfg` with a `kind` predictor, its latencies
    /// from `source`. A live source is a fill group of its own; an
    /// annotated one joins the first fill group over an equal stream and
    /// latency table, or starts one. Walks and flag columns are shared
    /// by key.
    fn push(&mut self, cfg: PlatformConfig, kind: PredictorKind, source: Source) {
        let fill = LatencyFill::new(&cfg);
        let core = TimingCore::new(&cfg);
        let (size, mode) =
            (self.plan.size_index(cfg.logical_regs), self.plan.mode_index(cfg.if_conversion));
        let walk = index_or_push(&mut self.walks, PredictorWalk::new(kind, mode), |a, b| {
            (a.kind, a.mode) == (b.kind, b.mode)
        });
        let column =
            index_or_push(&mut self.columns, FlagColumn { walk, size, flags: Vec::new() }, |a, b| {
                (a.walk, a.size) == (b.walk, b.size)
            });
        let group =
            index_or_push(&mut self.groups, FillGroup { source, size, mode, fill }, FillGroup::shares_fill);
        self.members.push(Member { cfg, column, group, core, shadow: None });
    }

    /// An empty keyed bank over one register file and if-conversion
    /// mode: the bank runs `hierarchies` (one per cache-axis key, in key
    /// order) off each block's planned access events, and its keyed
    /// lanes ([`Self::push_keyed_lane`]) read the resulting miss-level
    /// codes. Keys whose codes have been equal on every block so far
    /// form a class, and each lane runs once per class: when a key's
    /// block codes differ from its class representative's (its lowest
    /// key), it splits off before any timing core runs the block, and
    /// the new class's lanes start as clones of the parent's cores, with
    /// fill groups of their own. The final classes are exactly the keys
    /// with equal whole code streams, compared code by code. With
    /// `key_streams` set the bank also keeps every key's whole stream,
    /// for [`Self::into_classes`].
    ///
    /// # Panics
    ///
    /// If `hierarchies` is empty.
    pub fn keyed(
        logical_regs: u32,
        if_conversion: bool,
        hierarchies: Vec<Hierarchy>,
        key_streams: bool,
    ) -> Self {
        assert!(!hierarchies.is_empty(), "a keyed bank needs at least one key");
        let keys = hierarchies.len();
        let hierarchies = MissLevelBank::new(hierarchies);
        let mut bank = Self::planned(&[logical_regs], &[if_conversion]);
        bank.keyed = Some(Box::new(Keyed {
            hierarchies: if key_streams { hierarchies } else { hierarchies.without_streams() },
            size: bank.plan.size_index(logical_regs),
            classes: vec![(0..keys).collect()],
            lanes: vec![Vec::new()],
            recent: Vec::new(),
            recent_pos: 0,
            history: 0,
            code_class: Vec::new(),
            needed: Vec::new(),
        }));
        bank
    }

    /// Adds a keyed lane timing `cfg` with a `kind` predictor on every
    /// key's codes; lanes are numbered in push order. Lanes with equal
    /// level latencies and latency tables share a fill.
    ///
    /// # Panics
    ///
    /// If the bank is not keyed, has consumed a block, or `cfg` has
    /// another register file or if-conversion mode than the bank's.
    pub fn push_keyed_lane(&mut self, cfg: &PlatformConfig, kind: PredictorKind) {
        let keyed = self.keyed.as_ref().expect("a keyed bank");
        assert_eq!(self.plan.instructions, 0, "keyed lanes join before the first block");
        let size = self.plan.size_index(cfg.logical_regs);
        assert_eq!(size, keyed.size, "lanes share the register file");
        assert_eq!(self.plan.mode_index(cfg.if_conversion), 0, "lanes share if-conversion");
        self.push(*cfg, kind, Source::Keyed { class: 0, lat: level_latencies(cfg) });
        let member = self.members.len() - 1;
        let keyed = self.keyed.as_mut().expect("a keyed bank");
        keyed.lanes[0].push(member);
        keyed.history = keyed.history.max(cfg.rob_size);
    }

    /// Keyed lane `lane`'s result on key `key`'s codes, with the key's
    /// hierarchy stats.
    pub fn key_result(&self, lane: usize, key: usize) -> SimResult {
        let keyed = self.keyed.as_ref().expect("a keyed bank");
        let member = keyed.lanes[keyed.class_of(key)][lane];
        SimResult { cache: self.key_stats(key), ..self.result(member) }
    }

    /// Key `key`'s hierarchy stats so far.
    pub fn key_stats(&self, key: usize) -> HierarchyStats {
        self.keyed.as_ref().expect("a keyed bank").hierarchies.stats(key)
    }

    /// Key classes so far: keys whose codes have agreed on every block.
    pub fn key_classes(&self) -> &[Vec<usize>] {
        &self.keyed.as_ref().expect("a keyed bank").classes
    }

    /// Tears a keyed bank down into each class's keys (ascending) and its
    /// representative's whole miss-level stream (empty unless built with
    /// `key_streams`), in class order.
    pub fn into_classes(self) -> Vec<(Vec<usize>, AnnotationStream)> {
        let keyed = self.keyed.expect("a keyed bank");
        let mut streams: Vec<Option<AnnotationStream>> =
            keyed.hierarchies.finish().into_iter().map(|(_, stream)| Some(stream)).collect();
        keyed
            .classes
            .into_iter()
            .map(|keys| {
                let stream = streams[keys[0]].take().expect("one class per representative");
                (keys, stream)
            })
            .collect()
    }

    /// Switches on event-metric collection in every member (see
    /// [`CycleSim::with_metrics`]).
    pub fn with_metrics(mut self) -> Self {
        for m in &mut self.members {
            m.core.metrics_on = true;
        }
        self.map_hierarchies(Hierarchy::with_metrics)
    }

    fn map_hierarchies(mut self, f: impl Fn(Hierarchy) -> Hierarchy) -> Self {
        self.groups = self
            .groups
            .into_iter()
            .map(|mut g| {
                if let Source::Live(h) = g.source {
                    g.source = Source::Live(Box::new(f(*h)));
                }
                g
            })
            .collect();
        self
    }

    /// Members in the bank.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bank has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member `i`'s running result. `SimResult::cache` is zeroed for an
    /// annotated or keyed member: the cache pass that produced its
    /// stream, or the key ([`Self::key_result`]), owns the hierarchy
    /// stats.
    pub fn result(&self, i: usize) -> SimResult {
        let m = &self.members[i];
        let column = &self.columns[m.column];
        let size = &self.plan.sizes[column.size];
        let walk = &self.walks[column.walk];
        let cycles = match m.shadow {
            Some(s) => self.members[s.leader].core.cycles().wrapping_add(s.shift),
            None => m.core.cycles(),
        };
        SimResult {
            cycles,
            instructions: self.plan.instructions,
            branches: self.plan.modes[walk.mode].branches,
            mispredicts: walk.mispredicts,
            spill_stores: size.spill_stores,
            spill_reloads: size.spill_reloads,
            cache: match &self.groups[m.group].source {
                Source::Live(hierarchy) => *hierarchy.stats(),
                Source::Annotated { .. } | Source::Keyed { .. } => HierarchyStats::default(),
            },
        }
    }

    /// Every member's result, in construction order.
    pub fn results(&self) -> Vec<SimResult> {
        (0..self.len()).map(|i| self.result(i)).collect()
    }

    /// The timing work done so far.
    pub fn work(&self) -> BankWork {
        self.work
    }

    /// Takes member `i`'s event metrics — pipeline events under `pipe/`,
    /// cache events under `cache/` — leaving collection in its current
    /// mode. Empty when collection is off.
    pub fn take_metrics(&mut self, i: usize) -> MetricSet {
        let m = &mut self.members[i];
        let mut out = MetricSet::new();
        out.merge_prefixed("pipe/", &m.core.take_metrics());
        if let Source::Live(hierarchy) = &mut self.groups[m.group].source {
            out.merge_prefixed("cache/", &hierarchy.take_metrics());
        }
        out
    }
}

impl TraceConsumer for PlatformBank {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        let mut one = std::mem::take(&mut self.one);
        one.fill_one(op);
        self.consume_block(&one, program);
        self.one = one;
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        let Self { plan, walks, columns, groups, members, keyed, work, .. } = self;
        plan.block(block);
        for walk in walks.iter_mut() {
            walk.walk(plan);
        }
        for c in columns.iter_mut() {
            walks[c.walk].flags(&plan.sizes[c.size].flags, &mut c.flags);
        }
        // Shadows stand in for lanes only when no member records events
        // (a shadow's events would never happen), and only over issue
        // rings that hold every live cycle: an armed `issue-ring-alias`
        // fault's fixed ring can hold fewer than a materialization
        // copies.
        let shadows = members.iter().all(|m| !m.core.metrics_on && m.core.timeline.is_none())
            && !inject::active(inject::ISSUE_ALIAS);
        // An armed `refine-stale-fork` fault forks after the cores ran
        // the block, so a forked lane keeps its parent's timing of it.
        let stale = inject::active(inject::REFINE_STALE);
        if let Some(keyed) = keyed.as_deref_mut() {
            let size = &plan.sizes[keyed.size];
            keyed.hierarchies.access_run(&size.acc_addr, &size.acc_load);
            if !stale {
                fork(keyed, groups, members, shadows);
            }
            if shadows {
                keyed.shadow(members, work);
            }
            keyed.needed.clear();
            keyed.needed.resize(groups.len(), false);
            for m in members.iter().filter(|m| m.shadow.is_none()) {
                keyed.needed[m.group] = true;
            }
        }
        // Hierarchies, predictors and timing cores are independent, so
        // all of the block's fills and then all of its cores keep each
        // structure's exact update order. A keyed fill no running lane
        // reads is skipped: it reads the codes and advances nothing.
        for (i, g) in groups.iter_mut().enumerate() {
            if keyed.as_ref().is_none_or(|k| k.needed[i]) {
                g.load(block.kind_codes(), plan, keyed.as_deref());
            }
        }
        work.lane_blocks += members.len() as u64;
        for m in members.iter_mut().filter(|m| m.shadow.is_none()) {
            let flags = &columns[m.column].flags;
            m.core.run_block(plan, flags, &groups[m.group].fill, block.ops());
            work.core_blocks += 1;
        }
        if let Some(keyed) = keyed.as_deref_mut() {
            if stale {
                fork(keyed, groups, members, shadows);
            }
            keyed.remember(plan);
        }
    }
}

/// Refines `keyed`'s classes on the block's codes and gives each new
/// class a lane per lane of its parent, reading a clone of the parent
/// lane's fill group retargeted to the new class. With `shadows` the
/// lane is a fresh core shadowing the parent lane (or the parent lane's
/// leader), so it costs no core copy unless its codes diverge; without,
/// it is a clone of the parent lane's member, timing core as it stands.
fn fork(keyed: &mut Keyed, groups: &mut Vec<FillGroup>, members: &mut Vec<Member>, shadows: bool) {
    for (parent, child) in keyed.refine() {
        // Parent group → its clone for `child`.
        let mut cloned: Vec<(usize, usize)> = Vec::new();
        let lanes = keyed.lanes[parent]
            .iter()
            .map(|&m| {
                let parent_group = members[m].group;
                let group = match cloned.iter().find(|&&(from, _)| from == parent_group) {
                    Some(&(_, to)) => to,
                    None => {
                        let mut group = groups[parent_group].clone();
                        if let Source::Keyed { class, .. } = &mut group.source {
                            *class = child;
                        }
                        groups.push(group);
                        cloned.push((parent_group, groups.len() - 1));
                        groups.len() - 1
                    }
                };
                let lane = &members[m];
                let member = if shadows {
                    let shadow = lane.shadow.unwrap_or(Shadow { leader: m, class: parent, shift: 0 });
                    let core = TimingCore::new(&lane.cfg);
                    Member { group, core, shadow: Some(shadow), ..*lane }
                } else {
                    Member { group, ..lane.clone() }
                };
                members.push(member);
                members.len() - 1
            })
            .collect();
        keyed.lanes.push(lanes);
    }
}

/// Trace-driven cycle-level model of one platform: a one-member
/// [`PlatformBank`].
///
/// Plug it into a [`Tape`](bioperf_trace::Tape) (or feed it ops directly
/// via [`TraceConsumer`]) and read the final [`SimResult`].
#[derive(Debug, Clone)]
pub struct CycleSim {
    bank: PlatformBank,
}

impl CycleSim {
    /// Creates a simulator for one platform.
    pub fn new(cfg: PlatformConfig) -> Self {
        Self { bank: PlatformBank::new(&[cfg]) }
    }

    /// Switches on event-metric collection: per-op dispatch-to-complete
    /// latency histograms in the pipeline plus the cache hierarchy's
    /// service counters. Off by default; the timing core then runs a
    /// loop with no instrumentation in it (the metrics layer's
    /// zero-cost-when-off contract).
    pub fn with_metrics(self) -> Self {
        Self { bank: self.bank.with_metrics() }
    }

    /// Takes the collected event metrics — pipeline events under `pipe/`,
    /// cache events under `cache/` — leaving collection in its current
    /// mode. Empty when collection is off.
    pub fn take_metrics(&mut self) -> MetricSet {
        self.bank.take_metrics(0)
    }

    /// Swaps in a branch predictor of the given family. The default is
    /// the paper's idealized per-static-branch hybrid
    /// ([`PredictorKind::Hybrid`]); design-space sweep cells select other
    /// families per configuration.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.bank.walks[0] = PredictorWalk::new(kind, 0);
        self
    }

    /// Installs a hardware prefetcher in the cache hierarchy. The default
    /// is [`Prefetcher::None`] — the paper's baseline machines do not
    /// prefetch.
    pub fn with_prefetcher(self, policy: Prefetcher) -> Self {
        Self { bank: self.bank.map_hierarchies(|h| h.with_prefetcher(policy)) }
    }

    /// Enables per-op timeline recording (capped at 65 536 ops). Use for
    /// short pedagogical traces like the Figure 3/4 walkthrough.
    pub fn with_timeline(mut self) -> Self {
        self.bank.members[0].core.timeline = Some(Vec::new());
        self
    }

    /// The recorded timeline, if enabled.
    pub fn timeline(&self) -> Option<&[OpTiming]> {
        self.bank.members[0].core.timeline.as_deref()
    }

    /// The platform being simulated.
    pub fn config(&self) -> &PlatformConfig {
        &self.bank.members[0].cfg
    }

    /// Finalizes and returns the simulation result.
    pub fn into_result(self) -> SimResult {
        self.result()
    }

    /// Running result snapshot (cheap; caches copied).
    pub fn result(&self) -> SimResult {
        self.bank.result(0)
    }
}

impl TraceConsumer for CycleSim {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        self.bank.consume(op, program);
    }

    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        self.bank.consume_block(block, program);
    }
}

/// The factored sweep's later timing passes: a [`PlatformBank`] of
/// annotated members, one per sweep timing configuration ("lane").
///
/// A lane's access latencies come from a cache pass's miss-level
/// stream ([`CachePassSim`](crate::CachePassSim)) converted through the
/// lane's own latency table, so lanes on one stream with one table
/// share a fill, and the register/spill plan and each predictor family
/// run once for every lane. Every lane's result equals a live
/// [`CycleSim`] replay with the lane's cache geometry and timing
/// configuration, `SimResult::cache` aside.
///
/// All lanes must share the platform's `logical_regs` and
/// `if_conversion` (true of every sweep grid cell — both come from the
/// base platform, not the swept axes); [`Self::push_lane`] panics
/// otherwise.
#[derive(Debug)]
pub struct TimingBank {
    logical_regs: u32,
    if_conversion: bool,
    bank: PlatformBank,
}

impl TimingBank {
    /// An empty bank over the shared platform invariants.
    pub fn new(logical_regs: u32, if_conversion: bool) -> Self {
        Self { logical_regs, if_conversion, bank: PlatformBank::planned(&[logical_regs], &[if_conversion]) }
    }

    /// Adds one timing configuration: a platform shape, a predictor
    /// family, and its precomputed miss-level stream. The lane joins the
    /// first fill group with the same stream and latency table, or
    /// starts a new one.
    pub fn push_lane(
        &mut self,
        cfg: &PlatformConfig,
        pred: PredictorKind,
        stream: Arc<AnnotationStream>,
    ) {
        assert_eq!(cfg.logical_regs, self.logical_regs, "lanes must share the register file");
        assert_eq!(cfg.if_conversion, self.if_conversion, "lanes must share if-conversion");
        self.bank.push(*cfg, pred, Source::annotated(cfg, stream));
    }

    /// Lanes pushed so far.
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// Distinct latency fills per block: lanes sharing an annotation
    /// stream and a latency table share one.
    pub fn fill_groups(&self) -> usize {
        self.bank.groups.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.bank.is_empty()
    }

    /// Final per-lane results, in push order. `SimResult::cache` is
    /// zeroed: the cache pass that produced the streams owns the
    /// hierarchy stats.
    pub fn into_results(self) -> Vec<SimResult> {
        self.bank.results()
    }
}

impl TraceConsumer for TimingBank {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        self.bank.consume(op, program);
    }

    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        self.bank.consume_block(block, program);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::annotate::CachePassSim;
    use bioperf_isa::here;
    use bioperf_trace::{Recorder, Recording, Tape, Tracer};

    /// Enough live temporaries to force Pentium 4 spills, plus random
    /// branches and selects, FP traffic, and strided loads and stores.
    pub(crate) fn spill_heavy_recording() -> Recording {
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 3).collect();
        let mut state = 0xFEED_F00Du64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            let temps: Vec<_> =
                (0..12).map(|i| tape.int_load(here!("t"), &xs[(r * 7 + i) % 512])).collect();
            let mut acc = tape.lit();
            for v in &temps {
                acc = tape.int_op(here!("t"), &[acc, *v]);
            }
            let sel = tape.select(here!("t"), &[acc], rand_bit());
            tape.branch(here!("t"), &[sel], rand_bit());
            let f = tape.fp_load(here!("t"), &xs[r % 512]);
            let g = tape.fp_op(here!("t"), &[f]);
            tape.fp_store(here!("t"), &xs[(r * 13) % 512], g);
        }
        let (program, rec) = tape.finish();
        rec.into_recording(program)
    }

    fn sim(cfg: PlatformConfig, f: impl FnOnce(&mut Tape<CycleSim>)) -> SimResult {
        let mut tape = Tape::new(CycleSim::new(cfg));
        f(&mut tape);
        let (_, sim) = tape.finish();
        sim.into_result()
    }

    /// A dependent chain of ALU ops costs ~1 cycle each; independent ops
    /// pack `issue_width` per cycle.
    #[test]
    fn dependent_chain_vs_independent_ops() {
        let n = 10_000;
        let dep = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.lit();
            for _ in 0..n {
                v = t.int_op(here!("chain"), &[v]);
            }
        });
        let indep = sim(PlatformConfig::alpha21264(), |t| {
            let a = t.lit();
            for _ in 0..n {
                t.int_op(here!("indep"), &[a]);
            }
        });
        assert!(dep.cycles > (n as u64) * 9 / 10, "chain must serialize: {}", dep.cycles);
        assert!(
            indep.cycles < dep.cycles / 2,
            "independent ops must overlap: {} vs {}",
            indep.cycles,
            dep.cycles
        );
    }

    /// An L1-resident pointer chase costs the load-to-use latency per hop.
    #[test]
    fn load_latency_shows_on_dependent_loads() {
        let cell = 42u64;
        let n = 5_000u64;
        let alpha = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.int_load(here!("chase"), &cell);
            for _ in 0..n {
                v = t.int_load_via(here!("chase"), &cell, v);
            }
        });
        // 3 cycles per hop on Alpha.
        assert!(alpha.cycles > n * 5 / 2, "expected ~3 cycles/hop, got {} total", alpha.cycles);

        let ipf = sim(PlatformConfig::itanium2(), |t| {
            let mut v = t.int_load(here!("chase"), &cell);
            for _ in 0..n {
                v = t.int_load_via(here!("chase"), &cell, v);
            }
        });
        assert!(ipf.cycles < alpha.cycles, "1-cycle L1 must beat 3-cycle L1");
    }

    /// Random branches get mispredicted and cost the redirect penalty.
    #[test]
    fn mispredicted_branches_dominate_random_control_flow() {
        // L1-resident working set so branch effects are not masked by
        // memory misses; LCG outcomes so the history predictor cannot
        // learn the pattern.
        let xs: Vec<u64> = (0..64).collect();
        let mut state = 0x1234_5678u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let predictable = sim(PlatformConfig::alpha21264(), |t| {
            for i in 0..4000usize {
                let v = t.int_load(here!("pred"), &xs[i % 64]);
                t.branch(here!("pred"), &[v], true);
            }
        });
        let random = sim(PlatformConfig::alpha21264(), |t| {
            for i in 0..4000usize {
                let v = t.int_load(here!("rand"), &xs[i % 64]);
                t.branch(here!("rand"), &[v], rand_bit());
            }
        });
        assert!(
            random.cycles > predictable.cycles * 2,
            "random {} vs predictable {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.mispredict_rate() > 0.3);
        assert!(predictable.mispredict_rate() < 0.02);
    }

    /// The paper's central mechanism: a load feeding a mispredicted
    /// branch delays its resolution, inflating the effective penalty.
    /// Hoisting the load (making the branch input ready earlier) must
    /// recover cycles even though the branch stays unpredictable.
    #[test]
    fn load_to_branch_latency_adds_to_mispredict_cost() {
        let xs: Vec<u64> = (0..4000).collect();
        // Baseline: branch condition comes straight from a fresh load.
        let tight = sim(PlatformConfig::alpha21264(), |t| {
            for (i, x) in xs.iter().enumerate() {
                let v = t.int_load(here!("tight"), x);
                let c = t.int_op(here!("tight"), &[v]);
                t.branch(here!("tight"), &[c], i % 3 == 0);
            }
        });
        // Hoisted: the load for the *next* branch issues one iteration
        // early, so the compare's input is ready when the branch arrives.
        let hoisted = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.int_load(here!("hoist"), &xs[0]);
            for (i, _) in xs.iter().enumerate().take(xs.len() - 1) {
                let next = t.int_load(here!("hoist"), &xs[i + 1]);
                let c = t.int_op(here!("hoist"), &[v]);
                t.branch(here!("hoist"), &[c], i % 3 == 0);
                v = next;
            }
        });
        assert!(
            hoisted.cycles < tight.cycles,
            "hoisting must help: {} vs {}",
            hoisted.cycles,
            tight.cycles
        );
    }

    /// Register pressure: with only 8 logical registers, keeping many
    /// values live inserts spill traffic; with 128 it does not.
    #[test]
    fn register_pressure_spills_on_pentium4_only() {
        let work = |t: &mut Tape<CycleSim>| {
            let xs = vec![7u64; 64];
            for _ in 0..200 {
                // 16 simultaneously-live temporaries.
                let temps: Vec<_> = (0..16).map(|i| t.int_load(here!("temps"), &xs[i])).collect();
                let mut acc = t.lit();
                for v in &temps {
                    acc = t.int_op(here!("temps"), &[acc, *v]);
                }
            }
        };
        let p4 = sim(PlatformConfig::pentium4(), work);
        let ipf = sim(PlatformConfig::itanium2(), work);
        assert!(p4.spill_reloads > 0, "P4 must spill");
        assert_eq!(ipf.spill_reloads, 0, "128 registers never spill here");
    }

    /// In-order issue serializes behind a stalled elder; out-of-order
    /// does not.
    #[test]
    fn in_order_exposes_stalls_more() {
        let work = |t: &mut Tape<CycleSim>| {
            let cell = 3u64;
            for _ in 0..2000 {
                let v = t.int_load(here!("io"), &cell);
                let w = t.int_op(here!("io"), &[v]); // dependent: waits for load
                let _ = t.int_op(here!("io"), &[w]);
                // Independent work that OOO can slide under the load.
                let a = t.lit();
                for _ in 0..3 {
                    t.int_op(here!("io"), &[a]);
                }
            }
        };
        let mut ooo_cfg = PlatformConfig::alpha21264();
        ooo_cfg.int_load_latency = 3;
        let ooo = sim(ooo_cfg, work);
        let mut io_cfg = PlatformConfig::alpha21264();
        io_cfg.in_order = true;
        let io = sim(io_cfg, work);
        assert!(io.cycles >= ooo.cycles, "in-order {} vs ooo {}", io.cycles, ooo.cycles);
    }

    /// Block size must never change a result: per-op `consume` (one-op
    /// blocks built by `fill_one`) and decoded blocks of odd sizes, whose
    /// edges fall mid-spill-sequence, must leave identical state —
    /// including spill counters and cache stats, on both in-order and
    /// out-of-order cores.
    #[test]
    fn blocked_replay_matches_per_op_replay() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
        for cfg in PlatformConfig::all() {
            let mut per_op = CycleSim::new(cfg);
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            let reference = per_op.into_result();
            for block_ops in [1usize, 3, 64, 4096] {
                let mut blocked = CycleSim::new(cfg);
                recording.replay_bank_blocks(std::slice::from_mut(&mut blocked), block_ops);
                assert_eq!(
                    blocked.into_result(),
                    reference,
                    "{} diverged at {}-op blocks",
                    cfg.name,
                    block_ops
                );
            }
        }
    }

    /// Sharing the plan, the predictor walks and the flag columns never
    /// changes a member:
    /// every member of a bank — the four presets; duplicate platforms;
    /// mixed predictor kinds and if-conversion modes over every register
    /// size; each preset under each prefetcher — equals its own
    /// `CycleSim` replay, results and event series, at every block size
    /// and through per-op `consume`, with metrics off (the
    /// uninstrumented core loop) and on.
    #[test]
    fn platform_bank_members_match_independent_cyclesims() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
        let presets = PlatformConfig::all();
        let kinds = [PredictorKind::Hybrid, PredictorKind::Bimodal, PredictorKind::Aliased];
        let hybrid = |p: &PlatformConfig| (*p, PredictorKind::Hybrid, Prefetcher::None);
        let mut mixed: Vec<(PlatformConfig, PredictorKind, Prefetcher)> = Vec::new();
        let mut prefetching = Vec::new();
        for (i, p) in presets.iter().enumerate() {
            let mut flipped = *p;
            flipped.if_conversion = !p.if_conversion;
            mixed.push((*p, kinds[i % 3], Prefetcher::None));
            mixed.push((flipped, kinds[(i + 1) % 3], Prefetcher::None));
            for prefetcher in [Prefetcher::None, Prefetcher::NextLine, Prefetcher::Stride] {
                prefetching.push((*p, PredictorKind::Hybrid, prefetcher));
            }
        }
        let banks = [
            ("presets", presets.iter().map(hybrid).collect(), [3, 2, 4]),
            ("duplicates", [0, 2, 0, 2, 2].iter().map(|&i| hybrid(&presets[i])).collect(), [2, 2, 2]),
            ("mixed", mixed, [3, 4, 7]),
            ("prefetchers", prefetching, [3, 2, 4]),
        ];
        for (name, members, shared) in banks {
            for metrics in [false, true] {
                let solo: Vec<(SimResult, MetricSet)> = members
                    .iter()
                    .map(|&(cfg, kind, prefetcher)| {
                        let sim = CycleSim::new(cfg).with_predictor(kind).with_prefetcher(prefetcher);
                        let mut sim = if metrics { sim.with_metrics() } else { sim };
                        recording.replay_bank(std::slice::from_mut(&mut sim));
                        (sim.result(), sim.take_metrics())
                    })
                    .collect();
                if name == "prefetchers" {
                    // Each prefetcher changes what the hierarchy sees, so
                    // a bank that dropped one could not pass.
                    for trio in solo.chunks(3) {
                        let [none, next, stride] = [0, 1, 2].map(|i| trio[i].0.cache);
                        assert!(none != next && none != stride && next != stride, "{name}");
                    }
                }
                let new_bank = || {
                    let bank = PlatformBank::with_predictors(members.iter().copied());
                    if metrics { bank.with_metrics() } else { bank }
                };
                let check = |mut bank: PlatformBank, path: &str| {
                    let counts = [bank.plan.sizes.len(), bank.walks.len(), bank.columns.len()];
                    assert_eq!(counts, shared, "{name}: sizes, walks, flag columns");
                    for (i, expected) in solo.iter().enumerate() {
                        let got = (bank.result(i), bank.take_metrics(i));
                        assert_eq!(&got, expected, "{name} member {i} ({path}, metrics {metrics})");
                    }
                };
                for block_ops in [1usize, 3, 64, 4096] {
                    let mut bank = new_bank();
                    recording.replay_bank_blocks(std::slice::from_mut(&mut bank), block_ops);
                    check(bank, &format!("{block_ops}-op blocks"));
                }
                let mut bank = new_bank();
                for op in recording.iter() {
                    bank.consume(&op, &program);
                }
                check(bank, "per-op");
            }
        }
    }

    /// The factored engine: a cache pass's annotation stream feeding a
    /// one-lane `TimingBank` must reproduce a live `CycleSim` exactly —
    /// cycles and counters from the bank, hierarchy stats from the pass —
    /// blocked and per-op, on every platform.
    #[test]
    fn annotated_replay_matches_live_hierarchy_replay() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
        for cfg in PlatformConfig::all() {
            let mut live = CycleSim::new(cfg);
            recording.replay_bank(std::slice::from_mut(&mut live));
            let reference = live.into_result();

            let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let (stats, stream) = pass.finish_bank().pop().expect("one member");
            assert_eq!(stats, reference.cache, "{} cache pass stats", cfg.name);
            let stream = Arc::new(stream);
            let bank = || {
                let mut bank = TimingBank::new(cfg.logical_regs, cfg.if_conversion);
                bank.push_lane(&cfg, PredictorKind::Hybrid, stream.clone());
                bank
            };

            let mut blocked = bank();
            recording.replay_bank(std::slice::from_mut(&mut blocked));
            let mut per_op = bank();
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            for (path, lane) in [("blocked", blocked), ("per-op", per_op)] {
                let got = SimResult { cache: stats, ..lane.into_results()[0] };
                assert_eq!(got, reference, "{} {path} annotated lane", cfg.name);
            }
        }
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let r = sim(PlatformConfig::alpha21264(), |_| {});
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn event_metrics_do_not_perturb_timing() {
        let work = |t: &mut Tape<CycleSim>| {
            let cell = 9u64;
            for i in 0..2000 {
                let v = t.int_load(here!("m"), &cell);
                let c = t.int_op(here!("m"), &[v]);
                t.branch(here!("m"), &[c], i % 7 == 0);
            }
        };
        let plain = sim(PlatformConfig::alpha21264(), work);
        let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()).with_metrics());
        work(&mut tape);
        let (_, mut instrumented) = tape.finish();
        let m = instrumented.take_metrics();
        let r = instrumented.into_result();
        assert_eq!(r, plain, "metrics collection must not change the simulation");
        let lat = m.histogram("pipe/op_latency_cycles").expect("op latency histogram");
        assert_eq!(lat.count(), r.instructions);
        assert_eq!(m.counter("pipe/mispredict_redirects"), Some(r.mispredicts));
        let serviced = m.counter("cache/serviced_l1").unwrap_or(0)
            + m.counter("cache/serviced_l2").unwrap_or(0)
            + m.counter("cache/serviced_memory").unwrap_or(0);
        assert_eq!(serviced, r.cache.l1.load_accesses + r.cache.l1.store_accesses);
        // And a plain simulator yields no metrics at all.
        let mut off = CycleSim::new(PlatformConfig::alpha21264());
        assert!(off.take_metrics().is_empty());
    }

    /// One timing-axis variant of a base platform (latency triple, pipe
    /// shape), as the sweep derives it.
    fn variant(
        base: PlatformConfig,
        (l1, l2, mem): (u64, u64, u64),
        (width, rob): (u32, usize),
    ) -> PlatformConfig {
        let mut cfg = base;
        cfg.int_load_latency = l1;
        cfg.fp_load_latency = l1 + 1;
        cfg.l2_latency = l2;
        cfg.memory_latency = mem;
        cfg.issue_width = width;
        cfg.fetch_width = width;
        cfg.rob_size = rob;
        cfg
    }

    fn variants(base: PlatformConfig) -> Vec<PlatformConfig> {
        let mut v = Vec::new();
        for lat in [(3, 8, 72), (2, 5, 60)] {
            for pipe in [(2u32, 32usize), (6, 128)] {
                v.push(variant(base, lat, pipe));
            }
        }
        v
    }

    /// The `sweep-timing` benchmark's 24 timing cells in grid order
    /// (latency outermost, then pipe shape, then predictor).
    fn sweep_timing_lanes(base: PlatformConfig) -> Vec<(PlatformConfig, PredictorKind)> {
        let mut v = Vec::new();
        for lat in [(1, 3, 40), (3, 5, 72), (4, 8, 100)] {
            for pipe in [(2u32, 32usize), (4, 80), (6, 128), (8, 192)] {
                for pred in [PredictorKind::Hybrid, PredictorKind::Bimodal] {
                    v.push((variant(base, lat, pipe), pred));
                }
            }
        }
        v
    }

    /// The miss-level stream of `cfg`'s hierarchy over `recording`.
    fn annotations(
        recording: &Recording,
        cfg: &PlatformConfig,
    ) -> Arc<AnnotationStream> {
        let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
        recording.replay_bank(std::slice::from_mut(&mut pass));
        Arc::new(pass.finish_bank().pop().expect("one member").1)
    }

    /// A live `CycleSim` replay of `cfg` with predictor `pred`, with the
    /// cache stats a bank lane leaves zeroed.
    fn live(
        recording: &Recording,
        cfg: PlatformConfig,
        pred: PredictorKind,
    ) -> SimResult {
        let mut sim = CycleSim::new(cfg).with_predictor(pred);
        recording.replay_bank(std::slice::from_mut(&mut sim));
        SimResult { cache: HierarchyStats::default(), ..sim.into_result() }
    }

    /// Every lane of a heterogeneous bank (mixed latencies, pipe shapes,
    /// predictor families, and cache geometries) must reproduce a live
    /// `CycleSim` with the lane's geometry and timing configuration —
    /// which also pins the cache pass's annotations to the live
    /// hierarchy.
    #[test]
    fn bank_lanes_match_independent_live_cyclesims() {
        let recording = spill_heavy_recording();
        for base in PlatformConfig::all() {
            let mut alt = base;
            alt.l1 = PlatformConfig::pentium4().l1;
            let geometries = [base, alt];
            let mut pass = CachePassSim::new(
                base.logical_regs,
                geometries.iter().map(PlatformConfig::hierarchy).collect(),
            );
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let streams: Vec<Arc<AnnotationStream>> =
                pass.finish_bank().into_iter().map(|(_, s)| Arc::new(s)).collect();

            let preds = [PredictorKind::Hybrid, PredictorKind::Bimodal, PredictorKind::Aliased];
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            let mut expected = Vec::new();
            for (i, mut cfg) in variants(base).into_iter().enumerate() {
                let pred = preds[i % preds.len()];
                let g = i % geometries.len();
                bank.push_lane(&cfg, pred, streams[g].clone());
                cfg.l1 = geometries[g].l1;
                expected.push(live(&recording, cfg, pred));
            }
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let got = bank.into_results();
            assert_eq!(got, expected, "{}: banked timing lanes diverged", base.name);
        }
    }

    /// Lanes that share one fill — the same stream, or an equal stream
    /// in its own `Arc`, under the same latency table — but differ in
    /// pipe shape and predictor, next to a lane that differs only in its
    /// latency triple: every lane must still equal its live `CycleSim`.
    #[test]
    fn lanes_sharing_a_fill_match_live_cyclesims() {
        let recording = spill_heavy_recording();
        for base in PlatformConfig::all() {
            let stream = annotations(&recording, &base);
            let twin = Arc::new(AnnotationStream::clone(&stream));
            let lat = (base.int_load_latency, base.l2_latency, base.memory_latency);
            let slower = (lat.0 + 1, lat.1, lat.2);
            let lanes = [
                (variant(base, lat, (2, 32)), PredictorKind::Hybrid, &stream),
                (variant(base, lat, (6, 128)), PredictorKind::Bimodal, &stream),
                (variant(base, lat, (4, 80)), PredictorKind::Aliased, &twin),
                (variant(base, slower, (2, 32)), PredictorKind::Hybrid, &stream),
            ];
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for (cfg, pred, stream) in &lanes {
                bank.push_lane(cfg, *pred, Arc::clone(stream));
            }
            assert_eq!(bank.fill_groups(), 2, "{}: three lanes share one fill", base.name);
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let expected: Vec<SimResult> =
                lanes.iter().map(|&(cfg, pred, _)| live(&recording, cfg, pred)).collect();
            assert_eq!(bank.into_results(), expected, "{}: shared-fill lanes diverged", base.name);
        }
    }

    /// How lanes are split into banks never changes a lane's result: one
    /// bank, one-lane banks, and a shuffled uneven split agree.
    #[test]
    fn results_do_not_depend_on_bank_partition() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::pentium4();
        let mut alt = base;
        alt.l1 = PlatformConfig::alpha21264().l1;
        let streams = [annotations(&recording, &base), annotations(&recording, &alt)];
        let lanes = sweep_timing_lanes(base);
        let run = |idx: &[usize]| {
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for &i in idx {
                bank.push_lane(&lanes[i].0, lanes[i].1, Arc::clone(&streams[i % 2]));
            }
            recording.replay_bank(std::slice::from_mut(&mut bank));
            bank.into_results()
        };
        let all: Vec<usize> = (0..lanes.len()).collect();
        let whole = run(&all);
        let singles: Vec<SimResult> = all.iter().flat_map(|&i| run(&[i])).collect();
        assert_eq!(singles, whole, "one-lane banks diverged from one bank");

        let mut order = all.clone();
        let mut state = 0x5EED_u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut split = vec![None; lanes.len()];
        for part in [&order[..5], &order[5..16], &order[16..]] {
            for (&i, r) in part.iter().zip(run(part)) {
                split[i] = Some(r);
            }
        }
        let split: Vec<SimResult> = split.into_iter().map(|r| r.expect("every lane ran")).collect();
        assert_eq!(split, whole, "a shuffled split diverged from one bank");
    }

    /// The sweep-timing grid's 24 lanes on one stream need one fill per
    /// latency triple, not one per lane.
    #[test]
    fn sweep_timing_lanes_form_one_fill_group_per_latency_triple() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::alpha21264();
        let stream = annotations(&recording, &base);
        let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
        for (cfg, pred) in sweep_timing_lanes(base) {
            bank.push_lane(&cfg, pred, Arc::clone(&stream));
        }
        assert_eq!(bank.len(), 24);
        assert_eq!(bank.fill_groups(), 3);
    }

    /// Keyed-bank keys over `base`: its own geometry twice (never
    /// diverge), a 1 KB L1 without and with a next-line prefetcher
    /// (diverge mid-trace, once the base L1 is warm) and the base L1
    /// over a 64 KB L2.
    fn keyed_geometries(base: PlatformConfig) -> Vec<(PlatformConfig, Prefetcher)> {
        let mut tiny = base;
        tiny.l1 = bioperf_cache::CacheConfig::new(1024, 2, base.l1.block_bytes);
        let mut small_l2 = base;
        small_l2.l2 = bioperf_cache::CacheConfig::new(64 * 1024, 1, base.l2.block_bytes);
        vec![
            (base, Prefetcher::None),
            (tiny, Prefetcher::None),
            (base, Prefetcher::None),
            (tiny, Prefetcher::NextLine),
            (small_l2, Prefetcher::None),
        ]
    }

    fn key_hierarchies(keys: &[(PlatformConfig, Prefetcher)]) -> Vec<Hierarchy> {
        keys.iter().map(|(geometry, pf)| geometry.hierarchy().with_prefetcher(*pf)).collect()
    }

    /// Each key's whole miss-level stream, from a cache pass.
    fn key_streams(
        recording: &Recording,
        base: &PlatformConfig,
        keys: &[(PlatformConfig, Prefetcher)],
    ) -> Vec<AnnotationStream> {
        let mut pass = CachePassSim::new(base.logical_regs, key_hierarchies(keys));
        recording.replay_bank(std::slice::from_mut(&mut pass));
        pass.finish_bank().into_iter().map(|(_, stream)| stream).collect()
    }

    /// Every lane of a keyed bank, on every key, equals a live `CycleSim`
    /// with the key's geometry and prefetcher and the lane's timing
    /// configuration — cycles, counters and hierarchy stats — at every
    /// block size and per op; and the final classes are exactly the keys
    /// whose whole miss-level streams are equal.
    #[test]
    fn keyed_lanes_match_live_cyclesims_on_every_key() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
        for base in PlatformConfig::all() {
            let keys = keyed_geometries(base);
            let streams = key_streams(&recording, &base, &keys);
            let mut classes: Vec<Vec<usize>> = Vec::new();
            for (k, stream) in streams.iter().enumerate() {
                match classes.iter_mut().find(|c| streams[c[0]] == *stream) {
                    Some(class) => class.push(k),
                    None => classes.push(vec![k]),
                }
            }
            assert_eq!(classes.len(), 4, "{}: only the twin keys agree throughout", base.name);
            let differs = |i: usize| streams[0].code(i) != streams[1].code(i);
            let first_difference = (0..streams[0].len()).find(|&i| differs(i));
            assert!(first_difference > Some(0), "{}: the 1 KB L1 diverges mid-trace", base.name);

            let preds = [PredictorKind::Hybrid, PredictorKind::Bimodal];
            let lanes: Vec<(PlatformConfig, PredictorKind)> =
                variants(base).into_iter().zip(preds.into_iter().cycle()).collect();
            let expected: Vec<Vec<SimResult>> = keys
                .iter()
                .map(|(geometry, prefetcher)| {
                    lanes
                        .iter()
                        .map(|&(mut cfg, pred)| {
                            (cfg.l1, cfg.l2) = (geometry.l1, geometry.l2);
                            let sim = CycleSim::new(cfg).with_predictor(pred);
                            let mut sim = sim.with_prefetcher(*prefetcher);
                            recording.replay_bank(std::slice::from_mut(&mut sim));
                            sim.into_result()
                        })
                        .collect()
                })
                .collect();
            let new_bank = || {
                let hierarchies = key_hierarchies(&keys);
                let mut bank =
                    PlatformBank::keyed(base.logical_regs, base.if_conversion, hierarchies, false);
                for (cfg, pred) in &lanes {
                    bank.push_keyed_lane(cfg, *pred);
                }
                bank
            };
            let check = |bank: PlatformBank, path: &str| {
                let mut got = bank.key_classes().to_vec();
                got.sort();
                assert_eq!(got, classes, "{} {path}: classes", base.name);
                let lanes_run = classes.len() * lanes.len();
                assert_eq!(bank.len(), lanes_run, "{} {path}: one lane per class", base.name);
                for (k, want) in expected.iter().enumerate() {
                    for (lane, want) in want.iter().enumerate() {
                        let got = bank.key_result(lane, k);
                        assert_eq!(&got, want, "{} {path}: key {k} lane {lane}", base.name);
                    }
                }
            };
            for block_ops in [1usize, 3, 64, 4096] {
                let mut bank = new_bank();
                recording.replay_bank_blocks(std::slice::from_mut(&mut bank), block_ops);
                check(bank, &format!("{block_ops}-op blocks"));
            }
            let mut bank = new_bank();
            for op in recording.iter() {
                bank.consume(&op, &program);
            }
            check(bank, "per-op");
        }
    }

    /// A trace whose keys agree for long stretches: phases of hits on a
    /// 256-byte region every L1 keeps, between short sweeps of an 8 KB
    /// region a 1 KB L1 keeps missing.
    fn phased_recording() -> Recording {
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..1024).map(|i| i * 5).collect();
        tape.region(here!("p"), &xs);
        for phase in 0..7usize {
            let (ops, span) = if phase % 2 == 0 { (8000, 32) } else { (300, 1024) };
            let mut acc = tape.lit();
            for i in 0..ops {
                let v = tape.int_load(here!("p"), &xs[(i * 7 + phase) % span]);
                acc = tape.int_op(here!("p"), &[acc, v]);
                if i % 5 == 0 {
                    tape.branch(here!("p"), &[acc], (i / 5) % 3 == 0);
                }
            }
        }
        let (program, rec) = tape.finish();
        rec.into_recording(program)
    }

    /// Shadow lanes change no result: on a trace whose keys agree for
    /// long stretches and then diverge, running lanes merge into shadows
    /// and shadows materialize again at every block size and per op, on
    /// in-order and out-of-order lanes (one with issue windows longer
    /// than a fresh issue ring), and every lane on every key still
    /// equals a live `CycleSim`. A bank that collects event metrics never
    /// shadows, and its lanes' events equal the live `CycleSim`s'.
    #[test]
    fn shadow_lanes_merge_and_materialize_and_match_live_cyclesims() {
        let recording = phased_recording();
        let program = recording.program().clone();
        for base in PlatformConfig::all() {
            let mut tiny = base;
            tiny.l1 = bioperf_cache::CacheConfig::new(1024, 2, base.l1.block_bytes);
            let keys = [(base, Prefetcher::None), (tiny, Prefetcher::None), (tiny, Prefetcher::NextLine)];
            let preds = [PredictorKind::Hybrid, PredictorKind::Bimodal];
            let mut lanes: Vec<(PlatformConfig, PredictorKind)> =
                variants(base).into_iter().zip(preds.into_iter().cycle()).collect();
            // An L2 hit slower than the issue ring is long: a lane's live
            // issue window then spans more slots than a fresh ring has.
            lanes.push((variant(base, (3, 5000, 5100), (4, 80)), PredictorKind::Hybrid));
            let live = |lane: usize, key: usize, metrics: bool| {
                let (mut cfg, pred) = lanes[lane];
                (cfg.l1, cfg.l2) = (keys[key].0.l1, keys[key].0.l2);
                let sim = CycleSim::new(cfg).with_predictor(pred).with_prefetcher(keys[key].1);
                let mut sim = if metrics { sim.with_metrics() } else { sim };
                recording.replay_bank(std::slice::from_mut(&mut sim));
                let events = sim.take_metrics();
                (sim.into_result(), events)
            };
            let new_bank = || {
                let hierarchies = key_hierarchies(&keys);
                let mut bank =
                    PlatformBank::keyed(base.logical_regs, base.if_conversion, hierarchies, false);
                for (cfg, pred) in &lanes {
                    bank.push_keyed_lane(cfg, *pred);
                }
                bank
            };
            let check = |bank: &PlatformBank, path: &str| {
                for key in 0..keys.len() {
                    for lane in 0..lanes.len() {
                        let want = SimResult { cache: bank.key_stats(key), ..live(lane, key, false).0 };
                        assert_eq!(bank.key_result(lane, key), want, "{} {path}: key {key} lane {lane}", base.name);
                    }
                }
                let work = bank.work();
                assert!(work.merges > 0 && work.materializations > 0, "{} {path}: {work:?}", base.name);
                assert!(work.core_blocks < work.lane_blocks, "{} {path}: {work:?}", base.name);
            };
            for block_ops in [1usize, 3, 64, 4096] {
                let mut bank = new_bank();
                recording.replay_bank_blocks(std::slice::from_mut(&mut bank), block_ops);
                check(&bank, &format!("{block_ops}-op blocks"));
            }
            let mut bank = new_bank();
            for op in recording.iter() {
                bank.consume(&op, &program);
            }
            check(&bank, "per-op");

            let mut bank = new_bank().with_metrics();
            recording.replay_bank_blocks(std::slice::from_mut(&mut bank), 64);
            let work = bank.work();
            assert_eq!((work.core_blocks, work.merges), (work.lane_blocks, 0), "{}: metrics on", base.name);
            for key in 0..keys.len() {
                let keyed = bank.keyed.as_ref().expect("a keyed bank");
                let members = keyed.lanes[keyed.class_of(key)].clone();
                for (lane, member) in members.into_iter().enumerate() {
                    let (want, events) = live(lane, key, true);
                    let got = bank.take_metrics(member);
                    for name in ["pipe/op_latency_cycles", "pipe/issue_delay_cycles"] {
                        assert!(events.histogram(name).is_some(), "{}: live {name}", base.name);
                        assert_eq!(got.histogram(name), events.histogram(name), "{}: key {key} lane {lane} {name}", base.name);
                    }
                    let name = "pipe/mispredict_redirects";
                    assert_eq!(got.counter(name), events.counter(name), "{}: key {key} lane {lane} {name}", base.name);
                    assert_eq!(bank.key_result(lane, key).cycles, want.cycles, "{}: metrics on", base.name);
                }
            }
        }
    }

    /// A keyed bank built with key streams hands back each class's keys
    /// with its representative's whole stream, equal to a cache pass's.
    #[test]
    fn keyed_bank_returns_class_streams() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::pentium4();
        let keys = keyed_geometries(base);
        let streams = key_streams(&recording, &base, &keys);
        let mut bank =
            PlatformBank::keyed(base.logical_regs, base.if_conversion, key_hierarchies(&keys), true);
        bank.push_keyed_lane(&base, PredictorKind::Hybrid);
        recording.replay_bank(std::slice::from_mut(&mut bank));
        let classes = bank.into_classes();
        assert_eq!(classes.iter().map(|(keys, _)| keys.len()).sum::<usize>(), keys.len());
        for (keys, stream) in classes {
            for k in keys {
                assert_eq!(stream, streams[k], "key {k}");
            }
        }
    }

    /// The per-op consume path (one-op blocks) equals the blocked path.
    #[test]
    fn per_op_path_matches_blocked_path() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::alpha21264();
        let stream = annotations(&recording, &base);

        let mk = || {
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for (i, cfg) in variants(base).into_iter().enumerate() {
                let pred = [PredictorKind::Hybrid, PredictorKind::Bimodal][i % 2];
                bank.push_lane(&cfg, pred, stream.clone());
            }
            bank
        };
        let mut blocked = mk();
        recording.replay_bank(std::slice::from_mut(&mut blocked));
        let mut per_op = mk();
        let program = recording.program().clone();
        for op in recording.iter() {
            per_op.consume(&op, &program);
        }
        assert_eq!(per_op.into_results(), blocked.into_results());
    }
}
