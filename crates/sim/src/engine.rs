//! The multi-agent discrete-time simulator: a shared-arena engine that
//! fills every agent's schedule **once** per block and resolves all
//! pending pairs over the shared read-only block rows.
//!
//! # The shared block arena
//!
//! The engine advances time in blocks of `BLOCK` (512) slots. Each block
//! is one barrier tree submission on the shared-queue orchestrator
//! ([`pool::run_tree_barrier`]), whatever the thread count — one thread
//! runs both waves through its sequential path:
//!
//! 1. **Fill** — every in-play agent's channels for the block are
//!    computed once, sharded into agent chunks; each fill task *returns*
//!    its chunk's rows as an owned buffer, which the expansion barrier
//!    publishes read-only to every resolve task ([`pool::ParentOutputs`])
//!    — no atomics, so the fill loops autovectorize over plain
//!    `&mut [u64]` rows. Schedules are prepared once per run, one per
//!    share-key group, and reused across every block. `0` marks
//!    not-yet-awake slots (channels are 1-indexed, so the sentinel is
//!    unambiguous).
//! 2. **Resolve** — pending pairs are resolved in parallel over the
//!    published rows, in one of two modes (see [`ResolveMode`]).
//!
//! The per-pair engine this replaces re-filled each agent's schedule once
//! per *pair* it participated in — `O(pairs)` fills per block, ~500k
//! redundant fills per block on a dense 1k-agent population. The arena
//! pays `O(agents)` fills per block regardless of density.
//!
//! # Read-bounded schedule tables
//!
//! A run reads agent `i`'s schedule only at the local slots
//! `[0, horizon − wake_i)`, and Theorem 3 meetings come long before a
//! period ends (at `n = 64`, `k = 8` the period is 10,296 slots, the
//! bench horizon 4,096). So each share-key group's preparation is
//! decided from the slots the run will read. The table length is
//! `L = min(period, span)`, where `span = max(horizon − wake)` over the
//! group's members (`L = span` when the schedule has no period hint).
//! The group compiles an `L`-slot table when `0 < L ≤
//! COMPILE_BUDGET_SLOTS / n` and its members read `Σ(horizon − wake) ≥
//! 2L` slots — each entry read at least twice on average, since compiling
//! an entry costs about one raw fill of it — and fills raw otherwise. A
//! singleton therefore compiles only a period it reads at least twice.
//! A table shorter than the period is a *prefix*, which the engine keeps
//! private (`GroupSchedule`): it covers every slot a member reads, but it
//! is not a period and must never pose as one.
//!
//! # Pair-major vs bucket resolution
//!
//! *Pair-major* scans each pending pair's two rows — `O(pairs · BLOCK)`
//! per block, unbeatable when pairs are scarce. When the universe fits
//! the plane budget, pair-major blocks pack each row into **bit-planes**
//! ([`rdv_core::bitplane`]): one presence plane plus one plane per
//! channel-id bit, so a single word-wide AND/XNOR chain resolves 64
//! slots of a pair comparison and `trailing_zeros` extracts the meeting
//! slot branch-free. Universes past the budget (e.g. 2⁴⁰ coalition
//! channels) keep the `u64`-per-slot rows. When pending pairs vastly
//! outnumber agents, the engine instead builds a per-slot channel→agents
//! bucket index from the rows and reads meetings straight out of the
//! buckets (two agents in one bucket *are* a meeting), which costs
//! `O(agents · BLOCK + meetings)` — see [`ResolveMode`] for the
//! crossover heuristic. Every mode and layout computes the exact
//! per-pair first meeting slot, so the report is bit-identical across
//! modes, layouts, and thread counts (`tests/multiuser_arena.rs`
//! property-tests this against a slot-by-slot reference).

use crate::algo::DynSchedule;
use crate::pool::{self, ParallelConfig};
use rdv_core::bitplane;
use rdv_core::channel::ChannelSet;
use rdv_core::compiled::CompiledSchedule;
use rdv_core::fault::{FaultPlan, InPlayWindow};
use rdv_core::schedule::Schedule;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Slots per arena block: large enough to amortize fills and task
/// scheduling, small enough that the `n × BLOCK` arena of a 10k-agent
/// population stays cache- and memory-friendly (40 MiB).
const BLOCK: usize = 512;

/// Total compiled-schedule table budget across the population, in slots
/// (64 MiB of `u64` tables). Each schedule group's table is capped at one
/// agent's equal share, `COMPILE_BUDGET_SLOTS / n` slots: on the
/// clustered 512-agent bench a per-group share compiled tables too large
/// for cache and cost the fill phase ~2×. Groups whose read-bounded table
/// length (see the module docs) exceeds the cap fill raw.
const COMPILE_BUDGET_SLOTS: u64 = 1 << 23;

/// [`ResolveMode::Auto`] switches from pair-major to the bucket scan when
/// pending pairs exceed this multiple of in-play agents. The model:
/// pair-major costs ~`pending · BLOCK` row-scan steps per block, the
/// bucket scan ~`agents · BLOCK` gather steps plus the regrouping and
/// bucket-pair emissions — so the scan wins once each agent carries a
/// few dozen pending pairs. 16 is the measured crossover on clustered
/// populations (the `bench_report` multiuser suite times both modes per
/// cell, and perfbench's traced `engine.forced.{slots,buckets}_s` spans
/// time them on the arena workloads); the exact value only matters near
/// the boundary, where the two modes cost the same.
///
/// Public so density-aware consumers (the `bench_report` speedup gate)
/// classify cells by the same threshold the engine uses.
pub const BUCKET_CROSSOVER: usize = 16;

/// [`ResolveMode::Auto`]'s crossover when the pair-major kernel runs on
/// **bit-planes**: the packed kernel compares 64 slots per word op, so it
/// stays ahead of the bucket scan to much denser workloads than the
/// slotwise kernel's [`BUCKET_CROSSOVER`]. Measured on the clustered
/// 512-agent bench the packed row scan and the bucket scan cost about the
/// same near ~128 pending pairs per in-play agent.
pub const PLANE_BUCKET_CROSSOVER: usize = 128;

/// The bucket scan filters emissions through an `n(n−1)/2`-bit met-pair
/// bitset; cap the population it is allocated for (64 MiB at the cap).
/// Beyond it the engine stays pair-major.
const MAX_BUCKET_AGENTS: usize = 1 << 15;

/// Population range over which [`Simulation::overlapping_pairs`] uses
/// the channel-inverted index (`O(n·k + Σ_c |bucket_c|² + n²/64)`)
/// instead of the nested `O(n²·k)` set-overlap scan: below the floor the
/// nested scan is cheap anyway, above the ceiling the index's
/// `n(n−1)/2`-bit marking set (512 MiB at the ceiling) outgrows the win
/// and the memory-proportional nested scan resumes.
const INDEXED_OVERLAP_MIN_AGENTS: usize = 256;
const INDEXED_OVERLAP_MAX_AGENTS: usize = 1 << 17;

/// One simulated agent.
pub struct Agent {
    /// The agent's channel set.
    pub set: ChannelSet,
    /// Absolute wake slot.
    pub wake: u64,
    /// The agent's schedule (local time).
    pub schedule: DynSchedule,
    /// Schedule-sharing key: agents carrying the **same** `Some` key
    /// promise their `schedule`s are interchangeable (identical
    /// `channel_at` for every slot — e.g. the same deterministic
    /// algorithm on the same channel set), letting the engine compile
    /// one table per key instead of one per agent. Clustered
    /// populations repeat channel sets heavily, so this collapses the
    /// compile path from `O(agents)` to `O(distinct sets)`. `None` (the
    /// safe default) never shares.
    pub share_key: Option<u64>,
}

/// How the engine resolves pending pairs against the filled arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolveMode {
    /// Choose per block: pair-major until pending pairs exceed
    /// `BUCKET_CROSSOVER` (16)× the in-play agents, bucket scan beyond. The
    /// choice is re-evaluated every block — dense populations start in
    /// bucket mode and drop back to pair-major as pairs meet and leave.
    #[default]
    Auto,
    /// Always scan each pending pair's two arena rows
    /// (`O(pairs · BLOCK)` per block).
    PairMajor,
    /// Always build the per-slot channel→agents bucket index
    /// (`O(agents · BLOCK + meetings)` per block). Falls back to
    /// pair-major above `MAX_BUCKET_AGENTS` (32 768) agents.
    BucketScan,
}

/// Row layout of pair-major blocks: whether the fill packs each agent's
/// row into bit-planes ([`rdv_core::bitplane`]) for the word-parallel
/// pair kernel.
///
/// Layout, like [`ResolveMode`], never changes the report — only how
/// fast it is computed. `Slotwise` is kept overridable so the
/// differential tests and the bench's bitplane-speedup baseline can pin
/// the reference layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanePolicy {
    /// Pack bit-planes whenever the block resolves pair-major and the
    /// universe's channel-id width fits
    /// [`bitplane::PLANE_BITS_BUDGET`]; wider universes keep the
    /// slotwise rows automatically.
    #[default]
    Auto,
    /// Always use the `u64`-per-slot rows (the reference layout).
    Slotwise,
}

/// Full engine configuration: thread policy plus resolution mode.
///
/// The default (auto threads, auto mode) is what [`Simulation::run`]
/// uses. Every combination produces a bit-identical [`MeetingReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker-thread policy for both arena phases.
    pub parallel: ParallelConfig,
    /// Pair-resolution mode (kept overridable for tests and benches; the
    /// default adapts per block).
    pub mode: ResolveMode,
    /// Row layout of pair-major blocks (kept overridable for the
    /// differential tests and the bitplane-speedup baseline; the default
    /// packs bit-planes whenever the universe fits the plane budget).
    pub plane: PlanePolicy,
    /// Optional deterministic fault plan — per-epoch channel outage masks
    /// and per-agent arrival/departure windows. `None` (the default) runs
    /// the fault-free paper model; a quiet plan (both rates zero) is
    /// observationally identical to `None`. Faults mask *presence*, not
    /// the schedule clock: an agent's schedule still runs on local time
    /// since its `wake`, but slots outside its in-play window, and slots
    /// whose channel is blacked out, become the no-meet sentinel.
    pub faults: Option<FaultPlan>,
}

/// A map from agent pairs `(i, j)`, `i < j`, to first-meeting slots,
/// backed by a pair-sorted vector — iteration order, `Debug`, and any
/// serialization derived from it are deterministic, unlike the
/// `HashMap` this replaces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeetingMap {
    /// Sorted by pair, each pair present at most once.
    entries: Vec<((usize, usize), u64)>,
}

impl MeetingMap {
    /// Sorts raw `(pair, slot)` entries into a map. Callers guarantee
    /// pair uniqueness (each engine records a pair's first meeting once).
    fn from_entries(mut entries: Vec<((usize, usize), u64)>) -> Self {
        entries.sort_unstable();
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate pair in meeting map"
        );
        MeetingMap { entries }
    }

    /// The first-meeting slot of pair `(i, j)`, in either order.
    pub fn get(&self, i: usize, j: usize) -> Option<u64> {
        let key = if i < j { (i, j) } else { (j, i) };
        self.entries
            .binary_search_by_key(&key, |&(pair, _)| pair)
            .ok()
            .map(|at| self.entries[at].1)
    }

    /// Whether pair `(i, j)` met.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.get(i, j).is_some()
    }

    /// Number of pairs that met.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair met.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `((i, j), slot)` in increasing pair order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), u64)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted `(pair, slot)` entries.
    pub fn as_slice(&self) -> &[((usize, usize), u64)] {
        &self.entries
    }
}

/// Why a pair with overlapping channel sets failed to meet — the
/// deterministic cause tag on every missed-pair record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissCause {
    /// Both agents were still in play when the horizon ran out: a longer
    /// run could have met them.
    HorizonExhausted,
    /// The pair's joint in-play window closed before the horizon — at
    /// least one agent departed (fault-plan churn) without meeting, so no
    /// horizon extension would help.
    Departed,
}

/// A pair that failed to meet, tagged with why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MissedPair {
    /// The pair `(i, j)`, `i < j`.
    pub pair: (usize, usize),
    /// Why they never met. Fault-free runs always report
    /// [`MissCause::HorizonExhausted`].
    pub cause: MissCause,
}

/// First-meeting results of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeetingReport {
    /// For each overlapping pair `(i, j)` (`i < j`) that met within the
    /// horizon: the absolute slot of the first meeting.
    pub first_meeting: MeetingMap,
    /// Pairs with overlapping sets that failed to meet within the
    /// horizon, sorted by pair, each tagged with its cause.
    pub missed: Vec<MissedPair>,
    /// The horizon used.
    pub horizon: u64,
}

impl MeetingReport {
    /// Time-to-rendezvous for a pair, measured from the later wake slot.
    pub fn ttr(&self, i: usize, j: usize, agents: &[Agent]) -> Option<u64> {
        let t = self.first_meeting.get(i, j)?;
        let both_awake = agents[i].wake.max(agents[j].wake);
        Some(t - both_awake)
    }

    /// Whether every overlapping pair met.
    pub fn all_met(&self) -> bool {
        self.missed.is_empty()
    }

    /// The missed pairs themselves, cause-agnostic, in sorted order.
    pub fn missed_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.missed.iter().map(|m| m.pair)
    }

    /// How many missed pairs carry `cause`.
    pub fn missed_with_cause(&self, cause: MissCause) -> usize {
        self.missed.iter().filter(|m| m.cause == cause).count()
    }
}

/// Index of pair `(i, j)`, `i < j`, in the flattened upper triangle of an
/// `n × n` matrix — the bit layout of the met-pair and overlap bitsets.
fn pair_bit(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

fn test_bit(bits: &[u64], at: usize) -> bool {
    bits[at / 64] & (1 << (at % 64)) != 0
}

fn set_bit(bits: &mut [u64], at: usize) {
    bits[at / 64] |= 1 << (at % 64);
}

/// How one block resolves its pending pairs — and so how the block's
/// filled rows are laid out inside their chunk buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolver {
    /// Pair-major over bit-planes: a presence plane plus `nbits`
    /// channel-bit planes of `words` words each per agent row (see
    /// [`bitplane::pack_row`]).
    Planes {
        /// Channel-id bit width of the universe.
        nbits: u32,
        /// Words per plane (`len.div_ceil(64)`).
        words: usize,
    },
    /// Pair-major over `u64`-per-slot rows — the fallback for universes
    /// past the plane budget and the [`PlanePolicy::Slotwise`] reference.
    Slots,
    /// The bucket scan over `u64`-per-slot rows (it gathers channel
    /// *values*, so it never packs planes).
    Buckets,
}

/// Read-only access to every filled row of one block: the owned chunk
/// buffers the fill barrier published ([`pool::ParentOutputs`]), as plain
/// `&[u64]` — the resolve kernels never touch an atomic.
#[derive(Clone, Copy)]
struct BlockRows<'a> {
    chunks: pool::ParentOutputs<'a, Vec<u64>>,
    /// Agent index → (fill chunk, row index within the chunk). Entries
    /// of agents outside the block's in-play set are stale and never
    /// read (pending pairs only reference loaded agents).
    locate: &'a [(u32, u32)],
    row_words: usize,
}

impl<'a> BlockRows<'a> {
    fn row(&self, ai: usize) -> &'a [u64] {
        let (ci, k) = self.locate[ai];
        let chunk: &'a [u64] = self.chunks.get(ci as usize);
        &chunk[k as usize * self.row_words..(k as usize + 1) * self.row_words]
    }
}

/// One resolve task of a block's fan-out: a chunk of pending pairs for
/// the pair-major kernels, or a slot range for the bucket scan.
enum Task<'a> {
    Pairs(&'a [(usize, usize)]),
    Slots(Range<usize>),
}

/// A parent of a block's barrier submission: an agent chunk to fill, or
/// the one fan-out parent carrying the block's resolve tasks.
enum Parent<'a> {
    Fill(&'a [u32]),
    FanOut(Vec<Task<'a>>),
}

/// A schedule group's schedule as the fill phase reads it, decided once
/// per run by [`Simulation::prepare_groups`].
enum GroupSchedule<'a> {
    /// Filled through the schedule's own block kernel.
    Raw(&'a DynSchedule),
    /// One full period, rotated through on every fill.
    Period(CompiledSchedule),
    /// Local slots `[0, len)` of a schedule whose period is longer (or
    /// unknown): every slot a member of the group reads, and nothing past
    /// it — not a period, so it never becomes a [`CompiledSchedule`].
    Prefix(Vec<u64>),
}

impl GroupSchedule<'_> {
    /// Writes the channels of local slots `start..start + out.len()`.
    fn fill(&self, start: u64, out: &mut [u64]) {
        match self {
            GroupSchedule::Raw(s) => s.fill_channels(start, out),
            GroupSchedule::Period(c) => c.fill_channels(start, out),
            GroupSchedule::Prefix(t) => {
                let start = start as usize;
                debug_assert!(
                    start + out.len() <= t.len(),
                    "fill of slots {start}..{} reads past a {}-slot prefix",
                    start + out.len(),
                    t.len()
                );
                out.copy_from_slice(&t[start..start + out.len()]);
            }
        }
    }
}

/// Fills `row` (one slot per entry) with the channels an agent hops for
/// the block starting at `block_start`, masked for presence: slots
/// before the agent wakes or arrives, at or after it departs, and slots
/// whose channel `plan` blacks out all become the no-meet sentinel `0`.
/// The post-departure tail is zeroed in bulk and outages are masked one
/// plan epoch at a time ([`mask_outages`]).
///
/// This is the one masking routine of the workspace: the arena fill
/// (whose slotwise *and* bit-plane blocks pack exactly this row) and the
/// per-pair reference both go through it, so the layouts cannot drift on
/// fault semantics (`tests/fault_injection.rs` pins them against each
/// other and a naive oracle).
fn fill_masked_row(
    schedule: &GroupSchedule,
    wake: u64,
    window: InPlayWindow,
    plan: Option<&FaultPlan>,
    block_start: u64,
    row: &mut [u64],
) {
    let len = row.len();
    let block_end = block_start + len as u64;
    if wake >= block_end || window.arrive >= block_end || window.depart <= block_start {
        row.fill(0);
        return;
    }
    let awake_from = wake.max(block_start).max(window.arrive);
    let lead = (awake_from - block_start) as usize;
    row[..lead].fill(0);
    let live = &mut row[lead..];
    schedule.fill(awake_from - wake, live);
    if let Some(p) = plan {
        let present = window
            .depart
            .saturating_sub(awake_from)
            .min(live.len() as u64) as usize;
        live[present..].fill(0);
        mask_outages(p, awake_from, &mut live[..present]);
    }
}

/// log2 of the entries of an [`AvailabilityMemo`].
const MEMO_BITS: u32 = 7;

/// One row's direct-mapped memo of `(channel, epoch)` availabilities,
/// indexed by a multiplicative hash of the channel (ids that share low
/// bits still spread). Each entry is tagged with its channel and stamped
/// with the epoch segment it was computed in, so entering the next
/// segment invalidates the whole memo without clearing it; a miss hashes
/// and overwrites its entry.
struct AvailabilityMemo {
    /// `(channel, segment << 1 | available)`; segments count from 1, so
    /// the zeroed initial entries are never live.
    entries: [(u64, u64); 1 << MEMO_BITS],
    segment: u64,
}

impl AvailabilityMemo {
    fn new() -> Self {
        AvailabilityMemo {
            entries: [(0, 0); 1 << MEMO_BITS],
            segment: 0,
        }
    }

    /// Starts memoizing the next epoch segment.
    fn enter(&mut self) {
        self.segment += 1;
    }

    /// Whether `channel` is available in `epoch`, the entered segment's
    /// epoch; hashes only on a miss, so at most once per call.
    fn available(&mut self, plan: &FaultPlan, channel: u64, epoch: u64) -> bool {
        let i = (channel.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize;
        let (tag, stamp) = self.entries[i];
        if tag == channel && stamp >> 1 == self.segment {
            return stamp & 1 == 1;
        }
        let available = plan.available_in_epoch(channel, epoch);
        self.entries[i] = (channel, self.segment << 1 | available as u64);
        available
    }
}

/// Zeroes the slots of `row` — absolute slots from `start` on — whose
/// channel `plan` blacks out, one plan epoch at a time: each distinct
/// `(channel, epoch)` of the row is hashed once unless another channel of
/// the epoch evicts it from the [`AvailabilityMemo`], and never more often
/// than once per slot.
fn mask_outages(plan: &FaultPlan, start: u64, row: &mut [u64]) {
    if plan.outage_per_mille() == 0 {
        // Every real channel is available; the sentinel 0 stays 0.
        return;
    }
    let epoch_slots = plan.epoch_slots();
    let mut memo = AvailabilityMemo::new();
    let mut x = 0usize;
    while x < row.len() {
        let t = start + x as u64;
        let (epoch, len) = (t / epoch_slots, epoch_slots - t % epoch_slots);
        let len = len.min((row.len() - x) as u64) as usize;
        memo.enter();
        for c in &mut row[x..x + len] {
            if !memo.available(plan, *c, epoch) {
                *c = 0;
            }
        }
        x += len;
    }
}

/// A configured multi-agent simulation.
pub struct Simulation {
    agents: Vec<Agent>,
}

impl Simulation {
    /// Creates a simulation over the given agents.
    pub fn new(agents: Vec<Agent>) -> Self {
        Simulation { agents }
    }

    /// The agents.
    pub fn agents(&self) -> &[Agent] {
        &self.agents
    }

    /// The overlapping (i, j) pairs, i < j, in lexicographic order — the
    /// work list of a run.
    ///
    /// Small populations use the direct nested set-overlap scan. Large
    /// ones invert the population into a channel→agents index and mark
    /// co-owning pairs in a bitset: `O(n²)` pairwise `overlaps()` calls
    /// (each `O(k log k)`) would dominate the whole run at 10k agents,
    /// while the index costs one bit-or per co-ownership and a linear
    /// bitset sweep. Populations beyond the index's memory ceiling drop
    /// back to the nested scan, which allocates only the output.
    fn overlapping_pairs(&self) -> Vec<(usize, usize)> {
        let n = self.agents.len();
        if !(INDEXED_OVERLAP_MIN_AGENTS..=INDEXED_OVERLAP_MAX_AGENTS).contains(&n) {
            let mut pending = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if self.agents[i].set.overlaps(&self.agents[j].set) {
                        pending.push((i, j));
                    }
                }
            }
            return pending;
        }
        let mut by_channel: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, agent) in self.agents.iter().enumerate() {
            for &c in agent.set.as_slice() {
                by_channel.entry(c).or_default().push(i as u32);
            }
        }
        let mut bits = vec![0u64; (n * (n - 1) / 2).div_ceil(64)];
        for bucket in by_channel.values() {
            for (at, &i) in bucket.iter().enumerate() {
                for &j in &bucket[at + 1..] {
                    // Buckets are built in ascending agent order, so i < j.
                    set_bit(&mut bits, pair_bit(i as usize, j as usize, n));
                }
            }
        }
        let mut pending = Vec::new();
        let mut bit = 0usize;
        for i in 0..n {
            let mut j = i + 1;
            while j < n {
                // Whole-word skip keeps sparse populations linear in the
                // bitset, not in n².
                if bit.is_multiple_of(64) && bits[bit / 64] == 0 {
                    let skip = 64.min(n - j);
                    j += skip;
                    bit += skip;
                    continue;
                }
                if test_bit(&bits, bit) {
                    pending.push((i, j));
                }
                j += 1;
                bit += 1;
            }
        }
        pending
    }

    /// Maps each agent to its schedule-sharing group: agents with equal
    /// `Some` [`Agent::share_key`]s share a group, keyless agents get
    /// their own. Group ids are assigned in first-appearance order, so
    /// `group_of[i]` equals the number of groups seen before agent `i`
    /// exactly when `i` opens a new group — the invariant
    /// [`Self::prepare_groups`] relies on.
    fn schedule_group_indices(&self) -> Vec<usize> {
        let mut by_key: HashMap<u64, usize> = HashMap::new();
        let mut next = 0usize;
        self.agents
            .iter()
            .map(|a| {
                let g = match a.share_key {
                    Some(key) => *by_key.entry(key).or_insert(next),
                    None => next,
                };
                if g == next {
                    next += 1;
                }
                g
            })
            .collect()
    }

    /// Prepares one [`GroupSchedule`] per schedule group for a run to
    /// `horizon` by the read-bounded rule of the module docs, returned
    /// with the agent → group map: a full period when the table length
    /// `L` is the period, a prefix when it is shorter, raw when the group
    /// reads too little or `L` exceeds the per-agent cap.
    fn prepare_groups(&self, horizon: u64) -> (Vec<usize>, Vec<GroupSchedule<'_>>) {
        let group_of = self.schedule_group_indices();
        let cap = COMPILE_BUDGET_SLOTS / self.agents.len().max(1) as u64;
        // Per group: its first member's schedule, the longest member read
        // (`span`) and the slots all members read (`reads`).
        let mut groups: Vec<(&DynSchedule, u64, u64)> = Vec::new();
        for (agent, &g) in self.agents.iter().zip(&group_of) {
            if g == groups.len() {
                groups.push((&agent.schedule, 0, 0));
            }
            let read = horizon.saturating_sub(agent.wake);
            let (_, span, reads) = &mut groups[g];
            *span = (*span).max(read);
            *reads = reads.saturating_add(read);
        }
        let prepared = groups
            .into_iter()
            .map(|(schedule, span, reads)| {
                let period = schedule.period_hint();
                let len = period.map_or(span, |p| p.min(span));
                if len == 0 || len > cap || reads < 2 * len {
                    return GroupSchedule::Raw(schedule);
                }
                if period == Some(len) {
                    let table = CompiledSchedule::compile_capped(schedule, len)
                        .expect("a period within its own length compiles");
                    return GroupSchedule::Period(table);
                }
                let mut table = vec![0u64; len as usize];
                schedule.fill_channels(0, &mut table);
                GroupSchedule::Prefix(table)
            })
            .collect();
        (group_of, prepared)
    }

    /// How many distinct schedules the arena engine prepares (and, when
    /// the run reads enough of them, compiles) for this population — the
    /// observable the share-key dedup regression tests pin.
    pub fn schedule_groups(&self) -> usize {
        self.schedule_group_indices()
            .into_iter()
            .max()
            .map_or(0, |g| g + 1)
    }

    /// Runs the simulation for `horizon` absolute slots, recording the
    /// first meeting slot of every overlapping pair.
    ///
    /// Equivalent to [`Self::run_engine`] under the default
    /// (auto-detected) configuration; the report is bit-identical for
    /// every thread count and resolution mode.
    pub fn run(&self, horizon: u64) -> MeetingReport {
        self.run_engine(horizon, &EngineConfig::default())
    }

    /// [`Self::run`] with an explicit thread-count policy.
    pub fn run_with(&self, horizon: u64, cfg: &ParallelConfig) -> MeetingReport {
        self.run_engine(
            horizon,
            &EngineConfig {
                parallel: *cfg,
                ..EngineConfig::default()
            },
        )
    }

    /// Tags a missed pair with its deterministic cause: `Departed` when
    /// the pair's joint in-play window under `plan` closed before the
    /// horizon (no extension would meet them), `HorizonExhausted`
    /// otherwise. A pure function of `(plan, pair, horizon)`, shared by
    /// the arena engine and the per-pair reference so their reports stay
    /// bit-identical.
    fn missed_pair(i: usize, j: usize, horizon: u64, plan: Option<&FaultPlan>) -> MissedPair {
        let cause = match plan {
            None => MissCause::HorizonExhausted,
            Some(p) => {
                let close = p.agent_window(i).depart.min(p.agent_window(j).depart);
                if close < horizon {
                    MissCause::Departed
                } else {
                    MissCause::HorizonExhausted
                }
            }
        };
        MissedPair {
            pair: (i, j),
            cause,
        }
    }

    /// The shared-arena engine (see the module docs for the design).
    ///
    /// A meeting is two *awake* agents hopping on the same channel in the
    /// same slot. Agents whose sets do not overlap are ignored (they can
    /// never meet). Every configuration — any thread count, any
    /// [`ResolveMode`] — computes the exact per-pair first-meeting slot,
    /// so the report is identical regardless of `cfg`.
    pub fn run_engine(&self, horizon: u64, cfg: &EngineConfig) -> MeetingReport {
        let n = self.agents.len();
        // Quiet plans (both rates zero) take the unfaulted fast path so a
        // no-op plan is observationally identical to no plan.
        let plan = cfg.faults.filter(|p| !p.is_quiet());
        let mut pending = self.overlapping_pairs();
        if pending.is_empty() || horizon == 0 {
            return MeetingReport {
                first_meeting: MeetingMap::default(),
                missed: pending
                    .into_iter()
                    .map(|(i, j)| Self::missed_pair(i, j, horizon, plan.as_ref()))
                    .collect(),
                horizon,
            };
        }
        // Per-agent in-play windows of the fault plan, resolved once: the
        // fill phase masks outside-window slots to the no-meet sentinel
        // and the resolve phase retires pairs whose joint window closed.
        let windows: Option<Vec<InPlayWindow>> =
            plan.map(|p| (0..n).map(|i| p.agent_window(i)).collect());
        let mut departed: Vec<(usize, usize)> = Vec::new();
        let mut entries: Vec<((usize, usize), u64)> = Vec::new();
        // Pending-pair count per agent: agents at zero (disjoint sets, or
        // all their pairs already met) drop out of the block fill.
        let mut load = vec![0u32; n];
        for &(i, j) in &pending {
            load[i] += 1;
            load[j] += 1;
        }
        let (group_of, prepared) = self.prepare_groups(horizon);
        let max_channel = self
            .agents
            .iter()
            .map(|a| a.set.max_channel().get())
            .max()
            .unwrap_or(0);
        // Bit-plane eligibility is a run-level fact: the universe's
        // channel-id width either fits the plane budget or it does not
        // (the 2⁴⁰-channel coalition universe stays slotwise). Which
        // blocks actually pack planes is decided per block — the bucket
        // scan gathers channel values, so only pair-major blocks do.
        let nbits = bitplane::plane_bits(max_channel);
        let planes_ok = cfg.plane == PlanePolicy::Auto && nbits <= bitplane::PLANE_BITS_BUDGET;
        let bucket_usable = n <= MAX_BUCKET_AGENTS && cfg.mode != ResolveMode::PairMajor;
        // Met-pair bitset, the bucket scan's emission filter; allocated
        // lazily on the first bucket block (backfilled from `entries` so
        // earlier pair-major meetings are not re-emitted).
        let mut met: Vec<u64> = Vec::new();
        // Agent → (fill chunk, row offset) map, rebuilt per block from
        // the block's fill chunks; hoisted so the allocation is paid
        // once per run.
        let mut locate: Vec<(u32, u32)> = vec![(0, 0); n];

        let mut block_start = 0u64;
        while block_start < horizon && !pending.is_empty() {
            // Retire pairs whose joint in-play window has already closed:
            // no current or later block can meet them, so they leave the
            // work list (and their agents' load counts) now and are
            // tagged `Departed` in the final report.
            if let Some(w) = &windows {
                pending.retain(|&(i, j)| {
                    if w[i].depart.min(w[j].depart) <= block_start {
                        load[i] -= 1;
                        load[j] -= 1;
                        departed.push((i, j));
                        false
                    } else {
                        true
                    }
                });
                if pending.is_empty() {
                    break;
                }
            }
            let len = (horizon - block_start).min(BLOCK as u64) as usize;
            let block_end = block_start + len as u64;
            let in_play: Vec<u32> = (0..n as u32).filter(|&i| load[i as usize] > 0).collect();
            let threads = cfg
                .parallel
                .effective_threads(in_play.len().max(pending.len()));
            let use_bucket = bucket_usable
                && match cfg.mode {
                    ResolveMode::BucketScan => true,
                    ResolveMode::Auto => {
                        // The packed pair kernel holds to much denser
                        // workloads than the slotwise one, so its
                        // crossover into the bucket scan sits higher.
                        let crossover = if planes_ok {
                            PLANE_BUCKET_CROSSOVER
                        } else {
                            BUCKET_CROSSOVER
                        };
                        pending.len() >= crossover * in_play.len()
                    }
                    ResolveMode::PairMajor => false,
                };
            let resolver = if use_bucket {
                Resolver::Buckets
            } else if planes_ok {
                Resolver::Planes {
                    nbits,
                    words: bitplane::plane_words(len),
                }
            } else {
                Resolver::Slots
            };
            if use_bucket && met.is_empty() {
                met = vec![0u64; (n * (n - 1) / 2).div_ceil(64)];
                for &((i, j), _) in &entries {
                    set_bit(&mut met, pair_bit(i, j, n));
                }
            }
            let row_words = match resolver {
                Resolver::Planes { nbits, words } => (1 + nbits as usize) * words,
                Resolver::Slots | Resolver::Buckets => len,
            };
            let fill_tasks: Vec<&[u32]> = in_play
                .chunks(pool::chunk_size(in_play.len(), threads))
                .collect();
            for (ci, chunk) in fill_tasks.iter().enumerate() {
                for (k, &ai) in chunk.iter().enumerate() {
                    locate[ai as usize] = (ci as u32, k as u32);
                }
            }
            let resolve_tasks: Vec<Task> = if use_bucket {
                let step = pool::chunk_size(len, threads);
                (0..len)
                    .step_by(step)
                    .map(|lo| Task::Slots(lo..(lo + step).min(len)))
                    .collect()
            } else {
                pending
                    .chunks(pool::chunk_size(pending.len(), threads))
                    .map(Task::Pairs)
                    .collect()
            };
            let parents: Vec<Parent> = fill_tasks
                .into_iter()
                .map(Parent::Fill)
                .chain(std::iter::once(Parent::FanOut(resolve_tasks)))
                .collect();
            // Phase 1: each fill parent computes its agents' masked rows
            // for the block and *returns* them as one owned buffer (in
            // the resolver's layout) — the expansion barrier publishes the
            // buffers read-only to every resolve task (phase 2).
            let mut out = pool::run_tree_barrier(
                parents,
                &ParallelConfig::with_threads(threads),
                |_pi, parent| match parent {
                    Parent::FanOut(tasks) => (Vec::new(), tasks),
                    Parent::Fill(chunk) => {
                        let mut rows = Vec::with_capacity(chunk.len() * row_words);
                        let mut scratch = [0u64; BLOCK];
                        let row = &mut scratch[..len];
                        for &ai in chunk {
                            let ai = ai as usize;
                            let window = windows.as_ref().map_or(InPlayWindow::ALWAYS, |w| w[ai]);
                            fill_masked_row(
                                &prepared[group_of[ai]],
                                self.agents[ai].wake,
                                window,
                                plan.as_ref(),
                                block_start,
                                row,
                            );
                            match resolver {
                                Resolver::Planes { nbits, words } => {
                                    let base = rows.len();
                                    rows.resize(base + row_words, 0);
                                    bitplane::pack_row(row, nbits, words, &mut rows[base..]);
                                }
                                Resolver::Slots | Resolver::Buckets => rows.extend_from_slice(row),
                            }
                        }
                        (rows, Vec::new())
                    }
                },
                |_path, task, outputs| {
                    let rows = BlockRows {
                        chunks: outputs,
                        locate: &locate,
                        row_words,
                    };
                    match task {
                        Task::Pairs(pairs) => resolve_pairs(&rows, pairs, resolver, block_start),
                        Task::Slots(slots) => {
                            bucket_scan(&rows, &in_play, &met, n, max_channel, slots, block_start)
                        }
                    }
                },
            );
            let (_, results) = out.pop().expect("the fan-out parent is always submitted");
            let found = results.into_iter().flatten();
            if use_bucket {
                // Tasks cover ascending slot ranges and emit in ascending
                // slot order, so the first record of a pair is its first
                // meeting of the block.
                for (i, j, t) in found {
                    let (i, j) = (i as usize, j as usize);
                    let bit = pair_bit(i, j, n);
                    if !test_bit(&met, bit) {
                        set_bit(&mut met, bit);
                        entries.push(((i, j), t));
                        load[i] -= 1;
                        load[j] -= 1;
                    }
                }
                pending.retain(|&(i, j)| !test_bit(&met, pair_bit(i, j, n)));
            } else {
                // Pair tasks cover `pending` in order and emit its met
                // pairs in order, so one walk matches them up.
                let mut found = found.peekable();
                let track_met = !met.is_empty();
                pending.retain(|&(i, j)| {
                    match found.next_if(|&(a, b, _)| (a as usize, b as usize) == (i, j)) {
                        Some((_, _, t)) => {
                            entries.push(((i, j), t));
                            if track_met {
                                set_bit(&mut met, pair_bit(i, j, n));
                            }
                            load[i] -= 1;
                            load[j] -= 1;
                            false
                        }
                        None => true,
                    }
                });
            }
            block_start = block_end;
        }
        pending.extend(departed);
        pending.sort_unstable();
        MeetingReport {
            first_meeting: MeetingMap::from_entries(entries),
            missed: pending
                .into_iter()
                .map(|(i, j)| Self::missed_pair(i, j, horizon, plan.as_ref()))
                .collect(),
            horizon,
        }
    }

    /// The seed per-pair engine, kept as the benchmark baseline and test
    /// reference: every pending pair is resolved by an independent
    /// two-agent block scan, re-filling each agent's schedule once per
    /// pair — `O(pairs)` fills per block, which is exactly the redundancy
    /// the arena engine eliminates. Produces the identical report.
    pub fn run_per_pair_reference(&self, horizon: u64, cfg: &ParallelConfig) -> MeetingReport {
        self.per_pair_reference_impl(horizon, cfg, None)
    }

    /// [`Self::run_per_pair_reference`] under a full engine config,
    /// honoring `cfg.faults` — the independent oracle the faulted arena
    /// engine is tested bit-identical against. Resolution mode is
    /// irrelevant here (every pair is an independent two-agent scan).
    pub fn run_per_pair_reference_with(&self, horizon: u64, cfg: &EngineConfig) -> MeetingReport {
        let plan = cfg.faults.filter(|p| !p.is_quiet());
        self.per_pair_reference_impl(horizon, &cfg.parallel, plan.as_ref())
    }

    fn per_pair_reference_impl(
        &self,
        horizon: u64,
        cfg: &ParallelConfig,
        plan: Option<&FaultPlan>,
    ) -> MeetingReport {
        let pending = self.overlapping_pairs();
        let threads = cfg.effective_threads(pending.len());
        let tasks: Vec<&[(usize, usize)]> = pending
            .chunks(pool::chunk_size(pending.len(), threads))
            .collect();
        let meetings: Vec<Vec<Option<u64>>> = pool::run_indexed(tasks, cfg, |_idx, chunk| {
            chunk
                .iter()
                .map(|&(i, j)| self.pair_first_meeting(i, j, horizon, plan))
                .collect()
        });
        let mut entries = Vec::new();
        let mut missed = Vec::new();
        for (&(i, j), met) in pending.iter().zip(meetings.iter().flatten()) {
            match met {
                Some(t) => entries.push(((i, j), *t)),
                None => missed.push((i, j)),
            }
        }
        missed.sort_unstable();
        MeetingReport {
            first_meeting: MeetingMap::from_entries(entries),
            missed: missed
                .into_iter()
                .map(|(i, j)| Self::missed_pair(i, j, horizon, plan))
                .collect(),
            horizon,
        }
    }

    /// First absolute slot at which agents `i` and `j` are both awake,
    /// both in play, and on the same *available* channel — the unit of
    /// parallelism of [`Self::run_per_pair_reference`]. The scan is
    /// clamped to the pair's joint in-play window, which is exactly what
    /// the arena engine's per-agent masking plus pair retirement compute.
    fn pair_first_meeting(
        &self,
        i: usize,
        j: usize,
        horizon: u64,
        plan: Option<&FaultPlan>,
    ) -> Option<u64> {
        let (ai, aj) = (&self.agents[i], &self.agents[j]);
        let (wi, wj) = match plan {
            Some(p) => (p.agent_window(i), p.agent_window(j)),
            None => (InPlayWindow::ALWAYS, InPlayWindow::ALWAYS),
        };
        let start = ai.wake.max(aj.wake).max(wi.arrive).max(wj.arrive);
        let end = horizon.min(wi.depart).min(wj.depart);
        if start >= end {
            return None;
        }
        let (si, sj) = (
            GroupSchedule::Raw(&ai.schedule),
            GroupSchedule::Raw(&aj.schedule),
        );
        let mut bufi = [0u64; BLOCK];
        let mut bufj = [0u64; BLOCK];
        let mut t = start;
        while t < end {
            let len = (end - t).min(BLOCK as u64) as usize;
            fill_masked_row(&si, ai.wake, wi, plan, t, &mut bufi[..len]);
            fill_masked_row(&sj, aj.wake, wj, plan, t, &mut bufj[..len]);
            for x in 0..len {
                // Masked slots are 0 in *both* buffers, so a shared
                // blackout cannot read as a meeting — the same sentinel
                // contract the arena rows (and the presence plane) carry.
                let c = bufi[x];
                if c != 0 && c == bufj[x] {
                    return Some(t + x as u64);
                }
            }
            t += len as u64;
        }
        None
    }
}

/// The pair-major resolve task: the first meeting slot within the block
/// starting at `block_start` of every pair of `pairs` that meets in it,
/// emitted in `pairs` order. Word-parallel over bit-planes, or the
/// slot-at-a-time scan on slotwise rows; either way the rows are plain
/// slices the compiler can vectorize over.
fn resolve_pairs(
    rows: &BlockRows<'_>,
    pairs: &[(usize, usize)],
    resolver: Resolver,
    block_start: u64,
) -> Vec<(u32, u32, u64)> {
    // Sized for every pair up front: growing the output on the worker
    // threads raised the per-operation peak RSS of 64-agent populations
    // by ~9% (measured with perfbench's arena-sparse workload).
    let mut met = Vec::with_capacity(pairs.len());
    for &(i, j) in pairs {
        let (ri, rj) = (rows.row(i), rows.row(j));
        let x = match resolver {
            Resolver::Planes { nbits, words } => bitplane::first_match(ri, rj, nbits, words),
            Resolver::Slots | Resolver::Buckets => {
                ri.iter().zip(rj).position(|(&c, &d)| c != 0 && c == d)
            }
        };
        if let Some(x) = x {
            met.push((i as u32, j as u32, block_start + x as u64));
        }
    }
    met
}

/// Largest spectrum the bucket scan regroups through channel-indexed
/// counting buckets (`O(agents)` per slot); sparser spectra — e.g. the
/// 2⁴⁰-channel coalition universe — fall back to sorting each slot's
/// entries (`O(agents log agents)`).
const COUNTING_BUCKET_MAX_CHANNEL: u64 = 1 << 16;

/// Largest met-pair bitset (in `u64` words; 8 MiB) a bucket task clones
/// as its within-task emission filter. A freshly met pair keeps
/// co-occupying buckets for the rest of its block, so the filter is on
/// the scan's hottest path — a bit probe beats a hash probe by an order
/// of magnitude. Populations whose bitset exceeds the clone budget use a
/// hash set instead.
const LOCAL_FILTER_MAX_WORDS: usize = 1 << 20;

/// Within-task dedup filter of the bucket scan: admits each pair at most
/// once per task, and never a pair that already met in an earlier block.
enum PairFilter<'a> {
    /// A private clone of the met bitset; admitted pairs are marked
    /// locally so repeats are rejected by the same probe.
    Bits { local: Vec<u64> },
    /// Shared met bitset plus a hash set of locally admitted pairs, for
    /// populations whose bitset is too large to clone per task.
    Hash {
        met: &'a [u64],
        seen: HashSet<(u32, u32)>,
    },
}

impl<'a> PairFilter<'a> {
    fn new(met: &'a [u64]) -> Self {
        if met.len() <= LOCAL_FILTER_MAX_WORDS {
            PairFilter::Bits {
                local: met.to_vec(),
            }
        } else {
            PairFilter::Hash {
                met,
                seen: HashSet::new(),
            }
        }
    }

    /// Whether `(i, j)` is new to this task and unmet before the block.
    fn admit(&mut self, i: u32, j: u32, n: usize) -> bool {
        let bit = pair_bit(i as usize, j as usize, n);
        match self {
            PairFilter::Bits { local } => {
                if test_bit(local, bit) {
                    false
                } else {
                    set_bit(local, bit);
                    true
                }
            }
            PairFilter::Hash { met, seen } => !test_bit(met, bit) && seen.insert((i, j)),
        }
    }
}

/// The bucket resolve task: per slot of `slots`, groups the in-play
/// agents' row entries by channel and emits every co-bucketed pair not
/// yet met (`met` filters pairs from earlier blocks, `seen` dedupes
/// within the task, keeping the earliest slot since slots ascend).
///
/// `rows` must be slotwise — the gather needs channel *values*, which is
/// why bucket blocks never pack bit-planes. It is agent-major — each
/// agent's row is read sequentially — because reading the block
/// column-wise would take a cache miss per agent per slot. Grouping
/// indexes straight into per-channel buckets when the spectrum is small
/// enough to preallocate (the common population case) and sorts
/// otherwise.
fn bucket_scan(
    rows: &BlockRows<'_>,
    in_play: &[u32],
    met: &[u64],
    n: usize,
    max_channel: u64,
    slots: Range<usize>,
    block_start: u64,
) -> Vec<(u32, u32, u64)> {
    // Exact-capacity rows: almost every in-play agent contributes to
    // every slot, and letting the vectors grow geometrically instead was
    // measurably the scan's biggest cost.
    let mut per_slot: Vec<Vec<(u64, u32)>> = (0..slots.len())
        .map(|_| Vec::with_capacity(in_play.len()))
        .collect();
    for &ai in in_play {
        let row = &rows.row(ai as usize)[slots.start..slots.end];
        for (x, &c) in row.iter().enumerate() {
            if c != 0 {
                per_slot[x].push((c, ai));
            }
        }
    }
    let counting = max_channel <= COUNTING_BUCKET_MAX_CHANNEL;
    let mut channel_bucket: Vec<Vec<u32>> = if counting {
        vec![Vec::new(); max_channel as usize + 1]
    } else {
        Vec::new()
    };
    let mut touched: Vec<u64> = Vec::new();
    let mut found = Vec::new();
    let mut filter = PairFilter::new(met);
    let mut emit = |group: &[u32], t: u64, found: &mut Vec<(u32, u32, u64)>| {
        for (at, &i) in group.iter().enumerate() {
            for &j in &group[at + 1..] {
                // Groups are built in ascending agent order, so i < j.
                if filter.admit(i, j, n) {
                    found.push((i, j, t));
                }
            }
        }
    };
    for (x, entries) in per_slot.iter_mut().enumerate() {
        let t = block_start + (slots.start + x) as u64;
        if counting {
            for &(c, ai) in entries.iter() {
                let bucket = &mut channel_bucket[c as usize];
                if bucket.is_empty() {
                    touched.push(c);
                }
                bucket.push(ai);
            }
            for &c in &touched {
                let bucket = &mut channel_bucket[c as usize];
                if bucket.len() >= 2 {
                    emit(bucket, t, &mut found);
                }
                bucket.clear();
            }
            touched.clear();
        } else {
            entries.sort_unstable();
            let mut lo = 0;
            while lo < entries.len() {
                let c = entries[lo].0;
                let mut hi = lo + 1;
                while hi < entries.len() && entries[hi].0 == c {
                    hi += 1;
                }
                if hi - lo >= 2 {
                    let group: Vec<u32> = entries[lo..hi].iter().map(|&(_, ai)| ai).collect();
                    emit(&group, t, &mut found);
                }
                lo = hi;
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{AgentCtx, Algorithm};
    use rdv_core::channel::Channel;
    use rdv_core::schedule::CyclicSchedule;

    #[test]
    fn outage_masking_matches_per_slot_availability() {
        // Rows with more distinct channels per epoch than the memo has
        // entries, ids sharing their low 10 bits, 2⁴⁰-wide ids, and
        // sentinel zeros.
        let rows: [fn(u64) -> u64; 3] = [
            |x| 1 + (x % 200) * 1024,
            |x| (1 << 40) - x * x % 97,
            |x| if x % 5 == 0 { 0 } else { 1 + x % 3 },
        ];
        for plan in [
            FaultPlan::new(17, 256, 300, 0, 4096),
            FaultPlan::new(5, 7, 900, 0, 4096),
        ] {
            for (r, row) in rows.iter().enumerate() {
                for start in [0u64, 3, 250, 1 << 33] {
                    let original: Vec<u64> = (0..BLOCK as u64).map(row).collect();
                    let want: Vec<u64> = original
                        .iter()
                        .zip(start..)
                        .map(|(&c, t)| if plan.channel_available(c, t) { c } else { 0 })
                        .collect();
                    let mut got = original;
                    mask_outages(&plan, start, &mut got);
                    assert_eq!(got, want, "row {r}, start {start}, plan {plan:?}");
                }
            }
        }
    }

    fn agent(algo: Algorithm, n: u64, channels: &[u64], wake: u64, seed: u64) -> Agent {
        let set = ChannelSet::new(channels.iter().copied()).unwrap();
        let ctx = AgentCtx {
            wake,
            agent_seed: seed,
            shared_seed: 42,
            faults: None,
        };
        Agent {
            schedule: algo.make(n, &set, &ctx).expect("valid agent"),
            set,
            wake,
            share_key: None,
        }
    }

    fn staggered_population(
        algos: &[Algorithm],
        sets: &[&[u64]],
        n: u64,
        stride: u64,
    ) -> Vec<Agent> {
        sets.iter()
            .zip(algos.iter().cycle())
            .enumerate()
            .map(|(i, (s, &algo))| agent(algo, n, s, (i as u64) * stride, i as u64))
            .collect()
    }

    #[test]
    fn two_agents_meet() {
        let a = agent(Algorithm::Ours, 16, &[1, 5, 9], 0, 0);
        let b = agent(Algorithm::Ours, 16, &[5, 12], 7, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(100_000);
        assert!(report.all_met());
        let ttr = report.ttr(0, 1, sim.agents()).unwrap();
        assert!(ttr < 100_000);
        // Symmetric access works too.
        assert_eq!(report.ttr(1, 0, sim.agents()), Some(ttr));
    }

    #[test]
    fn disjoint_agents_ignored() {
        let a = agent(Algorithm::Ours, 16, &[1, 2], 0, 0);
        let b = agent(Algorithm::Ours, 16, &[3, 4], 0, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(1_000);
        assert!(report.all_met()); // nothing pending
        assert_eq!(report.ttr(0, 1, sim.agents()), None);
    }

    #[test]
    fn meeting_respects_wake_times() {
        // Before both are awake no meeting can be recorded.
        let a = agent(Algorithm::Ours, 8, &[3], 0, 0);
        let b = agent(Algorithm::Ours, 8, &[3], 50, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(200);
        let t = report.first_meeting.get(0, 1).unwrap();
        assert_eq!(t, 50, "constant channel agents meet the slot both awake");
        assert_eq!(report.ttr(0, 1, sim.agents()), Some(0));
    }

    #[test]
    fn many_agents_all_pairs() {
        // Five agents on a small universe; every overlapping pair must meet
        // within the Theorem 3 bound.
        let sets: [&[u64]; 5] = [&[1, 2], &[2, 3], &[3, 4], &[4, 5, 1], &[1, 3, 5]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 5, 13);
        let sim = Simulation::new(agents);
        let report = sim.run(1 << 16);
        assert!(report.all_met(), "missed: {:?}", report.missed);
    }

    #[test]
    fn arena_engine_matches_per_slot_reference() {
        // The arena engine must agree exactly with a slot-by-slot
        // reference over staggered wakes and a horizon that is not a
        // multiple of the block size.
        let sets: [&[u64]; 4] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 12, 317);
        let horizon = 2_777u64;
        let sim = Simulation::new(agents);
        let report = sim.run(horizon);
        let agents = sim.agents();
        for i in 0..agents.len() {
            for j in i + 1..agents.len() {
                if !agents[i].set.overlaps(&agents[j].set) {
                    continue;
                }
                let expected = (0..horizon).find(|&t| {
                    t >= agents[i].wake
                        && t >= agents[j].wake
                        && agents[i].schedule.channel_at(t - agents[i].wake)
                            == agents[j].schedule.channel_at(t - agents[j].wake)
                });
                assert_eq!(report.first_meeting.get(i, j), expected, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn every_mode_and_thread_count_matches() {
        // Mixed algorithms, staggered wakes, a horizon off the block
        // boundary: every (mode × thread count) combination and the
        // per-pair reference must produce the identical report.
        let sets: [&[u64]; 5] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11], &[3, 4]];
        let algos = [
            Algorithm::Ours,
            Algorithm::Crseq,
            Algorithm::Drds,
            Algorithm::Ours,
            Algorithm::Random,
        ];
        let agents = staggered_population(&algos, &sets, 12, 271);
        let sim = Simulation::new(agents);
        let horizon = 3_333u64;
        let baseline = sim.run_with(horizon, &ParallelConfig::with_threads(1));
        for mode in [
            ResolveMode::Auto,
            ResolveMode::PairMajor,
            ResolveMode::BucketScan,
        ] {
            for threads in [1usize, 2, 8] {
                let cfg = EngineConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    mode,
                    plane: PlanePolicy::Auto,
                    faults: None,
                };
                assert_eq!(
                    baseline,
                    sim.run_engine(horizon, &cfg),
                    "mode = {mode:?}, threads = {threads}"
                );
            }
        }
        for threads in [1usize, 2, 8] {
            assert_eq!(
                baseline,
                sim.run_per_pair_reference(horizon, &ParallelConfig::with_threads(threads)),
                "per-pair reference at {threads} threads"
            );
        }
        assert_eq!(baseline, sim.run(horizon));
    }

    #[test]
    fn auto_mode_switches_keep_the_met_set_exact() {
        // Slotwise rows put Auto's crossover at 16 pending pairs per
        // in-play agent. By the counts, blocks 0–3 resolve pair-major
        // (124 agents, 1746 pairs), bucket (104, 1730), pair-major
        // (60, 790), bucket (40, 774). The early {1,2} and {3,4} quartets
        // meet in a pair-major block and co-bucket again in the next
        // bucket block, so that block's met set must hold them: backfilled
        // on the first switch, tracked by the pair-major merge after it.
        let mut agents = Vec::new();
        let mut push = |channels: &[u64], wake: u64, count: usize| {
            for _ in 0..count {
                let seed = agents.len() as u64;
                agents.push(agent(Algorithm::Random, 200, channels, wake, seed));
            }
        };
        for c in 100..110 {
            push(&[c], 0, 2);
        }
        for c in 110..120 {
            push(&[c], 1100, 2);
        }
        push(&[1, 2], 0, 4);
        push(&[1, 2], 600, 40);
        push(&[3, 4], 1100, 4);
        push(&[3, 4], 1600, 36);
        let sim = Simulation::new(agents);
        let horizon = 4_000u64;
        let reference = sim.run_per_pair_reference(horizon, &ParallelConfig::with_threads(1));
        for threads in [1usize, 2, 8] {
            let cfg = EngineConfig {
                parallel: ParallelConfig::with_threads(threads),
                plane: PlanePolicy::Slotwise,
                ..EngineConfig::default()
            };
            assert_eq!(
                sim.run_engine(horizon, &cfg),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn indexed_overlap_matches_nested_scan() {
        // A population pushed over the inverted-index threshold must
        // produce the same pair list as the nested reference.
        let mut agents = Vec::new();
        for i in 0..300u64 {
            let c1 = 1 + (i * 7) % 23;
            let c2 = 1 + (i * 13) % 23;
            let set: Vec<u64> = if c1 == c2 { vec![c1] } else { vec![c1, c2] };
            agents.push(agent(Algorithm::Ours, 23, &set, 0, i));
        }
        let sim = Simulation::new(agents);
        assert!(sim.agents().len() >= INDEXED_OVERLAP_MIN_AGENTS);
        let indexed = sim.overlapping_pairs();
        let mut nested = Vec::new();
        for i in 0..sim.agents().len() {
            for j in i + 1..sim.agents().len() {
                if sim.agents()[i].set.overlaps(&sim.agents()[j].set) {
                    nested.push((i, j));
                }
            }
        }
        assert_eq!(indexed, nested);
    }

    #[test]
    fn clustered_agents_dedupe_compiled_tables() {
        // 200 agents over 61 possible contiguous blocks: the arena engine
        // must prepare one schedule per *distinct* set, not per agent.
        let agents = crate::workload::clustered_agents(Algorithm::Ours, 64, 4, 200, 11, 128);
        let mut distinct: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
        for a in &agents {
            distinct.insert(a.set.as_slice().to_vec());
        }
        let sim = Simulation::new(agents);
        assert_eq!(
            sim.schedule_groups(),
            distinct.len(),
            "one compiled-table group per distinct (algorithm, set)"
        );
        assert!(
            sim.schedule_groups() < sim.agents().len(),
            "a clustered population must actually share schedules"
        );
    }

    /// The channel cycle `1..=period`, keyed into share group `key`.
    fn cycling(period: u64, wake: u64, key: Option<u64>) -> Agent {
        let hops = (1..=period).map(Channel::new).collect();
        Agent {
            set: ChannelSet::new(1..=period).unwrap(),
            wake,
            schedule: Box::new(CyclicSchedule::new(hops).unwrap()),
            share_key: key,
        }
    }

    /// What `prepare_groups` decided for one group: `None` for a raw
    /// fill, else the table kind and its length.
    fn decision(g: &GroupSchedule) -> Option<(&'static str, usize)> {
        match g {
            GroupSchedule::Raw(_) => None,
            GroupSchedule::Period(c) => Some(("period", c.table().len())),
            GroupSchedule::Prefix(t) => Some(("prefix", t.len())),
        }
    }

    #[test]
    fn prepare_groups_compiles_only_the_slots_a_run_reads() {
        /// Hops 1, 2, 1, 2, … but claims no period.
        struct Aperiodic;
        impl Schedule for Aperiodic {
            fn channel_at(&self, t: u64) -> Channel {
                Channel::new(1 + t % 2)
            }
        }
        let aperiodic = |wake| Agent {
            set: ChannelSet::new([1, 2]).unwrap(),
            wake,
            schedule: Box::new(Aperiodic),
            share_key: Some(5),
        };
        let horizon = 600;
        let sim = Simulation::new(vec![
            // A singleton whose period outlasts its read fills raw.
            cycling(1000, 0, None),
            // Two members reading 500 slots each: a 500-slot prefix.
            cycling(1000, 100, Some(1)),
            cycling(1000, 100, Some(1)),
            // A period inside the span: the full period, even though one
            // member reads only 100 slots.
            cycling(7, 0, Some(2)),
            cycling(7, 500, Some(2)),
            // Every member wakes at or after the horizon: nothing to read.
            cycling(9, 600, Some(3)),
            cycling(9, 900, Some(3)),
            // Two members reading 600 and 500 slots of a 1000-slot period
            // read each entry less than twice on average: raw.
            cycling(1000, 0, Some(4)),
            cycling(1000, 100, Some(4)),
            // No period hint: a prefix of the longest read.
            aperiodic(0),
            aperiodic(250),
            aperiodic(300),
        ]);
        let (group_of, prepared) = sim.prepare_groups(horizon);
        assert_eq!(group_of, [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5]);
        let decided: Vec<_> = prepared.iter().map(decision).collect();
        assert_eq!(
            decided,
            [
                None,
                Some(("prefix", 500)),
                Some(("period", 7)),
                None,
                None,
                Some(("prefix", 600)),
            ]
        );
        // Tables hold exactly the schedule's channels at their slots.
        for (agent, &g) in sim.agents().iter().zip(&group_of) {
            let mut want = [0u64; 40];
            let mut got = [0u64; 40];
            agent.schedule.fill_channels(3, &mut want);
            prepared[g].fill(3, &mut got);
            assert_eq!(got, want, "group {g}");
        }
        // The late group is never filled, and the run does not panic.
        let report = sim.run(horizon);
        assert!(report.missed.iter().any(|m| m.pair == (5, 6)));
        assert_eq!(
            report,
            sim.run_per_pair_reference(horizon, &ParallelConfig::default())
        );
    }

    #[test]
    fn share_keys_do_not_change_the_report() {
        // The deduped engine must produce the identical report with the
        // share keys stripped (every agent compiled separately).
        let n = 48u64;
        let horizon = 6_000u64;
        let keyed = Simulation::new(crate::workload::clustered_agents(
            Algorithm::Ours,
            n,
            4,
            60,
            5,
            300,
        ));
        assert!(keyed.schedule_groups() < 60);
        let mut stripped_agents =
            crate::workload::clustered_agents(Algorithm::Ours, n, 4, 60, 5, 300);
        for a in &mut stripped_agents {
            a.share_key = None;
        }
        let stripped = Simulation::new(stripped_agents);
        assert_eq!(stripped.schedule_groups(), 60);
        for mode in [
            ResolveMode::Auto,
            ResolveMode::PairMajor,
            ResolveMode::BucketScan,
        ] {
            for threads in [1usize, 4] {
                let cfg = EngineConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    mode,
                    plane: PlanePolicy::Auto,
                    faults: None,
                };
                assert_eq!(
                    keyed.run_engine(horizon, &cfg),
                    stripped.run_engine(horizon, &cfg),
                    "dedupe changed the report ({mode:?}, {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn random_agents_never_share() {
        // Seeded-random schedules differ per agent even on equal sets —
        // share_key must refuse them.
        assert_eq!(
            crate::workload::share_key(
                Algorithm::Random,
                16,
                &ChannelSet::new(vec![1, 2, 3]).unwrap()
            ),
            None
        );
        let agents = crate::workload::clustered_agents(Algorithm::Random, 16, 4, 24, 3, 64);
        let sim = Simulation::new(agents);
        assert_eq!(sim.schedule_groups(), 24);
    }

    #[test]
    fn share_keys_distinguish_universes() {
        // The same set under different universe sizes yields different
        // schedules (word lengths and primes scale with n), so the keys
        // must differ — equal keys would share a wrong compiled table.
        let set = ChannelSet::new(vec![1, 2, 3, 4]).unwrap();
        let k64 = crate::workload::share_key(Algorithm::Ours, 64, &set).unwrap();
        let k128 = crate::workload::share_key(Algorithm::Ours, 128, &set).unwrap();
        assert_ne!(k64, k128);
        // And different algorithms on the same (n, set) never collide.
        let crseq = crate::workload::share_key(Algorithm::Crseq, 64, &set).unwrap();
        assert_ne!(k64, crseq);
    }

    #[test]
    fn meeting_map_accessors() {
        let map = MeetingMap::from_entries(vec![((2, 5), 40), ((0, 1), 7)]);
        assert_eq!(map.get(0, 1), Some(7));
        assert_eq!(map.get(1, 0), Some(7));
        assert_eq!(map.get(5, 2), Some(40));
        assert_eq!(map.get(0, 2), None);
        assert!(map.contains(2, 5));
        assert_eq!(map.len(), 2);
        assert!(!map.is_empty());
        // Iteration is sorted regardless of insertion order.
        let pairs: Vec<(usize, usize)> = map.iter().map(|(p, _)| p).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 5)]);
        assert_eq!(map.as_slice(), &[((0, 1), 7), ((2, 5), 40)]);
    }

    #[test]
    fn horizon_cuts_off() {
        let a = agent(Algorithm::Ours, 16, &[1, 5, 9], 0, 0);
        let b = agent(Algorithm::Ours, 16, &[5, 12], 0, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(1);
        // With a 1-slot horizon the pair may or may not have met; report
        // must be internally consistent either way.
        assert_eq!(report.all_met(), report.first_meeting.contains(0, 1));
        // A zero horizon reports every pair missed — fault-free runs
        // always tag misses as horizon exhaustion.
        let empty = sim.run(0);
        assert!(empty.first_meeting.is_empty());
        assert_eq!(
            empty.missed,
            vec![MissedPair {
                pair: (0, 1),
                cause: MissCause::HorizonExhausted,
            }]
        );
    }

    #[test]
    fn quiet_fault_plan_is_observationally_no_plan() {
        let sets: [&[u64]; 4] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 12, 200);
        let sim = Simulation::new(agents);
        let clean = sim.run(3_000);
        let quiet = sim.run_engine(
            3_000,
            &EngineConfig {
                faults: Some(FaultPlan::new(99, 64, 0, 0, 3_000)),
                ..EngineConfig::default()
            },
        );
        assert_eq!(clean, quiet);
    }

    #[test]
    fn outage_masks_delay_or_deny_meetings_identically_everywhere() {
        // Heavy outages must never *create* meetings (a faulted meeting
        // slot is also a clean meeting slot on an available channel), and
        // every (mode × thread count) plus the per-pair reference must
        // agree bit-for-bit on the faulted report.
        let sets: [&[u64]; 5] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11], &[2, 9, 11]];
        let agents = staggered_population(&[Algorithm::Ours, Algorithm::Crseq], &sets, 12, 113);
        let sim = Simulation::new(agents);
        let horizon = 3_333u64;
        let plan = FaultPlan::new(7, 48, 300, 0, horizon);
        let clean = sim.run(horizon);
        let base_cfg = EngineConfig {
            parallel: ParallelConfig::with_threads(1),
            mode: ResolveMode::Auto,
            plane: PlanePolicy::Auto,
            faults: Some(plan),
        };
        let faulted = sim.run_engine(horizon, &base_cfg);
        for (pair, t) in faulted.first_meeting.iter() {
            assert!(
                plan.channel_available(
                    sim.agents()[pair.0]
                        .schedule
                        .channel_at(t - sim.agents()[pair.0].wake)
                        .into(),
                    t
                ),
                "pair {pair:?} met on a blacked-out channel at {t}"
            );
            let clean_t = clean.first_meeting.get(pair.0, pair.1).unwrap();
            assert!(t >= clean_t, "faults made pair {pair:?} meet earlier");
        }
        for mode in [
            ResolveMode::Auto,
            ResolveMode::PairMajor,
            ResolveMode::BucketScan,
        ] {
            for threads in [1usize, 2, 8] {
                let cfg = EngineConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    mode,
                    plane: PlanePolicy::Auto,
                    faults: Some(plan),
                };
                assert_eq!(
                    faulted,
                    sim.run_engine(horizon, &cfg),
                    "faulted report diverged: mode = {mode:?}, threads = {threads}"
                );
                assert_eq!(
                    faulted,
                    sim.run_per_pair_reference_with(horizon, &cfg),
                    "per-pair faulted reference diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn churn_retires_departed_pairs_with_the_departed_cause() {
        // Full churn: every agent gets a bounded window. Pairs whose
        // joint window closes before the horizon and never met must be
        // tagged Departed; the arena engine and the per-pair reference
        // must agree on both the tags and the meetings.
        let sets: [&[u64]; 6] = [&[1, 2], &[2, 3], &[3, 4], &[4, 5, 1], &[1, 3, 5], &[2, 5]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 6, 29);
        let sim = Simulation::new(agents);
        let horizon = 2_048u64;
        let plan = FaultPlan::new(1234, 64, 0, 1000, horizon);
        let cfg = EngineConfig {
            parallel: ParallelConfig::with_threads(2),
            mode: ResolveMode::Auto,
            plane: PlanePolicy::Auto,
            faults: Some(plan),
        };
        let report = sim.run_engine(horizon, &cfg);
        assert_eq!(report, sim.run_per_pair_reference_with(horizon, &cfg));
        for m in &report.missed {
            let (i, j) = m.pair;
            let close = plan.agent_window(i).depart.min(plan.agent_window(j).depart);
            let expected = if close < horizon {
                MissCause::Departed
            } else {
                MissCause::HorizonExhausted
            };
            assert_eq!(m.cause, expected, "pair {:?}", m.pair);
        }
        // The meetings that do happen land inside both windows.
        for ((i, j), t) in report.first_meeting.iter() {
            assert!(plan.agent_window(i).contains(t), "agent {i} not in play");
            assert!(plan.agent_window(j).contains(t), "agent {j} not in play");
        }
    }
}
