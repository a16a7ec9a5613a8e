//! Reputation tables (paper §3.1).
//!
//! Every node keeps, for every other node it has observed, two counters:
//! `ps` — the number of packets *sent to* that node for forwarding, and
//! `pf` — the number of packets that node actually *forwarded*. The
//! forwarding rate `fr = pf / ps` feeds the trust lookup (Fig. 1b) and the
//! `pf` counters feed the activity classification (§3.2).
//!
//! This is the hot data structure of the simulation — every game touches
//! a handful of observer→subject cells — and it is also the structure
//! that decides how large a network can be *instantiated*: reputation in
//! the CONFIDANT/CORE lineage is naturally sparse (a node only holds
//! opinions about nodes it has actually observed), so the backing store
//! adapts to the network size:
//!
//! * **dense** (`n <` [`SPARSE_CROSSOVER`]) — a flat `n × n` matrix of
//!   counter pairs (row = observer, column = subject). No hashing, one
//!   indexed load per lookup; O(n²) memory. This is the paper's scale
//!   (50-node tournaments, ≤ 130-node arenas) and the historical
//!   behavior, bit for bit.
//! * **sparse** (`n >=` [`SPARSE_CROSSOVER`]) — one open-addressed row
//!   per observer holding only the subjects that observer has actually
//!   observed. O(observed pairs) memory, a short linear probe per
//!   lookup, and row capacities that persist across
//!   [`ReputationMatrix::clear`] so warmed-up tournaments stay
//!   allocation-free (tests/zero_alloc.rs).
//!
//! Both backings sit behind one API and are *observationally
//! equivalent* (pinned by a property test in `tests/properties.rs`):
//! the same update sequence produces the same rates, aggregates and
//! counters, so seeded RNG streams never depend on the backing. Two
//! derived caches are maintained incrementally at update time so
//! lookups stay branch- and division-free:
//!
//! * the forwarding **rate** of every observed pair
//!   ([`ReputationMatrix::rate_or_unknown`] — [`UNKNOWN_RATE`] until the
//!   first observation), making [`crate::paths::path_rating`] a pure
//!   multiply loop;
//! * per-observer **row aggregates** (known-subject count and summed
//!   forwarded packets), making the activity average of §3.2
//!   ([`ReputationMatrix::mean_forwarded_of_known`]) O(1) instead of a
//!   row scan per forwarding decision.
//!
//! Only the raw counters are compared, across backings too; the caches
//! are checked against a rebuild from them by
//! [`ReputationMatrix::check_invariants`]. A matrix is per-generation
//! working state and has no serialized form.

use crate::NodeId;
use serde::{Deserialize, Serialize};

/// Forwarding rate assumed for nodes the rater has no data about (§3.1).
pub const UNKNOWN_RATE: f64 = 0.5;

/// Node count at and above which [`ReputationMatrix::new`] picks the
/// sparse backing. Below it the dense matrix is both smaller (no slot
/// overhead at the paper's near-full occupancy) and faster (no probe);
/// above it O(n²) zero-initialization and memory dominate. 256 keeps
/// every paper-scale arena (≤ 100 normal + 30 CSN) on the historical
/// dense path.
pub const SPARSE_CROSSOVER: usize = 256;

/// One observer→subject reputation record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepRecord {
    /// Packets the subject was asked to forward (observed by this observer).
    pub requests: u32,
    /// Packets the subject actually forwarded.
    pub forwarded: u32,
}

impl RepRecord {
    /// Forwarding rate `pf / ps`; `None` when the subject is unknown
    /// (no observed requests).
    #[inline]
    pub fn rate(&self) -> Option<f64> {
        (self.requests > 0).then(|| f64::from(self.forwarded) / f64::from(self.requests))
    }
}

/// Slot marker for an empty sparse-row cell. Node ids are dense indices
/// well below `u32::MAX`, so the sentinel can never collide with a key.
const EMPTY_KEY: u32 = u32::MAX;

/// Initial slot count of a sparse row on its first insertion.
const ROW_INITIAL_CAPACITY: usize = 8;

/// One observer's open-addressed reputation row: parallel slot arrays
/// (subject key, raw record, cached rate) with power-of-two capacity,
/// linear probing and a ≤ 1/2 load factor. [`SparseRow::clear`] empties
/// the row without releasing capacity, so a matrix that is cleared every
/// generation (§4.4 Step 1) stops allocating once each row has reached
/// its high-water subject count.
#[derive(Debug, Clone, Default)]
struct SparseRow {
    /// Subject id per slot; [`EMPTY_KEY`] marks a free slot.
    keys: Vec<u32>,
    /// Raw counters per slot (parallel to `keys`).
    records: Vec<RepRecord>,
    /// Cached forwarding rate per slot (parallel to `keys`).
    rates: Vec<f64>,
    /// Occupied slots.
    len: usize,
}

impl SparseRow {
    /// Preferred slot of `key` for the current capacity (Fibonacci
    /// hashing: multiply, take high bits, mask).
    #[inline]
    fn home_slot(key: u32, mask: usize) -> usize {
        ((u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask
    }

    /// The slot holding `key`, or `None`.
    #[inline]
    fn find(&self, key: u32) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut slot = Self::home_slot(key, mask);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(slot);
            }
            if k == EMPTY_KEY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot holding `key`, inserting a fresh default cell (and
    /// growing the row) when absent.
    fn find_or_insert(&mut self, key: u32) -> usize {
        if self.keys.is_empty() || (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = Self::home_slot(key, mask);
        loop {
            let k = self.keys[slot];
            if k == key {
                return slot;
            }
            if k == EMPTY_KEY {
                self.keys[slot] = key;
                self.records[slot] = RepRecord::default();
                self.rates[slot] = UNKNOWN_RATE;
                self.len += 1;
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the slot count (or allocates the initial block) and
    /// rehashes every occupied slot.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(ROW_INITIAL_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_records = std::mem::replace(&mut self.records, vec![RepRecord::default(); new_cap]);
        let old_rates = std::mem::replace(&mut self.rates, vec![UNKNOWN_RATE; new_cap]);
        let mask = new_cap - 1;
        for (i, key) in old_keys.into_iter().enumerate() {
            if key == EMPTY_KEY {
                continue;
            }
            let mut slot = Self::home_slot(key, mask);
            while self.keys[slot] != EMPTY_KEY {
                slot = (slot + 1) & mask;
            }
            self.keys[slot] = key;
            self.records[slot] = old_records[i];
            self.rates[slot] = old_rates[i];
        }
    }

    /// Empties the row, keeping its capacity.
    fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
    }

    /// Removes `key`'s cell (backward-shift deletion, so later probes
    /// in the same cluster stay reachable), returning its record.
    fn remove(&mut self, key: u32) -> Option<RepRecord> {
        let mut slot = self.find(key)?;
        let removed = self.records[slot];
        let mask = self.keys.len() - 1;
        self.keys[slot] = EMPTY_KEY;
        let mut next = (slot + 1) & mask;
        while self.keys[next] != EMPTY_KEY {
            let home = Self::home_slot(self.keys[next], mask);
            // Shift `next` into the vacated slot unless its home lies
            // cyclically inside (slot, next] — then it is already as
            // close to home as the probe sequence allows.
            let in_cluster_tail = if slot <= next {
                home > slot && home <= next
            } else {
                home > slot || home <= next
            };
            if !in_cluster_tail {
                self.keys[slot] = self.keys[next];
                self.records[slot] = self.records[next];
                self.rates[slot] = self.rates[next];
                self.keys[next] = EMPTY_KEY;
                slot = next;
            }
            next = (next + 1) & mask;
        }
        self.len -= 1;
        Some(removed)
    }

    /// Occupied `(subject, record, rate)` cells in subject order — the
    /// deterministic iteration order used by serialization and the
    /// invariant checker (slot order depends on insertion history).
    fn sorted_cells(&self) -> Vec<(u32, RepRecord, f64)> {
        let mut cells: Vec<(u32, RepRecord, f64)> = self
            .keys
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != EMPTY_KEY)
            .map(|(i, &k)| (k, self.records[i], self.rates[i]))
            .collect();
        cells.sort_unstable_by_key(|&(s, _, _)| s);
        cells
    }

    /// Heap bytes held by the row's slot arrays.
    fn resident_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.records.capacity() * std::mem::size_of::<RepRecord>()
            + self.rates.capacity() * std::mem::size_of::<f64>()
    }
}

/// The storage behind a [`ReputationMatrix`]; see the module docs for
/// the crossover rule.
#[derive(Debug, Clone)]
enum Backing {
    /// Row-major `n × n` records + cached rates; the diagonal stays zero
    /// (nodes never rate themselves).
    Dense {
        /// Raw counters, `observer * n + subject`.
        records: Vec<RepRecord>,
        /// Cached forwarding rate per record ([`UNKNOWN_RATE`] while
        /// unknown), maintained on every counter update.
        rates: Vec<f64>,
    },
    /// One open-addressed row per observer.
    Sparse(Vec<SparseRow>),
}

/// Observer × subject reputation store for `n` nodes (dense below
/// [`SPARSE_CROSSOVER`], sparse at and above it).
#[derive(Debug, Clone)]
pub struct ReputationMatrix {
    n: usize,
    backing: Backing,
    /// Per-observer count of known subjects (`requests > 0`).
    row_known: Vec<u32>,
    /// Per-observer sum of `forwarded` over known subjects (the
    /// numerator of §3.2's activity average `av`).
    row_forwarded: Vec<u64>,
}

impl ReputationMatrix {
    /// Creates an all-unknown matrix for `n` nodes, choosing the backing
    /// by the [`SPARSE_CROSSOVER`] rule.
    pub fn new(n: usize) -> Self {
        if n >= SPARSE_CROSSOVER {
            Self::new_sparse(n)
        } else {
            Self::new_dense(n)
        }
    }

    /// Creates an all-unknown matrix on the dense backing regardless of
    /// `n` (tests, benchmarks, and memory comparisons).
    pub fn new_dense(n: usize) -> Self {
        ReputationMatrix {
            n,
            backing: Backing::Dense {
                records: vec![RepRecord::default(); n * n],
                rates: vec![UNKNOWN_RATE; n * n],
            },
            row_known: vec![0; n],
            row_forwarded: vec![0; n],
        }
    }

    /// Creates an all-unknown matrix on the sparse backing regardless of
    /// `n` (tests, benchmarks, and memory comparisons).
    pub fn new_sparse(n: usize) -> Self {
        ReputationMatrix {
            n,
            backing: Backing::Sparse(vec![SparseRow::default(); n]),
            row_known: vec![0; n],
            row_forwarded: vec![0; n],
        }
    }

    /// `true` when the matrix uses the sparse (O(observed-pairs))
    /// backing.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backing, Backing::Sparse(_))
    }

    /// Heap bytes resident in the backing store and the row aggregates —
    /// the number PERFORMANCE.md's scaling table reports. Dense cost is
    /// O(n²) up front; sparse cost is O(observed pairs) (times a small
    /// open-addressing factor) plus O(n) row headers.
    pub fn resident_bytes(&self) -> usize {
        let backing = match &self.backing {
            Backing::Dense { records, rates } => {
                records.capacity() * std::mem::size_of::<RepRecord>()
                    + rates.capacity() * std::mem::size_of::<f64>()
            }
            Backing::Sparse(rows) => {
                rows.capacity() * std::mem::size_of::<SparseRow>()
                    + rows.iter().map(SparseRow::resident_bytes).sum::<usize>()
            }
        };
        backing
            + self.row_known.capacity() * std::mem::size_of::<u32>()
            + self.row_forwarded.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of observer→subject pairs with at least one observation.
    pub fn observed_pairs(&self) -> usize {
        self.row_known.iter().map(|&k| k as usize).sum()
    }

    /// Overwrites the raw cell (o, s) and repairs the caches for it —
    /// deliberately permissive (no `pf <= ps` or diagonal validation) so
    /// the corruption tests can materialize state for
    /// [`ReputationMatrix::check_invariants`] to reject.
    #[cfg(test)]
    fn set_raw(&mut self, o: usize, s: usize, r: RepRecord) {
        let old = self.record_raw(o, s);
        if old.requests > 0 {
            self.row_known[o] -= 1;
            self.row_forwarded[o] -= u64::from(old.forwarded);
        }
        if r.requests > 0 {
            self.row_known[o] += 1;
            self.row_forwarded[o] += u64::from(r.forwarded);
        }
        let (record, rate) = Self::cell_mut(&mut self.backing, self.n, o, s);
        *record = r;
        *rate = r.rate().unwrap_or(UNKNOWN_RATE);
    }

    /// Raw record at (o, s) by index (default when never touched).
    #[inline]
    fn record_raw(&self, o: usize, s: usize) -> RepRecord {
        match &self.backing {
            Backing::Dense { records, .. } => records[o * self.n + s],
            Backing::Sparse(rows) => rows[o]
                .find(s as u32)
                .map(|slot| rows[o].records[slot])
                .unwrap_or_default(),
        }
    }

    /// Mutable (record, cached rate) refs for cell (o, s), materializing
    /// a sparse cell when absent. An associated function of the backing
    /// so callers can keep the row aggregates independently borrowed.
    #[inline]
    fn cell_mut(backing: &mut Backing, n: usize, o: usize, s: usize) -> (&mut RepRecord, &mut f64) {
        match backing {
            Backing::Dense { records, rates } => {
                let i = o * n + s;
                (&mut records[i], &mut rates[i])
            }
            Backing::Sparse(rows) => {
                let row = &mut rows[o];
                let slot = row.find_or_insert(s as u32);
                (&mut row.records[slot], &mut row.rates[slot])
            }
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, observer: NodeId, subject: NodeId) -> (usize, usize) {
        let (o, s) = (observer.index(), subject.index());
        debug_assert!(o < self.n && s < self.n, "node id out of range");
        (o, s)
    }

    /// The record `observer` holds about `subject`.
    #[inline]
    pub fn record(&self, observer: NodeId, subject: NodeId) -> RepRecord {
        let (o, s) = self.idx(observer, subject);
        self.record_raw(o, s)
    }

    /// Records that `observer` saw `subject` forward a packet
    /// (`ps += 1`, `pf += 1`).
    ///
    /// # Panics
    /// Panics (debug) if observer == subject — nodes never rate themselves.
    #[inline]
    pub fn record_forward(&mut self, observer: NodeId, subject: NodeId) {
        debug_assert_ne!(observer, subject, "self-rating is a logic error");
        let (o, s) = self.idx(observer, subject);
        let (r, rate) = Self::cell_mut(&mut self.backing, self.n, o, s);
        if r.requests == 0 {
            self.row_known[o] += 1;
        }
        r.requests += 1;
        r.forwarded += 1;
        *rate = f64::from(r.forwarded) / f64::from(r.requests);
        self.row_forwarded[o] += 1;
    }

    /// Records that `observer` saw (or was told about) `subject`
    /// discarding a packet (`ps += 1`).
    #[inline]
    pub fn record_drop(&mut self, observer: NodeId, subject: NodeId) {
        debug_assert_ne!(observer, subject, "self-rating is a logic error");
        let (o, s) = self.idx(observer, subject);
        let (r, rate) = Self::cell_mut(&mut self.backing, self.n, o, s);
        if r.requests == 0 {
            self.row_known[o] += 1;
        }
        r.requests += 1;
        *rate = f64::from(r.forwarded) / f64::from(r.requests);
    }

    /// Forwarding rate of `subject` as known by `observer`; `None` when
    /// unknown.
    #[inline]
    pub fn rate(&self, observer: NodeId, subject: NodeId) -> Option<f64> {
        let (o, s) = self.idx(observer, subject);
        match &self.backing {
            Backing::Dense { records, rates } => {
                let i = o * self.n + s;
                (records[i].requests > 0).then(|| rates[i])
            }
            Backing::Sparse(rows) => {
                let row = &rows[o];
                row.find(s as u32)
                    .filter(|&slot| row.records[slot].requests > 0)
                    .map(|slot| row.rates[slot])
            }
        }
    }

    /// Forwarding rate of `subject` as known by `observer`, with
    /// [`UNKNOWN_RATE`] standing in for unknown subjects — the hot-path
    /// lookup behind [`crate::paths::path_rating`]: one cached load on
    /// the dense backing, one short probe on the sparse one; no
    /// division either way.
    #[inline]
    pub fn rate_or_unknown(&self, observer: NodeId, subject: NodeId) -> f64 {
        let (o, s) = self.idx(observer, subject);
        match &self.backing {
            Backing::Dense { rates, .. } => rates[o * self.n + s],
            Backing::Sparse(rows) => {
                let row = &rows[o];
                match row.find(s as u32) {
                    Some(slot) => row.rates[slot],
                    None => UNKNOWN_RATE,
                }
            }
        }
    }

    /// Everything a forwarding decision needs about `subject` in one
    /// cell access: the rate (`None` when unknown) and the observed
    /// forwarded-packet count (§3.2's activity datum).
    #[inline]
    pub fn rate_and_forwarded(&self, observer: NodeId, subject: NodeId) -> (Option<f64>, u32) {
        let (o, s) = self.idx(observer, subject);
        match &self.backing {
            Backing::Dense { records, rates } => {
                let i = o * self.n + s;
                let rec = records[i];
                ((rec.requests > 0).then(|| rates[i]), rec.forwarded)
            }
            Backing::Sparse(rows) => {
                let row = &rows[o];
                match row.find(s as u32) {
                    Some(slot) => {
                        let rec = row.records[slot];
                        ((rec.requests > 0).then(|| row.rates[slot]), rec.forwarded)
                    }
                    None => (None, 0),
                }
            }
        }
    }

    /// `true` when `observer` has at least one observation about
    /// `subject`.
    #[inline]
    pub fn knows(&self, observer: NodeId, subject: NodeId) -> bool {
        self.record(observer, subject).requests > 0
    }

    /// Number of packets `observer` knows `subject` to have forwarded
    /// (the activity datum of §3.2).
    #[inline]
    pub fn forwarded_count(&self, observer: NodeId, subject: NodeId) -> u32 {
        self.record(observer, subject).forwarded
    }

    /// Mean forwarded-packet count over all nodes known to `observer`
    /// (the `av` of §3.2); `None` when the observer knows nobody.
    ///
    /// O(1): reads the incrementally maintained row aggregates instead
    /// of scanning the observer's row per forwarding decision.
    #[inline]
    pub fn mean_forwarded_of_known(&self, observer: NodeId) -> Option<f64> {
        let o = observer.index();
        let known = u64::from(self.row_known[o]);
        (known > 0).then(|| self.row_forwarded[o] as f64 / known as f64)
    }

    /// Number of subjects known to `observer`.
    #[inline]
    pub fn known_count(&self, observer: NodeId) -> usize {
        self.row_known[observer.index()] as usize
    }

    /// Merges externally supplied observation counts into
    /// `observer`'s record about `subject` — the entry point for
    /// second-hand reputation ([`crate::gossip`]).
    ///
    /// # Panics
    /// Panics if `forwarded > requests` (would corrupt the `pf <= ps`
    /// invariant) or (debug) if observer == subject.
    pub fn absorb(&mut self, observer: NodeId, subject: NodeId, requests: u32, forwarded: u32) {
        assert!(forwarded <= requests, "absorb would set pf > ps");
        debug_assert_ne!(observer, subject, "self-rating is a logic error");
        if requests == 0 {
            // Nothing observed, nothing to merge (and no reason to
            // materialize a sparse cell).
            return;
        }
        let (o, s) = self.idx(observer, subject);
        let (r, rate) = Self::cell_mut(&mut self.backing, self.n, o, s);
        if r.requests == 0 {
            self.row_known[o] += 1;
        }
        r.requests += requests;
        r.forwarded += forwarded;
        *rate = f64::from(r.forwarded) / f64::from(r.requests);
        self.row_forwarded[o] += u64::from(forwarded);
    }

    /// Erases every observation *about* `subject`, as if the node had
    /// re-entered the network under a fresh identity — the whitewashing
    /// attack of the CONFIDANT literature. Each observer's record of
    /// `subject` reverts to unknown; observations the subject holds
    /// about others are untouched (a rejoining node keeps its own
    /// memory in this model, only its public history resets).
    pub fn forget_subject(&mut self, subject: NodeId) {
        let s = subject.index();
        debug_assert!(s < self.n, "node id out of range");
        for o in 0..self.n {
            let old = match &mut self.backing {
                Backing::Dense { records, rates } => {
                    let i = o * self.n + s;
                    let old = records[i];
                    records[i] = RepRecord::default();
                    rates[i] = UNKNOWN_RATE;
                    old
                }
                Backing::Sparse(rows) => rows[o].remove(s as u32).unwrap_or_default(),
            };
            if old.requests > 0 {
                self.row_known[o] -= 1;
                self.row_forwarded[o] -= u64::from(old.forwarded);
            }
        }
    }

    /// Resets every record to unknown. Called at the start of each
    /// generation's evaluation (§4.4, Step 1: "Clear the memory
    /// (reputation/activity data) of all N players"). Sparse rows keep
    /// their capacity, so steady-state generations never reallocate.
    pub fn clear(&mut self) {
        match &mut self.backing {
            Backing::Dense { records, rates } => {
                records.fill(RepRecord::default());
                rates.fill(UNKNOWN_RATE);
            }
            Backing::Sparse(rows) => {
                for row in rows {
                    row.clear();
                }
            }
        }
        self.row_known.fill(0);
        self.row_forwarded.fill(0);
    }

    /// Occupied `(observer, subject, record)` cells in (observer,
    /// subject) order — the deterministic iteration behind cross-backing
    /// equality. Dense matrices report only non-default cells, so
    /// observationally equal matrices yield identical lists regardless
    /// of backing.
    fn sorted_entries(&self) -> Vec<EntryRepr> {
        let mut out = Vec::new();
        match &self.backing {
            Backing::Dense { records, .. } => {
                for o in 0..self.n {
                    for s in 0..self.n {
                        let r = records[o * self.n + s];
                        if r != RepRecord::default() {
                            out.push(EntryRepr {
                                observer: o as u32,
                                subject: s as u32,
                                requests: r.requests,
                                forwarded: r.forwarded,
                            });
                        }
                    }
                }
            }
            Backing::Sparse(rows) => {
                for (o, row) in rows.iter().enumerate() {
                    for (s, r, _) in row.sorted_cells() {
                        if r != RepRecord::default() {
                            out.push(EntryRepr {
                                observer: o as u32,
                                subject: s,
                                requests: r.requests,
                                forwarded: r.forwarded,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks the structural invariants (used by tests and debug builds):
    /// `pf ≤ ps` everywhere, an all-zero diagonal, derived caches
    /// (rates, row aggregates) bit-identical to a from-scratch rebuild,
    /// and — on the sparse backing — well-formed rows (no duplicate or
    /// out-of-range keys, occupancy counts in sync).
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Backing::Sparse(rows) = &self.backing {
            for (o, row) in rows.iter().enumerate() {
                let cells = row.sorted_cells();
                if cells.len() != row.len {
                    return Err(format!(
                        "row n{o} occupancy {} disagrees with its len {}",
                        cells.len(),
                        row.len
                    ));
                }
                for window in cells.windows(2) {
                    if window[0].0 == window[1].0 {
                        return Err(format!("duplicate key n{} in row n{o}", window[0].0));
                    }
                }
                for &(s, r, _) in &cells {
                    if s as usize >= self.n {
                        return Err(format!("row n{o} holds out-of-range subject n{s}"));
                    }
                    if r == RepRecord::default() {
                        return Err(format!("row n{o} holds an empty cell for subject n{s}"));
                    }
                }
            }
        }
        for o in 0..self.n {
            let (mut known, mut forwarded) = (0u32, 0u64);
            for s in 0..self.n {
                let r = self.record_raw(o, s);
                if r.forwarded > r.requests {
                    return Err(format!("pf > ps for observer n{o} subject n{s}: {r:?}"));
                }
                if o == s && r != RepRecord::default() {
                    return Err(format!("non-empty self-record at n{o}"));
                }
                let expected_rate = if r.requests > 0 {
                    known += 1;
                    forwarded += u64::from(r.forwarded);
                    f64::from(r.forwarded) / f64::from(r.requests)
                } else {
                    UNKNOWN_RATE
                };
                let cached = self.rate_or_unknown(NodeId::from(o), NodeId::from(s));
                if cached.to_bits() != expected_rate.to_bits() {
                    return Err(format!(
                        "stale rate cache for observer n{o} subject n{s}: {cached} vs {expected_rate}"
                    ));
                }
            }
            if self.row_known[o] != known || self.row_forwarded[o] != forwarded {
                return Err(format!(
                    "stale row aggregates for observer n{o}: known {} vs {known}, forwarded {} vs {forwarded}",
                    self.row_known[o], self.row_forwarded[o]
                ));
            }
        }
        Ok(())
    }
}

impl PartialEq for ReputationMatrix {
    /// Counters are the state; the caches (and the backing choice) are
    /// derived from them. Two matrices holding the same observations are
    /// equal whether stored densely or sparsely.
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        match (&self.backing, &other.backing) {
            (Backing::Dense { records: a, .. }, Backing::Dense { records: b, .. }) => a == b,
            _ => self.sorted_entries() == other.sorted_entries(),
        }
    }
}

impl Eq for ReputationMatrix {}

/// One non-empty cell, as [`ReputationMatrix::sorted_entries`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryRepr {
    /// Observer node id.
    observer: u32,
    /// Subject node id.
    subject: u32,
    /// Raw `ps` counter.
    requests: u32,
    /// Raw `pf` counter.
    forwarded: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> NodeId {
        NodeId(v)
    }

    /// Every matrix test runs against both backings.
    fn both(n: usize) -> [ReputationMatrix; 2] {
        [
            ReputationMatrix::new_dense(n),
            ReputationMatrix::new_sparse(n),
        ]
    }

    #[test]
    fn fresh_matrix_is_all_unknown() {
        for m in both(4) {
            assert_eq!(m.len(), 4);
            assert!(!m.knows(id(0), id(1)));
            assert_eq!(m.rate(id(0), id(1)), None);
            assert_eq!(m.rate_or_unknown(id(0), id(1)), UNKNOWN_RATE);
            assert_eq!(m.mean_forwarded_of_known(id(0)), None);
            assert_eq!(m.known_count(id(2)), 0);
            assert_eq!(m.observed_pairs(), 0);
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn crossover_selects_the_backing() {
        assert!(!ReputationMatrix::new(SPARSE_CROSSOVER - 1).is_sparse());
        assert!(ReputationMatrix::new(SPARSE_CROSSOVER).is_sparse());
        assert!(!ReputationMatrix::new_dense(1000).is_sparse());
        assert!(ReputationMatrix::new_sparse(4).is_sparse());
    }

    #[test]
    fn forwarding_rate_matches_fig1b_example() {
        // Fig 1b: forwarding rate 0.95 -> 19 of 20 packets forwarded.
        for mut m in both(2) {
            for _ in 0..19 {
                m.record_forward(id(1), id(0));
            }
            m.record_drop(id(1), id(0));
            assert!((m.rate(id(1), id(0)).unwrap() - 0.95).abs() < 1e-12);
            assert!(m.knows(id(1), id(0)));
            assert!(!m.knows(id(0), id(1)), "reputation is directional");
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn drops_only_give_rate_zero() {
        for mut m in both(2) {
            m.record_drop(id(0), id(1));
            m.record_drop(id(0), id(1));
            assert_eq!(m.rate(id(0), id(1)), Some(0.0));
            assert_eq!(m.forwarded_count(id(0), id(1)), 0);
        }
    }

    #[test]
    fn mean_forwarded_counts_only_known_nodes() {
        for mut m in both(4) {
            // Node 0 knows node 1 (3 forwards) and node 2 (1 forward, 1
            // drop); node 3 is unknown.
            for _ in 0..3 {
                m.record_forward(id(0), id(1));
            }
            m.record_forward(id(0), id(2));
            m.record_drop(id(0), id(2));
            assert_eq!(m.mean_forwarded_of_known(id(0)), Some(2.0));
            assert_eq!(m.known_count(id(0)), 2);
            assert_eq!(m.observed_pairs(), 2);
        }
    }

    #[test]
    fn forget_subject_erases_only_that_column() {
        for mut m in both(4) {
            m.record_forward(id(0), id(1));
            m.record_drop(id(0), id(1));
            m.record_forward(id(2), id(1));
            m.record_forward(id(0), id(3));
            m.forget_subject(id(1));
            assert!(!m.knows(id(0), id(1)));
            assert!(!m.knows(id(2), id(1)));
            assert_eq!(m.rate(id(0), id(1)), None);
            assert_eq!(m.rate_or_unknown(id(2), id(1)), UNKNOWN_RATE);
            // Unrelated observations survive, aggregates stay in sync.
            assert!(m.knows(id(0), id(3)));
            assert_eq!(m.known_count(id(0)), 1);
            assert_eq!(m.mean_forwarded_of_known(id(0)), Some(1.0));
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn forget_subject_of_unknown_node_is_a_no_op() {
        for mut m in both(3) {
            m.record_forward(id(0), id(1));
            let before = m.clone();
            m.forget_subject(id(2));
            assert_eq!(m, before);
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn sparse_remove_keeps_probe_clusters_reachable() {
        // Fill a sparse row well past several grow cycles, then delete
        // every other subject and verify the survivors are all still
        // findable (backward-shift deletion must not orphan cluster
        // tails) and the invariant checker stays green.
        let n = 64;
        let mut m = ReputationMatrix::new_sparse(n);
        for s in 1..n {
            for _ in 0..s {
                m.record_forward(id(0), id(s as u32));
            }
        }
        for s in (1..n).step_by(2) {
            m.forget_subject(id(s as u32));
        }
        for s in 1..n {
            let rec = m.record(id(0), id(s as u32));
            if s % 2 == 1 {
                assert_eq!(rec, RepRecord::default(), "n{s} should be forgotten");
            } else {
                assert_eq!(rec.forwarded, s as u32, "n{s} lost its record");
            }
        }
        assert_eq!(m.known_count(id(0)), (n - 1) / 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn clear_resets_everything() {
        for mut m in both(3) {
            m.record_forward(id(0), id(1));
            m.record_drop(id(2), id(1));
            m.clear();
            assert_eq!(m, ReputationMatrix::new(3));
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn sparse_clear_keeps_capacity() {
        let mut m = ReputationMatrix::new_sparse(16);
        for s in 1..16u32 {
            m.record_forward(id(0), id(s));
        }
        let warm = m.resident_bytes();
        m.clear();
        assert_eq!(m.resident_bytes(), warm, "clear must not shrink rows");
        assert_eq!(m.observed_pairs(), 0);
    }

    #[test]
    fn invariant_checker_catches_corruption() {
        let mut m = ReputationMatrix::new(2);
        m.record_forward(id(0), id(1));
        assert!(m.check_invariants().is_ok());
        // Corrupt: forwarded > requests.
        let mut bad = m.clone();
        bad.set_raw(
            0,
            1,
            RepRecord {
                requests: 1,
                forwarded: 5,
            },
        );
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn sparse_invariant_checker_catches_corruption() {
        let mut bad = ReputationMatrix::new_sparse(2);
        bad.record_forward(id(0), id(1));
        bad.set_raw(
            0,
            1,
            RepRecord {
                requests: 1,
                forwarded: 5,
            },
        );
        assert!(bad.check_invariants().unwrap_err().contains("pf > ps"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "self-rating")]
    fn self_rating_panics_in_debug() {
        let mut m = ReputationMatrix::new(2);
        m.record_forward(id(1), id(1));
    }

    #[test]
    fn cross_backing_equality_agrees() {
        let mut d = ReputationMatrix::new_dense(6);
        let mut s = ReputationMatrix::new_sparse(6);
        for m in [&mut d, &mut s] {
            m.record_forward(id(1), id(4));
            m.record_drop(id(1), id(2));
            m.absorb(id(5), id(0), 4, 3);
        }
        assert_eq!(d, s);
        assert_eq!(s, d);
        // And their canonical entry lists match.
        assert_eq!(d.sorted_entries(), s.sorted_entries());
    }

    #[test]
    fn absorb_zero_is_a_no_op() {
        for mut m in both(3) {
            m.absorb(id(0), id(1), 0, 0);
            assert!(!m.knows(id(0), id(1)));
            assert_eq!(m, ReputationMatrix::new(3));
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn sparse_rows_survive_growth() {
        // Push one row through several capacity doublings and verify
        // every cell survives the rehashes.
        let mut m = ReputationMatrix::new_sparse(200);
        for s in 1..200u32 {
            for _ in 0..(s % 5) {
                m.record_forward(id(0), id(s));
            }
            if s % 3 == 0 {
                m.record_drop(id(0), id(s));
            }
        }
        m.check_invariants().unwrap();
        for s in 1..200u32 {
            let r = m.record(id(0), id(s));
            assert_eq!(r.forwarded, s % 5, "subject {s}");
            assert_eq!(r.requests, s % 5 + u32::from(s % 3 == 0), "subject {s}");
        }
    }

    #[test]
    fn sparse_memory_stays_o_observed_pairs() {
        let sparse_empty = ReputationMatrix::new_sparse(1000).resident_bytes();
        let dense = ReputationMatrix::new_dense(1000).resident_bytes();
        assert!(
            sparse_empty * 100 < dense,
            "empty sparse {sparse_empty}B vs dense {dense}B"
        );
        // Paper-style traffic: each of the 1000 observers knows ~50
        // subjects.
        let mut m = ReputationMatrix::new_sparse(1000);
        for o in 0..1000u32 {
            for k in 1..=50u32 {
                m.record_forward(id(o), id((o + k) % 1000));
            }
        }
        let loaded = m.resident_bytes();
        assert!(
            loaded * 5 < dense,
            "50-of-1000 occupancy sparse {loaded}B vs dense {dense}B"
        );
    }
}
