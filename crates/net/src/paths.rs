//! The random-path model (paper §3.1 and §6.1, Tables 2–3).
//!
//! When a node plays its own game it must reach a random destination
//! through randomly drawn intermediate nodes:
//!
//! 1. a *path length* (hop count, 2–10) is drawn from the mode-specific
//!    distribution of Table 2 (*shorter* or *longer* path mode);
//! 2. the *number of alternative paths* of that length (1–3) is drawn
//!    from the hop-bucket distribution of Table 3;
//! 3. each candidate path is filled with distinct random intermediates;
//! 4. the path with the best *rating* — the product of the known
//!    forwarding rates of its nodes, 0.5 for unknown nodes — is selected
//!    (§3.1).
//!
//! A path of `h` hops crosses `h − 1` intermediate nodes (2 hops =
//! source → relay → destination).
//!
//! Table 2's numbers are *per hop count* probabilities (the only reading
//! under which both columns sum to 1; see DESIGN.md §1).

use crate::{NodeId, ReputationMatrix};
use ahn_stats::CdfTable;
use rand::Rng;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

pub use crate::reputation::UNKNOWN_RATE;

/// The two path modes of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathMode {
    /// Higher probability of short paths (Tab. 2, left column).
    Shorter,
    /// Higher probability of long paths (Tab. 2, right column).
    Longer,
}

impl std::fmt::Display for PathMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PathMode::Shorter => "SP",
            PathMode::Longer => "LP",
        })
    }
}

/// Distribution over hop counts (path lengths).
///
/// Sampling goes through a [`CdfTable`] precomputed at construction
/// time: one uniform draw, one ordered comparison per category, and —
/// by the table's exact-threshold construction — the same category the
/// historical linear CDF walk would have returned for every
/// representable draw. Only `probs`/`min_hops` are serialized and
/// compared; the table is derived state.
#[derive(Debug, Clone)]
pub struct PathLengthDist {
    /// `probs[i]` is the probability of `min_hops + i` hops.
    probs: Vec<f64>,
    /// Smallest hop count with non-zero support range start.
    min_hops: usize,
    /// Precomputed sampler (fallback: last non-zero category, the
    /// documented floating-point-slack convention).
    table: CdfTable,
}

impl PathLengthDist {
    /// Builds a distribution from per-hop-count probabilities starting at
    /// `min_hops`.
    ///
    /// # Panics
    /// Panics unless the probabilities are non-negative, sum to ~1, and
    /// number at most [`ahn_stats::sampling::MAX_CATEGORIES`] (the
    /// precomputed sampler's inline capacity; the paper's Table 2 uses
    /// 9), and unless every hop count lies in `1..=MAX_RELAYS + 1` (a
    /// path crosses `hops - 1` relays, at most [`MAX_RELAYS`]).
    pub fn new(min_hops: usize, probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "empty distribution");
        assert!(
            probs.len() <= ahn_stats::sampling::MAX_CATEGORIES,
            "hop-count distribution has {} categories, the precomputed sampler supports {}",
            probs.len(),
            ahn_stats::sampling::MAX_CATEGORIES
        );
        if let Err(e) = check_hop_range(min_hops, probs.len()) {
            panic!("{e}");
        }
        assert!(probs.iter().all(|&p| p >= 0.0), "negative probability");
        let sum: f64 = probs.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "hop-count probabilities sum to {sum}, not 1"
        );
        let fallback = ahn_stats::last_positive_category(probs.iter().copied());
        let table = CdfTable::new(&probs, fallback);
        PathLengthDist {
            probs,
            min_hops,
            table,
        }
    }

    /// Table 2, *shorter paths* column: 2 hops 0.2; 3–4 hops 0.3 each;
    /// 5–8 hops 0.05 each; 9–10 hops 0.
    pub fn paper_shorter() -> Self {
        PathLengthDist::new(2, vec![0.2, 0.3, 0.3, 0.05, 0.05, 0.05, 0.05, 0.0, 0.0])
    }

    /// Table 2, *longer paths* column: 2 hops 0.1; 3–4 hops 0.1 each;
    /// 5–8 hops 0.1 each; 9–10 hops 0.15 each.
    pub fn paper_longer() -> Self {
        PathLengthDist::new(2, vec![0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.15, 0.15])
    }

    /// The distribution for a [`PathMode`].
    pub fn for_mode(mode: PathMode) -> Self {
        match mode {
            PathMode::Shorter => Self::paper_shorter(),
            PathMode::Longer => Self::paper_longer(),
        }
    }

    /// Smallest representable hop count.
    pub fn min_hops(&self) -> usize {
        self.min_hops
    }

    /// Largest representable hop count.
    pub fn max_hops(&self) -> usize {
        self.min_hops + self.probs.len() - 1
    }

    /// Probability of exactly `hops` hops.
    pub fn prob(&self, hops: usize) -> f64 {
        if hops < self.min_hops {
            return 0.0;
        }
        self.probs.get(hops - self.min_hops).copied().unwrap_or(0.0)
    }

    /// Draws a hop count (one `f64` draw, precomputed-table lookup).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.min_hops + self.table.locate(rng.gen::<f64>())
    }
}

/// Checks that hop counts `min_hops..min_hops + categories` all lie in
/// `1..=MAX_RELAYS + 1`.
fn check_hop_range(min_hops: usize, categories: usize) -> Result<(), String> {
    let max_hops = min_hops + categories - 1;
    if min_hops == 0 || max_hops > MAX_RELAYS + 1 {
        return Err(format!(
            "hop counts {min_hops}..={max_hops} outside 1..={}",
            MAX_RELAYS + 1
        ));
    }
    Ok(())
}

impl PartialEq for PathLengthDist {
    fn eq(&self, other: &Self) -> bool {
        self.probs == other.probs && self.min_hops == other.min_hops
    }
}

/// Serialized shape of [`PathLengthDist`] (the sampler table is derived).
#[derive(Serialize, Deserialize)]
struct PathLengthDistRepr {
    probs: Vec<f64>,
    min_hops: usize,
}

impl Serialize for PathLengthDist {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        PathLengthDistRepr {
            probs: self.probs.clone(),
            min_hops: self.min_hops,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for PathLengthDist {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = PathLengthDistRepr::deserialize(deserializer)?;
        if repr.probs.is_empty() || repr.probs.iter().any(|&p| p < 0.0) {
            return Err(serde::de::Error::custom("invalid hop-count probabilities"));
        }
        if repr.probs.len() > ahn_stats::sampling::MAX_CATEGORIES {
            return Err(serde::de::Error::custom(format!(
                "hop-count distribution has {} categories, the sampler supports {}",
                repr.probs.len(),
                ahn_stats::sampling::MAX_CATEGORIES
            )));
        }
        let sum: f64 = repr.probs.iter().sum();
        if (sum - 1.0).abs() >= 1e-9 {
            return Err(serde::de::Error::custom(format!(
                "hop-count probabilities sum to {sum}, not 1"
            )));
        }
        check_hop_range(repr.min_hops, repr.probs.len()).map_err(serde::de::Error::custom)?;
        Ok(PathLengthDist::new(repr.min_hops, repr.probs))
    }
}

/// Distribution over the number of alternative paths per hop bucket
/// (Table 3).
///
/// Like [`PathLengthDist`], sampling uses precomputed exact-threshold
/// [`CdfTable`]s (one per bucket row) that reproduce the historical
/// linear walk draw for draw; only the rows are serialized/compared.
#[derive(Debug, Clone)]
pub struct AltPathDist {
    /// `(max_hops_inclusive, [p(1 path), p(2 paths), p(3 paths)])` rows in
    /// ascending bucket order; a hop count uses the first row whose bound
    /// covers it, and counts beyond the last bound reuse the last row
    /// (Table 3 stops at 8 hops; 9–10-hop paths reuse the 7–8 row, see
    /// DESIGN.md §1).
    rows: Vec<(usize, [f64; 3])>,
    /// One precomputed sampler per row (fallback: the last category —
    /// the historical slack convention for this table).
    tables: Vec<CdfTable>,
}

impl AltPathDist {
    /// Builds a distribution from bucket rows.
    ///
    /// # Panics
    /// Panics unless every row's probabilities sum to ~1 and bucket bounds
    /// strictly increase.
    pub fn new(rows: Vec<(usize, [f64; 3])>) -> Self {
        assert!(!rows.is_empty(), "empty distribution");
        for (i, (bound, probs)) in rows.iter().enumerate() {
            let sum: f64 = probs.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "row {i} probabilities sum to {sum}, not 1"
            );
            if i > 0 {
                assert!(*bound > rows[i - 1].0, "bucket bounds must increase");
            }
        }
        let tables = rows
            .iter()
            .map(|(_, probs)| CdfTable::new(probs, probs.len() - 1))
            .collect();
        AltPathDist { rows, tables }
    }

    /// Table 3: 2–3 hops → (0.5, 0.3, 0.2); 4–6 → (0.6, 0.25, 0.15);
    /// 7–8 (and beyond) → (0.8, 0.15, 0.05).
    pub fn paper() -> Self {
        AltPathDist::new(vec![
            (3, [0.5, 0.3, 0.2]),
            (6, [0.6, 0.25, 0.15]),
            (8, [0.8, 0.15, 0.05]),
        ])
    }

    /// Index of the bucket row covering `hops`.
    #[inline]
    fn row_index(&self, hops: usize) -> usize {
        for (i, (bound, _)) in self.rows.iter().enumerate() {
            if hops <= *bound {
                return i;
            }
        }
        self.rows.len() - 1
    }

    /// The probability row for `hops`.
    pub fn row(&self, hops: usize) -> &[f64; 3] {
        &self.rows[self.row_index(hops)].1
    }

    /// Draws the number of available paths (1..=3) for a path of `hops`
    /// hops (one `f64` draw, precomputed-table lookup).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, hops: usize) -> usize {
        self.tables[self.row_index(hops)].locate(rng.gen::<f64>()) + 1
    }
}

impl PartialEq for AltPathDist {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

/// Serialized shape of [`AltPathDist`] (the sampler tables are derived).
#[derive(Serialize, Deserialize)]
struct AltPathDistRepr {
    rows: Vec<(usize, [f64; 3])>,
}

impl Serialize for AltPathDist {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        AltPathDistRepr {
            rows: self.rows.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for AltPathDist {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = AltPathDistRepr::deserialize(deserializer)?;
        if repr.rows.is_empty() {
            return Err(serde::de::Error::custom("empty alternative-path table"));
        }
        for (i, (bound, probs)) in repr.rows.iter().enumerate() {
            let sum: f64 = probs.iter().sum();
            if (sum - 1.0).abs() >= 1e-9 || probs.iter().any(|&p| p < 0.0) {
                return Err(serde::de::Error::custom(format!(
                    "row {i} probabilities sum to {sum}, not 1"
                )));
            }
            if i > 0 && *bound <= repr.rows[i - 1].0 {
                return Err(serde::de::Error::custom("bucket bounds must increase"));
            }
        }
        Ok(AltPathDist::new(repr.rows))
    }
}

impl Default for AltPathDist {
    fn default() -> Self {
        AltPathDist::paper()
    }
}

/// Rates a candidate intermediate list from `rater`'s point of view:
/// the product of known forwarding rates, [`UNKNOWN_RATE`] for unknown
/// nodes (§3.1).
///
/// Multiply-only: the matrix serves cached rates with the unknown
/// default already substituted, so the loop carries no division and no
/// `Option` branch per node.
#[inline]
pub fn path_rating(matrix: &ReputationMatrix, rater: NodeId, intermediates: &[NodeId]) -> f64 {
    intermediates
        .iter()
        .map(|&n| matrix.rate_or_unknown(rater, n))
        .product()
}

/// How a source chooses among candidate paths.
///
/// The paper always selects the best-rated path (§3.1); `Random` disables
/// reputation-based avoidance and exists for the watchdog/pathrater
/// baseline (DESIGN.md X1), where the interesting claim is precisely the
/// throughput gained by avoidance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RouteSelection {
    /// Pick the candidate with the highest reputation rating (paper).
    #[default]
    BestRated,
    /// Pick a uniformly random candidate (avoidance disabled).
    Random,
}

impl RouteSelection {
    /// Selects a candidate index according to the policy. `BestRated`
    /// takes the [`path_rating`] argmax from `rater`'s point of view
    /// (ties go to the earliest candidate, keeping runs reproducible)
    /// and draws nothing; `Random` draws one uniform index.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    #[inline]
    pub fn select<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        matrix: &ReputationMatrix,
        rater: NodeId,
        candidates: &Candidates,
    ) -> usize {
        assert!(!candidates.is_empty(), "no candidate paths");
        match self {
            RouteSelection::BestRated => {
                let mut best = 0;
                let mut best_rating = f64::NEG_INFINITY;
                for (i, candidate) in candidates.iter().enumerate() {
                    let r = path_rating(matrix, rater, candidate);
                    if r > best_rating {
                        best_rating = r;
                        best = i;
                    }
                }
                best
            }
            RouteSelection::Random => rng.gen_range(0..candidates.len()),
        }
    }
}

/// Most intermediates per candidate path: the paper's longest path is
/// 10 hops = 9 relays, and a margin is kept for custom hop
/// distributions. [`PathLengthDist`] rejects hop counts beyond
/// `MAX_RELAYS + 1` at construction.
pub const MAX_RELAYS: usize = 16;

/// Most candidate paths per game: every [`AltPathDist`] row covers
/// 1–3 paths (Table 3).
const MAX_CANDIDATES: usize = 3;

/// The candidate intermediate lists of one game, in fixed-size storage:
/// drawing them allocates nothing, from the first game on.
#[derive(Debug, Clone)]
pub struct Candidates {
    /// Candidate intermediate lists (path order); the first `relays`
    /// entries of the first `len` rows are live.
    paths: [[NodeId; MAX_RELAYS]; MAX_CANDIDATES],
    /// Relays per candidate in the current game (drawn once per game).
    relays: usize,
    /// Number of candidates drawn for the current game.
    len: usize,
    /// Virtual-pool positions below the shuffled tail that a
    /// Fisher–Yates swap has written (see [`PathGenerator::draw`]).
    overlay_pos: [usize; MAX_RELAYS],
    /// The node now at the corresponding overlaid position.
    overlay_val: [NodeId; MAX_RELAYS],
    overlay_len: usize,
}

impl Default for Candidates {
    fn default() -> Self {
        Candidates {
            paths: [[NodeId(0); MAX_RELAYS]; MAX_CANDIDATES],
            relays: 0,
            len: 0,
            overlay_pos: [0; MAX_RELAYS],
            overlay_val: [NodeId(0); MAX_RELAYS],
            overlay_len: 0,
        }
    }
}

impl Candidates {
    /// Number of candidate paths drawn by the most recent
    /// [`PathGenerator::draw`].
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before the first draw.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th candidate's intermediate list.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[NodeId] {
        assert!(i < self.len, "candidate index {i} out of range");
        &self.paths[i][..self.relays]
    }

    /// Iterates over the candidates' intermediate lists.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.paths[..self.len].iter().map(|p| &p[..self.relays])
    }

    /// The node at virtual-pool position `pos`, if a swap has moved one
    /// there.
    #[inline]
    fn overlay_get(&self, pos: usize) -> Option<NodeId> {
        self.overlay_pos[..self.overlay_len]
            .iter()
            .position(|&p| p == pos)
            .map(|k| self.overlay_val[k])
    }

    /// Places `val` at virtual-pool position `pos`.
    #[inline]
    fn overlay_set(&mut self, pos: usize, val: NodeId) {
        for k in 0..self.overlay_len {
            if self.overlay_pos[k] == pos {
                self.overlay_val[k] = val;
                return;
            }
        }
        let k = self.overlay_len;
        self.overlay_pos[k] = pos;
        self.overlay_val[k] = val;
        self.overlay_len = k + 1;
    }
}

/// Element `j` of the virtual relay pool: the participant list with the
/// two positions `p1 < p2` (source and destination) deleted, in order.
#[inline]
fn pool_node(participants: &[NodeId], p1: usize, p2: usize, j: usize) -> NodeId {
    let mut m = j;
    if m >= p1 {
        m += 1;
    }
    if m >= p2 {
        m += 1;
    }
    participants[m]
}

/// Generates candidate paths per the paper's model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathGenerator {
    /// Hop-count distribution (Table 2 column).
    pub lengths: PathLengthDist,
    /// Alternative-path-count distribution (Table 3).
    pub alternates: AltPathDist,
}

impl PathGenerator {
    /// Generator for one of the paper's path modes.
    pub fn for_mode(mode: PathMode) -> Self {
        PathGenerator {
            lengths: PathLengthDist::for_mode(mode),
            alternates: AltPathDist::paper(),
        }
    }

    /// Draws the candidate intermediate lists for one game into `out`.
    ///
    /// The relay pool is `participants` without the source (at
    /// `source_pos`) and the destination (at `dest_pos`), in order. The
    /// draws are a hop count, a candidate count, then per candidate a
    /// partial Fisher–Yates (`partial_shuffle`) of a fresh pool copy
    /// whose shuffled tail is the candidate. Each candidate consists of
    /// distinct intermediates; candidates are drawn independently and
    /// may overlap. If the pool cannot support the drawn hop count, the
    /// length is clamped to `pool + 1` hops so a game can always be
    /// played.
    ///
    /// Nothing is copied per game or per candidate. Element `j` of the
    /// pool is `participants[j + (j >= p1) + (j >= p2)]` for the two
    /// deleted positions `p1 < p2`, and the shuffle only touches the
    /// `relays` tail positions and one swap partner per step, so the
    /// tail lives in a stack array and the swapped-out partners in a
    /// small overlay over the virtual pool. These are the same swaps and
    /// the same `gen_range(0..=i)` draws as shuffling a copy.
    ///
    /// # Panics
    /// Panics if `participants` leaves no relay candidate (fewer than
    /// three nodes).
    pub fn draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        participants: &[NodeId],
        source_pos: usize,
        dest_pos: usize,
        out: &mut Candidates,
    ) {
        let len = participants.len();
        assert!(len >= 3, "cannot route without relay candidates");
        debug_assert!(source_pos != dest_pos && source_pos < len && dest_pos < len);
        let (p1, p2) = if source_pos < dest_pos {
            (source_pos, dest_pos)
        } else {
            (dest_pos, source_pos)
        };
        let pool_len = len - 2;
        let hops = self.lengths.sample(rng);
        let relays = (hops - 1).min(pool_len);
        let n_paths = self.alternates.sample(rng, relays + 1);
        debug_assert!(relays <= MAX_RELAYS && n_paths <= MAX_CANDIDATES);
        out.relays = relays;
        out.len = n_paths;
        let start = pool_len - relays;
        for c in 0..n_paths {
            // The shuffled tail `start..pool_len` lives in a flat stack
            // array; the overlay only tracks values swapped out to
            // positions below `start` (at most one per step).
            let mut tail = [NodeId(0); MAX_RELAYS];
            for (k, slot) in tail[..relays].iter_mut().enumerate() {
                *slot = pool_node(participants, p1, p2, start + k);
            }
            out.overlay_len = 0;
            for i in (start..pool_len).rev() {
                let j = rng.gen_range(0..=i);
                let vi = tail[i - start];
                if j >= start {
                    tail[i - start] = tail[j - start];
                    tail[j - start] = vi;
                } else {
                    tail[i - start] = out
                        .overlay_get(j)
                        .unwrap_or_else(|| pool_node(participants, p1, p2, j));
                    out.overlay_set(j, vi);
                }
            }
            out.paths[c][..relays].copy_from_slice(&tail[..relays]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn paper_length_distributions_are_normalized() {
        // Constructors assert the sums; also spot-check Table 2 entries.
        let sp = PathLengthDist::paper_shorter();
        assert_eq!(sp.prob(2), 0.2);
        assert_eq!(sp.prob(3), 0.3);
        assert_eq!(sp.prob(5), 0.05);
        assert_eq!(sp.prob(9), 0.0);
        assert_eq!(sp.prob(11), 0.0);
        let lp = PathLengthDist::paper_longer();
        assert_eq!(lp.prob(2), 0.1);
        assert_eq!(lp.prob(10), 0.15);
        assert_eq!(sp.min_hops(), 2);
        assert_eq!(sp.max_hops(), 10);
    }

    #[test]
    fn length_sampling_matches_table2() {
        // Chi-squared goodness of fit at 99.9% over the supported hops.
        let dist = PathLengthDist::paper_shorter();
        let mut rng = rng(17);
        let mut counts = [0u64; 9];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[dist.sample(&mut rng) - 2] += 1;
        }
        assert_eq!(counts[7], 0, "9 hops has probability 0 in SP mode");
        assert_eq!(counts[8], 0, "10 hops has probability 0 in SP mode");
        let expected = [0.2, 0.3, 0.3, 0.05, 0.05, 0.05, 0.05];
        let stat = ahn_stats_chi(&counts[..7], &expected);
        assert!(stat < 22.458, "chi2 = {stat}"); // 99.9% crit for dof 6
    }

    /// Minimal local chi-squared (avoids a dev-dependency cycle with
    /// ahn-stats).
    fn ahn_stats_chi(obs: &[u64], expected: &[f64]) -> f64 {
        let n: u64 = obs.iter().sum();
        obs.iter()
            .zip(expected)
            .map(|(&o, &p)| {
                let e = n as f64 * p;
                let d = o as f64 - e;
                d * d / e
            })
            .sum()
    }

    #[test]
    fn alt_path_rows_match_table3() {
        let d = AltPathDist::paper();
        assert_eq!(d.row(2), &[0.5, 0.3, 0.2]);
        assert_eq!(d.row(3), &[0.5, 0.3, 0.2]);
        assert_eq!(d.row(4), &[0.6, 0.25, 0.15]);
        assert_eq!(d.row(6), &[0.6, 0.25, 0.15]);
        assert_eq!(d.row(7), &[0.8, 0.15, 0.05]);
        assert_eq!(d.row(8), &[0.8, 0.15, 0.05]);
        // 9-10 hops reuse the last row (DESIGN.md §1).
        assert_eq!(d.row(10), &[0.8, 0.15, 0.05]);
    }

    #[test]
    fn alt_path_sampling_matches_table3() {
        let d = AltPathDist::paper();
        let mut rng = rng(23);
        let mut counts = [0u64; 3];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[d.sample(&mut rng, 5) - 1] += 1;
        }
        let stat = ahn_stats_chi(&counts, &[0.6, 0.25, 0.15]);
        assert!(stat < 13.816, "chi2 = {stat}"); // 99.9% crit for dof 2
    }

    #[test]
    fn path_rating_uses_unknown_default() {
        let m = ReputationMatrix::new(4);
        // All unknown: rating = 0.5^k.
        let r = path_rating(&m, NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert!((r - 0.125).abs() < 1e-12);
        assert_eq!(path_rating(&m, NodeId(0), &[]), 1.0);
    }

    #[test]
    fn path_rating_multiplies_known_rates() {
        let mut m = ReputationMatrix::new(3);
        // Node 1 rate 1.0 (2/2), node 2 rate 0.5 (1/2).
        m.record_forward(NodeId(0), NodeId(1));
        m.record_forward(NodeId(0), NodeId(1));
        m.record_forward(NodeId(0), NodeId(2));
        m.record_drop(NodeId(0), NodeId(2));
        let r = path_rating(&m, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert!((r - 0.5).abs() < 1e-12);
    }

    /// Candidates holding exactly `paths` (all of one length).
    fn candidates(paths: &[&[NodeId]]) -> Candidates {
        let mut c = Candidates::default();
        for (i, p) in paths.iter().enumerate() {
            c.paths[i][..p.len()].copy_from_slice(p);
            c.relays = p.len();
        }
        c.len = paths.len();
        c
    }

    #[test]
    fn best_path_avoids_known_droppers() {
        let mut m = ReputationMatrix::new(4);
        // Node 3 is a known dropper.
        m.record_drop(NodeId(0), NodeId(3));
        let good = [NodeId(1), NodeId(2)];
        let bad = [NodeId(1), NodeId(3)];
        let best = |paths: &[&[NodeId]]| {
            RouteSelection::BestRated.select(&mut rng(0), &m, NodeId(0), &candidates(paths))
        };
        assert_eq!(best(&[&bad, &good]), 1);
        assert_eq!(best(&[&good, &bad]), 0);
    }

    #[test]
    fn best_path_tie_breaks_to_first() {
        let m = ReputationMatrix::new(4);
        let c = candidates(&[&[NodeId(1)], &[NodeId(2)]]);
        assert_eq!(
            RouteSelection::BestRated.select(&mut rng(0), &m, NodeId(0), &c),
            0
        );
    }

    #[test]
    #[should_panic(expected = "no candidate paths")]
    fn best_path_of_nothing_panics() {
        let m = ReputationMatrix::new(1);
        let _ =
            RouteSelection::BestRated.select(&mut rng(0), &m, NodeId(0), &Candidates::default());
    }

    #[test]
    fn generated_paths_are_distinct_and_from_pool() {
        let gen = PathGenerator::for_mode(PathMode::Longer);
        let participants: Vec<NodeId> = (0..50u32).map(NodeId).collect();
        let mut rng = rng(5);
        let mut out = Candidates::default();
        for _ in 0..500 {
            gen.draw(&mut rng, &participants, 0, 1, &mut out);
            assert!((1..=3).contains(&out.len()));
            for path in out.iter() {
                assert!((1..=9).contains(&path.len()), "1..=9 relays");
                let mut seen = path.to_vec();
                seen.sort();
                seen.dedup();
                assert_eq!(seen.len(), path.len(), "duplicate relay in path");
                assert!(
                    path.iter().all(|n| n.0 >= 2),
                    "source or destination relays"
                );
            }
        }
    }

    #[test]
    fn generation_clamps_to_small_pools() {
        let gen = PathGenerator::for_mode(PathMode::Longer);
        let participants: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        let mut rng = rng(9);
        let mut out = Candidates::default();
        for _ in 0..200 {
            gen.draw(&mut rng, &participants, 3, 1, &mut out);
            for path in out.iter() {
                assert!(path.len() <= 2);
            }
        }
    }

    #[test]
    fn virtual_pool_matches_retain() {
        let participants: Vec<NodeId> = (0..10u32).map(NodeId).collect();
        for p1 in 0..9 {
            for p2 in (p1 + 1)..10 {
                let mut expect = participants.clone();
                expect.retain(|&n| n != participants[p1] && n != participants[p2]);
                let got: Vec<NodeId> = (0..8)
                    .map(|j| pool_node(&participants, p1, p2, j))
                    .collect();
                assert_eq!(got, expect, "p1={p1} p2={p2}");
            }
        }
    }

    #[test]
    fn hop_counts_must_fit_the_relay_buffers() {
        let top = MAX_RELAYS + 1;
        let json = |min_hops: usize, probs: &[f64]| {
            format!("{{\"probs\": {probs:?}, \"min_hops\": {min_hops}}}")
        };
        // Both bounds are accepted, by both constructors.
        for (min_hops, probs) in [(1, vec![1.0]), (top, vec![1.0]), (top - 1, vec![0.5, 0.5])] {
            let back: PathLengthDist = serde_json::from_str(&json(min_hops, &probs)).unwrap();
            assert_eq!(back, PathLengthDist::new(min_hops, probs));
        }
        // 0 hops and MAX_RELAYS + 2 hops are rejected, by both.
        for (min_hops, probs) in [
            (0, vec![1.0]),
            (0, vec![0.0, 1.0]),
            (top + 1, vec![1.0]),
            (top, vec![0.5, 0.5]),
        ] {
            let err = serde_json::from_str::<PathLengthDist>(&json(min_hops, &probs)).unwrap_err();
            assert!(err.to_string().contains("outside 1..="), "{err}");
            let built = std::panic::catch_unwind(|| PathLengthDist::new(min_hops, probs));
            assert!(built.is_err(), "min_hops={min_hops} was accepted");
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_length_distribution_panics() {
        let _ = PathLengthDist::new(2, vec![0.5, 0.2]);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_alt_distribution_panics() {
        let _ = AltPathDist::new(vec![(3, [0.5, 0.2, 0.2])]);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PathMode::Shorter.to_string(), "SP");
        assert_eq!(PathMode::Longer.to_string(), "LP");
    }
}
