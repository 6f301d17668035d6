//! Catchments: the partition of sources across the origin's peering links.
//!
//! For a given announcement configuration, each peering link "attracts
//! traffic from non-overlapping regions of the Internet called the link's
//! catchment" (§I). A [`Catchments`] value records, for every AS, which
//! link its traffic ingresses through — or `None` when the AS cannot reach
//! the prefix or was not observed.
//!
//! ## Layout
//!
//! Internally a catchment is stored as one u64-block bitset **row per
//! active link** (bit `i` set in link `l`'s row means AS `i` ingresses
//! through `l`), plus a maintained union bitset and per-row popcounts.
//! The number of links is bounded by the origin's PoP count (and by
//! `u8::MAX` via [`LinkId`]), so rows are few and long: membership
//! queries stream words, [`Catchments::sizes`] /
//! [`Catchments::active_links`] read the maintained counts in O(links),
//! and [`Catchments::assemble`] merges shard slices word-at-a-time. The
//! historical dense form (`Vec<Option<LinkId>>`) remains available as a
//! reference API ([`Catchments::dense`] / [`Catchments::from_dense`]) for
//! the differential oracles, and is still the serde wire format.

use crate::engine::RoutingOutcome;
use crate::route::LinkId;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use trackdown_topology::AsIndex;

/// Bits per bitset block.
const WORD: usize = 64;

fn word_count(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// Indices of the set bits in a stream of u64 words, ascending.
fn iter_set_bits<I: Iterator<Item = u64>>(words: I) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let t = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * WORD + t)
        })
    })
}

/// OR `src` (a bitset whose bit 0 is global bit `start`) into `dst`.
///
/// When `start` is word-aligned — which every [`ShardPlan`]-produced
/// range is, by construction — this is a straight word-by-word OR; the
/// unaligned fallback splits each source word across two destination
/// words. `src` must have no stray bits beyond the logical length (the
/// shard constructors guarantee this).
///
/// [`ShardPlan`]: https://docs.rs/trackdown-core
fn or_shifted(dst: &mut [u64], src: &[u64], start: usize) {
    let w = start / WORD;
    let b = start % WORD;
    if b == 0 {
        for (d, s) in dst[w..w + src.len()].iter_mut().zip(src) {
            *d |= s;
        }
    } else {
        for (k, &s) in src.iter().enumerate() {
            if s == 0 {
                continue;
            }
            dst[w + k] |= s << b;
            let hi = s >> (WORD - b);
            if hi != 0 {
                dst[w + k + 1] |= hi;
            }
        }
    }
}

/// One shard's slice of a catchment extraction: the assignments for a
/// contiguous [`AsIndex`] range of one configuration's outcome, stored as
/// per-link bitset rows relative to `range.start`.
///
/// Shard executors extract these independently (possibly on different
/// threads, in any completion order) and reassemble them with
/// [`Catchments::assemble`]; the assembled value is bit-identical to the
/// whole-topology extraction because both control-plane tagging and
/// data-plane walks are per-source pure functions of the routing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCatchments {
    /// The [`AsIndex`] range this slice covers.
    pub range: Range<usize>,
    /// Distinct links assigned within `range`, ascending.
    links: Vec<LinkId>,
    /// Bitset row per link; bit `k` is AS `range.start + k`.
    rows: Vec<Vec<u64>>,
}

impl ShardCatchments {
    /// Control-plane extraction for one shard: ingress tags of the best
    /// routes in `range`.
    pub fn from_control_plane(outcome: &RoutingOutcome, range: Range<usize>) -> ShardCatchments {
        ShardCatchments::collect(range.clone(), |i| outcome.catchment(AsIndex(i as u32)))
    }

    /// Data-plane extraction for one shard: forwarding walks from each AS
    /// in `range`, with one reusable walker per call.
    pub fn from_data_plane(outcome: &RoutingOutcome, range: Range<usize>) -> ShardCatchments {
        let mut walker = crate::engine::ForwardingWalker::new();
        ShardCatchments::collect(range.clone(), |i| {
            walker.walk(outcome, AsIndex(i as u32)).map(|w| w.link)
        })
    }

    /// Single-pass extraction: probe each AS in `range` once and set its
    /// bit directly, discovering link rows on first sight. Equivalent to
    /// collecting the dense slice and calling
    /// [`ShardCatchments::from_dense`], without materializing it — this
    /// is the per-shard hot loop the sharded executor times.
    fn collect(
        range: Range<usize>,
        mut catchment_of: impl FnMut(usize) -> Option<LinkId>,
    ) -> ShardCatchments {
        let wc = word_count(range.len());
        let mut links: Vec<LinkId> = Vec::new();
        let mut rows: Vec<Vec<u64>> = Vec::new();
        // Neighbouring ASes usually share a link; cache the last row hit.
        let mut last: Option<(LinkId, usize)> = None;
        for (k, i) in range.clone().enumerate() {
            if let Some(l) = catchment_of(i) {
                let r = match last {
                    Some((pl, pr)) if pl == l => pr,
                    _ => match links.binary_search(&l) {
                        Ok(r) => r,
                        Err(pos) => {
                            links.insert(pos, l);
                            rows.insert(pos, vec![0u64; wc]);
                            pos
                        }
                    },
                };
                rows[r][k / WORD] |= 1 << (k % WORD);
                last = Some((l, r));
            }
        }
        ShardCatchments { range, links, rows }
    }

    /// Build a slice from its dense per-AS form (reference API; also the
    /// constructor the differential tests use).
    ///
    /// # Panics
    /// Panics if `dense.len()` disagrees with `range.len()`.
    pub fn from_dense(range: Range<usize>, dense: Vec<Option<LinkId>>) -> ShardCatchments {
        assert_eq!(
            dense.len(),
            range.len(),
            "shard slice length disagrees with its range"
        );
        // Collect the distinct links by insertion into a (tiny) sorted
        // vec rather than sorting the whole dense slice: catchment link
        // sets are origin-PoP-sized, so this is O(n log links) with a
        // cheap constant — and neighbouring ASes usually share a link,
        // which the `last` cache turns into O(1).
        let mut links: Vec<LinkId> = Vec::new();
        for l in dense.iter().flatten() {
            if let Err(pos) = links.binary_search(l) {
                links.insert(pos, *l);
            }
        }
        let wc = word_count(range.len());
        let mut rows = vec![vec![0u64; wc]; links.len()];
        let mut last: Option<(LinkId, usize)> = None;
        for (k, l) in dense.iter().enumerate() {
            if let Some(l) = l {
                let r = match last {
                    Some((pl, pr)) if pl == *l => pr,
                    _ => links.binary_search(l).expect("link collected above"),
                };
                rows[r][k / WORD] |= 1 << (k % WORD);
                last = Some((*l, r));
            }
        }
        ShardCatchments { range, links, rows }
    }
}

/// Per-AS catchment assignment for one announcement configuration.
///
/// By construction each source appears in at most one catchment, the
/// invariant §IV-c requires of any source granularity: the per-link
/// bitset rows are pairwise disjoint.
#[derive(Debug, Clone)]
pub struct Catchments {
    /// Number of ASes covered (assigned or not).
    n: usize,
    /// Distinct links that ever had a member, ascending.
    links: Vec<LinkId>,
    /// Bitset row per link in `links`; bit `i` = AS `i` is a member.
    rows: Vec<Vec<u64>>,
    /// Popcount of each row, maintained incrementally.
    counts: Vec<usize>,
    /// Union of all rows (bit `i` = AS `i` has *some* assignment).
    assigned: Vec<u64>,
}

impl Catchments {
    /// An empty assignment over `n` ASes.
    pub fn unassigned(n: usize) -> Catchments {
        Catchments {
            n,
            links: Vec::new(),
            rows: Vec::new(),
            counts: Vec::new(),
            assigned: vec![0; word_count(n)],
        }
    }

    /// Control-plane catchments: the ingress tag of each AS's best route.
    pub fn from_control_plane(outcome: &RoutingOutcome) -> Catchments {
        let _span = trackdown_obs::span("catchment.extract_cp");
        Catchments::from_dense(&outcome.control_catchments())
    }

    /// Data-plane catchments: follow each AS's forwarding chain to the
    /// origin. Slower but faithful to what traffic actually does; this is
    /// what honeypot volume accounting sees.
    pub fn from_data_plane(outcome: &RoutingOutcome) -> Catchments {
        let _span = trackdown_obs::span("catchment.extract_dp");
        let mut walker = crate::engine::ForwardingWalker::new();
        let dense: Vec<Option<LinkId>> = (0..outcome.best.len())
            .map(|i| walker.walk(outcome, AsIndex(i as u32)).map(|w| w.link))
            .collect();
        Catchments::from_dense(&dense)
    }

    /// Build from the dense per-AS form. Reference API kept for the
    /// differential oracles (and the serde wire format).
    pub fn from_dense(dense: &[Option<LinkId>]) -> Catchments {
        let n = dense.len();
        // Link ids are bytes, so the distinct links and each one's row
        // come from 256-entry tables instead of a search per AS.
        let mut seen = [false; 256];
        for l in dense.iter().flatten() {
            seen[l.us()] = true;
        }
        let links: Vec<LinkId> = (0..=u8::MAX)
            .filter(|&l| seen[l as usize])
            .map(LinkId)
            .collect();
        let mut row_of = [0u8; 256];
        for (r, l) in links.iter().enumerate() {
            row_of[l.us()] = r as u8;
        }
        let wc = word_count(n);
        let mut rows = vec![vec![0u64; wc]; links.len()];
        for (i, l) in dense.iter().enumerate() {
            if let Some(l) = l {
                rows[row_of[l.us()] as usize][i / WORD] |= 1 << (i % WORD);
            }
        }
        let counts = rows
            .iter()
            .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
            .collect();
        let mut assigned = vec![0u64; wc];
        for row in &rows {
            for (a, w) in assigned.iter_mut().zip(row) {
                *a |= w;
            }
        }
        Catchments {
            n,
            links,
            rows,
            counts,
            assigned,
        }
    }

    /// The dense per-AS form. Reference API for the differential oracles;
    /// `Catchments::from_dense(&c.dense()) == c` for every `c`.
    pub fn dense(&self) -> Vec<Option<LinkId>> {
        let mut dense = Vec::new();
        self.dense_into(&mut dense);
        dense
    }

    /// [`Catchments::dense`] into a caller-owned buffer, so a loop over
    /// many configurations densifies every one in the same allocation.
    pub fn dense_into(&self, dense: &mut Vec<Option<LinkId>>) {
        dense.clear();
        dense.resize(self.n, None);
        for (l, row) in self.links.iter().zip(&self.rows) {
            for i in iter_set_bits(row.iter().copied()) {
                dense[i] = Some(*l);
            }
        }
    }

    /// Reassemble per-shard extraction slices into one whole-topology
    /// assignment over `n` ASes. Order of `parts` does not matter; ranges
    /// must be disjoint and within `0..n` (ASes no part covers stay
    /// unassigned). Word-aligned ranges — which the shard planner
    /// guarantees — merge as straight `OR`s over u64 blocks.
    ///
    /// # Panics
    /// Panics if a range exceeds `n`.
    pub fn assemble<'a>(
        n: usize,
        parts: impl IntoIterator<Item = &'a ShardCatchments>,
    ) -> Catchments {
        let _span = trackdown_obs::span("catchment.assemble");
        let mut c = Catchments::unassigned(n);
        for part in parts {
            assert!(part.range.end <= n, "shard range exceeds topology size");
            for (l, row) in part.links.iter().zip(&part.rows) {
                let r = c.row_index_or_insert(*l);
                or_shifted(&mut c.rows[r], row, part.range.start);
                or_shifted(&mut c.assigned, row, part.range.start);
                c.counts[r] += row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            }
        }
        c
    }

    /// Index of `link`'s row, inserting an empty row (keeping `links`
    /// sorted) when the link has not been seen yet.
    fn row_index_or_insert(&mut self, link: LinkId) -> usize {
        match self.links.binary_search(&link) {
            Ok(r) => r,
            Err(r) => {
                self.links.insert(r, link);
                self.rows.insert(r, vec![0u64; word_count(self.n)]);
                self.counts.insert(r, 0);
                r
            }
        }
    }

    /// Number of ASes covered (assigned or not).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no AS is tracked at all.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether an AS has any assignment — one bit probe, no row scan
    /// (use instead of `get(i).is_some()` on hot paths).
    pub fn is_assigned(&self, i: AsIndex) -> bool {
        let i = i.us();
        assert!(i < self.n, "AS index {i} out of catchment range {}", self.n);
        self.assigned[i / WORD] & (1 << (i % WORD)) != 0
    }

    /// Catchment of one AS.
    pub fn get(&self, i: AsIndex) -> Option<LinkId> {
        let i = i.us();
        assert!(i < self.n, "AS index {i} out of catchment range {}", self.n);
        let (w, m) = (i / WORD, 1u64 << (i % WORD));
        if self.assigned[w] & m == 0 {
            return None;
        }
        self.links
            .iter()
            .zip(&self.rows)
            .find(|(_, row)| row[w] & m != 0)
            .map(|(l, _)| *l)
    }

    /// Assign an AS to a link (used when building *measured* catchments).
    pub fn set(&mut self, i: AsIndex, link: Option<LinkId>) {
        let i = i.us();
        assert!(i < self.n, "AS index {i} out of catchment range {}", self.n);
        let (w, m) = (i / WORD, 1u64 << (i % WORD));
        if self.assigned[w] & m != 0 {
            for (r, row) in self.rows.iter_mut().enumerate() {
                if row[w] & m != 0 {
                    row[w] &= !m;
                    self.counts[r] -= 1;
                    break;
                }
            }
            self.assigned[w] &= !m;
        }
        if let Some(l) = link {
            let r = self.row_index_or_insert(l);
            self.rows[r][w] |= m;
            self.counts[r] += 1;
            self.assigned[w] |= m;
        }
    }

    /// All ASes assigned to `link`.
    pub fn members(&self, link: LinkId) -> impl Iterator<Item = AsIndex> + '_ {
        let row: &[u64] = match self.links.binary_search(&link) {
            Ok(r) => &self.rows[r],
            Err(_) => &[],
        };
        iter_set_bits(row.iter().copied()).map(|i| AsIndex(i as u32))
    }

    /// Number of ASes with an assignment.
    pub fn assigned_count(&self) -> usize {
        self.counts.iter().sum()
    }

    /// ASes with no assignment (unreachable or unobserved).
    pub fn unassigned_ases(&self) -> impl Iterator<Item = AsIndex> + '_ {
        let n = self.n;
        iter_set_bits(self.assigned.iter().map(|w| !w))
            .take_while(move |&i| i < n)
            .map(|i| AsIndex(i as u32))
    }

    /// Distinct links that have at least one member, ascending. O(links)
    /// off the maintained per-row counts — no per-AS scan.
    pub fn active_links(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Per-link member counts as `(link, count)`, ascending by link.
    /// O(links) off the maintained popcounts.
    pub fn sizes(&self) -> Vec<(LinkId, usize)> {
        self.links
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(l, &c)| (*l, c))
            .collect()
    }

    /// Fraction of assigned ASes whose assignment differs from `other`
    /// (ASes unassigned in either are skipped). Useful to quantify how much
    /// a configuration changed routing. Computed word-at-a-time: ASes
    /// assigned in both are `popcount(assigned ∧ assigned')`, of which the
    /// unmoved ones sit in the intersection of same-link rows.
    pub fn divergence(&self, other: &Catchments) -> f64 {
        let common: usize = self
            .assigned
            .iter()
            .zip(&other.assigned)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum();
        if common == 0 {
            return 0.0;
        }
        let mut same = 0usize;
        for (j, l) in self.links.iter().enumerate() {
            if let Ok(k) = other.links.binary_search(l) {
                same += self.rows[j]
                    .iter()
                    .zip(&other.rows[k])
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum::<usize>();
            }
        }
        (common - same) as f64 / common as f64
    }

    /// Active `(link, row)` pairs, ascending by link — rows that lost all
    /// members via [`Catchments::set`] are skipped so equality is
    /// assignment-semantic, not construction-history-sensitive.
    fn active_rows(&self) -> impl Iterator<Item = (LinkId, &[u64])> {
        self.links
            .iter()
            .zip(&self.rows)
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|((l, row), _)| (*l, row.as_slice()))
    }
}

impl PartialEq for Catchments {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.active_rows().eq(other.active_rows())
    }
}

impl Eq for Catchments {}

/// The serde wire format: the dense per-AS assignment, unchanged from the
/// pre-bitset representation so recorded datasets stay readable.
#[derive(Clone, Serialize, Deserialize)]
struct DenseForm {
    assignment: Vec<Option<LinkId>>,
}

impl Serialize for Catchments {
    fn to_value(&self) -> serde::Value {
        DenseForm {
            assignment: self.dense(),
        }
        .to_value()
    }
}

impl Deserialize for Catchments {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        DenseForm::from_value(v).map(|f| Catchments::from_dense(&f.assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catchments {
        let mut c = Catchments::unassigned(5);
        c.set(AsIndex(0), Some(LinkId(0)));
        c.set(AsIndex(1), Some(LinkId(1)));
        c.set(AsIndex(2), Some(LinkId(1)));
        // 3 and 4 left unassigned.
        c
    }

    #[test]
    fn membership_and_counts() {
        let c = sample();
        assert_eq!(c.len(), 5);
        assert_eq!(c.assigned_count(), 3);
        assert_eq!(c.members(LinkId(1)).count(), 2);
        assert_eq!(c.members(LinkId(9)).count(), 0);
        assert_eq!(c.unassigned_ases().count(), 2);
        assert_eq!(c.active_links(), vec![LinkId(0), LinkId(1)]);
        assert_eq!(c.sizes(), vec![(LinkId(0), 1), (LinkId(1), 2)]);
    }

    #[test]
    fn each_as_in_at_most_one_catchment() {
        let c = sample();
        let total: usize = c.active_links().iter().map(|&l| c.members(l).count()).sum();
        assert_eq!(total, c.assigned_count());
    }

    #[test]
    fn set_moves_between_rows_and_maintains_counts() {
        let mut c = sample();
        // Reassigning clears the old row's bit and count.
        c.set(AsIndex(0), Some(LinkId(1)));
        assert_eq!(c.get(AsIndex(0)), Some(LinkId(1)));
        assert_eq!(c.members(LinkId(0)).count(), 0);
        assert_eq!(c.sizes(), vec![(LinkId(1), 3)]);
        assert_eq!(c.active_links(), vec![LinkId(1)]);
        // Unassigning removes entirely.
        c.set(AsIndex(0), None);
        assert_eq!(c.get(AsIndex(0)), None);
        assert_eq!(c.assigned_count(), 2);
        // A row emptied by reassignment no longer counts as active, so
        // equality against a fresh build of the same assignment holds.
        assert_eq!(c, Catchments::from_dense(&c.dense()));
    }

    #[test]
    fn dense_roundtrip_is_identity() {
        let c = sample();
        let dense = c.dense();
        assert_eq!(
            dense,
            vec![
                Some(LinkId(0)),
                Some(LinkId(1)),
                Some(LinkId(1)),
                None,
                None
            ]
        );
        assert_eq!(Catchments::from_dense(&dense), c);
    }

    #[test]
    fn serde_wire_format_is_the_dense_assignment() {
        let c = sample();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#"{"assignment":[0,1,1,null,null]}"#);
        let back: Catchments = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn assemble_from_shards_matches_whole_extraction() {
        use crate::engine::{BgpEngine, EngineConfig};
        use crate::origin::{LinkAnnouncement, OriginAs};
        use trackdown_topology::gen::{generate, TopologyConfig};

        let g = generate(&TopologyConfig::small(13));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine.propagate_config(&origin, &anns, 200).unwrap();
        let n = g.topology.num_ases();
        for shards in [1usize, 2, 3, 8] {
            let chunk = n.div_ceil(shards);
            let ranges: Vec<_> = (0..shards)
                .map(|s| (s * chunk).min(n)..((s + 1) * chunk).min(n))
                .collect();
            let cp_parts: Vec<ShardCatchments> = ranges
                .iter()
                .map(|r| ShardCatchments::from_control_plane(&out, r.clone()))
                .collect();
            let dp_parts: Vec<ShardCatchments> = ranges
                .iter()
                .map(|r| ShardCatchments::from_data_plane(&out, r.clone()))
                .collect();
            assert_eq!(
                Catchments::assemble(n, &cp_parts),
                Catchments::from_control_plane(&out),
                "{shards}-way control-plane assembly diverged"
            );
            // Completion order must not matter.
            let mut reversed: Vec<_> = dp_parts.clone();
            reversed.reverse();
            assert_eq!(
                Catchments::assemble(n, &reversed),
                Catchments::from_data_plane(&out),
                "{shards}-way data-plane assembly diverged"
            );
        }
    }

    #[test]
    fn assemble_merges_unaligned_ranges() {
        // Ranges deliberately straddle word boundaries at every offset
        // class: starts 0, 63, 64, 65, and a tail past bit 128.
        let n = 200;
        let mut dense = vec![None; n];
        for (i, d) in dense.iter_mut().enumerate() {
            *d = match i % 3 {
                0 => Some(LinkId((i % 5) as u8)),
                1 => Some(LinkId(7)),
                _ => None,
            };
        }
        let bounds = [0usize, 63, 64, 65, 129, 200];
        let parts: Vec<ShardCatchments> = bounds
            .windows(2)
            .map(|w| ShardCatchments::from_dense(w[0]..w[1], dense[w[0]..w[1]].to_vec()))
            .collect();
        assert_eq!(
            Catchments::assemble(n, &parts),
            Catchments::from_dense(&dense)
        );
    }

    #[test]
    fn assemble_leaves_uncovered_ranges_unassigned() {
        let part = ShardCatchments::from_dense(2..4, vec![Some(LinkId(1)), None]);
        let c = Catchments::assemble(6, [&part]);
        assert_eq!(c.get(AsIndex(2)), Some(LinkId(1)));
        assert_eq!(c.get(AsIndex(3)), None);
        assert_eq!(c.assigned_count(), 1);
    }

    #[test]
    #[should_panic(expected = "disagrees with its range")]
    fn assemble_rejects_malformed_slice() {
        let _ = ShardCatchments::from_dense(0..3, vec![None]);
    }

    #[test]
    fn divergence_counts_moves() {
        let a = sample();
        let mut b = a.clone();
        assert_eq!(a.divergence(&b), 0.0);
        b.set(AsIndex(0), Some(LinkId(1)));
        assert!((a.divergence(&b) - 1.0 / 3.0).abs() < 1e-9);
        // Unassigned on either side is ignored.
        b.set(AsIndex(1), None);
        assert!((a.divergence(&b) - 1.0 / 2.0).abs() < 1e-9);
        let empty = Catchments::unassigned(5);
        assert_eq!(a.divergence(&empty), 0.0);
    }
}
