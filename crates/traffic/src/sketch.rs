//! Streaming volume accumulators for line-rate attribution.
//!
//! The attribution plane in `trackdown-core` correlates per-configuration,
//! per-link spoofed volumes with the campaign's clustering. The exact
//! pipeline materializes those volumes as dense `Vec<Vec<u64>>` rows — fine
//! for analysis, but a production traceback box ingesting millions of
//! flows/sec cannot afford a full scan of the AS space per configuration.
//! This module provides the streaming alternative: flows are folded into a
//! [`VolumeAccumulator`] as they arrive, and the localization layer reads
//! volumes back through the same trait whether they are exact or
//! approximate.
//!
//! Two streaming implementations:
//!
//! * [`SketchAccumulator`] — one seeded count-min sketch per configuration,
//!   conservative-update variant. Estimates are one-sided: always `>=` the
//!   true volume, and at most `εN` over it with probability `1 − δ`
//!   (`ε = e/width`, `δ = e^(−depth)`, `N` = bytes recorded into that
//!   configuration's sketch). Because link ids form a small enumerable
//!   universe, [`VolumeAccumulator::error_bound`] additionally computes a
//!   *deterministic* collision bound by enumeration — the bound the
//!   localization layer uses to report rank stability without any failure
//!   probability.
//! * [`BatchedDenseAccumulator`] — exact dense counters with u64-lane
//!   batching on the ingest path: each batch is accumulated into an
//!   L1-resident scratch of `LANES` independent lanes per link (breaking
//!   the add dependency chain on heavy-hitter links) and folded into the
//!   main rows once per batch.
//!
//! The one-sided error direction is what makes sketches safe here at all:
//! the attribution plane *exonerates* a cluster when its link reads zero
//! volume (see `rank_suspects`), and an overestimate can never turn a
//! nonzero volume into a zero — a sketch may add false suspects within the
//! error bound, but it can never silently clear a guilty cluster.

use crate::flow::Flow;
use std::sync::Arc;
use trackdown_bgp::{Catchments, LinkId};

/// Default number of flows per streaming batch (see [`ingest_stream`]).
pub const DEFAULT_FLOW_BATCH: usize = 1024;

/// A per-configuration, per-link volume store the localization layer can
/// read in place of exact dense rows.
///
/// Implementations may be exact ([`BatchedDenseAccumulator`], plain
/// `[Vec<u64>]` rows) or approximate ([`SketchAccumulator`]); approximate
/// ones must be *one-sided*: [`VolumeAccumulator::volume`] is always `>=`
/// the true recorded volume, and exceeds it by at most
/// [`VolumeAccumulator::error_bound`].
pub trait VolumeAccumulator {
    /// Number of configurations (rows) this accumulator covers.
    fn num_configs(&self) -> usize;

    /// Number of link counters per configuration (the row width).
    fn num_links(&self) -> usize;

    /// Fold `bytes` observed on `link` during configuration `config` into
    /// the store.
    ///
    /// # Panics
    /// May panic if `config >= num_configs()` or `link.us() >=
    /// num_links()` (exact implementations index directly).
    fn record(&mut self, config: usize, link: LinkId, bytes: u64);

    /// Read back the (possibly overestimated) volume for one counter.
    fn volume(&self, config: usize, link: LinkId) -> u64;

    /// Deterministic upper bound on the overestimation of any single
    /// counter: for every `(config, link)`, `volume() - true <=
    /// error_bound()`. Exact implementations return 0.
    fn error_bound(&self) -> u64;

    /// Sketch bucket occupancy in permille (`Some` only for sketch-backed
    /// implementations); mirrored to the `traffic.sketch.saturation_permille`
    /// gauge on ingest.
    fn saturation_permille(&self) -> Option<u64> {
        None
    }

    /// Materialize one configuration's volumes as a dense row.
    fn dense_row(&self, config: usize) -> Vec<u64> {
        (0..self.num_links())
            .map(|l| self.volume(config, LinkId::from_usize(l)))
            .collect()
    }

    /// Materialize every configuration as dense rows (the exact pipeline's
    /// native shape).
    fn dense_rows(&self) -> Vec<Vec<u64>> {
        (0..self.num_configs()).map(|c| self.dense_row(c)).collect()
    }

    /// Ingest one batch of flows observed during `config`, attributing
    /// each flow to its source AS's catchment link. Flows from ASes with
    /// no catchment (or outside the catchment / counter range) are counted
    /// as unattributed and dropped — exactly what the honeypot does with
    /// traffic it cannot pin to an ingress link.
    ///
    /// Maintains the `traffic.ingest.flows` / `traffic.ingest.bytes` /
    /// `traffic.ingest.unattributed` counters and, for sketch-backed
    /// stores, the `traffic.sketch.saturation_permille` gauge.
    fn ingest(&mut self, config: usize, catchments: &Catchments, flows: &[Flow]) {
        let width = self.num_links();
        let mut bytes = 0u64;
        let mut unattributed = 0u64;
        for f in flows {
            bytes += f.bytes;
            let link = if f.src_as.us() < catchments.len() {
                catchments.get(f.src_as)
            } else {
                None
            };
            match link {
                Some(l) if l.us() < width => self.record(config, l, f.bytes),
                _ => unattributed += 1,
            }
        }
        publish_ingest_metrics(flows.len() as u64, bytes, unattributed);
        if let Some(s) = self.saturation_permille() {
            trackdown_obs::global()
                .gauge("traffic.sketch.saturation_permille")
                .set(s as i64);
        }
    }
}

fn publish_ingest_metrics(flows: u64, bytes: u64, unattributed: u64) {
    trackdown_obs::counter!("traffic.ingest.flows").add(flows);
    trackdown_obs::counter!("traffic.ingest.bytes").add(bytes);
    trackdown_obs::counter!("traffic.ingest.unattributed").add(unattributed);
}

/// Stream a flow list into an accumulator in fixed-size batches — the
/// shape a line-rate deployment sees (NetFlow-style export intervals)
/// rather than one giant slice.
pub fn ingest_stream<A: VolumeAccumulator + ?Sized>(
    acc: &mut A,
    config: usize,
    catchments: &Catchments,
    flows: &[Flow],
    batch: usize,
) {
    for chunk in crate::flow::flow_batches(flows, batch) {
        acc.ingest(config, catchments, chunk);
    }
}

/// Exact dense rows are the trivial accumulator: direct indexing, zero
/// error. This is the adapter that lets the `_acc` localization entry
/// points accept the exact pipeline's native `Vec<Vec<u64>>` output.
impl VolumeAccumulator for [Vec<u64>] {
    fn num_configs(&self) -> usize {
        self.len()
    }

    fn num_links(&self) -> usize {
        self.first().map_or(0, Vec::len)
    }

    fn record(&mut self, config: usize, link: LinkId, bytes: u64) {
        self[config][link.us()] += bytes;
    }

    fn volume(&self, config: usize, link: LinkId) -> u64 {
        self[config][link.us()]
    }

    fn error_bound(&self) -> u64 {
        0
    }

    fn dense_row(&self, config: usize) -> Vec<u64> {
        self[config].clone()
    }

    fn dense_rows(&self) -> Vec<Vec<u64>> {
        self.to_vec()
    }
}

// ---------------------------------------------------------------------------
// Count-min sketch (conservative update)
// ---------------------------------------------------------------------------

/// One count-min sketch: `depth` rows of `width` buckets, each row with its
/// own seeded multiply-shift hash. Conservative update: a key's buckets are
/// raised only as far as its new point estimate, which keeps estimates
/// one-sided (`>=` true) while strictly dominating the plain-CMS update in
/// accuracy (a conservative bucket is never above its plain-CMS value, so
/// every plain-CMS guarantee carries over).
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    /// Per-row hash seeds. Never mutated, so clones share one allocation:
    /// an accumulator's per-configuration sketches hold a single copy.
    seeds: Arc<[u64]>,
    buckets: Vec<u64>,
    occupied: usize,
    total: u64,
}

/// SplitMix64: the seed expander for per-row hash seeds (deterministic,
/// dependency-free).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CountMinSketch {
    /// A `width × depth` sketch with hash seeds derived from `seed`.
    ///
    /// # Panics
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        assert!(width > 0, "sketch width must be positive");
        assert!(depth > 0, "sketch depth must be positive");
        CountMinSketch {
            width,
            depth,
            seeds: (0..depth as u64).map(|r| splitmix64(seed ^ r)).collect(),
            buckets: vec![0; width * depth],
            occupied: 0,
            total: 0,
        }
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Bucket index of `key` in row `r`.
    #[inline]
    fn index(&self, r: usize, key: usize) -> usize {
        let h = splitmix64(key as u64 ^ self.seeds[r]);
        // High bits of the mix modulo the width: well distributed for the
        // small sequential key universe link ids form.
        ((h >> 16) % self.width as u64) as usize
    }

    /// Fold `bytes` for `key` in with the conservative update.
    pub fn record(&mut self, key: usize, bytes: u64) {
        let target = self.estimate(key).saturating_add(bytes);
        for r in 0..self.depth {
            let i = r * self.width + self.index(r, key);
            let b = &mut self.buckets[i];
            if *b == 0 && target > 0 {
                self.occupied += 1;
            }
            *b = (*b).max(target);
        }
        self.total = self.total.saturating_add(bytes);
    }

    /// The per-row bucket indexes of `key` — precompute these once per key
    /// and feed them to [`Self::record_at`] on the hot path.
    pub fn indexes_of(&self, key: usize) -> Vec<u32> {
        (0..self.depth).map(|r| self.index(r, key) as u32).collect()
    }

    /// [`Self::record`] with the key's bucket indexes precomputed by
    /// [`Self::indexes_of`]: the line-rate path does no hashing per flow,
    /// just `2 × depth` bucket touches.
    #[inline]
    pub fn record_at(&mut self, indexes: &[u32], bytes: u64) {
        debug_assert_eq!(indexes.len(), self.depth);
        let mut est = u64::MAX;
        for (r, &i) in indexes.iter().enumerate() {
            est = est.min(self.buckets[r * self.width + i as usize]);
        }
        let target = est.saturating_add(bytes);
        for (r, &i) in indexes.iter().enumerate() {
            let b = &mut self.buckets[r * self.width + i as usize];
            if *b == 0 && target > 0 {
                self.occupied += 1;
            }
            *b = (*b).max(target);
        }
        self.total = self.total.saturating_add(bytes);
    }

    /// Point estimate for `key`: the minimum of its buckets. One-sided —
    /// always `>=` the true total recorded for `key`.
    pub fn estimate(&self, key: usize) -> u64 {
        (0..self.depth)
            .map(|r| self.buckets[r * self.width + self.index(r, key)])
            .min()
            .expect("depth > 0")
    }

    /// Total bytes recorded (the `N` of the `εN` guarantee).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The classical per-query overestimate scale: `ε = e / width`. With
    /// probability `1 − δ` a point estimate exceeds the truth by at most
    /// `ε · total()`.
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// The classical failure probability: `δ = e^(−depth)`.
    pub fn delta(&self) -> f64 {
        (-(self.depth as f64)).exp()
    }

    /// Deterministic overestimate bound over an enumerable key universe
    /// `0..keys`: for each key, the minimum over rows of the summed point
    /// estimates of the *other* keys sharing its bucket. Since every point
    /// estimate is `>=` its true count, this dominates the true collision
    /// mass in the key's best row, which in turn bounds the overestimate —
    /// a hard guarantee, unlike the probabilistic `εN`.
    pub fn collision_bound(&self, keys: usize) -> u64 {
        let est: Vec<u64> = (0..keys).map(|k| self.estimate(k)).collect();
        let mut worst = 0u64;
        for k in 0..keys {
            let per_key = (0..self.depth)
                .map(|r| {
                    let target = self.index(r, k);
                    (0..keys)
                        .filter(|&j| j != k && self.index(r, j) == target)
                        .fold(0u64, |acc, j| acc.saturating_add(est[j]))
                })
                .min()
                .expect("depth > 0");
            worst = worst.max(per_key);
        }
        worst
    }

    /// Fraction of nonzero buckets, in permille. Maintained incrementally
    /// on record, so this is O(1) — cheap enough to publish per batch.
    pub fn saturation_permille(&self) -> u64 {
        (self.occupied as u64 * 1000) / self.buckets.len() as u64
    }

    /// Zero every bucket, keeping the seeds (and therefore the collision
    /// structure). Line-rate deployments recycle the sketch between
    /// observation windows instead of reallocating.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.occupied = 0;
        self.total = 0;
    }
}

/// A streaming attribution store: one [`CountMinSketch`] per configuration,
/// keyed by link id. Memory is `configs × width × depth` counters
/// regardless of how many links exist — the line-rate trade.
#[derive(Debug, Clone)]
pub struct SketchAccumulator {
    num_links: usize,
    depth: usize,
    /// Bucket indexes per link, row-major (`num_links × depth`). Link ids
    /// are a tiny enumerable universe and the sketches share seeds, so the
    /// hot record path never hashes.
    link_indexes: Vec<u32>,
    sketches: Vec<CountMinSketch>,
}

impl SketchAccumulator {
    /// One `width × depth` sketch per configuration. All sketches share
    /// hash seeds (derived from `seed`), so the collision structure — and
    /// therefore the error bound — is uniform across configurations.
    ///
    /// # Panics
    /// Panics if `width` or `depth` is zero.
    pub fn new(
        num_configs: usize,
        num_links: usize,
        width: usize,
        depth: usize,
        seed: u64,
    ) -> SketchAccumulator {
        let proto = CountMinSketch::new(width, depth, seed);
        let link_indexes = (0..num_links).flat_map(|k| proto.indexes_of(k)).collect();
        SketchAccumulator {
            num_links,
            depth,
            link_indexes,
            sketches: vec![proto; num_configs],
        }
    }

    /// The per-configuration sketches (read-only).
    pub fn sketches(&self) -> &[CountMinSketch] {
        &self.sketches
    }

    /// Zero every configuration's sketch, keeping seeds and the
    /// precomputed link index table — the steady-state reset between
    /// observation windows.
    pub fn clear(&mut self) {
        for s in &mut self.sketches {
            s.clear();
        }
    }

    /// The worst classical `εN` bound across configurations (probabilistic,
    /// holds per query with probability `1 − δ`). [`Self::error_bound`]
    /// reports the *deterministic* enumeration bound instead; this one
    /// exists so callers can report both.
    pub fn epsilon_n_bound(&self) -> u64 {
        self.sketches
            .iter()
            .map(|s| (s.epsilon() * s.total() as f64).ceil() as u64)
            .max()
            .unwrap_or(0)
    }
}

impl VolumeAccumulator for SketchAccumulator {
    fn num_configs(&self) -> usize {
        self.sketches.len()
    }

    fn num_links(&self) -> usize {
        self.num_links
    }

    fn record(&mut self, config: usize, link: LinkId, bytes: u64) {
        let start = link.us() * self.depth;
        self.sketches[config].record_at(&self.link_indexes[start..start + self.depth], bytes);
    }

    fn volume(&self, config: usize, link: LinkId) -> u64 {
        self.sketches[config].estimate(link.us())
    }

    fn error_bound(&self) -> u64 {
        self.sketches
            .iter()
            .map(|s| s.collision_bound(self.num_links))
            .max()
            .unwrap_or(0)
    }

    fn saturation_permille(&self) -> Option<u64> {
        self.sketches
            .iter()
            .map(CountMinSketch::saturation_permille)
            .max()
    }
}

// ---------------------------------------------------------------------------
// Batched dense counters
// ---------------------------------------------------------------------------

/// Independent scratch lanes per link on the batched ingest path: heavy
/// hitters spread across lanes instead of serializing on one add chain,
/// and the fold loop is a contiguous sum the compiler can vectorize.
const LANES: usize = 8;

/// Exact dense per-link counters with a batched ingest path: each flow
/// batch lands in an L1-resident scratch of [`LANES`] u64 lanes per link,
/// folded into the main rows once per batch. `record` remains a direct
/// single-counter add; `error_bound` is 0.
#[derive(Debug, Clone)]
pub struct BatchedDenseAccumulator {
    num_configs: usize,
    num_links: usize,
    rows: Vec<u64>,
    scratch: Vec<u64>,
}

impl BatchedDenseAccumulator {
    /// A zeroed `num_configs × num_links` counter matrix.
    pub fn new(num_configs: usize, num_links: usize) -> BatchedDenseAccumulator {
        BatchedDenseAccumulator {
            num_configs,
            num_links,
            rows: vec![0; num_configs * num_links],
            scratch: vec![0; num_links * LANES],
        }
    }

    /// Zero every counter (the between-windows reset, matching
    /// [`SketchAccumulator::clear`]).
    pub fn clear(&mut self) {
        self.rows.fill(0);
        self.scratch.fill(0);
    }
}

impl VolumeAccumulator for BatchedDenseAccumulator {
    fn num_configs(&self) -> usize {
        self.num_configs
    }

    fn num_links(&self) -> usize {
        self.num_links
    }

    fn record(&mut self, config: usize, link: LinkId, bytes: u64) {
        self.rows[config * self.num_links + link.us()] += bytes;
    }

    fn volume(&self, config: usize, link: LinkId) -> u64 {
        self.rows[config * self.num_links + link.us()]
    }

    fn error_bound(&self) -> u64 {
        0
    }

    fn ingest(&mut self, config: usize, catchments: &Catchments, flows: &[Flow]) {
        let width = self.num_links;
        let mut bytes = 0u64;
        let mut unattributed = 0u64;
        for (i, f) in flows.iter().enumerate() {
            bytes += f.bytes;
            let link = if f.src_as.us() < catchments.len() {
                catchments.get(f.src_as)
            } else {
                None
            };
            match link {
                Some(l) if l.us() < width => {
                    self.scratch[l.us() * LANES + (i % LANES)] += f.bytes;
                }
                _ => unattributed += 1,
            }
        }
        for l in 0..width {
            let lanes = &mut self.scratch[l * LANES..(l + 1) * LANES];
            let sum: u64 = lanes.iter().sum();
            lanes.fill(0);
            self.rows[config * width + l] += sum;
        }
        publish_ingest_metrics(flows.len() as u64, bytes, unattributed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_topology::AsIndex;

    fn catchments(n: usize, links: usize) -> Catchments {
        let mut c = Catchments::unassigned(n);
        for i in 0..n {
            let link = if i % 7 == 6 {
                None
            } else {
                Some(LinkId((i % links) as u8))
            };
            c.set(AsIndex(i as u32), link);
        }
        c
    }

    fn flows(n: usize) -> Vec<Flow> {
        (0..n)
            .map(|i| Flow {
                src_as: AsIndex(i as u32),
                claimed_ip: 0xCB00_7101,
                dst_ip: 0xB8A4_E001,
                packets: 1,
                bytes: (i as u64 % 97) * 64 + 64,
                spoofed: true,
            })
            .collect()
    }

    #[test]
    fn sketch_estimates_are_one_sided() {
        let mut s = CountMinSketch::new(4, 3, 42);
        let truth: Vec<u64> = (0..16u64).map(|k| k * 100 + 1).collect();
        for (k, &v) in truth.iter().enumerate() {
            s.record(k, v);
        }
        let bound = s.collision_bound(truth.len());
        for (k, &v) in truth.iter().enumerate() {
            let est = s.estimate(k);
            assert!(est >= v, "underestimate at key {k}: {est} < {v}");
            assert!(
                est - v <= bound,
                "overestimate at key {k} beyond the hard bound: {} > {bound}",
                est - v
            );
        }
    }

    #[test]
    fn wide_sketch_is_effectively_exact() {
        // With width far above the key count and several rows, some row
        // usually isolates each key; the estimate then equals the truth
        // and the enumerated bound reports exactly how much residue the
        // collisions left.
        let mut s = CountMinSketch::new(256, 4, 7);
        for k in 0..8usize {
            s.record(k, 1000 + k as u64);
        }
        let bound = s.collision_bound(8);
        for k in 0..8usize {
            assert!(s.estimate(k) - (1000 + k as u64) <= bound);
        }
        assert_eq!(s.total(), (0..8u64).map(|k| 1000 + k).sum::<u64>());
    }

    #[test]
    fn conservative_update_beats_plain_addition() {
        // Width 1: every key shares the single bucket per row. A plain CMS
        // would report the grand total for every key; conservative update
        // keeps the bucket at the largest single point estimate.
        let mut s = CountMinSketch::new(1, 2, 0);
        s.record(0, 10);
        s.record(1, 10);
        s.record(0, 10);
        // Plain CMS would say 30 for both keys. Conservative update: after
        // the second record(0), estimate(0) was 20, bucket raised to 30.
        assert!(s.estimate(0) <= 30);
        assert!(s.estimate(0) >= 20, "never below the true count");
        let bound = s.collision_bound(2);
        for (k, truth) in [(0usize, 20u64), (1, 10)] {
            assert!(s.estimate(k) >= truth);
            assert!(s.estimate(k) - truth <= bound);
        }
    }

    #[test]
    fn accumulator_ingest_matches_dense_reference() {
        let n = 200;
        let cat = catchments(n, 5);
        let fl = flows(n);
        let mut dense = vec![vec![0u64; 5]; 3];
        let mut batched = BatchedDenseAccumulator::new(3, 5);
        let mut sketch = SketchAccumulator::new(3, 5, 64, 4, 9);
        for cfg in 0..3 {
            dense.as_mut_slice().ingest(cfg, &cat, &fl);
            ingest_stream(&mut batched, cfg, &cat, &fl, 17);
            sketch.ingest(cfg, &cat, &fl);
        }
        let bound = sketch.error_bound();
        for cfg in 0..3 {
            for l in 0..5 {
                let link = LinkId(l as u8);
                let exact = dense.as_slice().volume(cfg, link);
                assert_eq!(batched.volume(cfg, link), exact, "batched dense is exact");
                let est = sketch.volume(cfg, link);
                assert!(est >= exact, "sketch underestimated {cfg}/{l}");
                assert!(est - exact <= bound, "sketch bound violated {cfg}/{l}");
            }
            assert_eq!(batched.dense_row(cfg), dense[cfg]);
        }
        assert_eq!(dense.as_slice().error_bound(), 0);
        assert_eq!(batched.error_bound(), 0);
    }

    #[test]
    fn ingest_counts_unattributed_flows() {
        let before = trackdown_obs::global()
            .counter("traffic.ingest.unattributed")
            .get();
        let n = 70;
        let cat = catchments(n, 3);
        let fl = flows(n);
        let mut acc = BatchedDenseAccumulator::new(1, 3);
        acc.ingest(0, &cat, &fl);
        let after = trackdown_obs::global()
            .counter("traffic.ingest.unattributed")
            .get();
        // Every 7th AS is unassigned in the fixture (70 / 7 = 10 flows).
        assert!(after - before >= 10, "unattributed counter not maintained");
    }

    #[test]
    fn saturation_gauge_tracks_occupancy() {
        let cat = catchments(40, 4);
        let fl = flows(40);
        let mut sk = SketchAccumulator::new(1, 4, 8, 2, 3);
        sk.ingest(0, &cat, &fl);
        let gauge = trackdown_obs::global()
            .gauge("traffic.sketch.saturation_permille")
            .get();
        let direct = sk.saturation_permille().unwrap();
        assert!(direct > 0);
        assert!(gauge > 0, "saturation gauge never published");
        assert!(direct <= 1000);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_sketch_rejected() {
        let _ = CountMinSketch::new(0, 2, 1);
    }
}
