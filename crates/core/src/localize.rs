//! The end-to-end localization pipeline: deploy configurations, obtain
//! catchments (true or measured), refine clusters, and correlate spoofed
//! traffic volumes to rank suspect clusters.

use crate::cluster::{ClusterSplit, Clustering, RefineDelta};
use crate::config::AnnouncementConfig;
use crate::schedule::warm_start_order;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trackdown_bgp::{
    BgpEngine, Catchments, DrainWork, LinkId, OriginAs, RoutingOutcome, SnapshotDetail,
};
use trackdown_measure::{
    analysis_set, impute_visibility, ImputationStats, MeasuredCatchments, MeasurementPlane,
};
use trackdown_obs::{CampaignRecorder, EpochMode, EpochRecord};
use trackdown_topology::AsIndex;
use trackdown_traffic::VolumeAccumulator;

/// How catchments are obtained for each configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CatchmentSource {
    /// Ground-truth control-plane catchments (oracle; isolates the
    /// algorithms from measurement noise).
    ControlPlane,
    /// Ground-truth data-plane catchments (what traffic actually does).
    DataPlane,
    /// Measured through the observation plane with §IV-d visibility
    /// imputation.
    Measured,
}

/// How the campaign executor drives the BGP engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignMode {
    /// Warm-start epoch reuse: one persistent routing session per worker
    /// deploys configurations as epoch transitions in footprint-distance
    /// order, with a memo cache that skips duplicate footprints. Results
    /// are identical to [`CampaignMode::Cold`]: Gao-Rexford fixpoints are
    /// unique, and on engines with policy violators (where stable states
    /// are *not* unique) the session transparently cold-starts each
    /// deployment instead of reusing the epoch — see
    /// [`trackdown_bgp::CampaignSession::warm_reuse`]. Only wall-clock
    /// time may differ from `Cold`, never the campaign.
    Warm,
    /// Cold start: every configuration propagates from empty RIBs in
    /// schedule order — the original executor, kept as the oracle the
    /// differential tests compare against.
    Cold,
    /// Delta propagation: like [`CampaignMode::Warm`] (same deployment
    /// order, memo cache, and violator gate), but each epoch transition
    /// diffs the incoming announcement against the previous one, seeds
    /// only providers whose injection changed, and propagates with
    /// rank-ordered scheduling — epoch cost tracks routes actually
    /// disturbed instead of topology size. Control-plane catchments are
    /// patched incrementally from the epoch's change log. Results are
    /// identical to `Warm` and `Cold` (the three-way differential suite
    /// in `tests/delta_differential.rs` is the proof obligation).
    Delta,
}

/// Executor counters reported alongside a [`Campaign`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Which executor produced the campaign.
    pub mode: CampaignMode,
    /// Fixpoint computations actually run (≤ number of configurations
    /// when the memo cache hits).
    pub propagations: usize,
    /// Configurations served from the footprint memo cache without
    /// touching the engine.
    pub memo_hits: usize,
    /// Warm epochs that hit the event cap and were redone cold.
    pub cold_restarts: usize,
    /// Worker threads used.
    pub threads: usize,
    /// High-water node count of the interned path arena (max over
    /// workers): the steady-state memory footprint of warm reuse.
    pub peak_arena_nodes: usize,
    /// Catchment-extraction shards used (1 = whole-topology extraction).
    pub shards: usize,
    /// Node count of the canonical arena obtained by merging every
    /// worker's path arena after a sharded campaign (0 for the other
    /// executors). Shared AS-path prefixes intern to the same node, so
    /// this stays close to `peak_arena_nodes` rather than growing with
    /// the worker count — the memory bound DESIGN.md §4f relies on.
    pub merged_arena_nodes: usize,
    /// Sum over deployed epochs of the ASes whose best route differs from
    /// the previous epoch's fixpoint (memo hits contribute 0) — the
    /// workload [`CampaignMode::Delta`] makes epoch cost proportional to.
    pub routes_disturbed: usize,
    /// Total propagation events (per-AS decide/export activations) across
    /// every deployed epoch. Deterministic for a fixed scenario and mode,
    /// so warm/delta event ratios are comparable across machines — the
    /// work-unit metric the bench snapshot's `delta_speedup` reports.
    pub events: usize,
    /// Drain work counters summed over every deployed epoch
    /// ([`RoutingOutcome::work`]). Deterministic like `events`.
    #[serde(skip)]
    pub work: DrainWork,
    /// Policy violators that turned warm/delta reuse off: the session
    /// cold-started every deployment although `mode` asked for reuse
    /// (see [`trackdown_bgp::CampaignSession::warm_reuse`]). 0 when
    /// reuse ran or [`CampaignMode::Cold`] was requested.
    #[serde(default)]
    pub warm_reuse_disabled_violators: usize,
    /// Steal attempts by the sharded executor that found the queue empty
    /// (0 for the other executors). A high count relative to
    /// `campaign.shard_steals` means workers spin on an empty queue —
    /// the contention signature behind `large_shard_speedup < 1`.
    pub shard_steal_fails: usize,
    /// Per-worker busy time (µs inside produce/extract/steal/merge work)
    /// for the sharded executor; empty for the other executors and in
    /// deterministic runs (wall-clock must not leak there).
    pub worker_busy_us: Vec<u64>,
    /// Per-worker idle time (µs spent waiting on the task queue);
    /// parallel to `worker_busy_us`.
    pub worker_idle_us: Vec<u64>,
}

impl Default for CampaignStats {
    fn default() -> CampaignStats {
        CampaignStats {
            mode: CampaignMode::Warm,
            propagations: 0,
            memo_hits: 0,
            cold_restarts: 0,
            threads: 1,
            peak_arena_nodes: 0,
            shards: 1,
            merged_arena_nodes: 0,
            routes_disturbed: 0,
            events: 0,
            work: DrainWork::default(),
            warm_reuse_disabled_violators: 0,
            shard_steal_fails: 0,
            worker_busy_us: Vec::new(),
            worker_idle_us: Vec::new(),
        }
    }
}

/// The violator count that makes `engine`'s sessions cold-start every
/// deployment of a `mode` campaign, or 0 when reuse runs (or was never
/// requested).
fn reuse_disabled_violators(engine: &BgpEngine<'_>, mode: CampaignMode) -> usize {
    match mode {
        CampaignMode::Cold => 0,
        CampaignMode::Warm | CampaignMode::Delta => engine.policy().num_violators(),
    }
}

/// Per-configuration snapshot recorded while a campaign runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigRecord {
    /// Mean cluster size after this configuration.
    pub mean_cluster_size: f64,
    /// 90th-percentile cluster size after this configuration.
    pub p90_cluster_size: usize,
    /// Number of clusters after this configuration.
    pub num_clusters: usize,
    /// Whether propagation converged.
    pub converged: bool,
}

/// The refinement history of a campaign, indexed for incremental
/// attribution: one [`RefineDelta`] per configuration, recording how the
/// partition evolved (old→new cluster mapping, per-cluster catchment
/// link, split log).
///
/// This is what lets [`rank_suspects`], [`estimate_cluster_volumes`] and
/// [`match_fraction_scores`] walk cluster *lineages* — inheriting each
/// parent's accumulated volume bound across splits — instead of rescanning
/// every catchment per final cluster the way the `*_rescan` references do.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionIndex {
    /// Clusters before the first refinement (1, or 0 when nothing is
    /// tracked).
    initial_clusters: u32,
    /// One delta per configuration, in schedule order.
    deltas: Vec<RefineDelta>,
    /// `1 + max(link id)` over every catchment link a tracked cluster
    /// landed on — the minimum width a per-configuration volume vector
    /// must have for attribution to read it without fabricating zeros.
    num_links: usize,
}

impl AttributionIndex {
    /// Assemble an index from the deltas of a refinement run.
    pub fn new(initial_clusters: u32, deltas: Vec<RefineDelta>) -> AttributionIndex {
        let num_links = deltas
            .iter()
            .flat_map(|d| d.link_of.iter().flatten())
            .map(|l| l.us() + 1)
            .max()
            .unwrap_or(0);
        AttributionIndex {
            initial_clusters,
            deltas,
            num_links,
        }
    }

    /// Refine `tracked` over `catchments` in schedule order, returning the
    /// final partition together with its attribution index — the
    /// standalone analog of what campaign assembly does.
    pub fn build(
        tracked: Vec<AsIndex>,
        catchments: &[Catchments],
    ) -> (Clustering, AttributionIndex) {
        let mut clustering = Clustering::single(tracked);
        let initial = clustering.num_clusters() as u32;
        let deltas = catchments
            .iter()
            .map(|cat| clustering.refine_logged(cat))
            .collect();
        (clustering, AttributionIndex::new(initial, deltas))
    }

    /// Number of configurations indexed.
    pub fn num_configs(&self) -> usize {
        self.deltas.len()
    }

    /// Minimum width of a per-configuration link-volume vector: one entry
    /// per link id up to the largest any tracked cluster was routed to.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of clusters after the final configuration.
    pub fn final_num_clusters(&self) -> usize {
        self.deltas
            .last()
            .map(|d| d.num_clusters())
            .unwrap_or(self.initial_clusters as usize)
    }

    /// The full delta of configuration `k`.
    pub fn delta(&self, k: usize) -> &RefineDelta {
        &self.deltas[k]
    }

    /// The split log of configuration `k`: which clusters split, into
    /// what.
    pub fn split_log(&self, k: usize) -> &[ClusterSplit] {
        &self.deltas[k].splits
    }

    /// Total number of splits across the whole campaign.
    pub fn total_splits(&self) -> usize {
        self.deltas.iter().map(|d| d.splits.len()).sum()
    }

    /// Reconstruct, for every *final* cluster, the catchment link it (that
    /// is, its ancestor at the time) was routed to in each configuration —
    /// by walking parent chains backward through the deltas. O(final
    /// clusters × configurations), no catchment lookups.
    pub fn final_links(&self) -> Vec<Vec<Option<LinkId>>> {
        let kk = self.deltas.len();
        let final_n = self.final_num_clusters();
        let mut rows: Vec<Vec<Option<LinkId>>> = vec![vec![None; kk]; final_n];
        let mut anc: Vec<u32> = (0..final_n as u32).collect();
        for k in (0..kk).rev() {
            let d = &self.deltas[k];
            for (c, row) in rows.iter_mut().enumerate() {
                let a = anc[c] as usize;
                row[k] = d.link_of[a];
                anc[c] = d.parent_of[a];
            }
        }
        rows
    }
}

/// The result of deploying a configuration schedule.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The deployed configurations, in order.
    pub configs: Vec<AnnouncementConfig>,
    /// Catchments per configuration (over all ASes; restricted to the
    /// tracked set during clustering).
    pub catchments: Vec<Catchments>,
    /// The tracked sources (everything reachable/observed at baseline).
    pub tracked: Vec<AsIndex>,
    /// Final clustering.
    pub clustering: Clustering,
    /// Refinement history indexed for incremental attribution.
    pub attribution: AttributionIndex,
    /// Per-configuration progress (Figure 4's series).
    pub records: Vec<ConfigRecord>,
    /// Visibility-imputation statistics (measured campaigns only).
    pub imputation: Option<ImputationStats>,
    /// Executor counters (mode, propagations, memo hits).
    pub stats: CampaignStats,
}

/// Deploy every configuration and cluster the catchments.
///
/// The tracked-source rule follows §IV-d: sources covered by the *first*
/// configuration (the full anycast baseline) are tracked; for measured
/// campaigns, missing observations in later configurations are imputed
/// via `smax` before clustering.
pub fn run_campaign(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    plane: Option<&MeasurementPlane>,
    max_events_factor: usize,
) -> Campaign {
    run_campaign_mode(
        engine,
        origin,
        configs,
        source,
        plane,
        max_events_factor,
        CampaignMode::Warm,
    )
}

/// Extract the requested ground-truth catchments from a routing outcome.
fn extract_catchments(source: CatchmentSource, outcome: &RoutingOutcome) -> Catchments {
    match source {
        CatchmentSource::ControlPlane => Catchments::from_control_plane(outcome),
        CatchmentSource::DataPlane => Catchments::from_data_plane(outcome),
        CatchmentSource::Measured => {
            unreachable!("measured catchments come from the observation plane")
        }
    }
}

/// Cluster the catchments and assemble the final [`Campaign`] — the tail
/// shared by every executor. Refinement runs in schedule (index) order,
/// so campaigns are identical however the executor ordered deployments.
fn assemble_campaign(
    configs: &[AnnouncementConfig],
    catchments: Vec<Catchments>,
    converged: Vec<bool>,
    tracked: Vec<AsIndex>,
    imputation: Option<ImputationStats>,
    stats: CampaignStats,
) -> Campaign {
    let _span = trackdown_obs::span("campaign.cluster");
    trackdown_obs::counter!("campaign.runs").inc();
    trackdown_obs::counter!("campaign.propagations").add(stats.propagations as u64);
    trackdown_obs::counter!("campaign.memo_hits").add(stats.memo_hits as u64);
    trackdown_obs::counter!("campaign.cold_restarts").add(stats.cold_restarts as u64);
    let mut clustering = Clustering::single(tracked.clone());
    let initial_clusters = clustering.num_clusters() as u32;
    let mut deltas = Vec::with_capacity(configs.len());
    let mut records = Vec::with_capacity(configs.len());
    for (k, cat) in catchments.iter().enumerate() {
        deltas.push(clustering.refine_logged(cat));
        let cstats = clustering.stats();
        records.push(ConfigRecord {
            mean_cluster_size: clustering.mean_size(),
            p90_cluster_size: cstats.p90,
            num_clusters: clustering.num_clusters(),
            converged: converged[k],
        });
    }
    Campaign {
        configs: configs.to_vec(),
        catchments,
        tracked,
        clustering,
        attribution: AttributionIndex::new(initial_clusters, deltas),
        records,
        imputation,
        stats,
    }
}

/// [`run_campaign`] with an explicit executor mode.
///
/// `Warm` deploys through one persistent [`trackdown_bgp::CampaignSession`]
/// in [`warm_start_order`] (greedy footprint-distance chaining), skipping
/// duplicate footprints via a memo cache keyed by the canonical ⟨A;P;Q⟩
/// footprint. `Cold` propagates every configuration from empty RIBs in
/// schedule order. Both produce byte-identical campaigns: catchments and
/// convergence flags depend only on each configuration's fixpoint (the
/// session cold-starts internally on violator engines, where fixpoints
/// are history-dependent), results are stored by schedule index, and
/// clustering always refines in schedule order. The memo cache is sound
/// either way — identical footprints lower to identical injections, and
/// each deployment's outcome is a pure function of its injections.
/// The memo cache is disabled for `Measured` campaigns
/// (the observation plane salts its noise by schedule index, so duplicate
/// footprints still measure differently), but the warm session still
/// skips most convergence work.
pub fn run_campaign_mode(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    plane: Option<&MeasurementPlane>,
    max_events_factor: usize,
    mode: CampaignMode,
) -> Campaign {
    run_campaign_recorded(
        engine,
        origin,
        configs,
        source,
        plane,
        max_events_factor,
        mode,
        None,
    )
}

/// [`run_campaign_mode`] with an optional [`CampaignRecorder`] collecting
/// one [`EpochRecord`] per configuration for the JSONL run manifest. The
/// recorder only *reads* each deployment's outcome after the fact, so it
/// cannot perturb the campaign; with `None` it costs nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_recorded(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    plane: Option<&MeasurementPlane>,
    max_events_factor: usize,
    mode: CampaignMode,
    recorder: Option<&CampaignRecorder>,
) -> Campaign {
    assert!(!configs.is_empty(), "empty schedule");
    let _span = trackdown_obs::span("campaign.run");
    let topo = engine.topology();
    let n = configs.len();
    let mut catchments_by_k: Vec<Option<Catchments>> = vec![None; n];
    let mut converged_by_k: Vec<Option<bool>> = vec![None; n];
    let mut measured_by_k: Vec<Option<MeasuredCatchments>> = (0..n).map(|_| None).collect();
    let order = match mode {
        CampaignMode::Warm | CampaignMode::Delta => warm_start_order(configs),
        CampaignMode::Cold => (0..n).collect(),
    };
    let mut session = engine.session();
    let mut memo: HashMap<String, usize> = HashMap::new();
    let mut stats = CampaignStats {
        mode,
        warm_reuse_disabled_violators: reuse_disabled_violators(engine, mode),
        ..CampaignStats::default()
    };
    // Delta mode patches control-plane catchments from the epoch change
    // log instead of re-extracting: index of the last *deployed* (not
    // memo-replayed) epoch whose catchments can serve as the patch base.
    let mut last_deployed: Option<usize> = None;
    for &k in &order {
        let cfg = &configs[k];
        cfg.validate(origin).expect("invalid configuration");
        let memo_key = match (mode, source) {
            (
                CampaignMode::Warm | CampaignMode::Delta,
                CatchmentSource::ControlPlane | CatchmentSource::DataPlane,
            ) => Some(cfg.footprint_key()),
            _ => None,
        };
        if let Some(key) = &memo_key {
            if let Some(&j) = memo.get(key) {
                stats.memo_hits += 1;
                catchments_by_k[k] = catchments_by_k[j].clone();
                converged_by_k[k] = converged_by_k[j];
                if let Some(rec) = recorder {
                    rec.record(EpochRecord {
                        epoch: k,
                        footprint: key.clone(),
                        mode: EpochMode::Memo,
                        thread: 0,
                        events: 0,
                        rounds: 0,
                        changes: 0,
                        routes_disturbed: 0,
                        converged: converged_by_k[k].expect("memo entry deployed"),
                        wall_us: None,
                    });
                }
                continue;
            }
        }
        let timer = recorder.and_then(|r| r.start_timer());
        // Only measured campaigns read path contents (BGP feed collection);
        // everything else gets the cheap Catchments-detail snapshot.
        let detail = match source {
            CatchmentSource::Measured => SnapshotDetail::Full,
            _ => SnapshotDetail::Catchments,
        };
        let outcome = match mode {
            CampaignMode::Warm => session.deploy_config_detailed(
                origin,
                &cfg.to_link_announcements(),
                max_events_factor,
                detail,
            ),
            CampaignMode::Delta => session.deploy_config_delta_detailed(
                origin,
                &cfg.to_link_announcements(),
                max_events_factor,
                detail,
            ),
            CampaignMode::Cold => engine.propagate_config_detailed(
                origin,
                &cfg.to_link_announcements(),
                max_events_factor,
                detail,
            ),
        }
        .expect("validated configuration");
        if let Some(rec) = recorder {
            let epoch_mode = match mode {
                CampaignMode::Warm if session.last_deploy_warm() => EpochMode::Warm,
                CampaignMode::Delta if session.last_deploy_warm() => EpochMode::Delta,
                _ => EpochMode::Cold,
            };
            rec.record(EpochRecord {
                epoch: k,
                footprint: memo_key.clone().unwrap_or_else(|| cfg.footprint_key()),
                mode: epoch_mode,
                thread: 0,
                events: outcome.events,
                rounds: outcome.rounds,
                changes: outcome.changes.len(),
                routes_disturbed: outcome.routes_disturbed,
                converged: outcome.converged,
                wall_us: rec.elapsed_us(timer),
            });
        }
        stats.propagations += 1;
        stats.routes_disturbed += outcome.routes_disturbed;
        stats.events += outcome.events;
        stats.work += outcome.work;
        converged_by_k[k] = Some(outcome.converged);
        match source {
            CatchmentSource::Measured => {
                let plane = plane.expect("Measured campaigns need a MeasurementPlane");
                measured_by_k[k] = Some(plane.measure(topo, &outcome, origin.asn, k as u64));
            }
            _ => {
                // A delta epoch's change log lists exactly the ASes whose
                // best route moved, so the previous control-plane
                // catchments patch forward in O(changes). Data-plane
                // catchments still need a full walk: a hop change can
                // reroute sources whose own best route is untouched.
                let patched = if mode == CampaignMode::Delta
                    && source == CatchmentSource::ControlPlane
                    && session.last_deploy_warm()
                {
                    last_deployed.map(|j| {
                        let mut c = catchments_by_k[j]
                            .clone()
                            .expect("deployed epoch extracted");
                        for ch in &outcome.changes {
                            c.set(ch.at, ch.ingress);
                        }
                        c
                    })
                } else {
                    None
                };
                catchments_by_k[k] =
                    Some(patched.unwrap_or_else(|| extract_catchments(source, &outcome)));
                last_deployed = Some(k);
            }
        }
        if let Some(key) = memo_key {
            memo.insert(key, k);
        }
    }
    stats.cold_restarts = session.cold_restarts();
    stats.peak_arena_nodes = session.peak_arena_nodes();
    let converged: Vec<bool> = converged_by_k
        .into_iter()
        .map(|c| c.expect("every configuration deployed"))
        .collect();
    let (catchments, tracked, imputation) = match source {
        CatchmentSource::Measured => {
            let mut measured: Vec<MeasuredCatchments> = measured_by_k
                .into_iter()
                .map(|m| m.expect("every configuration measured"))
                .collect();
            let istats = impute_visibility(&mut measured, 0);
            let tracked = analysis_set(&measured, 0);
            let catchments = measured.into_iter().map(|m| m.catchments).collect();
            (catchments, tracked, Some(istats))
        }
        _ => {
            let catchments: Vec<Catchments> = catchments_by_k
                .into_iter()
                .map(|c| c.expect("every configuration deployed"))
                .collect();
            // Track every source the baseline reaches.
            let tracked: Vec<AsIndex> = topo
                .indices()
                .filter(|&i| catchments[0].is_assigned(i))
                .collect();
            (catchments, tracked, None)
        }
    };
    assemble_campaign(configs, catchments, converged, tracked, imputation, stats)
}

/// Parallel variant of [`run_campaign`]: configurations are independent,
/// so their propagations run on `threads` OS threads (scoped; no
/// dependencies beyond the shared read-only engine). Results are
/// identical to the sequential version — order, catchments, clustering —
/// because outputs are collected by configuration index.
///
/// This is also the simulation analog of the paper's §V-C speed-up of
/// deploying multiple configurations *concurrently on multiple prefixes*:
/// wall-clock time divides by the number of prefixes (threads) while the
/// information gathered is unchanged.
pub fn run_campaign_parallel(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    max_events_factor: usize,
    threads: usize,
) -> Campaign {
    run_campaign_parallel_mode(
        engine,
        origin,
        configs,
        source,
        max_events_factor,
        threads,
        CampaignMode::Warm,
    )
}

/// [`run_campaign_parallel`] with an explicit executor mode.
///
/// Each worker owns one persistent warm session (and its own memo cache)
/// over one contiguous chunk of the schedule, reordering deployments
/// *within the chunk* by footprint distance. Chunk boundaries, the
/// stored-by-index results, and the schedule-order clustering make the
/// campaign independent of the thread count and identical to the
/// sequential executors — only `stats` (per-worker counters summed) can
/// differ across thread counts, because memo hits do not cross chunks.
pub fn run_campaign_parallel_mode(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    max_events_factor: usize,
    threads: usize,
    mode: CampaignMode,
) -> Campaign {
    run_campaign_parallel_recorded(
        engine,
        origin,
        configs,
        source,
        max_events_factor,
        threads,
        mode,
        None,
    )
}

/// [`run_campaign_parallel_mode`] with an optional [`CampaignRecorder`].
///
/// Workers record epochs in completion order from their own threads;
/// the recorder re-sorts by schedule index on
/// [`CampaignRecorder::take_records`], and no instrumentation value
/// flows back into the campaign, so results stay identical across
/// thread counts with or without a recorder attached (the 1/2/8-thread
/// invariance golden runs with one attached). Per-epoch counters
/// (`events`, `rounds`, `changes`) describe each worker's *own* warm
/// chain and therefore legitimately vary with the chunking — only the
/// campaign itself is thread-invariant.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_parallel_recorded(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    max_events_factor: usize,
    threads: usize,
    mode: CampaignMode,
    recorder: Option<&CampaignRecorder>,
) -> Campaign {
    assert!(!configs.is_empty(), "empty schedule");
    assert!(
        source != CatchmentSource::Measured,
        "measured campaigns are sequential (the observation plane salts by deployment order)"
    );
    let _span = trackdown_obs::span("campaign.run");
    let topo = engine.topology();
    let threads = threads.max(1);
    let chunk_size = configs.len().div_ceil(threads);
    let mut results: Vec<Option<(Catchments, bool)>> = vec![None; configs.len()];
    let mut stats = CampaignStats {
        mode,
        threads: configs.chunks(chunk_size).len(),
        warm_reuse_disabled_violators: reuse_disabled_violators(engine, mode),
        ..CampaignStats::default()
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, chunk) in configs.chunks(chunk_size).enumerate() {
            let base = t * chunk_size;
            handles.push(scope.spawn(move || {
                let order: Vec<usize> = match mode {
                    CampaignMode::Warm | CampaignMode::Delta => warm_start_order(chunk),
                    CampaignMode::Cold => (0..chunk.len()).collect(),
                };
                let mut session = engine.session();
                let mut memo: HashMap<String, usize> = HashMap::new();
                let mut local: Vec<Option<(Catchments, bool)>> = vec![None; chunk.len()];
                let mut propagations = 0usize;
                let mut memo_hits = 0usize;
                let mut disturbed = 0usize;
                let mut events = 0usize;
                let mut work = DrainWork::default();
                // Patch base for delta control-plane extraction: the last
                // epoch this worker actually deployed (memo hits replay).
                let mut last_deployed: Option<usize> = None;
                for &off in &order {
                    let cfg = &chunk[off];
                    cfg.validate(origin).expect("invalid configuration");
                    if matches!(mode, CampaignMode::Warm | CampaignMode::Delta) {
                        let key = cfg.footprint_key();
                        if let Some(&j) = memo.get(&key) {
                            memo_hits += 1;
                            local[off] = local[j].clone();
                            if let Some(rec) = recorder {
                                rec.record(EpochRecord {
                                    epoch: base + off,
                                    footprint: key,
                                    mode: EpochMode::Memo,
                                    thread: t,
                                    events: 0,
                                    rounds: 0,
                                    changes: 0,
                                    routes_disturbed: 0,
                                    converged: local[off].as_ref().expect("memo entry deployed").1,
                                    wall_us: None,
                                });
                            }
                            continue;
                        }
                        memo.insert(key, off);
                    }
                    let timer = recorder.and_then(|r| r.start_timer());
                    let outcome = match mode {
                        CampaignMode::Warm => session.deploy_config(
                            origin,
                            &cfg.to_link_announcements(),
                            max_events_factor,
                        ),
                        CampaignMode::Delta => session.deploy_config_delta(
                            origin,
                            &cfg.to_link_announcements(),
                            max_events_factor,
                        ),
                        CampaignMode::Cold => engine.propagate_config(
                            origin,
                            &cfg.to_link_announcements(),
                            max_events_factor,
                        ),
                    }
                    .expect("validated configuration");
                    if let Some(rec) = recorder {
                        let epoch_mode = match mode {
                            CampaignMode::Warm if session.last_deploy_warm() => EpochMode::Warm,
                            CampaignMode::Delta if session.last_deploy_warm() => EpochMode::Delta,
                            _ => EpochMode::Cold,
                        };
                        rec.record(EpochRecord {
                            epoch: base + off,
                            footprint: cfg.footprint_key(),
                            mode: epoch_mode,
                            thread: t,
                            events: outcome.events,
                            rounds: outcome.rounds,
                            changes: outcome.changes.len(),
                            routes_disturbed: outcome.routes_disturbed,
                            converged: outcome.converged,
                            wall_us: rec.elapsed_us(timer),
                        });
                    }
                    propagations += 1;
                    disturbed += outcome.routes_disturbed;
                    events += outcome.events;
                    work += outcome.work;
                    // Same incremental patch as the sequential executor:
                    // the change log is exactly the set of moved routes.
                    let patched = if mode == CampaignMode::Delta
                        && source == CatchmentSource::ControlPlane
                        && session.last_deploy_warm()
                    {
                        last_deployed.map(|j| {
                            let mut c = local[j].clone().expect("deployed epoch extracted").0;
                            for ch in &outcome.changes {
                                c.set(ch.at, ch.ingress);
                            }
                            c
                        })
                    } else {
                        None
                    };
                    local[off] = Some((
                        patched.unwrap_or_else(|| extract_catchments(source, &outcome)),
                        outcome.converged,
                    ));
                    last_deployed = Some(off);
                }
                (
                    base,
                    local,
                    propagations,
                    memo_hits,
                    disturbed,
                    (events, work),
                    session.cold_restarts(),
                    session.peak_arena_nodes(),
                )
            }));
        }
        for h in handles {
            let (
                base,
                local,
                propagations,
                memo_hits,
                disturbed,
                (events, work),
                cold_restarts,
                peak_arena,
            ) = h.join().expect("worker panicked");
            for (off, r) in local.into_iter().enumerate() {
                results[base + off] = r;
            }
            stats.propagations += propagations;
            stats.memo_hits += memo_hits;
            stats.routes_disturbed += disturbed;
            stats.events += events;
            stats.work += work;
            stats.cold_restarts += cold_restarts;
            // Per-worker arenas: the campaign's footprint is the largest
            // single arena, not the sum.
            stats.peak_arena_nodes = stats.peak_arena_nodes.max(peak_arena);
        }
    });
    let mut catchments = Vec::with_capacity(configs.len());
    let mut converged = Vec::with_capacity(configs.len());
    for r in results {
        let (cat, conv) = r.expect("every configuration processed");
        catchments.push(cat);
        converged.push(conv);
    }
    let tracked: Vec<AsIndex> = topo
        .indices()
        .filter(|&i| catchments[0].is_assigned(i))
        .collect();
    assemble_campaign(configs, catchments, converged, tracked, None, stats)
}

/// Partition of the AS index space into contiguous, equal-width shards
/// for catchment extraction.
///
/// The plan is a pure function of `(num_ases, num_shards)`: the chunk
/// width is `⌈n/k⌉` rounded up to a multiple of 64 so every shard
/// boundary is u64-word-aligned in the bitset catchment rows (the
/// [`trackdown_bgp::Catchments::assemble`] merge then ORs whole words
/// instead of shifting across word boundaries). The effective shard
/// count is recomputed from the rounded chunk, so no shard is ever
/// empty. Because shards slice the *extraction* of each configuration's
/// fixpoint — never the propagation itself — the assembled catchments
/// are bit-identical for every shard count, which is what lets the
/// sharded executor promise manifest byte-identity across `--shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    num_ases: usize,
    chunk: usize,
    num_shards: usize,
}

impl ShardPlan {
    /// Smallest AS span worth a dedicated extraction task: below this,
    /// per-task overhead (queue round-trip, slot bookkeeping) rivals the
    /// scan itself, so [`ShardPlan::auto`] refuses to split further.
    const MIN_SPAN: usize = 4096;

    /// Plan `num_shards` shards over `num_ases` ASes. The request is
    /// clamped to `1..=num_ases` and the chunk is rounded up to a
    /// 64-AS multiple, so the effective [`Self::num_shards`] may be
    /// smaller than requested but never yields an empty shard.
    pub fn new(num_ases: usize, num_shards: usize) -> ShardPlan {
        let requested = num_shards.clamp(1, num_ases.max(1));
        let chunk = num_ases.div_ceil(requested).next_multiple_of(64).max(64);
        ShardPlan {
            num_ases,
            chunk,
            num_shards: num_ases.div_ceil(chunk).max(1),
        }
    }

    /// Auto-tune the shard count from the worker-thread count: enough
    /// shards that every thread can drain roughly two extraction tasks
    /// per epoch (hiding producer/stealer imbalance), but never so many
    /// that a shard spans fewer than [`Self::MIN_SPAN`] ASes — per-shard
    /// extraction work is proportional to its AS span, so tiny shards
    /// are pure queue overhead. Single-threaded runs get one shard:
    /// there is nobody to share the extraction with.
    pub fn auto(num_ases: usize, threads: usize) -> ShardPlan {
        if threads <= 1 {
            return ShardPlan::new(num_ases, 1);
        }
        let cap = num_ases.div_ceil(Self::MIN_SPAN).max(1);
        ShardPlan::new(num_ases, (threads * 2).min(cap))
    }

    /// Number of shards after clamping and 64-alignment.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The AS-index range shard `s` covers.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        (shard * self.chunk).min(self.num_ases)..((shard + 1) * self.chunk).min(self.num_ases)
    }

    /// All shard ranges, in order; they tile `0..num_ases` exactly.
    pub fn ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.num_shards).map(|s| self.range(s))
    }
}

/// Extract one shard's slice of the requested ground-truth catchments.
fn extract_shard(
    source: CatchmentSource,
    outcome: &RoutingOutcome,
    range: std::ops::Range<usize>,
) -> trackdown_bgp::ShardCatchments {
    match source {
        CatchmentSource::ControlPlane => {
            trackdown_bgp::ShardCatchments::from_control_plane(outcome, range)
        }
        CatchmentSource::DataPlane => {
            trackdown_bgp::ShardCatchments::from_data_plane(outcome, range)
        }
        CatchmentSource::Measured => {
            unreachable!("measured catchments come from the observation plane")
        }
    }
}

/// Sharded batch-catchment executor: [`run_campaign_parallel`] with the
/// per-configuration catchment extraction additionally split into
/// [`ShardPlan`] AS-ranges that are processed as a work-stealing batch.
pub fn run_campaign_sharded(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    max_events_factor: usize,
    threads: usize,
    shards: usize,
) -> Campaign {
    run_campaign_sharded_recorded(
        engine,
        origin,
        configs,
        source,
        max_events_factor,
        threads,
        shards,
        CampaignMode::Warm,
        None,
    )
}

/// [`run_campaign_sharded`] with an explicit executor mode.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_sharded_mode(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    max_events_factor: usize,
    threads: usize,
    shards: usize,
    mode: CampaignMode,
) -> Campaign {
    run_campaign_sharded_recorded(
        engine,
        origin,
        configs,
        source,
        max_events_factor,
        threads,
        shards,
        mode,
        None,
    )
}

/// The sharded batch-catchment executor.
///
/// **Propagation** is identical to [`run_campaign_parallel_recorded`]:
/// contiguous schedule chunks per worker, one persistent warm session and
/// footprint memo per worker, epochs recorded with the same thread ids.
/// The shard count therefore cannot perturb propagation, epoch records,
/// or deterministic manifests — only how extraction work is scheduled.
///
/// **Extraction** is the sharded part: after each fixpoint, the producing
/// worker enqueues one `(epoch, shard)` task per [`ShardPlan`] range onto
/// a shared work-stealing queue, sharing the outcome behind an [`Arc`].
/// Any worker may pop any task (workers that finish their propagation
/// chunk early drain the queue instead of idling; a producer also drains
/// opportunistically after enqueuing, which bounds the queue — and the
/// retained outcomes — to the shards of in-flight epochs). Results land
/// in `(epoch, shard)`-keyed slots, so completion order is irrelevant:
/// per-epoch slices reassemble with [`Catchments::assemble`] into exactly
/// the whole-topology extraction, in schedule order.
///
/// **Memory** stays bounded per the tentpole contract: right after each
/// deployment every worker absorbs only the paths its changed routes
/// actually reference into a private collector arena (incremental rooted
/// absorption via [`trackdown_bgp::PathArena::absorb_rooted_cached`],
/// taken before any event-cap cold restart can truncate the session
/// arena), and at join
/// the collectors merge through canonical interning —
/// `stats.merged_arena_nodes` is the size of that union arena, which
/// root filtering plus shared prefixes keep near the *referenced* path
/// set instead of `threads ×` the full per-worker arenas.
///
/// Passing `shards == 0` auto-tunes the shard count from the thread
/// count via [`ShardPlan::auto`].
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_sharded_recorded(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    source: CatchmentSource,
    max_events_factor: usize,
    threads: usize,
    shards: usize,
    mode: CampaignMode,
    recorder: Option<&CampaignRecorder>,
) -> Campaign {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    assert!(!configs.is_empty(), "empty schedule");
    assert!(
        source != CatchmentSource::Measured,
        "measured campaigns are sequential (the observation plane salts by deployment order)"
    );
    let _span = trackdown_obs::span("campaign.run");
    let topo = engine.topology();
    let threads = threads.max(1);
    let plan = if shards == 0 {
        ShardPlan::auto(topo.num_ases(), threads)
    } else {
        ShardPlan::new(topo.num_ases(), shards)
    };
    let num_shards = plan.num_shards();
    let chunk_size = configs.len().div_ceil(threads);
    let num_workers = configs.chunks(chunk_size).len();

    /// One unit of extraction work: slice `shard` of epoch `epoch`'s
    /// routing outcome.
    struct ExtractTask {
        epoch: usize,
        shard: usize,
        producer: usize,
        outcome: Arc<RoutingOutcome>,
    }

    // Sized for every task up front: the queue never grows under the
    // lock, and its buffer's size does not depend on how far producers
    // ran ahead of the stealers.
    let queue: Mutex<VecDeque<ExtractTask>> =
        Mutex::new(VecDeque::with_capacity(configs.len() * num_shards));
    // Producers still propagating; stealers spin until this hits zero.
    let producers = AtomicUsize::new(num_workers);
    let parts: Mutex<Vec<Option<trackdown_bgp::ShardCatchments>>> =
        Mutex::new(vec![None; configs.len() * num_shards]);

    // Pop-and-extract one task. Returns false when the queue was empty.
    let steal_one = |t: usize| -> bool {
        let Some(task) = queue.lock().expect("queue poisoned").pop_front() else {
            return false;
        };
        // Own-epoch pops and cross-worker steals get distinct trace
        // phases: a steal-heavy timeline means producers can't keep the
        // queue fed.
        let stolen = task.producer != t;
        let mut span = trackdown_obs::span(if stolen {
            "worker.steal"
        } else {
            "worker.extract"
        });
        span.set_attr("epoch", task.epoch as u64);
        span.set_attr("shard", task.shard as u64);
        trackdown_obs::counter!("campaign.shard_tasks").inc();
        if stolen {
            trackdown_obs::counter!("campaign.shard_steals").inc();
        }
        let part = extract_shard(source, &task.outcome, plan.range(task.shard));
        parts.lock().expect("parts poisoned")[task.epoch * num_shards + task.shard] = Some(part);
        true
    };

    let mut stats = CampaignStats {
        mode,
        threads: num_workers,
        shards: num_shards,
        warm_reuse_disabled_violators: reuse_disabled_violators(engine, mode),
        ..CampaignStats::default()
    };
    let mut converged_by_k: Vec<Option<bool>> = vec![None; configs.len()];
    let mut memo_pairs: Vec<(usize, usize)> = Vec::new();
    let mut merged = trackdown_bgp::PathArena::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, chunk) in configs.chunks(chunk_size).enumerate() {
            let base = t * chunk_size;
            let (queue, producers, steal_one) = (&queue, &producers, &steal_one);
            handles.push(scope.spawn(move || {
                let order: Vec<usize> = match mode {
                    CampaignMode::Warm | CampaignMode::Delta => warm_start_order(chunk),
                    CampaignMode::Cold => (0..chunk.len()).collect(),
                };
                let mut session = engine.session();
                // Per-worker path collector: right after each deployment
                // the ancestor chains of routes the epoch actually
                // selected are absorbed here (rooted, so candidate-only
                // paths never leave the session arena, and a later
                // event-cap cold restart cannot dangle the ids).
                // Warm/Delta only — cold epochs propagate in a per-call
                // simulation whose arena is gone once the outcome returns.
                let mut collector = trackdown_bgp::PathArena::new();
                // Session-arena → collector id cache for the incremental
                // absorb; valid only while the session arena is
                // append-only, so it resets whenever the session
                // cold-restarted (the sole truncation point).
                let mut absorb_remap: Vec<trackdown_bgp::PathId> = Vec::new();
                let mut absorbed_restarts = 0usize;
                let mut roots: Vec<trackdown_bgp::PathId> = Vec::new();
                let mut memo: HashMap<String, usize> = HashMap::new();
                let mut converged: Vec<Option<bool>> = vec![None; chunk.len()];
                let mut pairs: Vec<(usize, usize)> = Vec::new();
                let mut propagations = 0usize;
                let mut memo_hits = 0usize;
                let mut disturbed = 0usize;
                let mut events = 0usize;
                let mut work = DrainWork::default();
                // Utilization accounting, accumulated worker-locally so
                // the drain spin loop touches no shared cache lines.
                let worker_start = std::time::Instant::now();
                let mut idle_us = 0u64;
                let mut steal_fails = 0u64;
                for &off in &order {
                    let cfg = &chunk[off];
                    cfg.validate(origin).expect("invalid configuration");
                    if matches!(mode, CampaignMode::Warm | CampaignMode::Delta) {
                        let key = cfg.footprint_key();
                        if let Some(&j) = memo.get(&key) {
                            memo_hits += 1;
                            converged[off] = converged[j];
                            // Reuse epoch j's assembled catchments after the
                            // batch instead of re-extracting its shards.
                            pairs.push((base + off, base + j));
                            if let Some(rec) = recorder {
                                rec.record(EpochRecord {
                                    epoch: base + off,
                                    footprint: key,
                                    mode: EpochMode::Memo,
                                    thread: t,
                                    events: 0,
                                    rounds: 0,
                                    changes: 0,
                                    routes_disturbed: 0,
                                    converged: converged[off].expect("memo entry deployed"),
                                    wall_us: None,
                                });
                            }
                            continue;
                        }
                        memo.insert(key, off);
                    }
                    // Produce segment: deploy + record + enqueue. The
                    // help-first drain that follows is traced as
                    // extract/steal time, so the timeline separates the
                    // two costs per worker.
                    let mut produce = trackdown_obs::span("worker.produce");
                    produce.set_attr("epoch", (base + off) as u64);
                    let timer = recorder.and_then(|r| r.start_timer());
                    let outcome = match mode {
                        CampaignMode::Warm => session.deploy_config(
                            origin,
                            &cfg.to_link_announcements(),
                            max_events_factor,
                        ),
                        CampaignMode::Delta => session.deploy_config_delta(
                            origin,
                            &cfg.to_link_announcements(),
                            max_events_factor,
                        ),
                        CampaignMode::Cold => engine.propagate_config(
                            origin,
                            &cfg.to_link_announcements(),
                            max_events_factor,
                        ),
                    }
                    .expect("validated configuration");
                    produce.set_attr("events", outcome.events as u64);
                    if let Some(rec) = recorder {
                        let epoch_mode = match mode {
                            CampaignMode::Warm if session.last_deploy_warm() => EpochMode::Warm,
                            CampaignMode::Delta if session.last_deploy_warm() => EpochMode::Delta,
                            _ => EpochMode::Cold,
                        };
                        rec.record(EpochRecord {
                            epoch: base + off,
                            footprint: cfg.footprint_key(),
                            mode: epoch_mode,
                            thread: t,
                            events: outcome.events,
                            rounds: outcome.rounds,
                            changes: outcome.changes.len(),
                            routes_disturbed: outcome.routes_disturbed,
                            converged: outcome.converged,
                            wall_us: rec.elapsed_us(timer),
                        });
                    }
                    propagations += 1;
                    disturbed += outcome.routes_disturbed;
                    events += outcome.events;
                    work += outcome.work;
                    converged[off] = Some(outcome.converged);
                    if matches!(mode, CampaignMode::Warm | CampaignMode::Delta) {
                        roots.clear();
                        roots.extend(
                            outcome
                                .changes
                                .iter()
                                .filter_map(|ch| outcome.best[ch.at.us()].map(|r| r.path_id)),
                        );
                        if session.cold_restarts() != absorbed_restarts {
                            absorbed_restarts = session.cold_restarts();
                            absorb_remap.clear();
                        }
                        session.absorb_paths_rooted_cached(
                            &mut collector,
                            &roots,
                            &mut absorb_remap,
                        );
                    }
                    let outcome = Arc::new(outcome);
                    {
                        let mut q = queue.lock().expect("queue poisoned");
                        for shard in 0..num_shards {
                            q.push_back(ExtractTask {
                                epoch: base + off,
                                shard,
                                producer: t,
                                outcome: Arc::clone(&outcome),
                            });
                        }
                        trackdown_obs::counter_sample("campaign.queue_depth", q.len() as u64);
                    }
                    drop(produce);
                    // Help-first draining: keep the queue (and the routing
                    // outcomes it retains) bounded by in-flight epochs.
                    while steal_one(t) {}
                    steal_fails += 1; // the drain exits on an empty pop
                }
                producers.fetch_sub(1, Ordering::AcqRel);
                // Chunk done: steal until every producer has finished and
                // the queue is drained. Idle stretches (empty-queue spins
                // between successful steals) are timed worker-locally and
                // recorded as `worker.idle` trace spans.
                let mut idle_since: Option<std::time::Instant> = None;
                let close_idle = |idle_since: &mut Option<std::time::Instant>,
                                  idle_us: &mut u64| {
                    if let Some(since) = idle_since.take() {
                        let now = std::time::Instant::now();
                        *idle_us += now
                            .checked_duration_since(since)
                            .map(|d| d.as_micros() as u64)
                            .unwrap_or(0);
                        trackdown_obs::record_span("worker.idle", since, now);
                    }
                };
                loop {
                    let mut worked = steal_one(t);
                    if !worked {
                        steal_fails += 1;
                        if producers.load(Ordering::Acquire) == 0 {
                            // Producers all done: one confirming pop
                            // guards against tasks enqueued between our
                            // failed pop and the producer count reaching
                            // zero.
                            if steal_one(t) {
                                worked = true;
                            } else {
                                steal_fails += 1;
                                break;
                            }
                        }
                    }
                    if worked {
                        close_idle(&mut idle_since, &mut idle_us);
                        continue;
                    }
                    if idle_since.is_none() {
                        idle_since = Some(std::time::Instant::now());
                    }
                    std::thread::yield_now();
                }
                close_idle(&mut idle_since, &mut idle_us);
                trackdown_obs::counter!("campaign.shard_steal_fails").add(steal_fails);
                let total_us = worker_start.elapsed().as_micros() as u64;
                (
                    base,
                    converged,
                    pairs,
                    propagations,
                    (memo_hits, disturbed, events, work),
                    session.cold_restarts(),
                    session.peak_arena_nodes(),
                    collector.store(),
                    (total_us.saturating_sub(idle_us), idle_us, steal_fails),
                )
            }));
        }
        for h in handles {
            let (base, converged, pairs, propagations, counts, cold_restarts, peak, store, util) =
                h.join().expect("worker panicked");
            for (off, c) in converged.into_iter().enumerate() {
                converged_by_k[base + off] = c;
            }
            memo_pairs.extend(pairs);
            stats.propagations += propagations;
            stats.memo_hits += counts.0;
            stats.routes_disturbed += counts.1;
            stats.events += counts.2;
            stats.work += counts.3;
            stats.cold_restarts += cold_restarts;
            stats.peak_arena_nodes = stats.peak_arena_nodes.max(peak);
            stats.worker_busy_us.push(util.0);
            stats.worker_idle_us.push(util.1);
            stats.shard_steal_fails += util.2 as usize;
            // Canonical-interning merge of the rooted collectors: shared
            // path prefixes across workers collapse to single nodes, and
            // only paths some epoch actually selected are present at all.
            if !store.is_empty() {
                let _span = trackdown_obs::span("worker.merge").attr("nodes", store.len() as u64);
                merged.absorb_store(&store);
            }
        }
    });
    stats.merged_arena_nodes = merged.num_nodes();

    let parts = parts.into_inner().expect("parts poisoned");
    let mut catchments_by_k: Vec<Option<Catchments>> = parts
        .chunks(num_shards)
        .map(|epoch_parts| {
            if epoch_parts.iter().all(|p| p.is_some()) {
                Some(Catchments::assemble(
                    topo.num_ases(),
                    epoch_parts.iter().flatten(),
                ))
            } else {
                None // memo epoch: filled from its source below
            }
        })
        .collect();
    for &(k, j) in &memo_pairs {
        catchments_by_k[k] = Some(
            catchments_by_k[j]
                .clone()
                .expect("memo source epoch deployed and assembled"),
        );
    }
    let catchments: Vec<Catchments> = catchments_by_k
        .into_iter()
        .map(|c| c.expect("every configuration extracted"))
        .collect();
    let converged: Vec<bool> = converged_by_k
        .into_iter()
        .map(|c| c.expect("every configuration deployed"))
        .collect();
    let tracked: Vec<AsIndex> = topo
        .indices()
        .filter(|&i| catchments[0].is_assigned(i))
        .collect();
    assemble_campaign(configs, catchments, converged, tracked, None, stats)
}

/// A cluster ranked by how much spoofed volume it can explain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuspectCluster {
    /// Index into `Campaign::clustering.clusters()`.
    pub cluster: usize,
    /// Member sources.
    pub members: Vec<AsIndex>,
    /// Upper bound on the spoofed volume this cluster can originate: the
    /// minimum, over configurations, of the volume observed on the link
    /// the cluster was routed to. Clusters whose link saw zero volume in
    /// any configuration cannot contain sources and are excluded.
    pub volume_upper_bound: u64,
}

/// Check the volume matrix against the campaign's shape: one row per
/// configuration, each row *exactly* as wide as the attribution plane —
/// every link a tracked cluster was routed to, and nothing more. Short
/// rows would otherwise read as zero volume and silently *exonerate*
/// clusters on missing data; over-wide rows carry entries no tracked
/// cluster can ever be matched against, which almost always means the
/// caller built the matrix against the wrong width (e.g. the origin's
/// full link count) and the surplus volume would be silently dropped.
fn validate_link_volumes(campaign: &Campaign, link_volumes: &[Vec<u64>]) {
    assert_eq!(
        link_volumes.len(),
        campaign.catchments.len(),
        "one volume vector per configuration"
    );
    let need = campaign.attribution.num_links();
    for (k, row) in link_volumes.iter().enumerate() {
        assert!(
            row.len() >= need,
            "link_volumes[{k}] covers {} links but the campaign routed tracked \
             clusters to links up to id {}; missing entries would read as zero \
             volume and silently exonerate clusters",
            row.len(),
            need - 1
        );
        assert!(
            row.len() == need,
            "link_volumes[{k}] covers {} links but the campaign's attribution \
             plane spans exactly {need}; the extra entries belong to no tracked \
             cluster and would be silently ignored — trim the rows with \
             fit_link_volumes or build them with link_volume_matrix",
            row.len()
        );
    }
}

/// Check an accumulator's shape against the campaign: same contract as the
/// dense-matrix validation — one configuration per campaign configuration
/// and exactly the attribution plane's link width.
fn validate_accumulator<A: VolumeAccumulator + ?Sized>(campaign: &Campaign, acc: &A) {
    assert_eq!(
        acc.num_configs(),
        campaign.catchments.len(),
        "one accumulator configuration per campaign configuration"
    );
    let need = campaign.attribution.num_links();
    assert!(
        acc.num_links() >= need,
        "accumulator covers {} links but the campaign routed tracked clusters \
         to links up to id {}; missing counters would read as zero volume and \
         silently exonerate clusters",
        acc.num_links(),
        need - 1
    );
    assert!(
        acc.num_links() == need,
        "accumulator covers {} links but the campaign's attribution plane \
         spans exactly {need}; the extra counters belong to no tracked cluster \
         and would be silently ignored",
        acc.num_links()
    );
}

/// Adapt honeypot-shaped volume rows (width = the origin's full link
/// count) to the attribution plane's exact width contract: rows are
/// truncated to [`AttributionIndex::num_links`]. The dropped tail entries
/// are links no tracked cluster was ever routed to, so they can never
/// constrain (or exonerate) any cluster.
///
/// # Panics
/// If a row is *narrower* than the attribution width (the silent-
/// exoneration hazard — see [`rank_suspects`]), or the row count does not
/// match the campaign's configuration count.
pub fn fit_link_volumes(campaign: &Campaign, mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    assert_eq!(
        rows.len(),
        campaign.catchments.len(),
        "one volume vector per configuration"
    );
    let need = campaign.attribution.num_links();
    for (k, row) in rows.iter_mut().enumerate() {
        assert!(
            row.len() >= need,
            "link_volumes[{k}] covers {} links but the campaign routed tracked \
             clusters to links up to id {}; missing entries would read as zero \
             volume and silently exonerate clusters",
            row.len(),
            need - 1
        );
        row.truncate(need);
    }
    rows
}

/// Correlate per-configuration, per-link spoofed volumes (honeypot
/// reports) with the clustering to rank suspect clusters (§I's Figure 1
/// narrative, generalized to simultaneous sources).
///
/// `link_volumes[k][l]` = spoofed bytes on link `l` during configuration
/// `k`. Requires the same configuration order as the campaign.
///
/// Bounds are maintained *incrementally* along the campaign's
/// [`AttributionIndex`]: one forward pass over the refinement deltas, with
/// each split's children inheriting the parent's accumulated min-bound
/// (valid because a child's catchment history is its parent's history
/// extended by one configuration). Output is identical to the from-scratch
/// [`rank_suspects_rescan`] reference — proven by the differential suite —
/// without materializing `clusters()` or scanning catchments per cluster.
///
/// # Panics
/// If `link_volumes` does not have exactly one row per configuration, or
/// any row is narrower than [`AttributionIndex::num_links`] — every link a
/// tracked cluster landed on needs an entry (zero means "measured silent",
/// absence is a caller bug; see the width contract in DESIGN.md).
pub fn rank_suspects(campaign: &Campaign, link_volumes: &[Vec<u64>]) -> Vec<SuspectCluster> {
    let _span = trackdown_obs::span("attr.rank").attr("configs", link_volumes.len() as u64);
    validate_link_volumes(campaign, link_volumes);
    rank_suspects_core(campaign, |k, l| link_volumes[k][l.us()])
}

/// The incremental min-bound pass shared by the dense and accumulator
/// entry points: `vol(k, l)` reads the spoofed volume on link `l` during
/// configuration `k` from whatever store the caller has.
fn rank_suspects_core(
    campaign: &Campaign,
    vol: impl Fn(usize, LinkId) -> u64,
) -> Vec<SuspectCluster> {
    let idx = &campaign.attribution;
    // Per-cluster state, re-keyed through every delta: the running
    // min-bound and whether any silent link has exonerated the lineage.
    let mut bound: Vec<u64> = vec![u64::MAX; idx.initial_clusters as usize];
    let mut alive: Vec<bool> = vec![true; idx.initial_clusters as usize];
    for (k, delta) in idx.deltas.iter().enumerate() {
        let mut next_bound = Vec::with_capacity(delta.num_clusters());
        let mut next_alive = Vec::with_capacity(delta.num_clusters());
        for (c, &parent) in delta.parent_of.iter().enumerate() {
            let mut b = bound[parent as usize];
            let mut a = alive[parent as usize];
            if let Some(link) = delta.link_of[c] {
                let v = vol(k, link);
                if v == 0 {
                    a = false; // a silent link exonerates the lineage
                } else {
                    b = b.min(v);
                }
            }
            next_bound.push(b);
            next_alive.push(a);
        }
        bound = next_bound;
        alive = next_alive;
    }
    let mut out = Vec::new();
    for c in 0..idx.final_num_clusters() {
        // bound == MAX: never constrained, no evidence at all.
        if !alive[c] || bound[c] == u64::MAX {
            continue;
        }
        out.push(SuspectCluster {
            cluster: c,
            members: campaign.clustering.cluster_members(c as u32).to_vec(),
            volume_upper_bound: bound[c],
        });
    }
    out.sort_by(|a, b| {
        b.volume_upper_bound
            .cmp(&a.volume_upper_bound)
            .then(a.cluster.cmp(&b.cluster))
    });
    out
}

/// The pre-index implementation of [`rank_suspects`]: materializes
/// `clusters()` and rescans every catchment per cluster, reading absent
/// volume entries as zero. Kept as the from-scratch reference the
/// differential suite and the scan-vs-indexed benchmarks compare against.
pub fn rank_suspects_rescan(campaign: &Campaign, link_volumes: &[Vec<u64>]) -> Vec<SuspectCluster> {
    assert_eq!(
        link_volumes.len(),
        campaign.catchments.len(),
        "one volume vector per configuration"
    );
    let clusters = campaign.clustering.clusters();
    let mut out = Vec::new();
    'cluster: for (idx, members) in clusters.iter().enumerate() {
        // All members share catchments; use the first as representative.
        let rep = members[0];
        let mut bound = u64::MAX;
        for (cat, vols) in campaign.catchments.iter().zip(link_volumes) {
            let Some(link) = cat.get(rep) else {
                // Unobserved in this configuration: no constraint.
                continue;
            };
            let v = vols.get(link.us()).copied().unwrap_or(0);
            if v == 0 {
                continue 'cluster; // a silent link exonerates the cluster
            }
            bound = bound.min(v);
        }
        if bound == u64::MAX {
            continue; // never constrained: no evidence at all
        }
        out.push(SuspectCluster {
            cluster: idx,
            members: members.clone(),
            volume_upper_bound: bound,
        });
    }
    out.sort_by(|a, b| {
        b.volume_upper_bound
            .cmp(&a.volume_upper_bound)
            .then(a.cluster.cmp(&b.cluster))
    });
    out
}

/// Suspect ranking produced from a (possibly approximate) streaming
/// accumulator by [`rank_suspects_acc`], annotated with the accumulator's
/// error bound and whether the ordering is provably stable under it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedSuspects {
    /// Ranked suspects, exactly as [`rank_suspects`] would order them on
    /// the accumulator's volumes.
    pub suspects: Vec<SuspectCluster>,
    /// The accumulator's deterministic one-sided overestimate bound `B`:
    /// every reported volume is within `[true, true + B]`.
    pub error_bound: u64,
    /// Whether the ranking could *not* flip within the error bound: true
    /// iff every adjacent pair of suspects is separated by at least
    /// `error_bound`. With one-sided error, two suspects whose reported
    /// bounds differ by `g >= B` cannot swap under any true volumes
    /// consistent with the sketch; a smaller gap might.
    pub stable: bool,
}

/// [`rank_suspects`] over a streaming [`VolumeAccumulator`] instead of
/// exact dense rows — the line-rate entry point.
///
/// Because approximate accumulators are one-sided (never *under* the true
/// volume), the zero-volume exoneration rule stays sound: a sketch can
/// never report zero for a link that actually carried spoofed bytes, so
/// the returned suspect set is always a superset of the exact one, and the
/// extra suspects' bounds are within [`RankedSuspects::error_bound`] of
/// zero-evidence. [`RankedSuspects::stable`] reports whether the ordering
/// itself is trustworthy at the current sketch resolution.
///
/// # Panics
/// If the accumulator's shape does not match the campaign: one
/// configuration per campaign configuration, and exactly
/// [`AttributionIndex::num_links`] link counters (same width contract as
/// [`rank_suspects`]).
pub fn rank_suspects_acc<A: VolumeAccumulator + ?Sized>(
    campaign: &Campaign,
    acc: &A,
) -> RankedSuspects {
    let _span =
        trackdown_obs::span("attr.rank_acc").attr("configs", campaign.catchments.len() as u64);
    validate_accumulator(campaign, acc);
    let suspects = rank_suspects_core(campaign, |k, l| acc.volume(k, l));
    let error_bound = acc.error_bound();
    let stable = suspects
        .windows(2)
        .all(|w| w[0].volume_upper_bound - w[1].volume_upper_bound >= error_bound);
    RankedSuspects {
        suspects,
        error_bound,
        stable,
    }
}

/// Volume bounds for one cluster produced by
/// [`estimate_cluster_volumes`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VolumeEstimate {
    /// Index into `Campaign::clustering.clusters()`.
    pub cluster: usize,
    /// Member sources.
    pub members: Vec<AsIndex>,
    /// Proven minimum spoofed volume originated by this cluster.
    pub lower: u64,
    /// Proven maximum spoofed volume originated by this cluster.
    pub upper: u64,
}

/// Multi-source volume estimation by interval constraint propagation.
///
/// Per configuration `c` and link `l`, volume conservation says
/// `Σ_{clusters k routed to l at c} v_k = V[c][l]`. Starting from the
/// simple min-bound upper bounds of [`rank_suspects`], the propagation
/// alternately tightens lower bounds (`v_k ≥ V − Σ_{j≠k} upper_j`) and
/// upper bounds (`v_k ≤ V − Σ_{j≠k} lower_j`) until a fixpoint (or
/// `max_rounds`). Clusters whose upper bound reaches zero are exonerated —
/// far more of them than the min-bound alone manages when several sources
/// are active at once (an instance of the paper's future-work direction of
/// jointly reasoning about cluster sizes and traffic volumes).
///
/// Soundness assumes the per-AS volumes are stable across configurations
/// and every source is tracked; both hold for honeypot traffic from the
/// campaign's tracked set.
///
/// The per-cluster link matrix comes from the campaign's
/// [`AttributionIndex`] (ancestor chains walked backward through the
/// refinement deltas) rather than per-cluster catchment rescans; output is
/// identical to [`estimate_cluster_volumes_rescan`].
///
/// # Panics
/// Same volume-matrix width contract as [`rank_suspects`].
pub fn estimate_cluster_volumes(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
    max_rounds: usize,
) -> Vec<VolumeEstimate> {
    let _span = trackdown_obs::span("attr.estimate").attr("configs", link_volumes.len() as u64);
    validate_link_volumes(campaign, link_volumes);
    let num_links = campaign.attribution.num_links();
    // Link of each cluster per configuration (None = unobserved),
    // reconstructed from the refinement deltas.
    let links = campaign.attribution.final_links();
    let vol = |c: usize, l: LinkId| -> u64 { link_volumes[c][l.us()] };
    estimate_from_links(
        campaign,
        link_volumes.len(),
        max_rounds,
        num_links,
        &links,
        vol,
        0,
    )
}

/// [`estimate_cluster_volumes`] over a streaming [`VolumeAccumulator`].
///
/// One-sided overestimates need one adaptation to stay *sound* (never
/// excluding the true volume from a cluster's interval): lower-bound
/// updates are relaxed by the accumulator's error bound. Conservation on
/// link `l` says `v_k >= V_true − Σ_{j≠k} upper_j`, but the accumulator
/// only knows `V' ∈ [V_true, V_true + B]` — so the proven floor becomes
/// `(V' − B) − Σ upper_j`. Upper bounds need no slack: `V' >= V_true`
/// already makes them conservative. Consequently every interval this
/// returns *contains* the interval the exact pipeline would prove, and a
/// cluster with true volume > 0 is never exonerated.
///
/// # Panics
/// Same shape contract as [`rank_suspects_acc`].
pub fn estimate_cluster_volumes_acc<A: VolumeAccumulator + ?Sized>(
    campaign: &Campaign,
    acc: &A,
    max_rounds: usize,
) -> Vec<VolumeEstimate> {
    let _span =
        trackdown_obs::span("attr.estimate_acc").attr("configs", campaign.catchments.len() as u64);
    validate_accumulator(campaign, acc);
    let num_links = campaign.attribution.num_links();
    let links = campaign.attribution.final_links();
    estimate_from_links(
        campaign,
        campaign.catchments.len(),
        max_rounds,
        num_links,
        &links,
        |c, l| acc.volume(c, l),
        acc.error_bound(),
    )
}

/// The pre-index implementation of [`estimate_cluster_volumes`]:
/// materializes `clusters()`, rescans every catchment per cluster for the
/// link matrix, and reads absent volume entries as zero. Kept as the
/// from-scratch reference for the differential suite and benchmarks.
pub fn estimate_cluster_volumes_rescan(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
    max_rounds: usize,
) -> Vec<VolumeEstimate> {
    assert_eq!(link_volumes.len(), campaign.catchments.len());
    let clusters = campaign.clustering.clusters();
    let num_links = link_volumes.iter().map(|v| v.len()).max().unwrap_or(0);
    // Link of each cluster per configuration (None = unobserved).
    let links: Vec<Vec<Option<LinkId>>> = clusters
        .iter()
        .map(|members| {
            campaign
                .catchments
                .iter()
                .map(|cat| cat.get(members[0]))
                .collect()
        })
        .collect();
    let vol = |c: usize, l: LinkId| -> u64 { link_volumes[c].get(l.us()).copied().unwrap_or(0) };
    estimate_from_links(
        campaign,
        link_volumes.len(),
        max_rounds,
        num_links,
        &links,
        vol,
        0,
    )
}

/// Interval constraint propagation shared by the indexed, rescan, and
/// accumulator estimators: everything after the per-cluster link matrix is
/// obtained. `slack` is the volume store's one-sided overestimate bound
/// (0 for exact stores); lower-bound updates subtract it so a possibly
/// inflated link reading never proves a floor the true volumes could not.
fn estimate_from_links(
    campaign: &Campaign,
    num_configs: usize,
    max_rounds: usize,
    num_links: usize,
    links: &[Vec<Option<LinkId>>],
    vol: impl Fn(usize, LinkId) -> u64,
    slack: u64,
) -> Vec<VolumeEstimate> {
    // Initial bounds.
    let mut upper: Vec<u64> = links
        .iter()
        .map(|per_cfg| {
            per_cfg
                .iter()
                .enumerate()
                .filter_map(|(c, l)| l.map(|l| vol(c, l)))
                .min()
                .unwrap_or(0)
        })
        .collect();
    let mut lower = vec![0u64; links.len()];
    for _ in 0..max_rounds {
        let mut changed = false;
        for c in 0..num_configs {
            // Per-link sums of current bounds over clusters on that link.
            let mut sum_upper = vec![0u128; num_links];
            let mut sum_lower = vec![0u128; num_links];
            for (k, per_cfg) in links.iter().enumerate() {
                if let Some(l) = per_cfg[c] {
                    sum_upper[l.us()] += upper[k] as u128;
                    sum_lower[l.us()] += lower[k] as u128;
                }
            }
            for (k, per_cfg) in links.iter().enumerate() {
                let Some(l) = per_cfg[c] else { continue };
                let v = vol(c, l) as u128;
                // Lower: what the others cannot explain.
                // `saturating_sub`: bounds updated earlier in this pass
                // leave the per-link sums slightly stale; saturation keeps
                // the estimates conservative (sound) either way. `slack`
                // discounts a possibly overestimated link reading before
                // it can prove anything.
                let others_upper = sum_upper[l.us()].saturating_sub(upper[k] as u128);
                let new_lower = v.saturating_sub(slack as u128).saturating_sub(others_upper) as u64;
                if new_lower > lower[k] {
                    lower[k] = new_lower;
                    changed = true;
                }
                // Upper: what remains after the others' proven minimums.
                let others_lower = sum_lower[l.us()].saturating_sub(lower[k] as u128);
                let new_upper = v.saturating_sub(others_lower) as u64;
                if new_upper < upper[k] {
                    upper[k] = new_upper;
                    changed = true;
                }
            }
        }
        // Keep intervals well-formed.
        for k in 0..links.len() {
            if lower[k] > upper[k] {
                lower[k] = upper[k];
            }
        }
        if !changed {
            break;
        }
    }
    let mut out: Vec<VolumeEstimate> = (0..links.len())
        .filter(|&k| upper[k] > 0)
        .map(|k| VolumeEstimate {
            cluster: k,
            members: campaign.clustering.cluster_members(k as u32).to_vec(),
            lower: lower[k],
            upper: upper[k],
        })
        .collect();
    out.sort_by(|a, b| {
        b.lower
            .cmp(&a.lower)
            .then(b.upper.cmp(&a.upper))
            .then(a.cluster.cmp(&b.cluster))
    });
    out
}

/// Robust suspect scoring for *stale* catchments (§V-C: reusing
/// pre-attack measurements risks errors from route changes).
///
/// [`rank_suspects`] exonerates a cluster the moment its link carries zero
/// volume in a single configuration — correct when catchments are fresh,
/// brittle when they are stale (one changed route hides the attacker).
/// This scorer instead ranks clusters by the *fraction of configurations*
/// in which their (possibly stale) link carried volume, degrading
/// gracefully with routing churn.
///
/// Returns `(cluster_index, members, match_fraction)` sorted descending.
///
/// Counters are maintained incrementally along the campaign's
/// [`AttributionIndex`] (children inherit their parent's observed/matched
/// counts at each split); output is identical to
/// [`match_fraction_scores_rescan`].
///
/// # Panics
/// Same volume-matrix width contract as [`rank_suspects`].
pub fn match_fraction_scores(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
) -> Vec<(usize, Vec<AsIndex>, f64)> {
    validate_link_volumes(campaign, link_volumes);
    let idx = &campaign.attribution;
    let mut observed: Vec<u32> = vec![0; idx.initial_clusters as usize];
    let mut matched: Vec<u32> = vec![0; idx.initial_clusters as usize];
    for (k, delta) in idx.deltas.iter().enumerate() {
        let vols = &link_volumes[k];
        let mut next_observed = Vec::with_capacity(delta.num_clusters());
        let mut next_matched = Vec::with_capacity(delta.num_clusters());
        for (c, &parent) in delta.parent_of.iter().enumerate() {
            let mut o = observed[parent as usize];
            let mut m = matched[parent as usize];
            if let Some(link) = delta.link_of[c] {
                o += 1;
                if vols[link.us()] > 0 {
                    m += 1;
                }
            }
            next_observed.push(o);
            next_matched.push(m);
        }
        observed = next_observed;
        matched = next_matched;
    }
    let mut out = Vec::with_capacity(idx.final_num_clusters());
    for c in 0..idx.final_num_clusters() {
        if observed[c] == 0 {
            continue;
        }
        out.push((
            c,
            campaign.clustering.cluster_members(c as u32).to_vec(),
            matched[c] as f64 / observed[c] as f64,
        ));
    }
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("no NaN").then(a.0.cmp(&b.0)));
    out
}

/// The pre-index implementation of [`match_fraction_scores`]: materializes
/// `clusters()` and rescans every catchment per cluster. Kept as the
/// from-scratch reference for the differential suite.
pub fn match_fraction_scores_rescan(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
) -> Vec<(usize, Vec<AsIndex>, f64)> {
    assert_eq!(link_volumes.len(), campaign.catchments.len());
    let clusters = campaign.clustering.clusters();
    let mut out = Vec::with_capacity(clusters.len());
    for (idx, members) in clusters.into_iter().enumerate() {
        let rep = members[0];
        let mut observed = 0usize;
        let mut matched = 0usize;
        for (cat, vols) in campaign.catchments.iter().zip(link_volumes) {
            let Some(link) = cat.get(rep) else { continue };
            observed += 1;
            if vols.get(link.us()).copied().unwrap_or(0) > 0 {
                matched += 1;
            }
        }
        if observed == 0 {
            continue;
        }
        out.push((idx, members, matched as f64 / observed as f64));
    }
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("no NaN").then(a.0.cmp(&b.0)));
    out
}

/// Convenience: the set of ASes named by the top suspect clusters covering
/// at least `coverage` (0–1] of the total suspect volume bound.
pub fn suspect_ases(suspects: &[SuspectCluster], coverage: f64) -> Vec<AsIndex> {
    let total: u64 = suspects.iter().map(|s| s.volume_upper_bound).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0u64;
    let mut out = Vec::new();
    for s in suspects {
        out.extend(s.members.iter().copied());
        acc += s.volume_upper_bound;
        if acc as f64 / total as f64 >= coverage {
            break;
        }
    }
    out
}

/// Compute per-configuration per-link volumes for a set of per-AS volumes
/// under the campaign's catchments — the honeypot-report matrix an origin
/// would have recorded if those sources had been active throughout.
///
/// Rows come out exactly [`AttributionIndex::num_links`] wide, satisfying
/// the attribution plane's width contract by construction. Volume from
/// ASes routed to links beyond that width is dropped: no tracked cluster
/// ever landed there, so those bytes can neither constrain nor exonerate
/// any cluster.
pub fn link_volume_matrix(campaign: &Campaign, volume_per_as: &[u64]) -> Vec<Vec<u64>> {
    let width = campaign.attribution.num_links();
    campaign
        .catchments
        .iter()
        .map(|cat| {
            let mut out = vec![0u64; width];
            for (i, &v) in volume_per_as.iter().enumerate() {
                if v == 0 || i >= cat.len() {
                    continue;
                }
                if let Some(link) = cat.get(AsIndex(i as u32)) {
                    if link.us() < width {
                        out[link.us()] += v;
                    }
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, GeneratorParams};
    use trackdown_bgp::{EngineConfig, PolicyConfig};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn setup() -> (
        trackdown_topology::gen::GeneratedTopology,
        OriginAs,
        EngineConfig,
    ) {
        let g = generate(&TopologyConfig::small(23));
        let origin = OriginAs::peering_style(&g, 4);
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 5,
                violator_fraction: 0.05,
                no_loop_prevention_fraction: 0.02,
                tier1_poison_filtering: true,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        (g, origin, cfg)
    }

    #[test]
    fn campaign_reduces_cluster_sizes() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        assert_eq!(campaign.records.len(), schedule.len());
        let first = campaign.records.first().unwrap();
        let last = campaign.records.last().unwrap();
        assert!(last.mean_cluster_size < first.mean_cluster_size);
        assert!(
            last.mean_cluster_size < 5.0,
            "mean={}",
            last.mean_cluster_size
        );
        // Mean sizes never increase as configurations accumulate.
        for w in campaign.records.windows(2) {
            assert!(w[1].mean_cluster_size <= w[0].mean_cluster_size + 1e-9);
        }
        // All tracked sources partitioned.
        let total: usize = campaign.clustering.sizes().iter().sum();
        assert_eq!(total, campaign.tracked.len());
    }

    #[test]
    fn single_source_is_localized() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        // Plant a single attacker in a tracked AS.
        let attacker = campaign.tracked[campaign.tracked.len() / 2];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[attacker.us()] = 1_000_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let suspects = rank_suspects(&campaign, &vols);
        assert!(!suspects.is_empty());
        // The attacker's cluster must rank first.
        assert!(
            suspects[0].members.contains(&attacker),
            "attacker not in top suspect cluster"
        );
        // And every suspect cluster member shares the attacker's catchment
        // history, so the suspect list is exactly one cluster.
        assert_eq!(suspects.len(), 1);
        let named = suspect_ases(&suspects, 1.0);
        assert!(named.contains(&attacker));
    }

    #[test]
    fn two_sources_both_found() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let a = campaign.tracked[3];
        let b = campaign.tracked[campaign.tracked.len() - 4];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[a.us()] = 500_000;
        volume[b.us()] = 400_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let suspects = rank_suspects(&campaign, &vols);
        let named = suspect_ases(&suspects, 1.0);
        assert!(named.contains(&a), "source a missed");
        assert!(named.contains(&b), "source b missed");
    }

    #[test]
    fn constraint_propagation_tightens_multi_source_bounds() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        // Several simultaneous sources.
        let sources = [
            campaign.tracked[2],
            campaign.tracked[campaign.tracked.len() / 2],
            campaign.tracked[campaign.tracked.len() - 3],
        ];
        let mut volume = vec![0u64; g.topology.num_ases()];
        for (i, s) in sources.iter().enumerate() {
            volume[s.us()] = 100_000 * (i as u64 + 1);
        }
        let vols = link_volume_matrix(&campaign, &volume);

        let simple = rank_suspects(&campaign, &vols);
        let refined = estimate_cluster_volumes(&campaign, &vols, 10);
        // Refinement never names more clusters than the simple bound.
        assert!(refined.len() <= simple.len());
        // Bounds are well-formed and every true source cluster survives
        // with an upper bound covering its real volume.
        for s in &sources {
            let real = volume[s.us()];
            let est = refined
                .iter()
                .find(|e| e.members.contains(s))
                .expect("true source exonerated");
            assert!(est.lower <= real, "lower {} > real {real}", est.lower);
            assert!(est.upper >= real, "upper {} < real {real}", est.upper);
        }
        // And all bounds are ordered.
        for e in &refined {
            assert!(e.lower <= e.upper);
        }
    }

    #[test]
    fn constraint_propagation_single_source_is_tight() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let attacker = campaign.tracked[campaign.tracked.len() / 2];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[attacker.us()] = 777_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let refined = estimate_cluster_volumes(&campaign, &vols, 10);
        // Exactly one cluster survives, with exact bounds.
        assert_eq!(refined.len(), 1);
        assert!(refined[0].members.contains(&attacker));
        assert_eq!(refined[0].lower, 777_000);
        assert_eq!(refined[0].upper, 777_000);
    }

    #[test]
    fn parallel_campaign_equals_sequential() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let seq = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        for threads in [1usize, 3, 8, 64] {
            let par = run_campaign_parallel(
                &engine,
                &origin,
                &schedule,
                CatchmentSource::ControlPlane,
                200,
                threads,
            );
            assert_eq!(par.catchments, seq.catchments, "threads={threads}");
            assert_eq!(par.tracked, seq.tracked);
            assert_eq!(par.clustering.num_clusters(), seq.clustering.num_clusters());
            assert_eq!(par.records, seq.records);
        }
    }

    #[test]
    fn sharded_campaign_equals_parallel_for_every_shard_count() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        for source in [CatchmentSource::ControlPlane, CatchmentSource::DataPlane] {
            let seq = run_campaign_mode(
                &engine,
                &origin,
                &schedule,
                source,
                None,
                200,
                CampaignMode::Warm,
            );
            for (threads, shards) in [(1, 1), (1, 4), (3, 2), (4, 8), (2, 64)] {
                let sharded =
                    run_campaign_sharded(&engine, &origin, &schedule, source, 200, threads, shards);
                assert_eq!(
                    sharded.catchments, seq.catchments,
                    "threads={threads} shards={shards}"
                );
                assert_eq!(sharded.tracked, seq.tracked);
                assert_eq!(sharded.clustering.clusters(), seq.clustering.clusters());
                assert_eq!(sharded.attribution, seq.attribution);
                assert_eq!(sharded.records, seq.records);
                assert_eq!(
                    sharded.stats.shards,
                    ShardPlan::new(g.topology.num_ases(), shards).num_shards()
                );
                // The canonical merge produced a non-trivial union arena
                // (final session arenas can sit below the high-water mark
                // after cold restarts, so `peak` is not a lower bound).
                assert!(sharded.stats.merged_arena_nodes > 0);
            }
        }
    }

    #[test]
    fn shard_plan_tiles_the_index_space() {
        for (n, k) in [
            (10, 3),
            (10, 1),
            (7, 7),
            (5, 9),
            (1, 4),
            (100, 8),
            (12_000, 8),
            (80_000, 16),
        ] {
            let plan = ShardPlan::new(n, k);
            assert!(plan.num_shards() >= 1 && plan.num_shards() <= n.max(1));
            let mut covered = 0usize;
            let mut next = 0usize;
            for r in plan.ranges() {
                assert_eq!(r.start, next, "ranges must tile contiguously");
                assert!(!r.is_empty(), "no empty shards after clamping");
                assert_eq!(
                    r.start % 64,
                    0,
                    "shard boundaries are u64-word-aligned for the bitset merge"
                );
                covered += r.len();
                next = r.end;
            }
            assert_eq!(covered, n);
            assert_eq!(next, n);
        }
    }

    #[test]
    fn shard_plan_auto_scales_with_threads_but_respects_min_span() {
        // Single-threaded: one shard, nothing to share.
        assert_eq!(ShardPlan::auto(80_000, 1).num_shards(), 1);
        // Multicore at scale: two tasks per thread.
        assert_eq!(ShardPlan::auto(80_000, 8).num_shards(), 16);
        // Small topology: the MIN_SPAN cap wins over thread count.
        let small = ShardPlan::auto(100, 8);
        assert_eq!(small.num_shards(), 1);
        // Mid-size: capped at ⌈n / MIN_SPAN⌉ shards, never below MIN_SPAN
        // per shard (modulo the final partial shard).
        let mid = ShardPlan::auto(12_000, 8);
        assert!(mid.num_shards() <= 3);
        for r in mid.ranges() {
            assert_eq!(r.start % 64, 0);
        }
    }

    #[test]
    fn match_fraction_ranks_attacker_first_with_fresh_catchments() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let attacker = campaign.tracked[campaign.tracked.len() / 3];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[attacker.us()] = 1_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let scores = match_fraction_scores(&campaign, &vols);
        // The attacker's cluster scores a perfect 1.0 and ranks first.
        assert!((scores[0].2 - 1.0).abs() < 1e-12);
        assert!(scores[0].1.contains(&attacker));
        // Scores are sorted descending.
        for w in scores.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn measured_campaign_runs_and_imputes() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let cones = trackdown_topology::cone::ConeInfo::compute(&g.topology);
        let plane = MeasurementPlane::new(
            &g.topology,
            &cones,
            &trackdown_measure::MeasurementConfig::default(),
        );
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(5),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::Measured,
            Some(&plane),
            200,
        );
        let stats = campaign.imputation.unwrap();
        assert_eq!(stats.analysis_sources, campaign.tracked.len());
        assert!(!campaign.tracked.is_empty());
        assert!(campaign.clustering.num_clusters() > 1);
    }

    /// Inline differential: the indexed attribution functions agree with
    /// their rescan references on a real campaign with several attackers.
    /// (The heavy proptest version lives in tests/attribution_differential.)
    #[test]
    fn indexed_attribution_matches_rescan_references() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let mut volume = vec![0u64; g.topology.num_ases()];
        for (i, s) in campaign.tracked.iter().step_by(7).enumerate() {
            volume[s.us()] = 10_000 * (i as u64 + 1);
        }
        let vols = link_volume_matrix(&campaign, &volume);
        assert_eq!(
            rank_suspects(&campaign, &vols),
            rank_suspects_rescan(&campaign, &vols)
        );
        assert_eq!(
            estimate_cluster_volumes(&campaign, &vols, 10),
            estimate_cluster_volumes_rescan(&campaign, &vols, 10)
        );
        assert_eq!(
            match_fraction_scores(&campaign, &vols),
            match_fraction_scores_rescan(&campaign, &vols)
        );
    }

    /// The attribution index reconstructs exactly the per-cluster link
    /// matrix the rescan path reads off representative catchments.
    #[test]
    fn final_links_matches_representative_catchments() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(6),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let links = campaign.attribution.final_links();
        assert_eq!(links.len(), campaign.clustering.num_clusters());
        assert_eq!(
            campaign.attribution.num_configs(),
            campaign.catchments.len()
        );
        for (c, row) in links.iter().enumerate() {
            let rep = campaign.clustering.cluster_members(c as u32)[0];
            for (k, cat) in campaign.catchments.iter().enumerate() {
                assert_eq!(row[k], cat.get(rep), "cluster {c} config {k}");
            }
        }
        // The split log accounts for all cluster growth.
        let grown: usize = (0..campaign.attribution.num_configs())
            .flat_map(|k| campaign.attribution.split_log(k))
            .map(|s| s.children.len() - 1)
            .sum();
        assert_eq!(grown + 1, campaign.clustering.num_clusters());
    }

    /// A short volume row is a caller bug, not zero volume (the old
    /// `unwrap_or(0)` silently exonerated clusters on missing data).
    #[test]
    #[should_panic(expected = "silently exonerate")]
    fn short_volume_rows_rejected() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let mut vols = link_volume_matrix(&campaign, &vec![1u64; g.topology.num_ases()]);
        vols[0].truncate(campaign.attribution.num_links().saturating_sub(1));
        let _ = rank_suspects(&campaign, &vols);
    }

    /// An over-wide volume row is equally a caller bug: the extra entries
    /// can never be matched against any tracked cluster, so accepting them
    /// would silently drop whatever volume the caller put there.
    #[test]
    #[should_panic(expected = "silently ignored")]
    fn wide_volume_rows_rejected() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let mut vols = link_volume_matrix(&campaign, &vec![1u64; g.topology.num_ases()]);
        vols[0].push(77); // one entry past the attribution width
        let _ = estimate_cluster_volumes(&campaign, &vols, 10);
    }

    /// `fit_link_volumes` adapts honeypot-shaped rows (the origin's full
    /// link count) to the exact width contract without changing any
    /// volume a tracked cluster can see.
    #[test]
    fn fit_link_volumes_trims_to_the_attribution_width() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            CatchmentSource::ControlPlane,
            None,
            200,
        );
        let volume = vec![3u64; g.topology.num_ases()];
        let exact = link_volume_matrix(&campaign, &volume);
        // Honeypot-shaped rows: origin width, possibly wider than the
        // attribution plane.
        let wide: Vec<Vec<u64>> = campaign
            .catchments
            .iter()
            .map(|cat| trackdown_traffic::volume_per_link(cat, &volume, origin.num_links()))
            .collect();
        let fitted = fit_link_volumes(&campaign, wide);
        assert_eq!(
            rank_suspects(&campaign, &fitted),
            rank_suspects(&campaign, &exact)
        );
        for row in &fitted {
            assert_eq!(row.len(), campaign.attribution.num_links());
        }
    }

    #[test]
    #[should_panic(expected = "empty schedule")]
    fn empty_schedule_rejected() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let _ = run_campaign(
            &engine,
            &origin,
            &[],
            CatchmentSource::ControlPlane,
            None,
            200,
        );
    }
}
