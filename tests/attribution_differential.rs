//! Differential suite for the indexed attribution plane: on every
//! proptest-generated campaign — Warm and Cold executors, 1/2/8 worker
//! threads, planted attacker volumes — the incremental implementations
//! (`rank_suspects`, `estimate_cluster_volumes`, `match_fraction_scores`,
//! `cluster_of`, `cluster_size_of`) must produce byte-identical output to
//! the scan-based references they replaced (`*_rescan` / `*_scan`).
//!
//! The rescans rebuild everything from the raw catchments each call, so
//! any divergence is a bug in the index maintenance — a stale split-log
//! entry, a parent chain walked wrong, a CSR offset off by one — not a
//! modeling difference. This mirrors the role `warm_vs_cold.rs` plays for
//! the executor and `path_arena_differential.rs` for the routing core.
//!
//! `AttributionIndex::build`, which builds the cluster membership once
//! after refining every configuration, is held to the per-configuration
//! `refine_logged` loop on the small, medium and full presets and on
//! random catchment rows.

use proptest::prelude::*;
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::core::cluster::RefineDelta;
use trackdown_suite::core::localize::{
    match_fraction_scores, match_fraction_scores_rescan, run_campaign_parallel_mode,
};
use trackdown_suite::prelude::*;

fn engine_config(clean: bool) -> EngineConfig {
    if clean {
        EngineConfig {
            policy: PolicyConfig {
                violator_fraction: 0.0,
                ..PolicyConfig::default()
            },
            ..EngineConfig::default()
        }
    } else {
        EngineConfig::default()
    }
}

fn scenario(
    seed: u64,
    pops: usize,
    max_removals: usize,
    max_poison: usize,
) -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::small(seed));
    let origin = OriginAs::peering_style(&world, pops);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals,
            max_poison_configs: Some(max_poison),
        },
    );
    (world, origin, schedule)
}

/// Spread `n` attackers across the tracked set at deterministic,
/// seed-dependent offsets and return the per-AS volume vector.
fn plant_attackers(
    world: &GeneratedTopology,
    campaign: &Campaign,
    n: usize,
    salt: u64,
) -> Vec<u64> {
    let mut volume = vec![0u64; world.topology.num_ases()];
    if campaign.tracked.is_empty() {
        return volume;
    }
    for k in 0..n {
        let pos = ((salt as usize).wrapping_mul(2654435761) + k * 7919) % campaign.tracked.len();
        volume[campaign.tracked[pos].us()] = 100_000 * (k as u64 + 1);
    }
    volume
}

/// The full equality obligation between the indexed attribution plane and
/// the from-scratch rescans, on one campaign + one volume matrix.
macro_rules! assert_attribution_matches_rescan {
    ($campaign:expr, $vols:expr) => {
        prop_assert_eq!(
            rank_suspects(&$campaign, &$vols),
            rank_suspects_rescan(&$campaign, &$vols)
        );
        prop_assert_eq!(
            estimate_cluster_volumes(&$campaign, &$vols, 10),
            estimate_cluster_volumes_rescan(&$campaign, &$vols, 10)
        );
        prop_assert_eq!(
            match_fraction_scores(&$campaign, &$vols),
            match_fraction_scores_rescan(&$campaign, &$vols)
        );
        // Per-source lookups, tracked and untracked alike.
        let probe_beyond = AsIndex($campaign.tracked.iter().map(|s| s.0).max().unwrap_or(0) + 1);
        for &s in $campaign
            .tracked
            .iter()
            .chain(std::iter::once(&probe_beyond))
        {
            prop_assert_eq!(
                $campaign.clustering.cluster_of(s),
                $campaign.clustering.cluster_of_scan(s)
            );
            prop_assert_eq!(
                $campaign.clustering.cluster_size_of(s),
                $campaign.clustering.cluster_size_of_scan(s)
            );
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Sequential Warm and Cold campaigns: the indexed plane must match
    // the rescans on both, and the two campaigns' suspect lists must
    // agree with each other (the executor equivalence the warm_vs_cold
    // suite proves, restated at the attribution layer).
    #[test]
    fn indexed_attribution_matches_rescan_warm_and_cold(
        seed in 0u64..500,
        pops in 3usize..6,
        max_poison in 4usize..12,
        attackers in 1usize..4,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, pops, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        for mode in [CampaignMode::Warm, CampaignMode::Cold] {
            let campaign = run_campaign_mode(
                &engine, &origin, &schedule, CatchmentSource::ControlPlane,
                None, 200, mode);
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            let vols = link_volume_matrix(&campaign, &volume);
            prop_assert_eq!(vols.len(), campaign.attribution.num_configs());
            assert_attribution_matches_rescan!(campaign, vols);
        }
    }

    // Parallel campaigns across worker counts: chunked warm sessions
    // reorder work internally, so the refinement history (and thus the
    // attribution index) must still come out identical to the rescans —
    // and identical across thread counts.
    #[test]
    fn indexed_attribution_matches_rescan_across_threads(
        seed in 0u64..500,
        max_poison in 4usize..10,
        attackers in 1usize..4,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let mut suspect_golden = None;
        for threads in [1usize, 2, 8] {
            let campaign = run_campaign_parallel_mode(
                &engine, &origin, &schedule, CatchmentSource::ControlPlane,
                200, threads, CampaignMode::Warm);
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            let vols = link_volume_matrix(&campaign, &volume);
            assert_attribution_matches_rescan!(campaign, vols);
            let suspects = rank_suspects(&campaign, &vols);
            match &suspect_golden {
                None => suspect_golden = Some(suspects),
                Some(golden) => prop_assert_eq!(golden, &suspects),
            }
        }
    }

    // Measured campaigns impute missing observations before clustering;
    // the attribution index is built from the *imputed* catchments and
    // must still agree with the rescans over those same catchments.
    #[test]
    fn indexed_attribution_matches_rescan_measured(
        seed in 0u64..200,
        max_poison in 4usize..8,
        attackers in 1usize..3,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(false));
        let cones = ConeInfo::compute(&world.topology);
        let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
        let campaign = run_campaign_mode(
            &engine, &origin, &schedule, CatchmentSource::Measured,
            Some(&plane), 200, CampaignMode::Warm);
        let volume = plant_attackers(&world, &campaign, attackers, seed);
        let vols = link_volume_matrix(&campaign, &volume);
        assert_attribution_matches_rescan!(campaign, vols);
    }
}

// The structural invariants the proptest equality rides on, pinned on one
// concrete campaign so a failure names the broken piece directly.
#[test]
fn attribution_index_structure_is_consistent() {
    let (world, origin, schedule) = scenario(29, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        CatchmentSource::ControlPlane,
        None,
        200,
    );
    let idx = &campaign.attribution;
    assert_eq!(idx.num_configs(), schedule.len());
    assert_eq!(idx.final_num_clusters(), campaign.clustering.num_clusters());
    assert!(idx.num_links() <= origin.num_links());
    // Each split in the log grows the cluster count by |children| - 1;
    // summed over the campaign that must bridge initial to final count.
    let grown: usize = (0..idx.num_configs())
        .flat_map(|k| idx.split_log(k))
        .map(|s| s.children.len() - 1)
        .sum();
    assert_eq!(1 + grown, campaign.clustering.num_clusters());
    // final_links rows are exactly what a representative-member rescan of
    // the catchments yields.
    let links = idx.final_links();
    for (c, row) in links.iter().enumerate() {
        let rep = campaign.clustering.cluster_members(c as u32)[0];
        for (k, cat) in campaign.catchments.iter().enumerate() {
            assert_eq!(row[k], cat.get(rep), "cluster {c} config {k}");
        }
    }
}

/// `AttributionIndex::build` refines every configuration and builds the
/// cluster membership once; it must equal the per-configuration
/// `refine_logged` loop (membership rebuilt after every configuration)
/// in deltas, split logs, partition and every cluster's member list.
fn assert_build_matches_refine_loop(tracked: &[AsIndex], catchments: &[Catchments]) {
    let (built, index) = AttributionIndex::build(tracked.to_vec(), catchments);
    let mut looped = Clustering::single(tracked.to_vec());
    let initial = looped.num_clusters() as u32;
    let deltas: Vec<RefineDelta> = catchments.iter().map(|c| looped.refine_logged(c)).collect();
    assert_eq!(index.num_configs(), deltas.len());
    for (k, d) in deltas.iter().enumerate() {
        assert_eq!(index.delta(k), d, "delta of configuration {k}");
        assert_eq!(index.split_log(k), &d.splits[..], "split log {k}");
    }
    assert_eq!(index, AttributionIndex::new(initial, deltas));
    assert_eq!(built, looped);
    assert_eq!(built.num_clusters(), looped.num_clusters());
    for c in 0..looped.num_clusters() as u32 {
        assert_eq!(
            built.cluster_members(c),
            looped.cluster_members(c),
            "cluster {c}"
        );
    }
    assert_eq!(built.sizes(), looped.sizes());
}

#[test]
fn attribution_index_build_matches_refine_loop_on_presets() {
    for scale in [Scale::Small, Scale::Medium, Scale::Full] {
        let s = Scenario::build(Options {
            scale,
            seed: 7,
            ..Options::default()
        });
        let campaign = s.run();
        assert_build_matches_refine_loop(&campaign.tracked, &campaign.catchments);
        // And against the campaign's own refinement, which keeps the
        // membership current after every configuration for its records.
        let (built, index) =
            AttributionIndex::build(campaign.tracked.clone(), &campaign.catchments);
        assert_eq!(built, campaign.clustering);
        assert_eq!(index, campaign.attribution);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn attribution_index_build_matches_refine_loop_on_random_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 0..160),
            0..12,
        ),
        tracked_mask in proptest::collection::vec(any::<bool>(), 0..160),
        width in 0usize..160,
    ) {
        // Entry 0 is "unassigned"; 1..6 are links 0..5.
        let catchments: Vec<Catchments> = rows
            .iter()
            .map(|row| {
                let dense: Vec<Option<LinkId>> = (0..width)
                    .map(|i| match row.get(i).copied().unwrap_or(0) {
                        0 => None,
                        l => Some(LinkId(l - 1)),
                    })
                    .collect();
                Catchments::from_dense(&dense)
            })
            .collect();
        let tracked: Vec<AsIndex> = (0..width)
            .filter(|&i| tracked_mask.get(i).copied().unwrap_or(false))
            .map(|i| AsIndex(i as u32))
            .collect();
        assert_build_matches_refine_loop(&tracked, &catchments);
    }
}
