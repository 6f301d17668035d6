//! Differential suite for the interned-path propagation core: the
//! arena-backed engine must produce *identical* results — best routes,
//! change logs, control- and data-plane catchments — to an independent
//! reference propagator that stores materialized `Vec<Asn>` paths on every
//! route, exactly as the engine did before the arena refactor.
//!
//! The reference implementation below deliberately re-derives the run
//! loop from the engine's public policy API (`accepts`, `local_pref`,
//! `may_export`, `tiebreak_key`) instead of sharing any propagation code,
//! so a bug in the arena plumbing (wrong interning order, dangling ids,
//! lossy community bits, stale length caches) cannot cancel out.

use proptest::prelude::*;
use std::collections::VecDeque;
use trackdown_suite::bgp::{
    Catchments, Community, CommunityBits, CommunitySet, Injection, SnapshotDetail,
};
use trackdown_suite::core::localize::run_campaign_parallel_mode;
use trackdown_suite::prelude::*;
use trackdown_suite::topology::NeighborKind;

/// A route with its AS-path materialized inline — the pre-arena layout.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefRoute {
    path: AsPath,
    ingress: LinkId,
    from_neighbor: Option<AsIndex>,
    local_pref: u32,
    learned_from: NeighborKind,
    communities: CommunitySet,
}

/// A best-route change as the reference propagator records it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefChange {
    round: u32,
    at: AsIndex,
    ingress: Option<LinkId>,
    path_len: usize,
}

/// The reference cold-start fixpoint: materialized paths, same queue
/// discipline, same decision process, same event cap as the engine.
struct RefOutcome {
    best: Vec<Option<RefRoute>>,
    changes: Vec<RefChange>,
    converged: bool,
}

fn ref_better(engine: &BgpEngine<'_>, at: AsIndex, a: &RefRoute, b: &RefRoute) -> bool {
    if a.local_pref != b.local_pref {
        return a.local_pref > b.local_pref;
    }
    if a.path.len() != b.path.len() {
        return a.path.len() < b.path.len();
    }
    let ta = engine.policy().tiebreak_key(at, a.from_neighbor, a.ingress);
    let tb = engine.policy().tiebreak_key(at, b.from_neighbor, b.ingress);
    if ta != tb {
        return ta < tb;
    }
    let na = a.from_neighbor.map(|n| n.0 + 1).unwrap_or(0);
    let nb = b.from_neighbor.map(|n| n.0 + 1).unwrap_or(0);
    if na != nb {
        return na < nb;
    }
    a.ingress < b.ingress
}

fn ref_propagate(
    engine: &BgpEngine<'_>,
    injections: &[Injection],
    max_events_factor: usize,
) -> RefOutcome {
    let topo = engine.topology();
    let policy = engine.policy();
    let n = topo.num_ases();
    let mut direct: Vec<Vec<RefRoute>> = vec![Vec::new(); n];
    let mut ribs: Vec<Vec<Option<RefRoute>>> =
        topo.indices().map(|i| vec![None; topo.degree(i)]).collect();
    let mut best: Vec<Option<RefRoute>> = vec![None; n];
    let mut queue: VecDeque<AsIndex> = VecDeque::new();
    let mut in_queue = vec![false; n];
    let mut depth = vec![0u32; n];
    let mut pending_depth = vec![0u32; n];
    let mut changes: Vec<RefChange> = Vec::new();
    let mut events = 0usize;
    let mut converged = true;

    for inj in injections {
        if !policy.accepts(topo, inj.provider, None, &inj.path) {
            continue;
        }
        direct[inj.provider.us()].push(RefRoute {
            path: inj.path.clone(),
            ingress: inj.link,
            from_neighbor: None,
            local_pref: policy.local_pref(inj.provider, None, NeighborKind::Customer),
            learned_from: NeighborKind::Customer,
            communities: inj.communities.clone(),
        });
        if !in_queue[inj.provider.us()] {
            in_queue[inj.provider.us()] = true;
            queue.push_back(inj.provider);
        }
    }

    let cap = max_events_factor.saturating_mul(n.max(1));
    while let Some(i) = queue.pop_front() {
        in_queue[i.us()] = false;
        events += 1;
        if events > cap {
            converged = false;
            break;
        }
        let mut new_best: Option<&RefRoute> = None;
        for cand in direct[i.us()].iter().chain(ribs[i.us()].iter().flatten()) {
            new_best = match new_best {
                None => Some(cand),
                Some(cur) => {
                    if ref_better(engine, i, cand, cur) {
                        Some(cand)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        let new_best = new_best.cloned();
        if new_best == best[i.us()] {
            continue;
        }
        best[i.us()] = new_best.clone();
        depth[i.us()] = pending_depth[i.us()];
        changes.push(RefChange {
            round: depth[i.us()],
            at: i,
            ingress: new_best.as_ref().map(|r| r.ingress),
            path_len: new_best.as_ref().map(|r| r.path.len()).unwrap_or(0),
        });
        let own_asn = topo.asn_of(i);
        for &(j, j_kind_from_i) in topo.neighbors(i) {
            let offer = match &new_best {
                Some(r)
                    if policy.may_export(r.learned_from, j_kind_from_i)
                        && (r.from_neighbor.is_some()
                            || r.communities.allows_export_to(j_kind_from_i))
                        && r.from_neighbor != Some(j) =>
                {
                    let extra = if r.from_neighbor.is_none() {
                        r.communities.provider_prepends()
                    } else {
                        0
                    };
                    let offered = r.path.prepended_by_times(own_asn, 1 + extra);
                    if policy.accepts(topo, j, Some(i), &offered) {
                        let i_kind_from_j = j_kind_from_i.reverse();
                        Some(RefRoute {
                            path: offered,
                            ingress: r.ingress,
                            from_neighbor: Some(i),
                            local_pref: policy.local_pref(j, Some(i), i_kind_from_j),
                            learned_from: i_kind_from_j,
                            communities: CommunitySet::empty(),
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let pos = topo
                .neighbors(j)
                .binary_search_by_key(&i, |(m, _)| *m)
                .expect("adjacency is symmetric");
            if ribs[j.us()][pos] != offer {
                ribs[j.us()][pos] = offer;
                pending_depth[j.us()] = pending_depth[j.us()].max(depth[i.us()] + 1);
                if !in_queue[j.us()] {
                    in_queue[j.us()] = true;
                    queue.push_back(j);
                }
            }
        }
    }
    RefOutcome {
        best,
        changes,
        converged,
    }
}

/// Assert an engine outcome (captured at `SnapshotDetail::Full`) equals
/// the reference fixpoint route for route, change for change.
fn assert_outcome_matches_reference(out: &RoutingOutcome, reference: &RefOutcome) {
    prop_assert_eq!(out.converged, reference.converged);
    prop_assert_eq!(out.best.len(), reference.best.len());
    for (i, (a, r)) in out.best.iter().zip(&reference.best).enumerate() {
        match (a, r) {
            (None, None) => {}
            (Some(a), Some(r)) => {
                prop_assert_eq!(out.path_of(a), r.path.clone(), "path differs at AS {}", i);
                prop_assert_eq!(a.path_len(), r.path.len(), "cached len differs at AS {}", i);
                prop_assert_eq!(a.ingress, r.ingress, "ingress differs at AS {}", i);
                prop_assert_eq!(
                    a.from_neighbor,
                    r.from_neighbor,
                    "from_neighbor differs at AS {}",
                    i
                );
                prop_assert_eq!(a.local_pref, r.local_pref, "local_pref differs at AS {}", i);
                prop_assert_eq!(
                    a.learned_from,
                    r.learned_from,
                    "learned_from differs at AS {}",
                    i
                );
                prop_assert_eq!(
                    a.communities,
                    CommunityBits::from_set(&r.communities),
                    "communities differ at AS {}",
                    i
                );
            }
            _ => prop_assert!(
                false,
                "best presence differs at AS {}: {:?} vs {:?}",
                i,
                a,
                r
            ),
        }
    }
    prop_assert_eq!(out.changes.len(), reference.changes.len());
    for (a, r) in out.changes.iter().zip(&reference.changes) {
        prop_assert_eq!(a.round, r.round);
        prop_assert_eq!(a.at, r.at);
        prop_assert_eq!(a.ingress, r.ingress);
        prop_assert_eq!(a.path_len, r.path_len);
    }
}

fn engine_config(seed: u64, violators: f64, immune: f64, tier1: bool) -> EngineConfig {
    EngineConfig {
        policy: PolicyConfig {
            seed,
            violator_fraction: violators,
            no_loop_prevention_fraction: immune,
            tier1_poison_filtering: tier1,
            extensions: Default::default(),
        },
        ..EngineConfig::default()
    }
}

/// Candidate poison targets: neighbors of the origin's providers, the
/// same targeting strategy the schedule generator uses.
fn poison_candidates(topo: &Topology, origin: &OriginAs) -> Vec<Asn> {
    let providers: Vec<Asn> = origin.links.iter().map(|l| l.provider).collect();
    let mut out = Vec::new();
    for link in &origin.links {
        let Some(p) = topo.index_of(link.provider) else {
            continue;
        };
        for &(nb, _) in topo.neighbors(p) {
            let asn = topo.asn_of(nb);
            if asn != origin.asn && !providers.contains(&asn) && !out.contains(&asn) {
                out.push(asn);
            }
        }
    }
    out
}

/// Build one announcement per link from the per-link knob nibble:
/// 0 = withdrawn, 1 = plain, 2 = prepended, 3 = poisoned,
/// 4 = no-export-to-peers, 5 = provider-prepend community.
fn announcements_from_knobs(
    topo: &Topology,
    origin: &OriginAs,
    knobs: &[u8],
) -> Vec<LinkAnnouncement> {
    let poisons = poison_candidates(topo, origin);
    let mut anns = Vec::new();
    for (idx, l) in origin.link_ids().enumerate() {
        match knobs[idx % knobs.len()] % 6 {
            0 => {}
            1 => anns.push(LinkAnnouncement::plain(l)),
            2 => anns.push(LinkAnnouncement {
                link: l,
                prepend: true,
                poisons: vec![],
                communities: CommunitySet::empty(),
            }),
            3 if !poisons.is_empty() => {
                let p = poisons[(idx + knobs[0] as usize) % poisons.len()];
                anns.push(LinkAnnouncement {
                    link: l,
                    prepend: false,
                    poisons: vec![p],
                    communities: CommunitySet::empty(),
                });
            }
            3 => anns.push(LinkAnnouncement::plain(l)),
            4 => anns.push(LinkAnnouncement {
                link: l,
                prepend: false,
                poisons: vec![],
                communities: CommunitySet::from_vec(vec![Community::NoExportToPeers]),
            }),
            _ => anns.push(LinkAnnouncement {
                link: l,
                prepend: false,
                poisons: vec![],
                communities: CommunitySet::from_vec(vec![Community::PrependAtProvider(
                    1 + (knobs[idx % knobs.len()] / 6) % 8,
                )]),
            }),
        }
    }
    if anns.is_empty() {
        anns.push(LinkAnnouncement::plain(LinkId(0)));
    }
    anns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Cold-start propagation over random topologies, policies, and
    // announcement mixes (withdrawals, prepending, poisoning, action
    // communities): byte-for-byte equal to the materialized-path oracle.
    #[test]
    fn arena_propagation_matches_materialized_reference(
        topo_seed in 0u64..200,
        policy_seed in 0u64..100,
        pops in 3usize..6,
        knobs in proptest::collection::vec(0u8..48, 3..6),
        violators in 0u8..2,
        immune in 0u8..2,
        tier1 in any::<bool>(),
    ) {
        let g = generate(&TopologyConfig::small(topo_seed));
        let origin = OriginAs::peering_style(&g, pops);
        let cfg = engine_config(
            policy_seed,
            if violators == 1 { 0.15 } else { 0.0 },
            if immune == 1 { 0.1 } else { 0.0 },
            tier1,
        );
        let engine = BgpEngine::new(&g.topology, &cfg);
        let anns = announcements_from_knobs(&g.topology, &origin, &knobs);
        let inj = origin.build_injections(&g.topology, &anns).unwrap();

        let out = engine.propagate_detailed(&inj, 200, SnapshotDetail::Full);
        let reference = ref_propagate(&engine, &inj, 200);
        assert_outcome_matches_reference(&out, &reference);

        // Catchments derive from best routes, but check them end to end
        // anyway: both the control-plane tags and the forwarding walks.
        let ctrl = Catchments::from_control_plane(&out);
        for i in g.topology.indices() {
            prop_assert_eq!(
                ctrl.get(i),
                reference.best[i.us()].as_ref().map(|r| r.ingress)
            );
        }
    }

    // Warm epoch transitions land on the same fixpoint as the reference
    // cold start of the final configuration (unique fixpoints: clean
    // policies only), across a chain of random deployments.
    #[test]
    fn warm_session_matches_reference_cold_start(
        topo_seed in 0u64..100,
        policy_seed in 0u64..50,
        chain in proptest::collection::vec(
            proptest::collection::vec(0u8..48, 4), 2..5),
    ) {
        let g = generate(&TopologyConfig::small(topo_seed));
        let origin = OriginAs::peering_style(&g, 4);
        let cfg = engine_config(policy_seed, 0.0, 0.0, true);
        let engine = BgpEngine::new(&g.topology, &cfg);
        let mut session = engine.session();
        prop_assert!(session.warm_reuse());
        let mut last = None;
        for knobs in &chain {
            let anns = announcements_from_knobs(&g.topology, &origin, knobs);
            let out = session
                .deploy_config_detailed(&origin, &anns, 200, SnapshotDetail::Full)
                .unwrap();
            last = Some((anns, out));
        }
        let (anns, out) = last.unwrap();
        let inj = origin.build_injections(&g.topology, &anns).unwrap();
        let reference = ref_propagate(&engine, &inj, 200);
        // The warm outcome's change log describes the transition, not the
        // cold start, so only the fixpoint state is compared.
        prop_assert_eq!(out.converged, reference.converged);
        for (i, (a, r)) in out.best.iter().zip(&reference.best).enumerate() {
            match (a, r) {
                (None, None) => {}
                (Some(a), Some(r)) => {
                    prop_assert_eq!(out.path_of(a), r.path.clone(), "path differs at AS {}", i);
                    prop_assert_eq!(a.ingress, r.ingress);
                    prop_assert_eq!(a.from_neighbor, r.from_neighbor);
                    prop_assert_eq!(a.local_pref, r.local_pref);
                    prop_assert_eq!(a.learned_from, r.learned_from);
                }
                _ => prop_assert!(false, "best presence differs at AS {}", i),
            }
        }
    }
}

/// Arena-independent identity of a best route: materialized path,
/// ingress, next hop and LocalPref.
type BestKey = (AsPath, LinkId, Option<AsIndex>, u32);

fn best_keys(out: &RoutingOutcome) -> Vec<Option<BestKey>> {
    out.best
        .iter()
        .map(|b| b.map(|r| (out.path_of(&r), r.ingress, r.from_neighbor, r.local_pref)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The drain selects through a cached best RIB slot and interns each
    // exported path once per event. Violators (non-unique stable states,
    // event-cap restarts) and loop-prevention-immune ASes (poisoned paths
    // accepted) stress both. Cold runs must equal the materialized-path
    // reference, and warm and delta sessions must equal cold, across a
    // chain of random deployments.
    #[test]
    fn cached_selection_matches_oracles_with_violators_and_immune_ases(
        topo_seed in 0u64..100,
        policy_seed in 0u64..50,
        violators in 0u8..2,
        immune in 1u8..4,
        chain in proptest::collection::vec(
            proptest::collection::vec(0u8..48, 4), 2..5),
    ) {
        let g = generate(&TopologyConfig::small(topo_seed));
        let origin = OriginAs::peering_style(&g, 4);
        let cfg = engine_config(
            policy_seed,
            if violators == 1 { 0.3 } else { 0.0 },
            0.05 * f64::from(immune),
            true,
        );
        let engine = BgpEngine::new(&g.topology, &cfg);
        let mut warm = engine.session();
        let mut delta = engine.session();
        for knobs in &chain {
            let anns = announcements_from_knobs(&g.topology, &origin, knobs);
            let inj = origin.build_injections(&g.topology, &anns).unwrap();
            let cold = engine.propagate_detailed(&inj, 200, SnapshotDetail::Full);
            assert_outcome_matches_reference(&cold, &ref_propagate(&engine, &inj, 200));
            if cold.converged {
                prop_assert_eq!(cold.work.decide_calls, cold.events);
            }
            let w = warm.deploy_detailed(&inj, 200, SnapshotDetail::Full);
            let d = delta.deploy_delta_detailed(&inj, 200, SnapshotDetail::Full);
            prop_assert_eq!(w.converged, cold.converged);
            prop_assert_eq!(d.converged, cold.converged);
            prop_assert_eq!(best_keys(&w), best_keys(&cold), "warm != cold");
            prop_assert_eq!(best_keys(&d), best_keys(&cold), "delta != cold");
        }
    }
}

/// Campaign-level differential: Warm and Cold executors at 1, 2, and 8
/// threads all agree with each other *and* with the reference propagator
/// run per configuration.
#[test]
fn campaigns_match_reference_across_modes_and_threads() {
    let world = generate(&TopologyConfig::small(7));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 1,
            max_poison_configs: Some(8),
        },
    );

    // Reference catchments, one cold fixpoint per configuration.
    let reference: Vec<Vec<Option<LinkId>>> = schedule
        .iter()
        .map(|cfg| {
            let inj = origin
                .build_injections(&world.topology, &cfg.to_link_announcements())
                .unwrap();
            let r = ref_propagate(&engine, &inj, 200);
            assert!(r.converged);
            r.best
                .iter()
                .map(|b| b.as_ref().map(|r| r.ingress))
                .collect()
        })
        .collect();

    let mut campaigns = Vec::new();
    for mode in [CampaignMode::Warm, CampaignMode::Cold] {
        for threads in [1usize, 2, 8] {
            let c = run_campaign_parallel_mode(
                &engine,
                &origin,
                &schedule,
                CatchmentSource::ControlPlane,
                200,
                threads,
                mode,
            );
            for (k, cat) in c.catchments.iter().enumerate() {
                for i in world.topology.indices() {
                    assert_eq!(
                        cat.get(i),
                        reference[k][i.us()],
                        "{mode:?}/{threads} threads: catchment of AS {i:?} in config {k}"
                    );
                }
            }
            campaigns.push((mode, threads, c));
        }
    }
    // All six campaigns are mutually identical in results.
    let (_, _, anchor) = &campaigns[0];
    for (mode, threads, c) in &campaigns[1..] {
        assert_eq!(
            &anchor.catchments, &c.catchments,
            "catchments differ for {mode:?}/{threads}"
        );
        assert_eq!(
            anchor.clustering.clusters(),
            c.clustering.clusters(),
            "clusters differ for {mode:?}/{threads}"
        );
        assert_eq!(&anchor.tracked, &c.tracked);
    }
    // Warm reuse actually engaged (violator-free default would gate it
    // off; the default engine has violators, so sessions cold-start —
    // verify the stats reflect whichever regime is active).
    let (_, _, warm1) = &campaigns[0];
    assert_eq!(warm1.stats.mode, CampaignMode::Warm);
    assert!(warm1.stats.propagations + warm1.stats.memo_hits == schedule.len());
}
