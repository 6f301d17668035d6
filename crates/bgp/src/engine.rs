//! Deterministic event-driven BGP route propagation.
//!
//! The engine computes, for one announcement configuration, the fixpoint of
//! standard BGP processing over the whole topology: every AS repeatedly
//! imports offers from its neighbors (loop prevention, LocalPref
//! assignment), selects a best route (LocalPref ▸ AS-path length ▸
//! deterministic salted tiebreak), and exports per valley-free policy.
//! Processing uses an activation queue and terminates when no RIB changes,
//! which Gao-Rexford-compliant policies guarantee; an event cap guards
//! against dispute wheels introduced by policy violators.

use crate::arena::{PathArena, PathId, PathStore};
use crate::community::CommunityBits;
use crate::delta::{diff_injections, PropagationRanks};
use crate::origin::{Injection, LinkAnnouncement, OriginAs, OriginError};
use crate::policy::{PolicyConfig, PolicyTable};
use crate::route::{LinkId, Route};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use trackdown_topology::{cone::ConeInfo, AsIndex, AsPath, NeighborKind, Topology};

/// Engine configuration: policy knobs plus the convergence guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Policy realism knobs (violators, loop prevention, tier-1 filters).
    pub policy: PolicyConfig,
    /// Event cap = `max_events_factor × num_ases`. Propagation that does
    /// not quiesce within the cap is reported as non-converged.
    pub max_events_factor: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            policy: PolicyConfig::default(),
            max_events_factor: 200,
        }
    }
}

/// One best-route change during propagation — the control-plane event a
/// route collector would see as a BGP UPDATE from that AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteChange {
    /// Causal depth (round) at which the change happened.
    pub round: u32,
    /// The AS whose best route changed.
    pub at: AsIndex,
    /// Ingress link of the new best route (`None` = withdrawal).
    pub ingress: Option<LinkId>,
    /// AS-path length of the new best route (0 on withdrawal).
    pub path_len: usize,
}

/// The data-plane path taken from a source AS to the origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingPath {
    /// ASes traversed, source first, PoP provider last.
    pub hops: Vec<AsIndex>,
    /// The peering link traffic ultimately enters the origin through.
    pub link: LinkId,
}

/// How much of the fixpoint state a [`RoutingOutcome`] captures.
///
/// The campaign pipeline only ever reads catchments (ingress tags and
/// next hops) from an outcome, so the default snapshot skips the two
/// expensive captures: the per-AS candidate RIB copy and the path-arena
/// store. Analyses that read candidate sets or path contents (compliance
/// / Fig 9, traceroute feeders, report output) opt into [`Full`].
///
/// [`Full`]: SnapshotDetail::Full
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SnapshotDetail {
    /// Capture best routes only: enough for catchments, forwarding walks,
    /// change logs, and convergence accounting. `candidates` is absent and
    /// the outcome's [`PathStore`] is empty (materializing panics).
    #[default]
    Catchments,
    /// Additionally capture the candidate RIBs and a [`PathStore`]
    /// snapshot so routes can be materialized into [`AsPath`]s.
    Full,
}

/// Deterministic work counters of one drain (one [`RoutingOutcome`]):
/// the same on every machine, so a change to the propagation inner loop
/// shows up as a counter drop next to its wall-clock drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainWork {
    /// Best-path selections run (one per processed event).
    pub decide_calls: usize,
    /// Selections whose cached best RIB slot was stale, so the AS's
    /// whole Adj-RIB-In was rescanned.
    pub decide_rescans: usize,
    /// Present RIB slots read by those rescans. The cached-slot
    /// comparison of a non-stale selection is not a scan.
    pub slots_scanned: usize,
    /// Offers that passed the sender's export policy and were evaluated
    /// by the receiving neighbor's import policy.
    pub export_offers: usize,
    /// Offers of those the receiver's import policy rejected (loop
    /// prevention, tier-1 filter, deployed extensions).
    pub export_policy_drops: usize,
    /// Hops interned into the path arena for exported paths (each
    /// interned path pushes `1 + provider prepends` hops).
    pub arena_pushes: usize,
}

impl std::ops::AddAssign for DrainWork {
    fn add_assign(&mut self, o: DrainWork) {
        self.decide_calls += o.decide_calls;
        self.decide_rescans += o.decide_rescans;
        self.slots_scanned += o.slots_scanned;
        self.export_offers += o.export_offers;
        self.export_policy_drops += o.export_policy_drops;
        self.arena_pushes += o.arena_pushes;
    }
}

/// Fixpoint routing state for one announcement configuration.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// Best route per AS (`None` = prefix unreachable from that AS).
    pub best: Vec<Option<Route>>,
    /// Adj-RIB-In snapshot per AS at fixpoint (only at
    /// [`SnapshotDetail::Full`]); see [`RoutingOutcome::candidates`].
    candidates: Option<Vec<Vec<Route>>>,
    /// Interned path nodes backing this outcome's routes (empty unless
    /// captured at [`SnapshotDetail::Full`]).
    pub paths: PathStore,
    /// Number of decision events processed.
    pub events: usize,
    /// Convergence depth: the longest chain of causally-dependent best-
    /// route changes. One round ≈ one MRAI interval in deployment terms,
    /// so this is the simulator's proxy for convergence *time* (the paper
    /// waits 70 minutes per configuration; \[25\] reports convergence under
    /// 2.5 minutes 99% of the time).
    pub rounds: u32,
    /// Every best-route change in processing order — the campaign-wide
    /// union is the "thousands of route changes" the paper's public
    /// dataset advertises (§VI), and per-feeder slices are what BGP
    /// collectors receive as UPDATE streams.
    pub changes: Vec<RouteChange>,
    /// False if the event cap fired before quiescence.
    pub converged: bool,
    /// Number of ASes whose best route at this fixpoint differs from
    /// their best route at the previous epoch's fixpoint (for a cold
    /// start the previous state is empty, so this equals
    /// [`RoutingOutcome::reachable_count`]). Transient flips that settle
    /// back are excluded: this counts *net* disturbance, the quantity
    /// delta propagation makes epoch cost proportional to.
    pub routes_disturbed: usize,
    /// Work counters of the drain that produced this outcome (like
    /// `events`, a session's transition counts only its own epoch).
    pub work: DrainWork,
}

impl RoutingOutcome {
    /// Control-plane catchment of an AS: the ingress tag of its best route.
    pub fn catchment(&self, i: AsIndex) -> Option<LinkId> {
        self.best[i.us()].as_ref().map(|r| r.ingress)
    }

    /// Control-plane catchments for all ASes.
    pub fn control_catchments(&self) -> Vec<Option<LinkId>> {
        self.best
            .iter()
            .map(|b| b.as_ref().map(|r| r.ingress))
            .collect()
    }

    /// Adj-RIB-In snapshot per AS at fixpoint: every candidate route that
    /// survived import. Used by the compliance analysis (Fig 9).
    ///
    /// # Panics
    /// Panics when the outcome was captured at
    /// [`SnapshotDetail::Catchments`] (the default), which skips the
    /// candidate copy.
    pub fn candidates(&self) -> &[Vec<Route>] {
        self.candidates
            .as_deref()
            .expect("candidates not captured — snapshot with SnapshotDetail::Full")
    }

    /// True when candidate RIBs were captured ([`SnapshotDetail::Full`]).
    pub fn has_candidates(&self) -> bool {
        self.candidates.is_some()
    }

    /// Materialize a route's AS-path from this outcome's [`PathStore`].
    ///
    /// # Panics
    /// Panics at [`SnapshotDetail::Catchments`] detail (no store captured)
    /// or if `route` belongs to a different outcome.
    pub fn path_of(&self, route: &Route) -> AsPath {
        self.paths.materialize(route.path_id)
    }

    /// Walk the data plane from `from` toward the origin, following each
    /// AS's best-route next hop. Returns `None` when the prefix is
    /// unreachable or a forwarding loop is met (possible only when some AS
    /// on the walk has loop prevention disabled).
    ///
    /// Convenience wrapper that allocates a fresh [`ForwardingWalker`];
    /// batch callers (catchment extraction, traceroute campaigns) keep one
    /// walker and reuse its visited buffer across walks.
    pub fn forwarding_walk(&self, from: AsIndex) -> Option<ForwardingPath> {
        ForwardingWalker::new().walk(self, from)
    }

    /// Number of ASes that can reach the prefix.
    pub fn reachable_count(&self) -> usize {
        self.best.iter().filter(|b| b.is_some()).count()
    }
}

/// Reusable data-plane walker: replaces the per-walk `HashSet` with a
/// stamped visited vector, so running one walk per source AS per epoch
/// (the catchment and traceroute loops) performs no per-walk allocation
/// after the first.
#[derive(Debug, Default)]
pub struct ForwardingWalker {
    /// `visited[i] == stamp` ⟺ AS `i` was visited during the current walk.
    visited: Vec<u32>,
    stamp: u32,
}

impl ForwardingWalker {
    /// A fresh walker (no buffer yet; sized lazily on first walk).
    pub fn new() -> ForwardingWalker {
        ForwardingWalker::default()
    }

    /// [`RoutingOutcome::forwarding_walk`] with this walker's buffer.
    pub fn walk(&mut self, outcome: &RoutingOutcome, from: AsIndex) -> Option<ForwardingPath> {
        if self.visited.len() < outcome.best.len() {
            self.visited.resize(outcome.best.len(), self.stamp);
        }
        // Advance the stamp; on wraparound, reset the buffer once.
        self.stamp = match self.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                self.visited.fill(0);
                1
            }
        };
        let mut hops = Vec::new();
        let mut cur = from;
        loop {
            if self.visited[cur.us()] == self.stamp {
                return None; // forwarding loop
            }
            self.visited[cur.us()] = self.stamp;
            let route = outcome.best[cur.us()].as_ref()?;
            hops.push(cur);
            match route.from_neighbor {
                Some(next) => cur = next,
                None => {
                    return Some(ForwardingPath {
                        hops,
                        link: route.ingress,
                    })
                }
            }
        }
    }
}

/// `best_slot` sentinel: the AS's Adj-RIB-In holds no route.
const SLOT_EMPTY: u32 = u32::MAX;
/// `best_slot` sentinel: the best RIB slot is unknown (the slot that held
/// it got worse or was withdrawn); the next selection rescans.
const SLOT_STALE: u32 = u32::MAX - 1;

/// The propagation engine, bound to one topology and one policy table.
///
/// Building the engine is O(V+E); each [`BgpEngine::propagate`] run is
/// independent, so one engine serves an entire multi-configuration
/// experiment.
pub struct BgpEngine<'t> {
    topo: &'t Topology,
    policy: PolicyTable,
    /// CSR offsets into the flat Adj-RIB-In: AS `i`'s per-neighbor slots
    /// are `rib_offsets[i] .. rib_offsets[i + 1]`, one per entry of `i`'s
    /// sorted neighbor list, in list order. Length `n + 1`.
    rib_offsets: Vec<u32>,
    /// Mirror slots: for `j = neighbors(i)[k]`, slot
    /// `rev_slot[rib_offsets[i] + k]` is the one in `j`'s range that
    /// holds routes *from* `i`. Adjacency is symmetric, so the map is an involution. The export
    /// loop reads it instead of searching `j`'s neighbor list. Both
    /// arrays depend only on the topology, so every session of this
    /// engine shares them.
    rev_slot: Vec<u32>,
}

impl<'t> BgpEngine<'t> {
    /// Build an engine over `topo` with the given configuration.
    pub fn new(topo: &'t Topology, config: &EngineConfig) -> BgpEngine<'t> {
        let cones = ConeInfo::compute(topo);
        BgpEngine::with_cones(topo, &cones, config)
    }

    /// Build an engine reusing a precomputed [`ConeInfo`].
    pub fn with_cones(
        topo: &'t Topology,
        cones: &ConeInfo,
        config: &EngineConfig,
    ) -> BgpEngine<'t> {
        let (rib_offsets, rev_slot) = rib_layout(topo);
        BgpEngine {
            topo,
            policy: PolicyTable::build(topo, cones, &config.policy),
            rib_offsets,
            rev_slot,
        }
    }

    /// The policy table in use (for analyses that need violator sets etc.).
    pub fn policy(&self) -> &PolicyTable {
        &self.policy
    }

    /// The topology this engine routes over.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Convenience: validate a configuration against the origin, build
    /// injections, and propagate.
    pub fn propagate_config(
        &self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
    ) -> Result<RoutingOutcome, OriginError> {
        self.propagate_config_detailed(
            origin,
            announcements,
            max_events_factor,
            SnapshotDetail::Catchments,
        )
    }

    /// [`BgpEngine::propagate_config`] with an explicit snapshot detail.
    pub fn propagate_config_detailed(
        &self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        let inj = origin.build_injections(self.topo, announcements)?;
        Ok(self.propagate_detailed(&inj, max_events_factor, detail))
    }

    /// CSR slot range of AS `i`'s Adj-RIB-In.
    #[inline]
    fn rib_slots(&self, i: AsIndex) -> Range<usize> {
        self.rib_offsets[i.us()] as usize..self.rib_offsets[i.us() + 1] as usize
    }

    /// True when `a` is strictly better than `b` at AS `at` under the full
    /// decision process.
    fn better(&self, at: AsIndex, a: &Route, b: &Route) -> bool {
        if a.local_pref != b.local_pref {
            return a.local_pref > b.local_pref;
        }
        if a.path_len != b.path_len {
            return a.path_len < b.path_len;
        }
        let ta = self.policy.tiebreak(at, a);
        let tb = self.policy.tiebreak(at, b);
        if ta != tb {
            return ta < tb;
        }
        // Total order fallback: neighbor index then ingress link.
        let na = a.from_neighbor.map(|n| n.0 + 1).unwrap_or(0);
        let nb = b.from_neighbor.map(|n| n.0 + 1).unwrap_or(0);
        if na != nb {
            return na < nb;
        }
        a.ingress < b.ingress
    }

    /// Run best-path selection at `at` over the direct injections and the
    /// AS's CSR slot range of the flat Adj-RIB-In. Candidate order is
    /// direct routes first, then present slots ascending — the same order
    /// the per-AS vectors yielded, so tiebreak outcomes are bit-identical.
    ///
    /// This full scan is the definition of the decision. The drain runs
    /// the equivalent [`BgpEngine::select`] over its cached best slot
    /// and checks it against this scan on every event in debug builds.
    /// The two agree because [`BgpEngine::better`] is a strict total
    /// order over routes from distinct neighbors (and over a direct
    /// route versus any RIB route), so the winner is the unique maximum
    /// whatever order the candidates are compared in.
    fn decide(
        &self,
        at: AsIndex,
        direct: &[Route],
        ribs: &RouteSoa,
        slots: Range<usize>,
    ) -> Option<Route> {
        let mut best: Option<Route> = None;
        for cand in direct
            .iter()
            .copied()
            .chain(ribs.present_in(slots).map(|s| ribs.route_at(s)))
        {
            best = match best {
                None => Some(cand),
                Some(cur) => {
                    if self.better(at, &cand, &cur) {
                        Some(cand)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        best
    }

    /// Slot of the best present route in `slots`, or [`SLOT_EMPTY`]: the
    /// rescan behind a stale cached best slot. Adds the present slots it
    /// reads to `scanned`.
    fn best_rib_slot(
        &self,
        at: AsIndex,
        ribs: &RouteSoa,
        slots: Range<usize>,
        scanned: &mut usize,
    ) -> u32 {
        let mut best: Option<(usize, Route)> = None;
        for s in ribs.present_in(slots) {
            *scanned += 1;
            let cand = ribs.route_at(s);
            let wins = match best {
                None => true,
                Some((_, cur)) => self.better(at, &cand, &cur),
            };
            if wins {
                best = Some((s, cand));
            }
        }
        best.map_or(SLOT_EMPTY, |(s, _)| s as u32)
    }

    /// Best-path selection at `at` from the direct injections and the
    /// best Adj-RIB-In route: the direct routes fold in candidate order
    /// exactly as in [`BgpEngine::decide`], then the RIB winner replaces
    /// the result only if strictly better.
    fn select(&self, at: AsIndex, direct: &[Route], rib_best: Option<Route>) -> Option<Route> {
        let mut best: Option<Route> = None;
        for cand in direct.iter().copied().chain(rib_best) {
            let wins = match best {
                None => true,
                Some(cur) => self.better(at, &cand, &cur),
            };
            if wins {
                best = Some(cand);
            }
        }
        best
    }

    /// Propagate a set of origin injections to fixpoint (cold start:
    /// empty RIBs everywhere).
    pub fn propagate(&self, injections: &[Injection], max_events_factor: usize) -> RoutingOutcome {
        self.propagate_detailed(injections, max_events_factor, SnapshotDetail::Catchments)
    }

    /// [`BgpEngine::propagate`] with an explicit snapshot detail.
    pub fn propagate_detailed(
        &self,
        injections: &[Injection],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> RoutingOutcome {
        let mut span = trackdown_obs::span("bgp.propagate");
        let mut sim = Simulation::new(self);
        sim.apply_injections(injections);
        sim.run(max_events_factor);
        trackdown_obs::counter!("bgp.propagations").inc();
        let outcome = sim.snapshot(detail);
        record_outcome_metrics(&outcome);
        span.set_attr("events", outcome.events as u64);
        span.set_attr("rounds", outcome.rounds as u64);
        span.set_attr("changes", outcome.changes.len() as u64);
        outcome
    }

    /// Deploy `next` *on top of* the converged state of `prev` — what a
    /// real configuration change does. The old announcements are replaced
    /// (withdrawn links produce withdrawal churn), and the returned
    /// outcome's `changes`/`rounds` describe only the transition, not the
    /// cold start. This is the event stream the paper's public dataset
    /// records across its 705 deployments ("thousands of route changes",
    /// §VI).
    pub fn transition(
        &self,
        prev: &[Injection],
        next: &[Injection],
        max_events_factor: usize,
    ) -> RoutingOutcome {
        self.transition_detailed(prev, next, max_events_factor, SnapshotDetail::Catchments)
    }

    /// [`BgpEngine::transition`] with an explicit snapshot detail.
    pub fn transition_detailed(
        &self,
        prev: &[Injection],
        next: &[Injection],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> RoutingOutcome {
        let mut sim = Simulation::new(self);
        sim.apply_injections(prev);
        sim.run(max_events_factor);
        sim.begin_epoch();
        sim.replace_injections(next);
        sim.run(max_events_factor);
        sim.snapshot(detail)
    }

    /// Convenience: transition between two origin configurations.
    pub fn transition_config(
        &self,
        origin: &OriginAs,
        prev: &[LinkAnnouncement],
        next: &[LinkAnnouncement],
        max_events_factor: usize,
    ) -> Result<RoutingOutcome, OriginError> {
        self.transition_config_detailed(
            origin,
            prev,
            next,
            max_events_factor,
            SnapshotDetail::Catchments,
        )
    }

    /// [`BgpEngine::transition_config`] with an explicit snapshot detail.
    pub fn transition_config_detailed(
        &self,
        origin: &OriginAs,
        prev: &[LinkAnnouncement],
        next: &[LinkAnnouncement],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        let prev_inj = origin.build_injections(self.topo, prev)?;
        let next_inj = origin.build_injections(self.topo, next)?;
        Ok(self.transition_detailed(&prev_inj, &next_inj, max_events_factor, detail))
    }

    /// Open a persistent [`CampaignSession`]: a warm routing state that
    /// deploys successive configurations as epoch transitions instead of
    /// cold-starting each one.
    pub fn session(&self) -> CampaignSession<'_, 't> {
        CampaignSession::new(self)
    }
}

/// CSR offsets of the flat Adj-RIB-In and its mirror-slot array (see
/// [`BgpEngine::rev_slot`]). O(V+E), once per engine.
fn rib_layout(topo: &Topology) -> (Vec<u32>, Vec<u32>) {
    let mut rib_offsets = Vec::with_capacity(topo.num_ases() + 1);
    let mut total = 0u32;
    rib_offsets.push(0);
    for i in topo.indices() {
        total += topo.degree(i) as u32;
        rib_offsets.push(total);
    }
    assert!(total < SLOT_STALE, "too many RIB slots for u32 slot ids");
    // Neighbor lists are sorted by index, so visiting `i` in ascending
    // order meets each `j`'s neighbors in list order: the slot for `i` in
    // `j`'s range is the next unclaimed one.
    let mut next: Vec<u32> = rib_offsets[..topo.num_ases()].to_vec();
    let mut rev_slot = vec![0u32; total as usize];
    for i in topo.indices() {
        let base = rib_offsets[i.us()] as usize;
        for (k, &(j, _)) in topo.neighbors(i).iter().enumerate() {
            let s = next[j.us()];
            let pos = (s - rib_offsets[j.us()]) as usize;
            assert!(
                topo.neighbors(j).get(pos).map(|&(n, _)| n) == Some(i),
                "adjacency must be symmetric with sorted neighbor lists"
            );
            rev_slot[base + k] = s;
            next[j.us()] += 1;
        }
    }
    (rib_offsets, rev_slot)
}

/// Feed one routing outcome's counters into the global metrics registry
/// (post-hoc reads only: instrumentation can never perturb the outcome).
fn record_outcome_metrics(outcome: &RoutingOutcome) {
    trackdown_obs::counter!("bgp.events").add(outcome.events as u64);
    trackdown_obs::counter!("bgp.changes").add(outcome.changes.len() as u64);
    let work = &outcome.work;
    trackdown_obs::counter!("bgp.decide.calls").add(work.decide_calls as u64);
    trackdown_obs::counter!("bgp.decide.rescans").add(work.decide_rescans as u64);
    trackdown_obs::counter!("bgp.decide.slots_scanned").add(work.slots_scanned as u64);
    trackdown_obs::counter!("bgp.export.offers").add(work.export_offers as u64);
    trackdown_obs::counter!("bgp.export.policy_drops").add(work.export_policy_drops as u64);
    trackdown_obs::counter!("bgp.arena.pushes").add(work.arena_pushes as u64);
    trackdown_obs::histogram!("bgp.rounds").observe(outcome.rounds as u64);
    if !outcome.converged {
        trackdown_obs::counter!("bgp.event_cap_hits").inc();
    }
}

/// A persistent deployment session over one engine: the first deployment
/// cold-starts, every later one is applied as an epoch transition on top
/// of the previous converged state — what a real origin does when it
/// reconfigures announcements on a live prefix.
///
/// Path-vector fixpoints under Gao-Rexford-compliant policies are unique
/// (the stable-paths problem is safe), so the warm state converges to
/// exactly the cold-start state of each configuration: `best` and
/// `candidates` (and hence catchments) are identical to
/// [`BgpEngine::propagate`] for the same injections. The per-epoch
/// `events`/`rounds`/`changes` describe only the transition — usually a
/// small fraction of a cold start, which is where the campaign speedup
/// comes from. If an epoch hits the event cap, the session falls back to
/// a cold restart of that configuration so the reported outcome is the
/// cold one, bit for bit.
///
/// With **policy violators** the stable state is *not* unique (BGP
/// wedgies): a transition can legitimately converge to a different stable
/// state than a cold start, and no check on the reached state can tell
/// them apart. To preserve the cold-oracle contract the session detects
/// this at creation ([`crate::policy::PolicyTable::num_violators`]` > 0`)
/// and transparently cold-starts every deployment instead of reusing the
/// epoch — correctness first, speed only where it is sound.
pub struct CampaignSession<'e, 't> {
    sim: Simulation<'e, 't>,
    deployed: bool,
    warm_reuse: bool,
    deployments: usize,
    cold_restarts: usize,
    last_deploy_warm: bool,
    peak_arena_nodes: usize,
    /// The injections of the most recent deployment, kept so a delta
    /// deployment can diff against them. Valid only while
    /// `have_last_injections` (resets invalidate without deallocating).
    last_injections: Vec<Injection>,
    have_last_injections: bool,
}

impl<'e, 't> CampaignSession<'e, 't> {
    /// Open a session with empty RIBs (nothing deployed yet).
    pub fn new(engine: &'e BgpEngine<'t>) -> CampaignSession<'e, 't> {
        CampaignSession {
            sim: Simulation::new(engine),
            deployed: false,
            warm_reuse: engine.policy.num_violators() == 0,
            deployments: 0,
            cold_restarts: 0,
            last_deploy_warm: false,
            peak_arena_nodes: 0,
            last_injections: Vec::new(),
            have_last_injections: false,
        }
    }

    /// Whether deployments actually reuse the previous epoch's state.
    /// `false` when the engine has policy violators: their non-unique
    /// stable states make transitions history-dependent, so the session
    /// cold-starts each deployment to stay bit-identical to the oracle.
    pub fn warm_reuse(&self) -> bool {
        self.warm_reuse
    }

    /// Deploy a set of injections, replacing whatever is currently
    /// announced, and run to fixpoint.
    pub fn deploy(&mut self, injections: &[Injection], max_events_factor: usize) -> RoutingOutcome {
        self.deploy_detailed(injections, max_events_factor, SnapshotDetail::Catchments)
    }

    /// [`CampaignSession::deploy`] with an explicit snapshot detail.
    pub fn deploy_detailed(
        &mut self,
        injections: &[Injection],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> RoutingOutcome {
        let mut span = trackdown_obs::span("bgp.deploy");
        self.deployments += 1;
        let mut warm = self.deployed && self.warm_reuse;
        if self.deployed && !self.warm_reuse {
            self.reset();
        }
        if warm {
            self.sim.converged = true;
            self.sim.begin_epoch();
            self.sim.replace_injections(injections);
        } else {
            self.sim.apply_injections(injections);
            self.deployed = true;
        }
        {
            let _drain = trackdown_obs::span("bgp.drain");
            self.sim.run(max_events_factor);
        }
        if warm && !self.sim.converged {
            // The transition hit the event cap. Redo this configuration
            // from empty RIBs so its outcome (including the converged
            // flag) is exactly what a cold start reports.
            self.cold_restarts += 1;
            trackdown_obs::counter!("bgp.session_cold_restarts").inc();
            warm = false;
            self.reset();
            self.sim.apply_injections(injections);
            self.deployed = true;
            self.sim.run(max_events_factor);
        }
        span.set_attr("warm", warm as u64);
        span.set_attr("events", self.sim.events as u64);
        self.finish_deploy(injections, warm, detail)
    }

    /// Common deployment epilogue: remember the deployed injections (the
    /// delta diff base), record session accounting, and snapshot.
    fn finish_deploy(
        &mut self,
        injections: &[Injection],
        warm: bool,
        detail: SnapshotDetail,
    ) -> RoutingOutcome {
        self.last_injections.clear();
        self.last_injections.extend_from_slice(injections);
        self.have_last_injections = true;
        self.last_deploy_warm = warm;
        self.peak_arena_nodes = self.peak_arena_nodes.max(self.sim.arena.num_nodes());
        trackdown_obs::counter!("bgp.deployments").inc();
        let outcome = self.sim.snapshot_cloned(detail);
        record_outcome_metrics(&outcome);
        outcome
    }

    /// Deploy a set of injections as a *delta* epoch: diff them against
    /// the previous deployment, seed only providers whose announcement
    /// changed, and propagate with rank-ordered scheduling
    /// ([`PropagationRanks`]). Falls back to exactly the cold path of
    /// [`CampaignSession::deploy`] on the first deployment, on
    /// violator-gated sessions, and on event-cap restarts — the reported
    /// outcome is always fixpoint-identical to a cold start.
    pub fn deploy_delta(
        &mut self,
        injections: &[Injection],
        max_events_factor: usize,
    ) -> RoutingOutcome {
        self.deploy_delta_detailed(injections, max_events_factor, SnapshotDetail::Catchments)
    }

    /// [`CampaignSession::deploy_delta`] with an explicit snapshot detail.
    pub fn deploy_delta_detailed(
        &mut self,
        injections: &[Injection],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> RoutingOutcome {
        let mut span = trackdown_obs::span("bgp.deploy");
        self.deployments += 1;
        // Delta reuse additionally requires the previous run to have
        // converged: a capped predecessor leaves stranded FIFO queue
        // entries whose `in_queue` marks the rank-bucket scheduler would
        // never clear, silently freezing those ASes for the epoch. (The
        // plain warm path is immune — it keeps draining the same FIFO.)
        let mut warm =
            self.deployed && self.warm_reuse && self.have_last_injections && self.sim.converged;
        if self.deployed && !warm {
            self.reset();
        }
        let mut seeds = 0;
        if warm {
            self.sim.ensure_ranks();
            self.sim.ranked = true;
            self.sim.begin_epoch();
            let prev = std::mem::take(&mut self.last_injections);
            {
                let mut seed_span = trackdown_obs::span("bgp.delta_seed");
                seeds = self.sim.replace_injections_delta(&prev, injections);
                seed_span.set_attr("seeds", seeds as u64);
            }
            self.last_injections = prev;
            {
                let _drain = trackdown_obs::span("bgp.drain");
                self.sim.run(max_events_factor);
            }
            self.sim.ranked = false;
        } else {
            self.sim.apply_injections(injections);
            self.deployed = true;
            let _drain = trackdown_obs::span("bgp.drain");
            self.sim.run(max_events_factor);
        }
        if warm && !self.sim.converged {
            // The delta transition hit the event cap: redo this
            // configuration from empty RIBs so its outcome (including
            // the converged flag) is exactly what a cold start reports.
            self.cold_restarts += 1;
            trackdown_obs::counter!("bgp.session_cold_restarts").inc();
            warm = false;
            self.reset();
            self.sim.apply_injections(injections);
            self.deployed = true;
            self.sim.run(max_events_factor);
        }
        if warm {
            // Recorded only for delta runs that were kept: a discarded
            // (cold-restarted) frontier must not skew the soundness
            // evidence these counters feed.
            trackdown_obs::counter!("bgp.delta.seeds").add(seeds as u64);
            trackdown_obs::counter!("bgp.delta.visited").add(self.sim.events as u64);
            trackdown_obs::counter!("bgp.delta.disturbed").add(self.sim.routes_disturbed() as u64);
        }
        span.set_attr("warm", warm as u64);
        span.set_attr("seeds", seeds as u64);
        span.set_attr("events", self.sim.events as u64);
        self.finish_deploy(injections, warm, detail)
    }

    /// Validate a configuration against the origin, build injections, and
    /// [`CampaignSession::deploy_delta`] them.
    pub fn deploy_config_delta(
        &mut self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
    ) -> Result<RoutingOutcome, OriginError> {
        self.deploy_config_delta_detailed(
            origin,
            announcements,
            max_events_factor,
            SnapshotDetail::Catchments,
        )
    }

    /// [`CampaignSession::deploy_config_delta`] with an explicit snapshot
    /// detail.
    pub fn deploy_config_delta_detailed(
        &mut self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        let inj = origin.build_injections(self.sim.engine.topo, announcements)?;
        Ok(self.deploy_delta_detailed(&inj, max_events_factor, detail))
    }

    /// Validate a configuration against the origin, build injections, and
    /// [`CampaignSession::deploy`] them.
    pub fn deploy_config(
        &mut self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
    ) -> Result<RoutingOutcome, OriginError> {
        self.deploy_config_detailed(
            origin,
            announcements,
            max_events_factor,
            SnapshotDetail::Catchments,
        )
    }

    /// [`CampaignSession::deploy_config`] with an explicit snapshot detail.
    pub fn deploy_config_detailed(
        &mut self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        let inj = origin.build_injections(self.sim.engine.topo, announcements)?;
        Ok(self.deploy_detailed(&inj, max_events_factor, detail))
    }

    /// Drop all routing state: the next deployment cold-starts.
    ///
    /// The reset is in place: RIB vectors, the activation queue, and the
    /// path arena keep their allocated capacity, so a violator-gated
    /// session (which cold-starts every deployment through here) performs
    /// no heap allocation in the decide/export loop after its first
    /// deployment reaches the arena's high-water mark. This is also the
    /// *only* point where the arena is truncated — outstanding
    /// [`crate::PathId`]s live in the RIBs being dropped alongside, never
    /// across a truncation.
    pub fn reset(&mut self) {
        self.sim.clear();
        self.deployed = false;
        self.have_last_injections = false;
    }

    /// High-water mark of interned path nodes across all deployments.
    pub fn peak_arena_nodes(&self) -> usize {
        self.peak_arena_nodes
    }

    /// Snapshot of the session's interned path tree. Shard executors take
    /// one per worker at campaign end and fold them through
    /// [`PathArena::absorb_store`] into a single canonical arena, which
    /// bounds the merged footprint by the union path tree rather than the
    /// per-worker sum.
    pub fn path_store(&self) -> PathStore {
        self.sim.arena.store()
    }

    /// Absorb the ancestor chains of `roots` — [`crate::PathId`]s valid
    /// for the *current* session arena, e.g. read off the latest epoch
    /// outcome's best routes — into `merged` through its canonical
    /// interning map (see [`PathArena::absorb_rooted`]).
    ///
    /// Sharded campaign executors call this right after each deployment,
    /// **before** any later event-cap cold restart can truncate the
    /// session arena and dangle the ids. The merged arena then bounds
    /// memory by the union tree of routes that were ever *selected*
    /// rather than every candidate the campaign interned.
    pub fn absorb_paths_rooted(&self, merged: &mut PathArena, roots: &[PathId]) {
        merged.absorb_rooted(&self.sim.arena, roots);
    }

    /// Incremental form of [`CampaignSession::absorb_paths_rooted`] for
    /// per-epoch absorption: `remap` carries the session-arena → merged
    /// id table across calls so each epoch pays only for chains not yet
    /// interned. The caller must `remap.clear()` whenever
    /// [`CampaignSession::cold_restarts`] has advanced since the last
    /// call — [`CampaignSession::reset`] is the only arena truncation
    /// point, so that counter is exactly the cache invalidation signal.
    pub fn absorb_paths_rooted_cached(
        &self,
        merged: &mut PathArena,
        roots: &[PathId],
        remap: &mut Vec<PathId>,
    ) {
        merged.absorb_rooted_cached(&self.sim.arena, roots, remap);
    }

    /// Configurations deployed through this session.
    pub fn deployments(&self) -> usize {
        self.deployments
    }

    /// Warm epochs that hit the event cap and were redone cold.
    pub fn cold_restarts(&self) -> usize {
        self.cold_restarts
    }

    /// Whether the most recent [`CampaignSession::deploy`] actually
    /// reused the previous epoch's state (`false` for the first
    /// deployment, violator-gated sessions, and event-cap cold
    /// restarts) — the per-epoch `warm`/`cold` label run manifests use.
    pub fn last_deploy_warm(&self) -> bool {
        self.last_deploy_warm
    }
}

/// Structure-of-arrays route table: one parallel column per [`Route`]
/// attribute plus a u64 presence bitset over slot indices.
///
/// Both the flat CSR Adj-RIB-In and the per-AS best table (slot = AS
/// index) use this layout. In the RIB, AS `j`'s slot `rib_offsets[j] + k`
/// holds the route from `j`'s `k`-th neighbor (sorted neighbor order);
/// the exporter `i` finds that slot through the engine's mirror array,
/// `rev_slot[rib_offsets[i] + pos of j in i's list]`. The layout means
/// selection and the drain loop stream contiguous memory instead of
/// chasing per-AS heap vectors, absent slots are skipped a word at a
/// time without loading any route bytes, and an epoch clear is an
/// O(slots/64) zero of the presence words rather than an O(slots)
/// `Option` fill.
struct RouteSoa {
    path_id: Vec<PathId>,
    path_len: Vec<u32>,
    ingress: Vec<LinkId>,
    /// Announcing neighbor index + 1; 0 = learned directly from the
    /// origin (the `Option<AsIndex>` niche, flattened into the column).
    from_neighbor: Vec<u32>,
    local_pref: Vec<u32>,
    learned_from: Vec<NeighborKind>,
    communities: Vec<CommunityBits>,
    /// Bit `s` set ⟺ slot `s` holds a route; column contents of absent
    /// slots are stale filler and never read.
    present: Vec<u64>,
}

impl RouteSoa {
    fn new(slots: usize) -> RouteSoa {
        RouteSoa {
            path_id: vec![PathId::EMPTY; slots],
            path_len: vec![0; slots],
            ingress: vec![LinkId(0); slots],
            from_neighbor: vec![0; slots],
            local_pref: vec![0; slots],
            learned_from: vec![NeighborKind::Customer; slots],
            communities: vec![CommunityBits::EMPTY; slots],
            present: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn is_present(&self, s: usize) -> bool {
        self.present[s / 64] & (1 << (s % 64)) != 0
    }

    /// Gather slot `s`'s columns into a [`Route`]. Caller must have
    /// checked presence.
    #[inline]
    fn route_at(&self, s: usize) -> Route {
        Route {
            path_id: self.path_id[s],
            path_len: self.path_len[s],
            ingress: self.ingress[s],
            from_neighbor: match self.from_neighbor[s] {
                0 => None,
                v => Some(AsIndex(v - 1)),
            },
            local_pref: self.local_pref[s],
            learned_from: self.learned_from[s],
            communities: self.communities[s],
        }
    }

    #[inline]
    fn get(&self, s: usize) -> Option<Route> {
        self.is_present(s).then(|| self.route_at(s))
    }

    #[inline]
    fn set(&mut self, s: usize, r: Option<Route>) {
        match r {
            Some(r) => {
                self.present[s / 64] |= 1 << (s % 64);
                self.path_id[s] = r.path_id;
                self.path_len[s] = r.path_len;
                self.ingress[s] = r.ingress;
                self.from_neighbor[s] = r.from_neighbor.map(|n| n.0 + 1).unwrap_or(0);
                self.local_pref[s] = r.local_pref;
                self.learned_from[s] = r.learned_from;
                self.communities[s] = r.communities;
            }
            None => self.present[s / 64] &= !(1 << (s % 64)),
        }
    }

    /// Column-wise equality of slot `s` against an optional route,
    /// without gathering a `Route` value.
    #[inline]
    fn matches(&self, s: usize, r: &Option<Route>) -> bool {
        match r {
            None => !self.is_present(s),
            Some(r) => {
                self.is_present(s)
                    && self.path_id[s] == r.path_id
                    && self.path_len[s] == r.path_len
                    && self.ingress[s] == r.ingress
                    && self.from_neighbor[s] == r.from_neighbor.map(|n| n.0 + 1).unwrap_or(0)
                    && self.local_pref[s] == r.local_pref
                    && self.learned_from[s] == r.learned_from
                    && self.communities[s] == r.communities
            }
        }
    }

    /// Present slot indices within `slots`, ascending; all-absent words
    /// are skipped with one load each.
    fn present_in(&self, slots: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let Range { start, end } = slots;
        let wstart = start / 64;
        let wend = end.div_ceil(64);
        self.present[wstart..wend]
            .iter()
            .enumerate()
            .flat_map(move |(k, &word)| {
                let w = wstart + k;
                let mut bits = word;
                if w * 64 < start {
                    bits &= !0u64 << (start - w * 64);
                }
                if (w + 1) * 64 > end {
                    let keep = end - w * 64;
                    bits &= if keep == 64 { !0 } else { (1u64 << keep) - 1 };
                }
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + t)
                })
            })
    }

    /// Drop every route: zero the presence words, leaving column filler
    /// in place. O(slots/64).
    fn clear(&mut self) {
        self.present.fill(0);
    }

    /// Materialize the whole table as the dense `Option` form (snapshot
    /// boundary — [`RoutingOutcome::best`] keeps its public shape).
    fn to_options(&self) -> Vec<Option<Route>> {
        (0..self.path_id.len()).map(|s| self.get(s)).collect()
    }
}

/// Mutable propagation state: per-AS direct routes, Adj-RIB-Ins, best
/// routes, and the activation queue. One [`Simulation`] can run several
/// epochs (configuration deployments) back to back, which is how
/// [`BgpEngine::transition`] models warm-start configuration changes.
struct Simulation<'e, 't> {
    engine: &'e BgpEngine<'t>,
    /// Interned AS-paths for every route alive in this state. Append-only
    /// between [`Simulation::clear`]s: truncating while `direct`/`ribs`/
    /// `best` hold [`crate::PathId`]s would dangle them, so warm epochs
    /// never truncate — canonical interning makes re-offered paths
    /// converge to a high-water set instead of growing without bound.
    arena: PathArena,
    direct: Vec<Vec<Route>>,
    /// Flat structure-of-arrays Adj-RIB-In over the engine's CSR slots.
    ribs: RouteSoa,
    /// Cached best Adj-RIB-In slot per AS: the slot of the best present
    /// route in its range, [`SLOT_EMPTY`] when none is present, or
    /// [`SLOT_STALE`] when unknown. Every slot write keeps it exact or
    /// marks it stale ([`Simulation::track_best_slot`]), so a selection
    /// reads one slot unless the slot that held the best got worse.
    best_slot: Vec<u32>,
    /// Best routes as SoA columns over AS index.
    best: RouteSoa,
    queue: VecDeque<AsIndex>,
    in_queue: Vec<bool>,
    /// Rank-ordered activation queue used instead of `queue` while
    /// `ranked` is set (delta epochs): one bucket per customer-cone rank,
    /// drained highest-rank-first, so announcement waves climb provider
    /// chains to the core and then descend with every provider settled
    /// before the customers that prefer its routes — see
    /// [`PropagationRanks`]. Push and pop are O(1): ranks are bounded by
    /// the provider-chain depth, so a binary heap's sift costs (and their
    /// cache misses) buy nothing here.
    buckets: Vec<VecDeque<u32>>,
    /// Highest possibly-non-empty bucket; raised on push, walked down on
    /// pop. Amortized O(1): each pop lowers it at most as far as pushes
    /// raised it.
    bucket_hi: usize,
    /// ASes currently queued across all buckets.
    bucket_len: usize,
    /// Customer-cone ranks, computed lazily on the first delta epoch
    /// (empty until then; the topology is immutable per engine).
    ranks: Vec<u32>,
    /// Whether `enqueue`/`pop_next` currently use the rank buckets.
    ranked: bool,
    depth: Vec<u32>,
    pending_depth: Vec<u32>,
    max_depth: u32,
    changes: Vec<RouteChange>,
    events: usize,
    converged: bool,
    /// `touched[i] == epoch_stamp` ⟺ AS `i`'s best route changed at least
    /// once this epoch (its pre-epoch route is logged in `pre_epoch`).
    touched: Vec<u32>,
    epoch_stamp: u32,
    /// First-touch log: each AS whose best changed this epoch, paired
    /// with the route it held when the epoch began. Net disturbance is
    /// the subset whose final best differs from that pre-epoch route.
    pre_epoch: Vec<(AsIndex, Option<Route>)>,
    /// Work counters of the current epoch's drain.
    work: DrainWork,
}

impl<'e, 't> Simulation<'e, 't> {
    fn new(engine: &'e BgpEngine<'t>) -> Simulation<'e, 't> {
        let n = engine.topo.num_ases();
        Simulation {
            engine,
            arena: PathArena::new(),
            direct: vec![Vec::new(); n],
            ribs: RouteSoa::new(engine.rev_slot.len()),
            best_slot: vec![SLOT_EMPTY; n],
            best: RouteSoa::new(n),
            queue: VecDeque::new(),
            in_queue: vec![false; n],
            buckets: Vec::new(),
            bucket_hi: 0,
            bucket_len: 0,
            ranks: Vec::new(),
            ranked: false,
            depth: vec![0; n],
            pending_depth: vec![0; n],
            max_depth: 0,
            changes: Vec::new(),
            events: 0,
            converged: true,
            touched: vec![0; n],
            epoch_stamp: 1,
            pre_epoch: Vec::new(),
            work: DrainWork::default(),
        }
    }

    /// Reset to the just-constructed state *in place*, retaining every
    /// allocation (RIB vectors, queue, change log, and the path arena's
    /// node table and interning map). Identical operation sequences after
    /// a clear intern identical [`crate::PathId`]s, so a cleared
    /// simulation is bit-equivalent to a fresh one.
    fn clear(&mut self) {
        self.arena.clear();
        for d in &mut self.direct {
            d.clear();
        }
        self.ribs.clear();
        self.best_slot.fill(SLOT_EMPTY);
        self.best.clear();
        self.queue.clear();
        self.in_queue.fill(false);
        for b in &mut self.buckets {
            b.clear();
        }
        self.bucket_hi = 0;
        self.bucket_len = 0;
        self.ranked = false;
        self.depth.fill(0);
        self.pending_depth.fill(0);
        self.max_depth = 0;
        self.changes.clear();
        self.events = 0;
        self.work = DrainWork::default();
        self.converged = true;
        self.bump_epoch_stamp();
    }

    /// Open a fresh disturbance-tracking window: the next first change of
    /// any AS logs its current route as the pre-epoch state.
    fn bump_epoch_stamp(&mut self) {
        self.epoch_stamp = self.epoch_stamp.wrapping_add(1);
        if self.epoch_stamp == 0 {
            // Stamp wrap: invalidate every stale mark the slow way.
            self.touched.fill(0);
            self.epoch_stamp = 1;
        }
        self.pre_epoch.clear();
    }

    fn enqueue(&mut self, i: AsIndex) {
        if !self.in_queue[i.us()] {
            self.in_queue[i.us()] = true;
            if self.ranked {
                let r = self.ranks[i.us()] as usize;
                self.buckets[r].push_back(i.0);
                self.bucket_hi = self.bucket_hi.max(r);
                self.bucket_len += 1;
            } else {
                self.queue.push_back(i);
            }
        }
    }

    fn pop_next(&mut self) -> Option<AsIndex> {
        if self.ranked {
            if self.bucket_len == 0 {
                return None;
            }
            loop {
                if let Some(i) = self.buckets[self.bucket_hi].pop_front() {
                    self.bucket_len -= 1;
                    return Some(AsIndex(i));
                }
                self.bucket_hi -= 1;
            }
        } else {
            self.queue.pop_front()
        }
    }

    /// Compute [`PropagationRanks`] on first use (delta epochs only; FIFO
    /// epochs never read them).
    fn ensure_ranks(&mut self) {
        if self.ranks.is_empty() && self.engine.topo.num_ases() > 0 {
            let ranks = PropagationRanks::compute(self.engine.topo);
            self.buckets = vec![VecDeque::new(); ranks.max_rank() as usize + 2];
            self.ranks = ranks.into_vec();
        }
    }

    /// Inject one origin announcement at its PoP's provider. The provider
    /// treats the origin as a customer.
    fn apply_injection(&mut self, inj: &Injection) {
        let engine = self.engine;
        if !engine
            .policy
            .accepts(engine.topo, inj.provider, None, &inj.path)
        {
            return; // provider itself poisoned, or tier-1 filter
        }
        let lp = engine
            .policy
            .local_pref(inj.provider, None, NeighborKind::Customer);
        let path_id = self.arena.intern_path(&inj.path);
        self.direct[inj.provider.us()].push(Route {
            path_id,
            path_len: inj.path.len() as u32,
            ingress: inj.link,
            from_neighbor: None,
            local_pref: lp,
            learned_from: NeighborKind::Customer,
            communities: CommunityBits::from_set(&inj.communities),
        });
        self.enqueue(inj.provider);
    }

    /// Inject origin announcements at each PoP's provider.
    fn apply_injections(&mut self, injections: &[Injection]) {
        for inj in injections {
            self.apply_injection(inj);
        }
    }

    /// Start a fresh measurement epoch: reset round accounting and the
    /// change log, keeping the converged routing state.
    fn begin_epoch(&mut self) {
        self.depth.fill(0);
        self.pending_depth.fill(0);
        self.max_depth = 0;
        self.changes.clear();
        self.events = 0;
        self.work = DrainWork::default();
        self.bump_epoch_stamp();
    }

    /// Replace the origin's announcements: withdraw every current direct
    /// route, then inject the new set. Providers losing or gaining a
    /// direct route are activated and the withdrawal/announcement churn
    /// propagates on the next [`Simulation::run`].
    fn replace_injections(&mut self, injections: &[Injection]) {
        for i in 0..self.direct.len() {
            if !self.direct[i].is_empty() {
                self.direct[i].clear();
                self.enqueue(AsIndex(i as u32));
            }
        }
        self.apply_injections(injections);
    }

    /// Delta-epoch variant of [`Simulation::replace_injections`]: diff
    /// the incoming injections against the previous epoch's and touch
    /// only providers whose announcement changed — unchanged providers
    /// keep their direct routes and are never activated, so a no-op
    /// redeploy seeds nothing at all. Returns the number of seeded
    /// providers.
    fn replace_injections_delta(&mut self, prev: &[Injection], next: &[Injection]) -> usize {
        let changed = diff_injections(prev, next);
        for &p in &changed {
            self.direct[p.us()].clear();
            self.enqueue(p);
        }
        for inj in next {
            // `changed` is sorted and deduplicated by provider index.
            if changed
                .binary_search_by_key(&inj.provider.0, |p| p.0)
                .is_ok()
            {
                self.apply_injection(inj);
            }
        }
        changed.len()
    }

    /// Best-path selection at `i` for one event: direct routes against
    /// the cached best RIB slot, rescanning the AS's range only when the
    /// cache is stale. Debug builds check the result against the full
    /// [`BgpEngine::decide`] scan.
    fn select_at(&mut self, i: AsIndex) -> Option<Route> {
        let engine = self.engine;
        self.work.decide_calls += 1;
        if self.best_slot[i.us()] == SLOT_STALE {
            self.work.decide_rescans += 1;
            self.best_slot[i.us()] = engine.best_rib_slot(
                i,
                &self.ribs,
                engine.rib_slots(i),
                &mut self.work.slots_scanned,
            );
        }
        let rib_best = match self.best_slot[i.us()] {
            SLOT_EMPTY => None,
            s => Some(self.ribs.route_at(s as usize)),
        };
        let best = engine.select(i, &self.direct[i.us()], rib_best);
        debug_assert_eq!(
            best,
            engine.decide(i, &self.direct[i.us()], &self.ribs, engine.rib_slots(i)),
            "cached-slot selection diverged from the full scan at {i:?}"
        );
        best
    }

    /// Keep `best_slot[j]` exact across a write of `offer` into `j`'s RIB
    /// slot `slot`. Call it before the write: it compares against the
    /// slot's old route.
    ///
    /// - A strictly better offer becomes the new best.
    /// - Worsening or withdrawing the best slot marks the cache stale, and
    ///   the next selection at `j` rescans.
    /// - Any other write keeps it: rewriting the best slot with a route
    ///   no worse, or withdrawing or writing a route no better than the
    ///   best into another slot. [`BgpEngine::better`] strictly orders
    ///   routes from distinct neighbors, so none can change the maximum.
    fn track_best_slot(&mut self, j: AsIndex, slot: usize, offer: Option<&Route>) {
        let cached = self.best_slot[j.us()];
        if cached == SLOT_STALE {
            return;
        }
        let engine = self.engine;
        self.best_slot[j.us()] = match offer {
            None if cached as usize == slot => SLOT_STALE,
            None => cached,
            Some(_) if cached == SLOT_EMPTY => slot as u32,
            Some(o) if cached as usize == slot => {
                if engine.better(j, &self.ribs.route_at(slot), o) {
                    SLOT_STALE
                } else {
                    cached
                }
            }
            Some(o) => {
                if engine.better(j, o, &self.ribs.route_at(cached as usize)) {
                    slot as u32
                } else {
                    cached
                }
            }
        };
    }

    /// Process the activation queue to quiescence (or the event cap).
    fn run(&mut self, max_events_factor: usize) {
        let engine = self.engine;
        let n = engine.topo.num_ases();
        let cap = max_events_factor.saturating_mul(n.max(1));
        while let Some(i) = self.pop_next() {
            self.in_queue[i.us()] = false;
            self.events += 1;
            if self.events > cap {
                self.converged = false;
                break;
            }
            let new_best = self.select_at(i);
            if self.best.matches(i.us(), &new_best) {
                continue;
            }
            if self.touched[i.us()] != self.epoch_stamp {
                self.touched[i.us()] = self.epoch_stamp;
                self.pre_epoch.push((i, self.best.get(i.us())));
            }
            self.best.set(i.us(), new_best);
            self.depth[i.us()] = self.pending_depth[i.us()];
            self.max_depth = self.max_depth.max(self.depth[i.us()]);
            self.changes.push(RouteChange {
                round: self.depth[i.us()],
                at: i,
                ingress: new_best.map(|r| r.ingress),
                path_len: new_best.map(|r| r.path_len()).unwrap_or(0),
            });
            let own_asn = engine.topo.asn_of(i);
            // Provider-side prepending community: the provider prepends
            // its own ASN extra times on export of a direct route.
            let extra = match new_best {
                Some(r) if r.from_neighbor.is_none() => r.communities.provider_prepends(),
                _ => 0,
            };
            // The exported path is the same for every neighbor: intern it
            // at the first accepted offer and reuse the id for the rest
            // (re-interning would return the same id and push nothing).
            let mut exported_path: Option<PathId> = None;
            let mirror = &engine.rev_slot[engine.rib_slots(i)];
            // Export (or withdraw) toward every neighbor.
            for (&(j, j_kind_from_i), &slot) in engine.topo.neighbors(i).iter().zip(mirror) {
                // `j_kind_from_i`: how j looks from i (is j my customer?).
                let offer = match new_best {
                    Some(r)
                        if engine.policy.may_export_route(
                            i,
                            r.learned_from,
                            j_kind_from_i,
                            r.communities,
                        )
                            // Origin action communities: the PoP provider
                            // (holder of the direct route) honors export
                            // scoping toward peers/providers.
                            && (r.from_neighbor.is_some()
                                || r.communities.allows_export_to(j_kind_from_i))
                            && r.from_neighbor != Some(j) =>
                    {
                        // First-hop action communities are stripped; an
                        // only-to-customers deployer marks (and everyone
                        // propagates) the OTC attribute. EMPTY whenever no
                        // extension is deployed.
                        let exported_comms = engine.policy.export_communities(i, &r, j_kind_from_i);
                        // Evaluate acceptance on the *virtual* offered path
                        // (prepends chained onto the arena walk) before
                        // interning, so rejected offers push no nodes. A
                        // route dropped here leaves the offer `None`, so
                        // the delta relevance check below can never treat
                        // it as a viable activation.
                        self.work.export_offers += 1;
                        let accepted = engine.policy.accepts_offer_iter(
                            engine.topo,
                            j,
                            Some(i),
                            exported_comms,
                            std::iter::repeat_n(own_asn, 1 + extra)
                                .chain(self.arena.iter(r.path_id)),
                        );
                        if accepted {
                            let path_id = match exported_path {
                                Some(p) => p,
                                None => {
                                    self.work.arena_pushes += 1 + extra;
                                    let p = self.arena.push_times(r.path_id, own_asn, 1 + extra);
                                    exported_path = Some(p);
                                    p
                                }
                            };
                            let i_kind_from_j = j_kind_from_i.reverse();
                            Some(Route {
                                path_id,
                                path_len: r.path_len + 1 + extra as u32,
                                ingress: r.ingress,
                                from_neighbor: Some(i),
                                local_pref: engine.policy.local_pref(j, Some(i), i_kind_from_j),
                                learned_from: i_kind_from_j,
                                communities: exported_comms,
                            })
                        } else {
                            self.work.export_policy_drops += 1;
                            None
                        }
                    }
                    _ => None,
                };
                let slot = slot as usize;
                if !self.ribs.matches(slot, &offer) {
                    // Delta epochs terminate at ASes whose best route is
                    // provably unchanged: if the rewritten slot is not the
                    // source of j's current best and the new offer is not
                    // strictly better than that best, j's decision cannot
                    // move ([`BgpEngine::better`] is a strict total order
                    // across routes from distinct neighbors, so ties are
                    // impossible here). The slot still updates, so a later
                    // selection at j sees the new candidate. An unqueued
                    // AS always has a settled best (updates that bypass the
                    // queue are exactly the ones that cannot change it), so
                    // comparing against `best[j]` is sound.
                    let relevant = !self.ranked
                        || self.in_queue[j.us()]
                        || match self.best.get(j.us()) {
                            Some(b) => {
                                b.from_neighbor == Some(i)
                                    || offer.as_ref().is_some_and(|o| engine.better(j, o, &b))
                            }
                            None => true,
                        };
                    self.track_best_slot(j, slot, offer.as_ref());
                    self.ribs.set(slot, offer);
                    if relevant {
                        self.pending_depth[j.us()] =
                            self.pending_depth[j.us()].max(self.depth[i.us()] + 1);
                        self.enqueue(j);
                    }
                }
            }
        }
    }

    /// Candidate RIB copy for a [`SnapshotDetail::Full`] snapshot.
    fn capture_candidates(&self) -> Vec<Vec<Route>> {
        (0..self.direct.len())
            .map(|i| {
                let slots = self.engine.rib_slots(AsIndex(i as u32));
                self.direct[i]
                    .iter()
                    .copied()
                    .chain(self.ribs.present_in(slots).map(|s| self.ribs.route_at(s)))
                    .collect()
            })
            .collect()
    }

    /// Net disturbance of the current epoch: ASes whose best route
    /// differs from the route they held when the epoch began (transient
    /// flips that settled back are excluded). Route equality compares
    /// `path_id`s, which is sound within one simulation lifetime — the
    /// arena is canonical and only truncated by [`Simulation::clear`],
    /// which also opens a fresh tracking window.
    fn routes_disturbed(&self) -> usize {
        self.pre_epoch
            .iter()
            .filter(|(i, pre)| self.best.get(i.us()) != *pre)
            .count()
    }

    /// Snapshot the converged state into a [`RoutingOutcome`].
    fn snapshot(self, detail: SnapshotDetail) -> RoutingOutcome {
        let routes_disturbed = self.routes_disturbed();
        let (candidates, paths) = match detail {
            SnapshotDetail::Catchments => (None, PathStore::default()),
            SnapshotDetail::Full => (Some(self.capture_candidates()), self.arena.store()),
        };
        RoutingOutcome {
            best: self.best.to_options(),
            candidates,
            paths,
            events: self.events,
            rounds: self.max_depth,
            changes: self.changes,
            converged: self.converged,
            routes_disturbed,
            work: self.work,
        }
    }

    /// Non-consuming snapshot: the simulation stays alive for further
    /// epochs (the [`CampaignSession`] path). At the default
    /// [`SnapshotDetail::Catchments`] this copies only the `best` vector
    /// and the epoch's change log.
    fn snapshot_cloned(&self, detail: SnapshotDetail) -> RoutingOutcome {
        let (candidates, paths) = match detail {
            SnapshotDetail::Catchments => (None, PathStore::default()),
            SnapshotDetail::Full => (Some(self.capture_candidates()), self.arena.store()),
        };
        RoutingOutcome {
            best: self.best.to_options(),
            candidates,
            paths,
            events: self.events,
            rounds: self.max_depth,
            changes: self.changes.clone(),
            converged: self.converged,
            routes_disturbed: self.routes_disturbed(),
            work: self.work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::CommunitySet;
    use crate::origin::OriginAs;
    use trackdown_topology::{topology_from_links, Asn, LinkKind};

    /// Arena-independent identity of a route: everything that defines it,
    /// with the interned path materialized. Route ids are only canonical
    /// within one arena, so cross-simulation comparisons go through this.
    type RouteKey = (
        AsPath,
        LinkId,
        Option<AsIndex>,
        u32,
        NeighborKind,
        crate::community::CommunityBits,
    );

    fn route_key(out: &RoutingOutcome, r: &Route) -> RouteKey {
        (
            out.path_of(r),
            r.ingress,
            r.from_neighbor,
            r.local_pref,
            r.learned_from,
            r.communities,
        )
    }

    /// Materialized best routes (requires a Full-detail outcome).
    fn best_keys(out: &RoutingOutcome) -> Vec<Option<RouteKey>> {
        out.best
            .iter()
            .map(|b| b.as_ref().map(|r| route_key(out, r)))
            .collect()
    }

    /// Materialized candidate RIBs (requires a Full-detail outcome).
    fn candidate_keys(out: &RoutingOutcome) -> Vec<Vec<RouteKey>> {
        out.candidates()
            .iter()
            .map(|cands| cands.iter().map(|r| route_key(out, r)).collect())
            .collect()
    }

    /// Textbook policies, no noise.
    fn clean_config() -> EngineConfig {
        EngineConfig {
            policy: PolicyConfig {
                seed: 7,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            max_events_factor: 200,
        }
    }

    /// Figure-2-like topology:
    ///
    /// ```text
    ///        t1 ──── t2        (tier-1 peers)
    ///       /  \    /  \
    ///      x    n──u    y      (transits; n-u is a peering link)
    ///                          x, n, y are origin providers
    ///      u also serves stubs a, b
    /// ```
    fn fig2_topology() -> trackdown_topology::Topology {
        topology_from_links([
            (Asn(1), Asn(2), LinkKind::PeerPeer),           // t1-t2
            (Asn(1), Asn(10), LinkKind::ProviderCustomer),  // t1 -> x
            (Asn(1), Asn(11), LinkKind::ProviderCustomer),  // t1 -> n
            (Asn(2), Asn(12), LinkKind::ProviderCustomer),  // t2 -> u
            (Asn(2), Asn(13), LinkKind::ProviderCustomer),  // t2 -> y
            (Asn(11), Asn(12), LinkKind::PeerPeer),         // n-u peering
            (Asn(12), Asn(20), LinkKind::ProviderCustomer), // u -> a
            (Asn(12), Asn(21), LinkKind::ProviderCustomer), // u -> b
        ])
        .unwrap()
    }

    fn origin_xny() -> OriginAs {
        OriginAs::new(
            Asn(47065),
            vec![
                ("X".into(), Asn(10)),
                ("N".into(), Asn(11)),
                ("Y".into(), Asn(13)),
            ],
        )
    }

    fn all_plain(o: &OriginAs) -> Vec<LinkAnnouncement> {
        o.link_ids().map(LinkAnnouncement::plain).collect()
    }

    #[test]
    fn mirror_slots_are_an_involution_pointing_at_the_sender() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        for topo in [
            fig2_topology(),
            generate(&TopologyConfig::medium(4)).topology,
        ] {
            let engine = BgpEngine::new(&topo, &clean_config());
            assert_eq!(
                engine.rev_slot.len(),
                *engine.rib_offsets.last().unwrap() as usize
            );
            for i in topo.indices() {
                let slots = engine.rib_slots(i);
                for (k, &(j, _)) in topo.neighbors(i).iter().enumerate() {
                    let s = slots.start + k;
                    let m = engine.rev_slot[s] as usize;
                    // The mirror lies in j's range, at the entry for i...
                    assert!(engine.rib_slots(j).contains(&m));
                    let pos = m - engine.rib_slots(j).start;
                    assert_eq!(topo.neighbors(j)[pos].0, i);
                    // ...and mirrors straight back.
                    assert_eq!(engine.rev_slot[m] as usize, s);
                }
            }
        }
    }

    #[test]
    fn drain_work_counts_one_intern_per_exporting_event() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        let w = out.work;
        assert_eq!(w.decide_calls, out.events);
        assert!(w.decide_rescans <= w.decide_calls);
        assert!(w.export_policy_drops <= w.export_offers);
        // Without provider prepends every interned path is one hop, and
        // one change exports one path however many neighbors accept it.
        assert!(w.arena_pushes > 0 && w.arena_pushes <= out.changes.len());
        assert!(w.arena_pushes < w.export_offers - w.export_policy_drops);
    }

    #[test]
    fn anycast_reaches_everyone() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        assert!(out.converged);
        assert_eq!(out.reachable_count(), topo.num_ases());
    }

    #[test]
    fn customers_of_u_route_through_peering_link_n() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        // u prefers the peer route via n (LocalPref peer > provider via t2),
        // so u and its customers a, b land in N's catchment (link 1).
        for asn in [12u32, 20, 21] {
            let i = topo.index_of(Asn(asn)).unwrap();
            assert_eq!(
                out.catchment(i),
                Some(LinkId(1)),
                "AS{asn} should use the n-u peering link"
            );
        }
    }

    #[test]
    fn withdrawing_a_link_moves_its_catchment() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        // Announce only via X and Y (withdraw N, link 1).
        let anns = vec![
            LinkAnnouncement::plain(LinkId(0)),
            LinkAnnouncement::plain(LinkId(2)),
        ];
        let out = engine.propagate_config(&o, &anns, 200).unwrap();
        assert_eq!(out.reachable_count(), topo.num_ases());
        for i in topo.indices() {
            assert_ne!(out.catchment(i), Some(LinkId(1)), "link 1 was withdrawn");
        }
        // u now reaches the origin through its provider t2 toward y.
        let iu = topo.index_of(Asn(12)).unwrap();
        assert_eq!(out.catchment(iu), Some(LinkId(2)));
    }

    #[test]
    fn poisoning_u_forces_u_off_the_n_link() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        // Poison u on the announcement through n (Figure 2 of the paper).
        let anns = vec![
            LinkAnnouncement::plain(LinkId(0)),
            LinkAnnouncement::poisoned(LinkId(1), vec![Asn(12)]),
            LinkAnnouncement::plain(LinkId(2)),
        ];
        let out = engine.propagate_config(&o, &anns, 200).unwrap();
        assert!(out.converged);
        // u must not use the poisoned n announcement: loop prevention drops
        // it, so u falls back to its provider t2 and lands in Y's catchment.
        for asn in [12u32, 20, 21] {
            let i = topo.index_of(Asn(asn)).unwrap();
            assert_eq!(
                out.catchment(i),
                Some(LinkId(2)),
                "AS{asn} must avoid the poisoned link"
            );
        }
        // n itself still uses its own direct route.
        let in_ = topo.index_of(Asn(11)).unwrap();
        assert_eq!(out.catchment(in_), Some(LinkId(1)));
    }

    #[test]
    fn poisoning_is_ineffective_when_loop_prevention_disabled() {
        let topo = fig2_topology();
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 7,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 1.0, // everyone ignores poison
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            max_events_factor: 200,
        };
        let engine = BgpEngine::new(&topo, &cfg);
        let o = origin_xny();
        let anns = vec![
            LinkAnnouncement::plain(LinkId(0)),
            LinkAnnouncement::poisoned(LinkId(1), vec![Asn(12)]),
            LinkAnnouncement::plain(LinkId(2)),
        ];
        let out = engine.propagate_config(&o, &anns, 200).unwrap();
        // u keeps preferring the peer route despite being poisoned.
        let iu = topo.index_of(Asn(12)).unwrap();
        assert_eq!(out.catchment(iu), Some(LinkId(1)));
    }

    #[test]
    fn prepending_moves_length_based_ties() {
        // Stub s is a customer of two transits m and p, both customers of
        // origin providers. With equal LocalPref and equal path lengths the
        // salted tiebreak decides; prepending one link must force s to the
        // other link regardless of salt.
        let topo = topology_from_links([
            (Asn(10), Asn(30), LinkKind::ProviderCustomer),
            (Asn(11), Asn(30), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let o = OriginAs::new(
            Asn(47065),
            vec![("M".into(), Asn(10)), ("P".into(), Asn(11))],
        );
        let engine = BgpEngine::new(&topo, &clean_config());
        let is = topo.index_of(Asn(30)).unwrap();

        // Baseline: both plain; s picks one by tiebreak.
        let out = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        let baseline = out.catchment(is).unwrap();
        let other = if baseline == LinkId(0) {
            LinkId(1)
        } else {
            LinkId(0)
        };

        // Prepend on the baseline link: s must switch to the other link.
        let anns = vec![
            LinkAnnouncement {
                link: baseline,
                prepend: true,
                poisons: vec![],
                communities: CommunitySet::empty(),
            },
            LinkAnnouncement::plain(other),
        ];
        let out2 = engine.propagate_config(&o, &anns, 200).unwrap();
        assert_eq!(out2.catchment(is), Some(other));
    }

    #[test]
    fn forwarding_walk_matches_control_plane() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        for i in topo.indices() {
            let walk = out.forwarding_walk(i).expect("reachable");
            // Data-plane ingress equals control-plane catchment for clean
            // policies (no violators): the tagged route is what forwarding
            // follows hop by hop.
            assert_eq!(Some(walk.link), out.catchment(i));
            assert_eq!(walk.hops[0], i);
            // Last hop is a PoP provider.
            let last = *walk.hops.last().unwrap();
            let last_asn = topo.asn_of(last);
            assert!(o.links.iter().any(|l| l.provider == last_asn));
        }
    }

    #[test]
    fn no_announcement_no_routes() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let out = engine.propagate(&[], 200);
        assert_eq!(out.reachable_count(), 0);
        assert!(out.converged);
        assert!(out.forwarding_walk(AsIndex(0)).is_none());
    }

    #[test]
    fn no_export_to_providers_confines_link_to_provider_cone() {
        use crate::catchment::Catchments;
        use crate::community::{Community, CommunitySet};
        use trackdown_topology::cone::ConeInfo;
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(19));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let cones = ConeInfo::compute(&g.topology);
        let scoped = LinkId(0);
        let provider = g
            .topology
            .index_of(origin.links[scoped.us()].provider)
            .unwrap();
        let anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l == scoped {
                    LinkAnnouncement::with_communities(
                        l,
                        CommunitySet::from_vec(vec![
                            Community::NoExportToPeers,
                            Community::NoExportToProviders,
                        ]),
                    )
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        let out = engine.propagate_config(&origin, &anns, 200).unwrap();
        assert!(out.converged);
        // The scoped link's catchment is confined to the provider's
        // customer cone (customer-only export).
        for i in g.topology.indices() {
            if out.catchment(i) == Some(scoped) {
                assert!(
                    cones.in_cone(provider, i),
                    "{} outside the provider cone used link {scoped}",
                    g.topology.asn_of(i)
                );
            }
        }
        // Everyone still reaches the prefix via the other links.
        assert_eq!(out.reachable_count(), g.topology.num_ases());
        // And the scoping actually shrank the link's catchment relative to
        // the baseline.
        let plain: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let base = engine.propagate_config(&origin, &plain, 200).unwrap();
        let base_members = Catchments::from_control_plane(&base)
            .members(scoped)
            .count();
        let scoped_members = Catchments::from_control_plane(&out).members(scoped).count();
        assert!(scoped_members <= base_members);
    }

    #[test]
    fn provider_prepend_community_weakens_link_remotely() {
        use crate::catchment::Catchments;
        use crate::community::{Community, CommunitySet};
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(20));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let target = LinkId(1);
        let anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l == target {
                    LinkAnnouncement::with_communities(
                        l,
                        CommunitySet::from_vec(vec![Community::PrependAtProvider(4)]),
                    )
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        let plain: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let base = engine.propagate_config(&origin, &plain, 200).unwrap();
        let out = engine.propagate_config(&origin, &anns, 200).unwrap();
        // The provider itself still prefers its direct route (communities
        // only act on export)...
        let p = g
            .topology
            .index_of(origin.links[target.us()].provider)
            .unwrap();
        assert_eq!(out.catchment(p), Some(target));
        // ...but the link attracts at most as many remote ASes as before
        // (it loses every tie the path length used to decide).
        let before = Catchments::from_control_plane(&base)
            .members(target)
            .count();
        let after = Catchments::from_control_plane(&out).members(target).count();
        assert!(after <= before, "prepend community attracted traffic?");
    }

    #[test]
    fn convergence_rounds_are_bounded_by_diameter_scale() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::medium(25));
        let origin = OriginAs::peering_style(&g, 5);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine.propagate_config(&origin, &anns, 200).unwrap();
        assert!(out.converged);
        // Depth 0 at the PoP providers, growing along the propagation
        // frontier: bounded by a small multiple of the AS-level diameter
        // (path exploration can exceed the plain BFS depth).
        assert!(out.rounds >= 1, "some AS must depend on another's change");
        assert!(
            out.rounds <= 30,
            "convergence depth {} looks like an oscillation",
            out.rounds
        );
        // Withdraw-heavy configurations still converge in bounded depth.
        let single = vec![LinkAnnouncement::plain(LinkId(0))];
        let out2 = engine.propagate_config(&origin, &single, 200).unwrap();
        assert!(out2.converged);
        assert!(out2.rounds <= 40);
    }

    #[test]
    fn transition_reaches_the_same_fixpoint_as_cold_start() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(26));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<_> = origin
            .link_ids()
            .take(2)
            .map(LinkAnnouncement::plain)
            .collect();
        // Deterministic path-vector fixpoints: the warm-start transition
        // must land on exactly the cold-start state of the new config.
        let cold = engine
            .propagate_config_detailed(&origin, &subset, 200, SnapshotDetail::Full)
            .unwrap();
        let warm = engine
            .transition_config_detailed(&origin, &all, &subset, 200, SnapshotDetail::Full)
            .unwrap();
        assert!(warm.converged);
        assert_eq!(best_keys(&warm), best_keys(&cold));
        assert_eq!(candidate_keys(&warm), candidate_keys(&cold));
    }

    #[test]
    fn transition_changes_cover_only_moved_ases() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(27));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<_> = origin
            .link_ids()
            .filter(|l| l.0 != 1)
            .map(LinkAnnouncement::plain)
            .collect();
        let before = engine
            .propagate_config_detailed(&origin, &all, 200, SnapshotDetail::Full)
            .unwrap();
        let warm = engine
            .transition_config_detailed(&origin, &all, &subset, 200, SnapshotDetail::Full)
            .unwrap();
        // Every AS whose final route differs appears in the change log;
        // ASes that kept their route emit nothing.
        let changed: std::collections::HashSet<AsIndex> =
            warm.changes.iter().map(|c| c.at).collect();
        let before_keys = best_keys(&before);
        let warm_keys = best_keys(&warm);
        for i in g.topology.indices() {
            let moved = before_keys[i.us()] != warm_keys[i.us()];
            if moved {
                assert!(changed.contains(&i), "moved AS {i:?} missing from log");
            }
        }
        // The transition log is (much) smaller than a cold start's.
        assert!(warm.changes.len() < before.changes.len());
        // Transition churn includes the withdrawn link's old catchment at
        // minimum.
        let withdrawn_members = crate::Catchments::from_control_plane(&before)
            .members(LinkId(1))
            .count();
        assert!(warm.changes.len() >= withdrawn_members.min(1));
    }

    #[test]
    fn noop_transition_is_silent() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(28));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let warm = engine.transition_config(&origin, &all, &all, 200).unwrap();
        // Re-announcing the identical configuration changes nothing: the
        // direct routes are replaced by equal ones and no AS re-decides.
        assert!(
            warm.changes.is_empty(),
            "{} spurious changes",
            warm.changes.len()
        );
        assert_eq!(warm.rounds, 0);
    }

    #[test]
    fn transition_epoch_accounting_is_per_epoch() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(29));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<_> = origin
            .link_ids()
            .take(2)
            .map(LinkAnnouncement::plain)
            .collect();
        let cold_prev = engine.propagate_config(&origin, &all, 200).unwrap();
        let warm = engine
            .transition_config(&origin, &all, &subset, 200)
            .unwrap();
        // `events`/`rounds`/`changes` cover only the transition epoch: if
        // they accumulated across epochs they would exceed the first
        // epoch's cold-start counts.
        assert!(warm.events < cold_prev.events);
        // Withdrawal churn is real: withdrawing links moves at least the
        // withdrawn links' former members, so the epoch log is non-empty.
        assert!(!warm.changes.is_empty());
        // Change rounds start again from the new epoch's frontier.
        let max_round = warm.changes.iter().map(|c| c.round).max().unwrap();
        assert_eq!(max_round, warm.rounds);
    }

    #[test]
    fn session_deployments_match_cold_starts_exactly() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(30));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        // A small schedule with withdrawals, prepends, and poisons.
        let all: Vec<LinkAnnouncement> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<LinkAnnouncement> = origin
            .link_ids()
            .filter(|l| l.0 != 2)
            .map(LinkAnnouncement::plain)
            .collect();
        let prepended: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l.0 == 0 {
                    LinkAnnouncement::prepended(l)
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        let configs = [all.clone(), subset, prepended, all];
        let mut session = engine.session();
        for (k, anns) in configs.iter().enumerate() {
            let warm = session
                .deploy_config_detailed(&origin, anns, 200, SnapshotDetail::Full)
                .unwrap();
            let cold = engine
                .propagate_config_detailed(&origin, anns, 200, SnapshotDetail::Full)
                .unwrap();
            assert_eq!(
                best_keys(&warm),
                best_keys(&cold),
                "config {k}: best routes differ"
            );
            assert_eq!(
                candidate_keys(&warm),
                candidate_keys(&cold),
                "config {k}: candidate sets differ"
            );
            assert_eq!(warm.converged, cold.converged);
        }
        assert_eq!(session.deployments(), configs.len());
        assert_eq!(session.cold_restarts(), 0);
        assert!(session.peak_arena_nodes() > 0);
    }

    #[test]
    fn session_redeploying_same_config_is_a_silent_epoch() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(31));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let mut session = engine.session();
        let first = session.deploy_config(&origin, &all, 200).unwrap();
        let again = session.deploy_config(&origin, &all, 200).unwrap();
        assert!(again.changes.is_empty());
        assert_eq!(again.rounds, 0);
        assert_eq!(again.best, first.best);
    }

    #[test]
    fn session_reset_cold_starts_the_next_deployment() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(32));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let cold = engine.propagate_config(&origin, &all, 200).unwrap();
        let mut session = engine.session();
        session.deploy_config(&origin, &all, 200).unwrap();
        session.reset();
        let after_reset = session.deploy_config(&origin, &all, 200).unwrap();
        // After a reset the epoch is a genuine cold start again: the full
        // change log reappears instead of a silent no-op epoch.
        assert_eq!(after_reset.best, cold.best);
        assert_eq!(after_reset.events, cold.events);
        assert_eq!(after_reset.changes.len(), cold.changes.len());
    }

    #[test]
    fn invalid_community_rejected_at_injection() {
        use crate::community::{Community, CommunitySet};
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(21));
        let origin = OriginAs::peering_style(&g, 3);
        let bad = LinkAnnouncement::with_communities(
            LinkId(0),
            CommunitySet::from_vec(vec![Community::PrependAtProvider(0)]),
        );
        assert!(matches!(
            origin.build_injections(&g.topology, &[bad]),
            Err(OriginError::InvalidCommunity(LinkId(0)))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let a = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        let b = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn candidates_include_all_viable_offers() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine
            .propagate_config_detailed(&o, &all_plain(&o), 200, SnapshotDetail::Full)
            .unwrap();
        // u hears the route from its peer n and its provider t2: 2 candidates.
        let iu = topo.index_of(Asn(12)).unwrap();
        assert!(
            out.candidates()[iu.us()].len() >= 2,
            "u should have at least 2 candidate routes, got {}",
            out.candidates()[iu.us()].len()
        );
        // The best route is always among the candidates.
        for i in topo.indices() {
            if let Some(b) = &out.best[i.us()] {
                assert!(out.candidates()[i.us()].contains(b));
            }
        }
    }

    #[test]
    fn catchments_detail_skips_candidates_and_paths() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o), 200).unwrap();
        assert!(!out.has_candidates());
        assert!(out.paths.is_empty());
        // Catchments, forwarding walks, and change logs still work.
        assert_eq!(out.reachable_count(), topo.num_ases());
        assert!(out.forwarding_walk(AsIndex(0)).is_some());
        // The full-detail snapshot of the same run agrees on catchments.
        let full = engine
            .propagate_config_detailed(&o, &all_plain(&o), 200, SnapshotDetail::Full)
            .unwrap();
        assert_eq!(out.control_catchments(), full.control_catchments());
        assert!(full.has_candidates());
        assert!(!full.paths.is_empty());
    }

    #[test]
    fn valley_free_property_of_all_paths() {
        // No propagated path may go customer->provider after having gone
        // provider->customer or peer->peer (valley-free).
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine
            .propagate_config_detailed(&o, &all_plain(&o), 200, SnapshotDetail::Full)
            .unwrap();
        for i in topo.indices() {
            if let Some(r) = &out.best[i.us()] {
                // Reconstruct relationships along the distinct path,
                // ignoring the origin (not in topology).
                let path = out.path_of(r);
                let hops: Vec<AsIndex> = path
                    .distinct()
                    .into_iter()
                    .filter_map(|a| topo.index_of(a))
                    .collect();
                // Walk from origin side to receiver: reversed path plus i.
                let mut chain: Vec<AsIndex> = hops;
                chain.reverse();
                chain.push(i);
                // Along the propagation direction a path must be
                // up* (to providers), then at most one peer crossing or
                // descent, then down* (to customers) only.
                let mut ascending = true;
                for w in chain.windows(2) {
                    // Direction of propagation is w[0] -> w[1]; `rel` is
                    // how w[1] looks from w[0].
                    let rel = topo.relationship(w[0], w[1]).expect("adjacent");
                    match rel {
                        NeighborKind::Customer => ascending = false, // down
                        NeighborKind::Peer => {
                            assert!(ascending, "peer edge after descent in {path:?}");
                            ascending = false;
                        }
                        NeighborKind::Provider => {
                            assert!(ascending, "valley in path {path:?}");
                        }
                    }
                }
            }
        }
    }
}
