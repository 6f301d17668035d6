//! Routing policies: Gao-Rexford import preferences and valley-free export
//! rules, plus the deviations the paper identifies in the wild.
//!
//! * **Policy violators** (§V-C, Fig 9): a configurable fraction of ASes do
//!   not rank routes by relationship; they use arbitrary-but-stable
//!   per-neighbor preferences (think traffic-engineering overrides).
//! * **Disabled loop prevention** (§III-A-c): some ASes accept routes
//!   containing their own ASN (e.g. multi-site interconnection over the
//!   Internet), making them immune to BGP poisoning.
//! * **Tier-1 poison filtering** (§III-A-c): tier-1s drop customer-learned
//!   routes whose AS-path contains another tier-1, as those normally
//!   indicate a route leak.
//! * **Policy extensions** ([`PolicyExtension`]): composable per-AS defense
//!   deployments (ROV, peer-ROV, ASPA, peerlock-lite, only-to-customers,
//!   enforce-first-AS, AS-path edge filtering) with fraction-based,
//!   tier-biased, deterministically seeded placement. These model the
//!   partially deployed filtering the paper's §III-A-c failure mode hints
//!   at: several of them drop the poison sandwich outright and therefore
//!   degrade poisoning-based disambiguation.

use crate::community::CommunityBits;
use crate::route::{LinkId, Route};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use trackdown_topology::{
    cone::{ConeInfo, Tier},
    AsIndex, AsPath, Asn, NeighborKind, Topology,
};

/// Standard Gao-Rexford LocalPref bands.
pub const LOCAL_PREF_CUSTOMER: u32 = 300;
/// LocalPref assigned to peer-learned routes.
pub const LOCAL_PREF_PEER: u32 = 200;
/// LocalPref assigned to provider-learned routes.
pub const LOCAL_PREF_PROVIDER: u32 = 100;

/// One composable defense an AS may deploy on top of Gao-Rexford.
///
/// Semantics in this simulator (the origin is a *virtual* stub customer of
/// its PoP providers, announcing one prefix):
///
/// * `Rov` — route-origin validation: drop routes whose origin (last path
///   element) is not the legitimate origin ASN. Poison sandwiches keep the
///   true origin last, so ROV only bites on forged-origin announcements
///   (hijacks), matching its real-world blind spot.
/// * `PeerRov` — ROV applied to peer-learned routes only (the cheap
///   IXP-style deployment).
/// * `Aspa` — ASPA-style path verification: every adjacent pair of
///   topology-resident ASes on the path must be a real edge whose
///   relationship keeps the path valley-free, and the (stub-attested)
///   origin ASN may appear only in the origin position. The sandwich
///   `[origin, victim, origin]` places the origin mid-path, so ASPA drops
///   every poisoned announcement.
/// * `PeerlockLite` — drop customer- or peer-learned routes whose path
///   contains a *locked* ASN other than the sending neighbor's. The locked
///   set is the tier-1 clique (the shared "lite" list: tier-1s are never
///   reachable *through* a customer or lateral peer), the deployer's own
///   peer partners (full peerlock's bilateral rule: a partner's ASN may
///   only arrive from that partner), and — on customer-learned paths —
///   the deployer's own transit providers (an upstream inside a
///   customer's cone would make the hierarchy cyclic). Poison sandwiches
///   name exactly such third-party ASes, so deployers adjacent to the
///   poisoned AS drop the announcement.
/// * `OnlyToCustomers` — RFC 9234: mark routes exported to customers or
///   peers with an OTC attribute, honor the mark on export (customers
///   only), and drop OTC-marked routes arriving from customers. Valley-free
///   export means no leaks arise in-simulation; the machinery is a control.
/// * `EnforceFirstAs` — the first path element must be the sending
///   neighbor's ASN (or the origin's, on a direct injection). Every export
///   in this engine prepends the sender, so this is a control too.
/// * `EdgeFilter` — AS-path edge filtering: adjacent resident pairs must be
///   real topology edges and the stub origin may not appear mid-path
///   (adjacency only, no relationship check — the cheaper cousin of
///   `Aspa`). Also drops every poison sandwich.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PolicyExtension {
    /// Route-origin validation.
    Rov,
    /// ROV on peer-learned routes only.
    PeerRov,
    /// ASPA-style path plausibility (edges + valley-free + stub origin).
    Aspa,
    /// Drop customer/peer routes containing locked (tier-1 or own-peer)
    /// ASNs learned from anyone but the locked AS itself.
    PeerlockLite,
    /// RFC 9234 only-to-customers attribute.
    OnlyToCustomers,
    /// First path element must be the sending neighbor.
    EnforceFirstAs,
    /// Adjacent resident path pairs must be real edges.
    EdgeFilter,
}

impl PolicyExtension {
    /// Every extension, in evaluation order.
    pub const ALL: [PolicyExtension; 7] = [
        PolicyExtension::Rov,
        PolicyExtension::PeerRov,
        PolicyExtension::Aspa,
        PolicyExtension::PeerlockLite,
        PolicyExtension::OnlyToCustomers,
        PolicyExtension::EnforceFirstAs,
        PolicyExtension::EdgeFilter,
    ];

    /// Bit of this extension in a per-AS deployment mask.
    #[inline]
    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Stable CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyExtension::Rov => "rov",
            PolicyExtension::PeerRov => "peer-rov",
            PolicyExtension::Aspa => "aspa",
            PolicyExtension::PeerlockLite => "peerlock-lite",
            PolicyExtension::OnlyToCustomers => "only-to-customers",
            PolicyExtension::EnforceFirstAs => "enforce-first-as",
            PolicyExtension::EdgeFilter => "edge-filter",
        }
    }

    /// Parse a CLI label (the inverse of [`PolicyExtension::label`]).
    pub fn parse(s: &str) -> Option<PolicyExtension> {
        PolicyExtension::ALL.into_iter().find(|e| e.label() == s)
    }
}

impl std::fmt::Display for PolicyExtension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a deployment fraction is spread across tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum DeploymentBias {
    /// Every AS deploys with the same probability.
    Uniform,
    /// Core-biased: tier-1s and transits adopt first (the empirical
    /// pattern for ROV/peerlock — operators with NOCs deploy defenses).
    #[default]
    Core,
    /// Stub-biased: edge networks adopt first.
    Stub,
}

impl DeploymentBias {
    /// Probability multiplier for a tier (clamped to 1.0 downstream).
    fn weight(self, tier: Tier) -> f64 {
        match (self, tier) {
            (DeploymentBias::Uniform, _) => 1.0,
            (DeploymentBias::Core, Tier::Tier1) => 4.0,
            (DeploymentBias::Core, Tier::Transit) => 2.0,
            (DeploymentBias::Core, _) => 0.5,
            (DeploymentBias::Stub, Tier::Tier1) => 0.25,
            (DeploymentBias::Stub, Tier::Transit) => 0.5,
            (DeploymentBias::Stub, _) => 2.0,
        }
    }
}

/// One extension rolled out to a fraction of the AS population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtensionDeployment {
    /// Which defense.
    pub extension: PolicyExtension,
    /// Target deployment fraction in `[0, 1]` (tier weights scale the
    /// per-AS probability; `1.0` always means universal deployment).
    pub fraction: f64,
    /// Tier bias of the placement.
    #[serde(default)]
    pub bias: DeploymentBias,
}

/// The composable defense layer of a [`PolicyConfig`]. The default is
/// empty, which is guaranteed to reproduce pre-extension behavior exactly
/// (bit-for-bit identical manifests): no RNG draws, no route-attribute
/// changes, no extra path scans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtensionConfig {
    /// The legitimate origin ASN, anchoring ROV origin validation and the
    /// ASPA/edge-filter stub attestation.
    pub origin_asn: Asn,
    /// Extensions to roll out.
    pub deployments: Vec<ExtensionDeployment>,
}

impl Default for ExtensionConfig {
    fn default() -> ExtensionConfig {
        ExtensionConfig {
            origin_asn: crate::origin::DEFAULT_ORIGIN_ASN,
            deployments: Vec::new(),
        }
    }
}

impl ExtensionConfig {
    /// A single-extension rollout at `fraction` with the default (core)
    /// bias — the shape the defense-degradation experiment sweeps.
    pub fn single(extension: PolicyExtension, fraction: f64) -> ExtensionConfig {
        ExtensionConfig {
            deployments: vec![ExtensionDeployment {
                extension,
                fraction,
                bias: DeploymentBias::default(),
            }],
            ..ExtensionConfig::default()
        }
    }

    /// True when no extension can ever fire.
    pub fn is_empty(&self) -> bool {
        self.deployments.iter().all(|d| d.fraction <= 0.0)
    }
}

/// Knobs controlling how faithfully ASes follow textbook policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Seed for violator selection, violator preferences, and tiebreak
    /// salts. Independent of the topology seed.
    pub seed: u64,
    /// Fraction of ASes that deviate from Gao-Rexford preferences.
    pub violator_fraction: f64,
    /// Fraction of ASes with BGP loop prevention disabled (poison-immune).
    pub no_loop_prevention_fraction: f64,
    /// Whether tier-1 ASes filter customer routes containing other tier-1s.
    pub tier1_poison_filtering: bool,
    /// Composable per-AS defense deployments (empty = legacy behavior,
    /// guaranteed bit-identical; absent in serialized configs from before
    /// the extension layer).
    #[serde(default)]
    pub extensions: ExtensionConfig,
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig {
            seed: 0x90_11C7,
            violator_fraction: 0.08,
            no_loop_prevention_fraction: 0.02,
            tier1_poison_filtering: true,
            extensions: ExtensionConfig::default(),
        }
    }
}

/// SplitMix64 — tiny deterministic mixer for salted tiebreaks.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bit of [`PolicyTable::flags`]: the AS deviates from Gao-Rexford
/// import preferences.
const FLAG_VIOLATOR: u8 = 1;
/// Bit of [`PolicyTable::flags`]: the AS ignores its own ASN in paths.
const FLAG_NO_LOOP_PREVENTION: u8 = 1 << 1;
/// Bit of [`PolicyTable::flags`]: the AS is a tier-1.
const FLAG_TIER1: u8 = 1 << 2;

/// Materialized per-AS policy state for one topology.
#[derive(Debug, Clone)]
pub struct PolicyTable {
    /// Per-AS role bits (`FLAG_*`), indexed by AS: the engine queries
    /// them on every offer, so they are one byte load instead of a
    /// hashed set lookup.
    flags: Vec<u8>,
    /// Number of ASes with [`FLAG_VIOLATOR`] set.
    num_violators: usize,
    /// Tier-1 ASes (provider-free core), as ASN set for path scanning.
    tier1_asns: HashSet<Asn>,
    /// Per-AS tiebreak salt (stands in for IGP cost / router-id diversity).
    salts: Vec<u64>,
    /// Whether tier-1 filtering is active.
    tier1_filtering: bool,
    /// Per-AS deployment bitmask over [`PolicyExtension::ALL`] (all zero
    /// when no extensions are configured — the hot paths branch on one
    /// byte load and stay on the legacy code exactly).
    ext_bits: Vec<u8>,
    /// Union of `ext_bits` — false short-circuits every extension hook.
    any_ext: bool,
    /// The legitimate origin ASN (ROV anchor / stub attestation).
    origin_asn: Asn,
    /// Whether `origin_asn` collides with a topology-resident AS. The
    /// origin is normally virtual; on a collision (possible at extreme
    /// scales, since generated ASNs are dense) the stub attestation is
    /// disabled rather than penalizing an innocent resident AS.
    origin_resident: bool,
    seed: u64,
}

impl PolicyTable {
    /// Build the policy table for a topology.
    pub fn build(topo: &Topology, cones: &ConeInfo, cfg: &PolicyConfig) -> PolicyTable {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut flags = vec![0u8; topo.num_ases()];
        let mut num_violators = 0;
        for i in topo.indices() {
            if rng.random::<f64>() < cfg.violator_fraction {
                flags[i.us()] |= FLAG_VIOLATOR;
                num_violators += 1;
            }
            if rng.random::<f64>() < cfg.no_loop_prevention_fraction {
                flags[i.us()] |= FLAG_NO_LOOP_PREVENTION;
            }
        }
        let mut tier1_asns = HashSet::new();
        for i in cones.tier1s() {
            flags[i.us()] |= FLAG_TIER1;
            tier1_asns.insert(topo.asn_of(i));
        }
        let salts = topo
            .indices()
            .map(|i| mix64(cfg.seed ^ ((i.0 as u64) << 17) ^ 0xA5A5))
            .collect();
        // Extension placement is hash-based (not rng-stream-based) so each
        // (extension, AS) decision is independent: adding a deployment
        // never reshuffles violator selection or another extension's
        // placement, and an empty config consumes nothing.
        let mut ext_bits = vec![0u8; topo.num_ases()];
        for d in &cfg.extensions.deployments {
            if d.fraction <= 0.0 {
                continue;
            }
            for i in topo.indices() {
                // Full rollout overrides the bias weighting: 1.0 means
                // universal deployment for every tier.
                let p = if d.fraction >= 1.0 {
                    1.0
                } else {
                    (d.fraction * d.bias.weight(cones.tier(i))).min(1.0)
                };
                let h = mix64(cfg.seed ^ 0xE07_0DE5 ^ ((d.extension as u64) << 48) ^ i.0 as u64);
                // 53-bit mantissa draw in [0, 1); p >= 1 always deploys.
                if p >= 1.0 || ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p {
                    ext_bits[i.us()] |= d.extension.bit();
                }
            }
        }
        let any_ext = ext_bits.iter().any(|&b| b != 0);
        let origin_asn = cfg.extensions.origin_asn;
        PolicyTable {
            flags,
            num_violators,
            tier1_asns,
            salts,
            tier1_filtering: cfg.tier1_poison_filtering,
            ext_bits,
            any_ext,
            origin_asn,
            origin_resident: topo.index_of(origin_asn).is_some(),
            seed: cfg.seed,
        }
    }

    /// True if `i` deviates from Gao-Rexford preferences.
    #[inline]
    pub fn is_violator(&self, i: AsIndex) -> bool {
        self.flags[i.us()] & FLAG_VIOLATOR != 0
    }

    /// True if `i` ignores its own ASN in received AS-paths.
    #[inline]
    pub fn ignores_loop_prevention(&self, i: AsIndex) -> bool {
        self.flags[i.us()] & FLAG_NO_LOOP_PREVENTION != 0
    }

    /// True if `i` is a tier-1 AS.
    #[inline]
    pub fn is_tier1(&self, i: AsIndex) -> bool {
        self.flags[i.us()] & FLAG_TIER1 != 0
    }

    /// Number of policy violators.
    pub fn num_violators(&self) -> usize {
        self.num_violators
    }

    /// LocalPref that AS `at` assigns to a route learned from a neighbor of
    /// the given kind. Violators hash `(at, neighbor)` into the full
    /// LocalPref range, modeling arbitrary-but-stable policy.
    pub fn local_pref(&self, at: AsIndex, neighbor: Option<AsIndex>, kind: NeighborKind) -> u32 {
        if self.is_violator(at) {
            let nid = neighbor.map(|n| n.0 as u64 + 1).unwrap_or(0);
            let h = mix64(self.seed ^ ((at.0 as u64) << 32) ^ nid);
            // Spread violator preferences across the Gao-Rexford band so
            // they sometimes agree and sometimes invert the textbook order.
            100 + (h % 201) as u32 // 100..=300
        } else {
            match kind {
                NeighborKind::Customer => LOCAL_PREF_CUSTOMER,
                NeighborKind::Peer => LOCAL_PREF_PEER,
                NeighborKind::Provider => LOCAL_PREF_PROVIDER,
            }
        }
    }

    /// True if `i` deploys the given policy extension.
    #[inline]
    pub fn deploys(&self, i: AsIndex, ext: PolicyExtension) -> bool {
        self.ext_bits[i.us()] & ext.bit() != 0
    }

    /// Number of ASes deploying the given extension (reporting).
    pub fn num_deployers(&self, ext: PolicyExtension) -> usize {
        self.ext_bits
            .iter()
            .filter(|&&b| b & ext.bit() != 0)
            .count()
    }

    /// True if any AS deploys any extension — when false, every extension
    /// hook reduces to the legacy (pre-extension) behavior exactly.
    #[inline]
    pub fn has_extensions(&self) -> bool {
        self.any_ext
    }

    /// Valley-free export rule: may AS `from` export its best route
    /// (learned from a `learned_from`-kind neighbor) to a neighbor that is
    /// `to_kind` from `from`'s perspective?
    ///
    /// Customer-learned (and origin-injected) routes go to everyone;
    /// peer/provider-learned routes go to customers only.
    pub fn may_export(&self, learned_from: NeighborKind, to_kind: NeighborKind) -> bool {
        learned_from == NeighborKind::Customer || to_kind == NeighborKind::Customer
    }

    /// Extension-aware export gate: [`PolicyTable::may_export`] plus the
    /// RFC 9234 rule that an [`PolicyExtension::OnlyToCustomers`] deployer
    /// must not send an OTC-marked route to a peer or provider. Valley-free
    /// export already confines OTC-marked (peer/provider-learned) routes to
    /// customers, so with extensions off this is exactly `may_export`.
    pub fn may_export_route(
        &self,
        at: AsIndex,
        learned_from: NeighborKind,
        to_kind: NeighborKind,
        communities: CommunityBits,
    ) -> bool {
        if !self.may_export(learned_from, to_kind) {
            return false;
        }
        if self.any_ext
            && communities.has_otc()
            && to_kind != NeighborKind::Customer
            && self.deploys(at, PolicyExtension::OnlyToCustomers)
        {
            return false;
        }
        true
    }

    /// Communities AS `at` attaches when exporting a route to a `to_kind`
    /// neighbor. Legacy behavior (first-hop action communities are honored
    /// by the PoP provider, then stripped) is the empty set; an
    /// [`PolicyExtension::OnlyToCustomers`] deployer additionally sets —
    /// and every AS propagates — the OTC marker on routes sent to
    /// customers and peers.
    pub fn export_communities(
        &self,
        at: AsIndex,
        route: &Route,
        to_kind: NeighborKind,
    ) -> CommunityBits {
        if !self.any_ext {
            return CommunityBits::EMPTY;
        }
        // Origin action communities on the direct route never carry OTC;
        // propagated routes carry at most the OTC marker.
        let mut out = if route.from_neighbor.is_none() {
            CommunityBits::EMPTY
        } else {
            route.communities.otc_only()
        };
        if to_kind != NeighborKind::Provider && self.deploys(at, PolicyExtension::OnlyToCustomers) {
            out = out.with_otc();
        }
        out
    }

    /// Import-time acceptance check at AS `at` for a path offered by
    /// `from` (`None` = directly from the origin). Returns `false` when the
    /// route must be dropped.
    pub fn accepts(
        &self,
        topo: &Topology,
        at: AsIndex,
        from: Option<AsIndex>,
        path: &AsPath,
    ) -> bool {
        self.accepts_iter(topo, at, from, path.as_slice().iter().copied())
    }

    /// [`PolicyTable::accepts`] over any path iterator — the engine's
    /// allocation-free form: the offered path is a virtual
    /// `prepends ⧺ arena walk` that never materializes a `Vec<Asn>`.
    /// The iterator must yield most-recent-first (slice order); `Clone`
    /// lets the two predicates each scan from the start.
    pub fn accepts_iter<I>(
        &self,
        topo: &Topology,
        at: AsIndex,
        from: Option<AsIndex>,
        path: I,
    ) -> bool
    where
        I: Iterator<Item = Asn> + Clone,
    {
        let own = topo.asn_of(at);
        // BGP loop prevention — the mechanism poisoning exploits.
        if !self.ignores_loop_prevention(at) && path.clone().any(|a| a == own) {
            return false;
        }
        // Tier-1 route-leak filter: drop customer-learned routes whose path
        // contains another tier-1.
        if self.tier1_filtering && self.is_tier1(at) {
            let from_customer = match from {
                Some(f) => topo.relationship(at, f) == Some(NeighborKind::Customer),
                None => true, // origin is a (virtual) customer of its provider
            };
            if from_customer
                && path
                    .clone()
                    .any(|a| a != own && self.tier1_asns.contains(&a))
            {
                return false;
            }
        }
        // Composable defense extensions, evaluated on the same virtual
        // path. One byte load keeps the extensions-off path identical to
        // the legacy engine.
        let bits = self.ext_bits[at.us()];
        if bits == 0 {
            return true;
        }
        self.extensions_accept(topo, at, from, bits, path)
    }

    /// [`PolicyTable::accepts_iter`] with the offered route's communities,
    /// so [`PolicyExtension::OnlyToCustomers`] deployers can reject
    /// OTC-marked routes arriving from customers (a leak by definition).
    /// Equal to `accepts_iter` whenever no OTC marker is present.
    pub fn accepts_offer_iter<I>(
        &self,
        topo: &Topology,
        at: AsIndex,
        from: Option<AsIndex>,
        offered: CommunityBits,
        path: I,
    ) -> bool
    where
        I: Iterator<Item = Asn> + Clone,
    {
        if self.any_ext && offered.has_otc() && self.deploys(at, PolicyExtension::OnlyToCustomers) {
            let from_customer = match from {
                Some(f) => topo.relationship(at, f) == Some(NeighborKind::Customer),
                None => true,
            };
            if from_customer {
                return false;
            }
        }
        self.accepts_iter(topo, at, from, path)
    }

    /// Evaluate the deployed extension set (`bits != 0`) at `at` against an
    /// offered path. Runs after loop prevention and the tier-1 filter; the
    /// order below is fixed and documented (DESIGN.md §4j). All checks are
    /// allocation-free: each predicate re-scans a `Clone` of the virtual
    /// path iterator.
    fn extensions_accept<I>(
        &self,
        topo: &Topology,
        at: AsIndex,
        from: Option<AsIndex>,
        bits: u8,
        path: I,
    ) -> bool
    where
        I: Iterator<Item = Asn> + Clone,
    {
        let from_kind = match from {
            Some(f) => topo.relationship(at, f).unwrap_or(NeighborKind::Customer),
            // Direct injection: the origin is a virtual customer.
            None => NeighborKind::Customer,
        };
        // 1. Enforce-first-AS: the nearest path element must identify the
        //    sending neighbor (the origin itself on direct injections).
        if bits & PolicyExtension::EnforceFirstAs.bit() != 0 {
            let expected = match from {
                Some(f) => topo.asn_of(f),
                None => self.origin_asn,
            };
            if path.clone().next() != Some(expected) {
                return false;
            }
        }
        // 2. ROV / peer-ROV: origin (last element) must be the legitimate
        //    origin ASN.
        let rov_active = bits & PolicyExtension::Rov.bit() != 0
            || (bits & PolicyExtension::PeerRov.bit() != 0 && from_kind == NeighborKind::Peer);
        if rov_active && path.clone().last() != Some(self.origin_asn) {
            return false;
        }
        // 3. Peerlock-lite: customer/peer-learned paths may not contain a
        //    locked ASN other than the sender (and the deployer itself).
        //    Locked = the tier-1 clique (the "lite" list every deployer
        //    shares), the deployer's own peer partners (full peerlock's
        //    bilateral rule: a partner's ASN may only arrive from that
        //    partner), and — on customer-learned paths — the deployer's
        //    own transit providers (an upstream inside a customer's cone
        //    would make the hierarchy cyclic, so such a path is a leak or
        //    poison by construction). A poison sandwich names exactly such
        //    an AS, so deployers adjacent to the poisoned AS drop it.
        if bits & PolicyExtension::PeerlockLite.bit() != 0 && from_kind != NeighborKind::Provider {
            let own = topo.asn_of(at);
            let sender = from.map(|f| topo.asn_of(f));
            let from_customer = from_kind == NeighborKind::Customer;
            if path.clone().any(|a| {
                a != own
                    && Some(a) != sender
                    && (self.tier1_asns.contains(&a)
                        || topo
                            .index_of(a)
                            .is_some_and(|i| match topo.relationship(at, i) {
                                Some(NeighborKind::Peer) => true,
                                Some(NeighborKind::Provider) => from_customer,
                                _ => false,
                            }))
            }) {
                return false;
            }
        }
        // 4. Edge filter (adjacency only), then 5. ASPA (adjacency +
        //    valley-free direction). Both include the stub attestation.
        if bits & PolicyExtension::EdgeFilter.bit() != 0
            && !self.path_topology_ok(topo, from_kind, false, path.clone())
        {
            return false;
        }
        if bits & PolicyExtension::Aspa.bit() != 0
            && !self.path_topology_ok(topo, from_kind, true, path)
        {
            return false;
        }
        true
    }

    /// Shared walker for [`PolicyExtension::EdgeFilter`] (adjacency) and
    /// [`PolicyExtension::Aspa`] (adjacency + relationship direction).
    ///
    /// The virtual origin is attested as a stub customer: if the (non-
    /// resident) origin ASN appears anywhere but the origin position the
    /// path claims the origin transited traffic, which its attestation
    /// rules out — this is exactly what a poison sandwich
    /// `[origin, victim, origin]` does. Remaining non-resident ASNs are
    /// bridged over (no attestation, no verdict), consecutive repeats
    /// (prepending) collapse, and every adjacent resident pair must be a
    /// real topology edge. With `check_direction`, hop relationships must
    /// additionally form a valley-free sequence consistent with how the
    /// route arrived (`from_kind`): iterating nearest-first, a valid path
    /// reads `down* peer? up*` in reverse-propagation order.
    fn path_topology_ok<I>(
        &self,
        topo: &Topology,
        from_kind: NeighborKind,
        check_direction: bool,
        path: I,
    ) -> bool
    where
        I: Iterator<Item = Asn> + Clone,
    {
        // Stub attestation (skipped when the origin ASN collides with a
        // resident AS, which then gets ordinary adjacency treatment).
        if !self.origin_resident {
            let mut saw_origin = false;
            for a in path.clone() {
                if a == self.origin_asn {
                    saw_origin = true;
                } else if saw_origin {
                    return false; // something *behind* the stub origin
                }
            }
        }
        // Pair walk over resident elements, nearest-first. `ascending`
        // means the remaining (origin-ward) hops must all be customer→
        // provider climbs; it starts set unless the route arrived from a
        // provider (descents may continue only at the receiver end).
        let mut prev: Option<(AsIndex, Asn)> = None;
        let mut ascending = check_direction && from_kind != NeighborKind::Provider;
        for a in path {
            let Some(idx) = topo.index_of(a) else {
                continue;
            };
            let Some((pidx, pasn)) = prev else {
                prev = Some((idx, a));
                continue;
            };
            if a == pasn {
                continue; // prepend repetition
            }
            // Propagation hop: `a` (origin-ward) exported to `pasn`.
            match topo.relationship(pidx, idx) {
                None => return false, // claimed edge does not exist
                Some(NeighborKind::Customer) => {
                    // Up hop (a is pasn's customer): enters/stays in ascent.
                    ascending = check_direction;
                }
                Some(NeighborKind::Peer) => {
                    if ascending {
                        return false; // peer hop after the ascent began
                    }
                    ascending = check_direction;
                }
                Some(NeighborKind::Provider) => {
                    if ascending {
                        return false; // descent after the ascent began
                    }
                }
            }
            prev = Some((idx, a));
        }
        true
    }

    /// Deterministic final tiebreak value for a candidate route at AS `at`:
    /// lower wins. Salting per AS stands in for IGP distances and router
    /// ids, so different ASes break identical ties differently (this is
    /// what AS-path prepending manipulates around). Exposed key-wise (not
    /// just via [`PolicyTable::tiebreak`]) so reference implementations
    /// that don't use [`Route`] can replicate the decision process.
    pub fn tiebreak_key(
        &self,
        at: AsIndex,
        from_neighbor: Option<AsIndex>,
        ingress: LinkId,
    ) -> u64 {
        let nid = from_neighbor.map(|n| n.0 as u64 + 1).unwrap_or(0);
        // Include the ingress link so equal-length paths from the same
        // neighbor but different origin links order deterministically.
        mix64(self.salts[at.us()] ^ (nid << 8) ^ ingress.0 as u64)
    }

    /// [`PolicyTable::tiebreak_key`] of a candidate [`Route`].
    pub fn tiebreak(&self, at: AsIndex, route: &Route) -> u64 {
        self.tiebreak_key(at, route.from_neighbor, route.ingress)
    }
}

/// Convenience: classify whether a decision followed the best-relationship
/// criterion and the shortest-path criterion (used by the Fig 9 analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComplianceFlags {
    /// Chosen route has the best relationship rank among candidates.
    pub best_relationship: bool,
    /// Chosen route additionally has the shortest path among candidates
    /// tied at the best relationship rank.
    pub shortest_path: bool,
}

/// Evaluate compliance of a chosen route against the candidate set, using
/// relationship ranks (customer > peer > provider) and path lengths.
pub fn compliance_of(chosen: &Route, candidates: &[&Route]) -> ComplianceFlags {
    let best_rank = candidates
        .iter()
        .map(|r| r.learned_from.preference_rank())
        .max()
        .unwrap_or(0);
    let chosen_rank = chosen.learned_from.preference_rank();
    let best_relationship = chosen_rank == best_rank;
    let shortest = candidates
        .iter()
        .filter(|r| r.learned_from.preference_rank() == best_rank)
        .map(|r| r.path_len())
        .min()
        .unwrap_or(usize::MAX);
    ComplianceFlags {
        best_relationship,
        shortest_path: best_relationship && chosen.path_len() == shortest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::LinkId;
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn table(violators: f64) -> (trackdown_topology::Topology, PolicyTable) {
        let g = generate(&TopologyConfig::small(5));
        let cones = ConeInfo::compute(&g.topology);
        let t = PolicyTable::build(
            &g.topology,
            &cones,
            &PolicyConfig {
                seed: 99,
                violator_fraction: violators,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: true,
                extensions: Default::default(),
            },
        );
        (g.topology, t)
    }

    #[test]
    fn dense_flags_match_the_seeded_rng_stream() {
        let g = generate(&TopologyConfig::medium(6));
        let cones = ConeInfo::compute(&g.topology);
        let cfg = PolicyConfig {
            seed: 42,
            violator_fraction: 0.3,
            no_loop_prevention_fraction: 0.2,
            tier1_poison_filtering: true,
            extensions: Default::default(),
        };
        let t = PolicyTable::build(&g.topology, &cones, &cfg);
        // Replay the selection stream: two draws per AS in index order.
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let tier1s: HashSet<AsIndex> = cones.tier1s().collect();
        let mut violators = 0;
        for i in g.topology.indices() {
            let violator = rng.random::<f64>() < cfg.violator_fraction;
            let immune = rng.random::<f64>() < cfg.no_loop_prevention_fraction;
            violators += violator as usize;
            assert_eq!(t.is_violator(i), violator, "violator flag of {i:?}");
            assert_eq!(t.ignores_loop_prevention(i), immune, "loop flag of {i:?}");
            assert_eq!(t.is_tier1(i), tier1s.contains(&i), "tier-1 flag of {i:?}");
        }
        assert_eq!(t.num_violators(), violators);
        assert!(violators > 0 && !tier1s.is_empty());
    }

    #[test]
    fn gao_rexford_prefs() {
        let (_, t) = table(0.0);
        let i = AsIndex(0);
        assert_eq!(t.local_pref(i, None, NeighborKind::Customer), 300);
        assert_eq!(t.local_pref(i, None, NeighborKind::Peer), 200);
        assert_eq!(t.local_pref(i, None, NeighborKind::Provider), 100);
    }

    #[test]
    fn violator_prefs_stable_and_in_band() {
        let (_, t) = table(1.0);
        let i = AsIndex(3);
        assert!(t.is_violator(i));
        let p1 = t.local_pref(i, Some(AsIndex(7)), NeighborKind::Provider);
        let p2 = t.local_pref(i, Some(AsIndex(7)), NeighborKind::Customer);
        // Violator preference depends on the neighbor, not the relationship.
        assert_eq!(p1, p2);
        assert!((100..=300).contains(&p1));
        // Stable across calls.
        assert_eq!(
            p1,
            t.local_pref(i, Some(AsIndex(7)), NeighborKind::Provider)
        );
    }

    #[test]
    fn export_rules_are_valley_free() {
        let (_, t) = table(0.0);
        use NeighborKind::*;
        assert!(t.may_export(Customer, Customer));
        assert!(t.may_export(Customer, Peer));
        assert!(t.may_export(Customer, Provider));
        assert!(t.may_export(Peer, Customer));
        assert!(!t.may_export(Peer, Peer));
        assert!(!t.may_export(Peer, Provider));
        assert!(t.may_export(Provider, Customer));
        assert!(!t.may_export(Provider, Peer));
        assert!(!t.may_export(Provider, Provider));
    }

    #[test]
    fn loop_prevention_drops_own_asn() {
        let (topo, t) = table(0.0);
        let i = AsIndex(2);
        let own = topo.asn_of(i);
        let poisoned = AsPath::poisoned_origin(Asn(999_999), &[own]);
        assert!(!t.accepts(&topo, i, None, &poisoned));
        let clean = AsPath::from_origin(Asn(999_999));
        assert!(t.accepts(&topo, i, None, &clean));
    }

    #[test]
    fn no_loop_prevention_accepts_own_asn() {
        let g = generate(&TopologyConfig::small(5));
        let cones = ConeInfo::compute(&g.topology);
        let t = PolicyTable::build(
            &g.topology,
            &cones,
            &PolicyConfig {
                seed: 1,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 1.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
        );
        let i = AsIndex(2);
        let own = g.topology.asn_of(i);
        let poisoned = AsPath::poisoned_origin(Asn(999_999), &[own]);
        assert!(t.accepts(&g.topology, i, None, &poisoned));
    }

    #[test]
    fn tier1_filters_customer_routes_with_other_tier1s() {
        let (topo, t) = table(0.0);
        let t1: Vec<AsIndex> = topo.indices().filter(|&i| t.is_tier1(i)).collect();
        assert!(t1.len() >= 2);
        let a = t1[0];
        let other_t1_asn = topo.asn_of(t1[1]);
        // Path containing another tier-1, arriving from the origin
        // (treated as customer-learned): must be filtered.
        let path = AsPath::poisoned_origin(Asn(999_999), &[other_t1_asn]);
        assert!(!t.accepts(&topo, a, None, &path));
        // A non-tier1 AS is not subject to the filter (if not poisoned itself).
        let stub = topo
            .indices()
            .find(|&i| !t.is_tier1(i) && topo.asn_of(i) != other_t1_asn)
            .unwrap();
        assert!(t.accepts(&topo, stub, None, &path));
    }

    #[test]
    fn tiebreak_is_deterministic_and_as_dependent() {
        let (_, t) = table(0.0);
        let r = Route {
            path_id: crate::arena::PathId::EMPTY,
            path_len: 1,
            ingress: LinkId(0),
            from_neighbor: Some(AsIndex(4)),
            local_pref: 300,
            learned_from: NeighborKind::Customer,
            communities: crate::community::CommunityBits::EMPTY,
        };
        assert_eq!(t.tiebreak(AsIndex(0), &r), t.tiebreak(AsIndex(0), &r));
        // The tiebreak depends only on (at, from_neighbor, ingress).
        assert_eq!(
            t.tiebreak(AsIndex(0), &r),
            t.tiebreak_key(AsIndex(0), Some(AsIndex(4)), LinkId(0))
        );
        // Salts should make at least some pair of ASes disagree.
        assert_ne!(t.tiebreak(AsIndex(0), &r), t.tiebreak(AsIndex(1), &r));
    }

    #[test]
    fn compliance_classification() {
        let mk = |kind, len: u32| Route {
            path_id: crate::arena::PathId::EMPTY,
            path_len: len,
            ingress: LinkId(0),
            from_neighbor: Some(AsIndex(1)),
            local_pref: 0,
            learned_from: kind,
            communities: crate::community::CommunityBits::EMPTY,
        };
        let cust_short = mk(NeighborKind::Customer, 2);
        let cust_long = mk(NeighborKind::Customer, 5);
        let peer = mk(NeighborKind::Peer, 1);
        let cands = [&cust_short, &cust_long, &peer];
        let f = compliance_of(&cust_short, &cands);
        assert!(f.best_relationship && f.shortest_path);
        let f = compliance_of(&cust_long, &cands);
        assert!(f.best_relationship && !f.shortest_path);
        let f = compliance_of(&peer, &cands);
        assert!(!f.best_relationship && !f.shortest_path);
    }
}
