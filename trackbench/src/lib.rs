//! End-to-end and per-layer benchmark of the trackdown operator's two jobs:
//! building the cluster map with an announcement campaign, and localizing
//! an attack against it.
//!
//! A run drives one [`Workload`] through the same public calls the
//! `trackdown campaign` and `trackdown localize --sketch 512x4` commands
//! make, in one process and a closed loop (one campaign or one attack at a
//! time, campaigns on two worker threads). Correctness gates run
//! before any timing: every campaign must equal the cold-start oracle for
//! the same seed, and every sketch counter must stay within its one-sided
//! error bound of the exact volume. With tracing on, a serial replay of the
//! campaign times each layer's public entry point from this crate instead.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use trackdown_bgp::{Catchments, LinkId};
use trackdown_core::localize::{
    link_volume_matrix, rank_suspects, rank_suspects_acc, suspect_ases, AttributionIndex, Campaign,
    CampaignMode, CampaignStats, RankedSuspects,
};
use trackdown_core::{estimate_cluster_volumes, Clustering, Dataset};
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_topology::gen::{generate, TopologyConfig};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    ingest_stream, pareto_shape_80_20, place_sources, Flow, SketchAccumulator, SourcePlacement,
    VolumeAccumulator, DEFAULT_FLOW_BATCH,
};

/// Campaign worker threads: the two cores of the reference runner.
const THREADS: usize = 2;
/// Sketch geometry of `trackdown localize --sketch 512x4`.
const SKETCH: (usize, usize) = (512, 4);
/// Sketch hash seed the `localize` command uses.
const SKETCH_SEED: u64 = 0x5CE7;
/// Interval-propagation rounds the `localize` command uses.
const ESTIMATE_ROUNDS: usize = 10;
/// Share of the ranking's summed volume bound an operator's shortlist
/// covers: the "named" suspects of `localize_miss_rate` and
/// `suspect_ases_per_attack`. The full ranking is sound by construction
/// (it never drops a cluster that carried volume), so only the shortlist
/// can miss an attacker.
const SHORTLIST_COVERAGE: f64 = 0.9;
/// Set-ups before the first timed operation of an untraced run.
const MIN_SETUPS: usize = 3;
/// Share of a run's timed loop that further set-ups may take; `setup_s`
/// is the median of all of them.
const SETUP_SHARE: f64 = 0.25;
/// Fewest timed campaigns a campaign workload makes, however short the run.
const MIN_CAMPAIGNS: u64 = 3;
/// Fewest attacks per run: enough for a tail percentile with ten samples
/// beyond it.
const MIN_ATTACKS: u64 = 20;
/// Attacks the quality metrics average over, timed or not.
const QUALITY_ATTACKS: usize = 120;
/// Attacks the traced pass times per layer.
const TRACED_ATTACKS: usize = 16;
/// Bytes a few-origin (amplification-style) attacking AS sends.
const FEW_ORIGIN_BYTES: u64 = 1_000_000;
/// Bytes per spoofing source in a Pareto spread.
const SPREAD_SOURCE_BYTES: u64 = 10_000;

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `full` preset with the default policy: the paper's universe
    /// and schedule size.
    PaperDefault,
    /// The 80k-AS `internet` preset with the default policy: drain-bound.
    InternetDefault,
    /// `PaperDefault` without policy violators, so epochs really reuse
    /// the previous routing state.
    PaperReuse,
    /// Attack localization against a `PaperDefault` dataset built in
    /// set-up.
    AttackLocalize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDefault,
        Workload::InternetDefault,
        Workload::PaperReuse,
        Workload::AttackLocalize,
    ];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDefault => "paper-default",
            Workload::InternetDefault => "internet-default",
            Workload::PaperReuse => "paper-reuse",
            Workload::AttackLocalize => "attack-localize",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Workload::InternetDefault => Scale::Internet,
            _ => Scale::Full,
        }
    }

    fn violators(self) -> bool {
        self != Workload::PaperReuse
    }

    /// Whether campaigns are the operation the run measures; otherwise
    /// the campaign runs in set-up and attacks fill the run.
    fn campaigns_timed(self) -> bool {
        self != Workload::AttackLocalize
    }

    /// Timed campaigns and attacks of a run of `seconds`, sized from their
    /// cost on a two-core machine (a `full` campaign about 0.5 s, an
    /// `internet` one about 5 s, a `full` attack about 0.2 s and an
    /// `internet` one about 0.8 s). Fixed counts keep the quality metrics a
    /// function of the seed alone.
    fn plan(self, seconds: u64) -> (usize, usize) {
        let (campaigns, attacks) = match self {
            Workload::PaperDefault | Workload::PaperReuse => (3 * seconds / 2, 3 * seconds),
            Workload::InternetDefault => (MIN_CAMPAIGNS, 30),
            Workload::AttackLocalize => (0, 5 * seconds),
        };
        let campaigns = if self.campaigns_timed() {
            campaigns.max(MIN_CAMPAIGNS)
        } else {
            0
        };
        (campaigns as usize, attacks.max(MIN_ATTACKS) as usize)
    }
}

/// Topology and policy seed of every workload: the preset's default, so
/// each workload runs the one universe `trackdown campaign --scale <s>`
/// builds without `--seed`. Outputs such as mean cluster size move by
/// several percent between topologies, more than any useful bound, so the
/// run seed varies the attack stream instead.
const TOPOLOGY_SEED: u64 = 0x5eed_0001;

/// Everything one run depends on.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of the attack stream.
    pub seed: u64,
    /// Run the traced pass (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Topology preset; the workload's own unless a test shrinks it.
    pub scale: Scale,
    /// Timed campaigns per run (0 for attack-localize, whose campaigns run
    /// in set-up).
    pub campaigns: usize,
    /// Attacks localized per run.
    pub attacks: usize,
}

impl Params {
    /// The parameters of a `--workload W --seed N --seconds S --trace T` run.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Params {
        let (campaigns, attacks) = workload.plan(seconds);
        Params {
            workload,
            seed,
            trace,
            scale: workload.scale(),
            campaigns,
            attacks,
        }
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run whose gates all passed.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: deployed epochs of timed campaigns plus
    /// localized attacks.
    pub attempted: u64,
    /// Operations failed: epochs that hit the event cap.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Conditions the run was measured under and what actually ran, as
    /// `(key, JSON value)` pairs.
    pub report: Vec<(&'static str, String)>,
}

/// A correctness gate that did not hold.
#[derive(Debug)]
pub struct GateFailure {
    /// Operations attempted before the failure.
    pub attempted: u64,
    /// Operations failed, counting the one that failed the gate.
    pub failed: u64,
    /// Which gate failed and where.
    pub message: String,
}

impl Outcome {
    /// The run's one-line result: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run's report line: machine fingerprint and run conditions.
    pub fn report_json(&self) -> String {
        let fields: Vec<String> = self
            .report
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{\"report\": {{{}}}}}", fields.join(", "))
    }
}

impl GateFailure {
    /// The one-line result of a run a gate stopped.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            self.attempted.max(1),
            self.failed.max(1)
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Operation counts of a run so far.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&self, message: String) -> GateFailure {
        GateFailure {
            attempted: self.attempted + 1,
            failed: self.failed + 1,
            message,
        }
    }
}

/// The scenario of a run, exactly as `trackdown campaign --scale <s>
/// --seed <n> --threads 2` builds it, with violators removed for
/// `paper-reuse`.
pub fn scenario(p: &Params) -> Scenario {
    let mut s = Scenario::build(Options {
        scale: p.scale,
        seed: TOPOLOGY_SEED,
        threads: Some(THREADS),
        ..Options::default()
    });
    if !p.workload.violators() {
        s.engine_cfg.policy.violator_fraction = 0.0;
    }
    s
}

/// The topology generator configuration `Scenario::build` uses for a scale.
fn topology_config(scale: Scale, seed: u64) -> TopologyConfig {
    match scale {
        Scale::Small => TopologyConfig::small(seed),
        Scale::Medium => TopologyConfig::medium(seed),
        Scale::Full => TopologyConfig {
            seed,
            ..TopologyConfig::default()
        },
        Scale::Large => TopologyConfig::large(seed),
        Scale::Internet => TopologyConfig::internet(seed),
    }
}

/// A campaign and its encoded dataset.
pub struct Encoded {
    /// The campaign as the default executor produced it.
    pub campaign: Campaign,
    /// `Dataset::to_json` of the campaign.
    pub json: String,
    /// Wall time from the executor through the encoded JSON.
    pub secs: f64,
}

/// One campaign as `trackdown campaign` runs it: the default executor,
/// then the dataset encoded to JSON.
pub fn encode_campaign(s: &Scenario) -> Encoded {
    let start = Instant::now();
    let campaign = s.run_recorded(None);
    let json = Dataset::from_campaign(&s.gen.topology, &s.origin, &campaign)
        .to_json()
        .expect("a campaign dataset serializes");
    Encoded {
        campaign,
        json,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// The same campaign through the `CampaignMode::Cold` executor: the
/// reference every timed campaign must equal.
pub fn cold_oracle(s: &mut Scenario) -> Campaign {
    s.cold = true;
    let oracle = s.run_recorded(None);
    s.cold = false;
    oracle
}

/// Gate: a campaign's tracked set, catchments and clustering equal the
/// oracle's.
pub fn check_against_oracle(c: &Campaign, oracle: &Campaign) -> Result<(), String> {
    if c.tracked != oracle.tracked {
        return Err("tracked sources differ from the cold oracle".into());
    }
    if c.catchments.len() != oracle.catchments.len() {
        return Err("configuration count differs from the cold oracle".into());
    }
    if let Some(k) = (0..c.catchments.len()).find(|&k| c.catchments[k] != oracle.catchments[k]) {
        return Err(format!(
            "catchments of configuration {k} differ from the cold oracle"
        ));
    }
    if c.clustering.clusters() != oracle.clustering.clusters() {
        return Err("clustering differs from the cold oracle".into());
    }
    Ok(())
}

/// Per-AS attack volumes of attack `i` of a run. Even attacks are
/// few-origin (1–10 ASes, amplification-style); odd ones place 300–1000
/// spoofing sources by 80/20 Pareto weights over every AS, which lands on
/// a few hundred ASes. Sizes cycle with `i`, so the seed varies only where
/// the sources sit and two runs' quality metrics stay comparable.
pub fn attack(num_ases: usize, seed: u64, i: usize) -> Vec<u64> {
    let attack_seed = splitmix(seed ^ splitmix(i as u64 + 1));
    let candidates: Vec<AsIndex> = (0..num_ases as u32).map(AsIndex).collect();
    let round = i / 2;
    let (placement, bytes) = if i.is_multiple_of(2) {
        let total = 1 + round % 10;
        (SourcePlacement::Uniform { total }, FEW_ORIGIN_BYTES)
    } else {
        let total = 300 + 100 * (round % 8);
        let alpha = pareto_shape_80_20();
        (
            SourcePlacement::Pareto { total, alpha },
            SPREAD_SOURCE_BYTES,
        )
    };
    place_sources(num_ases, &candidates, placement, attack_seed)
        .counts
        .iter()
        .map(|&c| c as u64 * bytes)
        .collect()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Steps of one localization, in order.
const LOCALIZE_STEPS: [&str; 6] = [
    "dataset.decode_ms",
    "dataset.rebuild_ms",
    "attr.volumes_ms",
    "attr.estimate_ms",
    "traffic.ingest_ms",
    "attr.rank_ms",
];

/// What the attribution steps produced for one attack, kept for the gates.
pub struct Attributed {
    /// Exact per-configuration link volumes of the attack.
    pub link_volumes: Vec<Vec<u64>>,
    /// The sketch the attack's flows streamed through.
    pub sketch: SketchAccumulator,
    /// The sketch ranking.
    pub ranked: RankedSuspects,
}

fn stamp(laps: &mut [Duration; 6], step: usize, since: &mut Instant) {
    let now = Instant::now();
    laps[step] = now - *since;
    *since = now;
}

/// The first two steps of `trackdown localize`: decode the dataset and
/// rebuild the clustering and attribution index from it.
pub fn decode(json: &str, laps: &mut [Duration; 6]) -> Result<Campaign, String> {
    let mut since = Instant::now();
    let ds = Dataset::from_json(json).map_err(|e| format!("dataset decode: {e}"))?;
    stamp(laps, 0, &mut since);
    let (clustering, attribution) = ds.rebuild_attribution();
    let campaign = Campaign {
        configs: ds.configs,
        catchments: ds.catchments,
        tracked: ds.tracked,
        clustering,
        attribution,
        records: Vec::new(),
        imputation: None,
        stats: CampaignStats::default(),
    };
    stamp(laps, 1, &mut since);
    Ok(campaign)
}

/// The remaining steps of `trackdown localize --sketch 512x4` for one
/// attack: estimate cluster volumes from the exact link matrix, stream the
/// attack's flows through the sketch and rank suspects. `laps` receives
/// each step's time, in `LOCALIZE_STEPS` order.
pub fn attribute(campaign: &Campaign, per_as: &[u64], laps: &mut [Duration; 6]) -> Attributed {
    let mut since = Instant::now();
    let link_volumes = link_volume_matrix(campaign, per_as);
    stamp(laps, 2, &mut since);
    black_box(estimate_cluster_volumes(
        campaign,
        &link_volumes,
        ESTIMATE_ROUNDS,
    ));
    stamp(laps, 3, &mut since);
    let flows: Vec<Flow> = per_as
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0)
        .map(|(i, &v)| Flow {
            src_as: AsIndex(i as u32),
            claimed_ip: 0xCB00_7101,
            dst_ip: 0xCB00_7201,
            packets: v / 64,
            bytes: v,
            spoofed: true,
        })
        .collect();
    let mut sketch = SketchAccumulator::new(
        campaign.catchments.len(),
        campaign.attribution.num_links(),
        SKETCH.0,
        SKETCH.1,
        SKETCH_SEED,
    );
    for (c, cat) in campaign.catchments.iter().enumerate() {
        ingest_stream(&mut sketch, c, cat, &flows, DEFAULT_FLOW_BATCH);
    }
    stamp(laps, 4, &mut since);
    let ranked = rank_suspects_acc(campaign, &sketch);
    stamp(laps, 5, &mut since);
    Attributed {
        link_volumes,
        sketch,
        ranked,
    }
}

/// Gate: every sketch counter lies in `[exact, exact + bound]`, and the
/// exact ranking's suspects are a subset of the sketch ranking's.
pub fn check_sketch(campaign: &Campaign, a: &Attributed) -> Result<(), String> {
    let bound = a.ranked.error_bound;
    for (k, row) in a.link_volumes.iter().enumerate() {
        for (link, &exact) in row.iter().enumerate() {
            let v = a.sketch.volume(k, LinkId::from_usize(link));
            if v < exact || v - exact > bound {
                return Err(format!(
                    "sketch counter (config {k}, link {link}) = {v} outside [{exact}, {exact} + {bound}]"
                ));
            }
        }
    }
    let named: BTreeSet<usize> = a.ranked.suspects.iter().map(|s| s.cluster).collect();
    if let Some(s) = rank_suspects(campaign, &a.link_volumes)
        .iter()
        .find(|s| !named.contains(&s.cluster))
    {
        return Err(format!(
            "exact suspect cluster {} missing from the sketch ranking",
            s.cluster
        ));
    }
    Ok(())
}

/// Planted tracked attackers, the ones the shortlist misses, and the
/// shortlist's size.
fn shortlist_quality(campaign: &Campaign, a: &Attributed, per_as: &[u64]) -> [usize; 3] {
    let named: BTreeSet<AsIndex> = suspect_ases(&a.ranked.suspects, SHORTLIST_COVERAGE)
        .into_iter()
        .collect();
    let planted: Vec<AsIndex> = per_as
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0)
        .map(|(i, _)| AsIndex(i as u32))
        .filter(|&a| campaign.clustering.cluster_of(a).is_some())
        .collect();
    let missed = planted.iter().filter(|a| !named.contains(a)).count();
    [planted.len(), missed, named.len()]
}

/// Median of a sample (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, and its
/// value: the order statistic with exactly ten larger samples. Samples of
/// ten or fewer report their maximum as percentile 100.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100.0, v.last().copied().unwrap_or(f64::NAN));
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores, compiler and a fixed calibration loop's speed: enough to tell a
/// diff between two machines from a regression.
fn fingerprint() -> String {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..ITERS {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(x);
    let ns_per_iter = start.elapsed().as_nanos() as f64 / ITERS as f64;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\": {cores}, \"rustc\": {}, \"calib_ns_per_iter\": {}}}",
        json_str(&rustc),
        json_num(ns_per_iter)
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One set-up as a run measures it: scenario, engine and schedule, plus
/// for attack-localize the campaign and dataset the run queries.
struct SetUp {
    scenario: Scenario,
    dataset: Option<Encoded>,
    secs: f64,
}

fn set_up(p: &Params) -> SetUp {
    let start = Instant::now();
    let scenario = scenario(p);
    {
        let engine = scenario.engine();
        let schedule = scenario.schedule();
        black_box((&engine, &schedule));
    }
    let dataset = (!p.workload.campaigns_timed()).then(|| encode_campaign(&scenario));
    SetUp {
        scenario,
        dataset,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Run one workload: set-up, gates, then the untraced or traced pass.
pub fn run(p: &Params) -> Result<Outcome, GateFailure> {
    let machine = fingerprint();
    let mut tally = Tally::default();

    // Gate before any timed operation: the cold-start oracle, computed
    // after the first set-up. Each set-up is dropped before the next one
    // starts, so peak RSS reflects one scenario; the last one is kept.
    let mut kept = set_up(p);
    let oracle = cold_oracle(&mut kept.scenario);
    let mut setup_secs = vec![kept.secs];
    let mut campaign_secs = Vec::new();
    let (mut epochs, mut capped) = (0usize, 0usize);
    let mut check_campaign = |e: &Encoded, tally: &mut Tally, secs: &mut Vec<f64>| {
        secs.push(e.secs);
        check_against_oracle(&e.campaign, &oracle).map_err(|m| tally.fail(m))?;
        let deployed = e.campaign.records.len();
        let c = e.campaign.records.iter().filter(|r| !r.converged).count();
        tally.attempted += deployed as u64;
        tally.failed += c as u64;
        epochs += deployed;
        capped += c;
        Ok::<(), GateFailure>(())
    };
    loop {
        if let Some(d) = &kept.dataset {
            check_campaign(d, &mut tally, &mut campaign_secs)?;
        }
        if p.trace || setup_secs.len() >= MIN_SETUPS {
            break;
        }
        drop(kept);
        kept = set_up(p);
        setup_secs.push(kept.secs);
    }
    let SetUp {
        scenario: s,
        dataset,
        ..
    } = kept;
    let mut report = vec![
        ("workload", json_str(p.workload.name())),
        ("seed", p.seed.to_string()),
        ("trace", p.trace.to_string()),
        ("machine", machine),
        ("ases", s.gen.topology.num_ases().to_string()),
    ];
    if p.trace {
        let metrics = traced(p, &s, dataset, &oracle, &mut tally, &mut report)?;
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            report,
        });
    }

    // Timed campaigns and attacks, interleaved evenly so that a burst of
    // contention from other tenants of the machine lands on both samples
    // alike instead of on one phase. Further set-ups interleave too, while
    // they take under a quarter of the elapsed time, for the same reason.
    // Attack-localize times only attacks, against the dataset its set-up
    // built; its set-up campaigns are its campaign samples.
    let n = s.gen.topology.num_ases();
    let mut latencies = Vec::with_capacity(p.attacks);
    let mut quality = [0usize; 3];
    let add = |q: &mut [usize; 3], x: [usize; 3]| q.iter_mut().zip(x).for_each(|(q, x)| *q += x);
    let mut decoded: Option<Campaign> = None;
    let mut laps = [Duration::ZERO; 6];
    let mut reference = dataset;
    let loop_start = Instant::now();
    let mut timed_campaigns = 0;
    while timed_campaigns < p.campaigns || latencies.len() < p.attacks {
        if setup_secs.iter().sum::<f64>() < SETUP_SHARE * loop_start.elapsed().as_secs_f64() {
            let extra = set_up(p);
            setup_secs.push(extra.secs);
            if let Some(d) = &extra.dataset {
                check_campaign(d, &mut tally, &mut campaign_secs)?;
            }
        }
        let campaign_due = timed_campaigns < p.campaigns
            && (latencies.len() >= p.attacks
                || timed_campaigns * p.attacks <= latencies.len() * p.campaigns);
        if campaign_due {
            let e = encode_campaign(&s);
            timed_campaigns += 1;
            check_campaign(&e, &mut tally, &mut campaign_secs)?;
            if reference.as_ref().is_some_and(|r| r.json != e.json) {
                return Err(tally.fail("encoded dataset differs between campaigns".into()));
            }
            reference.get_or_insert(e);
            continue;
        }
        let json = &reference
            .as_ref()
            .expect("a campaign precedes every attack")
            .json;
        let i = latencies.len();
        let per_as = attack(n, p.seed, i);
        let start = Instant::now();
        let campaign = decode(json, &mut laps).map_err(|e| tally.fail(e))?;
        let a = attribute(&campaign, &per_as, &mut laps);
        latencies.push(ms(start.elapsed()));
        check_sketch(&campaign, &a).map_err(|e| tally.fail(format!("attack {i}: {e}")))?;
        add(&mut quality, shortlist_quality(&campaign, &a, &per_as));
        tally.attempted += 1;
        decoded = Some(campaign);
    }
    // Quality averages over more attacks than a run can afford to time:
    // the rest go through the same attribution steps, untimed, against
    // the decoded dataset.
    let campaign = decoded.expect("at least one attack");
    for i in latencies.len()..QUALITY_ATTACKS {
        let per_as = attack(n, p.seed, i);
        let a = attribute(&campaign, &per_as, &mut laps);
        check_sketch(&campaign, &a).map_err(|e| tally.fail(format!("attack {i}: {e}")))?;
        add(&mut quality, shortlist_quality(&campaign, &a, &per_as));
    }
    let quality_attacks = latencies.len().max(QUALITY_ATTACKS);
    let [planted, missed, named] = quality;
    let reference = reference.expect("at least one campaign");
    let (tail_pct, tail_ms) = tail(&latencies);
    report.push(("setups", setup_secs.len().to_string()));
    report.push(("campaigns", campaign_secs.len().to_string()));
    report.push(("attacks", latencies.len().to_string()));
    report.push(("quality_attacks", quality_attacks.to_string()));
    report.push(("localize_tail_percentile", json_num(tail_pct)));
    report.push(("executor", executor_json(p, &reference.campaign, None)));

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", median(&setup_secs), "s"),
        m("campaign_s", median(&campaign_secs), "s"),
        m("localize_ms_p50", median(&latencies), "ms"),
        m("localize_ms_tail", tail_ms, "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m(
            "mean_cluster_size",
            reference.campaign.clustering.mean_size(),
            "ases",
        ),
        m(
            "localize_miss_rate",
            missed as f64 / planted.max(1) as f64,
            "frac",
        ),
        m(
            "suspect_ases_per_attack",
            named as f64 / quality_attacks as f64,
            "ases",
        ),
        m(
            "converged_epoch_rate",
            1.0 - capped as f64 / epochs.max(1) as f64,
            "frac",
        ),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    })
}

/// What the executor was asked for beside what it did.
fn executor_json(p: &Params, c: &Campaign, reused: Option<f64>) -> String {
    let mode = |m: CampaignMode| format!("{m:?}").to_lowercase();
    let mut out = format!(
        "{{\"mode_requested\": \"warm\", \"stats_mode\": {}, \"threads\": {}, \"violators\": {}",
        json_str(&mode(c.stats.mode)),
        c.stats.threads,
        p.workload.violators()
    );
    if let Some(r) = reused {
        out.push_str(&format!(", \"reused_epochs_frac\": {}", json_num(r)));
    }
    out.push('}');
    out
}

/// Layer times and counters of one serial campaign replay.
#[derive(Debug, Default)]
struct Replay {
    schedule_build: Duration,
    engine_build: Duration,
    order: Duration,
    deploy: Duration,
    extract: Duration,
    refine: Duration,
    encode: Duration,
    wall: Duration,
    events: usize,
    disturbed: usize,
    warm: usize,
    capped: usize,
    peak_nodes: usize,
    splits: usize,
    bytes: usize,
}

impl Replay {
    fn layer_sum(&self) -> Duration {
        self.schedule_build
            + self.engine_build
            + self.order
            + self.deploy
            + self.extract
            + self.refine
            + self.encode
    }
}

/// Replay the campaign serially from this crate, timing each layer's
/// public entry point: `warm_start_order`, one session `deploy_config`,
/// `Catchments::from_control_plane` and `Clustering::refine_logged` per
/// configuration, then `Dataset::from_campaign`/`to_json`.
fn replay(s: &Scenario) -> (Replay, Campaign) {
    fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *acc += start.elapsed();
        out
    }
    let mut r = Replay::default();
    let pass = Instant::now();
    let schedule = timed(&mut r.schedule_build, || s.schedule());
    let engine = timed(&mut r.engine_build, || s.engine());
    let order = timed(&mut r.order, || {
        trackdown_core::schedule::warm_start_order(&schedule)
    });
    let mut session = engine.session();
    let mut catchments: Vec<Option<Catchments>> = vec![None; schedule.len()];
    for &k in &order {
        let announcements = schedule[k].to_link_announcements();
        let outcome = timed(&mut r.deploy, || {
            session.deploy_config(&s.origin, &announcements, s.engine_cfg.max_events_factor)
        })
        .expect("schedule configurations are valid");
        r.events += outcome.events;
        r.disturbed += outcome.routes_disturbed;
        r.warm += usize::from(session.last_deploy_warm());
        r.capped += usize::from(!outcome.converged);
        catchments[k] = Some(timed(&mut r.extract, || {
            Catchments::from_control_plane(&outcome)
        }));
    }
    r.peak_nodes = session.peak_arena_nodes();
    drop(session);
    let catchments: Vec<Catchments> = catchments
        .into_iter()
        .map(|c| c.expect("every configuration deployed"))
        .collect();
    let tracked: Vec<AsIndex> = s
        .gen
        .topology
        .indices()
        .filter(|&i| catchments[0].is_assigned(i))
        .collect();
    let (clustering, attribution) = timed(&mut r.refine, || {
        let mut clustering = Clustering::single(tracked.clone());
        let initial = clustering.num_clusters() as u32;
        let deltas: Vec<_> = catchments
            .iter()
            .map(|c| clustering.refine_logged(c))
            .collect();
        (clustering, AttributionIndex::new(initial, deltas))
    });
    r.splits = attribution.total_splits();
    let campaign = Campaign {
        configs: schedule,
        catchments,
        tracked,
        clustering,
        attribution,
        records: Vec::new(),
        imputation: None,
        stats: CampaignStats::default(),
    };
    let json = timed(&mut r.encode, || {
        Dataset::from_campaign(&s.gen.topology, &s.origin, &campaign)
            .to_json()
            .expect("a campaign dataset serializes")
    });
    r.bytes = json.len();
    r.wall = pass.elapsed();
    (r, campaign)
}

/// The traced pass: one untraced campaign for reference, the serial
/// replay, the topology generator, and the localization steps of a few
/// attacks, each timed from this crate.
fn traced(
    p: &Params,
    s: &Scenario,
    dataset: Option<Encoded>,
    oracle: &Campaign,
    tally: &mut Tally,
    report: &mut Vec<(&'static str, String)>,
) -> Result<Vec<Metric>, GateFailure> {
    let untraced = match dataset {
        Some(d) => d,
        None => {
            let e = encode_campaign(s);
            check_against_oracle(&e.campaign, oracle).map_err(|m| tally.fail(m))?;
            e
        }
    };
    let (r, replayed) = replay(s);
    let n_epochs = replayed.catchments.len() as u64;
    tally.attempted += n_epochs;
    tally.failed += r.capped as u64;
    if replayed.catchments != untraced.campaign.catchments
        || replayed.clustering.clusters() != untraced.campaign.clustering.clusters()
    {
        return Err(tally.fail("the traced replay does not reproduce the campaign".into()));
    }

    let start = Instant::now();
    black_box(generate(&topology_config(p.scale, TOPOLOGY_SEED)));
    let generate_ms = ms(start.elapsed());

    let n = s.gen.topology.num_ases();
    let attacks = p.attacks.min(TRACED_ATTACKS);
    let flows_before = ingest_flows();
    let mut steps: Vec<Vec<f64>> = vec![Vec::with_capacity(attacks); LOCALIZE_STEPS.len()];
    let (mut bound_sum, mut stable) = (0u64, 0usize);
    let mut laps = [Duration::ZERO; 6];
    for i in 0..attacks {
        let per_as = attack(n, p.seed, i);
        let campaign = decode(&untraced.json, &mut laps).map_err(|e| tally.fail(e))?;
        let l = attribute(&campaign, &per_as, &mut laps);
        check_sketch(&campaign, &l).map_err(|e| tally.fail(format!("attack {i}: {e}")))?;
        for (j, d) in laps.iter().enumerate() {
            steps[j].push(ms(*d));
        }
        bound_sum += l.ranked.error_bound;
        stable += usize::from(l.ranked.stable);
        tally.attempted += 1;
    }
    let flows_per_attack = (ingest_flows() - flows_before) as f64 / attacks.max(1) as f64;

    let campaign_s = untraced.secs;
    let reused = r.warm as f64 / n_epochs.max(1) as f64;
    report.push(("attacks", attacks.to_string()));
    report.push((
        "executor",
        executor_json(p, &untraced.campaign, Some(reused)),
    ));

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let mut metrics = vec![
        m("topology.generate_ms", generate_ms, "ms"),
        m("schedule.build_ms", ms(r.schedule_build), "ms"),
        m("schedule.order_ms", ms(r.order), "ms"),
        m("bgp.engine_ms", ms(r.engine_build), "ms"),
        m("bgp.deploy_ms", ms(r.deploy), "ms"),
        m("bgp.events", r.events as f64, "count"),
        m(
            "campaign.events",
            untraced.campaign.stats.events as f64,
            "count",
        ),
        m("bgp.routes_disturbed", r.disturbed as f64, "count"),
        m(
            "bgp.events_per_disturbed",
            r.events as f64 / r.disturbed.max(1) as f64,
            "ratio",
        ),
        m("bgp.reused_epochs_frac", reused, "frac"),
        m("bgp.event_cap_hits", r.capped as f64, "count"),
        m("bgp.arena.peak_nodes", r.peak_nodes as f64, "count"),
        m("catchment.extract_ms", ms(r.extract), "ms"),
        m("cluster.refine_ms", ms(r.refine), "ms"),
        m("cluster.splits", r.splits as f64, "count"),
        m(
            "campaign.parallel_gain",
            r.layer_sum().as_secs_f64() / campaign_s,
            "ratio",
        ),
        m("dataset.encode_ms", ms(r.encode), "ms"),
        m("dataset.bytes", r.bytes as f64, "bytes"),
    ];
    for (j, name) in LOCALIZE_STEPS.iter().enumerate() {
        metrics.push(m(name, median(&steps[j]), "ms"));
    }
    metrics.extend([
        m("traffic.ingest.flows", flows_per_attack, "count"),
        m(
            "attr.sketch_error_bound",
            bound_sum as f64 / attacks.max(1) as f64,
            "bytes",
        ),
        m(
            "attr.rank_stable_frac",
            stable as f64 / attacks.max(1) as f64,
            "frac",
        ),
        m(
            "trace.overhead_pct",
            100.0 * (r.wall.as_secs_f64() - campaign_s) / campaign_s,
            "%",
        ),
        m(
            "trace.coverage_pct",
            100.0 * r.layer_sum().as_secs_f64() / r.wall.as_secs_f64(),
            "%",
        ),
    ]);
    Ok(metrics)
}

fn ingest_flows() -> u64 {
    trackdown_obs::global()
        .snapshot()
        .counters
        .get("traffic.ingest.flows")
        .copied()
        .unwrap_or(0)
}
