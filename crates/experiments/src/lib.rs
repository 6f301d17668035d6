//! # trackdown-experiments
//!
//! Reproduction harnesses for every table and figure in the paper's
//! evaluation (§V). Each binary regenerates one artifact:
//!
//! | binary   | artifact  | content |
//! |----------|-----------|---------|
//! | `table1` | Table I   | PoPs and providers of the (simulated) platform |
//! | `fig3`   | Figure 3  | CCDF of cluster sizes after each phase |
//! | `fig4`   | Figure 4  | mean/p90 cluster size vs number of configurations |
//! | `fig5`   | Figure 5  | mean cluster size when removing peering locations |
//! | `fig6`   | Figure 6  | CCDF of cluster sizes after removing locations |
//! | `fig7`   | Figure 7  | cluster size vs AS-hop distance from the origin |
//! | `fig8`   | Figure 8  | random vs greedy configuration schedules |
//! | `fig9`   | Figure 9  | fraction of ASes following known routing policies |
//! | `fig10`  | Figure 10 | traffic volume vs cluster size per source distribution |
//! | `table2` | Table II  | qualitative comparison of traceback approaches |
//! | `run_all`| all       | everything above, written to `results/` |
//!
//! Absolute values differ from the paper (the substrate is a synthetic
//! Internet, not PEERING + RouteViews + Atlas); the *shapes* are the
//! reproduction target. Every binary accepts `--scale
//! small|medium|full|large|internet` (default `full`), `--seed <u64>`,
//! and `--shards <n|auto>` (sharded catchment extraction for the larger
//! scales). The `internet` scale loads a real CAIDA `as-rel` snapshot
//! from the path in `TRACKDOWN_AS_REL` when that variable is set, and
//! falls back to a deterministic 80 000-AS power-law graph otherwise.

use std::collections::BTreeSet;
use trackdown_bgp::{
    BgpEngine, DeploymentBias, EngineConfig, ExtensionDeployment, LinkId, OriginAs, PolicyConfig,
    PolicyExtension,
};
use trackdown_core::generator::{full_schedule, phase_boundaries, GeneratorParams};
use trackdown_core::localize::{
    run_campaign_recorded, run_campaign_sharded_recorded, Campaign, CampaignMode, CatchmentSource,
};
use trackdown_core::report::{downsample, render_table, Series};
use trackdown_core::{AnnouncementConfig, Phase};
use trackdown_measure::{MeasurementConfig, MeasurementPlane};
use trackdown_obs::{progress, CampaignRecorder, RunInfo};
use trackdown_topology::cone::ConeInfo;
use trackdown_topology::gen::{generate, GeneratedTopology, TopologyConfig};

pub mod figures;
pub mod scenarios;

/// Experiment scale: trades fidelity for runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈120 ASes, 4 PoPs — smoke-test scale (seconds).
    Small,
    /// ≈600 ASes, 5 PoPs — development scale.
    Medium,
    /// ≈2000 ASes, 7 PoPs — the paper-like scale (default).
    Full,
    /// ≈12 000 ASes (power-law generator), 7 PoPs — the paper-scale
    /// workload the sharded batch-catchment engine targets. The schedule
    /// is trimmed (one-removal locations, capped poisons) so runtime is
    /// dominated by propagation + extraction over the large graph.
    Large,
    /// 80 000 ASes, 7 PoPs — real-Internet scale, the size of the CAIDA
    /// as-rel snapshots the paper consumes \[28\]. Loads the snapshot at
    /// `TRACKDOWN_AS_REL` when set (tiers/regions classified from the
    /// link structure), else generates a deterministic power-law graph.
    /// The schedule is trimmed harder than `large` so runtime stays
    /// dominated by per-configuration propagation over the huge graph.
    Internet,
}

impl Scale {
    /// Parse from a `--scale` argument value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            "large" => Some(Scale::Large),
            "internet" => Some(Scale::Internet),
            _ => None,
        }
    }

    /// The `--scale` argument spelling (manifest `scale` field).
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Full => "full",
            Scale::Large => "large",
            Scale::Internet => "internet",
        }
    }
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Experiment scale.
    pub scale: Scale,
    /// Topology seed.
    pub seed: u64,
    /// Obtain catchments through the simulated observation plane (BGP
    /// feeds + noisy traceroutes + visibility imputation) instead of the
    /// control-plane oracle — closest to the paper's §IV pipeline, where
    /// only feed/probe-visible sources enter the analysis.
    pub measured: bool,
    /// Cold-start every configuration from scratch instead of the default
    /// warm-start epoch reuse. Slower; kept as the reference oracle.
    pub cold: bool,
    /// Delta-propagate epoch transitions: diff each configuration against
    /// the previous one, seed only changed providers, and schedule the
    /// queue in customer-cone rank order. Identical results to warm/cold
    /// (enforced by `tests/delta_differential.rs`), least work per epoch.
    pub delta: bool,
    /// Catchment-extraction shards per configuration (`--shards <n|auto>`,
    /// default `auto`). Shards split each fixpoint's extraction into
    /// AS-index ranges processed as a work-stealing batch; results are
    /// identical for every value — this is purely a load-balancing knob
    /// for large topologies. `0` (the `auto` spelling) tunes the count
    /// from the worker-thread count and topology size.
    pub shards: usize,
    /// Worker-thread override (`--threads`). Defaults to the machine's
    /// available parallelism. Results are thread-count-invariant; this
    /// pins the executor shape for profiling and benches.
    pub threads: Option<usize>,
    /// Write a JSONL run manifest (run header, one epoch line per
    /// configuration, metrics snapshot) to this path after each campaign.
    pub metrics_out: Option<String>,
    /// Suppress every wall-clock-derived manifest field so two runs of
    /// the same campaign produce byte-identical manifests.
    pub metrics_deterministic: bool,
    /// Defense-policy extensions to deploy (`--defense
    /// <name>=<fraction>[:<bias>]`, repeatable). Empty reproduces the
    /// extension-free engine bit-for-bit.
    pub defenses: Vec<ExtensionDeployment>,
    /// Streaming-sketch geometry (`--sketch WIDTHxDEPTH`): attribute
    /// volumes through a count-min sketch of this shape instead of exact
    /// dense counters. `None` keeps the exact path.
    pub sketch: Option<(usize, usize)>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            scale: Scale::Full,
            seed: 0x5eed_0001,
            measured: false,
            cold: false,
            delta: false,
            shards: 0,
            threads: None,
            metrics_out: None,
            metrics_deterministic: false,
            defenses: Vec::new(),
            sketch: None,
        }
    }
}

/// Parse one `--sketch` operand: `WIDTHxDEPTH` (e.g. `64x4`), both
/// positive.
pub fn parse_sketch(s: &str) -> Option<(usize, usize)> {
    let (w, d) = s.split_once('x')?;
    let width: usize = w.parse().ok().filter(|&v| v >= 1)?;
    let depth: usize = d.parse().ok().filter(|&v| v >= 1)?;
    Some((width, depth))
}

/// Parse one `--defense` operand: `<name>=<fraction>[:<bias>]` with
/// `name` a [`PolicyExtension`] label (e.g. `aspa`, `peerlock-lite`),
/// `fraction` in `[0, 1]`, and `bias` one of `uniform|core|stub`
/// (default `core`).
pub fn parse_defense(s: &str) -> Option<ExtensionDeployment> {
    let (name, rest) = s.split_once('=')?;
    let extension = PolicyExtension::parse(name)?;
    let (frac, bias) = match rest.split_once(':') {
        Some((f, b)) => (f, Some(b)),
        None => (rest, None),
    };
    let fraction: f64 = frac.parse().ok().filter(|f| (0.0..=1.0).contains(f))?;
    let bias = match bias {
        None => DeploymentBias::default(),
        Some("uniform") => DeploymentBias::Uniform,
        Some("core") => DeploymentBias::Core,
        Some("stub") => DeploymentBias::Stub,
        Some(_) => return None,
    };
    Some(ExtensionDeployment {
        extension,
        fraction,
        bias,
    })
}

impl Options {
    /// Parse `--scale` and `--seed` from process arguments; exits with a
    /// usage message on malformed input.
    pub fn from_args() -> Options {
        Options::from_args_filtered(&[])
    }

    /// [`Options::from_args`], skipping any flag named in `ignore` —
    /// binaries with extra flags (e.g. `defense --check`) parse those
    /// themselves and pass the rest through here. A plain entry skips one
    /// boolean flag; an entry ending in `=` (e.g. `"--fraction="`) skips
    /// the flag *and* its value token.
    pub fn from_args_filtered(ignore: &[&str]) -> Options {
        let mut opts = Options::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            if ignore.contains(&args[i].as_str()) {
                i += 1;
                continue;
            }
            if ignore
                .iter()
                .any(|ig| ig.strip_suffix('=') == Some(args[i].as_str()))
            {
                i += 2; // value flag: skip the flag and its operand
                continue;
            }
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    opts.scale = args
                        .get(i)
                        .and_then(|v| Scale::parse(v))
                        .unwrap_or_else(|| usage());
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--measured" => opts.measured = true,
                "--cold" => opts.cold = true,
                "--delta" => opts.delta = true,
                "--shards" => {
                    i += 1;
                    opts.shards = match args.get(i).map(String::as_str) {
                        Some("auto") => 0,
                        Some(v) => v.parse().ok().unwrap_or_else(|| usage()),
                        None => usage(),
                    };
                }
                "--threads" => {
                    i += 1;
                    opts.threads = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&s| s >= 1)
                            .unwrap_or_else(|| usage()),
                    );
                }
                "--metrics-out" => {
                    i += 1;
                    opts.metrics_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
                }
                "--metrics-deterministic" => opts.metrics_deterministic = true,
                "--sketch" => {
                    i += 1;
                    opts.sketch = Some(
                        args.get(i)
                            .and_then(|v| parse_sketch(v))
                            .unwrap_or_else(|| usage()),
                    );
                }
                "--defense" => {
                    i += 1;
                    let d = args
                        .get(i)
                        .and_then(|v| parse_defense(v))
                        .unwrap_or_else(|| usage());
                    opts.defenses.push(d);
                }
                "--help" | "-h" => usage(),
                other => {
                    eprintln!("unknown argument: {other}");
                    usage()
                }
            }
            i += 1;
        }
        // Span timing is opt-in via TRACKDOWN_SPANS=1 (stderr sink).
        trackdown_obs::init_spans_from_env();
        opts
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: <experiment> [--scale small|medium|full|large|internet] [--seed <u64>] \
         [--measured] [--cold] [--delta] [--shards <n|auto>] [--threads <n>] \
         [--metrics-out FILE] [--metrics-deterministic] [--sketch WIDTHxDEPTH] \
         [--defense <name>=<fraction>[:<bias>]]...\n\
         defenses: rov, peer-rov, aspa, peerlock-lite, only-to-customers, \
         enforce-first-as, edge-filter; bias: uniform|core|stub (default core)"
    );
    std::process::exit(2)
}

/// Build the `internet`-scale topology: the CAIDA `as-rel` snapshot at
/// `TRACKDOWN_AS_REL` when that variable is set and non-empty (tiers and
/// regions classified from the link structure), otherwise the
/// deterministic 80k-AS power-law fallback in `fallback`. Exits with a
/// diagnostic when the file cannot be read or parsed — a half-loaded
/// Internet is worse than none.
fn internet_topology(fallback: &TopologyConfig) -> GeneratedTopology {
    match std::env::var("TRACKDOWN_AS_REL") {
        Ok(path) if !path.is_empty() => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: reading TRACKDOWN_AS_REL file {path}: {e}");
                std::process::exit(1);
            });
            let topo = trackdown_topology::serfmt::parse_as_rel(&text).unwrap_or_else(|e| {
                eprintln!("error: parsing TRACKDOWN_AS_REL file {path}: {e}");
                std::process::exit(1);
            });
            progress::emit(
                "topology.as_rel_loaded",
                &[
                    ("path", path.clone()),
                    ("ases", topo.num_ases().to_string()),
                ],
            );
            GeneratedTopology::from_topology(topo, fallback.num_regions)
        }
        _ => generate(fallback),
    }
}

/// Stem of the running executable (manifest `name` field).
fn program_name() -> String {
    std::env::args()
        .next()
        .and_then(|a| {
            std::path::Path::new(&a)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "trackdown".into())
}

/// A fully-built experiment scenario: topology, origin, engine
/// configuration, and schedule parameters.
pub struct Scenario {
    /// The generated topology and metadata.
    pub gen: GeneratedTopology,
    /// The multi-PoP origin.
    pub origin: OriginAs,
    /// Engine (policy) configuration.
    pub engine_cfg: EngineConfig,
    /// Schedule generation parameters.
    pub params: GeneratorParams,
    /// Scale this scenario was built at.
    pub scale: Scale,
    /// Topology seed the scenario was built from.
    pub seed: u64,
    /// Whether campaigns run through the measurement plane.
    pub measured: bool,
    /// Whether campaigns cold-start every configuration (reference oracle).
    pub cold: bool,
    /// Whether campaigns delta-propagate epoch transitions.
    pub delta: bool,
    /// Catchment-extraction shards per configuration.
    pub shards: usize,
    /// Worker-thread override (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Run-manifest output path ([`Scenario::run`] writes it when set).
    pub metrics_out: Option<String>,
    /// Whether manifests suppress wall-clock fields.
    pub metrics_deterministic: bool,
}

impl Scenario {
    /// Build the scenario for the given options.
    pub fn build(opts: Options) -> Scenario {
        let (topo_cfg, pops, params) = match opts.scale {
            Scale::Small => (
                TopologyConfig::small(opts.seed),
                4,
                GeneratorParams {
                    max_removals: 2,
                    max_poison_configs: Some(20),
                },
            ),
            Scale::Medium => (
                TopologyConfig::medium(opts.seed),
                5,
                GeneratorParams {
                    max_removals: 2,
                    max_poison_configs: Some(60),
                },
            ),
            Scale::Full => (
                TopologyConfig {
                    seed: opts.seed,
                    ..TopologyConfig::default()
                },
                7,
                GeneratorParams {
                    max_removals: 3,
                    max_poison_configs: None,
                },
            ),
            Scale::Large => (
                TopologyConfig::large(opts.seed),
                7,
                GeneratorParams {
                    max_removals: 1,
                    max_poison_configs: Some(24),
                },
            ),
            Scale::Internet => (
                TopologyConfig::internet(opts.seed),
                7,
                GeneratorParams {
                    max_removals: 1,
                    max_poison_configs: Some(8),
                },
            ),
        };
        let gen = if opts.scale == Scale::Internet {
            internet_topology(&topo_cfg)
        } else {
            generate(&topo_cfg)
        };
        let origin = OriginAs::peering_style(&gen, pops);
        let mut policy = PolicyConfig {
            seed: opts.seed ^ 0x9_11C7,
            ..PolicyConfig::default()
        };
        policy.extensions.deployments = opts.defenses.clone();
        let engine_cfg = EngineConfig {
            policy,
            ..EngineConfig::default()
        };
        Scenario {
            gen,
            origin,
            engine_cfg,
            params,
            scale: opts.scale,
            seed: opts.seed,
            measured: opts.measured,
            cold: opts.cold,
            delta: opts.delta,
            shards: opts.shards,
            threads: opts.threads,
            metrics_out: opts.metrics_out,
            metrics_deterministic: opts.metrics_deterministic,
        }
    }

    /// Build the BGP engine (borrows the scenario's topology).
    pub fn engine(&self) -> BgpEngine<'_> {
        BgpEngine::new(&self.gen.topology, &self.engine_cfg)
    }

    /// The full three-phase schedule.
    pub fn schedule(&self) -> Vec<AnnouncementConfig> {
        full_schedule(&self.gen.topology, &self.origin, &self.params)
    }

    /// Deploy the full schedule. By default, catchments are ground-truth
    /// control plane; with `--measured` they pass through the simulated
    /// observation plane (the paper's §IV pipeline), which restricts the
    /// tracked set to feed/probe-visible sources and adds measurement
    /// noise. Campaigns warm-start each configuration from the previous
    /// converged routing state unless `--cold` forces per-configuration
    /// cold starts (the slower reference oracle).
    pub fn run(&self) -> Campaign {
        // Attach a recorder only when a manifest was requested; with
        // `None` the executors skip all instrumentation work.
        let recorder = self
            .metrics_out
            .as_ref()
            .map(|_| CampaignRecorder::new(self.metrics_deterministic));
        let campaign = self.run_recorded(recorder.as_ref());
        if let (Some(path), Some(rec)) = (&self.metrics_out, &recorder) {
            match self.write_manifest(path, rec, &campaign) {
                Ok(()) => progress::emit("manifest.written", &[("path", path.clone())]),
                Err(e) => {
                    eprintln!("error: writing metrics manifest {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        campaign
    }

    /// [`Scenario::run`] with an explicit (optional) epoch recorder and
    /// no manifest writing — the building block `run` wraps.
    pub fn run_recorded(&self, recorder: Option<&CampaignRecorder>) -> Campaign {
        let engine = self.engine();
        let schedule = self.schedule();
        let mode = if self.cold {
            CampaignMode::Cold
        } else if self.delta {
            CampaignMode::Delta
        } else {
            CampaignMode::Warm
        };
        if self.measured {
            let cones = ConeInfo::compute(&self.gen.topology);
            let plane =
                MeasurementPlane::new(&self.gen.topology, &cones, &MeasurementConfig::default());
            run_campaign_recorded(
                &engine,
                &self.origin,
                &schedule,
                CatchmentSource::Measured,
                Some(&plane),
                self.engine_cfg.max_events_factor,
                mode,
                recorder,
            )
        } else {
            // Independent configurations propagate in parallel — the
            // simulation analog of deploying on multiple prefixes
            // concurrently (§V-C) — and each fixpoint's catchment
            // extraction is sharded into a work-stealing batch
            // (`--shards`; 1 keeps whole-topology extraction).
            let threads = self.threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            run_campaign_sharded_recorded(
                &engine,
                &self.origin,
                &schedule,
                CatchmentSource::ControlPlane,
                self.engine_cfg.max_events_factor,
                threads,
                self.shards,
                mode,
                recorder,
            )
        }
    }

    /// The manifest run header for a finished campaign of this scenario.
    pub fn run_info(&self, campaign: &Campaign) -> RunInfo {
        RunInfo {
            name: program_name(),
            seed: self.seed,
            policy_seed: self.engine_cfg.policy.seed,
            scale: self.scale.label().into(),
            mode: if self.cold {
                "cold"
            } else if self.delta {
                "delta"
            } else {
                "warm"
            }
            .into(),
            threads: campaign.stats.threads,
            shards: campaign.stats.shards,
            trace: trackdown_obs::trace_config_label(),
            schedule_len: campaign.configs.len(),
            deterministic: self.metrics_deterministic,
        }
    }

    /// Write the JSONL run manifest for a finished campaign.
    pub fn write_manifest(
        &self,
        path: &str,
        recorder: &CampaignRecorder,
        campaign: &Campaign,
    ) -> std::io::Result<()> {
        trackdown_obs::write_manifest(
            path,
            &self.run_info(campaign),
            &recorder.take_records(),
            Some(&trackdown_obs::global().snapshot()),
        )
    }

    /// Emit the uniform `obs scenario ...` header event (replaces the
    /// old ad-hoc `eprintln!("# ...")` prints in the binaries).
    pub fn announce(&self) {
        trackdown_obs::progress!(
            "scenario",
            name = program_name(),
            scale = self.scale.label(),
            seed = self.seed,
            ases = self.gen.topology.num_ases(),
            links = self.gen.topology.num_links(),
            origin = self.origin.asn,
            pops = self.origin.num_links(),
            measured = self.measured,
            cold = self.cold,
            delta = self.delta
        );
    }

    /// Footprint link-id set covering all links.
    pub fn all_links(&self) -> BTreeSet<LinkId> {
        self.origin.link_ids().collect()
    }

    /// Human description for report headers.
    pub fn describe(&self) -> String {
        format!(
            "{:?} scale: {} ASes, {} links, origin {} with {} PoPs",
            self.scale,
            self.gen.topology.num_ases(),
            self.gen.topology.num_links(),
            self.origin.asn,
            self.origin.num_links(),
        )
    }
}

/// Emit the uniform `obs campaign.stats ...` event for a finished
/// campaign: execution counters plus localization quality headline.
///
/// `mode` is the requested executor. When policy violators made the
/// session cold-start every deployment instead, the line adds
/// `mode_effective=cold warm_reuse_disabled=violators:N`.
pub fn report_stats(campaign: &Campaign) {
    trackdown_obs::progress::emit("campaign.stats", &stats_fields(campaign));
}

/// The `campaign.stats` fields of [`report_stats`], in line order.
fn stats_fields(campaign: &Campaign) -> Vec<(&'static str, String)> {
    let stats = &campaign.stats;
    let mut fields = vec![("mode", format!("{:?}", stats.mode).to_lowercase())];
    if stats.warm_reuse_disabled_violators > 0 {
        fields.push(("mode_effective", "cold".to_string()));
        fields.push((
            "warm_reuse_disabled",
            format!("violators:{}", stats.warm_reuse_disabled_violators),
        ));
    }
    fields.extend([
        ("configs", campaign.configs.len().to_string()),
        ("tracked", campaign.tracked.len().to_string()),
        ("propagations", stats.propagations.to_string()),
        ("memo_hits", stats.memo_hits.to_string()),
        ("cold_restarts", stats.cold_restarts.to_string()),
        ("threads", stats.threads.to_string()),
        ("shards", stats.shards.to_string()),
        (
            "mean_cluster_size",
            format!("{:.3}", campaign.clustering.mean_size()),
        ),
    ]);
    fields
}

/// Render a campaign's phase boundaries as text (used by several figures).
pub fn phase_summary(campaign: &Campaign) -> String {
    let bounds = phase_boundaries(&campaign.configs);
    let rows: Vec<Vec<String>> = bounds
        .iter()
        .map(|(phase, end)| {
            let idx = end - 1;
            vec![
                phase.to_string(),
                end.to_string(),
                format!("{:.3}", campaign.records[idx].mean_cluster_size),
                campaign.records[idx].p90_cluster_size.to_string(),
                campaign.records[idx].num_clusters.to_string(),
            ]
        })
        .collect();
    render_table(&["phase", "configs", "mean size", "p90", "clusters"], &rows)
}

/// Format `(x, y)` series for terminal output: an ASCII sketch of the
/// curves followed by a downsampled CSV block.
pub fn print_series(title: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let compact: Vec<Series> = series
        .iter()
        .map(|s| Series {
            name: s.name.clone(),
            points: downsample(&s.points, 40),
        })
        .collect();
    out.push_str(&trackdown_core::report::ascii_plot(&compact, 64, 16));
    out.push('\n');
    out.push_str(&trackdown_core::report::to_csv(&compact));
    out
}

/// Phase boundary prefixes (Figure 3's three distributions).
pub fn phase_prefixes(configs: &[AnnouncementConfig]) -> Vec<(Phase, usize)> {
    phase_boundaries(configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds_and_runs() {
        let opts = Options {
            scale: Scale::Small,
            seed: 3,
            ..Options::default()
        };
        let s = Scenario::build(opts);
        assert_eq!(s.origin.num_links(), 4);
        let campaign = s.run();
        assert!(!campaign.records.is_empty());
        assert!(campaign.clustering.mean_size() >= 1.0);
        let summary = phase_summary(&campaign);
        assert!(summary.contains("location"));
        assert!(summary.contains("poisoning"));
    }

    #[test]
    fn stats_say_when_violators_force_cold_starts() {
        let small = |cold| Options {
            scale: Scale::Small,
            seed: 3,
            cold,
            ..Options::default()
        };
        let s = Scenario::build(small(false));
        let violators = s.engine().policy().num_violators();
        assert!(violators > 0, "the default policy has violators");
        let fields = stats_fields(&s.run());
        let get = |k: &str| fields.iter().find(|(f, _)| *f == k).map(|(_, v)| v.clone());
        assert_eq!(get("mode").as_deref(), Some("warm"));
        assert_eq!(get("mode_effective").as_deref(), Some("cold"));
        assert_eq!(
            get("warm_reuse_disabled"),
            Some(format!("violators:{violators}"))
        );
        // A requested cold run is exactly what ran: nothing to add.
        let cold = stats_fields(&Scenario::build(small(true)).run());
        assert!(cold.iter().all(|(f, _)| *f != "mode_effective"));
        assert!(cold.iter().any(|(f, v)| *f == "mode" && v == "cold"));
    }

    #[test]
    fn defense_parsing() {
        let d = parse_defense("aspa=0.5").expect("valid");
        assert_eq!(d.extension, PolicyExtension::Aspa);
        assert_eq!(d.fraction, 0.5);
        assert_eq!(d.bias, DeploymentBias::Core);
        let d = parse_defense("peerlock-lite=1.0:stub").expect("valid");
        assert_eq!(d.extension, PolicyExtension::PeerlockLite);
        assert_eq!(d.bias, DeploymentBias::Stub);
        let d = parse_defense("rov=0:uniform").expect("valid");
        assert_eq!(d.bias, DeploymentBias::Uniform);
        assert!(parse_defense("aspa").is_none(), "missing fraction");
        assert!(parse_defense("bgpsec=0.5").is_none(), "unknown extension");
        assert!(parse_defense("aspa=1.5").is_none(), "fraction out of range");
        assert!(parse_defense("aspa=0.5:everywhere").is_none(), "bad bias");
    }

    #[test]
    fn defenses_reach_the_engine_policy() {
        let mut opts = Options {
            scale: Scale::Small,
            seed: 3,
            ..Options::default()
        };
        opts.defenses = vec![parse_defense("edge-filter=1.0").expect("valid")];
        let s = Scenario::build(opts);
        let n = s.gen.topology.num_ases();
        let table = s.engine();
        assert_eq!(
            table.policy().num_deployers(PolicyExtension::EdgeFilter),
            n,
            "fraction 1.0 must deploy universally"
        );
        assert_eq!(table.policy().num_deployers(PolicyExtension::Aspa), 0);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("internet"), Some(Scale::Internet));
        assert_eq!(Scale::parse("x"), None);
        for s in [
            Scale::Small,
            Scale::Medium,
            Scale::Full,
            Scale::Large,
            Scale::Internet,
        ] {
            assert_eq!(Scale::parse(s.label()), Some(s));
        }
    }

    #[test]
    fn sharded_scenario_matches_unsharded() {
        let base = Options {
            scale: Scale::Small,
            seed: 3,
            ..Options::default()
        };
        let unsharded = Scenario::build(Options {
            shards: 1,
            ..base.clone()
        })
        .run();
        let scenario = Scenario::build(Options {
            shards: 8,
            ..base.clone()
        });
        let n = scenario.gen.topology.num_ases();
        let sharded = scenario.run();
        assert_eq!(sharded.catchments, unsharded.catchments);
        assert_eq!(sharded.tracked, unsharded.tracked);
        assert_eq!(sharded.records, unsharded.records);
        assert_eq!(
            sharded.stats.shards,
            trackdown_core::localize::ShardPlan::new(n, 8).num_shards()
        );
        // The default (`--shards auto`) resolves to ≥ 1 shard and is
        // result-identical too.
        let auto = Scenario::build(base).run();
        assert!(auto.stats.shards >= 1);
        assert_eq!(auto.catchments, unsharded.catchments);
        assert_eq!(auto.records, unsharded.records);
    }
}
