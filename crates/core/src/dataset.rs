//! The public dataset format (§VI).
//!
//! The paper releases its measurement dataset — announcement
//! configurations and the catchments observed under each — for reuse by
//! routing research ("our dataset contains at least four alternate routes
//! towards PEERING for each observed AS \[and\] thousands of route
//! changes"). This module defines the equivalent serialized artifact for
//! campaigns run on this stack: a self-contained JSON document from which
//! the clustering (and any downstream analysis) can be rebuilt without
//! rerunning BGP propagation.
//!
//! The catchment matrix (one entry per AS per configuration) is almost
//! all of the document, so [`Dataset::to_json`] and [`Dataset::from_json`]
//! stream it between the bitset rows and the text instead of building a
//! `serde::Value` per entry. The text is exactly what the serde derive on
//! [`Dataset`] prints and accepts; the derive is kept as the reference the
//! codec is tested against.

use crate::cluster::Clustering;
use crate::config::AnnouncementConfig;
use crate::localize::Campaign;
use serde::{DeError, Deserialize, Serialize};
use serde_json::{Reader, Writer};
use std::fmt;
use trackdown_bgp::{Catchments, LinkId, OriginAs};
use trackdown_topology::{AsIndex, Asn, Topology};

/// Current dataset format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors raised when loading a dataset.
#[derive(Debug)]
pub enum DatasetError {
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// The format version is unknown.
    UnsupportedVersion(u32),
    /// Internal inconsistency (counts disagree).
    Inconsistent(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Json(e) => write!(f, "dataset JSON error: {e}"),
            DatasetError::UnsupportedVersion(v) => {
                write!(f, "unsupported dataset version {v}")
            }
            DatasetError::Inconsistent(msg) => write!(f, "inconsistent dataset: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<serde_json::Error> for DatasetError {
    fn from(e: serde_json::Error) -> Self {
        DatasetError::Json(e)
    }
}

impl From<DeError> for DatasetError {
    fn from(e: DeError) -> Self {
        DatasetError::Json(e.into())
    }
}

/// A self-contained campaign dataset.
///
/// Read and write it with [`Dataset::from_json`] / [`Dataset::to_json`].
/// The serde derive defines the same wire format and is kept only as the
/// reference those two are tested against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// The origin network (links, prefix, platform limits).
    pub origin: OriginAs,
    /// ASN of every source index used by `catchments`/`tracked`.
    pub asns: Vec<Asn>,
    /// The deployed configurations, in order.
    pub configs: Vec<AnnouncementConfig>,
    /// Per-configuration catchments, indexed like `asns`.
    pub catchments: Vec<Catchments>,
    /// The tracked (analysis-set) sources, as indices into `asns`.
    pub tracked: Vec<AsIndex>,
}

impl Dataset {
    /// Capture a finished campaign.
    pub fn from_campaign(topo: &Topology, origin: &OriginAs, campaign: &Campaign) -> Dataset {
        Dataset {
            version: FORMAT_VERSION,
            origin: origin.clone(),
            asns: topo.asns().to_vec(),
            configs: campaign.configs.clone(),
            catchments: campaign.catchments.clone(),
            tracked: campaign.tracked.clone(),
        }
    }

    /// Serialize to pretty JSON: the text `serde_json::to_string_pretty`
    /// prints for this value, with each catchment's `assignment` array
    /// written straight from its bitset rows.
    pub fn to_json(&self) -> Result<String, DatasetError> {
        let mut w = Writer::pretty(4096);
        w.begin_object();
        w.key("version");
        w.value(&self.version)?;
        w.key("origin");
        w.value(&self.origin)?;
        w.key("asns");
        w.value(&self.asns)?;
        w.key("configs");
        w.value(&self.configs)?;
        // The catchment matrix and `tracked` are almost all of the text,
        // and their length is known before they are written.
        w.reserve_exact(self.tail_len_bound());
        w.key("catchments");
        w.begin_array();
        let mut dense = Vec::new();
        for c in &self.catchments {
            w.element();
            w.begin_object();
            w.key("assignment");
            w.begin_array();
            c.dense_into(&mut dense);
            for &link in &dense {
                w.element();
                match link {
                    Some(l) => w.u64(l.us() as u64),
                    None => w.null(),
                }
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("tracked");
        w.value(&self.tracked)?;
        w.end_object();
        Ok(w.finish())
    }

    /// An upper bound on the bytes [`Dataset::to_json`] writes from the
    /// `catchments` key to the end: one line per entry at its exact width
    /// (newline, indent, token, comma), plus a constant per container.
    fn tail_len_bound(&self) -> usize {
        const CONTAINER: usize = 64;
        let catchments: usize = self
            .catchments
            .iter()
            .map(|c| {
                let assigned: usize = c
                    .sizes()
                    .iter()
                    .map(|&(l, k)| k * decimal_width(l.us() as u64))
                    .sum();
                let unassigned = c.len() - c.assigned_count();
                c.len() * ("\n".len() + 8 + ",".len())
                    + assigned
                    + unassigned * "null".len()
                    + CONTAINER
            })
            .sum();
        let tracked: usize = self
            .tracked
            .iter()
            .map(|t| "\n".len() + 4 + decimal_width(t.us() as u64) + ",".len())
            .sum();
        catchments + tracked + 4 * CONTAINER
    }

    /// Load and validate from JSON. Accepts exactly the documents
    /// `serde_json::from_str::<Dataset>` accepts (unknown keys ignored,
    /// the first of duplicate keys wins) and returns the same value, but
    /// streams each catchment's `assignment` array into a reused dense
    /// buffer instead of building a `serde::Value` per entry. Every other
    /// field is converted as soon as its value is read, so no field's
    /// `Value` tree outlives its own member.
    pub fn from_json(text: &str) -> Result<Dataset, DatasetError> {
        let mut r = Reader::new(text);
        let mut version = None;
        let mut origin = None;
        let mut asns = None;
        let mut configs = None;
        let mut catchments = None;
        let mut tracked = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match key.as_str() {
                "version" if version.is_none() => version = Some(decode(&mut r)?),
                "origin" if origin.is_none() => origin = Some(decode(&mut r)?),
                "asns" if asns.is_none() => asns = Some(decode(&mut r)?),
                "configs" if configs.is_none() => configs = Some(decode(&mut r)?),
                "catchments" if catchments.is_none() => catchments = Some(read_catchments(&mut r)?),
                "tracked" if tracked.is_none() => tracked = Some(decode(&mut r)?),
                _ => {
                    r.value()?;
                }
            }
        }
        r.finish()?;
        let ds = Dataset {
            version: version.ok_or_else(|| missing("Dataset", "version"))?,
            origin: origin.ok_or_else(|| missing("Dataset", "origin"))?,
            asns: asns.ok_or_else(|| missing("Dataset", "asns"))?,
            configs: configs.ok_or_else(|| missing("Dataset", "configs"))?,
            catchments: catchments.ok_or_else(|| missing("Dataset", "catchments"))?,
            tracked: tracked.ok_or_else(|| missing("Dataset", "tracked"))?,
        };
        ds.validate()?;
        Ok(ds)
    }

    /// Internal consistency checks.
    pub fn validate(&self) -> Result<(), DatasetError> {
        if self.version != FORMAT_VERSION {
            return Err(DatasetError::UnsupportedVersion(self.version));
        }
        if self.configs.len() != self.catchments.len() {
            return Err(DatasetError::Inconsistent(format!(
                "{} configs but {} catchment maps",
                self.configs.len(),
                self.catchments.len()
            )));
        }
        for (k, c) in self.catchments.iter().enumerate() {
            if c.len() != self.asns.len() {
                return Err(DatasetError::Inconsistent(format!(
                    "catchment map {k} covers {} sources, expected {}",
                    c.len(),
                    self.asns.len()
                )));
            }
        }
        for &t in &self.tracked {
            if t.us() >= self.asns.len() {
                return Err(DatasetError::Inconsistent(format!(
                    "tracked index {t:?} out of range"
                )));
            }
        }
        if let Some(w) = self.tracked.windows(2).find(|w| w[0] >= w[1]) {
            return Err(DatasetError::Inconsistent(format!(
                "tracked sources not strictly ascending: {:?} then {:?}",
                w[0], w[1]
            )));
        }
        for (k, c) in self.catchments.iter().enumerate() {
            for l in c.active_links() {
                if !self.origin.links.iter().any(|p| p.id == l) {
                    return Err(DatasetError::Inconsistent(format!(
                        "catchment map {k} assigns undeclared link {l:?}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of deployed configurations.
    pub fn num_configs(&self) -> usize {
        self.configs.len()
    }

    /// Rebuild the clustering from the stored catchments — the downstream
    /// analysis entry point.
    pub fn rebuild_clustering(&self) -> Clustering {
        self.rebuild_attribution().0
    }

    /// Rebuild the clustering *and* its attribution index (refinement
    /// deltas, split log) from the stored catchments — what a [`Campaign`]
    /// reassembled from a dataset needs for incremental suspect ranking
    /// and volume estimation.
    pub fn rebuild_attribution(&self) -> (Clustering, crate::localize::AttributionIndex) {
        crate::localize::AttributionIndex::build(self.tracked.clone(), &self.catchments)
    }

    /// Number of distinct routes (catchment assignments) observed per
    /// tracked source — the paper advertises "at least four alternate
    /// routes towards PEERING for each observed AS".
    pub fn distinct_catchments_per_source(&self) -> Vec<usize> {
        self.tracked
            .iter()
            .map(|&s| {
                let mut links: Vec<_> = self.catchments.iter().filter_map(|c| c.get(s)).collect();
                links.sort_unstable();
                links.dedup();
                links.len()
            })
            .collect()
    }
}

/// Stream the `catchments` array: each element is a `Catchments` wire
/// object, `{"assignment": [link or null, ...]}`, decoded with the
/// derive's rules (unknown keys ignored, first `assignment` wins, each
/// entry converted by `Option<LinkId>`'s own `Deserialize`).
fn read_catchments(r: &mut Reader<'_>) -> Result<Vec<Catchments>, DatasetError> {
    let mut out = Vec::new();
    let mut dense: Vec<Option<LinkId>> = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        r.begin_object()?;
        let mut seen = false;
        while let Some(key) = r.next_key()? {
            if key == "assignment" && !seen {
                seen = true;
                dense.clear();
                r.begin_array()?;
                while r.next_element()? {
                    dense.push(Option::<LinkId>::from_value(&r.value()?)?);
                }
            } else {
                r.value()?;
            }
        }
        if !seen {
            return Err(missing("DenseForm", "assignment"));
        }
        out.push(Catchments::from_dense(&dense));
    }
    Ok(out)
}

/// Digits in the decimal form of `n`.
fn decimal_width(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Read the next value and convert it through its type's derive.
fn decode<T: Deserialize>(r: &mut Reader<'_>) -> Result<T, DatasetError> {
    Ok(T::from_value(&r.value()?)?)
}

fn missing(ty: &str, name: &str) -> DatasetError {
    DeError::custom(format!("{ty}: missing field `{name}`")).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, GeneratorParams};
    use crate::localize::{run_campaign, CatchmentSource};
    use trackdown_bgp::{BgpEngine, EngineConfig};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn small_dataset() -> (Dataset, Campaign) {
        let g = generate(&TopologyConfig::small(81));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(8),
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
        (
            Dataset::from_campaign(&g.topology, &origin, &campaign),
            campaign,
        )
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let (ds, _) = small_dataset();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn json_tail_bound_holds_and_is_tight() {
        let (mut ds, _) = small_dataset();
        // Unassigned entries print as `null`, the widest token.
        ds.catchments[0].set(AsIndex(0), None);
        let json = ds.to_json().unwrap();
        let tail = json.len() - json.find(",\n  \"catchments\"").unwrap();
        let bound = ds.tail_len_bound();
        assert!(tail <= bound, "tail {tail} exceeds bound {bound}");
        assert!(
            bound - tail <= 64 * (ds.catchments.len() + 4),
            "bound {bound} is loose for a tail of {tail}"
        );
    }

    #[test]
    fn rebuilt_clustering_matches_campaign() {
        let (ds, campaign) = small_dataset();
        let rebuilt = ds.rebuild_clustering();
        assert_eq!(rebuilt.num_clusters(), campaign.clustering.num_clusters());
        assert_eq!(rebuilt.mean_size(), campaign.clustering.mean_size());
        for &s in &campaign.tracked {
            for &t in &campaign.tracked {
                assert_eq!(
                    rebuilt.cluster_of(s) == rebuilt.cluster_of(t),
                    campaign.clustering.cluster_of(s) == campaign.clustering.cluster_of(t),
                );
            }
        }
    }

    #[test]
    fn route_diversity_guarantee() {
        // With max_removals = 2 the location phase alone guarantees at
        // least 3 distinct routes per source; count distinct catchments.
        let (ds, _) = small_dataset();
        let diversity = ds.distinct_catchments_per_source();
        assert!(!diversity.is_empty());
        let min = diversity.iter().min().copied().unwrap();
        assert!(min >= 2, "some source saw only {min} distinct catchments");
    }

    #[test]
    fn validation_catches_corruption() {
        let (ds, _) = small_dataset();
        let mut bad = ds.clone();
        bad.version = 99;
        assert!(matches!(
            bad.validate(),
            Err(DatasetError::UnsupportedVersion(99))
        ));
        let mut bad = ds.clone();
        bad.catchments.pop();
        assert!(matches!(bad.validate(), Err(DatasetError::Inconsistent(_))));
        let mut bad = ds;
        bad.tracked.push(AsIndex(1_000_000));
        assert!(matches!(bad.validate(), Err(DatasetError::Inconsistent(_))));
    }
}
