//! Smoke test of the benchmark itself: every workload at the `small`
//! preset with a tiny attack count emits every metric `BENCHMARK.json`
//! names, with its unit, and the correctness gates fire on corrupted
//! output.

use trackbench::{
    attribute, check_against_oracle, check_sketch, cold_oracle, decode, encode_campaign, run,
    scenario, Params, Workload,
};
use trackdown_bgp::LinkId;
use trackdown_experiments::Scale;
use trackdown_topology::AsIndex;
use trackdown_traffic::VolumeAccumulator;

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"));
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    let values = |key: &str| -> Vec<String> {
        body.split(&format!("\"{key}\""))
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted value").to_string())
            .collect()
    };
    let (names, units) = (values("name"), values("unit"));
    assert_eq!(names.len(), units.len(), "every {list} metric has a unit");
    assert!(!names.is_empty());
    names.into_iter().zip(units).collect()
}

fn small(workload: Workload, trace: bool) -> Params {
    let mut p = Params::new(workload, 7, 1, trace);
    p.scale = Scale::Small;
    p.campaigns = p.campaigns.min(1);
    p.attacks = 2;
    p
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for trace in [false, true] {
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        for w in Workload::ALL {
            let outcome = run(&small(w, trace))
                .unwrap_or_else(|f| panic!("{} gate failed: {}", w.name(), f.message));
            assert!(outcome.attempted >= 1);
            assert_eq!(
                outcome.failed,
                0,
                "{}: no epoch hits the event cap",
                w.name()
            );
            for (name, unit) in &want {
                let m = outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{} (trace {trace}) lacks {name}", w.name()));
                assert_eq!(m.unit, unit, "{}: unit of {name}", w.name());
                assert!(m.value.is_finite(), "{}: {name} = {}", w.name(), m.value);
            }
            assert_eq!(
                outcome.metrics.len(),
                want.len(),
                "{}: no extra metrics",
                w.name()
            );
            let result = outcome.result_json();
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
            for (name, _) in &want {
                assert!(result.contains(&format!("\"{name}\": {{\"value\": ")));
            }
        }
    }
}

#[test]
fn oracle_gate_fails_on_a_corrupted_catchment() {
    let p = small(Workload::PaperDefault, false);
    let mut s = scenario(&p);
    let mut campaign = encode_campaign(&s).campaign;
    let oracle = cold_oracle(&mut s);
    check_against_oracle(&campaign, &oracle).expect("the unmodified campaign passes");

    let k = campaign.catchments.len() / 2;
    let (i, link) = (0..campaign.catchments[k].len() as u32)
        .map(AsIndex)
        .find_map(|i| campaign.catchments[k].get(i).map(|l| (i, l)))
        .expect("some AS is routed");
    let other = LinkId::from_usize((link.us() + 1) % s.origin.num_links());
    campaign.catchments[k].set(i, Some(other));
    let err = check_against_oracle(&campaign, &oracle).expect_err("corruption is caught");
    assert!(err.contains(&format!("configuration {k}")), "{err}");
}

#[test]
fn sketch_gate_fails_on_an_inflated_counter() {
    let p = small(Workload::AttackLocalize, false);
    let s = scenario(&p);
    let json = encode_campaign(&s).json;
    let per_as = trackbench::attack(s.gen.topology.num_ases(), 1, 1);
    let mut laps = Default::default();
    let campaign = decode(&json, &mut laps).expect("dataset decodes");
    let mut a = attribute(&campaign, &per_as, &mut laps);
    check_sketch(&campaign, &a).expect("the unmodified sketch passes");
    let bound = a.ranked.error_bound;
    a.sketch.record(0, LinkId::from_usize(0), bound + 1);
    assert!(
        check_sketch(&campaign, &a).is_err(),
        "an over-bound counter is caught"
    );
}
