//! `--metrics-deterministic` end to end: two runs of the same 2-thread
//! campaign must write byte-identical manifests, metrics record included.
//! The sharded executor's work-stealing counters vary with thread timing,
//! so they must not reach a deterministic manifest.

use std::path::PathBuf;
use std::process::Command;

fn campaign_manifest(run: usize) -> String {
    let dir = std::env::temp_dir();
    let stem = format!("trackdown-det-manifest-{}-{run}", std::process::id());
    let manifest: PathBuf = dir.join(format!("{stem}.jsonl"));
    let dataset: PathBuf = dir.join(format!("{stem}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_trackdown"))
        .args("campaign --scale medium --seed 7 --threads 2".split(' '))
        .args(["--metrics-deterministic", "--metrics-out"])
        .arg(&manifest)
        .arg("--out")
        .arg(&dataset)
        .output()
        .expect("run trackdown campaign");
    assert!(status.status.success(), "campaign failed: {status:?}");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    let _ = std::fs::remove_file(manifest);
    let _ = std::fs::remove_file(dataset);
    text
}

#[test]
fn deterministic_manifest_with_metrics_is_byte_identical_at_two_threads() {
    let first = campaign_manifest(0);
    let last = first.lines().last().unwrap_or("");
    assert!(last.contains("\"record\":\"metrics\""), "no metrics record");
    assert!(first.contains("\"campaign.shard_tasks\""));
    assert!(
        !first.contains("shard_steal"),
        "thread-timing counter leaked"
    );
    for run in 1..3 {
        assert_eq!(first, campaign_manifest(run), "run {run} diverged");
    }
}
