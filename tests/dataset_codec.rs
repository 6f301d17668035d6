//! The streaming dataset codec against its reference, the serde derive on
//! `Dataset`.
//!
//! `Dataset::to_json` must print exactly `serde_json::to_string_pretty`,
//! and `Dataset::from_json` must give the same verdict and the same value
//! as `serde_json::from_str::<Dataset>` followed by `validate`, on valid
//! documents and on mutated ones: byte flips, truncation, compact
//! re-encoding, reordered and duplicated keys, and odd catchment entries
//! (`-0`, `01`, `1.0`, `256`, `null`, a 20-digit overflow, `nul`,
//! undeclared links). Arbitrary bytes must come back as `Err`, never as a
//! panic. The validation checks `from_json` adds (strictly ascending
//! `tracked`, declared links only) are pinned with regression documents
//! built from the small preset.

use proptest::prelude::*;
use std::sync::OnceLock;
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::core::dataset::{Dataset, DatasetError};

fn preset(scale: Scale, measured: bool) -> Dataset {
    let s = Scenario::build(Options {
        scale,
        seed: 7,
        measured,
        ..Options::default()
    });
    let campaign = s.run();
    Dataset::from_campaign(&s.gen.topology, &s.origin, &campaign)
}

fn small() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| preset(Scale::Small, false))
}

/// The small preset cut to its first few configurations, so a mutated
/// document stays a few kilobytes.
fn trimmed() -> &'static (Dataset, String) {
    static DS: OnceLock<(Dataset, String)> = OnceLock::new();
    DS.get_or_init(|| {
        let mut ds = small().clone();
        ds.configs.truncate(3);
        ds.catchments.truncate(3);
        let text = serde_json::to_string_pretty(&ds).unwrap();
        (ds, text)
    })
}

/// The reference decode: the derive, then the same validation.
fn reference(text: &str) -> Result<Dataset, String> {
    let ds: Dataset = serde_json::from_str(text).map_err(|e| e.to_string())?;
    ds.validate().map_err(|e| e.to_string())?;
    Ok(ds)
}

/// `from_json` and the reference agree on `text`: both reject it, or
/// both accept it as the same dataset. Returns whether it was accepted.
fn agree(text: &str) -> bool {
    match (Dataset::from_json(text), reference(text)) {
        (Ok(a), Ok(b)) => {
            assert!(a == b, "decoded values differ");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!(
            "verdicts differ: from_json {:?} vs derive {:?} on a document starting {:?}",
            a.map(|_| "Ok"),
            b.map(|_| "Ok"),
            text.chars().take(200).collect::<String>()
        ),
    }
}

fn assert_encodes_like_derive(ds: &Dataset) {
    let text = ds.to_json().unwrap();
    assert_eq!(text, serde_json::to_string_pretty(ds).unwrap());
    assert!(agree(&text));
    assert_eq!(&Dataset::from_json(&text).unwrap(), ds);
}

#[test]
fn encoder_matches_derive_on_presets() {
    assert_encodes_like_derive(small());
    let measured = preset(Scale::Small, true);
    assert!(
        measured
            .catchments
            .iter()
            .any(|c| c.unassigned_ases().next().is_some()),
        "a measured dataset has null entries"
    );
    assert_encodes_like_derive(&measured);
    assert_encodes_like_derive(&preset(Scale::Medium, false));
}

#[test]
fn encoder_matches_derive_on_degenerate_datasets() {
    let mut none_tracked = small().clone();
    none_tracked.tracked.clear();
    assert_encodes_like_derive(&none_tracked);
    let mut no_configs = small().clone();
    no_configs.configs.clear();
    no_configs.catchments.clear();
    assert_encodes_like_derive(&no_configs);
    let mut nothing = no_configs;
    nothing.asns.clear();
    nothing.tracked.clear();
    assert_encodes_like_derive(&nothing);
}

#[test]
fn compact_encoding_decodes_the_same() {
    let (ds, _) = trimmed();
    let compact = serde_json::to_string(ds).unwrap();
    assert!(agree(&compact));
    assert_eq!(&Dataset::from_json(&compact).unwrap(), ds);
}

/// Line ranges of the assignment entries in a pretty document: lines
/// between `"catchments"` and `"tracked"` holding one scalar.
fn assignment_lines(lines: &[&str]) -> Vec<usize> {
    let start = lines
        .iter()
        .position(|l| l.starts_with("  \"catchments\""))
        .unwrap();
    let end = lines
        .iter()
        .position(|l| l.starts_with("  \"tracked\""))
        .unwrap();
    (start..end)
        .filter(|&i| {
            let t = lines[i].trim().trim_end_matches(',');
            t == "null" || t.bytes().all(|b| b.is_ascii_digit())
        })
        .collect()
}

/// Replace the token of assignment entry `pick` (modulo their number).
fn replace_entry(text: &str, pick: usize, token: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let entries = assignment_lines(&lines);
    let target = entries[pick % entries.len()];
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let comma = if lines[target].ends_with(',') {
        ","
    } else {
        ""
    };
    out[target] = format!("        {token}{comma}");
    out.join("\n")
}

/// The top-level members of a pretty document, each without its
/// trailing comma.
fn top_members(text: &str) -> Vec<String> {
    let body = &text[2..text.len() - 2]; // strip "{\n" and "\n}"
    let mut members: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.starts_with("  \"") {
            members.push(String::new());
        }
        let m = members.last_mut().unwrap();
        m.push_str(line);
        m.push('\n');
    }
    members
        .into_iter()
        .map(|m| m.trim_end().trim_end_matches(',').to_string())
        .collect()
}

fn join_members(members: &[String]) -> String {
    format!("{{\n{}\n}}", members.join(",\n"))
}

const ODD_ENTRIES: [&str; 17] = [
    "-0",
    "01",
    "00",
    "1.0",
    "1e0",
    "256",
    "-1",
    "null",
    "\"1\"",
    "[1]",
    "{}",
    "3",
    "200",
    "-",
    "18446744073709551616",
    "nul",
    "null1",
];

const DUPLICATES: [&str; 10] = [
    "\"version\": 1",
    "\"version\": 2",
    "\"tracked\": []",
    "\"tracked\": [0, 0]",
    "\"catchments\": []",
    "\"catchments\": \"garbage\"",
    "\"catchments\": [{\"assignment\": [1]}]",
    "\"asns\": []",
    "\"configs\": null",
    "\"extra\": {\"nested\": [1, 2.5, \"x\"]}",
];

proptest! {
    #[test]
    fn odd_catchment_entries_agree(pick in 0usize..100_000, which in 0usize..ODD_ENTRIES.len()) {
        let (_, text) = trimmed();
        let doc = replace_entry(text, pick, ODD_ENTRIES[which]);
        let accepted = agree(&doc);
        // Scalar rules: -0 and leading zeros read as integers; floats,
        // out-of-range and undeclared links are rejected.
        match ODD_ENTRIES[which] {
            "-0" | "01" | "00" | "null" | "3" => prop_assert!(accepted, "{} rejected", ODD_ENTRIES[which]),
            _ => prop_assert!(!accepted, "{} accepted", ODD_ENTRIES[which]),
        }
    }

    #[test]
    fn key_reorder_and_duplicates_agree(
        order in proptest::collection::vec(0u64..u64::MAX, 6),
        dup in 0usize..DUPLICATES.len(),
        front in any::<bool>(),
    ) {
        let (ds, text) = trimmed();
        let mut members = top_members(text);
        prop_assert_eq!(members.len(), 6);
        let mut keyed: Vec<(u64, String)> = order.into_iter().zip(members.drain(..)).collect();
        keyed.sort();
        let mut members: Vec<String> = keyed.into_iter().map(|(_, m)| m).collect();
        let reordered = join_members(&members);
        prop_assert!(agree(&reordered));
        prop_assert_eq!(&Dataset::from_json(&reordered).unwrap(), ds);
        let extra = format!("  {}", DUPLICATES[dup]);
        if front {
            members.insert(0, extra);
        } else {
            members.push(extra);
        }
        agree(&join_members(&members));
    }

    #[test]
    fn duplicate_and_unknown_catchment_keys_agree(pick in 0usize..3, variant in 0usize..4) {
        let (_, text) = trimmed();
        let replacement = [
            "\"assignment\": [], \"assignment\": [",
            "\"x\": {\"assignment\": 5}, \"assignment\": [",
            "\"assignment\": null, \"assignment\": [",
            "\"assignmen\": [",
        ][variant];
        let mut seen = 0;
        let doc: Vec<String> = text
            .lines()
            .map(|l| {
                if l.trim() == "\"assignment\": [" {
                    seen += 1;
                    if seen - 1 == pick {
                        return l.replace("\"assignment\": [", replacement);
                    }
                }
                l.to_string()
            })
            .collect();
        let accepted = agree(&doc.join("\n"));
        prop_assert_eq!(accepted, variant == 1);
    }

    #[test]
    fn byte_flips_and_truncation_agree(
        flips in proptest::collection::vec((0usize..1 << 20, any::<u8>()), 1..4),
        cut in 0usize..1 << 20,
        compact in any::<bool>(),
        truncate in any::<bool>(),
    ) {
        let (ds, pretty) = trimmed();
        let base = if compact { serde_json::to_string(ds).unwrap() } else { pretty.clone() };
        let mut bytes = base.into_bytes();
        const ALPHABET: &[u8] = b"{}[],:\"0123456789-.eE nul\\xtra";
        for (pos, b) in flips {
            let at = pos % bytes.len();
            bytes[at] = if b & 1 == 0 { ALPHABET[b as usize % ALPHABET.len()] } else { b };
        }
        if truncate {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        agree(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_token_soup_agrees(tokens in proptest::collection::vec(0usize..24, 0..64)) {
        const TOKENS: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", "\"version\"", "\"catchments\"", "\"assignment\"",
            "\"tracked\"", "\"asns\"", "1", "0", "-0", "null", "true", "\"\\uD800\\u0041\"",
            "\"\\uDE00\"", "1.5", "256", " ", "\"", "\\", "\"\\u12",
        ];
        let doc: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        agree(&doc);
    }

    #[test]
    fn arbitrary_bytes_are_errors(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(Dataset::from_json(&text).is_err());
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":", "{\"catchments\":[{\"assignment\":"] {
        let doc = open.repeat(200_000);
        assert!(Dataset::from_json(&doc).is_err());
        assert!(reference(&doc).is_err());
    }
}

fn inconsistent(text: &str) -> String {
    match Dataset::from_json(text) {
        Err(DatasetError::Inconsistent(msg)) => msg,
        other => panic!("expected an Inconsistent error, got {other:?}"),
    }
}

/// A duplicated `tracked` entry used to load as "119 sources (122
/// tracked)" and name AS100 twice in a suspect cluster.
#[test]
fn tracked_must_be_strictly_ascending() {
    let mut ds = small().clone();
    let first = ds.tracked[0];
    ds.tracked.splice(0..0, [first, first, first]);
    let msg = inconsistent(&serde_json::to_string_pretty(&ds).unwrap());
    assert!(msg.contains("ascending"), "{msg}");
    let mut ds = small().clone();
    ds.tracked.swap(0, 1);
    inconsistent(&serde_json::to_string_pretty(&ds).unwrap());
    assert!(!agree(&ds.to_json().unwrap()));
}

/// An assignment to link 200 used to load silently and widen the
/// attribution plane's `num_links`.
#[test]
fn catchment_links_must_be_declared() {
    let (_, text) = trimmed();
    let msg = inconsistent(&replace_entry(text, 7, "200"));
    assert!(msg.contains("undeclared link"), "{msg}");
    let mut ds = small().clone();
    ds.origin.links.pop();
    inconsistent(&ds.to_json().unwrap());
}
