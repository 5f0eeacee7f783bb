//! The benchmark's own checks: `BENCHMARK.json` lists exactly the
//! metrics the binary reports, and the virtual-clock digest of every
//! workload at the default seed matches its pinned value — a host
//! speed-up that changes the model fails here.

use perfbench::{Kind, DEFAULT_SEED, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory")
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"better\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra metrics"
    );
    for kind in Kind::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", kind.name())));
    }
}

#[test]
fn digests_match_pinned_values() {
    for kind in Kind::ALL {
        let digest = perfbench::digest(kind, DEFAULT_SEED).expect("set-up failed");
        assert_eq!(
            digest,
            kind.pinned_digest(),
            "{}: virtual-clock digest {digest:016x} differs from the pinned value",
            kind.name()
        );
    }
}
