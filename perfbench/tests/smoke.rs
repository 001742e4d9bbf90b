//! Smoke test: every workload for one second on a tiny corpus yields
//! every metric with `failed_share = 0`; the exact work counts of the
//! static-corpus workloads repeat across two runs with one seed; and
//! `BENCHMARK.json` says what the code says.

use pimento_perfbench::spec::{MetricSpec, Sizes, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use pimento_perfbench::workloads::{run_workload, Ctx, Outcome};
use pimento_serve::Value;
use std::path::PathBuf;

fn run(name: &str, trace: bool, tag: &str) -> Outcome {
    let sizes = Sizes::tiny();
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{tag}"));
    let ctx = Ctx {
        seed: 42,
        seconds: 1.0,
        trace,
        sizes: &sizes,
        out_dir,
    };
    run_workload(name, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn assert_clean(name: &str, out: &Outcome, specs: &[MetricSpec]) {
    assert!(out.attempted > 0, "{name}: nothing attempted");
    assert_eq!(out.failed_share(), 0.0, "{name}: {:#?}", out.report);
    for m in specs {
        let v = out
            .metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{name} lacks {}", m.name));
        assert!(v.is_finite(), "{name}: {} = {v}", m.name);
        assert!(!m.unit.is_empty());
    }
}

#[test]
fn every_workload_yields_every_metric_and_no_failure() {
    for (name, _) in WORKLOADS {
        let untraced = run(name, false, "untraced");
        assert_clean(name, &untraced, END_TO_END);
        for m in END_TO_END {
            assert!(
                untraced.metrics[m.name] > 0.0,
                "{name}: {} must never be 0",
                m.name
            );
        }
        let traced = run(name, true, "traced");
        assert_clean(name, &traced, PER_LAYER);
        assert!(traced
            .report
            .iter()
            .any(|l| l.contains("unattributed remainder")));
        assert!(traced.report.iter().any(|l| l.contains("tracing overhead")));
    }
}

#[test]
fn work_counts_repeat_exactly_on_the_static_corpus() {
    // The algebra.* counts of lib.xmark and serve.warm are those of one
    // pass over a fixed cycle (serve.cold and serve.ingest replay whichever
    // requests the clients happened to send).
    let counts = |out: &Outcome| -> Vec<(&str, u64)> {
        PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("algebra.") && m.unit == "count")
            .map(|m| (m.name, out.metrics[m.name].to_bits()))
            .collect()
    };
    for name in ["lib.xmark", "serve.warm"] {
        let (a, b) = (run(name, true, "a"), run(name, true, "b"));
        assert!(!counts(&a).is_empty());
        assert_eq!(counts(&a), counts(&b), "{name}");
        assert!(a.metrics["algebra.candidates"] > 0.0, "{name}");
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = Value::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        json.get("run_seconds").and_then(Value::as_u64),
        Some(RUN_SECONDS)
    );
    let str_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

    let workloads: Vec<(String, String)> = json
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| (str_of(w, "name").unwrap(), str_of(w, "why").unwrap()))
        .collect();
    let coded: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, coded);
    assert!(coded
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = json.get(key).and_then(Value::as_arr).expect(key);
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (j, m) in listed.iter().zip(specs) {
            assert_eq!(str_of(j, "name").as_deref(), Some(m.name));
            assert_eq!(str_of(j, "unit").as_deref(), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(str_of(j, "better").as_deref(), Some(better), "{}", m.name);
            let bound = j.get("bound").and_then(Value::as_f64);
            if key == "end_to_end" {
                assert_eq!(bound, Some(m.bound), "{}", m.name);
                assert!(m.bound > 0.0 && m.bound <= 0.25);
            } else {
                assert_eq!(bound, None, "{}", m.name);
            }
        }
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}
