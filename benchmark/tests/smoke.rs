//! Every workload at a twentieth of its size must pass its own
//! correctness checks and report every end-to-end metric, so `cargo test`
//! here keeps the benchmark compiling and correct between measured runs.

use std::time::Instant;

use benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use benchmark::{run_named, Options};

fn smoke(traced: bool) -> Options {
    Options {
        seed: 7,
        seconds: 0.0,
        traced,
        scale: 0.05,
    }
}

#[test]
fn every_workload_passes_its_checks_at_a_twentieth_of_the_size() {
    let started = Instant::now();
    for w in &WORKLOADS {
        let report = run_named(w.name, &smoke(false)).expect("declared workload runs");
        assert!(report.correct(), "{}: {:?}", w.name, report.errors);
        assert!(report.attempted >= 1, "{} attempted nothing", w.name);
        assert_eq!(
            report.failed, 0,
            "{} is sized so that no operation fails",
            w.name
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(
            names, declared,
            "{} reports the end-to-end metrics, in order",
            w.name
        );
        for (name, value, _) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                w.name
            );
        }
        let line = report.result_line();
        let parsed = serde_json::parse_value(&line).expect("the result line is JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
    println!(
        "smoke: five workloads in {:.2} s",
        started.elapsed().as_secs_f64()
    );
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_a_trace() {
    // The fault workload: spans per simulated second, registry counts,
    // the fixed probes, and the slot-number log-agreement check.
    let report = run_named("lock_failover", &smoke(true)).expect("declared workload runs");
    assert!(report.correct(), "{:?}", report.errors);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, declared);
    let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
    assert!(report.metrics.iter().all(|m| m.1.is_finite()));
    assert!(
        value("paxos.elections_started") >= 2.0,
        "a crashed leader forces an election"
    );
    assert!(value("simnet.ns_per_event") > 0.0 && value("erasure.encode_mb_s") > 0.0);
    assert_eq!(
        value("jupiter.decide_calls"),
        0.0,
        "the bidder is idle in this workload"
    );
    assert!((value("host.span_self_over_wall") - 1.0).abs() <= 0.02);
    let trace = report.trace_json.expect("a traced run carries its trace");
    serde_json::parse_value(&trace).expect("the trace is JSON");
    assert!(trace.contains("simnet.run_until["));

    assert!(run_named("no_such_workload", &smoke(false)).is_none());
}
