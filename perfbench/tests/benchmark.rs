//! Tests of the benchmark itself: every workload runs at tiny size, the
//! fingerprint check fires on a perturbed result, and every metric the
//! benchmark prints is declared in `BENCHMARK.json`.

use harness::{run_scale, run_suite, ScaleConfig, SuiteConfig};
use obs::JsonValue;
use perfbench::{
    recorded_fingerprint, run, scale_fingerprint, suite_fingerprint, Check, Params, Report, Size,
    Workload, END_TO_END, PER_LAYER,
};

fn tiny(workload: Workload, traced: bool) -> Report {
    run(&Params {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        traced,
        size: Size::Tiny,
    })
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(JsonValue::as_arr)
        .expect("the section is an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .2
}

#[test]
fn every_workload_runs_at_tiny_size() {
    for workload in Workload::ALL {
        let timed = tiny(workload, false);
        assert!(timed.correct(), "{workload:?}: {:?}", timed.check.problems);
        assert!(timed.check.attempted > 0);
        for (name, _) in END_TO_END {
            assert!(metric(&timed, name) > 0.0, "{workload:?}: {name} is 0");
        }

        let traced = tiny(workload, true);
        assert!(
            traced.correct(),
            "{workload:?}: {:?}",
            traced.check.problems
        );
        assert!(!traced.spans.is_empty(), "{workload:?} recorded no spans");
        for name in [
            "netsim.events",
            "netsim.ns_per_event",
            "metrics.losses",
            "tracing.traced_s",
        ] {
            assert!(metric(&traced, name) > 0.0, "{workload:?}: {name} is 0");
        }
        assert_eq!(metric(&traced, "metrics.unrecovered"), 0.0);
    }
}

#[test]
fn traced_runs_measure_the_layers_each_workload_calls() {
    let suite = tiny(Workload::PaperSuite, true);
    for name in [
        "traces.synth_s",
        "lossmap.attribute_s",
        "srm.run_s",
        "cesrm.run_s",
        "runner.busy_share",
    ] {
        assert!(metric(&suite, name) > 0.0, "paper-suite: {name} is 0");
    }
    assert_eq!(
        metric(&suite, "topology.nodes"),
        0.0,
        "the suite builds no scale tree"
    );

    let scale = tiny(Workload::Scale1e5, true);
    for name in [
        "topology.nodes",
        "scale.epochs",
        "scale.busy_s",
        "scale.state_bytes_per_receiver",
    ] {
        assert!(metric(&scale, name) > 0.0, "scale-1e5: {name} is 0");
    }
    assert_eq!(
        metric(&scale, "traces.losses"),
        0.0,
        "the rung synthesizes no trace"
    );

    let observed = tiny(Workload::ObservedSuite, true);
    for name in [
        "digest.records",
        "digest.trail_bytes",
        "digest.render_s",
        "health.render_s",
    ] {
        assert!(metric(&observed, name) > 0.0, "observed-suite: {name} is 0");
    }
    assert_eq!(metric(&observed, "obs.monitor.violations"), 0.0);
}

#[test]
fn fingerprint_check_fires_when_a_scale_row_is_perturbed() {
    let mut result = run_scale(&ScaleConfig {
        shards: 2,
        ..ScaleConfig::rung(1_000)
    });
    let good = scale_fingerprint(&result);
    let mut check = Check::new(Some(&good));
    check.record(1, 0, &good);
    assert_eq!(check.failed, 0);

    result.recovered -= 1;
    let bad = scale_fingerprint(&result);
    assert_ne!(bad, good);
    check.record(1, 0, &bad);
    assert_eq!((check.attempted, check.failed), (2, 1));
}

#[test]
fn fingerprint_check_fires_when_a_suite_row_is_perturbed() {
    let mut cfg = SuiteConfig::quick(0.01).with_jobs(2);
    cfg.traces = Some(vec![4]);
    let mut result = run_suite(&cfg);
    let good = suite_fingerprint(&result);
    // No recorded fingerprint: repeats must still agree with the first.
    let mut check = Check::new(None);
    check.record(2, 0, &good);
    result.pairs[0].srm.losses += 1; // Table 1's "realized losses" column
    let bad = suite_fingerprint(&result);
    assert_ne!(bad, good);
    check.record(2, 0, &bad);
    assert_eq!((check.attempted, check.failed), (4, 2));
    assert_eq!(check.problems.len(), 1);
}

#[test]
fn operations_that_fail_on_their_own_are_counted() {
    let mut check = Check::new(Some("00"));
    check.record(28, 3, "00");
    assert_eq!((check.attempted, check.failed), (28, 3));
}

#[test]
fn default_and_held_out_seeds_have_recorded_fingerprints() {
    for workload in Workload::ALL {
        for seed in [workload.default_seed(), workload.held_out_seed()] {
            assert!(
                recorded_fingerprint(workload, seed).is_some(),
                "{workload:?} seed {seed} has no recorded fingerprint"
            );
        }
    }
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let as_owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(PER_LAYER));

    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads is an array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    assert!(!workloads.is_empty());
    for name in &workloads {
        assert!(Workload::parse(name).is_some(), "{name} is not a workload");
    }

    for workload in Workload::ALL {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = JsonValue::parse(&tiny(workload, traced).result_json())
                .expect("the result line is JSON");
            let JsonValue::Obj(metrics) = line.get("metrics").expect("a metrics object") else {
                panic!("metrics is an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(JsonValue::as_str).expect("a unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared(section), "{workload:?} traced={traced}");
        }
    }
}
