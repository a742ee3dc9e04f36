//! The `scale-1e5` workload: one sharded 10⁵-receiver CESRM rung.

use std::hint::black_box;

use harness::{run_scale, ScaleConfig, ScaleResult};
use obs::JsonValue;
use topology::{scale_tree, ScaleShape};

use crate::span::{self, Span, Tracer};
use crate::suite::engine_metrics;
use crate::{
    alternate, describe, median, recorded_fingerprint, scale_fingerprint, span_table, stopwatch,
    timed_loop, Check, Params, Sample, Size, Values, PAIRS, SCALE_RECEIVERS, SETUP_SAMPLES,
    WORKERS,
};

fn config(params: &Params) -> ScaleConfig {
    let receivers = match params.size {
        Size::Full => SCALE_RECEIVERS,
        Size::Tiny => 1_000,
    };
    ScaleConfig {
        seed: params.seed,
        shards: WORKERS as u32,
        ..ScaleConfig::rung(receivers)
    }
}

pub(crate) fn describe_params(params: &Params) -> JsonValue {
    let cfg = config(params);
    let num = |n: f64| JsonValue::Num(n);
    JsonValue::Obj(vec![
        (
            "entry".to_string(),
            JsonValue::Str("harness::run_scale".to_string()),
        ),
        ("receivers".to_string(), num(cfg.receivers as f64)),
        ("protocol".to_string(), JsonValue::Str("CESRM".to_string())),
        ("shards".to_string(), num(f64::from(cfg.shards))),
        ("packets".to_string(), num(cfg.packets as f64)),
        ("losses".to_string(), num(f64::from(cfg.losses))),
        (
            "setup_samples_per_iteration".to_string(),
            num(SETUP_SAMPLES as f64),
        ),
    ])
}

/// Accounts one rung as one operation.
fn account(check: &mut Check, result: &ScaleResult) {
    let bad = result.unrecovered > 0 || result.violations.unwrap_or(0) > 0;
    check.record(1, u64::from(bad), &scale_fingerprint(result));
}

fn tree(cfg: &ScaleConfig) -> topology::ScaleTree {
    scale_tree(cfg.seed, &ScaleShape::with_target_receivers(cfg.receivers))
}

pub(crate) fn run(params: &Params) -> (Values, Check, Vec<String>, Vec<Span>) {
    let cfg = config(params);
    let expected = match params.size {
        Size::Full => recorded_fingerprint(params.workload, params.seed),
        Size::Tiny => None,
    };
    let mut check = Check::new(expected);
    if params.traced {
        let mut v = Values::default();
        let (lines, spans) = traced(&cfg, &mut check, &mut v);
        return (v, check, lines, spans);
    }
    let mut state_bytes = 0;
    let (values, mut lines) = timed_loop(
        params.seconds,
        || {
            black_box(tree(&cfg));
        },
        || {
            let (result, wall_s) = stopwatch(|| run_scale(&cfg));
            state_bytes = result.state_bytes_per_receiver();
            account(&mut check, &result);
            Sample {
                wall_s,
                sim_s: wall_s,
                events: result.events,
            }
        },
    );
    lines.push(format!(
        "state_bytes_per_receiver: {state_bytes} B (deterministic; ceiling 704)"
    ));
    (values, check, lines, Vec::new())
}

/// The traced run: [`PAIRS`] rounds that each time the plain rung next to
/// the traced pass (the topology build, then the rung with the engine's
/// telemetry on, each in a span). Shard accounting comes from the last
/// round's plain rung and the layer metrics from its traced pass; the
/// tracing overhead is the median of the rounds.
fn traced(cfg: &ScaleConfig, check: &mut Check, v: &mut Values) -> (Vec<String>, Vec<Span>) {
    let (mut untraced_s, mut traced_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..PAIRS {
        let tracer = Tracer::default();
        let ((plain, plain_s), ((nodes, profiled), pass_s)) = alternate(
            round,
            || stopwatch(|| run_scale(cfg)),
            || stopwatch(|| traced_pass(&tracer, cfg)),
        );
        account(check, &plain);
        account(check, &profiled);
        untraced_s.push(plain_s);
        traced_s.push(pass_s);
        ratios.push(pass_s / plain_s);
        last = Some((plain, plain_s, nodes, profiled, tracer));
    }
    let (plain, plain_s, nodes, profiled, tracer) = last.expect("PAIRS is at least 1");

    let acct = &plain.shard_accounting;
    let slowest = acct
        .iter()
        .max_by_key(|a| a.busy_ns)
        .copied()
        .unwrap_or_default();
    let busy: u64 = acct.iter().map(|a| a.busy_ns).sum();
    let barrier: u64 = acct.iter().map(|a| a.barrier_ns).sum();
    v.insert("scale.busy_s", slowest.busy_ns as f64 / 1e9);
    v.insert(
        "scale.barrier_share",
        barrier as f64 / (busy + barrier) as f64,
    );
    v.insert("scale.imbalance_ratio", plain.imbalance_ratio());
    v.insert("scale.epochs", plain.epochs as f64);
    v.insert(
        "scale.cross_shard_packets",
        plain.cross_shard_packets() as f64,
    );
    v.insert(
        "scale.outside_shards_s",
        plain_s - (slowest.busy_ns + slowest.barrier_ns) as f64 / 1e9,
    );
    v.insert(
        "scale.state_bytes_per_receiver",
        plain.state_bytes_per_receiver() as f64,
    );
    v.insert("metrics.losses", plain.detected as f64);
    v.insert("metrics.unrecovered", plain.unrecovered as f64);

    let spans = tracer.finish();
    let topology_s = span::total_s(&spans, "topology.scale_tree");
    let engine = profiled
        .engine
        .expect("profiled rungs report engine telemetry");
    v.insert("topology.scale_tree_s", topology_s);
    v.insert("topology.nodes", nodes as f64);
    engine_metrics(v, &engine);
    // run_scale builds the same tree inside; the rest of its span is the
    // engine and the protocol agents.
    let engine_s = span::total_s(&spans, "harness.run_scale") - topology_s;
    v.insert("netsim.ns_per_event", engine_s * 1e9 / engine.events as f64);
    let (traced_s, untraced_s) = (median(&traced_s), median(&untraced_s));
    let overhead = median(&ratios);
    v.insert("tracing.traced_s", traced_s);
    v.insert("tracing.untraced_s", untraced_s);
    v.insert("tracing.overhead_ratio", overhead);

    let mut lines = span_table(&spans);
    lines.push(describe("tracing pair ratios", "ratio", &ratios).1);
    lines.push(format!(
        "tracing overhead: traced pass {traced_s:.6} s vs untraced run_scale {untraced_s:.6} s, \
         medians of {PAIRS} alternating pairs ({:+.1} %; the traced pass builds the tree twice \
         and runs the profiler)",
        100.0 * (overhead - 1.0)
    ));
    (lines, spans)
}

/// The traced pass: the topology build, then the rung with the engine's
/// telemetry on, each in a span. Returns the tree's node count and the
/// profiled rung.
fn traced_pass(tracer: &Tracer, cfg: &ScaleConfig) -> (usize, ScaleResult) {
    tracer.span("bench.traced_rung", None, |root| {
        let nodes = tracer.span("topology.scale_tree", Some(root), |_| tree(cfg).tree.len());
        let profiled = tracer.span("harness.run_scale", Some(root), |_| {
            run_scale(&ScaleConfig {
                profile: true,
                ..*cfg
            })
        });
        (nodes, profiled)
    })
}
