//! The suite workloads: `paper-suite` and `observed-suite`.

use std::hint::black_box;

use harness::{
    health_json, merge_suite_profs, prof_json, run_indexed, run_suite, run_trace_profiled,
    suite_digest_json, Protocol, RunMetrics, SuiteConfig, SuiteResult, SuiteTiming, TracePair,
};
use lossmap::{infer_link_drops, yajnik_rates};
use obs::JsonValue;
use traces::{table1, LossStats, TraceSpec};

use crate::span::{self, Span, Tracer};
use crate::{
    alternate, describe, fingerprint, median, recorded_fingerprint, span_table, stopwatch,
    timed_loop, Check, Params, Sample, Size, Values, Workload, OBSERVED_SCALE, PAIRS,
    SETUP_SAMPLES, WORKERS,
};

/// The suite configuration a workload runs.
fn config(params: &Params) -> SuiteConfig {
    let mut cfg = SuiteConfig::paper_default().with_jobs(WORKERS);
    cfg.seed = params.seed;
    let tiny = params.size == Size::Tiny;
    if tiny {
        cfg.scale = 0.01;
        cfg.traces = Some(vec![4, 13]);
    }
    if params.workload == Workload::ObservedSuite {
        if !tiny {
            cfg.scale = OBSERVED_SCALE;
        }
        cfg.monitor = true;
        cfg.digest = true;
        cfg.profile = true;
    }
    cfg
}

/// `cfg` with every observability layer off.
fn obs_off(cfg: &SuiteConfig) -> SuiteConfig {
    SuiteConfig {
        monitor: false,
        digest: false,
        profile: false,
        ..cfg.clone()
    }
}

/// The (possibly scaled) Table-1 specs `cfg` selects, as `run_suite` picks
/// them.
fn specs(cfg: &SuiteConfig) -> Vec<TraceSpec> {
    table1()
        .into_iter()
        .filter(|s| {
            cfg.traces
                .as_ref()
                .is_none_or(|only| only.contains(&s.number))
        })
        .map(|s| {
            if cfg.scale < 1.0 {
                s.scaled(cfg.scale)
            } else {
                s
            }
        })
        .collect()
}

pub(crate) fn describe_params(params: &Params) -> JsonValue {
    let cfg = config(params);
    let num = |n: f64| JsonValue::Num(n);
    JsonValue::Obj(vec![
        (
            "entry".to_string(),
            JsonValue::Str("harness::run_suite".to_string()),
        ),
        ("trace_scale".to_string(), num(cfg.scale)),
        (
            "traces".to_string(),
            JsonValue::Arr(specs(&cfg).iter().map(|s| num(s.number as f64)).collect()),
        ),
        ("jobs".to_string(), num(WORKERS as f64)),
        ("monitor".to_string(), JsonValue::Bool(cfg.monitor)),
        ("digest".to_string(), JsonValue::Bool(cfg.digest)),
        ("profile".to_string(), JsonValue::Bool(cfg.profile)),
        (
            "link_delay_ms".to_string(),
            num(cfg.experiment.net.link_delay.as_nanos() as f64 / 1e6),
        ),
        (
            "setup_samples_per_iteration".to_string(),
            num(SETUP_SAMPLES as f64),
        ),
    ])
}

/// Hash of the public renderers' text: Table 1 and Figures 1–5.
pub fn suite_fingerprint(result: &SuiteResult) -> String {
    fingerprint(&[
        &result.table1_text(),
        &result.fig1_text(),
        &result.fig2_text(),
        &result.fig3_text(),
        &result.fig4_text(),
        &result.fig5_text(),
    ])
}

/// Accounts one suite result: one operation per replay.
fn account(check: &mut Check, result: &SuiteResult) {
    let mut bad = 0;
    for (i, pair) in result.pairs.iter().enumerate() {
        for (j, run) in [&pair.srm, &pair.cesrm].into_iter().enumerate() {
            let violations = result
                .health
                .get(2 * i + j)
                .map_or(0, |h| h.report.stats.violations);
            if run.unrecovered > 0 || violations > 0 {
                bad += 1;
            }
        }
    }
    check.record(
        2 * result.pairs.len() as u64,
        bad,
        &suite_fingerprint(result),
    );
}

/// Simulator events processed by every replay of `result`.
fn events(result: &SuiteResult) -> u64 {
    result
        .pairs
        .iter()
        .map(|p| p.srm.events_processed + p.cesrm.events_processed)
        .sum()
}

/// The workload's inputs: every selected trace synthesized and its losses
/// attributed to links, as each replay does before it simulates.
fn setup_once(cfg: &SuiteConfig) {
    for spec in specs(cfg) {
        let (trace, _truth) = spec.generate_with_truth(cfg.seed);
        let rates = yajnik_rates(&trace);
        black_box(infer_link_drops(&trace, &rates));
    }
}

/// The three documents `reproduce --health --digest --profile` renders,
/// each through `render`, which returns the document's length; returns
/// the digest trail's length.
fn render_reports(
    cfg: &SuiteConfig,
    result: &SuiteResult,
    render: impl Fn(&'static str, &dyn Fn() -> String) -> usize,
) -> usize {
    render("health.render", &|| health_json(cfg, result));
    let trail = render("digest.render", &|| suite_digest_json(cfg, result));
    render("prof.render", &|| {
        let (snapshot, wall_ns, engine) =
            merge_suite_profs(&result.profs).expect("observed suites run the profiler");
        prof_json(&snapshot, Some(wall_ns), Some(&engine), &[])
    });
    trail
}

pub(crate) fn run(params: &Params) -> (Values, Check, Vec<String>, Vec<Span>) {
    let cfg = config(params);
    let expected = match params.size {
        Size::Full => recorded_fingerprint(params.workload, params.seed),
        Size::Tiny => None,
    };
    let check = Check::new(expected);
    if params.traced {
        traced(params, &cfg, check)
    } else {
        timed(params, &cfg, check)
    }
}

/// Repeats the workload for `params.seconds` and reports medians.
fn timed(
    params: &Params,
    cfg: &SuiteConfig,
    mut check: Check,
) -> (Values, Check, Vec<String>, Vec<Span>) {
    let observed = params.workload == Workload::ObservedSuite;
    let mut trail_bytes = 0;
    let (values, mut lines) = timed_loop(
        params.seconds,
        || setup_once(cfg),
        || {
            let ((result, sim_s), wall_s) = stopwatch(|| {
                let (result, sim_s) = stopwatch(|| run_suite(cfg));
                if observed {
                    trail_bytes =
                        render_reports(cfg, &result, |_, render| black_box(render()).len());
                }
                (result, sim_s)
            });
            account(&mut check, &result);
            Sample {
                wall_s,
                sim_s,
                events: events(&result),
            }
        },
    );
    if observed {
        lines.push(format!(
            "trail_bytes: {trail_bytes} B (cesrm-digest/1, deterministic)"
        ));
    }
    (values, check, lines, Vec::new())
}

/// One replay of the traced pass, with what the per-layer metrics need.
struct Replay {
    srm: bool,
    spec: TraceSpec,
    trace_losses: usize,
    patterns: usize,
    /// Computed by the SRM replay only, as `run_suite` does.
    trace_stats: Option<LossStats>,
    metrics: RunMetrics,
    engine: netsim::EngineTelemetry,
    counters: std::collections::BTreeMap<String, u64>,
}

/// The traced run: [`PAIRS`] rounds that each time a plain `run_suite` call
/// next to the traced pass, which sends the same replays through the
/// harness runner with a span around each layer call. The layer metrics come
/// from the last round's traced pass; the tracing overhead is the median of
/// the rounds. `observed-suite` adds the paired observability runs and the
/// reports.
fn traced(
    params: &Params,
    cfg: &SuiteConfig,
    mut check: Check,
) -> (Values, Check, Vec<String>, Vec<Span>) {
    let mut v = Values::default();
    let off = obs_off(cfg);
    let (mut untraced_s, mut traced_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..PAIRS {
        let tracer = Tracer::default();
        let ((plain, plain_s), (replays, pass_s)) = alternate(
            round,
            || stopwatch(|| run_suite(&off)),
            || stopwatch(|| traced_pass(&tracer, &off)),
        );
        account(&mut check, &plain);
        account(&mut check, &replayed_suite(&off, &replays));
        untraced_s.push(plain_s);
        traced_s.push(pass_s);
        ratios.push(pass_s / plain_s);
        last = Some((plain, replays, tracer));
    }
    let (plain, replays, tracer) = last.expect("PAIRS is at least 1");

    let observed = if params.workload == Workload::ObservedSuite {
        Some(observe(&tracer, cfg, &mut check, &mut v))
    } else {
        runner_metrics(&mut v, &plain.timing);
        None
    };
    let spans = tracer.finish();
    layer_metrics(&mut v, &spans, &replays);
    let costs = match observed {
        Some(_) => observability_metrics(&mut v, &spans),
        None => Vec::new(),
    };
    let (traced_s, untraced_s) = (median(&traced_s), median(&untraced_s));
    let overhead = median(&ratios);
    v.insert("tracing.traced_s", traced_s);
    v.insert("tracing.untraced_s", untraced_s);
    v.insert("tracing.overhead_ratio", overhead);
    let mut lines = span_table(&spans);
    lines.push(describe("tracing pair ratios", "ratio", &ratios).1);
    lines.push(format!(
        "tracing overhead: traced pass {traced_s:.6} s vs untraced run_suite {untraced_s:.6} s, \
         medians of {PAIRS} alternating pairs ({:+.1} %)",
        100.0 * (overhead - 1.0)
    ));
    lines.extend(costs);
    lines.extend(observed);
    (v, check, lines, spans)
}

/// The traced pass: every replay `run_suite` would make, through the
/// harness runner, under one root span.
fn traced_pass(tracer: &Tracer, cfg: &SuiteConfig) -> Vec<Replay> {
    tracer.span("bench.traced_suite", None, |root| {
        let jobs: Vec<(TraceSpec, Protocol)> = specs(cfg)
            .into_iter()
            .flat_map(|s| [(s.clone(), Protocol::Srm), (s, Protocol::Cesrm(cfg.cesrm))])
            .collect();
        run_indexed(jobs, WORKERS, |_, (spec, protocol)| {
            traced_replay(tracer, root, cfg, spec, protocol)
        })
    })
}

/// The suite result the traced pass's replays add up to, for the
/// correctness check.
fn replayed_suite(cfg: &SuiteConfig, replays: &[Replay]) -> SuiteResult {
    let pairs: Vec<TracePair> = replays
        .chunks(2)
        .map(|p| TracePair {
            spec: p[0].spec.clone(),
            trace_stats: p[0].trace_stats.clone().expect("SRM replays come first"),
            srm: p[0].metrics.clone(),
            cesrm: p[1].metrics.clone(),
        })
        .collect();
    SuiteResult {
        scale: cfg.scale,
        pairs,
        events: Vec::new(),
        profiles: Vec::new(),
        health: Vec::new(),
        profs: Vec::new(),
        digests: Vec::new(),
        timing: SuiteTiming::default(),
    }
}

fn traced_replay(
    tracer: &Tracer,
    root: usize,
    cfg: &SuiteConfig,
    spec: TraceSpec,
    protocol: Protocol,
) -> Replay {
    let srm = protocol == Protocol::Srm;
    tracer.span("harness.replay", Some(root), |job| {
        let (trace, truth) = tracer.span("traces.synth", Some(job), |_| {
            spec.generate_with_truth(cfg.seed)
        });
        let attribution = tracer.span("lossmap.attribute", Some(job), |_| {
            let rates = yajnik_rates(&trace);
            infer_link_drops(&trace, &rates).1
        });
        let trace_stats = srm.then(|| LossStats::from_trace(&trace, Some(&truth)));
        // The registry supplies the exact CESRM cache counters; both
        // protocols carry it so that their spans stay comparable.
        let registry = obs::MetricsHandle::new();
        let run_span = if srm {
            "srm.run_trace"
        } else {
            "cesrm.run_trace"
        };
        let (metrics, engine) = tracer.span(run_span, Some(job), |_| {
            run_trace_profiled(
                &trace,
                protocol,
                &cfg.experiment,
                &obs::TraceHandle::off(),
                &registry,
                &obs::ProfHandle::off(),
            )
        });
        Replay {
            srm,
            trace_losses: trace.total_losses(),
            patterns: attribution.distinct_patterns,
            trace_stats,
            spec,
            metrics,
            engine,
            counters: registry.snapshot().counters,
        }
    })
}

/// Summed duration of spans named `name` minus their `lossmap.attribute`
/// siblings: `run_trace` attributes the trace's losses again inside.
fn minus_attribution(spans: &[Span], name: &str) -> f64 {
    let run = span::total_s(spans, name);
    let parents: Vec<Option<usize>> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.parent)
        .collect();
    let attribution: u64 = spans
        .iter()
        .filter(|s| s.name == "lossmap.attribute" && parents.contains(&s.parent))
        .map(Span::duration_ns)
        .sum();
    (run - attribution as f64 / 1e9).max(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(v: &mut Values, spans: &[Span], replays: &[Replay]) {
    let srm: Vec<&Replay> = replays.iter().filter(|r| r.srm).collect();
    let cesrm: Vec<&Replay> = replays.iter().filter(|r| !r.srm).collect();
    v.insert("traces.synth_s", span::total_s(spans, "traces.synth"));
    v.insert(
        "traces.losses",
        srm.iter().map(|r| r.trace_losses).sum::<usize>() as f64,
    );
    v.insert(
        "lossmap.attribute_s",
        span::total_s(spans, "lossmap.attribute"),
    );
    v.insert(
        "lossmap.distinct_patterns",
        srm.iter().map(|r| r.patterns).sum::<usize>() as f64,
    );

    let mut engine = netsim::EngineTelemetry::default();
    for r in replays {
        engine.merge(&r.engine);
    }
    engine_metrics(v, &engine);
    let srm_s = minus_attribution(spans, "srm.run_trace");
    let cesrm_s = minus_attribution(spans, "cesrm.run_trace");
    v.insert("srm.run_s", srm_s);
    v.insert("cesrm.run_s", cesrm_s);
    v.insert(
        "netsim.ns_per_event",
        (srm_s + cesrm_s) * 1e9 / engine.events as f64,
    );

    let sum = |rs: &[&Replay], f: &dyn Fn(&RunMetrics) -> u64| -> u64 {
        rs.iter().map(|r| f(&r.metrics)).sum()
    };
    let srm_losses = sum(&srm, &|m| m.losses as u64);
    v.insert(
        "srm.requests_per_loss",
        ratio(
            sum(&srm, &|m| m.requests_by_node.iter().map(|n| n.1).sum()),
            srm_losses,
        ),
    );
    v.insert(
        "srm.replies_per_loss",
        ratio(
            sum(&srm, &|m| m.replies_by_node.iter().map(|n| n.1).sum()),
            srm_losses,
        ),
    );
    v.insert(
        "cesrm.expedited_success_ratio",
        ratio(
            sum(&cesrm, &|m| m.expedited_replies),
            sum(&cesrm, &|m| m.expedited_requests),
        ),
    );
    let counter = |name: &str| -> u64 {
        cesrm
            .iter()
            .map(|r| r.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    let hits = counter("cesrm.cache.hits");
    v.insert(
        "cesrm.cache.hit_ratio",
        ratio(hits, hits + counter("cesrm.cache.misses")),
    );
    let all: Vec<&Replay> = replays.iter().collect();
    v.insert("metrics.losses", sum(&all, &|m| m.losses as u64) as f64);
    v.insert(
        "metrics.unrecovered",
        sum(&all, &|m| m.unrecovered as u64) as f64,
    );
}

/// The engine's exact counters as `netsim.*` metrics.
pub(crate) fn engine_metrics(v: &mut Values, e: &netsim::EngineTelemetry) {
    v.insert("netsim.events", e.events as f64);
    v.insert("netsim.queue.pushes", e.queue.pushes as f64);
    v.insert("netsim.queue.max_bucket_len", e.queue.max_bucket_len as f64);
    v.insert("netsim.queue.advances", e.queue.advances as f64);
    v.insert("netsim.queue.skip_ticks", e.queue.skip_ticks as f64);
    v.insert("netsim.transmits", e.transmits as f64);
    v.insert("netsim.fan_outs", e.fan_outs as f64);
    v.insert("netsim.deliveries", e.deliveries as f64);
    v.insert("netsim.arena.allocs", e.arena.allocs as f64);
    v.insert("netsim.arena.high_water", e.arena.high_water as f64);
}

fn runner_metrics(v: &mut Values, timing: &SuiteTiming) {
    let capacity = timing.wall.as_secs_f64() * timing.jobs as f64;
    v.insert(
        "runner.busy_share",
        timing.cpu_total().as_secs_f64() / capacity,
    );
    v.insert(
        "runner.slowest_run_s",
        timing
            .runs
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .fold(0.0, f64::max),
    );
}

/// `observed-suite`'s observability layers: for each flag, [`PAIRS`]
/// alternating pairs of an all-off run and a run with that one flag on,
/// each pair under a `bench.obs_pair` span; then the workload's own run and its
/// three reports, each in a span. The caller turns the spans into costs
/// and render times.
fn observe(tracer: &Tracer, cfg: &SuiteConfig, check: &mut Check, v: &mut Values) -> String {
    let off = obs_off(cfg);
    let one_flag = [
        (
            "harness.run_suite.monitor",
            SuiteConfig {
                monitor: true,
                ..off.clone()
            },
        ),
        (
            "harness.run_suite.digest",
            SuiteConfig {
                digest: true,
                ..off.clone()
            },
        ),
        (
            "harness.run_suite.profile",
            SuiteConfig {
                profile: true,
                ..off.clone()
            },
        ),
    ];
    tracer.span("bench.observability", None, |root| {
        for round in 0..PAIRS {
            for (span, one) in &one_flag {
                let (all_off, flag_on) = tracer.span("bench.obs_pair", Some(root), |pair| {
                    alternate(
                        round,
                        || tracer.span(OFF_RUN, Some(pair), |_| run_suite(&off)),
                        || tracer.span(span, Some(pair), |_| run_suite(one)),
                    )
                });
                account(check, &all_off);
                account(check, &flag_on);
            }
        }
        let result = tracer.span("harness.run_suite.observed", Some(root), |_| run_suite(cfg));
        account(check, &result);
        runner_metrics(v, &result.timing);
        let trail = render_reports(cfg, &result, |name, render| {
            tracer.span(name, Some(root), |_| black_box(render()).len())
        });
        let records: u64 = result.digests.iter().map(|d| d.snapshot.count()).sum();
        v.insert("obs.monitor.violations", result.total_violations() as f64);
        v.insert("obs.monitor.anomalies", result.total_anomalies() as f64);
        v.insert("digest.records", records as f64);
        v.insert("digest.trail_bytes", trail as f64);
        format!(
            "observability: {} violations, {} anomalies, trail {trail} B / {records} records",
            result.total_violations(),
            result.total_anomalies()
        )
    })
}

/// Span of the all-off `run_suite` call in each `bench.obs_pair`.
const OFF_RUN: &str = "harness.run_suite.off";

/// Costs of the observability layers and reports, from `observe`'s spans:
/// each flag's cost is the median over its pairs of the flag-on run minus
/// the all-off run beside it. Returns one line per flag listing every
/// pair's difference.
fn observability_metrics(v: &mut Values, spans: &[Span]) -> Vec<String> {
    let mut lines = Vec::new();
    let seconds = |s: &Span| s.duration_ns() as f64 / 1e9;
    for (span, metric) in [
        ("harness.run_suite.monitor", "obs.monitor.cost_s"),
        ("harness.run_suite.digest", "obs.digest.cost_s"),
        ("harness.run_suite.profile", "obs.prof.cost_s"),
    ] {
        let diffs: Vec<f64> = spans
            .iter()
            .filter(|on| on.name == span)
            .map(|on| {
                let off = spans
                    .iter()
                    .find(|s| s.name == OFF_RUN && s.parent == on.parent)
                    .expect("every flag-on run has an all-off run in its pair");
                seconds(on) - seconds(off)
            })
            .collect();
        let (cost, line) = describe(metric, "s", &diffs);
        v.insert(metric, cost);
        lines.push(line);
    }
    for (span, metric) in [
        ("health.render", "health.render_s"),
        ("digest.render", "digest.render_s"),
        ("prof.render", "prof.render_s"),
    ] {
        v.insert(metric, span::total_s(spans, span));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, ms: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name,
            thread: String::new(),
            start_ns: ms.0 * 1_000_000,
            end_ns: ms.1 * 1_000_000,
        }
    }

    #[test]
    fn observability_costs_pair_each_flag_run_with_its_own_all_off_run() {
        // Pairs 0, 3 and 6 hold monitor runs costing +10, +30 and -5 ms
        // against their own all-off runs, whose lengths drift from 100 to
        // 300 ms; pair 9 holds the digest and pair 12 the profiler.
        let mut spans = Vec::new();
        let pairs = [
            ("harness.run_suite.monitor", 100, 10),
            ("harness.run_suite.monitor", 200, 30),
            ("harness.run_suite.monitor", 300, -5),
            ("harness.run_suite.digest", 100, 20),
            ("harness.run_suite.profile", 100, 40),
        ];
        for (i, (name, off_ms, cost_ms)) in pairs.into_iter().enumerate() {
            let (id, t) = (3 * i, 1_000 * i as u64);
            let on_ms = (off_ms as i64 + cost_ms) as u64;
            spans.push(span(id, None, "bench.obs_pair", (t, t + off_ms + on_ms)));
            spans.push(span(id + 1, Some(id), OFF_RUN, (t, t + off_ms)));
            spans.push(span(
                id + 2,
                Some(id),
                name,
                (t + off_ms, t + off_ms + on_ms),
            ));
        }
        let mut v = Values::default();
        observability_metrics(&mut v, &spans);
        let ms = |name: &str| (v[name] * 1e3).round();
        assert_eq!(ms("obs.monitor.cost_s"), 10.0);
        assert_eq!(ms("obs.digest.cost_s"), 20.0);
        assert_eq!(ms("obs.prof.cost_s"), 40.0);
    }
}
