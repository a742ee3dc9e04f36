//! The repository benchmark of the CESRM reproduction.
//!
//! Three closed-loop batch workloads run through the public entry points
//! the `reproduce` binary uses ([`harness::run_suite`],
//! [`harness::run_scale`] and the report renderers):
//!
//! - `paper-suite`: all 14 Table-1 traces under SRM and CESRM at full
//!   scale, two workers, every observability layer off;
//! - `scale-1e5`: one 10⁵-receiver CESRM rung on two shards;
//! - `observed-suite`: the 14 traces at a reduced scale with monitors,
//!   digests and the profiler on, plus the three reports they render.
//!
//! An untraced run times the workload for a given number of seconds and
//! reports the end-to-end metrics ([`END_TO_END`]). A traced run records
//! spans around the calls into each layer from outside the program
//! ([`span`]), reads the engine's exact counters, and reports the per-layer
//! metrics ([`PER_LAYER`]). Both check every operation's outputs
//! ([`Check`]). See `perfbench/README.md`.

mod scale;
pub mod span;
mod suite;

use std::collections::BTreeMap;
use std::time::Instant;

use obs::JsonValue;

/// Worker threads (suite) and shards (scale) every workload runs with.
pub const WORKERS: usize = 2;

/// Set-up samples a timed run takes before each iteration.
pub const SETUP_SAMPLES: usize = 3;

/// Rounds of the traced run's paired timings. Each round times a reference
/// call right next to the call it is compared with, alternating which goes
/// first ([`alternate`]); the traced run reports the median of the rounds.
pub const PAIRS: usize = 7;

/// Trace scale of `observed-suite`.
pub const OBSERVED_SCALE: f64 = 0.1;

/// Receivers of the `scale-1e5` rung.
pub const SCALE_RECEIVERS: u64 = 100_000;

/// End-to-end metrics and their units, reported by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, reported by a traced run. A metric
/// of a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traces.synth_s", "s"),
    ("traces.losses", "count"),
    ("lossmap.attribute_s", "s"),
    ("lossmap.distinct_patterns", "count"),
    ("topology.scale_tree_s", "s"),
    ("topology.nodes", "count"),
    ("netsim.events", "count"),
    ("netsim.queue.pushes", "count"),
    ("netsim.queue.max_bucket_len", "count"),
    ("netsim.queue.advances", "count"),
    ("netsim.queue.skip_ticks", "count"),
    ("netsim.transmits", "count"),
    ("netsim.fan_outs", "count"),
    ("netsim.deliveries", "count"),
    ("netsim.arena.allocs", "count"),
    ("netsim.arena.high_water", "count"),
    ("netsim.ns_per_event", "ns/event"),
    ("srm.run_s", "s"),
    ("cesrm.run_s", "s"),
    ("srm.requests_per_loss", "ratio"),
    ("srm.replies_per_loss", "ratio"),
    ("cesrm.expedited_success_ratio", "ratio"),
    ("cesrm.cache.hit_ratio", "ratio"),
    ("metrics.losses", "count"),
    ("metrics.unrecovered", "count"),
    ("runner.busy_share", "ratio"),
    ("runner.slowest_run_s", "s"),
    ("scale.busy_s", "s"),
    ("scale.barrier_share", "ratio"),
    ("scale.imbalance_ratio", "ratio"),
    ("scale.epochs", "count"),
    ("scale.cross_shard_packets", "count"),
    ("scale.outside_shards_s", "s"),
    ("scale.state_bytes_per_receiver", "B"),
    ("obs.monitor.cost_s", "s"),
    ("obs.digest.cost_s", "s"),
    ("obs.prof.cost_s", "s"),
    ("obs.monitor.violations", "count"),
    ("obs.monitor.anomalies", "count"),
    ("digest.render_s", "s"),
    ("digest.records", "count"),
    ("digest.trail_bytes", "B"),
    ("health.render_s", "s"),
    ("prof.render_s", "s"),
    ("tracing.traced_s", "s"),
    ("tracing.untraced_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's 28-replay suite at full scale, observability off.
    PaperSuite,
    /// One 10⁵-receiver CESRM rung on two shards.
    Scale1e5,
    /// The suite at reduced scale with every observability layer on.
    ObservedSuite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSuite,
        Workload::Scale1e5,
        Workload::ObservedSuite,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Scale1e5 => "scale-1e5",
            Workload::ObservedSuite => "observed-suite",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the harness defaults.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Scale1e5 => 7,
            _ => 20040628,
        }
    }

    /// A seed kept out of tuning, for checking claims made on the default.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Scale1e5 => 1031,
            _ => 19980917,
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Seconds-long versions for the benchmark's own tests.
    Tiny,
}

/// What one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed: trace synthesis (suites) or topology (scale).
    pub seed: u64,
    /// How long the untraced run keeps repeating the workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub traced: bool,
    /// Input size.
    pub size: Size,
}

/// Correctness accounting of one run: failures against attempts.
///
/// An operation is one replay (suites) or one rung (scale). It fails when
/// it leaves a loss unrecovered or trips an I1–I6 monitor; every operation
/// of an iteration fails when the iteration's fingerprint differs from the
/// recorded one or from the run's first iteration.
#[derive(Clone, Debug, Default)]
pub struct Check {
    expected: Option<String>,
    first: Option<String>,
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failing iteration.
    pub problems: Vec<String>,
}

impl Check {
    /// A check against `expected`, the fingerprint recorded for this input
    /// (`None` checks only that repeats agree).
    pub fn new(expected: Option<&str>) -> Self {
        Check {
            expected: expected.map(str::to_string),
            ..Check::default()
        }
    }

    /// The fingerprint of the run's first iteration, which every later one
    /// must match.
    pub fn first_fingerprint(&self) -> Option<&str> {
        self.first.as_deref()
    }

    /// Accounts one iteration of `ops` operations, `bad` of which failed
    /// on their own, whose deterministic output hashes to `fingerprint`.
    pub fn record(&mut self, ops: u64, bad: u64, fingerprint: &str) {
        let first = self.first.get_or_insert_with(|| fingerprint.to_string());
        let mismatch = [self.expected.as_deref(), Some(first.as_str())]
            .into_iter()
            .flatten()
            .find(|want| *want != fingerprint);
        let failed = match mismatch {
            Some(want) => {
                self.problems.push(format!(
                    "fingerprint {fingerprint} differs from {want}; all {ops} operations fail"
                ));
                ops
            }
            None => {
                if bad > 0 {
                    self.problems.push(format!(
                        "{bad} of {ops} operations left losses unrecovered or violated an invariant"
                    ));
                }
                bad
            }
        };
        self.attempted += ops;
        self.failed += failed;
    }
}

/// FNV-1a 64-bit hash of `parts`, as 16 hex digits.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The fingerprint recorded in `fingerprints.txt` for a full-size input.
pub fn recorded_fingerprint(workload: Workload, seed: u64) -> Option<&'static str> {
    include_str!("../fingerprints.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, hash) = (f.next()?, f.next()?, f.next()?);
            (w == workload.name() && s.parse() == Ok(seed)).then_some(hash)
        })
}

pub use suite::suite_fingerprint;

/// The deterministic fingerprint of a scale rung: its results row.
pub fn scale_fingerprint(result: &harness::ScaleResult) -> String {
    fingerprint(&[&result.csv_row()])
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted and failed.
    pub check: Check,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable detail printed before the result line.
    pub lines: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<span::Span>,
}

impl Report {
    /// `true` when every operation passed.
    pub fn correct(&self) -> bool {
        self.check.failed == 0 && self.check.attempted > 0
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".to_string(), JsonValue::Num(value)),
                        ("unit".to_string(), JsonValue::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::Num(self.check.attempted as f64),
            ),
            (
                "failed".to_string(),
                JsonValue::Num(self.check.failed as f64),
            ),
            ("metrics".to_string(), JsonValue::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Named metric values gathered by a workload.
pub(crate) type Values = BTreeMap<&'static str, f64>;

/// Every metric of `catalogue` with its unit and value, 0 for those the
/// workload never set.
fn in_catalogue_order(
    values: &Values,
    catalogue: &[(&'static str, &'static str)],
) -> Vec<(&'static str, &'static str, f64)> {
    debug_assert!(
        values.keys().all(|k| catalogue.iter().any(|m| m.0 == *k)),
        "a metric is missing from the catalogue"
    );
    catalogue
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Median of `samples` (which must be non-empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `samples` plus a one-line description of their spread.
pub(crate) fn describe(name: &str, unit: &str, samples: &[f64]) -> (f64, String) {
    let mid = median(samples);
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all: Vec<String> = samples.iter().map(|x| format!("{x:.4}")).collect();
    (
        mid,
        format!(
            "{name}: median {mid:.6} {unit} over {} samples (min {lo:.6}, max {hi:.6}): {}",
            samples.len(),
            all.join(" ")
        ),
    )
}

/// Runs `f` and returns its result with the host seconds it took.
pub(crate) fn stopwatch<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // simlint: allow(D002, reason = "benchmark host-time measurement; never feeds simulation state")
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `a` then `b` on even rounds and `b` then `a` on odd ones, so that a
/// steady drift in host speed favours neither side of a paired timing.
pub(crate) fn alternate<A, B>(
    round: usize,
    a: impl FnOnce() -> A,
    b: impl FnOnce() -> B,
) -> (A, B) {
    if round.is_multiple_of(2) {
        let first = a();
        (first, b())
    } else {
        let second = b();
        (a(), second)
    }
}

/// One timed iteration of a workload.
pub(crate) struct Sample {
    /// Host seconds of the whole operation.
    pub(crate) wall_s: f64,
    /// Host seconds inside `run_suite` or `run_scale` only.
    pub(crate) sim_s: f64,
    /// Simulator events the iteration processed.
    pub(crate) events: u64,
}

/// The untraced run: one untimed set-up, then iterations of the workload
/// until `seconds` have passed, each after [`SETUP_SAMPLES`] timed set-ups.
/// The host's speed drifts over seconds, so set-up is sampled across the
/// whole run, as the iterations are, rather than in one block. Reports the
/// medians.
pub(crate) fn timed_loop(
    seconds: f64,
    mut setup: impl FnMut(),
    mut iterate: impl FnMut() -> Sample,
) -> (Values, Vec<String>) {
    let (mut setups, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    setup();
    // simlint: allow(D002, reason = "benchmark host-time measurement; never feeds simulation state")
    let started = Instant::now();
    let events = loop {
        for _ in 0..SETUP_SAMPLES {
            setups.push(stopwatch(&mut setup).1);
        }
        let sample = iterate();
        walls.push(sample.wall_s);
        rates.push(sample.events as f64 / sample.sim_s);
        if started.elapsed().as_secs_f64() >= seconds {
            break sample.events;
        }
    };
    let mut values = Values::default();
    let mut lines = Vec::new();
    for (name, unit, samples) in [
        ("wall_s", "s", &walls),
        ("events_per_s", "events/s", &rates),
        ("setup_s", "s", &setups),
    ] {
        let (mid, line) = describe(name, unit, samples);
        values.insert(name, mid);
        lines.push(line);
    }
    lines.push(format!("events: {events} per iteration"));
    (values, lines)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs one invocation.
pub fn run(params: &Params) -> Report {
    let (mut values, check, lines, spans) = match params.workload {
        Workload::Scale1e5 => scale::run(params),
        _ => suite::run(params),
    };
    let catalogue = if params.traced { PER_LAYER } else { END_TO_END };
    if !params.traced {
        values.insert(
            "peak_rss_mib",
            peak_rss_mib().expect("peak RSS is read from /proc/self/status on Linux"),
        );
    }
    Report {
        check,
        metrics: in_catalogue_order(&values, catalogue),
        lines,
        spans,
    }
}

/// Provenance of a run: host, CPUs, compiler, revision, seed and the
/// workload's parameters, as one JSON object.
pub fn provenance(params: &Params) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|r| r.trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string());
    let str_val = |s: &str| JsonValue::Str(s.to_string());
    let num = |n: f64| JsonValue::Num(n);
    let workload_params = match params.workload {
        Workload::Scale1e5 => scale::describe_params(params),
        _ => suite::describe_params(params),
    };
    JsonValue::Obj(vec![
        ("host".to_string(), str_val(&host)),
        ("cpu".to_string(), str_val(&cpu)),
        ("nproc".to_string(), num(nproc as f64)),
        ("rustc".to_string(), str_val(env!("PERFBENCH_RUSTC"))),
        ("git_rev".to_string(), str_val(&git_rev)),
        ("workload".to_string(), str_val(params.workload.name())),
        ("seed".to_string(), num(params.seed as f64)),
        (
            "seed_kind".to_string(),
            str_val(if params.seed == params.workload.default_seed() {
                "default"
            } else if params.seed == params.workload.held_out_seed() {
                "held-out"
            } else {
                "other"
            }),
        ),
        ("traced".to_string(), JsonValue::Bool(params.traced)),
        ("seconds".to_string(), num(params.seconds)),
        ("params".to_string(), workload_params),
    ])
    .to_string_compact()
}

/// Renders the traced run's per-span summary.
pub(crate) fn span_table(spans: &[span::Span]) -> Vec<String> {
    let header = format!(
        "{:<30} {:>6} {:>11} {:>11}",
        "span", "count", "total_s", "self_s"
    );
    std::iter::once(header)
        .chain(
            span::summary(spans)
                .into_iter()
                .map(|(name, count, total, own)| {
                    format!("{name:<30} {count:>6} {total:>11.6} {own:>11.6}")
                }),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternate_swaps_the_order_on_odd_rounds() {
        for (round, want) in [(0, "ab"), (1, "ba"), (2, "ab")] {
            let order = std::cell::RefCell::new(String::new());
            let ran = alternate(
                round,
                || order.borrow_mut().push('a'),
                || order.borrow_mut().push('b'),
            );
            assert_eq!(ran, ((), ()));
            assert_eq!(order.into_inner(), want);
        }
    }
}
