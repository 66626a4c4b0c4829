//! The repo benchmark: five workloads over the public APIs of this
//! repository's crates, ten end-to-end metrics every workload reports
//! (three host measurements, seven simulated outcomes), per-layer probes
//! and registry counts from a separate traced run.
//!
//! The driver is single-threaded. Untraced runs hand the layers
//! `Obs::disabled()`; a traced run adds `Obs::simulated()` passes and
//! benchmark-side spans, and is the only source of per-layer numbers.
//! See `README.md` beside this crate for the metric and workload tables.

pub mod host;
pub mod probes;
pub mod replay_wl;
pub mod serving_wl;
pub mod spans;
pub mod spec;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use obs::{MetricsSnapshot, Obs};

use spans::Recorder;

/// Cycles over the sub-seeds an untraced run makes at least, whatever
/// `--seconds`: two, so every pass has a twin to repeat exactly.
const MIN_CYCLES: usize = 2;

/// `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// How one run is sized and seeded.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload seed; market, arrival and mix seeds derive from it.
    pub seed: u64,
    /// Host seconds to keep measuring.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Share of the full workload size; 1.0 is the benchmark, and only
    /// the smoke test (0.05) runs at anything else.
    pub scale: f64,
}

impl Options {
    /// `full` simulated seconds / days / … at this scale, at least 1.
    pub fn scaled(&self, full: u64) -> u64 {
        ((full as f64 * self.scale).round() as u64).max(1)
    }
}

/// What one pass over a workload produced. Everything here is simulated,
/// so it must repeat exactly from pass to pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    /// Operations attempted (bidding intervals or client requests).
    pub ops: u64,
    /// Operations that failed (empty group / unacknowledged at drain).
    pub failed: u64,
    /// Host seconds spent inside the layers' functions (set-up and the
    /// benchmark's own checks excluded) — the timed part of the pass.
    pub wall_s: f64,
    /// The simulated end-to-end metrics this workload defines, by name.
    pub outcome: Vec<(&'static str, f64)>,
    /// Simulated per-layer metrics the pass itself yields.
    pub sim_layer: Vec<(&'static str, f64)>,
    /// Any other simulated totals that must repeat (cost, bids, …).
    pub fingerprint: Vec<u64>,
    /// Per-layer host timings taken inside the pass (not simulated, so
    /// not expected to repeat).
    pub host_layer: Vec<(&'static str, f64)>,
    /// Failed correctness checks, in words.
    pub errors: Vec<String>,
}

impl Pass {
    /// The simulated end-to-end metric `name`, if this workload defines it.
    pub fn outcome(&self, name: &str) -> Option<f64> {
        self.outcome.iter().find(|o| o.0 == name).map(|o| o.1)
    }
}

/// One of the five workloads.
pub trait Workload: Sized {
    /// What set-up hands to a pass.
    type Ready;

    /// Inputs an untraced run cycles through, all derived from `--seed`.
    /// How fast a market replays or a cluster serves depends on the draw
    /// (which zones spike, which replica wins the first election) by more
    /// than any bound worth setting; summing over several draws per run
    /// keeps the seed-to-seed spread inside the bounds.
    const SUB_SEEDS: usize;

    /// The workload at `opts.scale`, its inputs drawn from `opts.seed`.
    fn new(opts: &Options) -> Self;

    /// Prepare one pass: generate inputs from the seed, fit models, build
    /// clusters. Timed as `setup_s`.
    fn setup(&self, obs: &Obs, rec: &mut Recorder) -> Self::Ready;

    /// One timed pass over the prepared inputs, checked for correctness.
    fn pass(&self, ready: Self::Ready, obs: &Obs, rec: &mut Recorder) -> Pass;

    /// Simulated end-to-end metrics that take passes of their own (a rate
    /// ladder): computed once per untraced run, on its first draw.
    fn outcome_once(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Workload-specific per-layer measurements for the traced run
    /// (anything the registry and the fixed probes cannot give).
    fn extras(&self, _rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The result of one run, ready to print.
#[derive(Clone, Debug)]
pub struct Report {
    /// Operations attempted over all timed passes.
    pub attempted: u64,
    /// Operations failed over all timed passes.
    pub failed: u64,
    /// Failed correctness checks; empty means `correct`.
    pub errors: Vec<String>,
    /// `(name, value, unit)` — the end-to-end metrics of an untraced run
    /// or the per-layer metrics of a traced one, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable notes (sample counts, tails) printed before the
    /// result line.
    pub notes: Vec<String>,
    /// The Chrome trace of a traced run.
    pub trace_json: Option<String>,
}

impl Report {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run the workload named `name`; `None` for an unknown name.
pub fn run_named(name: &str, opts: &Options) -> Option<Report> {
    Some(match name {
        "bid_replay" => run::<replay_wl::BidReplay>(name, opts),
        "controller_sweep" => run::<replay_wl::ControllerSweep>(name, opts),
        "lock_serving" => run::<serving_wl::LockServing>(name, opts),
        "store_serving" => run::<serving_wl::StoreServing>(name, opts),
        "lock_failover" => run::<serving_wl::LockFailover>(name, opts),
        _ => return None,
    })
}

/// The `k`-th input seed of a run: `--seed` itself, then splitmix64 steps.
fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One set-up + pass, both timed.
struct Timed {
    setup_s: f64,
    /// Wall of the whole pass including the benchmark's checks (what the
    /// `pass` span covers); throughput uses `pass.wall_s`.
    span_s: f64,
    pass: Pass,
}

fn timed_pass<W: Workload>(w: &W, obs: &Obs, rec: &mut Recorder) -> Timed {
    let t0 = Instant::now();
    let ready = rec.scope("setup", |rec| w.setup(obs, rec));
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let pass = rec.scope("pass", |rec| w.pass(ready, obs, rec));
    Timed {
        setup_s,
        span_s: t1.elapsed().as_secs_f64(),
        pass,
    }
}

/// Simulated results must not depend on the pass, nor on tracing.
fn check_repeats(first: &Pass, other: &Pass, what: &str, errors: &mut Vec<String>) {
    let same = first.ops == other.ops
        && first.failed == other.failed
        && first.outcome == other.outcome
        && first.sim_layer == other.sim_layer
        && first.fingerprint == other.fingerprint;
    if !same {
        errors.push(format!("simulated results differ between passes ({what})"));
    }
}

/// Run workload `W` untraced or traced, as `opts` says.
pub fn run<W: Workload>(name: &str, opts: &Options) -> Report {
    let mut report = if opts.traced {
        run_traced(name, &W::new(opts), opts)
    } else {
        run_untraced::<W>(opts)
    };
    if report.attempted == 0 {
        report.errors.push("no operation was attempted".into());
    }
    report
}

fn run_untraced<W: Workload>(opts: &Options) -> Report {
    let obs = Obs::disabled();
    let mut rec = Recorder::new(false);
    let draws: Vec<W> = (0..opts.scaled(W::SUB_SEEDS as u64) as usize)
        .map(|k| {
            W::new(&Options {
                seed: sub_seed(opts.seed, k),
                ..*opts
            })
        })
        .collect();
    let started = Instant::now();
    // cycles[c][k]: the c-th pass over the k-th draw.
    let mut cycles: Vec<Vec<Timed>> = Vec::new();
    while cycles.len() < MIN_CYCLES || started.elapsed().as_secs_f64() < opts.seconds {
        cycles.push(
            draws
                .iter()
                .map(|w| timed_pass(w, &obs, &mut rec))
                .collect(),
        );
    }

    let mut errors = Vec::new();
    for (c, cycle) in cycles.iter().enumerate() {
        for (k, run) in cycle.iter().enumerate() {
            check_repeats(
                &cycles[0][k].pass,
                &run.pass,
                &format!("draw {k}, pass 0 vs {c}"),
                &mut errors,
            );
            errors.extend(run.pass.errors.iter().cloned());
        }
    }
    errors.sort();
    errors.dedup();
    // Per draw, the median over cycles shrugs off a disturbed pass; the
    // sum over draws averages out what the draw itself decides.
    let per_draw = |f: &dyn Fn(&Timed) -> f64| -> Vec<f64> {
        (0..draws.len())
            .map(|k| stats::median(&cycles.iter().map(|cycle| f(&cycle[k])).collect::<Vec<_>>()))
            .collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let first = &cycles[0];
    let completed: u64 = first.iter().map(|r| r.pass.ops - r.pass.failed).sum();
    let walls = per_draw(&|r| r.pass.wall_s);
    let once = draws[0].outcome_once();
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => mean(per_draw(&|r| r.setup_s)),
                "ops_per_s" => completed as f64 / walls.iter().sum::<f64>(),
                "peak_rss_mb" => host::peak_rss_mb(),
                // Simulated: the mean over the draws, where defined.
                name => {
                    let drawn: Option<Vec<f64>> =
                        first.iter().map(|r| r.pass.outcome(name)).collect();
                    let once = once.iter().find(|o| o.0 == name).map(|o| o.1);
                    once.or(drawn.map(mean)).unwrap_or(spec::NOT_APPLICABLE)
                }
            };
            (m.name, value, m.unit)
        })
        .collect();
    let walls_ms: Vec<f64> = cycles
        .iter()
        .flatten()
        .map(|r| r.pass.wall_s * 1e3)
        .collect();
    Report {
        attempted: cycles.iter().flatten().map(|r| r.pass.ops).sum(),
        failed: cycles.iter().flatten().map(|r| r.pass.failed).sum(),
        errors,
        metrics,
        notes: vec![
            format!(
                "passes: {} cycles over {} draws in {:.2} s",
                cycles.len(),
                draws.len(),
                started.elapsed().as_secs_f64()
            ),
            format!("pass wall ms: {}", stats::Summary::of(&walls_ms)),
            format!(
                "ops per cycle: {}",
                first.iter().map(|r| r.pass.ops).sum::<u64>()
            ),
        ],
        trace_json: None,
    }
}

/// Sum of the registry counters whose name `matches`.
fn counters(snap: &MetricsSnapshot, matches: impl Fn(&str) -> bool) -> f64 {
    snap.counters
        .iter()
        .filter(|(n, _)| matches(n))
        .fold(0.0, |sum, &(_, v)| sum + v as f64)
}

/// The counter `name`, summed over the `cell.….` prefixes a sweep merges
/// its cells' registries under.
fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    let dotted = format!(".{name}");
    counters(snap, |n| n == name || n.ends_with(&dotted))
}

/// Every counter of `family` (a name ending in a dot), cells included.
fn family(snap: &MetricsSnapshot, family: &str) -> f64 {
    let dotted = format!(".{family}");
    counters(snap, |n| n.starts_with(family) || n.contains(&dotted))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics that are one registry counter under the same name.
const REGISTRY_COUNTERS: [&str; 8] = [
    "jupiter.forecasts_computed",
    "jupiter.candidates_evaluated",
    "model_store.fits_performed",
    "model_store.fits_reused",
    "replay.bids_placed",
    "repair.rebids",
    "migrate.launched",
    "paxos.elections_started",
];

/// The per-layer counts and ratios the *existing* `obs` registry holds
/// after one traced pass; 0 where the workload never touched the layer.
fn registry_metrics(snap: &MetricsSnapshot, pass: &Pass) -> Vec<(&'static str, f64)> {
    let completed = (pass.ops - pass.failed) as f64;
    let hits = counter(snap, "jupiter.fp_cache_hits");
    let misses = counter(snap, "jupiter.fp_cache_misses");
    let paxos_sent = family(snap, "paxos.msg_sent.");
    let decides = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.ends_with("jupiter.decide_micros"))
        .fold(0.0, |sum, (_, h)| sum + h.count as f64);
    let catchup = counter(snap, "paxos.msg_sent.catchup_request")
        + counter(snap, "paxos.msg_sent.catchup_reply");
    let heartbeats = counter(snap, "paxos.msg_sent.heartbeat");
    let accepts = counter(snap, "paxos.msg_sent.accept");
    let mut out: Vec<_> = REGISTRY_COUNTERS
        .iter()
        .map(|&name| (name, counter(snap, name)))
        .collect();
    out.extend([
        ("jupiter.decide_calls", decides),
        ("jupiter.fp_cache_hit_ratio", ratio(hits, hits + misses)),
        ("replay.deaths", family(snap, "replay.death.")),
        ("paxos.msgs_per_commit", ratio(paxos_sent, completed)),
        ("paxos.heartbeat_share", ratio(heartbeats, paxos_sent)),
        ("paxos.accepts_per_commit", ratio(accepts, completed)),
        ("paxos.catchup_msgs", catchup),
        (
            "storage.msgs_per_commit",
            ratio(family(snap, "storage.msg_sent."), completed),
        ),
    ]);
    out
}

/// Record `pairs` into `values`, refusing names the tables do not declare.
fn set(values: &mut BTreeMap<&'static str, f64>, pairs: Vec<(&'static str, f64)>) {
    for (name, value) in pairs {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        values.insert(name, value);
    }
}

fn run_traced<W: Workload>(name: &str, w: &W, opts: &Options) -> Report {
    let mut rec = Recorder::new(true);
    let mut quiet = Recorder::new(false);
    let started = Instant::now();
    let cpu0 = host::cpu_seconds();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut errors: Vec<String> = Vec::new();
    // Alternate untraced and traced passes so both see the same machine.
    let mut last: Option<(Timed, MetricsSnapshot)> = None;
    // Half the time budget goes to the pairs, the rest to extras and probes;
    // one pair always runs (a traced `controller_sweep` pass alone is ~25 s).
    while untraced_s.is_empty() || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let plain = timed_pass(w, &Obs::disabled(), &mut quiet);
        let (obs, _clock) = Obs::simulated();
        let traced = timed_pass(w, &obs, &mut rec);
        check_repeats(&plain.pass, &traced.pass, "untraced vs traced", &mut errors);
        errors.extend(plain.pass.errors.iter().chain(&traced.pass.errors).cloned());
        untraced_s.push(plain.pass.wall_s);
        traced_s.push(traced.pass.wall_s);
        last = Some((traced, obs.metrics.snapshot()));
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu_per_wall = (host::cpu_seconds() - cpu0) / wall;
    let (traced, snap) = last.expect("at least one pair ran");
    let pass = traced.pass;
    let pass_span = rec
        .spans()
        .iter()
        .rposition(|s| s.name == "pass" && s.parent.is_none())
        .expect("pass span recorded");
    let self_over_wall =
        spans::subtree_self_ns(rec.spans(), pass_span) as f64 / (traced.span_s * 1e9);
    if (self_over_wall - 1.0).abs() > 0.02 {
        errors.push(format!(
            "span self times sum to {self_over_wall:.4} of the pass wall"
        ));
    }

    let mut values = BTreeMap::new();
    set(&mut values, registry_metrics(&snap, &pass));
    set(
        &mut values,
        vec![
            (
                "obs.traced_over_untraced",
                stats::median(&traced_s) / stats::median(&untraced_s),
            ),
            (
                "outcome.failed_share",
                ratio(pass.failed as f64, pass.ops as f64),
            ),
            ("host.cpu_s_per_wall_s", cpu_per_wall),
            ("host.pass_wall_ms", traced.span_s * 1e3),
            ("host.span_self_over_wall", self_over_wall),
        ],
    );
    set(&mut values, pass.sim_layer);
    set(&mut values, pass.host_layer);
    set(&mut values, w.extras(&mut rec));
    set(&mut values, probes::run(opts.seed, &mut rec));
    errors.sort();
    errors.dedup();
    let metrics: Vec<(&'static str, f64, &'static str)> = spec::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    let numbers: Vec<(String, f64)> = metrics
        .iter()
        .map(|&(n, v, _)| (n.to_string(), v))
        .collect();
    Report {
        attempted: pass.ops,
        failed: pass.failed,
        errors,
        notes: vec![
            format!("pairs: {} untraced/traced in {wall:.2} s", traced_s.len()),
            format!("spans recorded: {}", rec.spans().len()),
        ],
        trace_json: Some(spans::chrome_trace_json(name, rec.spans(), &numbers)),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose passes do nothing.
    struct Idle;

    impl Workload for Idle {
        type Ready = ();
        const SUB_SEEDS: usize = 1;

        fn new(_opts: &Options) -> Self {
            Idle
        }

        fn setup(&self, _obs: &Obs, _rec: &mut Recorder) {}

        fn pass(&self, _ready: (), _obs: &Obs, _rec: &mut Recorder) -> Pass {
            Pass::default()
        }
    }

    #[test]
    fn a_run_that_attempts_nothing_is_not_correct() {
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            traced: false,
            scale: 1.0,
        };
        let report = run::<Idle>("idle", &opts);
        assert!(!report.correct(), "{:?}", report.errors);
        assert!(report.result_line().contains("\"attempted\": 0"));
    }
}
