//! Fixed-size probes of each layer's public functions. They run in every
//! traced run, whatever the workload, so a later change can read "this
//! layer got faster" apart from "this workload got faster". Inputs derive
//! from the seed; sizes never change with the workload or its scale.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use erasure::ReedSolomon;
use obs::Obs;
use simnet::{Actor, Context, NetworkConfig, NodeId, SimTime, Simulation, TimerToken};
use spot_market::{InstanceType, Market, Price};
use spot_model::{FailureModel, FailureModelConfig, FrozenKernel};
use workload::{split_round_robin, ArrivalProcess};

use crate::host;
use crate::replay_wl::market;
use crate::spans::Recorder;
use crate::stats::median;

const TY: InstanceType = InstanceType::M1Small;
const WEEK: u64 = 7 * 24 * 60;
const PROBE_ZONES: usize = 4;
const PROBE_WEEKS: u64 = 2;
/// Horizon of the forecast probes, minutes (the 3 h bidding interval).
const HORIZON: u32 = 180;

/// Median host microseconds of `f` over `reps` calls.
fn median_us<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            black_box(f(i));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn probe_market(seed: u64) -> Market {
    market(seed, PROBE_ZONES, PROBE_WEEKS * WEEK)
}

fn market_and_model(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let per_market_us = median_us(5, |i| probe_market(seed.wrapping_add(i as u64)));
    out.push((
        "spot-market.generate_us_per_zone_week",
        per_market_us / (PROBE_ZONES as u64 * PROBE_WEEKS) as f64,
    ));

    let market = probe_market(seed);
    let horizon = market.horizon();
    // 10k out-of-bid queries: a bid a fifth above the price at a launch
    // minute spread over the trace, asked of each zone in turn.
    const QUERIES: u64 = 10_000;
    let t0 = Instant::now();
    for q in 0..QUERIES {
        let zone = market.zones()[q as usize % PROBE_ZONES];
        let from = q * (horizon - 1) / QUERIES;
        let bid = market.price(zone, TY, from).scale(1.2);
        black_box(market.out_of_bid_at(zone, TY, bid, from, horizon));
    }
    out.push((
        "spot-market.out_of_bid_ns_per_query",
        t0.elapsed().as_nanos() as f64 / QUERIES as f64,
    ));

    let mut kernels = Vec::new();
    let fit_us: Vec<f64> = market
        .zones()
        .iter()
        .map(|&zone| {
            let trace = market.trace(zone, TY);
            median_us(3, |_| FrozenKernel::from_trace(trace))
        })
        .collect();
    for &zone in market.zones() {
        kernels.push((
            zone,
            Arc::new(FrozenKernel::from_trace(market.trace(zone, TY))),
        ));
    }
    out.push(("spot-model.kernel_fit_us", median(&fit_us)));
    let states: Vec<f64> = kernels.iter().map(|(_, k)| k.n_states() as f64).collect();
    out.push(("spot-model.kernel_states", median(&states)));

    // The (state, age) probe set: the market's own state at 32 minutes
    // spread over the trace, per zone.
    let mut forecast_us = Vec::new();
    let mut min_bid_us = Vec::new();
    for (zone, kernel) in &kernels {
        let model = FailureModel::from_kernel(Arc::clone(kernel), FailureModelConfig::default());
        let trace = market.trace(*zone, TY);
        let cap: Price = TY.on_demand_price(zone.region);
        for p in 0..32u64 {
            let minute = (p + 1) * (horizon - 1) / 33;
            let price = trace.price_at(minute);
            let age = trace.sojourn_age_at(minute).min(u32::MAX as u64) as u32;
            forecast_us.push(median_us(1, |_| model.forecast(price, age, HORIZON)));
            min_bid_us.push(median_us(1, |_| {
                model.min_bid_for_fp(0.05, price, age, HORIZON, cap)
            }));
        }
    }
    out.push(("spot-model.forecast_us_p50", median(&forecast_us)));
    out.push(("spot-model.min_bid_us_p50", median(&min_bid_us)));

    let quorum_us = median_us(21, |_| {
        (3..=9usize)
            .map(|n| quorum::node_failure_pr(n, n / 2 + 1, 0.999_9))
            .collect::<Vec<_>>()
    });
    out.push(("quorum.node_failure_pr_us", quorum_us / 7.0));
}

/// A node that answers every ping with a pong to the next node and keeps
/// one periodic timer running: pure simulator dispatch, no protocol.
struct PingPong {
    peers: usize,
    timers_fired: u64,
}

impl Actor for PingPong {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.set_timer(SimTime::from_millis(10), TimerToken(0));
        for k in 0..4 {
            ctx.send(NodeId((ctx.me.0 + 1 + k) % self.peers), 0);
        }
    }

    fn on_message(&mut self, _from: NodeId, hops: u64, ctx: &mut Context<u64>) {
        ctx.send(NodeId((ctx.me.0 + 1) % self.peers), hops + 1);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<u64>) {
        self.timers_fired += 1;
        ctx.set_timer(SimTime::from_millis(10), token);
    }
}

fn simnet_probe(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    const NODES: usize = 8;
    const TARGET_EVENTS: u64 = 1_000_000;
    let net = NetworkConfig {
        min_latency: SimTime::from_millis(1),
        max_latency: SimTime::from_millis(3),
        drop_probability: 0.0,
    };
    let mut sim = Simulation::new(net, seed);
    for _ in 0..NODES {
        sim.add_node(PingPong {
            peers: NODES,
            timers_fired: 0,
        });
    }
    let events = |sim: &Simulation<PingPong>| {
        let timers: u64 = (0..NODES)
            .filter_map(|n| sim.actor(NodeId(n)))
            .map(|a| a.timers_fired)
            .sum();
        sim.messages_delivered() + timers
    };
    // 32 messages in flight at ~2 ms a hop plus 8 timers per 10 ms: about
    // 16.8k events per simulated second.
    let t0 = Instant::now();
    let mut until = SimTime::ZERO;
    while events(&sim) < TARGET_EVENTS {
        until += SimTime::from_secs(1);
        sim.run_until(until);
    }
    let events = events(&sim);
    out.push((
        "simnet.ns_per_event",
        t0.elapsed().as_nanos() as f64 / events as f64,
    ));
}

fn erasure_probe(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    const M: usize = 3;
    const N: usize = 5;
    let rs = ReedSolomon::new(M, N);
    let (mut bytes, mut encode_s, mut reconstruct_s) = (0usize, 0.0, 0.0);
    // Equal bytes of each object size: 256 x 4 KiB and 16 x 64 KiB.
    for (object_len, count) in [(4 * 1024, 256usize), (64 * 1024, 16)] {
        let shard_len = object_len / M + 1;
        for c in 0..count {
            let data: Vec<Vec<u8>> = (0..M)
                .map(|s| {
                    (0..shard_len)
                        .map(|i| (seed as usize ^ (c * 131 + s * 17 + i * 7)) as u8)
                        .collect()
                })
                .collect();
            let t0 = Instant::now();
            let shards = rs.encode(&data).expect("m equal-length shards");
            encode_s += t0.elapsed().as_secs_f64();
            // Two data shards lost: both must be rebuilt from parity.
            let survivors: Vec<Option<Vec<u8>>> = shards
                .into_iter()
                .enumerate()
                .map(|(i, s)| (i >= 2).then_some(s))
                .collect();
            let t0 = Instant::now();
            let rebuilt = rs.reconstruct(&survivors).expect("three shards survive");
            reconstruct_s += t0.elapsed().as_secs_f64();
            assert_eq!(rebuilt, data, "reconstruction must return the data shards");
            bytes += object_len;
        }
    }
    out.push(("erasure.encode_mb_s", bytes as f64 / 1e6 / encode_s));
    out.push((
        "erasure.reconstruct_mb_s",
        bytes as f64 / 1e6 / reconstruct_s,
    ));
}

fn arrival_probe(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let process = ArrivalProcess::Poisson {
        rate_per_sec: 1_000.0,
    };
    let mut requests = 0;
    let per_run_us = median_us(5, |i| {
        let arrivals = process.sample(seed.wrapping_add(i as u64), SimTime::from_secs(60));
        requests = arrivals.len();
        split_round_robin(arrivals, 512)
    });
    out.push((
        "workload.arrival_ns_per_request",
        per_run_us * 1e3 / requests as f64,
    ));
}

/// One registry counter add plus one span open/close, per op.
fn obs_ns_per_op(obs: &Obs, ops: u64) -> f64 {
    let counter = obs.counter("probe.ops");
    let t0 = Instant::now();
    for _ in 0..ops {
        counter.add(1);
        let span = obs.trace.span_open("probe.op", &[]);
        obs.trace.span_close(span, "probe.op", &[]);
    }
    black_box(counter.get());
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Every fixed probe, as `(per-layer metric, value)`.
pub fn run(seed: u64, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    rec.scope("probes", |rec| {
        rec.scope("spot-model.probe", |_| market_and_model(seed, &mut out));
        rec.scope("simnet.probe", |_| simnet_probe(seed, &mut out));
        rec.scope("erasure.probe", |_| erasure_probe(seed, &mut out));
        rec.scope("workload.probe", |_| arrival_probe(seed, &mut out));
        rec.scope("obs.probe", |_| {
            out.push((
                "obs.disabled_ns_per_op",
                obs_ns_per_op(&Obs::disabled(), 2_000_000),
            ));
            out.push((
                "obs.enabled_ns_per_op",
                obs_ns_per_op(&Obs::simulated().0, 200_000),
            ));
        });
        rec.scope("host.calibration", |_| {
            out.push(("host.calibration_ns", host::calibration_ns()))
        });
    });
    out
}
