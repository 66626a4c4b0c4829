//! The bidding algorithms end-to-end: Fig. 3 on the paper's 17 zones,
//! the heuristics, and the exact solver on small instances.

use bench::bench_market;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jupiter::framework::MarketSnapshot;
use jupiter::{
    BiddingFramework, BiddingStrategy, ExhaustiveSolver, ExtraStrategy, JupiterStrategy,
    ServiceSpec,
};
use replay::lifecycle::snapshots_at;
use spot_market::{InstanceType, Market};
use std::hint::black_box;

fn framework_for<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
) -> (BiddingFramework<S>, Vec<MarketSnapshot>) {
    let ty = InstanceType::M1Small;
    let mut fw = BiddingFramework::new(ServiceSpec::lock_service(), strategy);
    let now = market.horizon() - 1;
    for &zone in market.zones() {
        fw.observe(zone, ty, market.trace(zone, ty));
    }
    (fw, snapshots_at(market, &[ty], now))
}

fn jupiter_decide(c: &mut Criterion) {
    let mut g = c.benchmark_group("jupiter_decide_17_zones");
    g.sample_size(10);
    let market = bench_market(8, 17);
    let (fw, snapshots) = framework_for(&market, JupiterStrategy::new());
    for hours in [1u32, 6, 12] {
        g.bench_with_input(BenchmarkId::from_parameter(hours), &hours, |b, &h| {
            b.iter(|| fw.decide(black_box(&snapshots), h * 60))
        });
    }
    g.finish();
}

fn extra_decide(c: &mut Criterion) {
    let market = bench_market(8, 17);
    let (fw, snapshots) = framework_for(&market, ExtraStrategy::new(2, 0.2));
    c.bench_function("extra_decide_17_zones", |b| {
        b.iter(|| fw.decide(black_box(&snapshots), 360))
    });
}

fn exhaustive_small(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhaustive_nlp");
    g.sample_size(10);
    for zones in [4usize, 5, 6] {
        let market = bench_market(8, zones);
        let (fw, snapshots) = framework_for(&market, ExhaustiveSolver::default());
        g.bench_with_input(BenchmarkId::from_parameter(zones), &zones, |b, _| {
            b.iter(|| fw.decide(black_box(&snapshots), 360))
        });
    }
    g.finish();
}

criterion_group!(benches, jupiter_decide, extra_decide, exhaustive_small);
criterion_main!(benches);
