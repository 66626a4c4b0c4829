//! A sweep shares work between its cells: the cells that differ only in
//! repair policy replay over one boundary schedule and, where the bidder
//! has one, one decision pass (Jupiter's), and the books' models follow
//! that schedule by cursor. None of it may show in a result: every cell
//! of a `Scenario::run` grid must equal the same cell replayed alone
//! through `Replay::run`, on its own store and schedule, compared on the
//! whole `ReplayResult`.

use spot_jupiter::jupiter::{
    BiddingStrategy, ExtraStrategy, FeedbackStrategy, JupiterStrategy, ServiceSpec,
};
use spot_jupiter::replay::{RepairConfig, Replay, Scenario, SweepSpec};
use spot_jupiter::spot_market::BidEra;
use test_util::market_days;

const DAY: u64 = 24 * 60;

fn bidder(b: usize) -> Box<dyn BiddingStrategy> {
    match b {
        0 => Box::new(ExtraStrategy::new(0, 0.2)),
        1 => Box::new(FeedbackStrategy::new()),
        _ => Box::new(JupiterStrategy::new()),
    }
}

#[test]
fn every_sweep_cell_equals_its_replay_alone() {
    let market = market_days(2014, 6, 17);
    let service = ServiceSpec::lock_service();
    let repairs = [
        RepairConfig::off(),
        RepairConfig::hybrid(),
        RepairConfig::migrate(),
    ];
    let eras = [BidEra::Bidding, BidEra::CapacityReclaim];
    let spec = (0..3)
        .fold(SweepSpec::new(service.clone()), |spec, b| {
            spec.strategy(move |_| bidder(b))
        })
        .intervals(vec![3])
        .repairs(repairs.to_vec())
        .eras(eras.to_vec());
    let scenario = Scenario::new(market.clone(), 14 * DAY, 17 * DAY);
    let cells = scenario.run(&spec);
    assert_eq!(cells.len(), 18);
    let mut alone = Vec::new();
    for b in 0..3 {
        for repair in repairs {
            for era in eras {
                let config = scenario.config(3).with_era(era);
                let result = Replay::new(&market, &service, config)
                    .repair(repair)
                    .run(bidder(b));
                alone.push((repair.policy, era, format!("{result:?}")));
            }
        }
    }
    for (i, (cell, (policy, era, want))) in cells.iter().zip(&alone).enumerate() {
        assert_eq!((cell.repair, cell.era), (*policy, *era), "cell {i}");
        assert_eq!(
            &format!("{:?}", cell.result),
            want,
            "cell {i}: {policy:?} {era:?}"
        );
    }
    // The grid exercises what sharing could break: under every bidder a
    // hybrid cell rebids on the shared schedule (it replays unlike its off
    // twin), and a migrate cell drains ahead of a reclaim.
    let at = |b: usize, r: usize, e: usize| 6 * b + 2 * r + e;
    for b in 0..3 {
        let repaired = (0..2).any(|e| alone[at(b, 1, e)].2 != alone[at(b, 0, e)].2);
        assert!(repaired, "bidder {b} repaired");
        assert!(cells[at(b, 2, 1)].result.drains > 0, "bidder {b} migrated");
    }
}
