//! The replay books' heap traffic, as a budget that does not depend on
//! the host: every cell shape the benchmark's `controller_sweep` replays —
//! Extra(0, 0.2), Extra(2, 0.2) and Feedback × repair off / hybrid /
//! migrate × both interruption eras × 1, 3 and 6 h intervals, over a
//! 3-day window of an 8-zone m1.small market at seed 2014 — may make at
//! most `MAX_ALLOCS_PER_INTERVAL` heap allocations per replayed interval.
//!
//! The count is deterministic, so a per-interval buffer that stops being
//! reused, an unsized collect on the decide path or an audit record built
//! with the audit log off fails here on any machine. What the books cost
//! in time is the repo benchmark's `controller_sweep` `ops_per_s`.
//!
//! The file is its own test binary with a single test because it installs
//! the counting `#[global_allocator]` of `test_util::alloc`.

use spot_jupiter::jupiter::{ExtraStrategy, FeedbackStrategy, ModelStore, ServiceSpec};
use spot_jupiter::replay::{RepairConfig, Replay, ReplayConfig};
use spot_jupiter::spot_market::BidEra;
use test_util::alloc::{allocations, Counting};
use test_util::market_days;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The measured count (5.00 per interval) plus 10 %; 10.57 while every
/// boundary pushed a range per pool into each model's queue, rebids and
/// migrations collected fresh snapshots, and Extra and Feedback sorted
/// scratch `Vec`s beside the bids they return.
const MAX_ALLOCS_PER_INTERVAL: f64 = 5.5;

const DAY: u64 = 24 * 60;

#[test]
fn replay_books_allocations_per_interval_stay_in_budget() {
    let market = market_days(2014, 8, 17);
    let spec = ServiceSpec::lock_service();
    let store = ModelStore::new();
    let window = |hours| ReplayConfig::new(14 * DAY, 17 * DAY, hours);
    // Fit every kernel and build the traces' lookup indexes first, as the
    // benchmark's setup does, so the count is the books' alone.
    Replay::new(&market, &spec, window(3))
        .store(&store)
        .run(ExtraStrategy::new(0, 0.2));
    let mut intervals = 0;
    let allocs = allocations(|| {
        for hours in [1, 3, 6] {
            for era in [BidEra::Bidding, BidEra::CapacityReclaim] {
                for repair in [
                    RepairConfig::off(),
                    RepairConfig::hybrid(),
                    RepairConfig::migrate(),
                ] {
                    let replay = || {
                        Replay::new(&market, &spec, window(hours).with_era(era))
                            .repair(repair)
                            .store(&store)
                    };
                    intervals += replay().run(ExtraStrategy::new(0, 0.2)).intervals.len();
                    intervals += replay().run(ExtraStrategy::new(2, 0.2)).intervals.len();
                    intervals += replay().run(FeedbackStrategy::new()).intervals.len();
                }
            }
        }
    });
    assert_eq!(intervals, 18 * (72 + 24 + 12), "54 cells over 1, 3 and 6 h");
    let per_interval = allocs.count as f64 / intervals as f64;
    let bytes_per_interval = allocs.bytes as f64 / intervals as f64;
    println!("{per_interval:.2} allocations, {bytes_per_interval:.0} bytes per interval");
    assert!(
        per_interval <= MAX_ALLOCS_PER_INTERVAL,
        "{per_interval:.2} allocations per interval (budget {MAX_ALLOCS_PER_INTERVAL}); \
         is a per-interval buffer being reallocated again?"
    );
}
