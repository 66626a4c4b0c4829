//! Integration tests crossing the market/protocol boundary: the live
//! Paxos lock service and RS-Paxos store driven by market-derived fault
//! schedules.

use bytes::Bytes;
use spot_jupiter::jupiter::{BiddingStrategy, ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::{AlertSink, Obs};
use spot_jupiter::paxos::{ClientOp, LockCmd, ReplicaConfig};
use spot_jupiter::replay::lifecycle::DECISION_LEAD;
use spot_jupiter::replay::service_level::{lock_service_replay, ServiceReplayConfig};
use spot_jupiter::replay::{RepairConfig, RepairPolicy, Replay, ReplayConfig, Scenario, SweepSpec};
use spot_jupiter::simnet::SimTime;
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig, Termination};
use spot_jupiter::storage::{RsConfig, StoreCmd, StoreResp};
use test_util::{lock_cluster, storage_cluster};

/// ROADMAP item 2's wedge recipe: an 8-zone m1.small market at `seed`,
/// two training weeks, then three days re-bid every 3 h; the replay seed
/// is the market seed.
const TRAIN: u64 = 2 * 7 * 24 * 60;
const WINDOW: u64 = 3 * 24 * 60;

fn recipe(seed: u64) -> (Market, ServiceReplayConfig) {
    let mut cfg = MarketConfig::paper(seed, TRAIN + WINDOW);
    cfg.zones.truncate(8);
    cfg.types = vec![InstanceType::M1Small];
    let config = ServiceReplayConfig {
        eval_start: TRAIN,
        window_minutes: WINDOW,
        interval_hours: 3,
        seed,
    };
    (Market::generate(cfg), config)
}

#[test]
fn the_wedge_recipe_is_never_silent() {
    // Extra(0, 0.2) stops answering partway through the window. Whatever
    // the cause, a stall must raise the liveness watchdog inside the
    // window (one market minute is one simulated second).
    let (market, config) = recipe(2014);
    let obs = Obs {
        alerts: AlertSink::new(AlertSink::DEFAULT_CAPACITY),
        ..Obs::disabled()
    };
    let out = lock_service_replay(&market, ExtraStrategy::new(0, 0.2), config, &obs)
        .expect("an initial fleet");
    let alarmed = obs
        .alerts
        .snapshot()
        .iter()
        .any(|a| a.monitor == "watchdog.liveness" && a.at_micros < WINDOW * 1_000_000);
    assert!(out.ops_unfinished == 0 || alarmed, "silent stall: {out:?}");
}

#[test]
fn the_live_service_runs_the_billed_fleet() {
    // Every kill the market replay bills crashes a live replica, and every
    // boundary where the billed membership changes is one view change:
    // a joiner, a retiree, or a replica killed since the last boundary.
    let (market, config) = recipe(2014);
    let spec = ServiceSpec::lock_service();
    let end = TRAIN + WINDOW;
    let strategies: [fn() -> Box<dyn BiddingStrategy>; 2] = [
        || Box::new(JupiterStrategy::new()),
        || Box::new(ExtraStrategy::new(0, 0.2)),
    ];
    for make in strategies {
        let billed = Replay::new(&market, &spec, ReplayConfig::new(TRAIN, end, 3)).run(make());
        let records = &billed.instances;
        let kills = records
            .iter()
            .filter(|r| r.termination == Termination::Provider && r.ended_at < end)
            .count();
        let changed = billed
            .intervals
            .windows(2)
            .filter(|w| {
                let (last, iv) = (w[0].start, w[1].start);
                records.iter().any(|r| match r.termination {
                    _ if r.granted_at + DECISION_LEAD == iv => true,
                    Termination::User => r.ended_at == iv,
                    // A kill at a boundary minute lands after its view change.
                    Termination::Provider => (last..iv).contains(&r.ended_at),
                })
            })
            .count();
        let live = lock_service_replay(&market, make(), config, &Obs::disabled())
            .expect("an initial fleet");
        assert_eq!(live.crashes, kills, "{}", billed.strategy);
        assert_eq!(live.reconfigs, changed, "{}", billed.strategy);
    }
}

#[test]
fn killed_replicas_leave_the_view_at_the_next_boundary() {
    // At seed 31 the market replay keeps its quorum, yet the live service
    // wedged while each kill left a dead voter in the view.
    let (market, config) = recipe(31);
    for (n, portion) in [(0, 0.2), (2, 0.2)] {
        let strategy = ExtraStrategy::new(n, portion);
        let out = lock_service_replay(&market, strategy, config, &Obs::disabled())
            .expect("an initial fleet");
        assert_eq!(out.ops_unfinished, 0, "Extra({n}, {portion}): {out:?}");
    }
}

#[test]
fn service_level_replay_meets_sla() {
    let train = 2 * 7 * 24 * 60;
    let mut cfg = MarketConfig::paper(55, train + 3 * 60 + 30);
    cfg.zones.truncate(8);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);
    let out = lock_service_replay(
        &market,
        JupiterStrategy::new(),
        ServiceReplayConfig {
            eval_start: train,
            window_minutes: 3 * 60,
            interval_hours: 1,
            seed: 4,
        },
        &Obs::disabled(),
    )
    .expect("an initial fleet");
    assert!(out.ops_completed > 30, "completed {}", out.ops_completed);
    assert_eq!(out.ops_unfinished, 0);
    assert!(out.sla_fraction > 0.9, "sla {}", out.sla_fraction);
    assert!(out.agreed_log_len >= out.ops_completed);
}

#[test]
fn repair_never_lowers_availability_across_the_interval_sweep() {
    // The paper-shaped lock-service scenario (13-week-style structure at
    // smoke scale: train prefix, held-out evaluation span, interval
    // sweep) replayed twice per cell — repair off and hybrid — through
    // one shared kernel store. Boundary decisions are frozen at the
    // boundary models, so for every swept interval and both strategies
    // the repairing cell must match or beat the plain cell's
    // availability; a single regression here means the controller
    // interfered with the fixed-interval baseline it is supposed to
    // strictly extend.
    let train = 2 * 7 * 24 * 60;
    let eval = 7 * 24 * 60;
    let mut cfg = MarketConfig::paper(2014, train + eval);
    cfg.zones.truncate(10);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);

    let scenario = Scenario::new(market, train, train + eval);
    let spec = SweepSpec::new(ServiceSpec::lock_service())
        .strategy(|_| Box::new(JupiterStrategy::new()))
        .strategy(|_| Box::new(ExtraStrategy::new(0, 0.05)))
        .intervals(vec![1, 3, 6, 12])
        .repairs(vec![RepairConfig::off(), RepairConfig::hybrid()]);
    let cells = scenario.run(&spec);
    assert_eq!(cells.len(), 16);

    // Grid order keeps each (interval, strategy) pair adjacent with off
    // before hybrid.
    let mut compared = 0;
    for pair in cells.chunks(2) {
        let [off, hybrid] = pair else { unreachable!() };
        assert_eq!(off.repair, RepairPolicy::Off);
        assert_eq!(hybrid.repair, RepairPolicy::Hybrid);
        assert_eq!(off.interval_hours, hybrid.interval_hours);
        assert_eq!(off.result.strategy, hybrid.result.strategy);
        assert!(
            hybrid.result.availability() >= off.result.availability() - 1e-12,
            "{} at {}h: repair lowered availability {} -> {}",
            off.result.strategy,
            off.interval_hours,
            off.result.availability(),
            hybrid.result.availability()
        );
        assert!(
            hybrid.result.degraded_minutes <= off.result.degraded_minutes,
            "{} at {}h: repair raised degraded minutes",
            off.result.strategy,
            off.interval_hours
        );
        // And repair stays cheaper than surrendering to on-demand.
        assert!(hybrid.result.total_cost < scenario.baseline_cost(spec.service()));
        compared += 1;
    }
    assert_eq!(compared, 8);

    // The thin-margin heuristic must actually have exercised repair
    // somewhere in the sweep, or the assertions above were vacuous.
    let exercised = cells.iter().any(|c| {
        c.repair == RepairPolicy::Hybrid
            && c.result.degraded_minutes
                < cells
                    .iter()
                    .find(|o| {
                        o.repair == RepairPolicy::Off
                            && o.interval_hours == c.interval_hours
                            && o.result.strategy == c.result.strategy
                    })
                    .expect("paired off cell")
                    .result
                    .degraded_minutes
    });
    assert!(exercised, "no cell saw a repairable mid-interval kill");
}

#[test]
fn lock_service_rolling_replacement_is_seamless() {
    // Replace every replica of a 5-node group one by one (the worst-case
    // outcome of five consecutive bidding intervals) while a client works.
    let mut c = lock_cluster(5, ReplicaConfig::default(), 8);
    let client = c.add_client();
    c.submit(
        client,
        ClientOp::App(LockCmd::Acquire {
            name: "root".into(),
            owner: client,
        }),
    );
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));

    for round in 0..5 {
        let outgoing = c
            .current_view()
            .expect("view")
            .into_iter()
            .min()
            .expect("non-empty view");
        let newcomer = c.spawn_server();
        c.submit(
            client,
            ClientOp::Reconfig {
                add: vec![newcomer],
                remove: vec![outgoing],
            },
        );
        assert!(
            c.run_until_drained(client, c.sim.now() + SimTime::from_secs(120)),
            "round {round} reconfig"
        );
        c.refresh_clients();
        c.crash(outgoing);
        // The service keeps answering after each swap.
        c.submit(
            client,
            ClientOp::App(LockCmd::Acquire {
                name: format!("l{round}"),
                owner: client,
            }),
        );
        assert!(
            c.run_until_drained(client, c.sim.now() + SimTime::from_secs(120)),
            "round {round} op"
        );
    }
    // Nothing of the original membership remains.
    let view = c.current_view().expect("view");
    assert_eq!(view.len(), 5);
    assert!(view.iter().all(|n| n.0 >= 5), "fully rotated: {view:?}");
    c.assert_log_agreement();
}

#[test]
fn storage_service_handles_churn_with_quorum_margin() {
    // Kill and restart replicas one at a time (never two concurrently —
    // θ(3,5) tolerates exactly one) across several rounds of writes.
    let mut c = storage_cluster(5, RsConfig::default(), 17);
    let client = c.add_client();
    for round in 0..4u8 {
        let obj = Bytes::from(vec![round; 400]);
        c.submit(
            client,
            StoreCmd::Put {
                key: format!("k{round}"),
                object: obj,
            },
        );
        let deadline = c.sim.now() + SimTime::from_secs(120);
        assert!(c.run_until_drained(client, deadline), "round {round} put");
        let victim = c.servers()[round as usize % 5];
        c.crash(victim);
        c.submit(
            client,
            StoreCmd::Get {
                key: format!("k{round}"),
            },
        );
        let deadline = c.sim.now() + SimTime::from_secs(180);
        assert!(
            c.run_until_drained(client, deadline),
            "round {round} get under failure"
        );
        match c.last_response(client) {
            Some(StoreResp::Value { object: Some(got) }) => {
                assert_eq!(got, Bytes::from(vec![round; 400]), "round {round}");
            }
            other => panic!("round {round}: {other:?}"),
        }
        c.restart_pristine(victim);
        let settled = c.sim.now() + SimTime::from_secs(20);
        c.sim.run_until(settled);
    }
}
