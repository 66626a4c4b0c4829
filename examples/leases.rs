//! Chubby-style lease semantics on the replicated lock service: a client
//! holds a leased lock, renews it for a while, then disappears — and the
//! lease lapses deterministically across the whole replica group, even
//! across a leader failover.
//!
//! ```text
//! cargo run --release --example leases
//! ```

use spot_jupiter::paxos::{ClientOp, Cluster, LockCmd, LockResp, LockService, ReplicaConfig};
use spot_jupiter::simnet::{NetworkConfig, SimTime};

fn main() {
    let mut c: Cluster<LockService> = Cluster::new(
        5,
        LockService::new(),
        ReplicaConfig::default(),
        NetworkConfig::default(),
        2025,
    );
    let alice = c.add_client();
    let bob = c.add_client();

    let submit_and_wait = |c: &mut Cluster<LockService>, who, op: LockCmd| -> Option<LockResp> {
        c.submit(who, ClientOp::App(op));
        assert!(c.run_until_drained(who, c.sim.now() + SimTime::from_secs(60)));
        c.last_response(who)
    };

    // Alice takes a 20-second lease on the master lock.
    let now = c.sim.now().as_millis();
    let r = submit_and_wait(
        &mut c,
        alice,
        LockCmd::AcquireLease {
            name: "master".into(),
            owner: alice,
            now_ms: now,
            ttl_ms: 20_000,
        },
    );
    println!("alice acquires 20 s lease: {r:?}");

    // Bob is refused while the lease is live.
    let now = c.sim.now().as_millis();
    let r = submit_and_wait(
        &mut c,
        bob,
        LockCmd::AcquireLease {
            name: "master".into(),
            owner: bob,
            now_ms: now,
            ttl_ms: 20_000,
        },
    );
    println!("bob during alice's lease:  {r:?}");

    // Alice renews once…
    let now = c.sim.now().as_millis();
    let r = submit_and_wait(
        &mut c,
        alice,
        LockCmd::Renew {
            name: "master".into(),
            owner: alice,
            now_ms: now,
        },
    );
    println!("alice renews:              {r:?}");

    // …then the leader crashes and Alice goes silent past her TTL.
    let leader = c.leader().expect("leader");
    println!("\nleader {leader} crashes; alice stops renewing…");
    c.crash(leader);
    c.sim.run_until(c.sim.now() + SimTime::from_secs(30));

    // Bob now wins: the lease lapsed inside the replicated state machine,
    // no matter which replica leads now.
    let now = c.sim.now().as_millis();
    let r = submit_and_wait(
        &mut c,
        bob,
        LockCmd::AcquireLease {
            name: "master".into(),
            owner: bob,
            now_ms: now,
            ttl_ms: 20_000,
        },
    );
    println!("bob after lease expiry:    {r:?}");
    assert_eq!(r, Some(LockResp::Granted));
    c.assert_log_agreement();
    println!("\nall surviving replicas agree on the full lock history.");
}
