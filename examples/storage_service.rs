//! The erasure-coded storage service (§5.1.2): an RS-Paxos θ(3,5) cluster
//! storing coded shards, surviving a replica kill and reconstructing
//! reads after leader failover.
//!
//! ```text
//! cargo run --release --example storage_service
//! ```

use bytes::Bytes;
use spot_jupiter::simnet::{NetworkConfig, NodeId, SimTime};
use spot_jupiter::storage::{RsCluster, RsConfig, StoreCmd, StoreResp};

fn main() {
    let mut cluster = RsCluster::new(5, RsConfig::default(), NetworkConfig::default(), 11);
    let client = cluster.add_client();
    println!("θ(3,5) RS-Paxos storage: quorum {}, tolerates 1 failure", 4);

    // Write a set of objects.
    let objects: Vec<(String, Bytes)> = (0..8)
        .map(|i| {
            let key = format!("object-{i}");
            let body = Bytes::from(vec![i as u8 ^ 0x5A; 1_200 + i * 97]);
            (key, body)
        })
        .collect();
    for (key, body) in &objects {
        cluster.submit(
            client,
            StoreCmd::Put {
                key: key.clone(),
                object: body.clone(),
            },
        );
        assert!(drain(&mut cluster, client));
    }
    println!("stored {} objects", objects.len());

    // Shard accounting: each replica holds ~1/3 of each object.
    let total_object_bytes: usize = objects.iter().map(|(_, b)| b.len()).sum();
    let mut total_shard_bytes = 0usize;
    for &s in cluster.servers() {
        let held = cluster
            .replica(s)
            .map(|r| r.service().store().shard_bytes())
            .unwrap_or(0);
        total_shard_bytes += held;
        println!("  node {s}: {held} shard bytes");
    }
    println!(
        "coded footprint: {total_shard_bytes} B for {total_object_bytes} B of data \
         ({:.2}× vs 5× for replication)",
        total_shard_bytes as f64 / total_object_bytes as f64
    );

    // Kill the leader — the only node caching full objects — and read
    // everything back through shard reconstruction.
    let leader = cluster.leader().expect("leader elected");
    println!("\ncrashing leader {leader} (out-of-bid)…");
    cluster.crash(leader);

    let mut ok = 0;
    for (key, body) in &objects {
        cluster.submit(client, StoreCmd::Get { key: key.clone() });
        assert!(drain(&mut cluster, client));
        match cluster.last_response(client) {
            Some(StoreResp::Value { object: Some(got) }) if got == *body => ok += 1,
            other => println!("  {key}: unexpected {other:?}"),
        }
    }
    println!(
        "reconstructed {ok}/{} objects from 3-of-5 shards after failover",
        objects.len()
    );
}

/// Run until `client` has nothing outstanding (two sim-minutes at most).
fn drain(cluster: &mut RsCluster, client: NodeId) -> bool {
    let deadline = cluster.sim.now() + SimTime::from_secs(120);
    cluster.run_until_drained(client, deadline)
}
