//! Experiment **E16**: the four system classes — client/server,
//! peer-to-peer, federated, open (Section 5's classification).
//!
//! "In peer-to-peer systems (...) the total amount of resources available
//! for processing queries increases with the number of clients, assuming
//! that free-riding is not prevalent. (...) On open systems, parties may
//! allocate resources in a self-interested fashion."
//!
//! Run: `cargo run -p dwr-bench --release -- E16`

use crate::Ctx;
use dwr_query::arch::Architecture;

pub(crate) fn run(_: &Ctx) {
    println!("E16. Capacity vs client population across the four system classes.\n");

    let cs = Architecture::ClientServer { servers: 100 };
    let p2p_good = Architecture::PeerToPeer { free_riding: 0.2, peer_strength: 0.005 };
    let p2p_freeride = Architecture::PeerToPeer { free_riding: 0.9, peer_strength: 0.005 };
    let fed = Architecture::Federated { site_servers: vec![40, 30, 30] };
    let open = Architecture::Open {
        site_servers: vec![40, 30, 30],
        foreign_priority: 0.4,
        foreign_fraction: 0.5,
    };

    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "clients", "client/srv", "p2p (fr=.2)", "p2p (fr=.9)", "federated", "open (.4/.5)"
    );
    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        println!(
            "{:>10} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            n,
            cs.capacity(n),
            p2p_good.capacity(n),
            p2p_freeride.capacity(n),
            fed.capacity(n),
            open.capacity(n)
        );
    }

    println!("\nsaturation at 0.1 qps per client:");
    let describe = |name: &str, a: &Architecture| match a.saturation_point(0.1) {
        None => println!("  {:<22} unbounded (supply per client exceeds demand)", name),
        Some(n) => println!("  {:<22} {} clients", name, n),
    };
    describe("client/server", &cs);
    describe("p2p (20% free riding)", &p2p_good);
    describe("p2p (90% free riding)", &p2p_freeride);
    describe("federated", &fed);
    describe("open (selfish)", &open);

    // The free-riding cliff: at what free-riding level does P2P stop
    // scaling for this demand?
    println!("\nfree-riding cliff for p2p at 0.1 qps/client (peer strength 0.005 => 0.5 qps):");
    for fr in [0.0, 0.5, 0.75, 0.79, 0.81, 0.9] {
        let a = Architecture::PeerToPeer { free_riding: fr, peer_strength: 0.005 };
        let verdict = match a.saturation_point(0.1) {
            None => "scales forever".to_owned(),
            Some(_) => "collapses".to_owned(),
        };
        println!("  free riding {:>4.0}% -> {verdict}", fr * 100.0);
    }
    println!("\npaper shape: server-side capacity is flat in clients; P2P grows with them");
    println!("until free riding crosses the supply/demand line (at 80% here); open-system");
    println!("self-interest taxes the federation's pooled capacity.");
}
