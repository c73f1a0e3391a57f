//! Quickstart: bring up a TAP network and anonymously fetch a file.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole §3–§4 lifecycle on one `World`: bootstrap a structured
//! overlay, deploy tunnel hop anchors through an Onion-Routing bootstrap
//! path, form a forward and a reply tunnel, and retrieve a file without the
//! responder (or any relay) learning who asked.

use tap::core::World;
use tap::pastry::PastryConfig;

fn main() {
    // 1. A 500-node Pastry/PAST deployment with the paper's parameters
    //    (b = 4, |L| = 16, k = 3, tunnel length 5).
    let mut sys = World::build(PastryConfig::paper_defaults(), 500, 7);
    sys.puzzle_difficulty = 8; // make relays pay real CPU per deposit
    println!("overlay up: {} nodes", sys.overlay.len());

    // 2. Pick a user and anonymously deploy anchors for two tunnels
    //    (forward + reply) via Onion-Routing bootstrap paths.
    let user = sys.random_node().expect("nodes joined");
    let deployed = sys
        .deploy_anchors(user, 12, 16)
        .expect("bootstrap paths exist");
    println!("user {user:?} deployed {deployed} tunnel hop anchors anonymously");

    // 3. Someone (anyone) publishes a file into PAST.
    let fid = sys
        .store_file(b"TAP: tunnels that survive churn".to_vec())
        .expect("nodes joined");
    println!("file published under fid {fid}");

    // 4. Anonymous retrieval through distinct forward and reply tunnels.
    let (data, report) = sys
        .retrieve_file(user, fid, /* use_hints = */ false)
        .expect("retrieval succeeds");
    println!(
        "retrieved {} bytes through {}+{} tunnel hops ({} overlay hops total)",
        data.len(),
        report.forward.hops_resolved,
        report.reply.hops_resolved,
        report.forward.overlay_hops + report.reply.overlay_hops,
    );
    assert_eq!(data, b"TAP: tunnels that survive churn");

    // 5. The same fetch with the §5 address-hint optimization.
    sys.deploy_anchors(user, 12, 16).expect("more anchors");
    let (_, fast) = sys
        .retrieve_file(user, fid, true)
        .expect("hinted retrieval");
    println!(
        "with IP hints: {} overlay hops ({} hint hits)",
        fast.forward.overlay_hops + fast.reply.overlay_hops,
        fast.forward.hint_hits + fast.reply.hint_hits,
    );
}
