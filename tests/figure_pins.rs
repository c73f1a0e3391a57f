//! Every figure's CSV at a tiny scale, pinned in debug.
//!
//! The quick-preset goldens under `crates/tap-sim/tests/goldens` are
//! release-speed and skipped by a debug `cargo test`. This file runs each
//! figure (and the coded-multipath resilience sweep) at the small scale of
//! `crates/tap-sim/tests/determinism.rs`'s `tiny()` on one thread and holds
//! its CSV to the text recorded before the scenario set-ups were merged
//! into `tap_core::World`. All nine runs take about 3 s in debug.

use tap_sim::experiments::{
    churn, collusion, latency, node_failures, resilience, secure_routing, sweeps,
};
use tap_sim::{Scale, Series};

fn tiny() -> Scale {
    Scale {
        nodes: 250,
        tunnels: 60,
        latency_sims: 2,
        latency_transfers: 8,
        churn_units: 3,
        churn_per_unit: 12,
        seed: 0xD37,
        ..Scale::quick()
    }
    .with_threads(1)
}

fn check(name: &str, run: fn(&Scale) -> Series, scale: &Scale, pinned: &str) {
    assert_eq!(
        run(scale).to_csv(),
        pinned,
        "{name}: tiny-scale CSV diverged from its pin"
    );
}

#[test]
fn fig2_is_pinned() {
    check(
        "fig2",
        node_failures::run,
        &tiny(),
        r#"failed_fraction,current_tunneling,tap_k3,tap_k5,analytic_current,analytic_k3,analytic_k5
0.050000,0.310345,0,0,0.226219,0.000625,0.000002
0.100000,0.436364,0,0,0.409510,0.004990,0.000050
0.150000,0.615385,0,0,0.556295,0.016761,0.000380
0.200000,0.755102,0,0,0.672320,0.039365,0.001599
0.250000,0.765957,0.127660,0,0.762695,0.075721,0.004873
0.300000,0.894737,0,0,0.831930,0.127904,0.012091
0.350000,0.906250,0.218750,0.031250,0.883971,0.196764,0.025987
0.400000,0.962963,0.370370,0.111111,0.922240,0.281579,0.050162
0.450000,0.966667,0.400000,0.133333,0.949672,0.379816,0.088921
0.500000,0.892857,0.392857,0.071429,0.968750,0.487091,0.146785
"#,
    );
}

#[test]
fn fig3_is_pinned() {
    check(
        "fig3",
        collusion::run,
        &tiny(),
        r#"malicious_fraction,corrupted,analytic
0.050000,0,0.000059
0.100000,0.003333,0.001462
0.150000,0.016667,0.008555
0.200000,0.033333,0.027676
0.250000,0.063333,0.064582
0.300000,0.153333,0.122413
"#,
    );
}

#[test]
fn fig4a_is_pinned() {
    check(
        "fig4a",
        sweeps::by_replication,
        &tiny(),
        r#"replication_factor,corrupted,analytic
1,0,0.000010
2,0.003333,0.000248
3,0.003333,0.001462
4,0.006667,0.004810
5,0.023333,0.011517
6,0.020000,0.022585
8,0.050000,0.059923
"#,
    );
}

#[test]
fn fig4b_is_pinned() {
    check(
        "fig4b",
        sweeps::by_length,
        &tiny(),
        r#"tunnel_length,corrupted,analytic
1,0.220000,0.271000
2,0.083333,0.073441
3,0.033333,0.019903
4,0,0.005394
5,0,0.001462
6,0,0.000396
7,0,0.000107
8,0,0.000029
"#,
    );
}

#[test]
fn fig5_is_pinned() {
    check(
        "fig5",
        churn::run,
        &tiny(),
        r#"time_unit,unrefreshed,refreshed
0,0,0
1,0,0
2,0,0
3,0,0
"#,
    );
}

#[test]
fn fig6_is_pinned() {
    check(
        "fig6",
        latency::run,
        &tiny(),
        r#"nodes,overt,tap_basic_l5,tap_opt_l5,tap_basic_l3,tap_opt_l3
100,2.647362,15.754783,10.718974,10.264890,7.967372
126,2.863760,15.465624,11.311703,10.599894,8.477973
158,2.439624,15.496409,11.290892,10.262527,8.303503
199,3.021247,17.019901,11.594227,11.181230,8.502918
250,2.889308,17.694113,11.691120,11.237119,9.265511
"#,
    );
}

#[test]
fn secure_is_pinned() {
    check(
        "secure",
        secure_routing::run,
        &tiny(),
        r#"malicious_fraction,naive,redundant_f8,iterative,redundant_cost_hops,iterative_cost_queries
0.050000,0.858333,0.900000,1,24.241667,8.841667
0.100000,0.641667,0.741667,1,17.991667,23.658333
0.200000,0.550000,0.658333,1,13.008333,30.266667
0.300000,0.458333,0.525000,1,13.083333,76.300000
0.400000,0.350000,0.416667,1,10.733333,93.941667
"#,
    );
}

#[test]
fn resilience_is_pinned() {
    check(
        "resilience",
        resilience::run,
        &tiny(),
        r#"loss_permille,delivered_frac,retries_per_xfer,giveups_per_xfer
0,1,0,0
25,0.937500,0.500000,0.062500
50,0.812500,1.750000,0.187500
100,0.812500,2.687500,0.187500
200,0.812500,2.687500,0.187500
"#,
    );
}

#[test]
fn resilience_multipath_is_pinned() {
    let scale = Scale {
        mp_n: 5,
        mp_k: 3,
        ..tiny()
    };
    check(
        "resilience --multipath 5/3",
        resilience::run,
        &scale,
        r#"loss_permille,sp_delivered_frac,sp_p99_ms,sp_retries_per_xfer,sp_relay_exposure,mp_delivered_frac,mp_p99_ms,mp_retries_per_xfer,mp_relay_exposure
0,1,1212.623000,0,1,1,797.285000,0,0.387500
25,0.937500,1299.313000,0.437500,1,0.812500,1206.335000,4.812500,0.400000
50,0.875000,1995.074000,1.375000,1,0.937500,1390.752000,3.500000,0.386667
100,0.750000,2180.144000,2.250000,1,1,2128.152000,2.187500,0.350000
200,0.937500,6329.730000,1.812500,1,0.875000,2284.528000,7.937500,0.328571
"#,
    );
}
