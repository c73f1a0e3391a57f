//! The paper's §7 claims, each checked over seeds 1–8 under one rule per
//! kind of claim.
//!
//! - **An ordering or bound** (fig. 3 grows with p, TAP_opt beats
//!   TAP_basic, …) holds on every seed. It runs at the tiny preset in every
//!   build when it holds there on all eight seeds, and at the quick preset
//!   in release otherwise.
//! - **A claim that fails on some seed even at quick** is stated over the
//!   eight-seed distribution, as its mean. Its per-seed values are in
//!   CHANGES.md.
//! - **A closed form** (figs. 2–4) is checked by the interval rule below,
//!   at quick in release. It replaces the per-seed "within X of analytic"
//!   bands the experiment modules used to carry.
//!
//! The closed forms assume independent node fates: a baseline tunnel of `l`
//! fixed relays fails with `1 − (1 − p)^l`, a TAP tunnel whose hops each
//! have `k` replica holders with `1 − (1 − p^k)^l`, and a collusion of
//! fraction `p` traces it (case 1) with `(1 − (1 − p)^k)^l`. The check
//! computes each one from a row's x value and the figure's `k` and `l`, and
//! asserts two things:
//!
//! - every `analytic*` column equals it to 6 decimals;
//! - **the interval rule:** each analytic value lies inside the across-seed
//!   [min, max] of its measured column, widened by one count of that
//!   column's denominator on each side.
//!
//! Tunnels share node fates (replica holders are leaf-set neighbours), so
//! the spread is measured over seeds, not assumed binomial. One count is
//! `1 / tunnels` for fig2 (a point surveys at most `tunnels` tunnels) and
//! `1 / (COLLUSIONS · tunnels)` for figs. 3 and 4 (each point averages
//! `COLLUSIONS` collusions over `tunnels` tunnels).
//!
//! Debug builds run the tiny claims on seeds 1–5 to stay under 10 s on two
//! cores; release runs every claim on all eight:
//! `cargo test --release --test acceptance`.

use std::ops::RangeInclusive;

use tap_sim::{cli, Scale, Series};

/// Seeds every claim is taken over.
const SEEDS: RangeInclusive<u64> = 1..=8;

/// Seeds the tiny claims run on: a prefix in debug builds.
const TINY_SEEDS: RangeInclusive<u64> = if cfg!(debug_assertions) { 1..=5 } else { SEEDS };

/// Collusions each fig3/fig4 point averages.
const COLLUSIONS: f64 = 5.0;

/// The paper's tunnel length, and the k and p the sweeps hold fixed.
const L: i32 = 5;
const K: i32 = 3;
const P: f64 = 0.1;

fn baseline_failure(p: f64, l: i32) -> f64 {
    1.0 - (1.0 - p).powi(l)
}

fn tap_failure(p: f64, k: i32, l: i32) -> f64 {
    1.0 - (1.0 - p.powi(k)).powi(l)
}

fn corruption(p: f64, k: i32, l: i32) -> f64 {
    (1.0 - (1.0 - p).powi(k)).powi(l)
}

/// The scale a command line configures.
fn scale(line: &str) -> Scale {
    cli::parse_line(line).expect("the line parses").scale
}

/// The figure `line` names at the scale it configures, once per seed.
fn runs(line: &str, seeds: RangeInclusive<u64>) -> Vec<Series> {
    let figure = line.split_whitespace().next().expect("a figure name");
    let &(_, run) = cli::FIGURES
        .iter()
        .find(|(name, _)| *name == figure)
        .expect("a figure of cli::FIGURES");
    seeds
        .map(|seed| run(&scale(&format!("{line} --seed {seed}"))))
        .collect()
}

fn col(s: &Series, name: &str) -> Vec<f64> {
    s.column(name).unwrap_or_else(|| panic!("no {name} column"))
}

/// Holds `claim` on every run (run `i` is seed `i + 1`), naming the seeds
/// it fails on.
fn every_seed(runs: &[Series], what: &str, claim: impl Fn(&Series) -> bool) {
    let failed: Vec<usize> = (1..=runs.len()).filter(|&i| !claim(&runs[i - 1])).collect();
    assert!(failed.is_empty(), "{what}: fails on seeds {failed:?}");
}

/// The mean over runs of `value`.
fn mean(runs: &[Series], value: impl Fn(&Series) -> f64) -> f64 {
    runs.iter().map(value).sum::<f64>() / runs.len() as f64
}

/// The mean over runs of `value`, and its standard error across them.
fn mean_and_se(runs: &[Series], value: impl Fn(&Series) -> f64) -> (f64, f64) {
    let m = mean(runs, &value);
    let n = runs.len() as f64;
    let var = runs.iter().map(|s| (value(s) - m).powi(2)).sum::<f64>() / (n - 1.0);
    (m, (var / n).sqrt())
}

fn mean_of(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Holds `analytic` to the closed form `model(x)` on every row of every
/// run, and `model(x)` to the across-seed interval of `measured`, widened
/// by `count`.
fn check(
    series: &[Series],
    measured: &str,
    analytic: &str,
    count: f64,
    model: impl Fn(f64) -> f64,
) {
    for (row, first) in series[0].rows.iter().enumerate() {
        let x = first.x;
        let want = model(x);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in series {
            assert_eq!(s.rows[row].x, x, "rows line up across seeds");
            let got = col(s, analytic)[row];
            assert!(
                (got - want).abs() < 5e-7,
                "{analytic} at x = {x}: the CSV has {got}, the closed form is {want}"
            );
            let m = col(s, measured)[row];
            lo = lo.min(m);
            hi = hi.max(m);
        }
        assert!(
            lo - count <= want && want <= hi + count,
            "{measured} at x = {x}: the closed form {want:.6} lies outside \
             [{lo:.6}, {hi:.6}] widened by one count ({count:.6})"
        );
    }
}

/// One count of a fig2 column at the quick preset: `1 / tunnels`.
fn quick_count() -> f64 {
    1.0 / scale("all").tunnels as f64
}

// ---------------------------------------------------------------------------
// Orderings and bounds that hold at tiny on every seed: every build.
// ---------------------------------------------------------------------------

#[test]
fn fig2_tap_fails_less_than_the_baseline_and_k5_less_than_k3() {
    let runs = runs("fig2 --preset tiny", TINY_SEEDS);
    // At p = 0.5 most 5-hop baseline tunnels are dead.
    every_seed(&runs, "baseline > 0.85 at p = 0.5", |s| {
        col(s, "current_tunneling")[9] > 0.85
    });
    // Higher k is (weakly) more robust, and TAP (weakly) beats the
    // baseline, at every p.
    every_seed(&runs, "k5 <= k3 at every p", |s| {
        let (k3, k5) = (col(s, "tap_k3"), col(s, "tap_k5"));
        k5.iter().zip(&k3).all(|(a, b)| a <= b)
    });
    every_seed(&runs, "k3 <= baseline at every p", |s| {
        let (k3, base) = (col(s, "tap_k3"), col(s, "current_tunneling"));
        k3.iter().zip(&base).all(|(t, b)| t <= b)
    });
}

#[test]
fn fig3_corruption_grows_with_p_and_stays_small() {
    let runs = runs("fig3 --preset tiny", TINY_SEEDS);
    every_seed(&runs, "corruption grows with p, within 0.02", |s| {
        col(s, "corrupted").windows(2).all(|w| w[1] + 0.02 >= w[0])
    });
    // "There is no significant tunnels corrupted even if p is large enough
    // (e.g., 0.3)": the paper's own plot tops out well under one fifth.
    every_seed(&runs, "corruption < 0.25 at p = 0.3", |s| {
        col(s, "corrupted")[5] < 0.25
    });
    every_seed(&runs, "corruption < 0.01 at p = 0.05", |s| {
        col(s, "corrupted")[0] < 0.01
    });
}

#[test]
fn fig4a_corruption_grows_with_k() {
    let runs = runs("fig4a --preset tiny", TINY_SEEDS);
    // "As the replication factor increases, the fraction of tunnels that
    // are corrupted increases."
    every_seed(&runs, "corruption grows with k, within 0.03", |s| {
        col(s, "corrupted").windows(2).all(|w| w[1] + 0.03 >= w[0])
    });
    every_seed(&runs, "k = 8 exceeds k = 1 by 0.01", |s| {
        let m = col(s, "corrupted");
        m[6] > m[0] + 0.01
    });
}

#[test]
fn fig4b_corruption_falls_with_l_and_knees_at_5() {
    let runs = runs("fig4b --preset tiny", TINY_SEEDS);
    // "The fraction decreases with the increasing tunnel length, and the
    // tunnel length of 5 catches the knee of the curve."
    every_seed(&runs, "corruption falls with l, within 0.03", |s| {
        col(s, "corrupted").windows(2).all(|w| w[1] <= w[0] + 0.03)
    });
    every_seed(&runs, "l = 5 within 0.02 of l = 8", |s| {
        let m = col(s, "corrupted");
        m[4] - m[7] < 0.02
    });
    every_seed(&runs, "l = 1 exceeds l = 5 by 0.10", |s| {
        let m = col(s, "corrupted");
        m[0] > m[4] + 0.10
    });
}

#[test]
fn fig5_unrefreshed_only_grows_and_refreshed_stays_flat() {
    let runs = runs("fig5 --preset tiny", TINY_SEEDS);
    // Unrefreshed knowledge is monotone: the collusion's ledger only grows.
    every_seed(&runs, "unrefreshed never dips", |s| {
        col(s, "unrefreshed")
            .windows(2)
            .all(|w| w[1] + 1e-9 >= w[0])
    });
    // "Refreshed keeps almost constant."
    every_seed(&runs, "refreshed stays within 0.05 of its start", |s| {
        let r = col(s, "refreshed");
        r.iter().all(|v| *v <= r[0] + 0.05)
    });
}

#[test]
fn fig6_orderings() {
    let runs = runs("fig6 --preset tiny", TINY_SEEDS);
    let at_every_size = |what: &str, claim: fn(&[f64; 5]) -> bool| {
        every_seed(&runs, what, |s| {
            let c = [
                "overt",
                "tap_basic_l5",
                "tap_opt_l5",
                "tap_basic_l3",
                "tap_opt_l3",
            ]
            .map(|name| col(s, name));
            (0..s.rows.len()).all(|i| claim(&c.each_ref().map(|v| v[i])))
        })
    };
    // "TAP's basic tunneling mechanism introduces a significant latency
    // penalty."
    at_every_size("basic5 > 1.5 overt", |[o, b5, ..]| *b5 > o * 1.5);
    // "A longer tunnel introduces bigger performance overhead."
    at_every_size("basic5 > basic3", |[_, b5, _, b3, _]| b5 > b3);
    // "TAP's performance optimized tunneling mechanism can dramatically
    // reduce the latency penalty."
    at_every_size("opt5 < basic5", |[_, b5, o5, ..]| o5 < b5);
    at_every_size("opt3 < basic3", |[_, _, _, b3, o3]| o3 < b3);
    // The optimization cannot beat the overt direct route.
    at_every_size("opt3 >= 0.8 overt", |[o, _, _, _, o3]| *o3 >= o * 0.8);
    // A 2 Mb file at 1.5 Mb/s costs 1.33 s a store-and-forward hop, and
    // every path has at least one hop.
    at_every_size("overt > 1 s", |[o, ..]| *o > 1.0);
    at_every_size("basic5 < 60 s", |[_, b5, ..]| *b5 < 60.0);
}

#[test]
fn secure_routing_mechanisms_rank_as_designed_at_a_cost() {
    let runs = runs("secure --preset tiny", TINY_SEEDS);
    let (naive, redundant, iterative) = ("naive", "redundant_f8", "iterative");
    every_seed(&runs, "iterative + 0.03 >= redundant at every p", |s| {
        let (it, re) = (col(s, iterative), col(s, redundant));
        it.iter().zip(&re).all(|(i, r)| i + 0.03 >= *r)
    });
    every_seed(&runs, "redundant + 0.05 >= naive at every p", |s| {
        let (re, na) = (col(s, redundant), col(s, naive));
        re.iter().zip(&na).all(|(r, n)| r + 0.05 >= *n)
    });
    // Iterative is near-perfect even at 40% droppers, and naive trails it.
    every_seed(&runs, "iterative > 0.9 at p = 0.4", |s| {
        col(s, iterative)[4] > 0.9
    });
    every_seed(&runs, "naive < iterative at p = 0.4", |s| {
        col(s, naive)[4] < col(s, iterative)[4]
    });
    // Redundant copies cost several times a single route; iterative
    // queries grow as droppers waste probes.
    every_seed(&runs, "redundant costs > 4 hops at every p", |s| {
        col(s, "redundant_cost_hops").iter().all(|h| *h > 4.0)
    });
    every_seed(&runs, "iterative queries grow from p = 0.05 to 0.4", |s| {
        let q = col(s, "iterative_cost_queries");
        q[4] > q[0]
    });
}

#[test]
fn resilience_baseline_is_lossless_and_chaos_degrades_gracefully() {
    let runs = runs("resilience --preset tiny --faults 200", TINY_SEEDS);
    // Row 0 is the fault-free control: everything arrives, untouched.
    every_seed(&runs, "the loss = 0 row delivers all, untouched", |s| {
        s.rows[0].x == 0.0
            && col(s, "delivered_frac")[0] == 1.0
            && col(s, "retries_per_xfer")[0] == 0.0
            && col(s, "giveups_per_xfer")[0] == 0.0
    });
    // Under 40% loss the shim works for its deliveries, and most transfers
    // still arrive.
    every_seed(&runs, "40% loss forces resends", |s| {
        col(s, "retries_per_xfer")[4] > 0.0
    });
    every_seed(&runs, "40% loss delivers > 0.5", |s| {
        col(s, "delivered_frac")[4] > 0.5
    });
    // Every non-delivery is an accounted give-up.
    every_seed(&runs, "delivered + give-ups = 1 at every loss", |s| {
        let (d, g) = (col(s, "delivered_frac"), col(s, "giveups_per_xfer"));
        d.iter().zip(&g).all(|(d, g)| (d + g - 1.0).abs() < 1e-9)
    });
}

#[test]
fn multipath_control_row_is_lossless_and_no_relay_carries_a_whole_transfer() {
    let runs = runs("resilience --preset tiny --multipath 5/3", TINY_SEEDS);
    every_seed(&runs, "both modes deliver all at loss = 0", |s| {
        s.rows[0].x == 0.0
            && col(s, "sp_delivered_frac")[0] == 1.0
            && col(s, "mp_delivered_frac")[0] == 1.0
    });
    // Disjoint stripes mean no relay ever carries the whole transfer; a
    // single-path relay always does.
    every_seed(&runs, "exposure is 1 single-path and < 1 striped", |s| {
        let (sp_d, mp_d) = (col(s, "sp_delivered_frac"), col(s, "mp_delivered_frac"));
        let (sp_e, mp_e) = (col(s, "sp_relay_exposure"), col(s, "mp_relay_exposure"));
        (0..s.rows.len())
            .all(|i| (sp_d[i] == 0.0 || sp_e[i] == 1.0) && (mp_d[i] == 0.0 || mp_e[i] < 1.0))
    });
    // The gate-worthy numbers surface as bench extras: the 100 permille row.
    every_seed(&runs, "bench extras are the loss = 100 row", |s| {
        let center = s.rows.iter().position(|r| r.x == 100.0).expect("center");
        [
            "mp_delivered_frac",
            "sp_delivered_frac",
            "mp_p99_ms",
            "sp_p99_ms",
        ]
        .iter()
        .all(|key| {
            let extra = s.bench_extras.iter().find(|(k, _)| k == key);
            extra.map(|(_, v)| *v) == Some(col(s, key)[center])
        })
    });
}

// ---------------------------------------------------------------------------
// Quick preset, release only: the closed forms, the orderings that miss on
// some tiny seed, and the claims stated over the eight-seed distribution.
// ---------------------------------------------------------------------------

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig2_failures_bracket_their_closed_forms() {
    let series = runs("fig2", SEEDS);
    let count = quick_count();
    check(
        &series,
        "current_tunneling",
        "analytic_current",
        count,
        |p| baseline_failure(p, L),
    );
    check(&series, "tap_k3", "analytic_k3", count, |p| {
        tap_failure(p, 3, L)
    });
    check(&series, "tap_k5", "analytic_k5", count, |p| {
        tap_failure(p, 5, L)
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig2_tap_k3_is_near_zero_at_small_p() {
    // "In TAP, there is no significant tunnel failure": below 0.03 at
    // p = 0.05 and 0.10. Seed 5 reads 0.033 at p = 0.10, so the claim is
    // on the eight-seed mean.
    let runs = runs("fig2", SEEDS);
    for (i, p) in [(0, 0.05), (1, 0.10)] {
        let m = mean(&runs, |s| col(s, "tap_k3")[i]);
        assert!(m < 0.03, "k3 at p = {p}: eight-seed mean {m:.4}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig3_corruption_brackets_its_closed_form() {
    let series = runs("fig3", SEEDS);
    check(
        &series,
        "corrupted",
        "analytic",
        quick_count() / COLLUSIONS,
        |p| corruption(p, K, L),
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig4a_corruption_brackets_its_closed_form() {
    let series = runs("fig4a", SEEDS);
    check(
        &series,
        "corrupted",
        "analytic",
        quick_count() / COLLUSIONS,
        |k| corruption(P, k as i32, L),
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig4b_corruption_brackets_its_closed_form() {
    let series = runs("fig4b", SEEDS);
    check(
        &series,
        "corrupted",
        "analytic",
        quick_count() / COLLUSIONS,
        |l| corruption(P, K, l as i32),
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig5_refresh_holds_corruption_at_the_static_floor() {
    let runs = runs("fig5", SEEDS);
    // "The corrupted rate of unrefreshed increases steadily as time goes":
    // its last three points average above its first three on every seed.
    every_seed(&runs, "unrefreshed: last three > first three", |s| {
        let u = col(s, "unrefreshed");
        mean_of(&u[u.len() - 3..]) > mean_of(&u[..3])
    });
    // Refresh helps by the end. Seed 5 ends with both at 0.0025, so the
    // claim is on the eight-seed mean.
    let end = |name: &'static str| move |s: &Series| *col(s, name).last().unwrap();
    let (u, r) = (
        mean(&runs, end("unrefreshed")),
        mean(&runs, end("refreshed")),
    );
    assert!(
        u > r,
        "eight-seed mean at the end: unrefreshed {u:.5}, refreshed {r:.5}"
    );
    // "Refreshed keeps almost constant", at the static floor: the eight-seed
    // mean of its last third lies within three standard errors of
    // (1 − (1 − p)^k)^l.
    let floor = corruption(P, K, L);
    let (m, se) = mean_and_se(&runs, |s| {
        let r = col(s, "refreshed");
        mean_of(&r[r.len() - r.len() / 3..])
    });
    assert!(
        (m - floor).abs() <= 3.0 * se,
        "refreshed's last third: eight-seed mean {m:.5} ± {se:.5} (1 SE), static floor {floor:.5}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn multipath_out_delivers_single_path_retry_and_cuts_the_tail() {
    let runs = runs("resilience --multipath 5/3", SEEDS);
    let at_center = |s: &Series, name: &str| {
        let center = s.rows.iter().position(|r| r.x == 100.0).expect("center");
        col(s, name)[center]
    };
    // At the reference fault level (100 permille loss plus the partition
    // and crash window) coding delivers strictly more.
    every_seed(&runs, "mp delivers more than sp at 100 permille", |s| {
        at_center(s, "mp_delivered_frac") > at_center(s, "sp_delivered_frac")
    });
    // And it cuts the tail. Seeds 2, 5 and 6 read a higher multipath p99,
    // so the claim is on the eight-seed mean.
    let mp = mean(&runs, |s| at_center(s, "mp_p99_ms"));
    let sp = mean(&runs, |s| at_center(s, "sp_p99_ms"));
    assert!(
        mp < sp,
        "eight-seed mean p99 at 100 permille: mp {mp:.1} ms, sp {sp:.1} ms"
    );
}
