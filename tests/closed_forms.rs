//! Figs. 2–4 against their closed forms, over eight seeds at the quick
//! preset (ROADMAP item 1(c), first half).
//!
//! The paper's anonymity and failure curves have closed forms under
//! independent node fates: a baseline tunnel of `l` fixed relays fails
//! with `1 − (1 − p)^l`, a TAP tunnel whose hops each have `k` replica
//! holders with `1 − (1 − p^k)^l`, and a collusion of fraction `p` traces
//! it (case 1) with `(1 − (1 − p)^k)^l`. This test computes each one from
//! a row's x value and the figure's `k` and `l`, and asserts two things:
//!
//! - every `analytic*` column equals it to 6 decimals;
//! - **the one rule:** each analytic value lies inside the across-seed
//!   [min, max] of its measured column, widened by one count of that
//!   column's denominator on each side.
//!
//! Tunnels share node fates (replica holders are leaf-set neighbours), so
//! the spread is measured over seeds, not assumed binomial. One count is
//! `1 / tunnels` for fig2 (a point surveys at most `tunnels` tunnels) and
//! `1 / (COLLUSIONS · tunnels)` for figs. 3 and 4 (each point averages
//! `COLLUSIONS` collusions over `tunnels` tunnels).
//!
//! Release only, like the quick figure pins:
//! `cargo test --release --test closed_forms`.

use tap_sim::{cli, Series};

/// Seeds the interval is taken over.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

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

/// `figure`'s series at the quick preset for every seed, and `1 / tunnels`:
/// one count of a fig2 column, `COLLUSIONS` counts of a fig3/fig4 one.
fn runs(figure: &str) -> (Vec<Series>, f64) {
    let args = vec!["all".to_string()];
    let scale = cli::parse(&args).expect("`all` parses").scale;
    let &(_, run) = cli::FIGURES
        .iter()
        .find(|(name, _)| *name == figure)
        .expect("a figure of cli::FIGURES");
    let series = SEEDS.map(|seed| run(&scale.with_seed(seed))).collect();
    (series, 1.0 / scale.tunnels as f64)
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
            let got = s.column(analytic).expect("analytic column")[row];
            assert!(
                (got - want).abs() < 5e-7,
                "{analytic} at x = {x}: the CSV has {got}, the closed form is {want}"
            );
            let m = s.column(measured).expect("measured column")[row];
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

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig2_failures_bracket_their_closed_forms() {
    let (series, count) = runs("fig2");
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
fn fig3_corruption_brackets_its_closed_form() {
    let (series, count) = runs("fig3");
    check(&series, "corrupted", "analytic", count / COLLUSIONS, |p| {
        corruption(p, K, L)
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig4a_corruption_brackets_its_closed_form() {
    let (series, count) = runs("fig4a");
    check(&series, "corrupted", "analytic", count / COLLUSIONS, |k| {
        corruption(P, k as i32, L)
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight quick runs a figure are release-speed"
)]
fn fig4b_corruption_brackets_its_closed_form() {
    let (series, count) = runs("fig4b");
    check(&series, "corrupted", "analytic", count / COLLUSIONS, |l| {
        corruption(P, K, l as i32)
    });
}
