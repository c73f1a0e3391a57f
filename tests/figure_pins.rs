//! Every figure's CSV, pinned at three presets and at several thread counts.
//!
//! A row is one (figure, preset) pair. It runs the figure from
//! `tap_sim::cli::FIGURES` at each listed `--threads` value and holds every
//! run to `<dir>/<name>.csv`, `<name>` being the file the binary writes. Equal
//! to the golden at every thread count is equal across thread counts, the
//! trial pool's contract.
//!
//! | preset | goldens | threads | runs |
//! |---|---|---|---|
//! | tiny | `crates/tap-sim/tests/goldens/tiny/` | 1, 2, 4 | always (about 2 s a thread count in debug) |
//! | quick | `crates/tap-sim/tests/goldens/` | 1, 2, 4 | release only |
//! | paper | `results/` | 1, 2 | `#[ignore]`d, release only |
//!
//! Each row takes its scale from `cli::parse` of the command line
//! `scripts/repin.sh` writes its golden with (`all --preset X`, or
//! `resilience --preset X --multipath 5/3`), so a pin holds what the
//! documented command configures, and `results/` is exactly what
//! `tap-sim all --preset paper --csv results/` writes. The paper rows run
//! with `cargo test --release --test figure_pins -- --include-ignored`.

use tap_sim::cli;

/// Runs `figure` at the scale `line` configures on each of `threads` and
/// holds every CSV to `<dir>/<name>.csv` (relative to the repository root).
fn pin(figure: &str, line: &str, dir: &str, threads: &[usize]) {
    let scale = |t: usize| {
        cli::parse_line(&format!("{line} --threads {t}"))
            .expect("a documented command line parses")
            .scale
    };
    let &(figure, run) = cli::FIGURES
        .iter()
        .find(|(name, _)| *name == figure)
        .expect("a figure of cli::FIGURES");
    let path = format!(
        "{}/{dir}/{}.csv",
        env!("CARGO_MANIFEST_DIR"),
        cli::output_name(figure, &scale(1))
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for &t in threads {
        let got = run(&scale(t)).to_csv();
        assert!(
            got == golden,
            "{figure} at `{line}`, --threads {t}: the CSV differs from {path}; got:\n{got}"
        );
    }
}

/// One `#[test]` per row, each named after its figure and carrying the
/// attributes written above the first row.
macro_rules! rows {
    ($(#[$gate:meta])*) => {};
    ($(#[$gate:meta])* $test:ident: $body:expr; $($rest:tt)*) => {
        $(#[$gate])* #[test] fn $test() { $body }
        rows! { $(#[$gate])* $($rest)* }
    };
}

/// The tiny preset, in every debug build.
fn tiny(figure: &str, line: &str) {
    let dir = "crates/tap-sim/tests/goldens/tiny";
    pin(figure, &format!("{line} --preset tiny"), dir, &[1, 2, 4]);
}

rows! {
    fig2_is_pinned: tiny("fig2", "all");
    fig3_is_pinned: tiny("fig3", "all");
    fig4a_is_pinned: tiny("fig4a", "all");
    fig4b_is_pinned: tiny("fig4b", "all");
    fig5_is_pinned: tiny("fig5", "all");
    fig6_is_pinned: tiny("fig6", "all");
    secure_is_pinned: tiny("secure", "all");
    resilience_is_pinned: tiny("resilience", "all");
    resilience_multipath_is_pinned: tiny("resilience", "resilience --multipath 5/3");
}

mod quick {
    use super::pin;

    fn quick(figure: &str, line: &str) {
        let dir = "crates/tap-sim/tests/goldens";
        pin(figure, &format!("{line} --preset quick"), dir, &[1, 2, 4]);
    }

    rows! {
        #[cfg_attr(debug_assertions, ignore = "the quick preset is release-speed")]
        fig2_is_pinned: quick("fig2", "all");
        fig3_is_pinned: quick("fig3", "all");
        fig4a_is_pinned: quick("fig4a", "all");
        fig4b_is_pinned: quick("fig4b", "all");
        fig5_is_pinned: quick("fig5", "all");
        fig6_is_pinned: quick("fig6", "all");
        secure_is_pinned: quick("secure", "all");
        resilience_is_pinned: quick("resilience", "all");
        resilience_multipath_is_pinned: quick("resilience", "resilience --multipath 5/3");
    }
}

/// `results/` is the paper row. Debug builds leave it out: it takes minutes
/// there.
#[cfg(not(debug_assertions))]
mod paper {
    use super::pin;

    fn paper(figure: &str) {
        pin(figure, "all --preset paper", "results", &[1, 2]);
    }

    rows! {
        #[ignore = "the paper preset takes about a minute: -- --include-ignored"]
        fig2_is_pinned: paper("fig2");
        fig3_is_pinned: paper("fig3");
        fig4a_is_pinned: paper("fig4a");
        fig4b_is_pinned: paper("fig4b");
        fig5_is_pinned: paper("fig5");
        fig6_is_pinned: paper("fig6");
        secure_is_pinned: paper("secure");
        resilience_is_pinned: paper("resilience");
    }
}
