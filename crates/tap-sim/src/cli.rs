//! Argument parsing for the `tap-sim` binary.
//!
//! Lives in the library (not `main.rs`) so flag-order behaviour is
//! regression-testable: presets are resolved in a first pass and overrides
//! applied afterwards, so `fig2 --seed 7 --paper` and
//! `fig2 --paper --seed 7` configure the identical [`Scale`]. (The old
//! single-pass parser let `--paper` clobber any flag parsed before it.)

use crate::Scale;

/// The usage banner printed alongside every parse error.
pub const USAGE: &str =
    "usage: tap-sim <fig2|fig3|fig4a|fig4b|fig5|fig6|secure|resilience|throughput|all> \
                         [--paper] [--seed N] [--nodes N] [--tunnels N] [--journal N] \
                         [--faults PERMILLE] [--multipath N/K] [--threads N] [--csv DIR]";

/// The figure names the binary accepts (plus the pseudo-figure `all`).
pub const FIGURES: [&str; 9] = [
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "secure",
    "resilience",
    "throughput",
];

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// The selected figure, or `"all"`.
    pub which: String,
    /// The resolved scale: preset first, overrides applied on top in a
    /// second pass, so flag order never matters.
    pub scale: Scale,
    /// `--paper` was given (the preset the scale started from).
    pub paper: bool,
    /// `--threads N`, when given. `None` means "let the binary pick"
    /// (available parallelism); [`Cli::scale`] keeps the preset's default
    /// so library callers see a fully resolved value either way.
    pub threads: Option<usize>,
    /// `--csv DIR`, when given.
    pub csv_dir: Option<String>,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} expects a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} expects an unsigned integer, got {v:?}"))
}

/// Parse the binary's arguments (program name already stripped).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    // Pass 1: resolve the preset, so later overrides survive `--paper`
    // regardless of where it appears on the command line.
    let paper = args.iter().any(|a| a == "--paper");
    let mut scale = if paper {
        Scale::paper()
    } else {
        Scale::quick()
    };

    let mut which: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut csv_dir: Option<String> = None;

    // Pass 2: apply overrides in order.
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => {}
            "--seed" => scale.seed = parse_value("--seed", iter.next())?,
            "--nodes" => {
                scale.nodes = parse_value("--nodes", iter.next())?;
                if scale.nodes == 0 {
                    return Err("--nodes must be at least 1".into());
                }
            }
            "--tunnels" => scale.tunnels = parse_value("--tunnels", iter.next())?,
            "--journal" => scale.journal_cap = parse_value("--journal", iter.next())?,
            "--faults" => {
                let n: u32 = parse_value("--faults", iter.next())?;
                if n > 1000 {
                    return Err("--faults is a permille, at most 1000".into());
                }
                scale.fault_permille = n;
            }
            "--multipath" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--multipath expects N/K (e.g. 5/3)".to_string())?;
                let (n, k) = v
                    .split_once('/')
                    .ok_or_else(|| format!("--multipath expects N/K (e.g. 5/3), got {v:?}"))?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--multipath N must be an unsigned integer, got {n:?}"))?;
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("--multipath K must be an unsigned integer, got {k:?}"))?;
                if k == 0 || k > n || n > 64 {
                    return Err(format!("--multipath needs 1 <= K <= N <= 64, got {n}/{k}"));
                }
                scale.mp_n = n;
                scale.mp_k = k;
            }
            "--threads" => {
                let n: usize = parse_value("--threads", iter.next())?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            "--csv" => {
                csv_dir = Some(
                    iter.next()
                        .ok_or_else(|| "--csv expects a directory".to_string())?
                        .clone(),
                );
            }
            name if !name.starts_with('-') && which.is_none() => {
                if name != "all" && !FIGURES.contains(&name) {
                    return Err(format!("unknown figure {name:?}"));
                }
                which = Some(name.to_string());
            }
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }

    let which = which.ok_or_else(|| "missing figure name".to_string())?;
    // Fig. 5 takes a unit's leaves from the benign nodes before any join;
    // more than half the network would exhaust them.
    if (which == "fig5" || which == "all") && scale.churn_per_unit > scale.nodes / 2 {
        return Err(format!(
            "fig5 churns {} nodes a unit and needs --nodes at least {}",
            scale.churn_per_unit,
            2 * scale.churn_per_unit
        ));
    }
    // A throughput transfer is a two-hop relay between three distinct
    // endpoints.
    if which == "throughput" && scale.nodes < 3 {
        return Err(format!(
            "throughput relays through three distinct nodes and needs --nodes at least 3, got {}",
            scale.nodes
        ));
    }
    if let Some(n) = threads {
        scale.threads = n;
    }
    Ok(Cli {
        which,
        scale,
        paper,
        threads,
        csv_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn flag_order_does_not_matter() {
        // The verified bug: `--paper` used to clobber a `--seed` parsed
        // before it.
        let a = parse_line("fig2 --seed 7 --paper").unwrap();
        let b = parse_line("fig2 --paper --seed 7").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.scale.seed, 7);
        assert_eq!(a.scale.nodes, Scale::paper().nodes, "preset still applies");

        let c = parse_line("fig6 --nodes 500 --journal 8 --paper --tunnels 9").unwrap();
        let d = parse_line("fig6 --paper --nodes 500 --tunnels 9 --journal 8").unwrap();
        assert_eq!(c, d);
        assert_eq!(c.scale.nodes, 500);
        assert_eq!(c.scale.tunnels, 9);
        assert_eq!(c.scale.journal_cap, 8);
    }

    #[test]
    fn defaults_are_quick_scale() {
        let cli = parse_line("all").unwrap();
        assert_eq!(cli.which, "all");
        assert!(!cli.paper);
        assert_eq!(cli.scale, Scale::quick());
        assert_eq!(cli.threads, None);
        assert_eq!(cli.csv_dir, None);
    }

    #[test]
    fn threads_flag_is_validated() {
        let cli = parse_line("fig5 --threads 4 --csv out").unwrap();
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.scale.threads, 4);
        assert_eq!(cli.csv_dir.as_deref(), Some("out"));

        assert!(parse_line("fig5 --threads 0")
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_line("fig5 --threads x")
            .unwrap_err()
            .contains("unsigned integer"));
        assert!(parse_line("fig5 --threads").unwrap_err().contains("value"));
    }

    #[test]
    fn nodes_flag_is_validated() {
        assert!(parse_line("fig2 --nodes 0")
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_line("secure --nodes 0")
            .unwrap_err()
            .contains("at least 1"));
        // Quick fig5 churns 50 benign nodes a unit, paper fig5 100.
        assert!(parse_line("fig5 --nodes 50")
            .unwrap_err()
            .contains("at least 100"));
        assert!(parse_line("all --nodes 1")
            .unwrap_err()
            .contains("at least 100"));
        assert!(parse_line("fig5 --paper --nodes 150")
            .unwrap_err()
            .contains("at least 200"));
        assert_eq!(parse_line("fig5 --nodes 100").unwrap().scale.nodes, 100);
        assert_eq!(parse_line("fig2 --nodes 50").unwrap().scale.nodes, 50);
    }

    #[test]
    fn faults_flag_is_a_bounded_permille() {
        let cli = parse_line("resilience --faults 250").unwrap();
        assert_eq!(cli.which, "resilience");
        assert_eq!(cli.scale.fault_permille, 250);

        let off = parse_line("resilience --faults 0").unwrap();
        assert_eq!(off.scale.fault_permille, 0);

        assert!(parse_line("resilience --faults 1001")
            .unwrap_err()
            .contains("at most 1000"));
        assert!(parse_line("resilience --faults x")
            .unwrap_err()
            .contains("unsigned integer"));
        // Order-independence extends to the new flag.
        let a = parse_line("resilience --faults 80 --paper").unwrap();
        let b = parse_line("resilience --paper --faults 80").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.scale.fault_permille, 80);
    }

    #[test]
    fn multipath_flag_parses_n_slash_k() {
        let cli = parse_line("resilience --multipath 5/3").unwrap();
        assert_eq!(cli.scale.mp_n, 5);
        assert_eq!(cli.scale.mp_k, 3);

        let off = parse_line("resilience").unwrap();
        assert_eq!(off.scale.mp_n, 0, "default is single-path mode");
        assert_eq!(off.scale.mp_k, 0);

        assert!(parse_line("resilience --multipath")
            .unwrap_err()
            .contains("N/K"));
        assert!(parse_line("resilience --multipath 5")
            .unwrap_err()
            .contains("N/K"));
        assert!(parse_line("resilience --multipath x/3")
            .unwrap_err()
            .contains("unsigned integer"));
        assert!(parse_line("resilience --multipath 3/5")
            .unwrap_err()
            .contains("1 <= K <= N"));
        assert!(parse_line("resilience --multipath 5/0")
            .unwrap_err()
            .contains("1 <= K <= N"));
        assert!(parse_line("resilience --multipath 65/3")
            .unwrap_err()
            .contains("1 <= K <= N"));

        // Order-independence extends to the new flag.
        let a = parse_line("resilience --multipath 4/2 --paper").unwrap();
        let b = parse_line("resilience --paper --multipath 4/2").unwrap();
        assert_eq!(a, b);
        assert_eq!((a.scale.mp_n, a.scale.mp_k), (4, 2));
    }

    #[test]
    fn throughput_needs_three_nodes() {
        // Below three nodes a relay has no distinct `dst`: one node divides
        // by zero in the route draw, and two loop forever looking for one.
        for nodes in [1, 2] {
            assert!(parse_line(&format!("throughput --nodes {nodes}"))
                .unwrap_err()
                .contains("at least 3"));
        }
        assert_eq!(parse_line("throughput --nodes 3").unwrap().scale.nodes, 3);
        assert!(parse_line("throughput --shards 4")
            .unwrap_err()
            .contains("unrecognized"));
    }

    #[test]
    fn bad_input_is_rejected_with_context() {
        assert!(parse_line("").unwrap_err().contains("missing figure"));
        assert!(parse_line("fig9").unwrap_err().contains("unknown figure"));
        assert!(parse_line("fig2 --bogus")
            .unwrap_err()
            .contains("unrecognized"));
        assert!(parse_line("fig2 --seed NaN")
            .unwrap_err()
            .contains("--seed"));
        assert!(parse_line("--csv").unwrap_err().contains("directory"));
    }
}
