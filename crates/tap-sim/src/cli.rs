//! Argument parsing for the `tap-sim` binary, and the one table of scales:
//! the binary, the tests, the examples and the benches all get a [`Scale`]
//! as a [`PRESETS`] entry with a command line's overrides on top ([`parse`]).
//! The preset is resolved in a first pass and overrides applied afterwards,
//! so `fig2 --seed 7 --preset paper` and `fig2 --preset paper --seed 7`
//! configure the identical [`Scale`].

use crate::experiments::{self, node_failures::BASELINE_RELAYS};
use crate::{Scale, Series};

/// The usage banner printed alongside every parse error.
pub const USAGE: &str = "usage: tap-sim <fig2|fig3|fig4a|fig4b|fig5|fig6|secure|resilience|all> \
                         [--preset tiny|quick|paper] [--seed N] [--nodes N] [--tunnels N] [--journal N] \
                         [--faults PERMILLE] [--multipath N/K] [--threads N] [--csv DIR]";

/// The paper's §7 parameters.
const PAPER: Scale = Scale {
    nodes: 10_000,
    tunnels: 5_000,
    latency_sims: 30,
    latency_transfers: 1_000,
    // The paper plots "time" without units; 100 rounds of its stated
    // 100-leaves + 100-joins churn gives one full network turnover, enough
    // for the unrefreshed decay to clear sampling noise at 5 000 tunnels.
    churn_units: 100,
    churn_per_unit: 100,
    seed: 20040815, // ICPP 2004
    journal_cap: 0,
    fault_permille: 100,
    threads: 1,
    mp_n: 0,
    mp_k: 0,
};

/// A ~25× smaller run preserving all ratios; finishes in seconds.
const QUICK: Scale = Scale {
    nodes: 1_000,
    tunnels: 400,
    latency_sims: 3,
    latency_transfers: 60,
    // Quick mode churns harder per unit (5% vs the paper's 1%) so the
    // Fig. 5 decay is visible above sampling noise with only 400 tunnels.
    churn_units: 12,
    churn_per_unit: 50,
    ..PAPER
};

/// Every scale a figure runs at, by its `--preset` name (`quick` is the
/// default). `tiny` is what every debug `cargo test` runs.
pub const PRESETS: [(&str, Scale); 3] = [
    (
        "tiny",
        Scale {
            nodes: 250,
            tunnels: 60,
            latency_sims: 2,
            latency_transfers: 8,
            churn_units: 3,
            churn_per_unit: 12,
            seed: 0xD37,
            ..QUICK
        },
    ),
    ("quick", QUICK),
    ("paper", PAPER),
];

/// A figure's entry point: it runs the figure at a scale.
pub type Figure = fn(&Scale) -> Series;

/// Every figure the binary runs, in the order `all` runs them: the name the
/// command line selects it by, and its entry point.
pub const FIGURES: [(&str, Figure); 8] = [
    ("fig2", experiments::node_failures::run),
    ("fig3", experiments::collusion::run),
    ("fig4a", experiments::sweeps::by_replication),
    ("fig4b", experiments::sweeps::by_length),
    ("fig5", experiments::churn::run),
    ("fig6", experiments::latency::run),
    ("secure", experiments::secure_routing::run),
    ("resilience", experiments::resilience::run),
];

/// The name a figure's `<name>.csv`, `<name>.metrics.json` and
/// `BENCH_sim.json` record go under. The coded-multipath comparison
/// (`resilience --multipath N/K`) is a different workload from the classic
/// sweep, so it is `resilience_mp` and its trajectory never mixes with the
/// sweep's.
pub fn output_name(figure: &'static str, scale: &Scale) -> &'static str {
    if figure == "resilience" && scale.mp_n > 0 {
        "resilience_mp"
    } else {
        figure
    }
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// The selected figure, or `"all"`.
    pub which: String,
    /// The resolved scale: preset first, overrides applied on top in a
    /// second pass, so flag order never matters.
    pub scale: Scale,
    /// The name of the [`PRESETS`] entry the scale started from.
    pub preset: &'static str,
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

/// [`parse`] of a command line split at whitespace, e.g.
/// `"fig6 --preset tiny --seed 3"`.
pub fn parse_line(line: &str) -> Result<Cli, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse(&args)
}

/// Parse the binary's arguments (program name already stripped).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    // Pass 1: resolve the preset, so later overrides survive `--preset`
    // regardless of where it appears on the command line.
    let mut named = (0..args.len()).filter(|&i| args[i] == "--preset");
    let name = match (named.next(), named.next()) {
        (Some(i), None) => args.get(i + 1).map_or("", String::as_str),
        (None, _) => "quick",
        (Some(_), Some(_)) => return Err("--preset given twice".into()),
    };
    let &(preset, mut scale) = PRESETS
        .iter()
        .find(|(preset, _)| *preset == name)
        .ok_or_else(|| format!("--preset expects tiny, quick or paper, got {name:?}"))?;

    let mut which: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut csv_dir: Option<String> = None;

    // Pass 2: apply overrides in order.
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--preset" => _ = iter.next(),
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
                if name != "all" && !FIGURES.iter().any(|(figure, _)| *figure == name) {
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
    // Fig. 2's baseline tunnels draw their fixed relays apart from their
    // initiator.
    if (which == "fig2" || which == "all") && scale.nodes <= BASELINE_RELAYS {
        return Err(format!(
            "fig2 draws {BASELINE_RELAYS} relays apart from the initiator and needs --nodes at least {}, got {}",
            BASELINE_RELAYS + 1,
            scale.nodes
        ));
    }
    // A resilience transfer's destination is a node other than its
    // initiator.
    if (which == "resilience" || which == "all") && scale.nodes < 2 {
        return Err(format!(
            "resilience sends between two distinct nodes and needs --nodes at least 2, got {}",
            scale.nodes
        ));
    }
    if let Some(n) = threads {
        scale.threads = n;
    }
    Ok(Cli {
        which,
        scale,
        preset,
        threads,
        csv_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preset(name: &str) -> Scale {
        PRESETS.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn flag_order_does_not_matter() {
        // The verified bug: the preset flag used to clobber a `--seed`
        // parsed before it.
        let a = parse_line("fig2 --seed 7 --preset paper").unwrap();
        let b = parse_line("fig2 --preset paper --seed 7").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.scale.seed, 7);
        assert_eq!(a.scale.nodes, preset("paper").nodes, "preset still applies");

        let c = parse_line("fig6 --nodes 500 --journal 8 --preset paper --tunnels 9").unwrap();
        let d = parse_line("fig6 --preset paper --nodes 500 --tunnels 9 --journal 8").unwrap();
        assert_eq!(c, d);
        assert_eq!(c.scale.nodes, 500);
        assert_eq!(c.scale.tunnels, 9);
        assert_eq!(c.scale.journal_cap, 8);
    }

    #[test]
    fn defaults_are_quick_scale() {
        let cli = parse_line("all").unwrap();
        assert_eq!(cli.which, "all");
        assert_eq!(cli.preset, "quick");
        assert_eq!(cli.scale, preset("quick"));
        assert_eq!(cli.threads, None);
        assert_eq!(cli.csv_dir, None);
    }

    #[test]
    fn preset_flag_selects_a_table_entry_by_name() {
        for (name, scale) in PRESETS {
            let cli = parse_line(&format!("fig3 --preset {name}")).unwrap();
            assert_eq!((cli.preset, cli.scale), (name, scale));
        }
        assert!(parse_line("fig3 --preset tiny --preset paper")
            .unwrap_err()
            .contains("twice"));
        for bad in ["fig3 --preset huge", "fig3 --preset"] {
            let err = parse_line(bad).unwrap_err();
            for (name, _) in PRESETS {
                assert!(err.contains(name), "{bad:?}: {err}");
            }
        }
        assert!(parse_line("fig3 --paper")
            .unwrap_err()
            .contains("unrecognized"));
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
        assert!(parse_line("fig5 --preset paper --nodes 150")
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
        let a = parse_line("resilience --faults 80 --preset paper").unwrap();
        let b = parse_line("resilience --preset paper --faults 80").unwrap();
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
        let a = parse_line("resilience --multipath 4/2 --preset paper").unwrap();
        let b = parse_line("resilience --preset paper --multipath 4/2").unwrap();
        assert_eq!(a, b);
        assert_eq!((a.scale.mp_n, a.scale.mp_k), (4, 2));
    }

    #[test]
    fn fig2_needs_six_nodes() {
        // Below six nodes the baseline's relay draw never finds five nodes
        // apart from the initiator, and loops forever.
        for nodes in 1..=5 {
            assert!(parse_line(&format!("fig2 --nodes {nodes}"))
                .unwrap_err()
                .contains("at least 6"));
        }
        assert_eq!(parse_line("fig2 --nodes 6").unwrap().scale.nodes, 6);
    }

    #[test]
    fn resilience_needs_two_nodes() {
        // On one node a transfer's destination draw never finds a node
        // other than the initiator, and loops forever.
        assert!(parse_line("resilience --nodes 1")
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse_line("resilience --multipath 5/3 --nodes 1")
            .unwrap_err()
            .contains("at least 2"));
        assert_eq!(parse_line("resilience --nodes 2").unwrap().scale.nodes, 2);
    }

    #[test]
    fn bad_input_is_rejected_with_context() {
        assert!(parse_line("").unwrap_err().contains("missing figure"));
        assert!(parse_line("fig9").unwrap_err().contains("unknown figure"));
        assert!(parse_line("throughput")
            .unwrap_err()
            .contains("unknown figure"));
        assert!(parse_line("fig2 --bogus")
            .unwrap_err()
            .contains("unrecognized"));
        assert!(parse_line("fig2 --seed NaN")
            .unwrap_err()
            .contains("--seed"));
        assert!(parse_line("--csv").unwrap_err().contains("directory"));
    }
}
