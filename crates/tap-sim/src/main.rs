//! `tap-sim` — regenerate the TAP paper's figures from the command line.
//!
//! ```text
//! tap-sim <fig2|fig3|fig4a|fig4b|fig5|fig6|secure|resilience|throughput|all> \
//!         [--paper] [--seed N] [--nodes N] [--tunnels N] [--journal N] \
//!         [--faults PERMILLE] [--multipath N/K] [--threads N] [--csv DIR]
//! ```
//!
//! Default scale is `quick` (seconds); `--paper` runs the published
//! parameters (10^4 nodes, 5 000 tunnels, 30×1 000 transfers). Flags may
//! appear in any order: presets are resolved first, overrides applied
//! after (see [`tap_sim::cli`]).
//!
//! `--threads N` sizes every figure's deterministic trial pool (default:
//! available parallelism). Results are bit-identical at any thread count —
//! per-trial RNG substreams, not shared streams — so the flag only trades
//! wall-clock for cores.
//!
//! `--faults PERMILLE` centers the resilience sweep's injected per-link
//! loss probability (default 100 = 10%; 0 disables fault injection). The
//! paper figures ignore it.
//!
//! `--multipath N/K` switches the resilience figure to the erasure-coded
//! comparison mode: the same payload shipped single-path (retry shim) and
//! as a coded N/K stripe set over N disjoint tunnels, side by side at each
//! loss level. The run is recorded in `BENCH_sim.json` as `resilience_mp`
//! so its trajectory never mixes with the classic sweep's.
//!
//! `--journal N` selects journal verbosity: each experiment's metrics
//! registry keeps the most recent `N` events (takeovers, drops, …) and
//! includes them in the emitted MetricsReport JSON; without it only
//! counters and histograms are reported.
//!
//! Every run appends a wall-clock-per-figure record to `BENCH_sim.json`
//! (in `--csv DIR` when given, else the working directory), growing the
//! repo's perf trajectory.

use std::time::Instant;

use tap_sim::cli::{self, Cli};
use tap_sim::{experiments, Scale, Series};

fn fail_usage(err: &str) -> ! {
    eprintln!("tap-sim: {err}");
    eprintln!("{}", cli::USAGE);
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed: Cli = cli::parse(&args).unwrap_or_else(|e| fail_usage(&e));
    let threads = parsed.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let scale = parsed.scale.with_threads(threads);

    type Job = (&'static str, fn(&Scale) -> Series);
    let jobs: Vec<Job> = vec![
        ("fig2", experiments::node_failures::run),
        ("fig3", experiments::collusion::run),
        ("fig4a", experiments::sweeps::by_replication),
        ("fig4b", experiments::sweeps::by_length),
        ("fig5", experiments::churn::run),
        ("fig6", experiments::latency::run),
        ("secure", experiments::secure_routing::run),
        ("resilience", experiments::resilience::run),
        ("throughput", experiments::throughput::run),
    ];
    let selected: Vec<&Job> = if parsed.which == "all" {
        jobs.iter().collect()
    } else {
        jobs.iter().filter(|(n, _)| *n == parsed.which).collect()
    };

    // Figures run one at a time; the parallelism lives *inside* each
    // figure's trial pool, so the per-figure wall-clock below is honest.
    // `VmHWM` is a process-lifetime high-water mark — monotone, so
    // sampling it *after* each figure attributes every earlier figure's
    // peak to every later one (in an `all` run each row just restates the
    // run maximum). Instead each figure reports the HWM *increment* across
    // it: how much this figure grew the process peak. Zero means the
    // figure fit inside memory some earlier figure already touched.
    let mut wall: Vec<FigureRecord> = Vec::new();
    let mut io_errors = 0usize;
    for (name, job) in &selected {
        // The multipath comparison is a different workload (two phases per
        // trial, a ~9 KB payload) — record it under its own figure name so
        // bench_gate.py never compares it against classic-sweep baselines.
        let name: &'static str = if *name == "resilience" && scale.mp_n > 0 {
            "resilience_mp"
        } else {
            name
        };
        let rss_before = peak_rss_kb();
        let start = Instant::now();
        let series = job(&scale);
        let took = start.elapsed();
        let rss_delta_kb = peak_rss_kb()
            .zip(rss_before)
            .map(|(after, before)| after.saturating_sub(before));
        println!("{series}");
        println!(
            "({name}: {} rows in {took:.2?}, N={}, tunnels={}, threads={})\n",
            series.rows.len(),
            scale.nodes,
            scale.tunnels,
            threads
        );
        if let Some(json) = &series.metrics_json {
            println!("metrics {name} {json}\n");
        }
        if let Some(dir) = &parsed.csv_dir {
            // A bad --csv path must not cost the minutes of simulation that
            // produced the figure: report and keep going, exit nonzero later.
            if let Err(e) = write_series_outputs(dir, name, &series) {
                eprintln!("tap-sim: {e}");
                io_errors += 1;
            }
        }
        let mut extras = series.bench_extras.clone();
        if name == "fig6" {
            // Probed here, outside `took`: it is a property of the codec
            // fig6 stands on, not part of the figure's run time.
            extras.push((
                "cipher_gbps".into(),
                experiments::latency::measure_cipher_gbps(),
            ));
        }
        wall.push(FigureRecord {
            name,
            wall_s: took.as_secs_f64(),
            rss_delta_kb,
            extras,
        });
    }
    let peak_rss_kb = peak_rss_kb();

    let bench_path = match &parsed.csv_dir {
        Some(dir) => format!("{dir}/BENCH_sim.json"),
        None => "BENCH_sim.json".to_string(),
    };
    match append_bench_record(&bench_path, &scale, parsed.paper, &wall, peak_rss_kb) {
        Ok(()) => println!("wrote {bench_path}"),
        Err(e) => {
            eprintln!("tap-sim: {e}");
            io_errors += 1;
        }
    }
    if io_errors > 0 {
        eprintln!("tap-sim: {io_errors} output file(s) could not be written");
        std::process::exit(1);
    }
}

/// Write `<dir>/<name>.csv` (and `.metrics.json` when present), reporting
/// any I/O failure as a readable error instead of a panic.
fn write_series_outputs(dir: &str, name: &str, series: &Series) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create csv dir {dir:?}: {e}"))?;
    let path = format!("{dir}/{name}.csv");
    std::fs::write(&path, series.to_csv()).map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {path}");
    if let Some(json) = &series.metrics_json {
        let mpath = format!("{dir}/{name}.metrics.json");
        std::fs::write(&mpath, json).map_err(|e| format!("write {mpath:?}: {e}"))?;
        println!("wrote {mpath}");
    }
    Ok(())
}

/// Peak resident set size of this process in kilobytes, read from
/// `/proc/self/status` `VmHWM` (Linux; `None` on other platforms, which
/// simply omits the memory fields from the bench record).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One figure's bench-record entry: wall-clock, the `VmHWM` increment the
/// figure is responsible for, and any figure-reported extras (e.g. the
/// throughput figure's `events_per_sec`).
struct FigureRecord {
    name: &'static str,
    wall_s: f64,
    rss_delta_kb: Option<u64>,
    extras: Vec<(String, f64)>,
}

/// Append this run's wall-clock + peak-RSS record to the `BENCH_sim.json`
/// trajectory (a JSON array of run records; created on first run,
/// rewritten from scratch if unreadable or malformed).
fn append_bench_record(
    path: &str,
    scale: &Scale,
    paper: bool,
    wall: &[FigureRecord],
    peak_rss_kb: Option<u64>,
) -> Result<(), String> {
    let figures = wall
        .iter()
        .map(|fig| {
            let mut obj = format!("{{\"name\":\"{}\",\"wall_s\":{:.3}", fig.name, fig.wall_s);
            if let Some(kb) = fig.rss_delta_kb {
                obj.push_str(&format!(",\"rss_delta_mb\":{:.1}", kb as f64 / 1024.0));
            }
            for (key, value) in &fig.extras {
                obj.push_str(&format!(",\"{key}\":{value:.3}"));
            }
            obj.push('}');
            obj
        })
        .collect::<Vec<_>>()
        .join(",");
    let total: f64 = wall.iter().map(|f| f.wall_s).sum();
    let peak_field = peak_rss_kb
        .map(|kb| format!(",\"peak_rss_mb\":{:.1}", kb as f64 / 1024.0))
        .unwrap_or_default();
    let record = format!(
        "{{\"bench\":\"tap-sim\",\"preset\":\"{}\",\"nodes\":{},\"tunnels\":{},\
         \"seed\":{},\"threads\":{},\"figures\":[{figures}],\"total_wall_s\":{total:.3}{peak_field}}}",
        if paper { "paper" } else { "quick" },
        scale.nodes,
        scale.tunnels,
        scale.seed,
        scale.threads,
    );
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) if trimmed.starts_with('[') => {
                    let head = head.trim_end();
                    let sep = if head.ends_with('[') { "" } else { ",\n" };
                    format!("{head}{sep}{record}\n]\n")
                }
                _ => format!("[\n{record}\n]\n"),
            }
        }
        Err(_) => format!("[\n{record}\n]\n"),
    };
    std::fs::write(path, body).map_err(|e| format!("write {path:?}: {e}"))
}
