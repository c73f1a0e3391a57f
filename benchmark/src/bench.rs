//! One run of one workload: set-up, the closed loop, and the metrics.
//!
//! Load is a closed loop of one client on one thread: a transfer owns the
//! event loop today (ROADMAP item 2), so there is no concurrency to offer.
//! Every number is either **host** (wall time, memory or allocations of this
//! program) or **sim** (virtual time, bytes or counts of the modelled
//! network); a change meant to speed the program up must leave every sim
//! number exactly as it was.

use std::time::Instant;

use crate::adapter::{self, Probes, SimCost, SimCounters};
use crate::stats::{block_median, block_rate, median_f64, percentile, sorted, Fnv};
use crate::trace::{Sp, TraceSummary, Tracer};
use crate::workloads::{self, Workload};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// In a traced run, ops come in blocks of this many, and every fourth block
/// runs untraced as the control the tracing overhead is measured against.
const TRACE_BLOCK: u64 = 32;
const CONTROL_EVERY: u64 = 4;

/// `(name, unit)` of the end-to-end metrics, as `BENCHMARK.json` declares them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("transfers_per_s", "ops/s"),
    ("xfer_wall_p50_us", "us"),
    ("virt_p50_ms", "ms"),
    ("virt_p99_ms", "ms"),
    ("delivered_frac", "fraction"),
    ("wire_bytes_per_xfer", "bytes"),
    ("peak_rss_mb", "MB"),
];

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the closed loop runs for (it also finishes the sim prefix).
    pub seconds: f64,
    /// Run exactly this many ops instead, all of them the sim prefix.
    pub ops: Option<u64>,
    pub nodes: usize,
    pub trace: bool,
    /// Test seam: check this op against a corrupted expected payload.
    pub corrupt_op: Option<u64>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            seconds: 15.0,
            ops: None,
            nodes: 10_000,
            trace: false,
            corrupt_op: None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sim_ops: u64,
    /// FNV-1a over every sim-prefix op's (delivered, virtual µs, wire bytes,
    /// overlay hops, retries).
    pub sim_digest: u64,
    pub first_error: Option<String>,
    pub metrics: Vec<Metric>,
    /// Kept spans as JSON (traced runs).
    pub trace_json: Option<String>,
    /// Measured share of op time per layer, for the table beside the
    /// predictions (traced runs): `(span name, share of the op's net time)`.
    pub shares: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Per-op records of the closed loop.
#[derive(Default)]
struct Log {
    /// Host nanoseconds of every untraced op.
    plain_ns: Vec<u64>,
    outcomes: Vec<OpSim>,
    failed: u64,
    first_error: Option<String>,
}

/// The simulated side of one op.
#[derive(Clone, Copy)]
struct OpSim {
    delivered: bool,
    cost: SimCost,
    takeovers: u64,
}

pub fn run(cfg: &Config) -> RunResult {
    let w = cfg.workload;

    // Set-up, several times over: the worlds are identical (same seed), each
    // is dropped before the next is built so peak memory is one world's.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut overlay_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (world, standing, times) = workloads::setup(w, cfg.seed, cfg.nodes, cfg.trace);
        setup_s.push(times.total_s);
        overlay_s.push(times.overlay_s);
        built = Some((world, standing));
    }
    let (mut world, standing) = built.expect("SETUPS > 0");
    let setup_s = median_f64(&mut setup_s);
    let overlay_s = median_f64(&mut overlay_s);

    let probes = cfg.trace.then(|| adapter::run_probes(cfg.seed));

    let sim_ops = cfg.ops.unwrap_or_else(|| w.sim_ops());
    let mut tr = Tracer::new();
    let mut log = Log::default();
    let mut at_prefix: Option<(SimCounters, TraceSummary, f64)> = None;
    let epoch = w.epoch_ops().map(|ops| (ops, world.checkpoint()));
    let started = Instant::now();
    let mut op = 0u64;
    loop {
        if op == sim_ops {
            at_prefix = Some((world.counters(), tr.summary().clone(), peak_rss_mb()));
        }
        let done_time = cfg.ops.is_some() || started.elapsed().as_secs_f64() >= cfg.seconds;
        if op >= sim_ops && done_time {
            break;
        }
        if let Some((ops, cp)) = &epoch {
            if op > 0 && op.is_multiple_of(*ops) {
                world.restore(cp);
            }
        }
        let traced = cfg.trace && !(op / TRACE_BLOCK).is_multiple_of(CONTROL_EVERY);
        tr.begin_op(op, traced);
        let t0 = Instant::now();
        let outcome = workloads::run_op(
            w,
            &mut world,
            &standing,
            &mut tr,
            cfg.seed,
            op,
            cfg.corrupt_op == Some(op),
        );
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end_op();
        if !traced {
            log.plain_ns.push(ns);
        }
        if !outcome.delivered {
            log.failed += 1;
            if log.first_error.is_none() {
                log.first_error = Some(format!(
                    "op {op}: {}",
                    outcome.error.as_deref().unwrap_or("not delivered")
                ));
            }
        }
        if op < sim_ops {
            log.outcomes.push(OpSim {
                delivered: outcome.delivered,
                cost: outcome.cost,
                takeovers: outcome.takeovers,
            });
        }
        op += 1;
    }
    let attempted = op;
    let (counters, prefix_trace, prefix_rss_mb) =
        at_prefix.expect("the loop passes the prefix end");

    let mut digest = Fnv::default();
    for o in &log.outcomes {
        for word in [
            u64::from(o.delivered),
            o.cost.virt_us,
            o.cost.wire_bytes,
            o.cost.overlay_hops,
            o.cost.retries,
        ] {
            digest.word(word);
        }
    }

    let mut result = RunResult {
        workload: w,
        traced: cfg.trace,
        attempted,
        failed: log.failed,
        sim_ops,
        sim_digest: digest.finish(),
        first_error: log.first_error.clone(),
        metrics: Vec::new(),
        trace_json: None,
        shares: Vec::new(),
    };
    if cfg.trace {
        result.metrics = per_layer(
            &log,
            &counters,
            &prefix_trace,
            tr.summary(),
            &probes.expect("traced runs probe"),
            overlay_s * 1e6 / cfg.nodes.max(1) as f64,
        );
        result.shares = shares(tr.summary());
        result.trace_json = Some(tr.kept_json());
    } else {
        result.metrics = end_to_end(&log, setup_s, attempted, prefix_rss_mb);
    }
    result
}

/// Host timings run over every op; the simulated numbers and peak memory
/// over the sim prefix, a fixed amount of work on any host.
fn end_to_end(log: &Log, setup_s: f64, attempted: u64, prefix_rss_mb: f64) -> Vec<Metric> {
    let virt: Vec<u64> = log
        .outcomes
        .iter()
        .filter(|o| o.delivered)
        .map(|o| o.cost.virt_us)
        .collect();
    let virt = sorted(&virt);
    let wire: u64 = log.outcomes.iter().map(|o| o.cost.wire_bytes).sum();
    let values = [
        setup_s,
        block_rate(&log.plain_ns),
        block_median(&log.plain_ns) / 1e3,
        percentile(&virt, 0.5) as f64 / 1e3,
        percentile(&virt, 0.99) as f64 / 1e3,
        1.0 - log.failed as f64 / attempted.max(1) as f64,
        wire as f64 / log.outcomes.len().max(1) as f64,
        prefix_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// `(name, unit)` of the per-layer metrics, in the order [`per_layer`] fills
/// them; `BENCHMARK.json` declares the same list.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("core.tha.deploy_us", "us"),
    ("core.tha.remove_us", "us"),
    ("pastry.storage.insert_us", "us"),
    ("core.transit.hint_refresh_us", "us"),
    ("core.tunnel.build_onion_us", "us"),
    ("crypto.onion.seal_small_ns", "ns"),
    ("crypto.onion.seal_bulk_mb_s", "MB/s"),
    ("crypto.onion.peel_us", "us"),
    ("crypto.onion.peel_small_ns", "ns"),
    ("core.netdrive.drive_us", "us"),
    ("core.netdrive.self_us", "us"),
    ("core.netdrive.overlay_hops_per_xfer", "count"),
    ("core.netdrive.retries_per_xfer", "count"),
    ("pastry.overlay.route_us", "us"),
    ("pastry.overlay.route_hops_mean", "count"),
    ("netsim.network.msgs_per_xfer", "count"),
    ("netsim.network.drops_per_xfer", "count"),
    ("netsim.fault.losses_per_xfer", "count"),
    ("netsim.fault.dups_per_xfer", "count"),
    ("netsim.queue_delay_us_mean", "us"),
    ("netsim.timer_lag_us_max", "us"),
    ("netsim.network.pingpong_ns_per_event", "ns"),
    ("core.multipath.form_us", "us"),
    ("core.multipath.send_us", "us"),
    ("core.multipath.laggards_cancelled_per_xfer", "count"),
    ("core.multipath.stripes_failed_per_xfer", "count"),
    ("core.multipath.max_stripes_per_relay_mean", "count"),
    ("crypto.ec.encode_us", "us"),
    ("crypto.ec.reconstruct_us", "us"),
    ("core.retrieval.retrieve_us", "us"),
    ("core.retrieval.self_us", "us"),
    ("crypto.cipher.file_seal_us", "us"),
    ("crypto.cipher.file_open_us", "us"),
    ("crypto.cipher.bulk_mb_s", "MB/s"),
    ("crypto.pki.keygen_us", "us"),
    ("crypto.pki.box_seal_us", "us"),
    ("crypto.pki.box_open_us", "us"),
    ("pastry.overlay.build_us_per_node", "us"),
    ("pastry.overlay.leave_us", "us"),
    ("pastry.overlay.join_us", "us"),
    ("pastry.storage.repair_leave_us", "us"),
    ("pastry.storage.repair_join_us", "us"),
    ("pastry.storage.takeovers_per_xfer", "count"),
    ("pastry.overlay.stale_leafset_refs", "count"),
    ("alloc.count_per_xfer", "count"),
    ("alloc.bytes_per_xfer", "bytes"),
    ("alloc.seal_count", "count"),
    ("alloc.drive_count", "count"),
    ("host.xfer_wall_p99_us", "us"),
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Timings are means over every traced op of the run; counts are taken over
/// the sim prefix only (`counters` and `prefix` were read when it ended), so
/// they repeat exactly from run to run.
fn per_layer(
    log: &Log,
    counters: &SimCounters,
    prefix: &TraceSummary,
    all: &TraceSummary,
    p: &Probes,
    overlay_build_us_per_node: f64,
) -> Vec<Metric> {
    let n = log.outcomes.len().max(1) as f64;
    let mean = |f: fn(&OpSim) -> u64| log.outcomes.iter().map(f).sum::<u64>() as f64 / n;
    let prefix_ops = prefix.ops.max(1) as f64;
    let control = sorted(&log.plain_ns);
    let traced_net = sorted(&all.net_ns);
    let (control_p50, traced_p50) = (percentile(&control, 0.5), percentile(&traced_net, 0.5));
    let net_total = all.net_total_ns().max(1) as f64;
    let values = [
        all.mean_us(Sp::ThaDeploy),
        all.mean_us(Sp::ThaRemove),
        all.mean_us(Sp::StorageInsert),
        all.mean_us(Sp::HintRefresh),
        all.mean_us(Sp::BuildOnion),
        p.seal_small_ns,
        p.seal_bulk_mb_s,
        all.mean_us(Sp::ShadowPeel),
        p.peel_small_ns,
        all.mean_us(Sp::Drive),
        all.self_us(Sp::Drive),
        mean(|o| o.cost.overlay_hops),
        counters.transit_retries as f64 / n,
        all.mean_us(Sp::ShadowRoute),
        counters.shadow_route_hops as f64 / counters.shadow_routes.max(1) as f64,
        counters.msgs_sent as f64 / n,
        counters.msgs_dropped as f64 / n,
        counters.fault_losses as f64 / n,
        counters.fault_dups as f64 / n,
        counters.queue_delay_us_mean,
        counters.timer_lag_us_max as f64,
        p.pingpong_ns_per_event,
        all.mean_us(Sp::MpForm),
        all.mean_us(Sp::MpSend),
        mean(|o| o.cost.laggards_cancelled),
        mean(|o| o.cost.stripes_failed),
        mean(|o| o.cost.max_stripes_per_relay),
        all.mean_us(Sp::ShadowEcEncode),
        all.mean_us(Sp::ShadowEcReconstruct),
        all.mean_us(Sp::Retrieve),
        all.self_us(Sp::Retrieve),
        all.mean_us(Sp::ShadowFileSeal),
        all.mean_us(Sp::ShadowFileOpen),
        p.cipher_bulk_mb_s,
        all.mean_us(Sp::ShadowKeygen),
        all.mean_us(Sp::ShadowBoxSeal),
        all.mean_us(Sp::ShadowBoxOpen),
        overlay_build_us_per_node,
        all.mean_us(Sp::Leave),
        all.mean_us(Sp::Join),
        all.mean_us(Sp::RepairLeave),
        all.mean_us(Sp::RepairJoin),
        mean(|o| o.takeovers),
        counters.stale_leafset_refs as f64,
        prefix.allocs as f64 / prefix_ops,
        prefix.alloc_bytes as f64 / prefix_ops,
        prefix.totals(Sp::BuildOnion).allocs as f64 / prefix_ops,
        prefix.totals(Sp::Drive).allocs as f64 / prefix_ops,
        percentile(&control, 0.99) as f64 / 1e3,
        all.covered_ns as f64 / net_total,
        1.0 - control_p50 as f64 / traced_p50.max(1) as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Share of the traced ops' net time spent in each top-level layer span and
/// in each shadow.
fn shares(all: &TraceSummary) -> Vec<(&'static str, f64)> {
    let net = all.net_total_ns().max(1) as f64;
    Sp::ALL
        .iter()
        .filter(|s| **s != Sp::Op && all.totals(**s).calls > 0)
        .map(|s| (s.name(), all.totals(*s).total_ns as f64 / net))
        .collect()
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
