//! Resilience sweep — graceful degradation under injected faults.
//!
//! Not a paper figure: the paper's §7 evaluation assumes fail-stop nodes
//! and a lossless wire. This sweep measures how TAP's tunnel transit (with
//! its delivery-timeout/retry shim and §5 hint fallback) degrades when the
//! wire itself misbehaves: per-link message loss and duplication, a
//! partition/heal cycle through the middle third of the run, and a
//! population of nodes crashed on the wire while the overlay still
//! believes them live.
//!
//! The x axis is the per-link loss probability in permille, swept around
//! the `--faults` center point; each row reports the delivered fraction,
//! resends per transfer, and give-ups per transfer. The `x = 0` row is the
//! fault-free baseline and must deliver everything.
//!
//! Fault injection is seed-deterministic ([`tap_netsim::FaultPlan`] owns
//! its own RNG substream) and each (loss, sim) pair is an independent
//! trial on the figure's [`TrialPool`], so the emitted CSV is
//! byte-identical at any `--threads N`.
//!
//! **Multipath mode** (`--multipath N/K`, i.e. [`Scale::mp_n`] > 0)
//! switches the figure to a head-to-head comparison at each loss level:
//! the same ~9 KB payload shipped once per transfer as a single-path
//! hinted tunnel transfer with the retry shim (`sp_*` columns) and once as
//! an erasure-coded `(n, k)` stripe set over `n` disjoint tunnels
//! ([`tap_core::multipath::send_striped`], `mp_*` columns). Both phases
//! run under the same fault-plan seed and the same partition/crash window,
//! so every row answers "at this fault level, what did coding buy?":
//! delivered fraction, p99 transfer latency, resends per transfer, and the
//! per-relay exposure (the largest fraction of one transfer's stripes any
//! single relay carried — 1.0 for single-path by construction). With
//! `mp_n = 0` (the default) this mode is fully off and the classic CSV is
//! byte-identical to previous releases.

use tap_core::metrics::CoreInstruments;
use tap_core::multipath::{form_disjoint_tunnels, send_striped, MultipathConfig, MultipathError};
use tap_core::netdrive::NetDriver;
use tap_core::tha::ThaSecret;
use tap_core::transit::{HintCache, TransitError, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_core::World;
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, FaultPlan, SimDuration};
use tap_pastry::PastryConfig;

use crate::engine::{substream_seed, TrialPool};
use crate::report::Series;
use crate::Scale;

/// Tunnel length used throughout the sweep (the paper's default l = 3).
const TUNNEL_LENGTH: usize = 3;

/// Send attempts beyond the first before a hop is abandoned.
const RETRY_BUDGET: u32 = 6;

/// The swept loss levels (permille): the fault-free baseline plus points
/// around `center`. `center = 0` collapses to the baseline alone.
pub fn loss_points(center: u32) -> Vec<u32> {
    let mut pts = vec![0, center / 4, center / 2, center, (center * 2).min(1000)];
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Payload shipped per transfer in multipath mode, for both the
/// single-path and the coded phase: three default erasure-code chunks, so
/// a 5/3 stripe set carries ~payload/3 per tunnel.
const MP_PAYLOAD_LEN: usize = 9216;

/// Scatter prefix digits for [`form_disjoint_tunnels`] (Pastry b = 4).
const SCATTER_B: u32 = 4;

/// Run the sweep at `scale` (`fault_permille` is the center point).
/// `mp_n = 0` runs the classic single-path sweep; `mp_n > 0` runs the
/// coded-multipath-vs-single-path comparison.
pub fn run(scale: &Scale) -> Series {
    if scale.mp_n > 0 {
        run_multipath(scale)
    } else {
        run_classic(scale)
    }
}

/// The classic sweep: single-path transfers only, the original column set.
fn run_classic(scale: &Scale) -> Series {
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut series = Series::new(
        "Resilience — tunnel transfer outcomes vs. injected per-link loss (permille)".to_string(),
        "loss_permille",
        vec![
            "delivered_frac".into(),
            "retries_per_xfer".into(),
            "giveups_per_xfer".into(),
        ],
    );

    // Every trial routes over the same membership, and faults live in the
    // wire, not the overlay — so build the world once and hand each trial
    // a copy-on-write fork (O(N) Arc bumps, and since nodes never leave
    // the overlay, routing never evicts and nothing unshares).
    let base = base_world(scale, &metrics);

    let points = loss_points(scale.fault_permille);
    let sims = scale.latency_sims.max(1);
    let transfers = scale.latency_transfers.max(1);
    let trials: Vec<(u32, usize)> = points
        .iter()
        .flat_map(|&loss| (0..sims).map(move |sim| (loss, sim)))
        .collect();
    let pool = TrialPool::new(scale, "resilience");
    let results = pool.run(trials, |idx, &(loss, _sim), rng| {
        let trial_metrics = Registry::new();
        super::apply_journal(&trial_metrics, scale);
        let mut world = base.fork(rng.clone(), &trial_metrics);
        let phase = chaos_phase(
            &mut world,
            transfers,
            loss,
            pool.trial_seed(idx),
            |world, driver| {
                transfer_once(world, driver, b"payload").map(|elapsed| (elapsed.as_micros(), 1.0))
            },
        );
        (phase.delivered, trial_metrics)
    });

    let mut results = results.into_iter();
    for &loss in &points {
        let mut delivered = 0usize;
        let point_metrics = Registry::new();
        for _ in 0..sims {
            let (d, trial_metrics) = results.next().expect("one trial per (loss, sim)");
            delivered += d;
            point_metrics.merge(&trial_metrics);
            metrics.merge(&trial_metrics);
        }
        let snap = point_metrics.snapshot();
        let denom = (sims * transfers) as f64;
        series.push(
            f64::from(loss),
            vec![
                delivered as f64 / denom,
                snap.counter("core.transit.retries") as f64 / denom,
                snap.counter("core.transit.giveups") as f64 / denom,
            ],
        );
    }
    series.metrics_json = Some(metrics.snapshot().to_json());
    series
}

/// The sweep's shared world, its build recorded into `metrics`.
fn base_world(scale: &Scale, metrics: &Registry) -> World {
    let seed = substream_seed(scale.seed, "resilience-base", 0);
    let base = World::build(PastryConfig::paper_defaults(), scale.nodes, seed);
    metrics.merge(base.metrics());
    base
}

/// A random initiator and `count` fresh anchors of its own.
fn fresh_anchors(world: &mut World, count: usize) -> (Id, Vec<ThaSecret>) {
    world
        .random_node()
        .and_then(|initiator| Ok((initiator, world.fresh_hops(initiator, count)?)))
        .expect("non-empty overlay")
}

/// A random destination other than `initiator`. The draw ends only once
/// it finds one; the CLI refuses a one-node network.
fn destination(world: &mut World, initiator: Id) -> Id {
    debug_assert!(
        world.overlay.len() >= 2,
        "a transfer needs two distinct nodes"
    );
    loop {
        let d = world.random_node().expect("non-empty overlay");
        if d != initiator {
            return d;
        }
    }
}

/// One hinted tunnel transfer of `core` between random nodes;
/// `Some(elapsed)` iff it delivered.
fn transfer_once(
    world: &mut World,
    driver: &mut NetDriver<UniformLatency>,
    core: &[u8],
) -> Option<SimDuration> {
    let (initiator, hops) = fresh_anchors(world, TUNNEL_LENGTH);
    let tunnel = Tunnel::new(hops);
    let mut hints = HintCache::default();
    hints.refresh(&world.overlay, &tunnel.hop_ids());
    let dest = destination(world, initiator);
    let onion = tunnel.build_onion(&mut world.rng, Destination::Node(dest), core, Some(&hints));
    let outcome = driver.drive_timed_with_hints(
        &mut world.overlay,
        &world.thas,
        initiator,
        tunnel.entry_hopid(),
        onion,
        0,
        TransitOptions {
            use_hints: true,
            retry_budget: RETRY_BUDGET,
        },
        Some(&mut hints),
    );
    world.teardown(tunnel.hops());
    match outcome {
        Ok((_, report)) => Some(report.elapsed),
        Err(TransitError::RetriesExhausted { .. }) => None,
        // The overlay itself never changes, so any other transit error
        // would be a harness bug, not an injected fault.
        Err(e) => panic!("unexpected transit failure under faults: {e:?}"),
    }
}

/// What one phase (single-path or multipath) of one trial delivered.
#[derive(Default)]
struct PhaseStats {
    delivered: usize,
    /// Virtual elapsed time of each delivered transfer, microseconds.
    latencies_us: Vec<u64>,
    /// Summed per-relay exposure of delivered transfers (largest fraction
    /// of one transfer's stripes carried by any single relay).
    exposure_sum: f64,
}

/// The comparison sweep: each trial runs the *same* transfer schedule
/// twice under the same fault seed — single-path retry vs. coded
/// `(n, k)` multipath — and each row reports both column families.
fn run_multipath(scale: &Scale) -> Series {
    let n = scale.mp_n;
    let k = scale.mp_k.clamp(1, n);
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut series = Series::new(
        format!(
            "Resilience — coded {n}/{k} multipath vs. single-path retry \
             vs. injected per-link loss (permille)"
        ),
        "loss_permille",
        vec![
            "sp_delivered_frac".into(),
            "sp_p99_ms".into(),
            "sp_retries_per_xfer".into(),
            "sp_relay_exposure".into(),
            "mp_delivered_frac".into(),
            "mp_p99_ms".into(),
            "mp_retries_per_xfer".into(),
            "mp_relay_exposure".into(),
        ],
    );

    // Same shared base world as the classic sweep.
    let base = base_world(scale, &metrics);

    let points = loss_points(scale.fault_permille);
    let sims = scale.latency_sims.max(1);
    let transfers = scale.latency_transfers.max(1);
    let trials: Vec<(u32, usize)> = points
        .iter()
        .flat_map(|&loss| (0..sims).map(move |sim| (loss, sim)))
        .collect();
    let pool = TrialPool::new(scale, "resilience-mp");
    let results = pool.run(trials, |idx, &(loss, _sim), rng| {
        let sp_metrics = Registry::new();
        let mp_metrics = Registry::new();
        super::apply_journal(&sp_metrics, scale);
        super::apply_journal(&mp_metrics, scale);
        let seed = pool.trial_seed(idx);
        let payload: Vec<u8> = (0..MP_PAYLOAD_LEN).map(|i| (i * 131 + 7) as u8).collect();
        // The coded phase draws on from where the single-path one stopped.
        let mut sp_world = base.fork(rng.clone(), &sp_metrics);
        let sp = chaos_phase(&mut sp_world, transfers, loss, seed, |world, driver| {
            transfer_once(world, driver, &payload).map(|elapsed| (elapsed.as_micros(), 1.0))
        });
        let mut mp_world = base.fork(sp_world.rng, &mp_metrics);
        let mp_ins = CoreInstruments::new(&mp_metrics);
        let mp = chaos_phase(&mut mp_world, transfers, loss, seed, |world, driver| {
            mp_transfer_once(world, driver, &payload, n, k, &mp_ins)
        });
        (sp, sp_metrics, mp, mp_metrics)
    });

    let mut results = results.into_iter();
    for &loss in &points {
        let mut sp = PhaseStats::default();
        let mut mp = PhaseStats::default();
        let sp_point = Registry::new();
        let mp_point = Registry::new();
        for _ in 0..sims {
            let (s, s_reg, m, m_reg) = results.next().expect("one trial per (loss, sim)");
            sp.delivered += s.delivered;
            sp.latencies_us.extend(s.latencies_us);
            sp.exposure_sum += s.exposure_sum;
            mp.delivered += m.delivered;
            mp.latencies_us.extend(m.latencies_us);
            mp.exposure_sum += m.exposure_sum;
            sp_point.merge(&s_reg);
            mp_point.merge(&m_reg);
            metrics.merge(&s_reg);
            metrics.merge(&m_reg);
        }
        let denom = (sims * transfers) as f64;
        let expo = |p: &PhaseStats| {
            if p.delivered > 0 {
                p.exposure_sum / p.delivered as f64
            } else {
                0.0
            }
        };
        let values = vec![
            sp.delivered as f64 / denom,
            p99_ms(&mut sp.latencies_us),
            sp_point.snapshot().counter("core.transit.retries") as f64 / denom,
            expo(&sp),
            mp.delivered as f64 / denom,
            p99_ms(&mut mp.latencies_us),
            mp_point.snapshot().counter("core.transit.retries") as f64 / denom,
            expo(&mp),
        ];
        if loss == scale.fault_permille && loss > 0 {
            // The gate-worthy numbers at the sweep's reference fault level.
            series
                .bench_extras
                .push(("sp_delivered_frac".into(), values[0]));
            series.bench_extras.push(("sp_p99_ms".into(), values[1]));
            series
                .bench_extras
                .push(("mp_delivered_frac".into(), values[4]));
            series.bench_extras.push(("mp_p99_ms".into(), values[5]));
        }
        series.push(f64::from(loss), values);
    }
    series.metrics_json = Some(metrics.snapshot().to_json());
    series
}

/// p99 of `lat` (microseconds) in milliseconds; 0 when nothing delivered.
fn p99_ms(lat_us: &mut [u64]) -> f64 {
    if lat_us.is_empty() {
        return 0.0;
    }
    lat_us.sort_unstable();
    let idx = (lat_us.len() * 99).div_ceil(100) - 1;
    lat_us[idx] as f64 / 1000.0
}

/// One phase of a trial on a fresh fork of the base world: a fresh wire,
/// the fault plan, and the partition and crash window at the same
/// transfer indices, around a caller-supplied transfer. The transfer
/// returns `Some((elapsed_us, relay_exposure))` on delivery.
fn chaos_phase<F>(
    world: &mut World,
    transfers: usize,
    loss: u32,
    seed: u64,
    mut xfer: F,
) -> PhaseStats
where
    F: FnMut(&mut World, &mut NetDriver<UniformLatency>) -> Option<(u64, f64)>,
{
    let mut driver = world.net_driver(UniformLatency::paper(seed ^ 0x1a7e));
    driver.use_instruments(CoreInstruments::new(world.metrics()));

    if loss > 0 {
        driver.network_mut().install_faults(
            FaultPlan::new(seed)
                .with_loss(loss)
                .with_duplication(loss / 5)
                .with_jitter(SimDuration::from_millis(50))
                .with_spike(loss / 10, SimDuration::from_millis(500)),
        );
    }

    let nodes = world.joined();
    let eps: Vec<EndpointId> = nodes.iter().map(|&id| driver.register(id)).collect();
    let crashed: Vec<Id> = nodes.iter().copied().skip(7).step_by(50).collect();
    let cut_a: Vec<EndpointId> = eps.iter().copied().step_by(20).collect();
    let cut_b: Vec<EndpointId> = eps
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 20 != 0)
        .map(|(_, e)| *e)
        .collect();
    let window = (transfers / 3, 2 * transfers / 3);

    let mut stats = PhaseStats::default();
    for t in 0..transfers {
        if loss > 0 && t == window.0 {
            driver.network_mut().partition("sweep-cut", &cut_a, &cut_b);
            for &id in &crashed {
                driver.kill_node(id);
            }
        }
        if loss > 0 && t == window.1 {
            driver.network_mut().heal("sweep-cut");
            for &id in &crashed {
                driver.revive_node(id);
            }
        }
        if let Some((us, exposure)) = xfer(world, &mut driver) {
            stats.delivered += 1;
            stats.latencies_us.push(us);
            stats.exposure_sum += exposure;
        }
    }
    stats
}

/// One coded `(n, k)` multipath transfer between random nodes: deploy an
/// anchor pool, form up to `n` disjoint tunnels (degrading explicitly when
/// the pool runs short), stripe the payload across them, reconstruct from
/// the first `k` fragments. `Some((elapsed_us, exposure))` iff delivered,
/// where exposure = max stripes any relay carried / stripes launched.
fn mp_transfer_once(
    world: &mut World,
    driver: &mut NetDriver<UniformLatency>,
    payload: &[u8],
    n: usize,
    k: usize,
    instruments: &CoreInstruments,
) -> Option<(u64, f64)> {
    let (initiator, anchors) = fresh_anchors(world, 2 * n * TUNNEL_LENGTH);
    let tunnels = form_disjoint_tunnels(&mut world.rng, &anchors, n, TUNNEL_LENGTH, SCATTER_B);
    let mut hints = HintCache::default();
    let hop_ids: Vec<Id> = tunnels.iter().flat_map(|t| t.hop_ids()).collect();
    hints.refresh(&world.overlay, &hop_ids);
    let dest = destination(world, initiator);
    let outcome = send_striped(
        driver,
        &mut world.overlay,
        &world.thas,
        &mut world.rng,
        initiator,
        dest,
        &tunnels,
        payload,
        MultipathConfig::new(n as u8, k as u8),
        TransitOptions {
            use_hints: true,
            retry_budget: RETRY_BUDGET,
        },
        Some(&mut hints),
        Some(instruments),
    );
    world.teardown(&anchors);
    match outcome {
        Ok(out) => {
            let exposure = if out.report.stripes_total > 0 {
                f64::from(out.report.max_stripes_per_relay) / out.report.stripes_total as f64
            } else {
                1.0
            };
            Some((out.report.elapsed.as_micros(), exposure))
        }
        Err(MultipathError::Transit(TransitError::StripesExhausted { .. })) => None,
        // Anything else (no tunnels, decode failure, unexpected transit
        // error) is a harness bug, not an injected fault.
        Err(e) => panic!("unexpected multipath failure under faults: {e:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            nodes: 250,
            latency_sims: 1,
            latency_transfers: 24,
            fault_permille: 200,
            seed: 11,
            ..Scale::quick()
        }
    }

    #[test]
    fn loss_points_bracket_the_center() {
        assert_eq!(loss_points(100), vec![0, 25, 50, 100, 200]);
        assert_eq!(loss_points(0), vec![0]);
        assert_eq!(loss_points(800), vec![0, 200, 400, 800, 1000]);
    }

    #[test]
    fn baseline_is_lossless_and_chaos_degrades_gracefully() {
        let s = run(&tiny());
        let delivered = s.column("delivered_frac").unwrap();
        let retries = s.column("retries_per_xfer").unwrap();
        let giveups = s.column("giveups_per_xfer").unwrap();

        // Row 0 is the fault-free control: everything arrives, untouched.
        assert_eq!(s.rows[0].x, 0.0);
        assert_eq!(delivered[0], 1.0);
        assert_eq!(retries[0], 0.0);
        assert_eq!(giveups[0], 0.0);

        // Under faults the shim works for its deliveries…
        let last = delivered.len() - 1;
        assert!(retries[last] > 0.0, "40% loss must force resends");
        // …and degradation is graceful, not a cliff: most transfers still
        // arrive, and every non-delivery is an accounted give-up.
        assert!(delivered[last] > 0.5, "delivered {delivered:?}");
        for i in 0..=last {
            assert!(
                (delivered[i] + giveups[i] - 1.0).abs() < 1e-9,
                "row {i}: delivered {} + giveups {} must cover every transfer",
                delivered[i],
                giveups[i]
            );
        }
    }

    fn tiny_mp() -> Scale {
        Scale {
            mp_n: 5,
            mp_k: 3,
            fault_permille: 100,
            // A wider sample than the classic test: the coded-vs-retry
            // delivery gap at one loss point is a few percent, which 24
            // transfers cannot resolve above binomial noise.
            latency_sims: 2,
            latency_transfers: 48,
            ..tiny()
        }
    }

    #[test]
    fn multipath_mode_beats_single_path_retry_under_chaos() {
        let s = run(&tiny_mp());
        let sp_d = s.column("sp_delivered_frac").unwrap();
        let mp_d = s.column("mp_delivered_frac").unwrap();
        let sp_p99 = s.column("sp_p99_ms").unwrap();
        let mp_p99 = s.column("mp_p99_ms").unwrap();
        let sp_expo = s.column("sp_relay_exposure").unwrap();
        let mp_expo = s.column("mp_relay_exposure").unwrap();

        // Row 0 is the fault-free control: both modes deliver everything.
        assert_eq!(s.rows[0].x, 0.0);
        assert_eq!(sp_d[0], 1.0);
        assert_eq!(mp_d[0], 1.0);

        // Disjoint stripes mean no relay ever carries the whole transfer;
        // a single-path relay always does.
        for i in 0..s.rows.len() {
            if sp_d[i] > 0.0 {
                assert_eq!(sp_expo[i], 1.0, "row {i}");
            }
            if mp_d[i] > 0.0 {
                assert!(mp_expo[i] < 1.0, "row {i}: exposure {}", mp_expo[i]);
            }
        }

        // The acceptance row: at the reference fault level (100 permille
        // loss plus the partition/crash window) coding must deliver
        // strictly more, strictly faster at the tail.
        let center = s
            .rows
            .iter()
            .position(|r| r.x == 100.0)
            .expect("center point present");
        assert!(
            mp_d[center] > sp_d[center],
            "coded multipath must out-deliver single-path retry: mp {} vs sp {}",
            mp_d[center],
            sp_d[center]
        );
        assert!(
            mp_p99[center] < sp_p99[center],
            "coded multipath must cut the tail: mp {} ms vs sp {} ms",
            mp_p99[center],
            sp_p99[center]
        );

        // The gate-worthy numbers surface as bench extras.
        let extra = |key: &str| {
            s.bench_extras
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing bench extra {key}"))
        };
        assert_eq!(extra("mp_delivered_frac"), mp_d[center]);
        assert_eq!(extra("sp_delivered_frac"), sp_d[center]);
        assert_eq!(extra("mp_p99_ms"), mp_p99[center]);
        assert_eq!(extra("sp_p99_ms"), sp_p99[center]);
    }

    #[test]
    fn multipath_off_keeps_the_classic_columns() {
        let s = run(&tiny());
        assert_eq!(
            s.columns,
            vec!["delivered_frac", "retries_per_xfer", "giveups_per_xfer"],
            "mp_n = 0 must leave the classic sweep untouched"
        );
    }

    #[test]
    fn faults_zero_turns_the_sweep_off() {
        let s = run(&Scale {
            fault_permille: 0,
            ..tiny()
        });
        assert_eq!(s.rows.len(), 1, "only the control row");
        assert_eq!(s.column("delivered_frac").unwrap()[0], 1.0);
    }
}
