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
//! Each (loss, sim) pair is an independent trial on the figure's
//! [`TrialPool`], its [`tap_netsim::FaultPlan`] seeded from the trial's
//! fault stream, so the CSV is byte-identical at any `--threads N`.
//!
//! **Multipath mode** (`--multipath N/K`, i.e. [`Scale::mp_n`] > 0)
//! switches the figure to a head-to-head comparison at each loss level:
//! the same ~9 KB payload shipped once per transfer as a single-path
//! hinted tunnel transfer with the retry shim (`sp_*` columns) and once as
//! an erasure-coded `(n, k)` stripe set over `n` disjoint tunnels
//! ([`tap_core::multipath::send_striped`], `mp_*` columns). Both phases
//! fork the base world with the trial's draws: the same links, faults,
//! partition/crash window and endpoints, and neither moves the other's
//! draws. Each row reports, per phase, the delivered fraction, p99 latency,
//! resends per transfer and per-relay exposure (the largest fraction of a
//! transfer's stripes one relay carried; 1.0 for single-path).

use rand::Rng;

use tap_core::metrics::CoreInstruments;
use tap_core::multipath::{form_disjoint_tunnels, send_striped, MultipathConfig, MultipathError};
use tap_core::netdrive::NetDriver;
use tap_core::tha::ThaSecret;
use tap_core::transit::{HintCache, TransitError, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_core::{Draws, Purpose, World};
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, FaultPlan, SimDuration};
use tap_pastry::PastryConfig;

use crate::engine::TrialPool;
use crate::report::Series;
use crate::Scale;

/// Tunnel length used throughout the sweep (the paper's default l = 3).
const TUNNEL_LENGTH: usize = 3;

/// Send attempts beyond the first before a hop is abandoned.
const RETRY_BUDGET: u32 = 6;

/// The swept loss levels (permille): the fault-free baseline plus points
/// around `center`. `center = 0` collapses to the baseline alone.
fn loss_points(center: u32) -> Vec<u32> {
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
    let coded = (scale.mp_n > 0).then(|| (scale.mp_n, scale.mp_k.clamp(1, scale.mp_n)));
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut series = match coded {
        None => Series::new(
            "Resilience — tunnel transfer outcomes vs. injected per-link loss (permille)",
            "loss_permille",
            vec![
                "delivered_frac".into(),
                "retries_per_xfer".into(),
                "giveups_per_xfer".into(),
            ],
        ),
        Some((n, k)) => Series::new(
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
        ),
    };

    // Every trial routes over the same membership, and faults live in the
    // wire, not the overlay — so build the world once and hand each trial
    // a copy-on-write fork (O(N) Arc bumps, and since nodes never leave
    // the overlay, routing never evicts and nothing unshares).
    let draws = Draws::from(scale.seed ^ 0x4E5);
    let base = World::build(PastryConfig::paper_defaults(), scale.nodes, draws);
    metrics.merge(base.metrics());
    let pool = TrialPool::new(scale, draws);

    let points = loss_points(scale.fault_permille);
    let sims = scale.latency_sims.max(1);
    let transfers = scale.latency_transfers.max(1);
    let trials: Vec<(u32, usize)> = points
        .iter()
        .flat_map(|&loss| (0..sims).map(move |sim| (loss, sim)))
        .collect();
    let payload: Vec<u8> = match coded {
        None => b"payload".to_vec(),
        Some(_) => (0..MP_PAYLOAD_LEN).map(|i| (i * 131 + 7) as u8).collect(),
    };
    // Both phases fork the base with the trial's draws: paired, not chained.
    let results = pool.run(trials, |&(loss, _sim), draws| {
        let sp = chaos_phase(&base, draws, scale, loss, |world, driver, _| {
            transfer_once(world, driver, &payload).map(|elapsed| (elapsed.as_micros(), 1.0))
        });
        let mp = coded.map(|(n, k)| {
            chaos_phase(&base, draws, scale, loss, |world, driver, ins| {
                mp_transfer_once(world, driver, &payload, n, k, ins)
            })
        });
        (sp, mp)
    });

    let mut results = results.into_iter();
    for &loss in &points {
        let (mut sp, mut mp) = (PhaseStats::default(), PhaseStats::default());
        let (sp_point, mp_point) = (Registry::new(), Registry::new());
        for _ in 0..sims {
            let ((s, s_reg), m) = results.next().expect("one trial per (loss, sim)");
            sp.absorb(s);
            sp_point.merge(&s_reg);
            metrics.merge(&s_reg);
            if let Some((m, m_reg)) = m {
                mp.absorb(m);
                mp_point.merge(&m_reg);
                metrics.merge(&m_reg);
            }
        }
        let denom = (sims * transfers) as f64;
        let per_xfer = |point: &Registry, name| point.snapshot().counter(name) as f64 / denom;
        let values = match coded {
            None => vec![
                sp.delivered as f64 / denom,
                per_xfer(&sp_point, "core.transit.retries"),
                per_xfer(&sp_point, "core.transit.giveups"),
            ],
            Some(_) => [(&mut sp, &sp_point), (&mut mp, &mp_point)]
                .into_iter()
                .flat_map(|(stats, point)| {
                    [
                        stats.delivered as f64 / denom,
                        p99_ms(&mut stats.latencies_us),
                        per_xfer(point, "core.transit.retries"),
                        stats.exposure(),
                    ]
                })
                .collect(),
        };
        if coded.is_some() && loss == scale.fault_permille && loss > 0 {
            // The gate-worthy numbers at the sweep's reference fault level.
            for (name, at) in [
                ("sp_delivered_frac", 0),
                ("sp_p99_ms", 1),
                ("mp_delivered_frac", 4),
                ("mp_p99_ms", 5),
            ] {
                series.bench_extras.push((name.into(), values[at]));
            }
        }
        series.push(f64::from(loss), values);
    }
    series.metrics_json = Some(metrics.snapshot().to_json());
    series
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
    let mut flow = world.stream(Purpose::Flow);
    let onion = tunnel.build_onion(&mut flow, Destination::Node(dest), core, Some(&hints));
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

impl PhaseStats {
    fn absorb(&mut self, other: PhaseStats) {
        self.delivered += other.delivered;
        self.latencies_us.extend(other.latencies_us);
        self.exposure_sum += other.exposure_sum;
    }

    /// Mean exposure of a delivered transfer; 0 when nothing delivered.
    fn exposure(&self) -> f64 {
        if self.delivered > 0 {
            self.exposure_sum / self.delivered as f64
        } else {
            0.0
        }
    }
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

/// One phase of a trial on a fork of `base` drawing from `draws`, with its
/// own registry: a fresh wire, the fault plan, and the partition and crash
/// window at the same transfer indices, around a caller-supplied transfer.
/// The transfer returns `Some((elapsed_us, relay_exposure))` on delivery.
fn chaos_phase<F>(
    base: &World,
    draws: Draws,
    scale: &Scale,
    loss: u32,
    mut xfer: F,
) -> (PhaseStats, Registry)
where
    F: FnMut(&mut World, &mut NetDriver<UniformLatency>, &CoreInstruments) -> Option<(u64, f64)>,
{
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut world = base.fork(draws, &metrics);
    let mut wire = world.stream(Purpose::Wire);
    let mut driver = world.net_driver(UniformLatency::paper(wire.gen()));
    let instruments = CoreInstruments::new(&metrics);
    driver.use_instruments(instruments.clone());

    if loss > 0 {
        driver.network_mut().install_faults(
            FaultPlan::new(wire.gen())
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
    let transfers = scale.latency_transfers.max(1);
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
        if let Some((us, exposure)) = xfer(&mut world, &mut driver, &instruments) {
            stats.delivered += 1;
            stats.latencies_us.push(us);
            stats.exposure_sum += exposure;
        }
    }
    (stats, metrics)
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
    let mut rng = world.stream(Purpose::Formation);
    let tunnels = form_disjoint_tunnels(&mut rng, &anchors, n, TUNNEL_LENGTH, SCATTER_B);
    let mut hints = HintCache::default();
    let hop_ids: Vec<Id> = tunnels.iter().flat_map(|t| t.hop_ids()).collect();
    hints.refresh(&world.overlay, &hop_ids);
    let dest = destination(world, initiator);
    let mut flow = world.stream(Purpose::Flow);
    let outcome = send_striped(
        driver,
        &mut world.overlay,
        &world.thas,
        &mut flow,
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
    use crate::cli;

    fn tiny(flags: &str) -> Scale {
        cli::parse_line(&format!("resilience --preset tiny {flags}"))
            .unwrap()
            .scale
    }

    #[test]
    fn loss_points_bracket_the_center() {
        assert_eq!(loss_points(100), vec![0, 25, 50, 100, 200]);
        assert_eq!(loss_points(0), vec![0]);
        assert_eq!(loss_points(800), vec![0, 200, 400, 800, 1000]);
    }

    #[test]
    fn multipath_off_keeps_the_classic_columns() {
        let s = run(&tiny(""));
        assert_eq!(
            s.columns,
            vec!["delivered_frac", "retries_per_xfer", "giveups_per_xfer"],
            "mp_n = 0 must leave the classic sweep untouched"
        );
    }

    #[test]
    fn faults_zero_turns_the_sweep_off() {
        let s = run(&tiny("--faults 0"));
        assert_eq!(s.rows.len(), 1, "only the control row");
        assert_eq!(s.column("delivered_frac").unwrap()[0], 1.0);
    }
}
