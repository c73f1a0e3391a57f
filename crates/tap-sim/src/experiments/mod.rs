//! The experiments, one module per figure. Each runs on a
//! [`tap_core::World`].
//!
//! The anonymity figures (fig2–fig5) count outcomes with the membership
//! predicates that decide them — a hop survives while one replica holder
//! lives, a collusion learns an anchor one of its members held — instead
//! of driving every tunnel through onion transit, which is orders of
//! magnitude slower at the paper's sizes. Only fig2 checks its predicate
//! against the protocol: every sweep point drives up to 25 tunnels through
//! real transit on the failed overlay and asserts that the outcomes agree
//! ([`node_failures`]). The predicates of fig3, fig4 and fig5 are not yet
//! checked against the protocol (ROADMAP item 3).

pub mod churn;
pub mod collusion;
pub mod latency;
pub mod node_failures;
pub mod resilience;
pub mod secure_routing;
pub mod sweeps;

use tap_metrics::Registry;

use crate::Scale;

/// Install an event journal on `metrics` when [`Scale::journal_cap`] is
/// nonzero (the CLI's `--journal N`); otherwise events stay dropped and
/// the report carries counters and histograms only.
pub fn apply_journal(metrics: &Registry, scale: &Scale) {
    if scale.journal_cap > 0 {
        metrics.install_journal(scale.journal_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_flag_selects_event_verbosity() {
        // journal_cap = 0 (the default): events are dropped.
        let mut scale = crate::cli::parse_line("all").unwrap().scale;
        let metrics = Registry::new();
        apply_journal(&metrics, &scale);
        metrics.emit(1, "test.event", format_args!("no journal installed"));
        assert!(metrics.snapshot().events.is_empty());

        // --journal 4: the most recent 4 events reach the report.
        scale.journal_cap = 4;
        apply_journal(&metrics, &scale);
        for i in 0..6 {
            metrics.emit(i, "test.event", format_args!("#{i}"));
        }
        let events = metrics.snapshot().events;
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].detail, "#2");
        assert_eq!(events[3].detail, "#5");
    }
}
