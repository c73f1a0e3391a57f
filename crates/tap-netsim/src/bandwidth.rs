//! Finite-bandwidth serializing uplinks.
//!
//! The paper gives every link 1.5 Mb/s. We model each endpoint's uplink as
//! a FIFO serializer: a transmission must wait for the transmissions queued
//! before it, then occupies the link for `bits / bandwidth`. Propagation
//! delay (the latency model) is added after serialization completes —
//! classic store-and-forward, which is what makes the paper's 2 Mb
//! transfers dominated by per-overlay-hop transmission time.

use crate::time::{SimDuration, SimTime};

/// A single endpoint's uplink.
#[derive(Debug, Clone)]
pub(crate) struct Nic {
    bandwidth_bps: u64,
    busy_until: SimTime,
}

impl Nic {
    /// An idle NIC with the given uplink bandwidth in bits per second.
    pub(crate) fn new(bandwidth_bps: u64) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        Nic {
            bandwidth_bps,
            busy_until: SimTime::ZERO,
        }
    }

    /// Serialization time for `bytes` on this link.
    fn tx_time(&self, bytes: u64) -> SimDuration {
        // micros = bits / (bits/sec) * 1e6, computed in u128 to avoid
        // overflow for large transfers.
        let micros = (bytes as u128 * 8 * 1_000_000).div_ceil(self.bandwidth_bps as u128);
        SimDuration::from_micros(micros as u64)
    }

    /// Enqueue a transmission of `bytes` at `now`; returns the instant the
    /// last bit leaves the NIC.
    pub(crate) fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + self.tx_time(bytes);
        self.busy_until = done;
        done
    }

    /// Drop any queued transmissions (endpoint failed).
    pub(crate) fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1_5_MBPS: u64 = 1_500_000;

    #[test]
    fn tx_time_matches_paper_arithmetic() {
        let nic = Nic::new(T1_5_MBPS);
        // 2 Mb file = 250_000 bytes: 2_000_000 bits / 1.5 Mb/s = 1.333.. s
        let t = nic.tx_time(250_000);
        assert!(
            (t.as_secs_f64() - 4.0 / 3.0).abs() < 1e-5,
            "2Mb at 1.5Mb/s should take ~1.333s, got {t}"
        );
        // Zero-byte control message costs nothing.
        assert_eq!(nic.tx_time(0), SimDuration::ZERO);
    }

    #[test]
    fn transmissions_serialize_fifo() {
        let mut nic = Nic::new(T1_5_MBPS);
        let now = SimTime::ZERO;
        let first = nic.transmit(now, 150_000); // 0.8 s
        let second = nic.transmit(now, 150_000); // queued behind: 1.6 s
        assert_eq!(first.as_micros(), 800_000);
        assert_eq!(second.as_micros(), 1_600_000);
    }

    #[test]
    fn idle_gap_is_not_carried_forward() {
        let mut nic = Nic::new(T1_5_MBPS);
        nic.transmit(SimTime::ZERO, 150_000); // busy until 0.8s
        let late = nic.transmit(SimTime::from_micros(2_000_000), 150_000);
        assert_eq!(
            late.as_micros(),
            2_800_000,
            "starts at `now`, not at busy_until"
        );
    }

    #[test]
    fn reset_clears_queue() {
        let mut nic = Nic::new(T1_5_MBPS);
        nic.transmit(SimTime::ZERO, 1_500_000);
        let now = SimTime::from_micros(10);
        nic.reset(now);
        assert_eq!(nic.busy_until, now);
    }

    #[test]
    fn big_transfer_no_overflow() {
        let nic = Nic::new(1);
        // 1 GiB at 1 bit/s — would overflow u64 intermediate products.
        let t = nic.tx_time(1 << 30);
        assert_eq!(t.as_micros(), (1u64 << 33) * 1_000_000);
    }
}
