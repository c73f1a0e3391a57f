//! Overlay parameters.

use crate::leafset::HALF;

/// Static Pastry/PAST parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastryConfig {
    /// Bits per identifier digit. Pastry's `b`; the paper notes "a typical
    /// value of 4" (§5), giving hexadecimal digits and `log_16 N` routing.
    pub b: u32,
    /// PAST replication factor `k`: objects live on the `k` nodes closest
    /// to their key, at most the leaf set's reach (`|L|/2 + 1 = 9`; the
    /// leaf set is Pastry's customary `|L| = 16`). The paper evaluates
    /// k = 3 and k = 5.
    pub replication: usize,
}

impl PastryConfig {
    /// The configuration the paper evaluates: `b = 4`, `|L| = 16`, `k = 3`.
    pub fn paper_defaults() -> Self {
        PastryConfig {
            b: 4,
            replication: 3,
        }
    }

    /// Same but with an explicit replication factor (the paper sweeps k).
    pub fn with_replication(k: usize) -> Self {
        PastryConfig {
            replication: k,
            ..Self::paper_defaults()
        }
    }

    /// Number of columns per routing-table row (`2^b`).
    pub fn cols(&self) -> usize {
        1usize << self.b
    }

    /// Number of digits in an identifier at this `b`.
    pub fn digits(&self) -> usize {
        tap_id::digits_for(self.b)
    }

    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert!((1..=8).contains(&self.b), "b must be 1..=8");
        assert!(self.replication >= 1, "replication factor must be >= 1");
        assert!(
            self.replication <= HALF + 1,
            "replication beyond leaf-set reach ({} > {}): PAST places \
             replicas within the leaf set",
            self.replication,
            HALF + 1
        );
    }
}

impl Default for PastryConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        let c = PastryConfig::paper_defaults();
        c.validate();
        assert_eq!(c.cols(), 16);
        assert_eq!(c.digits(), 40);
        assert_eq!(HALF, 8, "|L| = 16");
    }

    #[test]
    fn replication_sweep_configs_validate() {
        for k in 1..=8 {
            PastryConfig::with_replication(k).validate();
        }
    }

    #[test]
    #[should_panic(expected = "replication beyond leaf-set reach")]
    fn replication_larger_than_leafset_rejected() {
        PastryConfig::with_replication(HALF + 1).validate();
        PastryConfig::with_replication(HALF + 2).validate();
    }

    #[test]
    #[should_panic(expected = "b must be")]
    fn bad_digit_width_rejected() {
        PastryConfig {
            b: 0,
            replication: 3,
        }
        .validate();
    }
}
