//! Service-level agreement configuration.

use serde::{Deserialize, Serialize};

/// The tail-latency SLA queries are judged against.
///
/// The paper sets a 400 ms target on p95 latency, in line with industry
/// recommendations for RecSys (Section V-C), and sets the dense shard's
/// HPA latency threshold at 65% of it (Section IV-D).
///
/// # Examples
///
/// ```
/// use er_workload::SlaConfig;
///
/// let sla = SlaConfig::paper_default();
/// assert_eq!(sla.target_secs(), 0.4);
/// assert!((sla.hpa_threshold_secs() - 0.26).abs() < 1e-12);
/// assert!(sla.is_violated(0.5));
/// assert!(!sla.is_violated(0.3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaConfig {
    target_secs: f64,
    percentile: f64,
    hpa_fraction: f64,
}

impl SlaConfig {
    /// The paper's configuration: 400 ms on p95, HPA threshold at 65%.
    pub const fn paper_default() -> Self {
        Self {
            target_secs: 0.400,
            percentile: 0.95,
            hpa_fraction: 0.65,
        }
    }

    /// Tail-latency bound in seconds.
    pub fn target_secs(&self) -> f64 {
        self.target_secs
    }

    /// The percentile the bound applies to (0.95 in the paper).
    pub fn percentile(&self) -> f64 {
        self.percentile
    }

    /// The dense-shard autoscaling threshold: `hpa_fraction × target`.
    pub fn hpa_threshold_secs(&self) -> f64 {
        self.hpa_fraction * self.target_secs
    }

    /// Whether an observed tail latency violates the SLA.
    pub fn is_violated(&self, observed_tail_secs: f64) -> bool {
        observed_tail_secs > self.target_secs
    }
}

impl Default for SlaConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let sla = SlaConfig::paper_default();
        assert_eq!(sla.target_secs(), 0.4);
        assert_eq!(sla.percentile(), 0.95);
        assert!((sla.hpa_threshold_secs() - 0.26).abs() < 1e-12);
    }

    #[test]
    fn violation_boundary() {
        let sla = SlaConfig::paper_default();
        assert!(!sla.is_violated(0.4));
        assert!(sla.is_violated(0.4000001));
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(SlaConfig::default(), SlaConfig::paper_default());
    }
}
