//! Small numeric and reporting helpers: order statistics, peak RSS, and
//! the metric list printed at the end of a run.

use std::fmt::Write as _;

/// The `q`-quantile (`0..=1`) of `values` by nearest rank on a sorted copy.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Prints one `metric` line per entry, for people reading the log.
    pub fn print_lines(&self) {
        for m in &self.0 {
            println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }

    /// The final result line: `{"correct":…,"attempted":…,"failed":…,
    /// "metrics":{name:{"value":…,"unit":…},…}}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit needed to round-trip;
            // JSON has no NaN, so a broken value reads -1.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn result_json_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.5, "s");
        let json = m.result_json(true, 3, 0);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
