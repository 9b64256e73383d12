//! Metric containers, statistics and the result line.

use crate::Pass;

/// Named metrics with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn extend(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().cloned());
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Failure label of an operation that panicked.
pub fn panic_label(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panic: {msg}")
}

/// Median (the mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean; 1.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nearest-rank `q`-quantile of non-empty `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Differences between two passes' exact observables.
pub fn compare(want: &Pass, got: &Pass, label: &str) -> Vec<String> {
    let mut out = Vec::new();
    if want.fingerprints.len() != got.fingerprints.len() {
        out.push(format!(
            "{label}: {} operations, want {}",
            got.fingerprints.len(),
            want.fingerprints.len()
        ));
    }
    for (i, (w, g)) in want.fingerprints.iter().zip(&got.fingerprints).enumerate() {
        if w != g {
            out.push(format!("{label}: operation {i} fingerprint differs"));
        }
    }
    for ((name, w, _), (_, g, _)) in want.exact.0.iter().zip(&got.exact.0) {
        if w.to_bits() != g.to_bits() {
            out.push(format!("{label}: exact metric {name} = {g}, want {w}"));
        }
    }
    out
}

/// The benchmark's result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values are not JSON; the run is already marked
            // incorrect when one appears.
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
