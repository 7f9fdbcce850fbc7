//! Metric values, the printed result, and summary statistics.

use suv::trace::Json;

/// One named metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Append a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Everything a run prints: one `workload name value unit` line per
    /// metric, the cell counts, and last the result line.
    pub fn print(&self, workload: &str) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            s += &format!("{workload:<14} {:<36} {:>18} {}\n", m.name, m.value, m.unit);
        }
        s += &format!("cells: {} attempted, {} failed\n", self.attempted, self.failed);
        s + &self.json() + "\n"
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj([("value", Json::F64(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// FNV-1a over 64-bit words: the payload digest.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One memory field of `/proc/self/status` (`VmRSS`, or `VmHWM` for the
/// peak resident set), in MiB.
pub fn rss_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or(format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([7, 9]), digest([7, 9]));
    }
}
