//! Small numeric and formatting helpers shared by the child, the driver
//! and the tests: order statistics, the FNV-64 answer digest, `VmHWM`, and
//! the metric record that travels from a child to its parent as text.

use std::fmt::Write as _;

/// One measured value: name, value, unit and the number of samples the
/// value summarizes (1 for a plain count or a single timing).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The units a metric may carry; a child's text line is mapped back onto
/// one of these so `Metric::unit` can stay `&'static str`.
const UNITS: [&str; 11] = [
    "s", "ms", "us", "ns", "1/s", "MiB", "bytes", "count", "ratio", "%", "threads",
];

pub fn static_unit(unit: &str) -> Option<&'static str> {
    UNITS.iter().copied().find(|u| *u == unit)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule; 0
/// for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(p50, p99)` of a latency sample.
pub fn p50_p99(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile_sorted(&v, 0.5), quantile_sorted(&v, 0.99))
}

/// (max − min) ÷ median: how far the children of one invocation disagree.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Digest of a rendered answer that does not depend on how many statements
/// the session ran before: the answer's `Q‹n›` name is cut from the front
/// of each line together with the indentation derived from its length
/// (column widths never depend on the name).
pub fn answer_digest(payload: &str) -> u64 {
    let name = payload.split(':').next().unwrap_or("");
    // FNV-1a 64.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in payload.lines() {
        let line = line.trim_start();
        let line = line.strip_prefix(name).unwrap_or(line);
        for b in line.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, all)` jiffies of every CPU since boot, from the first line of
/// `/proc/stat`: steal is time a virtual CPU was ready to run and the
/// hypervisor ran something else. `None` where `/proc` is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is part
    // of user time and not added again.
    Some((*fields.get(7)?, fields[..8].iter().sum()))
}

/// A JSON number: every digit of a finite value, `0` for anything else
/// (JSON has no NaN).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` in the order given.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50_p99(&v), (50.0, 99.0));
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
    }

    #[test]
    fn digest_ignores_the_answer_name() {
        let a = "Q1: 1 distinct answer(s) across 1 world(s)\nQ1[1]  Arr  \n       HUB  \n";
        let b = "Q217: 1 distinct answer(s) across 1 world(s)\nQ217[1]  Arr  \n         HUB  \n";
        let c = "Q1: 1 distinct answer(s) across 1 world(s)\nQ1[1]  Arr  \n       ATL  \n";
        assert_eq!(answer_digest(a), answer_digest(b));
        assert_ne!(answer_digest(a), answer_digest(c));
    }

    #[test]
    fn json_shape() {
        let m = [
            Metric::new("a_us", 1.5, "us", 3),
            Metric::new("b", f64::NAN, "count", 1),
        ];
        assert_eq!(
            json_metrics(&m),
            "{\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }
}
