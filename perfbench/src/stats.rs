//! Order statistics, reply fingerprints, and the metric record every part
//! of the benchmark reports into.

use std::hash::{Hash, Hasher};

/// The `q`-quantile (`0 < q <= 1`) by the nearest-rank rule; `0.0` for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A 128-bit fingerprint of a reply: two independent 64-bit hashes (FNV-1a
/// and the standard library's SipHash with its fixed default keys). Logged
/// replies are kept as fingerprints so a long run's log stays small; two
/// replies with equal fingerprints are taken to be byte-identical.
pub fn fingerprint(reply: &str) -> u128 {
    let mut fnv: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in reply.as_bytes() {
        fnv = (fnv ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
    let mut sip = std::collections::hash_map::DefaultHasher::new();
    reply.hash(&mut sip);
    ((fnv as u128) << 64) | sip.finish() as u128
}

/// One reported metric: name, value, unit and the number of samples behind
/// it (`None` for a metric that is not a sample statistic).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Free-form facts about the run (flags, rates, counts).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Median and a higher percentile of `values`, as `<prefix>_p50_<unit>`
    /// and `<prefix>_p<q>_<unit>`.
    pub fn add_quantiles(&mut self, prefix: &str, unit: &'static str, values: &[f64], high: u32) {
        let n = Some(values.len());
        self.add(&format!("{prefix}_p50_{unit}"), median(values), unit, n);
        self.add(
            &format!("{prefix}_p{high}_{unit}"),
            quantile(values, high as f64 / 100.0),
            unit,
            n,
        );
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Rounds per run. A service run alternates an open-loop and a
/// closed-loop segment per round; the provenance run's closed loop is cut
/// into rounds. Set-ups are timed between rounds.
pub const ROUNDS: usize = 5;

/// A run's metrics with the operations it attempted and the ones that
/// failed (an `err` reply, a dropped connection, or an output that failed
/// its correctness check).
pub struct Run {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    /// Adds `other`'s metrics, notes and counts to this run's.
    pub fn absorb(&mut self, other: Run) {
        self.report.metrics.extend(other.report.metrics);
        self.report.notes.extend(other.report.notes);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fingerprints_separate_replies() {
        assert_eq!(
            fingerprint("ok rows epoch=1"),
            fingerprint("ok rows epoch=1")
        );
        assert_ne!(
            fingerprint("ok rows epoch=1"),
            fingerprint("ok rows epoch=2")
        );
    }
}
