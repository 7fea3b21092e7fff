//! Order statistics, process memory readings and output digests.

use std::fmt;

/// The `q`-quantile (`0 < q <= 1`) by nearest rank; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` in MiB (`0.0` where unavailable).
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's resident-set high-water mark, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's current resident set, MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// FNV-1a over everything formatted into it: `write!(digest, ...)` hashes
/// rendered output without building the string.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        write!(a, "{}{}", 1, 2).unwrap();
        write!(b, "{}{}", 2, 1).unwrap();
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        write!(c, "12").unwrap();
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn memory_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(rss_mb() > 0.0 && rss_mb() <= peak_rss_mb());
        }
    }
}
