//! Order statistics over wall-clock samples.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample set,
/// or 0 when there are no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of floats (mean of the middle pair for even counts), 0 when
/// empty.
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

/// Latency samples in nanoseconds with the summary the benchmark reports.
#[derive(Default, Clone, Debug)]
pub struct Lat {
    /// Raw samples, ns.
    pub ns: Vec<u64>,
}

impl Lat {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Percentile in microseconds.
    pub fn pct_us(&mut self, p: f64) -> f64 {
        percentile(&mut self.ns, p) as f64 / 1e3
    }

    /// Appends another sample set.
    pub fn extend(&mut self, other: &Lat) {
        self.ns.extend_from_slice(&other.ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 90.0), 90);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
