//! Order statistics and number formatting.

/// Sorts ascending (NaN-free input).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank quantile `q` of an ascending slice (0 when empty).
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let r = (q * sorted.len() as f64).ceil() as usize;
    sorted[r.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    rank(&s, 0.5)
}

/// A JSON number with every digit; non-finite values (a failed request's
/// latency) print as the largest finite double.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}
