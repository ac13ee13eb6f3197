//! Small statistics and process helpers.

/// Linear-interpolated percentile (`q` in 0..=1) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return f64::NAN;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The process's peak resident set (VmHWM) in MiB. Each run is its own
/// process, so the figure belongs to one workload run only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds the host-speed kernel takes on the reference host (the
/// 2-thread host the benchmark was tuned on, one worker busy).
pub const HOST_REFERENCE_MS: f64 = 1.4;

/// Times the host-speed kernel once, in milliseconds.
///
/// The benchmark's host shares its processors with other machines, and
/// its speed drifts by about ten percent over minutes, more than a run
/// can average out. The kernel is fixed standard-library work (ordered
/// map inserts and lookups: allocation and pointer chasing, like the
/// compiler's) that no change to the program can touch, so a compile
/// time divided by the kernel's time in the same run cancels the drift:
/// on a 300 s trace of one unit the spread of 20 s windows fell from 11 %
/// to 2 %.
pub fn host_kernel_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 30_000
    };
    let mut map = std::collections::BTreeMap::new();
    for i in 0..6_000u64 {
        map.insert(next(), i);
    }
    let mut sum = 0u64;
    for _ in 0..6_000 {
        sum = sum.wrapping_add(map.get(&next()).copied().unwrap_or(1));
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The murmur3 64-bit finalizer: a bijection with `fmix(0) == 0`.
pub fn fmix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ceb9fe1a85ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
