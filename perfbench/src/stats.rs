//! Order statistics and process-memory readings used by the reports.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values);
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 { s[mid] } else { (s[mid - 1] + s[mid]) / 2.0 })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`, reported only
/// when at least `min_beyond` samples lie strictly above its rank, so a
/// tail figure always rests on enough tail samples. Returns the value and
/// the number of samples beyond it.
pub fn percentile(values: &[f64], p: f64, min_beyond: usize) -> Result<(f64, usize), String> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} of {} samples is undefined", values.len()));
    }
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let beyond = s.len() - rank;
    if beyond < min_beyond {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it; at least {min_beyond} are required",
            s.len()
        ));
    }
    Ok((s[rank - 1], beyond))
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so figures printed here match the steadiness script's. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let s = sorted(values);
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // May be negative when the clamp moved `j`, as in Python.
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size in MiB from a `/proc/<pid>/status` text: the
/// `VmHWM` line, which the kernel reports in kB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0, 0), Ok((50.0, 50)));
        assert_eq!(percentile(&v, 90.0, 10), Ok((90.0, 10)));
        assert_eq!(percentile(&v, 100.0, 0), Ok((100.0, 0)));
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 50.0, 0), Ok((3.0, 2)));
        assert_eq!(percentile(&shuffled, 1.0, 0), Ok((1.0, 4)));
    }

    #[test]
    fn p90_refuses_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: rank 90, 9 beyond — not enough for a p90.
        let err = percentile(&v, 90.0, 10).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&v, 90.0, 10).is_ok());
        assert!(percentile(&[], 50.0, 0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), Some([15.0, 30.0, 45.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kilobytes_as_mebibytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  999999 kB\nVmHWM:\t    20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
