//! Process facts read from `/proc`: resident memory now and at peak.

use std::fs;

/// A `kB` field (`VmRSS:`, `VmHWM:`) of a `/proc/<pid>/status` file.
fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kb(&text, field)
}

/// Extracts a `kB` field from `/proc/<pid>/status` text.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Resident memory of this process now, in kB.
pub fn rss_kb() -> u64 {
    status_kb("self", "VmRSS:").unwrap_or(0)
}

/// Peak resident memory of this process so far, in kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("self", "VmHWM:").unwrap_or(0)
}

/// Peak resident memory of another process, in kB (`None` once it is
/// gone).
pub fn peak_rss_kb_of(pid: u32) -> Option<u64> {
    status_kb(&pid.to_string(), "VmHWM:")
}

/// Resident memory of another process now, in kB.
pub fn rss_kb_of(pid: u32) -> Option<u64> {
    status_kb(&pid.to_string(), "VmRSS:")
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Least-squares slope of `y` over `x` (0 with fewer than two distinct
/// `x`).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t   2048 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM:"), Some(123_456));
        assert_eq!(parse_status_kb(text, "VmRSS:"), Some(2_048));
        assert_eq!(parse_status_kb(text, "VmSwap:"), None);
        let now = rss_kb();
        assert!(now > 0 && peak_rss_kb() >= now);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
        assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), 0.0);
    }
}
