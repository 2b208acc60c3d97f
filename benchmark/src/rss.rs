//! Peak resident memory from `/proc/self/status`.
//!
//! `VmHWM` is the process's high-water mark. Writing `5` to `/proc/self/clear_refs`
//! resets it to the current RSS, which lets a run exclude input generation from its
//! peak. Where the reset is refused the peak includes generation, and the run says so.

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text into kibibytes.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse::<u64>().ok()?;
    match parts.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// Resets the peak to the current RSS; `false` when the kernel refuses.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The current peak RSS in MiB, if `/proc/self/status` is readable.
pub fn peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_hwm_line() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  20000 kB\nVmHWM:\t    1824 kB\nVmRSS:\t 1800 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1824));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1800 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\n"), None);
    }
}
