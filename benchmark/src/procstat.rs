//! What the kernel reports about this process, read from `/proc`.

use std::fs;

/// User + system CPU seconds of the whole process, reaped threads
/// included (`/proc/self/stat` fields 14 and 15, in clock ticks).
pub fn cpu_s() -> f64 {
    /// `USER_HZ`: fixed at 100 on every Linux ABI this runs on.
    const TICKS_PER_S: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / TICKS_PER_S
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}
