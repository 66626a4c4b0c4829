//! What the host says about this process: peak memory, CPU time, and a
//! fixed calibration loop that tells two run sets apart when the machine,
//! not the code, changed speed.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` (Linux fixes
/// `USER_HZ` at 100 on every supported architecture).
const CLK_TCK: f64 = 100.0;

/// Steps of the calibration loop.
const CALIBRATION_STEPS: u64 = 20_000_000;

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // The command name (field 2) may contain spaces; fields after the
    // closing paren are fixed: utime and stime are the 12th and 13th.
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("cpu ticks")
    };
    (tick() + tick()) / CLK_TCK
}

/// Host nanoseconds for a fixed xorshift loop, best of three (the first
/// loop of a process often runs at half speed while the core clocks up)
/// — the same work on every run and every commit, so a shift here means
/// the machine changed.
pub fn calibration_ns() -> f64 {
    let once = || {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..CALIBRATION_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        t0.elapsed().as_nanos() as f64
    };
    once().min(once()).min(once())
}
