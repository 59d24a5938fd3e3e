//! The benchmark's wall-clock and process-accounting boundary. Every
//! `Instant` read of the benchmark goes through [`Stopwatch`]; resident
//! memory and process CPU time come from `/proc/self`.

// detlint::allow(no-wall-clock): the benchmark measures wall time by definition
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    // detlint::allow(no-wall-clock): the benchmark measures wall time by definition
    start: Instant,
}

impl Stopwatch {
    /// Starts a timer now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // detlint::allow(no-wall-clock): the benchmark measures wall time by definition
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Sleeps until `secs` after the start (returns at once if past).
    pub fn sleep_until(&self, secs: f64) {
        let left = secs - self.secs();
        if left > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(left));
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU seconds this process has used so far (all threads).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}
