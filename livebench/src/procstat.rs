//! Process accounting read from `/proc`: CPU of the whole process and of
//! the calling thread, peak resident memory and the thread count.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every Linux architecture the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU of the whole process, in seconds (threads that
/// already exited included).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// CPU time of the calling thread, in seconds, at nanosecond resolution
/// (`/proc/thread-self/schedstat`).
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

fn status_field(name: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Threads the process runs now.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Asks the kernel to wake the calling thread's timed waits on time
/// instead of coalescing them up to the default 50 µs timer slack, so the
/// open-loop generator's own lateness stays out of measured latencies.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (the slack in ns)
    // and only changes the calling thread's scheduling attribute.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}
