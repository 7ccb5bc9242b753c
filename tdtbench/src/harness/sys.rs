//! Process-level measurements the standard library does not expose:
//! CPU time consumed by the whole process and its peak resident set.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("tdtbench reads the process CPU clock and /proc; it needs 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of every thread of this process since it
/// started, at nanosecond resolution (the `/proc/self/stat` tick counters
/// are too coarse to bracket a 25 ms operation).
///
/// # Panics
///
/// Panics when the kernel refuses the clock, which a Linux kernel never
/// does for the calling process's own CPU clock.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid-out `timespec`
    // (two 64-bit fields on every 64-bit Linux target, which the
    // `compile_error!` above restricts this crate to), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
