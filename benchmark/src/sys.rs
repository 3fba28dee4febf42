//! The OS facts the harness needs and `std` does not expose: CPU time and
//! peak resident set of this process and its waited-for children
//! (`getrusage`, `/proc/self/status`), and SIGKILL for worker processes
//! that a hung `DistributedRuntime::run` still owns when the watchdog
//! fires. Linux only.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s then fourteen `long`s,
/// of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines, and `who` is one of the two constants the
    // call accepts; on failure the zeroed struct is returned unchanged.
    unsafe { getrusage(who, &mut ru) };
    ru
}

/// User + system CPU time consumed so far by this process and by every
/// child it has already waited for.
pub fn cpu_time() -> Duration {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let ru = rusage(who);
            Duration::from_secs((ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) as u64)
                + Duration::from_micros((ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) as u64)
        })
        .sum()
}

/// Largest resident set, in MiB, reached by this process or by any child
/// it has waited for. This process's own peak is `VmHWM`, not `ru_maxrss`:
/// the latter survives `exec`, so it starts at the peak of whatever spawned
/// the benchmark (`cargo run` right after a build: 300 MiB). A worker's
/// `ru_maxrss` likewise starts at the harness's resident set when it was
/// spawned, which never exceeds the harness's own peak.
pub fn peak_rss_mib() -> f64 {
    let own_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<i64>().ok()
        })
        .unwrap_or(0);
    own_kib.max(rusage(RUSAGE_CHILDREN).ru_maxrss) as f64 / 1024.0
}

/// SIGKILL every direct child of this process; returns how many were found.
pub fn kill_children() -> usize {
    let me = std::process::id();
    let mut killed = 0;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`; comm may contain spaces, so split
        // after the last ')'.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(me) {
            // SAFETY: plain syscall on a pid read from /proc; a pid that
            // has exited meanwhile makes it fail with ESRCH, nothing more.
            unsafe { kill(pid, SIGKILL) };
            killed += 1;
        }
    }
    killed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() > before);
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn kill_children_reaps_only_own_children() {
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        assert!(kill_children() >= 1);
        let status = child.wait().expect("wait");
        assert!(!status.success(), "child was killed, not finished");
    }
}
