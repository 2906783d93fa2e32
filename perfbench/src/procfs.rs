//! Process and thread accounting (64-bit Linux only): CPU time, peak
//! resident set, CPU pinning. Nothing here needs a dependency.

use std::fs;

/// `/proc/*/stat` reports CPU time in `USER_HZ` units, which is 100 on every
/// Linux ABI this benchmark runs on.
const TICK_US: f64 = 10_000.0;

/// `utime + stime` in microseconds out of one `stat` line. The command name
/// may contain spaces and parentheses, so fields are counted from the last
/// `)`.
fn cpu_us_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state(3) ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * TICK_US)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    /// `clock_gettime(2)` and `sched_setaffinity(2)` from the C library
    /// `std` already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU-time clock in microseconds, with the scheduler's nanosecond
/// precision (`/proc/*/stat` only has 10 ms ticks).
fn cpu_clock_us(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` — two 64-bit
    // fields on 64-bit Linux, the only target `lib.rs` lets this crate
    // build for; the call writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the kernel always has its CPU-time clocks");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// User + system CPU time of the whole process so far (all threads, living
/// and exited), in microseconds.
pub fn process_cpu_us() -> f64 {
    cpu_clock_us(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in microseconds.
pub fn this_thread_cpu_us() -> f64 {
    cpu_clock_us(CLOCK_THREAD_CPUTIME_ID)
}

/// Summed CPU time, in microseconds, of the living threads whose name
/// starts with `prefix` (e.g. `httpd-shard`): nanosecond run time from
/// `schedstat` where the kernel keeps it, `stat` ticks otherwise.
pub fn threads_cpu_us(prefix: &str) -> f64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut total = 0.0;
    for entry in dir.flatten() {
        let path = entry.path();
        let named = fs::read_to_string(path.join("comm"))
            .map(|c| c.trim_end().starts_with(prefix))
            .unwrap_or(false);
        if !named {
            continue;
        }
        let run_ns = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_ascii_whitespace().next()?.parse::<u64>().ok())
            .filter(|&ns| ns > 0);
        total += match run_ns {
            Some(ns) => ns as f64 / 1e3,
            None => fs::read_to_string(path.join("stat"))
                .ok()
                .and_then(|s| cpu_us_of_stat(&s))
                .unwrap_or(0.0),
        };
    }
    total
}

fn status_field_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// The highest-numbered CPU this process may run on (`Cpus_allowed_list`).
fn last_allowed_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Pin the calling thread, and every thread spawned from it afterwards, to
/// one CPU; returns which. Every workload here is a closed loop whose
/// client and server take turns, so a second CPU adds no parallelism, only
/// cross-CPU wake-ups — which on a virtual machine cost more than the code
/// under test and vary from run to run (the simulated job: 127 ms pinned,
/// 130–520 ms unpinned on the reference box).
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = last_allowed_cpu().filter(|&c| c < 1024)?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
    // which is a live, initialised array of exactly that size, and keeps no
    // pointer to it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "123 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_us_of_stat(line), Some(300.0 * TICK_US));
        assert_eq!(cpu_us_of_stat("garbage"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let (p0, t0) = (process_cpu_us(), this_thread_cpu_us());
        let mut x = 0u64;
        while this_thread_cpu_us() - t0 < 20_000.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us() - p0 >= 15_000.0, "process CPU covers its threads");
        assert!(peak_rss_mib() > 0.5);
        let name = std::thread::current().name().unwrap_or("").to_string();
        let prefix: String = name.chars().take(15).collect();
        assert!(prefix.is_empty() || threads_cpu_us(&prefix) > 0.0);
    }
}
