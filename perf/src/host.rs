//! What the benchmark reads from the host about its own processes.

/// On-CPU nanoseconds of the calling thread since it started, from
/// `/proc/thread-self/schedstat`. Unlike wall time this excludes the
/// time a virtual CPU is descheduled by the hypervisor (steal), which
/// on shared hosts inflates wall time by tens of percent from one
/// minute to the next.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat is readable")
}

/// On-CPU seconds of the live threads of process `pid` whose name starts
/// with `prefix`, from `/proc/<pid>/task/<tid>/schedstat` (steal
/// excluded, as in [`thread_cpu_ns`]). Linux keeps the first 15 bytes of
/// a thread's name. `None` when no such thread is found.
pub fn threads_cpu_s(pid: u32, prefix: &str) -> Option<f64> {
    let mut ns = None;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        // A thread may exit between the listing and the reads.
        let Ok(dir) = task.map(|t| t.path()) else {
            continue;
        };
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !name.starts_with(prefix) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let on_cpu: u64 = stat.split_whitespace().next()?.parse().ok()?;
        ns = Some(ns.unwrap_or(0) + on_cpu);
    }
    ns.map(|ns| ns as f64 / 1e9)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        // POSIX kill(2).
        fn kill(pid: i32, sig: i32) -> i32;
    }

    pub fn signal(pid: u32, sig: i32) -> std::io::Result<()> {
        let pid = i32::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
        // SAFETY: kill(2) takes two integers and touches no memory of
        // this process; a stale pid is reported through the return value.
        if unsafe { kill(pid, sig) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

/// Ask process `pid` to shut down (SIGTERM).
pub fn terminate(pid: u32) -> std::io::Result<()> {
    ffi::signal(pid, 15)
}
