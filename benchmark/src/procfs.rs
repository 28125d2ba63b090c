//! What the kernel says about this process and its worker children:
//! peak memory, CPU time per thread, context switches.  Linux `/proc` only;
//! every reader returns zero when a file is missing so a probe never fails
//! a run.

use std::fs;

/// Userspace clock ticks per second in `/proc/<pid>/stat` (fixed by the ABI).
const USER_HZ: f64 = 100.0;

fn status_field_kb(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Fields of `/proc/.../stat` after the parenthesised command name (which
/// may itself contain spaces), so index 0 is the state letter (field 3).
fn stat_fields(stat: &str) -> Vec<&str> {
    stat.rsplit_once(") ")
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default()
}

/// Peak resident set (`VmHWM`) of one process in kB.
pub fn peak_rss_kb(pid: &str) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|s| status_field_kb(&s, "VmHWM"))
        .unwrap_or(0)
}

/// Pids of this process's live children (the `--connect` TCP workers).
pub fn child_pids() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<String> = dir
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .map(|s| stat_fields(&s).get(1) == Some(&me.as_str()))
                .unwrap_or(false)
        })
        .collect();
    out.sort();
    out
}

/// `VmHWM` of this process plus that of its live children, in MB.
pub fn peak_rss_mb_with_children() -> f64 {
    let kb: u64 = peak_rss_kb("self") + child_pids().iter().map(|p| peak_rss_kb(p)).sum::<u64>();
    kb as f64 / 1024.0
}

/// CPU seconds consumed by one task: `schedstat` nanoseconds where the
/// kernel provides them, else `utime + stime` ticks.
fn task_cpu_s(task_dir: &str) -> f64 {
    if let Ok(s) = fs::read_to_string(format!("{task_dir}/schedstat")) {
        if let Some(ns) = s
            .split_whitespace()
            .next()
            .and_then(|n| n.parse::<u64>().ok())
        {
            return ns as f64 / 1e9;
        }
    }
    fs::read_to_string(format!("{task_dir}/stat"))
        .map(|s| {
            let f = stat_fields(&s);
            let ticks = |i: usize| f.get(i).and_then(|n| n.parse::<u64>().ok()).unwrap_or(0);
            (ticks(11) + ticks(12)) as f64 / USER_HZ
        })
        .unwrap_or(0.0)
}

/// One thread of this process, as sampled.
pub struct ThreadSample {
    pub name: String,
    pub cpu_s: f64,
    pub voluntary_switches: u64,
}

/// Every live thread of this process with its CPU time and voluntary
/// context switches (a thread blocks voluntarily on a channel, a socket or
/// a lock — the syscall/hand-off proxy).
pub fn threads() -> Vec<ThreadSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .map(|tid| {
            let base = format!("/proc/self/task/{tid}");
            let name = fs::read_to_string(format!("{base}/comm"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default();
            let voluntary_switches = fs::read_to_string(format!("{base}/status"))
                .map(|s| status_field_kb(&s, "voluntary_ctxt_switches"))
                .unwrap_or(0);
            ThreadSample {
                name,
                cpu_s: task_cpu_s(&base),
                voluntary_switches,
            }
        })
        .collect()
}

/// CPU seconds of each live child process (single-threaded workers, so
/// the leader task is the whole process).
pub fn children_cpu_s() -> f64 {
    child_pids()
        .iter()
        .map(|pid| task_cpu_s(&format!("/proc/{pid}/task/{pid}")))
        .sum()
}

/// A point-in-time reading of where CPU went, by role.
pub struct CpuSample {
    /// The thread that calls into the backend (see `driver_thread`).
    pub driver_s: f64,
    /// In-process `hotdog-worker-*` threads.
    pub worker_threads_s: f64,
    /// Worker subprocesses.
    pub children_s: f64,
    /// Every live thread of this process.
    pub process_s: f64,
    pub voluntary_switches: u64,
}

/// Sample CPU by role; `driver_thread` is the `comm` of the thread that
/// drives the backend (the main thread, or the hub server thread).
pub fn cpu_sample(driver_thread: &str) -> CpuSample {
    let threads = threads();
    let sum = |pred: &dyn Fn(&ThreadSample) -> bool| -> f64 {
        threads.iter().filter(|t| pred(t)).map(|t| t.cpu_s).sum()
    };
    CpuSample {
        driver_s: sum(&|t| t.name == driver_thread),
        worker_threads_s: sum(&|t| t.name.starts_with("hotdog-worker-")),
        children_s: children_cpu_s(),
        process_s: sum(&|_| true),
        voluntary_switches: threads.iter().map(|t| t.voluntary_switches).sum(),
    }
}

/// `comm` of the calling thread (what `cpu_sample` matches against).
pub fn current_thread_name() -> String {
    fs::read_to_string("/proc/thread-self/comm")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_layouts() {
        let status = "Name:\tx\nVmHWM:\t    1680 kB\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field_kb(status, "VmHWM"), 1680);
        assert_eq!(status_field_kb(status, "voluntary_ctxt_switches"), 42);
        assert_eq!(status_field_kb(status, "VmRSS"), 0);
        let stat = "21036 (a b) c) R 21029 21036 0 0 -1 0 0 0 0 0 7 5 0";
        let f = stat_fields(stat);
        assert_eq!(f[0], "R");
        assert_eq!(f[1], "21029");
        assert_eq!((f[11], f[12]), ("7", "5"));
    }

    #[test]
    fn this_process_has_memory_a_thread_and_no_children() {
        assert!(peak_rss_kb("self") > 0);
        assert!(!threads().is_empty());
        assert!(!current_thread_name().is_empty());
        assert!(peak_rss_mb_with_children() > 0.0);
    }
}
