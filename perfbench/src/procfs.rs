//! Process and per-thread resource readings from `/proc`, plus the host
//! description every result is stamped with.

use std::collections::HashMap;
use std::path::Path;

/// One thread's scheduler counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadStat {
    /// Time on CPU.
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU.
    pub runq_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctxsw: u64,
}

impl ThreadStat {
    pub fn minus(self, before: ThreadStat) -> ThreadStat {
        ThreadStat {
            cpu_ns: self.cpu_ns.saturating_sub(before.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(before.runq_ns),
            ctxsw: self.ctxsw.saturating_sub(before.ctxsw),
        }
    }

    pub fn plus(self, o: ThreadStat) -> ThreadStat {
        ThreadStat {
            cpu_ns: self.cpu_ns + o.cpu_ns,
            runq_ns: self.runq_ns + o.runq_ns,
            ctxsw: self.ctxsw + o.ctxsw,
        }
    }
}

fn read(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn thread_stat(dir: &Path) -> Option<ThreadStat> {
    let sched = read(&dir.join("schedstat"))?;
    let mut f = sched.split_whitespace().map(|v| v.parse::<u64>().ok());
    let cpu_ns = f.next()??;
    let runq_ns = f.next()??;
    let status = read(&dir.join("status"))?;
    let ctxsw = status
        .lines()
        .filter(|l| l.contains("ctxt_switches:"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    Some(ThreadStat {
        cpu_ns,
        runq_ns,
        ctxsw,
    })
}

/// Every live thread of this process: tid → (name, counters).
pub fn threads() -> HashMap<u64, (String, ThreadStat)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = e.path();
        let name = read(&path.join("comm")).unwrap_or_default();
        if let Some(st) = thread_stat(&path) {
            out.insert(tid, (name.trim().to_owned(), st));
        }
    }
    out
}

/// CPU time of the whole process, threads that already exited included.
/// `/proc/self/stat` counts in 10 ms ticks; the process clock is exact.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // words on 64-bit Linux) and the clock id is a valid constant; the
    // call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Time the hypervisor ran something else while this machine's vCPUs
/// wanted to run (the `steal` column of `/proc/stat`), summed over all
/// vCPUs, in ns. 0 where the kernel does not report it.
pub fn steal_ns() -> u64 {
    read(Path::new("/proc/stat"))
        .and_then(|s| {
            let cpu = s.lines().next()?.to_owned();
            cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0, |ticks| ticks * 10_000_000)
}

/// A `kB` field of `/proc/self/status`, 0 when missing.
fn status_kib(field: &str) -> u64 {
    read(Path::new("/proc/self/status"))
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of the process (`VmHWM`) since the last
/// [`reset_peak_rss`], in KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}

/// Current resident set size of the process (`VmRSS`), in KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// Resets `VmHWM` to the current resident set size (writing `5` to
/// `/proc/self/clear_refs`), so that a later [`peak_rss_kib`] covers only
/// what ran in between. Where the kernel refuses, the peak keeps covering
/// the whole process lifetime.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = read(Path::new("/proc/self/mountinfo")).unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

/// Host and build facts stamped on every result.
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe(repo_root: &Path) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kernel = read(Path::new("/proc/sys/kernel/osrelease"))
            .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
        let cpu = read(Path::new("/proc/cpuinfo"))
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            );
        Host {
            nproc,
            kernel,
            cpu,
            rustc,
            commit: git_commit(repo_root),
        }
    }

    /// A file-name-safe key identifying the machine a result came from.
    pub fn key(&self) -> String {
        let raw = format!("{}-{}cpu-{}", self.cpu, self.nproc, self.kernel);
        raw.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree that is not a git checkout reports `unknown`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&git.join(r)).map_or_else(
            || {
                read(&git.join("packed-refs"))
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                    })
                    .unwrap_or_else(|| "unknown".to_owned())
            },
            |s| s.trim().to_owned(),
        ),
        None => head.to_owned(),
    }
}
