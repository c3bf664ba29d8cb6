//! Process CPU time and peak memory from Linux `/proc`.

use std::io;

/// CPU time a process has used so far, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user: f64,
    pub system: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user + self.system
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes { user: self.user - earlier.user, system: self.system - earlier.system }
    }
}

/// `utime` and `stime` of `/proc/<pid>/stat` (`"self"` for this process),
/// converted with `ticks_per_sec` (the system's `CLK_TCK`).
pub fn cpu_times(pid: &str, ticks_per_sec: f64) -> io::Result<CpuTimes> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&stat, ticks_per_sec)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc stat line"))
}

fn parse_stat(stat: &str, ticks_per_sec: f64) -> Option<CpuTimes> {
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')'. utime and stime are fields 14 and 15 of the
    // line, so 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let user: f64 = fields.next()?.parse().ok()?;
    let system: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes { user: user / ticks_per_sec, system: system / ticks_per_sec })
}

/// Peak resident set size (`VmHWM`) of `/proc/<pid>/status`, in MiB.
pub fn peak_rss_mib(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
}

/// Returns the heap's free pages to the kernel, then restarts the
/// process's `VmHWM` from its current resident size, so a later reading
/// covers what ran after this call rather than what set-up freed.
pub fn reset_peak_rss() -> io::Result<()> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // takes no pointers and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_follow_the_last_parenthesis() {
        let line = "4242 (a (b) c) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 75 0 0 20 0 9 0";
        assert_eq!(parse_stat(line, 100.0), Some(CpuTimes { user: 2.5, system: 0.75 }));
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_times("self", 100.0).unwrap().total() >= 0.0);
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }
}
