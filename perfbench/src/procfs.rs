//! Process and per-thread resource use, read from `/proc/self` from
//! outside the program under test: CPU time, run-queue wait and context
//! switches per thread (grouped into the runtime's thread roles by name),
//! thread count, and peak resident memory.

use std::collections::HashMap;
use std::fs;

/// Kernel clock ticks per second for `utime`/`stime` (fixed by the Linux
/// ABI as `USER_HZ`).
const TICKS_PER_SEC: u64 = 100;

/// What a thread does, from the name the runtime gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// `reactor-<node>`: one per node, runs the protocol state machine.
    Reactor,
    /// `w-<src>-<dst>`: one per connection, writes frames.
    Writer,
    /// `r-<node>`: one per inbound connection, reads frames.
    Reader,
    /// Everything else: the benchmark's main thread, acceptors, the ops
    /// plane.
    Other,
}

impl Role {
    /// Classifies a thread by its `comm`. The kernel truncates names to
    /// 15 bytes, which keeps every role prefix intact.
    pub fn of(comm: &str) -> Role {
        if comm.starts_with("reactor-") {
            Role::Reactor
        } else if comm.starts_with("w-") {
            Role::Writer
        } else if comm.starts_with("r-") {
            Role::Reader
        } else {
            Role::Other
        }
    }
}

/// One thread's counters at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Thread id.
    pub tid: u32,
    /// Thread name (at most 15 bytes).
    pub comm: String,
    /// CPU time on the processor, ns.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a processor, ns (0 when the
    /// kernel keeps no scheduler statistics).
    pub wait_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Parses a `/proc/<pid>/task/<tid>/stat` line into `(comm, utime +
/// stime ticks)`. The name sits in parentheses and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After ")": state(3) ppid(4) ... utime(14) stime(15).
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Parses `schedstat`: `(on-cpu ns, run-queue wait ns)`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
}

/// Reads one `Key:  value` field of a `status` file as a number.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Every live thread of this process. Threads that exit while being read
/// are skipped.
pub fn tasks() -> Vec<Task> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ent in dir.flatten() {
        let Some(tid) = ent.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = ent.path();
        let Some((comm, ticks)) = fs::read_to_string(base.join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        else {
            continue;
        };
        let (cpu_ns, wait_ns) = fs::read_to_string(base.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
            .unwrap_or((ticks * 1_000_000_000 / TICKS_PER_SEC, 0));
        let status = fs::read_to_string(base.join("status")).unwrap_or_default();
        let ctx_switches = status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        out.push(Task {
            tid,
            comm,
            cpu_ns,
            wait_ns,
            ctx_switches,
        });
    }
    out
}

/// User plus system CPU of the whole process, ns, including threads that
/// have already exited.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map(|(_, ticks)| ticks * 1_000_000_000 / TICKS_PER_SEC)
        .unwrap_or(0)
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`: `(all,
/// steal)`. Steal is time the hypervisor ran someone else while this
/// machine's processors had work; it shows when a neighbour slows a run.
pub fn parse_cpu_ticks(text: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let all = fields.iter().take(8).sum();
    Some((all, *fields.get(7)?))
}

/// [`parse_cpu_ticks`] of this machine now.
pub fn cpu_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .unwrap_or((0, 0))
}

/// A field of `/proc/self/status` (`Threads`, `VmHWM` in kB, ...).
pub fn self_status(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, key))
        .unwrap_or(0)
}

/// Per-role resource use over a window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoleUse {
    /// CPU ns per role.
    pub cpu_ns: HashMap<Role, u64>,
    /// Run-queue wait ns, all threads seen at the window's end.
    pub wait_ns: u64,
    /// Context switches, all threads seen at the window's end.
    pub ctx_switches: u64,
}

impl RoleUse {
    /// CPU of one role, ns.
    pub fn cpu(&self, r: Role) -> u64 {
        self.cpu_ns.get(&r).copied().unwrap_or(0)
    }
}

/// Attributes the CPU used between two task snapshots to thread roles. A
/// thread present only at the end started inside the window, so all of
/// its time counts; a thread present only at the start exited inside it,
/// and its in-window time is visible only in the process total. A reused
/// thread id (different name, or counters that went backwards) counts as
/// a new thread.
pub fn role_use(before: &[Task], after: &[Task]) -> RoleUse {
    let base: HashMap<u32, &Task> = before.iter().map(|t| (t.tid, t)).collect();
    let mut out = RoleUse::default();
    for t in after {
        let prev = base
            .get(&t.tid)
            .filter(|p| p.comm == t.comm && p.cpu_ns <= t.cpu_ns);
        let (cpu, wait, ctx) = match prev {
            Some(p) => (
                t.cpu_ns - p.cpu_ns,
                t.wait_ns.saturating_sub(p.wait_ns),
                t.ctx_switches.saturating_sub(p.ctx_switches),
            ),
            None => (t.cpu_ns, t.wait_ns, t.ctx_switches),
        };
        *out.cpu_ns.entry(Role::of(&t.comm)).or_default() += cpu;
        out.wait_ns += wait;
        out.ctx_switches += ctx;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(tid: u32, comm: &str, cpu_ns: u64) -> Task {
        Task {
            tid,
            comm: comm.into(),
            cpu_ns,
            wait_ns: cpu_ns / 10,
            ctx_switches: cpu_ns / 1000,
        }
    }

    #[test]
    fn stat_line_with_awkward_name() {
        let line = "4242 (w-N0,1 (x)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        let (comm, ticks) = parse_stat(line).unwrap();
        assert_eq!(comm, "w-N0,1 (x)");
        assert_eq!(ticks, 300);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn roles_survive_fifteen_byte_truncation() {
        // "reactor-N10,3" fits; longer names are cut at 15 bytes.
        assert_eq!(Role::of("reactor-N10,3"), Role::Reactor);
        assert_eq!(Role::of(&"reactor-N123,456"[..15]), Role::Reactor);
        assert_eq!(Role::of(&"w-N12,3-N14,2xx"[..15]), Role::Writer);
        assert_eq!(Role::of("r-N2,3"), Role::Reader);
        assert_eq!(Role::of("acc-N0,1"), Role::Other);
        assert_eq!(Role::of("massbft-perfben"), Role::Other);
    }

    #[test]
    fn role_use_handles_exits_starts_and_tid_reuse() {
        let before = vec![
            task(1, "massbft-perfben", 1_000),
            task(2, "reactor-N0,0", 5_000),
            task(3, "w-N0,0-N1,0", 2_000),
            task(4, "r-N1,0", 700), // exits mid-window
            task(5, "reactor-N0,1", 9_000),
        ];
        let after = vec![
            task(1, "massbft-perfben", 1_500),
            task(2, "reactor-N0,0", 8_000),
            task(3, "w-N0,0-N1,0", 2_600),
            task(5, "r-N0,1", 400), // tid 5 reused by a new reader
            task(6, "r-N2,2", 900), // started mid-window
        ];
        let u = role_use(&before, &after);
        assert_eq!(u.cpu(Role::Reactor), 3_000);
        assert_eq!(u.cpu(Role::Writer), 600);
        assert_eq!(u.cpu(Role::Reader), 1_300);
        assert_eq!(u.cpu(Role::Other), 500);
        assert_eq!(u.wait_ns, 540);
    }

    #[test]
    fn status_fields() {
        let text = "Name:\tx\nThreads:\t145\nVmHWM:\t  471234 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(text, "Threads"), Some(145));
        assert_eq!(status_field(text, "VmHWM"), Some(471_234));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), None);
    }

    #[test]
    fn machine_ticks_include_steal() {
        let text = "cpu  704497 0 106532 436864 312 0 12588 43732 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(
            parse_cpu_ticks(text),
            Some((704497 + 106532 + 436864 + 312 + 12588 + 43732, 43732))
        );
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3"), None);
    }

    #[test]
    fn live_process_is_readable() {
        assert!(self_status("Threads") >= 1);
        assert!(self_status("VmHWM") > 0);
        assert!(tasks().iter().any(|t| t.cpu_ns > 0));
    }
}
