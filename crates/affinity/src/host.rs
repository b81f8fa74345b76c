//! Best-effort affinity control on the real host.
//!
//! The simulated machine carries all reproduced experiments, but the tool
//! binaries can also pin the *actual* process when run on a Linux host —
//! the same `sched_setaffinity`/`sched_getaffinity` calls the real
//! `likwid-pin` wrapper issues. Everything here degrades gracefully: on
//! unsupported platforms or when the syscall fails, the functions report
//! the failure instead of panicking, and nothing in the test suite depends
//! on them succeeding.

use crate::cpuset::CpuSet;

/// Bind the calling thread to the given set of host CPUs. Returns `false`
/// if the platform does not support it or the syscall failed.
pub fn set_current_thread_affinity(cpus: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpus.is_empty() {
            return false;
        }
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_ZERO(&mut set);
            for cpu in cpus.iter() {
                if cpu < libc::CPU_SETSIZE as usize {
                    libc::CPU_SET(cpu, &mut set);
                }
            }
            libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// The set of host CPUs the calling thread is currently allowed to run on.
pub fn get_current_thread_affinity() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) != 0 {
                return None;
            }
            let mut cpus = CpuSet::new();
            for cpu in 0..libc::CPU_SETSIZE as usize {
                if libc::CPU_ISSET(cpu, &set) {
                    cpus.insert(cpu);
                }
            }
            Some(cpus)
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_affinity_reports_a_nonempty_mask_on_linux() {
        if let Some(set) = get_current_thread_affinity() {
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn set_affinity_to_current_mask_round_trips() {
        // Re-applying the current mask must succeed on Linux and be a no-op
        // everywhere else.
        if let Some(current) = get_current_thread_affinity() {
            assert!(set_current_thread_affinity(&current));
            assert_eq!(get_current_thread_affinity(), Some(current));
        }
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(!set_current_thread_affinity(&CpuSet::new()));
    }
}
