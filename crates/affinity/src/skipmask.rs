//! Skip masks and threading-model personalities.
//!
//! The wrapper library must know which newly created threads are *not*
//! application worker threads. The Intel OpenMP runtime creates
//! `OMP_NUM_THREADS` threads in addition to the initial master thread and
//! uses the first created thread as a management ("shepherd") thread that
//! must not be pinned; gcc's libgomp creates `OMP_NUM_THREADS - 1` workers
//! and has no shepherd. Hybrid MPI + OpenMP binaries add MPI shepherd
//! threads on top (skip mask `0x3` for Intel MPI + Intel OpenMP). The skip
//! mask is a bit pattern over the *creation order* of threads: bit *i* set
//! means the *i*-th created thread is skipped.

/// A skip mask over thread-creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SkipMask(pub u64);

impl SkipMask {
    /// No threads are skipped.
    pub const NONE: SkipMask = SkipMask(0);

    /// Whether the `creation_index`-th created thread (0-based) should be
    /// skipped (not pinned, not consuming a pin-list entry).
    pub fn skips(self, creation_index: usize) -> bool {
        creation_index < 64 && (self.0 >> creation_index) & 1 == 1
    }

    /// Parse a mask written as hex (`0x3`), or decimal.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok().map(SkipMask)
        } else {
            s.parse().ok().map(SkipMask)
        }
    }
}

impl std::fmt::Display for SkipMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The threading model of the target binary (`likwid-pin -t …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadingModel {
    /// Raw POSIX threads: every created thread is a worker.
    Posix,
    /// Intel OpenMP (icc): the first created thread is a shepherd.
    IntelOpenMp,
    /// GNU OpenMP (gcc libgomp): no shepherd thread; this is the default
    /// when no `-t` switch is given.
    GccOpenMp,
    /// Intel MPI + Intel OpenMP hybrid: the first two created threads are
    /// shepherds (MPI progress thread + OpenMP management thread).
    IntelMpiIntelOpenMp,
}

impl ThreadingModel {
    /// The default skip mask for this model (the value `likwid-pin` sets when
    /// only `-t` is given).
    pub fn default_skip_mask(self) -> SkipMask {
        match self {
            ThreadingModel::Posix | ThreadingModel::GccOpenMp => SkipMask::NONE,
            ThreadingModel::IntelOpenMp => SkipMask(0x1),
            ThreadingModel::IntelMpiIntelOpenMp => SkipMask(0x3),
        }
    }

    /// How many threads the runtime creates (via `pthread_create`) for a
    /// parallel region with `omp_num_threads` application threads. The
    /// master thread is the initial process thread and is not created.
    pub fn created_threads(self, omp_num_threads: usize) -> usize {
        match self {
            // Intel OpenMP always creates OMP_NUM_THREADS new threads and
            // uses the first as a shepherd.
            ThreadingModel::IntelOpenMp => omp_num_threads,
            ThreadingModel::IntelMpiIntelOpenMp => omp_num_threads + 1,
            // gcc creates OMP_NUM_THREADS - 1 workers; POSIX code is assumed
            // to create one thread per worker besides the master.
            ThreadingModel::GccOpenMp => omp_num_threads.saturating_sub(1),
            ThreadingModel::Posix => omp_num_threads.saturating_sub(1),
        }
    }

    /// The `-t` command-line name.
    pub fn cli_name(self) -> &'static str {
        match self {
            ThreadingModel::Posix => "posix",
            ThreadingModel::IntelOpenMp => "intel",
            ThreadingModel::GccOpenMp => "gnu",
            ThreadingModel::IntelMpiIntelOpenMp => "intel-mpi",
        }
    }

    /// Parse a `-t` argument.
    pub fn from_cli_name(name: &str) -> Option<Self> {
        match name {
            "posix" => Some(ThreadingModel::Posix),
            "intel" => Some(ThreadingModel::IntelOpenMp),
            "gnu" | "gcc" => Some(ThreadingModel::GccOpenMp),
            "intel-mpi" => Some(ThreadingModel::IntelMpiIntelOpenMp),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_mask_skips_only_the_first_created_thread() {
        let m = ThreadingModel::IntelOpenMp.default_skip_mask();
        assert!(m.skips(0));
        assert!(!m.skips(1));
        assert!(!m.skips(5));
    }

    #[test]
    fn hybrid_mask_skips_the_first_two() {
        let m = ThreadingModel::IntelMpiIntelOpenMp.default_skip_mask();
        assert_eq!(m, SkipMask(0x3));
        assert!(m.skips(0));
        assert!(m.skips(1));
        assert!(!m.skips(2));
    }

    #[test]
    fn gcc_and_posix_skip_nothing() {
        assert_eq!(ThreadingModel::GccOpenMp.default_skip_mask(), SkipMask::NONE);
        assert_eq!(ThreadingModel::Posix.default_skip_mask(), SkipMask::NONE);
    }

    #[test]
    fn parse_hex_and_decimal() {
        assert_eq!(SkipMask::parse("0x3"), Some(SkipMask(3)));
        assert_eq!(SkipMask::parse("0X1"), Some(SkipMask(1)));
        assert_eq!(SkipMask::parse("5"), Some(SkipMask(5)));
        assert_eq!(SkipMask::parse("zz"), None);
        assert_eq!(SkipMask(3).to_string(), "0x3");
    }

    #[test]
    fn created_thread_counts_per_runtime() {
        // The paper: "the Intel OpenMP implementation always runs
        // OMP_NUM_THREADS+1 threads" (master + created), "gcc OpenMP only
        // creates OMP_NUM_THREADS-1 additional threads".
        assert_eq!(ThreadingModel::IntelOpenMp.created_threads(4), 4);
        assert_eq!(ThreadingModel::GccOpenMp.created_threads(4), 3);
        assert_eq!(ThreadingModel::IntelMpiIntelOpenMp.created_threads(8), 9);
    }

    #[test]
    fn cli_names_round_trip() {
        for m in [
            ThreadingModel::Posix,
            ThreadingModel::IntelOpenMp,
            ThreadingModel::GccOpenMp,
            ThreadingModel::IntelMpiIntelOpenMp,
        ] {
            assert_eq!(ThreadingModel::from_cli_name(m.cli_name()), Some(m));
        }
        assert_eq!(ThreadingModel::from_cli_name("pgi"), None);
    }

    #[test]
    fn out_of_range_creation_indices_are_not_skipped() {
        assert!(!SkipMask(u64::MAX).skips(64));
        assert!(!SkipMask(u64::MAX).skips(1000));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for mask in [0u64, 1, 3, 0x5, 0xFF, u64::MAX] {
            let rendered = SkipMask(mask).to_string();
            assert_eq!(SkipMask::parse(&rendered), Some(SkipMask(mask)), "mask {rendered}");
        }
    }

    #[test]
    fn malformed_masks_are_rejected() {
        for s in ["0x", "0xZZ", "-1", "1.5", "", "  ", "0b11"] {
            assert_eq!(SkipMask::parse(s), None, "'{s}' must be rejected");
        }
        // Whitespace around a valid mask is tolerated.
        assert_eq!(SkipMask::parse(" 0x3 "), Some(SkipMask(3)));
    }

    #[test]
    fn skipped_among_counts_only_below_the_prefix() {
        let m = SkipMask(0b1011);
        let skipped_among = |n: usize| (0..n).filter(|&i| m.skips(i)).count();
        assert_eq!(skipped_among(0), 0);
        assert_eq!(skipped_among(1), 1);
        assert_eq!(skipped_among(2), 2);
        assert_eq!(skipped_among(4), 3);
        assert_eq!(skipped_among(100), 3, "creation indices past 64 are never skipped");
    }
}
