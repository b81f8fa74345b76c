//! `likwid-pin`: enforcing thread-core affinity from the outside.
//!
//! The tool itself is thin: it parses the pin list (`-c`), determines the
//! skip mask (from `-t` or `-s`), exports both through environment
//! variables, disables competing affinity mechanisms (`KMP_AFFINITY=disabled`
//! for recent Intel compilers), preloads the wrapper library and starts the
//! target. The actual interception logic lives in
//! [`likwid_affinity::PthreadPinner`]; this module turns a command-line
//! configuration into a ready pinner and reports the placement it will
//! produce for a given number of application threads.

use likwid_affinity::{parse_pin_list, PthreadPinner, SkipMask, ThreadingModel};
use likwid_x86_machine::SimMachine;

use crate::error::{LikwidError, Result};
use crate::report::{Body, KvEntry, Report, Row, Section, Table, Value};

/// Configuration of one `likwid-pin` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PinConfig {
    /// The `-c` pin expression.
    pub pin_expression: String,
    /// The `-t` threading model (default: gcc OpenMP, as in the tool).
    pub model: ThreadingModel,
    /// An explicit `-s` skip mask overriding the model's default.
    pub skip_mask_override: Option<SkipMask>,
}

impl PinConfig {
    /// Configuration with the default threading model (gcc OpenMP).
    pub fn new(pin_expression: &str) -> Self {
        PinConfig {
            pin_expression: pin_expression.to_string(),
            model: ThreadingModel::GccOpenMp,
            skip_mask_override: None,
        }
    }

    /// Set the threading model (`-t intel`, …).
    pub fn with_model(mut self, model: ThreadingModel) -> Self {
        self.model = model;
        self
    }

    /// Set an explicit skip mask (`-s 0x3`).
    pub(crate) fn with_skip_mask(mut self, mask: SkipMask) -> Self {
        self.skip_mask_override = Some(mask);
        self
    }

    /// The effective skip mask.
    pub fn skip_mask(&self) -> SkipMask {
        self.skip_mask_override.unwrap_or_else(|| self.model.default_skip_mask())
    }
}

/// Environment the tool would export for the preloaded wrapper library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinEnvironment {
    /// `LIKWID_PIN`: the resolved OS processor ID list.
    pub likwid_pin: String,
    /// `LIKWID_SKIP`: the skip mask.
    pub likwid_skip: String,
    /// `KMP_AFFINITY`: set to `disabled` so the Intel OpenMP runtime's own
    /// affinity mechanism does not interfere (the tool does this
    /// automatically, as described in Section II-C).
    pub kmp_affinity: String,
    /// `LD_PRELOAD`: the wrapper library.
    pub ld_preload: String,
}

/// The `likwid-pin` front end, its pin list resolved against one machine.
pub struct PinTool {
    config: PinConfig,
    resolved_list: Vec<usize>,
}

impl PinTool {
    /// Resolve a configuration against a machine.
    pub fn new(machine: &SimMachine, config: PinConfig) -> Result<Self> {
        let resolved_list = parse_pin_list(&config.pin_expression, machine.topology())?;
        if resolved_list.is_empty() {
            return Err(LikwidError::Pin("empty pin list".into()));
        }
        Ok(PinTool { config, resolved_list })
    }

    /// The resolved OS processor IDs in pinning order.
    pub fn pin_list(&self) -> &[usize] {
        &self.resolved_list
    }

    /// The effective skip mask.
    pub fn skip_mask(&self) -> SkipMask {
        self.config.skip_mask()
    }

    /// The environment the tool exports before exec'ing the target.
    pub fn environment(&self) -> PinEnvironment {
        PinEnvironment {
            likwid_pin: self
                .resolved_list
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
            likwid_skip: self.skip_mask().to_string(),
            kmp_affinity: "disabled".to_string(),
            ld_preload: "liblikwidpin.so".to_string(),
        }
    }

    /// Build the wrapper-library state machine for the target process.
    pub fn pinner(&self) -> PthreadPinner {
        PthreadPinner::new(self.resolved_list.clone(), self.skip_mask())
    }

    /// The placement the application's workers end up with when the target
    /// runs `omp_num_threads` application threads under the configured
    /// threading model: index 0 is the master thread, `None` means the
    /// thread runs unpinned (pin-list overflow).
    ///
    /// Which created threads are actual application workers is a property of
    /// the threading *model* (the Intel runtime's first created thread is a
    /// shepherd no matter what); whether they get pinned is a property of
    /// the configured skip mask. Keeping the two separate is what lets this
    /// function show the damage of a wrong skip mask: the shepherd consumes
    /// a pin-list slot and the real workers shift and overflow.
    pub fn worker_placement(&self, omp_num_threads: usize) -> Vec<Option<usize>> {
        let mut pinner = self.pinner();
        let created = self.config.model.created_threads(omp_num_threads);
        let true_shepherds = self.config.model.default_skip_mask();
        let mut placement = vec![pinner.master_cpu()];
        for i in 0..created {
            let outcome = pinner.on_thread_create();
            if true_shepherds.skips(i) {
                continue;
            }
            placement.push(outcome.cpu());
        }
        placement.truncate(omp_num_threads);
        placement
    }

    /// Build the structured report of the placement the wrapper library will
    /// enforce for `threads` application threads (the `likwid-pin` output).
    pub fn report(&self, threads: usize) -> Report {
        let env = self.environment();
        let mut report = Report::new("likwid-pin");
        report.push(Section::new(
            "environment",
            Body::KeyValues(vec![
                KvEntry::new("Pin list", Value::Str(env.likwid_pin.clone())),
                KvEntry::new("Skip mask", Value::Str(env.likwid_skip.clone())),
                KvEntry::new("KMP_AFFINITY", Value::Str(env.kmp_affinity.clone()))
                    .with_ascii(format!("KMP_AFFINITY={}", env.kmp_affinity)),
                KvEntry::new("LD_PRELOAD", Value::Str(env.ld_preload.clone()))
                    .with_ascii(format!("LD_PRELOAD={}", env.ld_preload)),
            ]),
        ));
        let mut placement = Table::plain(vec!["thread", "hardware_thread"]);
        for (i, cpu) in self.worker_placement(threads).iter().enumerate() {
            placement.push(match cpu {
                Some(c) => Row::new(vec![Value::Count(i as u64), Value::CpuId(*c)])
                    .with_ascii(format!("  thread {i} -> hardware thread {c}")),
                None => Row::new(vec![Value::Count(i as u64), Value::Str("UNPINNED".to_string())])
                    .with_ascii(format!("  thread {i} -> UNPINNED (pin list exhausted)")),
            });
        }
        report.push(
            Section::new("placement", Body::Table(placement))
                .with_heading(format!("Placement for {threads} application threads:")),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::MachinePreset;

    /// Whether a placement keeps every worker on a distinct physical core
    /// (the property "pinned correctly" means for the STREAM experiments).
    fn uses_distinct_cores(machine: &SimMachine, placement: &[Option<usize>]) -> bool {
        let topo = machine.topology();
        let mut cores = Vec::new();
        for cpu in placement.iter().flatten() {
            let Ok(t) = topo.hw_thread(*cpu) else { return false };
            let key = (t.socket, t.core_index);
            if cores.contains(&key) {
                return false;
            }
            cores.push(key);
        }
        placement.iter().all(Option::is_some)
    }

    #[test]
    fn paper_example_intel_pinning() {
        // `likwid-pin -c 0-3 -t intel ./a.out` with OMP_NUM_THREADS=4.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let tool =
            PinTool::new(&machine, PinConfig::new("0-3").with_model(ThreadingModel::IntelOpenMp))
                .unwrap();
        assert_eq!(tool.pin_list(), &[0, 1, 2, 3]);
        assert_eq!(tool.skip_mask(), SkipMask(0x1));
        let placement = tool.worker_placement(4);
        assert_eq!(placement, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert!(uses_distinct_cores(&machine, &placement));
    }

    #[test]
    fn paper_example_hybrid_mpi_skip_mask() {
        // `likwid-pin -c 0-7 -s 0x3 ./a.out` with 8 OpenMP threads per MPI rank.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let tool = PinTool::new(
            &machine,
            PinConfig::new("0-7")
                .with_model(ThreadingModel::IntelOpenMp)
                .with_skip_mask(SkipMask(0x3)),
        )
        .unwrap();
        assert_eq!(tool.skip_mask(), SkipMask(0x3));
        let env = tool.environment();
        assert_eq!(env.likwid_skip, "0x3");
        assert_eq!(env.kmp_affinity, "disabled");
        assert_eq!(env.likwid_pin, "0,1,2,3,4,5,6,7");
        // With Intel MPI + Intel OpenMP, 9 threads are created; the first two
        // are shepherds, so the 8 application threads (master + 7 workers)
        // land on cores 0-7 without any shepherd stealing a slot.
        let mut pinner = tool.pinner();
        let created = ThreadingModel::IntelMpiIntelOpenMp.created_threads(8);
        for _ in 0..created {
            pinner.on_thread_create();
        }
        let placement = pinner.worker_placement();
        assert_eq!(placement.len(), 8, "master + 7 workers");
        assert_eq!(placement[1], Some(1));
        assert_eq!(placement[7], Some(7));
        assert!(placement.iter().all(Option::is_some));
    }

    #[test]
    fn gcc_default_model_needs_no_skip_mask() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let tool = PinTool::new(&machine, PinConfig::new("0,6,1,7")).unwrap();
        assert_eq!(tool.skip_mask(), SkipMask(0x0));
        let placement = tool.worker_placement(4);
        assert_eq!(placement, vec![Some(0), Some(6), Some(1), Some(7)]);
        assert!(uses_distinct_cores(&machine, &placement));
    }

    #[test]
    fn wrong_skip_mask_overflows_and_is_detected() {
        // Pinning an Intel-compiled binary without the skip mask: the
        // shepherd consumes a core and the last worker runs unpinned.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let tool = PinTool::new(
            &machine,
            PinConfig::new("0-3")
                .with_model(ThreadingModel::IntelOpenMp)
                .with_skip_mask(SkipMask(0)),
        )
        .unwrap();
        let placement = tool.worker_placement(4);
        assert_eq!(placement[0], Some(0));
        assert_eq!(
            placement[1],
            Some(2),
            "the shepherd consumed core 1's slot, shifting the first worker to core 2"
        );
        assert_eq!(placement.last().unwrap(), &None, "the last worker overflowed the list");
        assert!(!uses_distinct_cores(&machine, &placement));
    }

    #[test]
    fn socket_scatter_expression_spreads_over_both_sockets() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let tool = PinTool::new(&machine, PinConfig::new("S0:0-2@S1:0-2")).unwrap();
        assert_eq!(tool.pin_list(), &[0, 1, 2, 6, 7, 8]);
        let placement = tool.worker_placement(6);
        assert!(uses_distinct_cores(&machine, &placement));
        let topo = machine.topology();
        let sockets_used: std::collections::HashSet<u32> =
            placement.iter().flatten().map(|&c| topo.hw_thread(c).unwrap().socket).collect();
        assert_eq!(sockets_used.len(), 2);
    }

    #[test]
    fn bad_expressions_are_rejected() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        assert!(PinTool::new(&machine, PinConfig::new("0-99")).is_err());
        assert!(PinTool::new(&machine, PinConfig::new("abc")).is_err());
    }
}
