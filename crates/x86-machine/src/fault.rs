//! Deterministic, seedable fault injection for the MSR substrate.
//!
//! Real `likwid-perfctr` sessions contend with a hostile register file:
//! `pread`/`pwrite` on `/dev/cpu/<N>/msr` can fail transiently with `EIO`,
//! other tools leave PERFEVTSEL and counter state dirty, a register can be
//! stuck (writes silently lost), and a CPU can drop out of the measurable
//! set mid-run (offlining, device-node churn). A [`FaultPlan`] describes
//! such a scenario; attached to the machine's MSR space it perturbs every
//! *device-mediated* access (the tool side), while the machine-internal
//! [`crate::msr::MsrFile`] path — the counting engine and the clock, i.e.
//! the hardware itself — is never affected.
//!
//! All decisions are pure functions of the plan's seed and the access
//! history, so a fault scenario replays bit-identically: the equivalence
//! suite relies on a retried session under a transient-only plan producing
//! exactly the counts of a fault-free run.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::error::{MachineError, Result};

/// Upper bound on `max_consecutive` of a [`TransientSpec`]: a transient
/// fault channel never fails the same register more than this many times in
/// a row, so any retry loop with more attempts is guaranteed to make
/// progress. Session layers retry `MAX_CONSECUTIVE_LIMIT + 2` times or more.
pub const MAX_CONSECUTIVE_LIMIT: u32 = 6;

/// One transient fault channel (reads or writes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Per-access failure probability in `[0, 1)`.
    pub probability: f64,
    /// Bound on consecutive failures of one `(cpu, register)` pair; after
    /// this many faults in a row the next access is forced to succeed.
    /// Clamped to [`MAX_CONSECUTIVE_LIMIT`].
    pub max_consecutive: u32,
}

/// A deterministic fault scenario for the MSR device interface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of every pseudo-random decision the plan makes.
    pub seed: u64,
    /// Transient `rdmsr` failures (EIO-style, succeed on retry).
    pub read: Option<TransientSpec>,
    /// Transient `wrmsr` failures.
    pub write: Option<TransientSpec>,
    /// Scribble deterministic garbage into all performance-counter
    /// registers at attach time (counters left dirty by a previous tool).
    pub dirty: bool,
    /// `(cpu, register)` pairs whose device writes are silently dropped —
    /// the register keeps its old value, which only verify-after-write
    /// programming can detect.
    pub stuck: Vec<(usize, u32)>,
    /// `(cpu, access_budget)` pairs: after `access_budget` device accesses
    /// the cpu becomes permanently unreadable and unwritable.
    pub dead: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with only a seed set (no faults).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Whether the plan can only produce transient faults, i.e. a session
    /// with bounded retry is guaranteed to read the same values as on a
    /// fault-free machine. `dirty` is included: dirty state is fully healed
    /// by programming the counters.
    pub fn is_transient_only(&self) -> bool {
        self.stuck.is_empty() && self.dead.is_empty()
    }

    /// Parse an `--inject` specification: comma-separated items
    ///
    /// * `seed=N` — decision seed (default 1)
    /// * `read=P[xK]` — transient read faults with probability `P`, at most
    ///   `K` consecutive per register (default 2, clamped to 6)
    /// * `write=P[xK]` — transient write faults
    /// * `dirty` — counters and event selects hold garbage at attach
    /// * `stuck=ADDR@CPU` — writes to `ADDR` (hex or decimal) on `CPU` are
    ///   silently dropped; may be given repeatedly
    /// * `dead=CPU@N` — `CPU` becomes unreadable after `N` device accesses
    ///
    /// Example: `seed=7,read=0.3x4,write=0.2,dirty,dead=1@200`.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut plan = FaultPlan::seeded(1);
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match item.split_once('=') {
                None if item == "dirty" => plan.dirty = true,
                None => return Err(format!("unknown fault item '{item}'")),
                Some(("seed", v)) => {
                    plan.seed = v.parse().map_err(|_| format!("bad seed '{v}' in fault spec"))?;
                }
                Some(("read", v)) => plan.read = Some(parse_transient(v)?),
                Some(("write", v)) => plan.write = Some(parse_transient(v)?),
                Some(("stuck", v)) => {
                    let (addr, cpu) = v
                        .split_once('@')
                        .ok_or_else(|| format!("stuck item '{v}' must be ADDR@CPU"))?;
                    let address = parse_address(addr)?;
                    let cpu = cpu.parse().map_err(|_| format!("bad cpu '{cpu}' in stuck item"))?;
                    plan.stuck.push((cpu, address));
                }
                Some(("dead", v)) => {
                    let (cpu, budget) = v
                        .split_once('@')
                        .ok_or_else(|| format!("dead item '{v}' must be CPU@ACCESSES"))?;
                    let cpu = cpu.parse().map_err(|_| format!("bad cpu '{cpu}' in dead item"))?;
                    let budget = budget
                        .parse()
                        .map_err(|_| format!("bad access budget '{budget}' in dead item"))?;
                    plan.dead.push((cpu, budget));
                }
                Some((key, _)) => return Err(format!("unknown fault item '{key}'")),
            }
        }
        Ok(plan)
    }
}

fn parse_transient(text: &str) -> std::result::Result<TransientSpec, String> {
    let (prob, streak) = match text.split_once('x') {
        Some((p, k)) => {
            (p, k.parse().map_err(|_| format!("bad repeat bound '{k}' in fault spec"))?)
        }
        None => (text, 2),
    };
    let probability: f64 =
        prob.parse().map_err(|_| format!("bad probability '{prob}' in fault spec"))?;
    if !(0.0..1.0).contains(&probability) {
        return Err(format!("fault probability {probability} must be in [0, 1)"));
    }
    Ok(TransientSpec { probability, max_consecutive: streak.clamp(1, MAX_CONSECUTIVE_LIMIT) })
}

fn parse_address(text: &str) -> std::result::Result<u32, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad register address '{text}' in fault spec"))
}

/// SplitMix64 finalizer: the one-way mixing step behind every decision.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic per-access coin: a uniform value in `[0, 1)` derived from
/// the seed and the access coordinates.
fn coin(seed: u64, cpu: usize, address: u32, write: bool, serial: u64) -> f64 {
    let mut h = mix(seed);
    h = mix(h ^ cpu as u64);
    h = mix(h ^ address as u64);
    h = mix(h ^ write as u64);
    h = mix(h ^ serial);
    // 53 high bits → an exactly representable double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic garbage value for dirty register state.
pub(crate) fn dirty_value(seed: u64, address: u32, instance: usize) -> u64 {
    mix(mix(seed ^ 0xD1B7) ^ ((address as u64) << 20) ^ instance as u64)
}

#[derive(Debug, Default)]
struct Streak {
    serial: u64,
    consecutive: u32,
}

#[derive(Debug, Default)]
struct FaultCounters {
    transient: HashMap<(usize, u32, bool), Streak>,
    accesses: HashMap<usize, u64>,
}

/// A fault plan plus the mutable access history it needs at runtime.
/// Interior mutability (a mutex over plain counters) lets the read path of
/// [`crate::msr::MsrSpace`] stay `&self`.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    counters: Mutex<FaultCounters>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState { plan, counters: Mutex::new(FaultCounters::default()) }
    }

    /// Whether device writes to `(cpu, address)` are silently dropped.
    pub(crate) fn is_stuck(&self, cpu: usize, address: u32) -> bool {
        self.plan.stuck.contains(&(cpu, address))
    }

    /// Account one device access and decide whether it faults.
    pub(crate) fn check(&self, cpu: usize, address: u32, write: bool) -> Result<()> {
        let mut counters = self.counters.lock().expect("fault counters poisoned");
        let accesses = counters.accesses.entry(cpu).or_insert(0);
        *accesses += 1;
        if let Some(&(_, budget)) = self.plan.dead.iter().find(|(c, _)| *c == cpu) {
            if *accesses > budget {
                return Err(MachineError::MsrIo { cpu, address, write });
            }
        }
        let spec = if write { self.plan.write } else { self.plan.read };
        if let Some(spec) = spec {
            let streak = counters.transient.entry((cpu, address, write)).or_default();
            streak.serial += 1;
            if streak.consecutive >= spec.max_consecutive.min(MAX_CONSECUTIVE_LIMIT) {
                streak.consecutive = 0;
            } else if coin(self.plan.seed, cpu, address, write, streak.serial) < spec.probability {
                streak.consecutive += 1;
                return Err(MachineError::MsrIo { cpu, address, write });
            } else {
                streak.consecutive = 0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let plan =
            FaultPlan::parse("seed=7,read=0.3x4,write=0.2,dirty,stuck=0x186@0,dead=1@200").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.read, Some(TransientSpec { probability: 0.3, max_consecutive: 4 }));
        assert_eq!(plan.write, Some(TransientSpec { probability: 0.2, max_consecutive: 2 }));
        assert!(plan.dirty);
        assert_eq!(plan.stuck, vec![(0, 0x186)]);
        assert_eq!(plan.dead, vec![(1, 200)]);
        assert!(!plan.is_transient_only());
        assert!(FaultPlan::parse("read=0.5").unwrap().is_transient_only());
    }

    #[test]
    fn parse_rejects_malformed_items() {
        for bad in [
            "bogus",
            "read=2.0",
            "read=-0.1",
            "read=1.0",
            "read=0.5xzz",
            "seed=pi",
            "stuck=0x186",
            "stuck=zz@0",
            "dead=1",
            "dead=x@5",
            "wibble=3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn repeat_bounds_are_clamped() {
        let plan = FaultPlan::parse("read=0.9x40").unwrap();
        assert_eq!(plan.read.unwrap().max_consecutive, MAX_CONSECUTIVE_LIMIT);
        let plan = FaultPlan::parse("read=0.9x0").unwrap();
        assert_eq!(plan.read.unwrap().max_consecutive, 1);
    }

    #[test]
    fn transient_streaks_are_bounded() {
        // Even at probability 0.999 the streak bound forces a success within
        // max_consecutive + 1 attempts on the same register.
        let plan = FaultPlan {
            seed: 42,
            read: Some(TransientSpec { probability: 0.999, max_consecutive: 3 }),
            ..FaultPlan::default()
        };
        let state = FaultState::new(plan);
        let mut longest = 0u32;
        let mut current = 0u32;
        for _ in 0..1000 {
            if state.check(0, 0xC1, false).is_err() {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        assert!(longest <= 3, "streak of {longest} exceeds the bound");
        assert!(longest > 0, "probability 0.999 must fault at least once");
    }

    #[test]
    fn decisions_replay_identically_for_one_seed() {
        let plan = FaultPlan {
            seed: 9,
            read: Some(TransientSpec { probability: 0.4, max_consecutive: 2 }),
            ..FaultPlan::default()
        };
        let run = |plan: FaultPlan| {
            let state = FaultState::new(plan);
            (0..200).map(|i| state.check(i % 4, 0x186, false).is_err()).collect::<Vec<_>>()
        };
        assert_eq!(run(plan.clone()), run(plan.clone()));
        let other = FaultPlan { seed: 10, ..plan.clone() };
        assert_ne!(run(other), run(plan), "different seeds differ");
    }

    #[test]
    fn dead_cpu_fails_only_after_its_access_budget() {
        let plan = FaultPlan { dead: vec![(2, 5)], ..FaultPlan::default() };
        let state = FaultState::new(plan);
        for _ in 0..5 {
            assert!(state.check(2, 0xC1, false).is_ok());
        }
        assert!(matches!(state.check(2, 0xC1, false), Err(MachineError::MsrIo { cpu: 2, .. })));
        // Other cpus keep their own budgets.
        assert!(state.check(0, 0xC1, false).is_ok());
    }
}
