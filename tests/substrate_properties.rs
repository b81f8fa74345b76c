//! Property-based tests over the substrate crates: invariants that must
//! hold for arbitrary inputs, not just the machines of the paper.

use std::collections::HashMap;

use proptest::prelude::*;

use likwid_suite::affinity::{parse_pin_list, PthreadPinner, SkipMask};
use likwid_suite::cache_sim::{
    Access, AccessKind, CacheLevelConfig, FlatReplacement, HierarchyConfig, NodeCacheSystem,
    NumaPolicy, PrefetchConfig, ReplacementPolicy, WritePolicy,
};
use likwid_suite::daemon::jsonv::JsonValue;
use likwid_suite::daemon::{Frame, IntervalFrame, OpenRequest};
use likwid_suite::fleet::trajectory::TrajectoryPoint;
use likwid_suite::fleet::Trajectory;
use likwid_suite::likwid::perfctr::Formula;
use likwid_suite::likwid::topology::CpuTopology;
use likwid_suite::likwid::LikwidError;
use likwid_suite::x86_machine::fault::FaultPlan;
use likwid_suite::x86_machine::{MachinePreset, SimMachine};

/// Identifiers and numbers the structured formula generator draws from.
const OPERANDS: [&str; 10] =
    ["A", "B", "C", "time", "inverseClock", "0", "2", "0.5", "1.0E-06", "64.0"];

/// Names the random bindings draw from (`D` is not an operand).
const NAMES: [&str; 6] = ["A", "B", "C", "D", "time", "inverseClock"];

/// Item prefixes and values of structured `--inject` specs, hostile ones
/// included.
const FAULT_KEYS: [&str; 8] = ["seed=", "read=", "write=", "stuck=", "dead=", "dirty", "", "x="];
const FAULT_VALUES: [&str; 14] = [
    "",
    "7",
    "0.3x4",
    "0.2",
    "1.5",
    "NaN",
    "-0.1x99",
    "0.5x",
    "0x3B0@1",
    "0XFFFFFFFFFF@0",
    "1@200",
    "@",
    "18446744073709551616",
    "\u{1F600}",
];

/// JSON fragments the hostile-input generators splice together: structure,
/// escapes (lone surrogates included), numbers, literals, frame vocabulary
/// and non-ASCII text.
const JSON_FRAGMENTS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "d83d",
    "\\ude00",
    "-",
    "1e308",
    "18446744073709551616",
    "0.5",
    "true",
    "null",
    "\"frame\"",
    "\"interval\"",
    "\"points\"",
    "\"bench\":\"fleet\"",
    " ",
    "\u{e9}",
    "\u{1F600}",
];

/// A valid document with `cut` bytes starting at `at` replaced by
/// `splice`; the document is ASCII, so every byte offset is a char
/// boundary.
fn mutate(doc: &str, at: usize, cut: usize, splice: &str) -> String {
    assert!(doc.is_ascii());
    let at = at % (doc.len() + 1);
    let end = (at + cut).min(doc.len());
    format!("{}{splice}{}", &doc[..at], &doc[end..])
}

/// The age-stamp replacement model — a per-way stamp of the last touch
/// and a per-set tick — as the reference that `FlatReplacement`'s recency
/// lists must match victim for victim.
struct StampModel {
    lru: bool,
    ways: usize,
    stamps: Vec<u64>,
    ticks: Vec<u64>,
}

impl StampModel {
    fn new(lru: bool, sets: usize, ways: usize) -> Self {
        StampModel { lru, ways, stamps: vec![0; sets * ways], ticks: vec![0; sets] }
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.ticks[set] += 1;
        self.stamps[set * self.ways + way] = self.ticks[set];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        if self.lru {
            self.on_fill(set, way);
        }
    }

    /// Oldest stamp, ties (never-touched ways) broken toward way 0.
    fn oldest_way(&self, set: usize) -> usize {
        let stamps = &self.stamps[set * self.ways..(set + 1) * self.ways];
        (0..self.ways).min_by_key(|&way| stamps[way]).expect("at least one way")
    }

    fn hit_is_order_neutral(&self, set: usize, way: usize) -> bool {
        !self.lru || self.stamps[set * self.ways + way] == self.ticks[set]
    }
}

/// An always-parseable formula: operands joined by binary operators, with
/// some operands negated and some runs parenthesised, as chosen by the bits
/// of `shape`.
fn structured_formula(operands: &[&str], ops: &[&str], shape: u64) -> String {
    let mut src = String::new();
    let mut open = 0;
    for (i, operand) in operands.iter().enumerate() {
        if i > 0 {
            src.push_str(ops[(i - 1) % ops.len()]);
        }
        let bits = shape >> ((i * 3) % 60);
        if bits & 1 == 1 {
            src.push('(');
            open += 1;
        }
        if bits & 2 == 2 {
            src.push('-');
        }
        src.push_str(operand);
        if bits & 4 == 4 && open > 0 {
            src.push(')');
            open -= 1;
        }
    }
    src.push_str(&")".repeat(open));
    src
}

/// Reference evaluator for bound formulas: evaluates straight from the
/// source while parsing it, looking variables up in a name map. Same
/// grammar, same operation order, same division-by-zero rule and the same
/// "unbound variable" message, so it agrees with [`Formula`] on every
/// source that parses.
mod map_reference {
    use std::collections::HashMap;

    #[derive(Debug, Clone, PartialEq)]
    enum Token {
        Number(f64),
        Ident(String),
        Op(char),
    }

    fn tokenize(src: &str) -> Vec<Token> {
        let chars: Vec<char> = src.chars().collect();
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_ascii_digit() || c == '.' {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || matches!(chars[i], '.' | 'e' | 'E')
                        || (matches!(chars[i], '+' | '-') && matches!(chars[i - 1], 'e' | 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Token::Number(text.parse().expect("number of a parsed formula")));
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(chars[start..i].iter().collect()));
            } else {
                if c != ' ' && c != '\t' {
                    tokens.push(Token::Op(c));
                }
                i += 1;
            }
        }
        tokens
    }

    struct Eval<'a> {
        tokens: Vec<Token>,
        pos: usize,
        vars: &'a HashMap<String, f64>,
    }

    impl Eval<'_> {
        fn peek_op(&self) -> Option<char> {
            match self.tokens.get(self.pos) {
                Some(Token::Op(c)) => Some(*c),
                _ => None,
            }
        }

        fn expression(&mut self) -> Result<f64, String> {
            let mut lhs = self.term()?;
            while let Some(op @ ('+' | '-')) = self.peek_op() {
                self.pos += 1;
                let rhs = self.term()?;
                lhs = if op == '+' { lhs + rhs } else { lhs - rhs };
            }
            Ok(lhs)
        }

        fn term(&mut self) -> Result<f64, String> {
            let mut lhs = self.factor()?;
            while let Some(op @ ('*' | '/')) = self.peek_op() {
                self.pos += 1;
                let rhs = self.factor()?;
                lhs = match op {
                    '*' => lhs * rhs,
                    _ if rhs == 0.0 => 0.0,
                    _ => lhs / rhs,
                };
            }
            Ok(lhs)
        }

        fn factor(&mut self) -> Result<f64, String> {
            let token = self.tokens[self.pos].clone();
            self.pos += 1;
            match token {
                Token::Op('-') => Ok(-self.factor()?),
                Token::Number(v) => Ok(v),
                Token::Ident(name) => {
                    self.vars.get(&name).copied().ok_or(format!("unbound variable '{name}'"))
                }
                Token::Op('(') => {
                    let inner = self.expression()?;
                    self.pos += 1;
                    Ok(inner)
                }
                other => panic!("{other:?} cannot start a factor of a parsed formula"),
            }
        }
    }

    /// Evaluate `src`, which must be a formula that parses.
    pub fn evaluate(src: &str, vars: &HashMap<String, f64>) -> Result<f64, String> {
        Eval { tokens: tokenize(src), pos: 0, vars }.expression()
    }
}

/// A small synthetic hierarchy for property runs.
fn tiny_hierarchy(prefetch_on: bool) -> HierarchyConfig {
    let level = |level, sets, ways, shared| CacheLevelConfig {
        level,
        sets,
        ways,
        line_size: 64,
        inclusive: level == 3,
        shared_by_threads: shared,
        write_policy: WritePolicy::WriteBackAllocate,
        replacement: ReplacementPolicy::Lru,
    };
    HierarchyConfig {
        levels: vec![level(1, 8, 2, 1), level(2, 32, 4, 1), level(3, 128, 8, 2)],
        num_threads: 4,
        thread_socket: vec![0, 0, 1, 1],
        thread_core: vec![0, 1, 2, 3],
        num_sockets: 2,
        prefetch: if prefetch_on {
            PrefetchConfig::all_enabled()
        } else {
            PrefetchConfig::all_disabled()
        },
        numa_policy: NumaPolicy::interleave(4096),
        memory_line_size: 64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every cache level, demand hits + misses always equals demand
    /// accesses and loads + stores equals accesses, whatever the access mix.
    #[test]
    fn cache_sim_counters_are_consistent(
        ops in prop::collection::vec((0usize..4, 0u64..4096, prop::bool::ANY, prop::bool::ANY), 1..400),
        prefetch_on in prop::bool::ANY,
    ) {
        let mut sys = NodeCacheSystem::new(tiny_hierarchy(prefetch_on));
        for (thread, line, is_store, is_nt) in ops {
            let kind = match (is_store, is_nt) {
                (true, true) => AccessKind::NonTemporalStore,
                (true, false) => AccessKind::Store,
                _ => AccessKind::Load,
            };
            sys.access(thread, Access { address: line * 64, size: 8, kind });
        }
        let stats = sys.stats();
        for level in &stats.levels {
            for inst in &level.instances {
                prop_assert!(inst.is_consistent(), "level {} instance inconsistent: {:?}", level.level, inst);
            }
        }
    }

    /// Memory traffic is monotone in the working-set size for a streaming
    /// load pattern: touching more distinct lines never reads fewer bytes.
    #[test]
    fn streaming_traffic_is_monotone(lines_a in 1u64..2000, lines_b in 1u64..2000) {
        let run = |lines: u64| {
            let mut sys = NodeCacheSystem::new(tiny_hierarchy(false));
            for i in 0..lines {
                sys.access(0, Access::load(i * 64));
            }
            sys.stats().total_memory_bytes()
        };
        let (small, large) = if lines_a <= lines_b { (lines_a, lines_b) } else { (lines_b, lines_a) };
        prop_assert!(run(small) <= run(large));
    }

    /// Pin-list parsing of plain numeric expressions round-trips: every id
    /// appears, in order, and within the machine's range.
    #[test]
    fn numeric_pin_lists_round_trip(ids in prop::collection::vec(0usize..24, 1..24)) {
        let topo = MachinePreset::WestmereEp2S.topology();
        let expr = ids.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let parsed = parse_pin_list(&expr, &topo).unwrap();
        prop_assert_eq!(parsed, ids);
    }

    /// The wrapper pin logic never pins two worker threads to the same
    /// pin-list entry and never pins a skipped thread, for arbitrary skip
    /// masks and list lengths.
    #[test]
    fn pinner_assignments_are_unique(skip_mask in 0u64..64, list_len in 1usize..16, creations in 1usize..24) {
        let pin_list: Vec<usize> = (0..list_len).collect();
        let mut pinner = PthreadPinner::new(pin_list, SkipMask(skip_mask));
        let mut assigned = Vec::new();
        for i in 0..creations {
            let outcome = pinner.on_thread_create();
            if SkipMask(skip_mask).skips(i) {
                prop_assert_eq!(outcome.cpu(), None, "skipped threads are never pinned");
            }
            if let Some(cpu) = outcome.cpu() {
                prop_assert!(!assigned.contains(&cpu), "entry {cpu} assigned twice");
                assigned.push(cpu);
            }
        }
    }

    /// The metric formula parser never panics and evaluation is exact for
    /// simple linear combinations.
    #[test]
    fn formula_linear_combination(a in -1.0e6..1.0e6f64, b in -1.0e6..1.0e6f64, x in -1.0e3..1.0e3f64) {
        let f = Formula::parse("A*X+B").unwrap().bind(&["A", "B", "X"]);
        let value = f.evaluate(&[a, b, x]).unwrap();
        prop_assert!((value - (a * x + b)).abs() <= 1e-6 * (1.0 + value.abs()));
    }

    /// A formula bound to a name layout evaluates exactly like a name-map
    /// binding: same value bit for bit, and the same "unbound
    /// variable" error for names the layout lacks. A name listed twice
    /// binds to its last position, as repeated inserts into a map keep the
    /// last value; a trailing `time` shadows an earlier one.
    #[test]
    fn bound_formulas_evaluate_like_a_name_map(
        raw in "[A-Za-z0-9+*/()., -]{0,40}",
        operands in prop::collection::vec(prop::sample::select(OPERANDS.to_vec()), 1..7),
        ops in prop::collection::vec(prop::sample::select(vec!["+", "-", "*", "/"]), 6..7),
        shape in 0u64..u64::MAX,
        bindings in prop::collection::vec(
            (prop::sample::select(NAMES.to_vec()), -1.0e3..1.0e3f64, prop::bool::ANY), 0..8),
        time in (prop::bool::ANY, -1.0..1.0f64),
    ) {
        let mut pairs: Vec<(String, f64)> = bindings
            .iter()
            .map(|&(name, value, zero)| (name.to_string(), if zero { 0.0 } else { value }))
            .collect();
        // Arbitrary identifiers of the raw source: bind every other one.
        if let Ok(f) = Formula::parse(&raw) {
            for (i, name) in f.variables().into_iter().enumerate() {
                if (shape >> (i % 64)) & 1 == 1 {
                    pairs.push((name, (i as f64 + 1.5) * 7.25));
                }
            }
        }
        if time.0 {
            pairs.push(("time".to_string(), time.1));
        }
        let map: HashMap<String, f64> = pairs.iter().cloned().collect();
        let names: Vec<&str> = pairs.iter().map(|(name, _)| name.as_str()).collect();
        let values: Vec<f64> = pairs.iter().map(|(_, value)| *value).collect();

        for src in [raw.clone(), structured_formula(&operands, &ops, shape)] {
            let Ok(formula) = Formula::parse(&src) else { continue };
            let bound = formula.bind(&names).evaluate(&values);
            match (bound, map_reference::evaluate(&src, &map)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", src),
                (Err(LikwidError::Formula(got)), Err(want)) => prop_assert_eq!(got, want, "{}", src),
                (got, want) => prop_assert!(false, "{src}: bound {got:?}, map {want:?}"),
            }
        }
    }

    /// The `--inject` fault-spec parser is total: arbitrary text yields a
    /// plan or an error, never a panic.
    #[test]
    fn fault_spec_parser_is_total(
        raw in ".{0,48}",
        soup in "[a-z0-9=,@xX.eE+ -]{0,48}",
        items in prop::collection::vec(
            (prop::sample::select(FAULT_KEYS.to_vec()), prop::sample::select(FAULT_VALUES.to_vec())),
            0..6),
    ) {
        let structured: Vec<String> = items.iter().map(|(key, value)| format!("{key}{value}")).collect();
        for spec in [raw, soup, structured.join(",")] {
            let _ = FaultPlan::parse(&spec);
        }
    }

    /// Arbitrary garbage never makes the formula parser panic.
    #[test]
    fn formula_parser_is_total(src in "[A-Za-z0-9+*/()., -]{0,40}") {
        let _ = Formula::parse(&src);
    }

    /// Recency lists evict exactly like per-way age stamps, under both
    /// policies. Touches reach only the first `reach` ways, so some ways
    /// (and sometimes whole sets) are never touched.
    #[test]
    fn recency_lists_replace_like_age_stamps(
        lru in prop::bool::ANY,
        ways in 1usize..65,
        sets in 1usize..5,
        reach in 1usize..65,
        ops in prop::collection::vec((prop::bool::ANY, 0usize..4, 0usize..64), 0..160),
    ) {
        let policy = if lru { ReplacementPolicy::Lru } else { ReplacementPolicy::Fifo };
        let mut lists = FlatReplacement::new(policy, sets, ways);
        let mut stamps = StampModel::new(lru, sets, ways);
        let reach = reach.min(ways);
        for (step, (fill, set, way)) in ops.into_iter().enumerate() {
            let (set, way) = (set % sets, way % reach);
            if fill {
                lists.on_fill(set, way);
                stamps.on_fill(set, way);
            } else {
                lists.on_hit(set, way);
                stamps.on_hit(set, way);
            }
            for set in 0..sets {
                prop_assert_eq!(lists.oldest_way(set), stamps.oldest_way(set), "step {} set {}", step, set);
                // A hit needs a filled way, so no cache asks about a set
                // with no touches (where every stamp equals the tick, 0).
                if stamps.ticks[set] == 0 {
                    continue;
                }
                for way in 0..ways {
                    prop_assert_eq!(
                        lists.hit_is_order_neutral(set, way),
                        stamps.hit_is_order_neutral(set, way),
                        "step {} set {} way {}", step, set, way
                    );
                }
            }
        }
    }

    /// The daemon's NDJSON decoders are total: arbitrary text, JSON-token
    /// soup and damaged valid lines yield a frame (client side) or an
    /// `open` request (server side), or an error, never a panic.
    #[test]
    fn ndjson_decoders_are_total(
        raw in ".{0,64}",
        soup in prop::collection::vec(prop::sample::select(JSON_FRAGMENTS.to_vec()), 0..40),
        edit in (0usize..512, 0usize..16, prop::sample::select(JSON_FRAGMENTS.to_vec())),
    ) {
        let interval = Frame::Interval(IntervalFrame {
            session: 3,
            index: 1,
            group: 0,
            t_start_s: 0.5,
            t_end_s: 1.0,
            counts: vec![vec![u64::MAX, 7]],
            metrics: vec![vec![f64::NAN, 2.5]],
        });
        let error = Frame::Error { kind: "usage".into(), message: "no such group".into() };
        let open = OpenRequest {
            machine: Some("nehalem-ep-2s".into()),
            cpus: "S0:0-1".into(),
            group: "MEM".into(),
            interval: "1ms".into(),
            duration: "4ms".into(),
        };
        let (at, cut, splice) = edit;
        for line in [
            raw,
            soup.concat(),
            mutate(&interval.to_line(), at, cut, splice),
            mutate(&error.to_line(), at, cut, splice),
            mutate(&open.to_json().encode(), at, cut, splice),
        ] {
            let _ = Frame::from_line(&line);
            if let Ok(command) = JsonValue::parse(line.trim()) {
                let _ = OpenRequest::from_json(&command);
            }
        }
    }

    /// `Trajectory::parse` is total in the same sense.
    #[test]
    fn trajectory_parser_is_total(
        raw in ".{0,64}",
        soup in prop::collection::vec(prop::sample::select(JSON_FRAGMENTS.to_vec()), 0..40),
        edit in (0usize..512, 0usize..16, prop::sample::select(JSON_FRAGMENTS.to_vec())),
    ) {
        let point = TrajectoryPoint {
            key: "triad|westmere-ep-2s|t=2".into(),
            status: "ok".into(),
            samples: 5,
            median: Some(1234.5),
            min: Some(1000.0),
            max: None,
            spread: Some(0.01),
        };
        let doc = Trajectory { epoch: "epoch-001".into(), unit: "MB/s".into(), points: vec![point] }
            .encode();
        let (at, cut, splice) = edit;
        for text in [raw, soup.concat(), mutate(&doc, at, cut, splice)] {
            let _ = Trajectory::parse(&text);
        }
    }
}

/// The cpuid-decoded topology matches the ground truth for every preset —
/// run as a plain test here as well so the workspace-level suite covers it.
#[test]
fn decoded_topology_matches_ground_truth_everywhere() {
    for &preset in MachinePreset::all() {
        let machine = SimMachine::new(preset);
        let probed = CpuTopology::probe(&machine).unwrap();
        let truth = machine.topology();
        assert_eq!(probed.sockets, truth.sockets);
        assert_eq!(probed.cores_per_socket, truth.cores_per_socket);
        assert_eq!(probed.threads_per_core, truth.threads_per_core);
        assert_eq!(probed.hw_threads.len(), truth.num_hw_threads());
    }
}
