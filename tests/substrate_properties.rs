//! Property-based tests over the substrate crates: invariants that must
//! hold for arbitrary inputs, not just the machines of the paper.

use std::collections::HashMap;

use proptest::prelude::*;

use likwid_suite::affinity::{parse_pin_list, PthreadPinner, SkipMask};
use likwid_suite::cache_sim::{
    Access, AccessKind, CacheLevelConfig, FlatReplacement, HierarchyConfig, NodeCacheSystem,
    NumaPolicy, PrefetchConfig, ReplacementPolicy, WritePolicy,
};
use likwid_suite::daemon::{Frame, IntervalFrame, OpenRequest};
use likwid_suite::fleet::trajectory::TrajectoryPoint;
use likwid_suite::fleet::Trajectory;
use likwid_suite::likwid::json::{obj, JsonValue};
use likwid_suite::likwid::perfctr::Formula;
use likwid_suite::likwid::report::{
    Body, Json, KvEntry, Render, Report, Row, Section, Table, Value,
};
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

/// Characters from arbitrary code points, surrogates skipped. Each draw
/// picks a width class first, so control characters, the BMP and astral
/// planes all occur.
fn text_from(points: &[(u32, u32)]) -> String {
    let widths = [0x80, 0x800, 0x1_0000, 0x11_0000];
    points.iter().filter_map(|&(class, cp)| char::from_u32(cp % widths[class as usize])).collect()
}

/// Same bits, or both NaN (the codec keeps the class, not the payload).
fn same_real(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Reals the interval-codec property mixes into raw bit patterns: the
/// non-finite values, both zeros, subnormals and the extremes.
const SPECIAL_REALS: [f64; 9] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072e-308,
    f64::MAX,
    f64::MIN_POSITIVE,
];

/// A special real for `pick` below their count, else the raw bits.
fn real_from((bits, pick): (u64, usize)) -> f64 {
    SPECIAL_REALS.get(pick).copied().unwrap_or(f64::from_bits(bits))
}

/// Reshape a flat draw into `rows` rows of `width` (cycling the draw).
fn rows_of<T: Copy>(flat: &[T], rows: usize, width: usize) -> Vec<Vec<T>> {
    (0..rows).map(|r| (0..width).map(|c| flat[(r * width + c) % flat.len()]).collect()).collect()
}

/// An interval frame as a tree, members in wire order.
fn interval_tree(f: &IntervalFrame) -> Vec<(&'static str, JsonValue)> {
    let arr = |items: Vec<JsonValue>| JsonValue::Arr(items);
    vec![
        ("frame", JsonValue::Str("interval".into())),
        ("session", JsonValue::UInt(f.session)),
        ("index", JsonValue::UInt(f.index as u64)),
        ("group", JsonValue::UInt(f.group as u64)),
        ("t_start_s", JsonValue::real(f.t_start_s)),
        ("t_end_s", JsonValue::real(f.t_end_s)),
        (
            "counts",
            arr(f
                .counts
                .iter()
                .map(|row| arr(row.iter().map(|&v| JsonValue::UInt(v)).collect()))
                .collect()),
        ),
        (
            "metrics",
            arr(f
                .metrics
                .iter()
                .map(|row| arr(row.iter().map(|&v| JsonValue::real(v)).collect()))
                .collect()),
        ),
    ]
}

/// Whether a decoded frame is the original, reals compared bit for bit
/// (NaN by class: the wire spells every NaN `"NaN"`).
fn same_interval(a: &IntervalFrame, b: &IntervalFrame) -> bool {
    let reals = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| same_real(p, q))
    };
    a.session == b.session
        && a.index == b.index
        && a.group == b.group
        && same_real(a.t_start_s, b.t_start_s)
        && same_real(a.t_end_s, b.t_end_s)
        && a.counts == b.counts
        && a.metrics.len() == b.metrics.len()
        && a.metrics.iter().zip(&b.metrics).all(|(x, y)| reals(x, y))
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

    /// The streaming interval codec agrees with the tree codec: the
    /// writer's line is byte-identical to `JsonValue::encode` of the same
    /// frame, `from_line` returns the frame bit-exactly, whitespace,
    /// reordered members and unknown members do not change the decoded
    /// frame, and a missing member, a fractional or negative count or
    /// trailing bytes are protocol errors.
    #[test]
    fn streaming_interval_codec_agrees_with_the_tree_codec(
        ids in (0u64..u64::MAX, 0usize..1 << 20, 0usize..4, prop::bool::ANY),
        times in ((0u64..u64::MAX, 0usize..12), (0u64..u64::MAX, 0usize..12)),
        shape in (0usize..6, 0usize..5, 0usize..4, prop::bool::ANY),
        counts in prop::collection::vec((0u64..u64::MAX, 0usize..4), 1..24),
        metrics in prop::collection::vec((0u64..u64::MAX, 0usize..18), 1..24),
        edit in (0usize..8, 0usize..9, 0usize..8),
    ) {
        let (events, cpus, metric_rows, custom) = shape;
        let counts: Vec<u64> = counts
            .iter()
            .map(|&(v, pick)| [u64::MAX, 0, v, v >> (v % 64)][pick])
            .collect();
        let metrics: Vec<f64> = metrics.into_iter().map(real_from).collect();
        let frame = IntervalFrame {
            session: if ids.3 { u64::MAX } else { ids.0 },
            index: ids.1,
            group: ids.2,
            t_start_s: real_from(times.0),
            t_end_s: real_from(times.1),
            counts: rows_of(&counts, events, cpus),
            // Custom event lists carry no metric rows.
            metrics: if custom { Vec::new() } else { rows_of(&metrics, metric_rows, cpus) },
        };
        let members = interval_tree(&frame);
        let tree = |members: &[(&str, JsonValue)]| {
            JsonValue::Obj(members.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
        };
        let line = Frame::Interval(frame.clone()).to_line();
        prop_assert_eq!(&line, &(tree(&members).encode() + "\n"));
        let decoded = |text: &str| match Frame::from_line(text) {
            Ok(Frame::Interval(back)) => Ok(back),
            Ok(other) => panic!("{text} decoded as {other:?}"),
            Err(e) => Err(e),
        };
        let back = decoded(&line);
        prop_assert!(back.as_ref().is_ok_and(|b| same_interval(b, &frame)), "{line} -> {back:?}");

        // Members after `frame` in any order, an unknown member among
        // them, whitespace around every token.
        let (rotate, unknown_at, _) = edit;
        let mut shuffled = members[1..].to_vec();
        let len = shuffled.len();
        shuffled.rotate_left(rotate % len);
        let note = JsonValue::Arr(vec![JsonValue::Str("x\ty".into()), JsonValue::Null, obj(vec![])]);
        shuffled.insert(unknown_at % (shuffled.len() + 1), ("note", note));
        shuffled.insert(0, members[0].clone());
        let spaced = format!(
            " \t{}\r\n",
            tree(&shuffled).encode().replace(',', " ,\n").replace(':', "\t: ").replace('[', "[ ")
        );
        let back = decoded(&spaced);
        prop_assert!(back.as_ref().is_ok_and(|b| same_interval(b, &frame)), "{spaced} -> {back:?}");

        // A missing member.
        let mut partial = members.clone();
        partial.remove(1 + edit.2 % (members.len() - 1));
        let err = decoded(&tree(&partial).encode());
        prop_assert!(matches!(err, Err(LikwidError::Protocol(_))), "{err:?}");
        // A fractional or negative count.
        if events > 0 && cpus > 0 {
            for bad in [JsonValue::Num(0.5), JsonValue::Num(-1.0)] {
                let mut damaged = members.clone();
                damaged[6].1 = JsonValue::Arr(vec![JsonValue::Arr(vec![bad])]);
                let err = decoded(&tree(&damaged).encode());
                prop_assert!(matches!(&err, Err(LikwidError::Protocol(m)) if m.contains("count")), "{err:?}");
            }
        }
        // Trailing bytes.
        for tail in ["x", "{}", "0", ","] {
            let err = decoded(&format!("{}{tail}", line.trim_end()));
            prop_assert!(matches!(&err, Err(LikwidError::Protocol(m)) if m.contains("trailing")), "{err:?}");
        }
    }

    /// The JSON codec is lossless: strings over arbitrary code points,
    /// every `u64` as `UInt`, and `f64` bit patterns through
    /// `JsonValue::real` (finite bit-exact, non-finite by class), both as
    /// bare values and inside `Report` titles and cells.
    #[test]
    fn json_codec_round_trips_strings_counts_and_reals(
        points in prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..24),
        count in 0u64..u64::MAX,
        bits in 0u64..u64::MAX,
    ) {
        let text = text_from(&points);
        prop_assert_eq!(
            JsonValue::parse(&JsonValue::Str(text.clone()).encode()),
            Ok(JsonValue::Str(text.clone()))
        );
        for n in [count, !count, count >> (count % 64), 0, u64::MAX] {
            prop_assert_eq!(JsonValue::parse(&JsonValue::UInt(n).encode()), Ok(JsonValue::UInt(n)));
        }
        // Every exponent bit set: a NaN, or ±inf with the mantissa cleared.
        let exp = 0x7FF0_0000_0000_0000;
        let reals = [
            f64::from_bits(bits),
            f64::from_bits(bits | exp),
            f64::from_bits(bits & (1 << 63) | exp),
        ];
        for v in reals {
            let back = JsonValue::parse(&JsonValue::real(v).encode()).ok().and_then(|j| j.as_f64());
            prop_assert!(back.is_some_and(|b| same_real(b, v)), "{v:e} ({bits:#x}) came back as {back:?}");
        }

        let mut report = Report::new(text.clone());
        let mut table = Table::plain(vec![text.clone(), "count".into(), "real".into()]);
        for v in reals {
            let cells = vec![Value::Str(text.clone()), Value::Count(count), Value::Real(v)];
            table.push(Row::new(cells));
        }
        report.push(Section::new(
            text.clone(),
            Body::KeyValues(
                reals.iter().map(|&v| KvEntry::new(text.clone(), Value::Real(v))).collect(),
            ),
        ));
        report.push(Section::new("table", Body::Table(table)));
        let back = Report::from_json(&Json.render(&report));
        prop_assert!(back.is_ok(), "{back:?}");
        let back = back.unwrap();
        prop_assert_eq!(&back.title, &text);
        prop_assert_eq!(back.sections.len(), 2);
        prop_assert_eq!(&back.sections[0].id, &text);
        let Body::KeyValues(entries) = &back.sections[0].body else {
            panic!("keyvalues section came back as {:?}", back.sections[0].body);
        };
        let Some(table) = back.table("table") else { panic!("table section lost") };
        prop_assert_eq!(&table.columns[0], &text);
        for (i, v) in reals.into_iter().enumerate() {
            prop_assert_eq!(&entries[i].key, &text);
            prop_assert!(entries[i].value.as_real().is_some_and(|b| same_real(b, v)));
            let row = &table.rows[i].values;
            prop_assert_eq!(&row[0], &Value::Str(text.clone()));
            prop_assert_eq!(&row[1], &Value::Count(count));
            prop_assert!(matches!(row[2], Value::Real(b) if same_real(b, v)), "{:?} vs {v:e}", row[2]);
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
