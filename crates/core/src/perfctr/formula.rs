//! Derived-metric formula evaluator.
//!
//! LIKWID's preconfigured event groups define their derived metrics as
//! arithmetic formulas over counter names (`1.0E-06*(PMC0*2.0+PMC1)/time`).
//! This module implements the small expression language those formulas use:
//! numbers (including scientific notation), identifiers bound to counter
//! values or to the helper variables `time` and `inverseClock`, the four
//! arithmetic operators and parentheses.
//!
//! Formulas are compiled once: [`Formula::parse`] builds the expression
//! tree, and [`Formula::bind`] resolves every variable to a position in a
//! list of names, yielding a [`BoundFormula`] that is evaluated over a
//! plain `&[f64]` of values in that order. A measurement session binds its
//! groups' formulas when it is built, so evaluating a metric per interval
//! and per cpu neither parses, hashes nor formats a string.

use crate::error::{LikwidError, Result};

/// A parsed formula, ready to be bound to a variable layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    source: String,
    expr: Expr,
}

/// A formula whose variables are resolved to positions of a value slice
/// (see [`Formula::bind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundFormula {
    expr: Expr,
}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Number(f64),
    /// A variable by name: what the parser produces, and what binding
    /// leaves behind for names the layout does not contain. Evaluating it
    /// is the "unbound variable" error.
    Variable(String),
    /// A variable bound to a position of the value slice.
    Slot(usize),
    Binary {
        op: Op,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Negate(Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        i += 1;
        let token = match bytes[start] {
            b' ' | b'\t' => continue,
            b'+' => Token::Plus,
            b'-' => Token::Minus,
            b'*' => Token::Star,
            b'/' => Token::Slash,
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'0'..=b'9' | b'.' => {
                while i < bytes.len()
                    && (matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E')
                        || (matches!(bytes[i], b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                let value = text
                    .parse::<f64>()
                    .map_err(|_| LikwidError::Formula(format!("bad number '{text}'")))?;
                Token::Number(value)
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                Token::Ident(src[start..i].to_string())
            }
            _ => {
                // Every earlier token was ASCII, so `start` is a character
                // boundary.
                let other = src[start..].chars().next().unwrap_or_default();
                return Err(LikwidError::Formula(format!("unexpected character '{other}'")));
            }
        };
        tokens.push(token);
    }
    Ok(tokens)
}

struct Parser {
    tokens: std::iter::Peekable<std::vec::IntoIter<Token>>,
    /// Tokens consumed so far.
    pos: usize,
}

impl Parser {
    fn peek(&mut self) -> Option<&Token> {
        self.tokens.peek()
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.next();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// expression := term (('+' | '-') term)*
    fn expression(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        while let Some(op) = match self.peek() {
            Some(Token::Plus) => Some(Op::Add),
            Some(Token::Minus) => Some(Op::Sub),
            _ => None,
        } {
            self.next();
            let rhs = self.term()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    /// term := factor (('*' | '/') factor)*
    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.factor()?;
        while let Some(op) = match self.peek() {
            Some(Token::Star) => Some(Op::Mul),
            Some(Token::Slash) => Some(Op::Div),
            _ => None,
        } {
            self.next();
            let rhs = self.factor()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    /// factor := '-' factor | number | ident | '(' expression ')'
    fn factor(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Minus) => Ok(Expr::Negate(Box::new(self.factor()?))),
            Some(Token::Number(v)) => Ok(Expr::Number(v)),
            Some(Token::Ident(name)) => Ok(Expr::Variable(name)),
            Some(Token::LParen) => {
                let inner = self.expression()?;
                match self.next() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(LikwidError::Formula("missing closing parenthesis".into())),
                }
            }
            other => Err(LikwidError::Formula(format!("unexpected token {other:?}"))),
        }
    }
}

impl Formula {
    /// Parse a formula.
    pub fn parse(src: &str) -> Result<Self> {
        let tokens = tokenize(src)?;
        if tokens.is_empty() {
            return Err(LikwidError::Formula("empty formula".into()));
        }
        let mut parser = Parser { tokens: tokens.into_iter().peekable(), pos: 0 };
        let expr = parser.expression()?;
        if parser.peek().is_some() {
            return Err(LikwidError::Formula(format!(
                "trailing input after position {} in '{src}'",
                parser.pos
            )));
        }
        Ok(Formula { source: src.to_string(), expr })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Variables referenced by the formula, in order of first appearance.
    pub fn variables(&self) -> Vec<String> {
        fn collect(expr: &Expr, out: &mut Vec<String>) {
            match expr {
                Expr::Variable(name) => {
                    if !out.contains(name) {
                        out.push(name.clone());
                    }
                }
                Expr::Binary { lhs, rhs, .. } => {
                    collect(lhs, out);
                    collect(rhs, out);
                }
                Expr::Negate(inner) => collect(inner, out),
                Expr::Number(_) | Expr::Slot(_) => {}
            }
        }
        let mut out = Vec::new();
        collect(&self.expr, &mut out);
        out
    }

    /// Resolve every variable to its position in `names`: the value slice
    /// later passed to [`BoundFormula::evaluate`] holds the value of
    /// `names[i]` at index `i`. A name listed more than once binds to its
    /// last position, so a layout built by appending (`time` after the
    /// counters) shadows earlier entries. Names missing from the layout stay
    /// unbound and fail at evaluation, naming the variable.
    pub fn bind<S: AsRef<str>>(self, names: &[S]) -> BoundFormula {
        fn resolve<S: AsRef<str>>(expr: &mut Expr, names: &[S]) {
            match expr {
                Expr::Variable(name) => {
                    if let Some(slot) = names.iter().rposition(|n| n.as_ref() == name) {
                        *expr = Expr::Slot(slot);
                    }
                }
                Expr::Binary { lhs, rhs, .. } => {
                    resolve(lhs, names);
                    resolve(rhs, names);
                }
                Expr::Negate(inner) => resolve(inner, names),
                Expr::Number(_) | Expr::Slot(_) => {}
            }
        }
        let mut expr = self.expr;
        resolve(&mut expr, names);
        BoundFormula { expr }
    }
}

impl BoundFormula {
    /// Evaluate over the values of the bound layout, in layout order; a
    /// slice shorter than the layout is a caller bug and panics. Unbound
    /// variables are an error; division by zero yields 0 (matching the real
    /// tool's behaviour of printing 0 for metrics whose events did not
    /// fire).
    pub fn evaluate(&self, values: &[f64]) -> Result<f64> {
        fn eval(expr: &Expr, values: &[f64]) -> Result<f64> {
            Ok(match expr {
                Expr::Number(v) => *v,
                Expr::Slot(slot) => values[*slot],
                Expr::Variable(name) => {
                    return Err(LikwidError::Formula(format!("unbound variable '{name}'")))
                }
                Expr::Negate(inner) => -eval(inner, values)?,
                Expr::Binary { op, lhs, rhs } => {
                    let l = eval(lhs, values)?;
                    let r = eval(rhs, values)?;
                    match op {
                        Op::Add => l + r,
                        Op::Sub => l - r,
                        Op::Mul => l * r,
                        Op::Div => {
                            if r == 0.0 {
                                0.0
                            } else {
                                l / r
                            }
                        }
                    }
                }
            })
        }
        eval(&self.expr, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bind `f` to the names of `pairs` and evaluate over their values.
    fn eval(f: &Formula, pairs: &[(&str, f64)]) -> Result<f64> {
        let names: Vec<&str> = pairs.iter().map(|(name, _)| *name).collect();
        let values: Vec<f64> = pairs.iter().map(|(_, value)| *value).collect();
        f.clone().bind(&names).evaluate(&values)
    }

    #[test]
    fn arithmetic_precedence() {
        let f = Formula::parse("1+2*3").unwrap();
        assert_eq!(eval(&f, &[]).unwrap(), 7.0);
        let f = Formula::parse("(1+2)*3").unwrap();
        assert_eq!(eval(&f, &[]).unwrap(), 9.0);
        let f = Formula::parse("10-2-3").unwrap();
        assert_eq!(eval(&f, &[]).unwrap(), 5.0, "subtraction is left associative");
        let f = Formula::parse("8/2/2").unwrap();
        assert_eq!(eval(&f, &[]).unwrap(), 2.0);
    }

    #[test]
    fn scientific_notation_and_unary_minus() {
        let f = Formula::parse("1.0E-06*2000000").unwrap();
        assert!((eval(&f, &[]).unwrap() - 2.0).abs() < 1e-12);
        let f = Formula::parse("-3+5").unwrap();
        assert_eq!(eval(&f, &[]).unwrap(), 2.0);
        let f = Formula::parse("2*-3").unwrap();
        assert_eq!(eval(&f, &[]).unwrap(), -6.0);
    }

    #[test]
    fn the_flops_dp_formula_from_likwid_groups() {
        // MFlops/s = 1.0E-06*(PMC0*2.0+PMC1)/time
        let f = Formula::parse("1.0E-06*(PMC0*2.0+PMC1*1.0)/time").unwrap();
        let v = &[("PMC0", 8.192e6), ("PMC1", 1.0), ("time", 0.01)];
        let mflops = eval(&f, v).unwrap();
        assert!((mflops - 1638.4).abs() < 0.1, "got {mflops}");
    }

    #[test]
    fn cpi_formula() {
        let f = Formula::parse("FIXC1/FIXC0").unwrap();
        let v = &[("FIXC0", 18_802_400.0), ("FIXC1", 28_583_800.0)];
        assert!((eval(&f, v).unwrap() - 1.5202).abs() < 0.001);
    }

    #[test]
    fn variables_are_reported() {
        let f = Formula::parse("1.0E-06*(UPMC0+UPMC1)*64.0/time").unwrap();
        let mut vs = f.variables();
        vs.sort();
        assert_eq!(vs, vec!["UPMC0", "UPMC1", "time"]);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let f = Formula::parse("PMC0/time").unwrap();
        assert!(eval(&f, &[("PMC0", 1.0)]).is_err());
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let f = Formula::parse("PMC0/PMC1").unwrap();
        let v = &[("PMC0", 5.0), ("PMC1", 0.0)];
        assert_eq!(eval(&f, v).unwrap(), 0.0);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Formula::parse("").is_err());
        assert!(Formula::parse("1+").is_err());
        assert!(Formula::parse("(1+2").is_err());
        assert!(Formula::parse("1 ? 2").is_err());
        assert!(Formula::parse("1 2").is_err());
    }

    #[test]
    fn source_is_preserved() {
        let src = "FIXC1*inverseClock";
        assert_eq!(Formula::parse(src).unwrap().source(), src);
    }

    #[test]
    fn table2_memory_bandwidth_from_unc_l3_lines() {
        // The paper's Table 2 derives Jacobi memory traffic from the Nehalem
        // uncore events: bandwidth [MB/s] = 1.0E-06*(lines_in+lines_out)*64/time.
        let f = Formula::parse("1.0E-06*(UPMC0+UPMC1)*64.0/time").unwrap();
        let v = &[("UPMC0", 5.0e8), ("UPMC1", 2.5e8), ("time", 1.5)];
        let mbs = eval(&f, v).unwrap();
        // (5e8 + 2.5e8) * 64 bytes / 1.5 s = 32 GB/s.
        assert!((mbs - 32_000.0).abs() < 1e-6, "got {mbs}");
    }

    #[test]
    fn zero_time_yields_zero_bandwidth_not_infinity() {
        // A region that never ran reports time = 0; the metric must print 0,
        // not inf/NaN, matching the real tool's output for idle regions.
        let f = Formula::parse("1.0E-06*(UPMC0+UPMC1)*64.0/time").unwrap();
        let v = &[("UPMC0", 1.0e9), ("UPMC1", 1.0e9), ("time", 0.0)];
        assert_eq!(eval(&f, v).unwrap(), 0.0);
        // Division by a zero *subexpression* behaves the same.
        let f = Formula::parse("PMC0/(PMC1-PMC1)").unwrap();
        let v = &[("PMC0", 42.0), ("PMC1", 9.0)];
        assert_eq!(eval(&f, v).unwrap(), 0.0);
    }

    #[test]
    fn unknown_counter_names_the_missing_variable() {
        let f = Formula::parse("UPMC0*64.0/time").unwrap();
        let err = eval(&f, &[("time", 1.0)]).unwrap_err();
        assert!(err.to_string().contains("UPMC0"), "error must name the counter: {err}");
        // Binding every referenced variable fixes the evaluation.
        let ok = eval(&f, &[("UPMC0", 1.0e6), ("time", 1.0)]).unwrap();
        assert!((ok - 6.4e7).abs() < 1e-3);
    }

    #[test]
    fn variables_cover_negated_and_nested_subexpressions() {
        let f = Formula::parse("-(A*(B+C))/(D-1.0)").unwrap();
        let mut vs = f.variables();
        vs.sort();
        assert_eq!(vs, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn evaluation_is_repeatable_with_different_bindings() {
        // One bound formula re-evaluated against per-thread counter sets,
        // as the session does when printing per-core metric columns.
        let f = Formula::parse("FIXC1/FIXC0").unwrap().bind(&["FIXC0", "FIXC1"]);
        for (instr, cycles, want) in [(100.0, 200.0, 2.0), (400.0, 100.0, 0.25), (7.0, 7.0, 1.0)] {
            assert_eq!(f.evaluate(&[instr, cycles]).unwrap(), want);
        }
    }

    #[test]
    fn a_repeated_name_binds_to_its_last_position() {
        let f = Formula::parse("time*2").unwrap();
        assert_eq!(eval(&f, &[("time", 1.0), ("PMC0", 5.0), ("time", 3.0)]).unwrap(), 6.0);
    }
}
