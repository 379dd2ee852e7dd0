//! Derived-axis spec expressions.
//!
//! Grid axes and frontier templates may give `rho` / `beta` (and the
//! frontier's bracket endpoints) as small arithmetic expressions instead of
//! literal rates: `"0.8 * k_cycle_threshold"`, `"k / (2 * n)"`,
//! `"group_share - 0.01"`. Expressions are evaluated **at expansion time**,
//! once per expanded `(n, k)` point, in exact rational arithmetic — the
//! resulting [`Rate`] is as deterministic as a hand-written literal, so
//! derived axes compose with the byte-identity guarantees of the campaign
//! and frontier layers.
//!
//! # Grammar
//!
//! ```text
//! expr   := term  (('+' | '-') term)*
//! term   := unary (('*' | '/') unary)*
//! unary  := '-' unary | '(' expr ')' | NUMBER | IDENT
//! NUMBER := digits ['.' digits]          (a rate literal, exact: 0.8 = 4/5)
//! ```
//!
//! # Identifiers
//!
//! | name | value |
//! |------|-------|
//! | `n` | system size of the expanded point |
//! | `k` | cap parameter of the expanded point |
//! | `ell` | k-Cycle group count `ℓ = ⌈n/(k_eff−1)⌉` (after the paper's cap adjustment) |
//! | `k_cycle_threshold` | `(k−1)/(n−1)` (Theorem 5) |
//! | `oblivious_threshold` | `k/n` (Theorem 6) |
//! | `k_clique_threshold` | `k²/(n(2n−k))` (Theorem 7) |
//! | `k_clique_latency_rate` | `k²/(2n(2n−k))` (Theorem 7) |
//! | `k_subsets_threshold` | `k(k−1)/(n(n−1))` (Theorems 8–9) |
//! | `group_share` | `1/ℓ` — the k-Cycle concentrated-flood frontier (reproduction finding) |
//!
//! Division by zero, negative results, unknown identifiers, and overflow
//! are rejected with a message naming the offending expression.

use emac_sim::rate::gcd;
use emac_sim::Rate;

use crate::k_cycle::adjusted_cap;

/// Evaluation environment: the expanded grid/map point.
#[derive(Clone, Copy, Debug)]
pub struct ExprEnv {
    /// System size `n`.
    pub n: u64,
    /// Cap parameter `k`.
    pub k: u64,
}

impl ExprEnv {
    /// Environment for one `(n, k)` point.
    pub fn new(n: usize, k: usize) -> Self {
        Self { n: n as u64, k: k as u64 }
    }

    /// The k-Cycle group count `ℓ` for this point, after the paper's cap
    /// adjustment ([`adjusted_cap`]). Errors instead of panicking on
    /// geometries k-Cycle cannot host.
    fn ell(&self) -> Result<i128, String> {
        if self.n < 3 {
            return Err(format!("ell needs n >= 3, got n={}", self.n));
        }
        let (_, ell) = adjusted_cap(self.n as usize, self.k as usize).ok_or_else(|| {
            format!("ell needs an effective cap >= 2, got k={} at n={}", self.k, self.n)
        })?;
        Ok(ell as i128)
    }
}

/// An exact signed rational with checked arithmetic: an operation whose
/// result overflows `i128` is an error, never a wrap. Intermediate values
/// may be negative (`group_share - 0.01` style offsets); a final result
/// must be a non-negative [`Rate`] ([`Q::rate`]). The frontier bisects in
/// it too.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Q {
    num: i128,
    den: i128, // > 0, reduced
}

impl Q {
    pub(crate) fn int(v: i128) -> Self {
        Self { num: v, den: 1 }
    }

    fn new(num: i128, den: i128) -> Result<Self, String> {
        if den == 0 {
            return Err("division by zero".into());
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs()).max(1) as i128;
        Ok(Self { num: sign * num / g, den: sign * den / g })
    }

    /// The sum over the least common denominator, so terms that share
    /// factors (a bisection's endpoints) stay clear of overflow.
    pub(crate) fn add(self, o: Q) -> Result<Q, String> {
        let g = gcd(self.den.unsigned_abs(), o.den.unsigned_abs()) as i128;
        let (to_lcm, o_to_lcm) = (o.den / g, self.den / g);
        let num = self
            .num
            .checked_mul(to_lcm)
            .and_then(|a| o.num.checked_mul(o_to_lcm).and_then(|b| a.checked_add(b)))
            .ok_or("overflow")?;
        Q::new(num, self.den.checked_mul(to_lcm).ok_or("overflow")?)
    }

    pub(crate) fn sub(self, o: Q) -> Result<Q, String> {
        self.add(Q { num: -o.num, den: o.den })
    }

    fn mul(self, o: Q) -> Result<Q, String> {
        Q::new(
            self.num.checked_mul(o.num).ok_or("overflow")?,
            self.den.checked_mul(o.den).ok_or("overflow")?,
        )
    }

    pub(crate) fn div(self, o: Q) -> Result<Q, String> {
        if o.num == 0 {
            return Err("division by zero".into());
        }
        Q::new(
            self.num.checked_mul(o.den).ok_or("overflow")?,
            self.den.checked_mul(o.num).ok_or("overflow")?,
        )
    }

    /// The value as a [`Rate`]; errs when it is negative or its terms do
    /// not fit a `u64` rational.
    pub(crate) fn rate(self) -> Result<Rate, String> {
        if self.num < 0 {
            return Err(format!("{}/{} is negative", self.num, self.den));
        }
        match (u64::try_from(self.num), u64::try_from(self.den)) {
            (Ok(num), Ok(den)) => Ok(Rate::new(num, den)),
            _ => Err(format!("{}/{} overflows a rate", self.num, self.den)),
        }
    }
}

impl From<Rate> for Q {
    fn from(r: Rate) -> Self {
        Self { num: r.num().into(), den: r.den().into() }
    }
}

/// The named quantities an expression may reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Var {
    N,
    K,
    Ell,
    KCycleThreshold,
    ObliviousThreshold,
    KCliqueThreshold,
    KCliqueLatencyRate,
    KSubsetsThreshold,
    GroupShare,
}

impl Var {
    fn lookup(name: &str) -> Option<Var> {
        Some(match name {
            "n" => Var::N,
            "k" => Var::K,
            "ell" => Var::Ell,
            "k_cycle_threshold" => Var::KCycleThreshold,
            "oblivious_threshold" => Var::ObliviousThreshold,
            "k_clique_threshold" => Var::KCliqueThreshold,
            "k_clique_latency_rate" => Var::KCliqueLatencyRate,
            "k_subsets_threshold" => Var::KSubsetsThreshold,
            "group_share" => Var::GroupShare,
            _ => return None,
        })
    }

    fn eval(self, env: &ExprEnv) -> Result<Q, String> {
        let (n, k) = (env.n as i128, env.k as i128);
        match self {
            Var::N => Ok(Q::int(n)),
            Var::K => Ok(Q::int(k)),
            Var::Ell => Ok(Q::int(env.ell()?)),
            Var::KCycleThreshold => Q::new(k - 1, n - 1),
            Var::ObliviousThreshold => Q::new(k, n),
            Var::KCliqueThreshold => Q::new(k * k, n * (2 * n - k)),
            Var::KCliqueLatencyRate => Q::new(k * k, 2 * n * (2 * n - k)),
            Var::KSubsetsThreshold => Q::new(k * (k - 1), n * (n - 1)),
            Var::GroupShare => Q::int(1).div(Q::int(env.ell()?)),
        }
        .map_err(|e| format!("{e} in {self:?} at n={}, k={}", env.n, env.k))
    }
}

#[derive(Clone, Debug)]
enum Node {
    Num(Q),
    Var(Var),
    Neg(Box<Node>),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    Mul(Box<Node>, Box<Node>),
    Div(Box<Node>, Box<Node>),
}

impl Node {
    fn eval(&self, env: &ExprEnv) -> Result<Q, String> {
        match self {
            Node::Num(q) => Ok(*q),
            Node::Var(v) => v.eval(env),
            Node::Neg(a) => Q::int(0).sub(a.eval(env)?),
            Node::Add(a, b) => a.eval(env)?.add(b.eval(env)?),
            Node::Sub(a, b) => a.eval(env)?.sub(b.eval(env)?),
            Node::Mul(a, b) => a.eval(env)?.mul(b.eval(env)?),
            Node::Div(a, b) => a.eval(env)?.div(b.eval(env)?),
        }
    }

    fn uses_env(&self) -> bool {
        match self {
            Node::Num(_) => false,
            Node::Var(_) => true,
            Node::Neg(a) => a.uses_env(),
            Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) | Node::Div(a, b) => {
                a.uses_env() || b.uses_env()
            }
        }
    }
}

/// A parsed derived-axis expression.
#[derive(Clone, Debug)]
pub struct Expr {
    node: Node,
    text: String,
}

impl Expr {
    /// Parse `text`; rejects empty input, unknown identifiers, and
    /// malformed arithmetic with a position-carrying message.
    pub fn parse(text: &str) -> Result<Expr, String> {
        let tokens = tokenize(text)?;
        let mut pos = 0;
        let node = parse_expr(&tokens, &mut pos)?;
        if pos != tokens.len() {
            return Err(format!("unexpected {:?} after expression in {text:?}", tokens[pos]));
        }
        Ok(Expr { node, text: text.to_string() })
    }

    /// Whether evaluation depends on the `(n, k)` environment; constant
    /// expressions can be resolved once at parse time.
    pub fn uses_env(&self) -> bool {
        self.node.uses_env()
    }

    /// The original source text (error messages, canonical serialization).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Evaluate to an exact non-negative [`Rate`] at one `(n, k)` point.
    pub fn eval(&self, env: &ExprEnv) -> Result<Rate, String> {
        let q = self.node.eval(env).map_err(|e| format!("{:?}: {e}", self.text))?;
        q.rate().map_err(|e| format!("{:?}: result {e} at n={}, k={}", self.text, env.n, env.k))
    }
}

/// A rate axis entry: a literal, or an expression resolved per expanded
/// point. [`Grid`](super::Grid) axes and frontier templates hold these.
#[derive(Clone, Debug)]
pub enum RateAxis {
    /// A fixed rate, identical at every point.
    Lit(Rate),
    /// A derived rate, evaluated per `(n, k)`.
    Expr(Expr),
}

impl RateAxis {
    /// The rate at one point.
    pub fn resolve(&self, env: &ExprEnv) -> Result<Rate, String> {
        match self {
            RateAxis::Lit(r) => Ok(*r),
            RateAxis::Expr(e) => e.eval(env),
        }
    }

    /// Canonical text form (used by spec digests and labels).
    pub fn text(&self) -> String {
        match self {
            RateAxis::Lit(r) => super::rate_str(*r),
            RateAxis::Expr(e) => e.text().to_string(),
        }
    }
}

impl From<Rate> for RateAxis {
    fn from(r: Rate) -> Self {
        RateAxis::Lit(r)
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Num(Q),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Open,
    Close,
}

fn tokenize(text: &str) -> Result<Vec<Token>, String> {
    let mut tokens = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' => i += 1,
            b'+' | b'-' | b'*' | b'/' | b'(' | b')' => {
                tokens.push(match b {
                    b'+' => Token::Plus,
                    b'-' => Token::Minus,
                    b'*' => Token::Star,
                    b'/' => Token::Slash,
                    b'(' => Token::Open,
                    _ => Token::Close,
                });
                i += 1;
            }
            b'0'..=b'9' | b'.' => {
                // Letters run into a number (`1e-3`) are read with it, so
                // the rate reader refuses the literal by name.
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'.') {
                    i += 1;
                }
                let rate: Rate = text[start..i].parse().map_err(|e| format!("{e} in {text:?}"))?;
                tokens.push(Token::Num(rate.into()));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token::Ident(text[start..i].to_string()));
            }
            other => return Err(format!("unexpected character {:?} in {text:?}", other as char)),
        }
    }
    if tokens.is_empty() {
        return Err("empty expression".into());
    }
    Ok(tokens)
}

fn parse_expr(tokens: &[Token], pos: &mut usize) -> Result<Node, String> {
    let mut node = parse_term(tokens, pos)?;
    while let Some(op) = tokens.get(*pos) {
        let make: fn(Box<Node>, Box<Node>) -> Node = match op {
            Token::Plus => Node::Add,
            Token::Minus => Node::Sub,
            _ => break,
        };
        *pos += 1;
        node = make(Box::new(node), Box::new(parse_term(tokens, pos)?));
    }
    Ok(node)
}

fn parse_term(tokens: &[Token], pos: &mut usize) -> Result<Node, String> {
    let mut node = parse_unary(tokens, pos)?;
    while let Some(op) = tokens.get(*pos) {
        let make: fn(Box<Node>, Box<Node>) -> Node = match op {
            Token::Star => Node::Mul,
            Token::Slash => Node::Div,
            _ => break,
        };
        *pos += 1;
        node = make(Box::new(node), Box::new(parse_unary(tokens, pos)?));
    }
    Ok(node)
}

fn parse_unary(tokens: &[Token], pos: &mut usize) -> Result<Node, String> {
    match tokens.get(*pos) {
        Some(Token::Minus) => {
            *pos += 1;
            Ok(Node::Neg(Box::new(parse_unary(tokens, pos)?)))
        }
        Some(Token::Open) => {
            *pos += 1;
            let inner = parse_expr(tokens, pos)?;
            match tokens.get(*pos) {
                Some(Token::Close) => {
                    *pos += 1;
                    Ok(inner)
                }
                _ => Err("missing closing parenthesis".into()),
            }
        }
        Some(Token::Num(q)) => {
            *pos += 1;
            Ok(Node::Num(*q))
        }
        Some(Token::Ident(name)) => {
            *pos += 1;
            match Var::lookup(name) {
                Some(v) => Ok(Node::Var(v)),
                None => Err(format!(
                    "unknown identifier {name:?} (known: n, k, ell, k_cycle_threshold, \
                     oblivious_threshold, k_clique_threshold, k_clique_latency_rate, \
                     k_subsets_threshold, group_share)"
                )),
            }
        }
        Some(other) => Err(format!("unexpected {other:?}")),
        None => Err("expression ends unexpectedly".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    fn eval(text: &str, n: usize, k: usize) -> Result<Rate, String> {
        Expr::parse(text)?.eval(&ExprEnv::new(n, k))
    }

    #[test]
    fn literals_and_arithmetic_are_exact() {
        assert_eq!(eval("1/2", 8, 3).unwrap(), Rate::new(1, 2));
        assert_eq!(eval("0.8", 8, 3).unwrap(), Rate::new(4, 5));
        assert_eq!(eval("0.25 * 2", 8, 3).unwrap(), Rate::new(1, 2));
        assert_eq!(eval("(1 + 2) / 4", 8, 3).unwrap(), Rate::new(3, 4));
        assert_eq!(eval("1 - 3/4", 8, 3).unwrap(), Rate::new(1, 4));
        // precedence: * binds tighter than +
        assert_eq!(eval("1/2 + 1/4 * 2", 8, 3).unwrap(), Rate::one());
        // double negation cancels
        assert_eq!(eval("--1/2", 8, 3).unwrap(), Rate::new(1, 2));
    }

    #[test]
    fn named_bounds_match_the_bounds_module() {
        for (n, k) in [(9u64, 3u64), (13, 4), (16, 4)] {
            let env = ExprEnv { n, k };
            let e = |t: &str| Expr::parse(t).unwrap().eval(&env).unwrap();
            assert_eq!(e("k_cycle_threshold"), bounds::k_cycle_rate_threshold(n, k));
            assert_eq!(e("oblivious_threshold"), bounds::oblivious_rate_threshold(n, k));
            assert_eq!(e("k_clique_threshold"), bounds::k_clique_rate_threshold(n, k));
            assert_eq!(e("k_clique_latency_rate"), bounds::k_clique_rate_for_latency(n, k));
            assert_eq!(e("k_subsets_threshold"), bounds::k_subsets_rate_threshold(n, k));
            assert_eq!(e("(k-1)/(n-1)"), bounds::k_cycle_rate_threshold(n, k));
        }
        // n=9, k=3: l = ceil(9/2) = 5, group share 1/5 < (k-1)/(n-1) = 1/4
        assert_eq!(eval("ell", 9, 3).unwrap(), Rate::integer(5));
        assert_eq!(eval("group_share", 9, 3).unwrap(), Rate::new(1, 5));
        assert_eq!(eval("0.8 * k_cycle_threshold", 9, 3).unwrap(), Rate::new(1, 5));
    }

    #[test]
    fn division_by_zero_is_rejected() {
        assert!(eval("1/0", 8, 3).unwrap_err().contains("division by zero"));
        assert!(eval("1/(n-8)", 8, 3).unwrap_err().contains("division by zero"));
        assert!(eval("k / (n - n)", 8, 3).unwrap_err().contains("division by zero"));
    }

    #[test]
    fn parse_errors_name_the_problem() {
        assert!(Expr::parse("").unwrap_err().contains("empty"));
        assert!(Expr::parse("0.8 *").unwrap_err().contains("ends unexpectedly"));
        assert!(Expr::parse("(1 + 2").unwrap_err().contains("closing parenthesis"));
        assert!(Expr::parse("1 2").unwrap_err().contains("after expression"));
        assert!(Expr::parse("rho * 2").unwrap_err().contains("unknown identifier"));
        assert!(Expr::parse("1 @ 2").unwrap_err().contains("unexpected character"));
        assert!(Expr::parse("1e-3 * k").unwrap_err().contains("\"1e\" has an exponent"));
        assert!(Expr::parse("1.2.3").unwrap_err().contains("not P/Q or a non-negative decimal"));
    }

    #[test]
    fn negative_results_and_bad_geometries_are_rejected() {
        assert!(eval("-1/2", 8, 3).unwrap_err().contains("negative"));
        assert!(eval("group_share - 1", 9, 3).unwrap_err().contains("negative"));
        // ell needs a k-Cycle-hostable geometry
        assert!(eval("ell", 2, 3).unwrap_err().contains("n >= 3"));
        assert!(eval("ell", 3, 1).unwrap_err().contains("cap"));
    }

    #[test]
    fn ell_is_the_group_count_k_cycle_builds() {
        for n in 3..=64 {
            for k in 0..=n {
                let ell = ExprEnv::new(n, k).ell();
                match std::panic::catch_unwind(|| crate::KCycle::new(k).params(n).groups()) {
                    Ok(groups) => assert_eq!(ell, Ok(groups as i128), "n={n}, k={k}"),
                    Err(_) => assert!(ell.unwrap_err().contains("effective cap"), "n={n}, k={k}"),
                }
            }
        }
    }

    #[test]
    fn uses_env_distinguishes_constants() {
        assert!(!Expr::parse("3/4 + 0.1").unwrap().uses_env());
        assert!(Expr::parse("0.8 * k_cycle_threshold").unwrap().uses_env());
        assert!(Expr::parse("n").unwrap().uses_env());
    }

    #[test]
    fn rate_axis_resolves_both_forms() {
        let env = ExprEnv::new(9, 3);
        assert_eq!(RateAxis::Lit(Rate::new(1, 5)).resolve(&env).unwrap(), Rate::new(1, 5));
        let ax = RateAxis::Expr(Expr::parse("group_share").unwrap());
        assert_eq!(ax.resolve(&env).unwrap(), Rate::new(1, 5));
        assert_eq!(ax.text(), "group_share");
        assert_eq!(RateAxis::from(Rate::new(3, 2)).text(), "3/2");
    }
}
