//! The semantic-template language of §3.2.
//!
//! A template is a `→`-separated sequence of *context atoms*; each atom
//! is a context symbol (𝒮 statement, 𝐵 block, 𝐹 function, 𝑀 macro)
//! subscripted with either a semantic name (`start`, `end`, `error`) or
//! an operator expression (𝒢, 𝒫, 𝒜, 𝒟, ℒ, 𝒰 with optional nesting `∘`
//! and pointer parameters `p0`, `p1`, ...).

use std::fmt;

/// Semantic operators (§3.2 "Semantic Operators").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// 𝒢 — refcount increment.
    G,
    /// 𝒢_E — increment that also increments on error return (§5.1.1).
    GE,
    /// 𝒢_N — increment that may return NULL (§5.1.2).
    GN,
    /// 𝒢_H — hidden increment (refcounting-embedded API, §5.2).
    GH,
    /// 𝒫 — refcount decrement.
    P,
    /// 𝒫_H — hidden decrement (embedded in a find-like API, §5.2.2).
    PH,
    /// 𝒜 — assignment.
    A,
    /// 𝒜_{G|O} — escaping assignment to a global or out parameter
    /// (§5.4.2).
    AEsc,
    /// 𝒟 — pointer dereference.
    D,
    /// 𝒟_N — dereference without a NULL check (§5.1.3).
    DN,
    /// ℒ — lock.
    L,
    /// 𝒰 — unlock.
    U,
    /// `kfree`-style direct free (§5.3.3).
    Free,
}

impl Operator {
    /// The ASCII spelling used in the text syntax.
    pub fn as_str(&self) -> &'static str {
        match self {
            Operator::G => "G",
            Operator::GE => "G_E",
            Operator::GN => "G_N",
            Operator::GH => "G_H",
            Operator::P => "P",
            Operator::PH => "P_H",
            Operator::A => "A",
            Operator::AEsc => "A_GO",
            Operator::D => "D",
            Operator::DN => "D_N",
            Operator::L => "L",
            Operator::U => "U",
            Operator::Free => "free",
        }
    }

    /// The paper's mathematical rendering.
    pub fn pretty(&self) -> &'static str {
        match self {
            Operator::G => "𝒢",
            Operator::GE => "𝒢_E",
            Operator::GN => "𝒢_N",
            Operator::GH => "𝒢_H",
            Operator::P => "𝒫",
            Operator::PH => "𝒫_H",
            Operator::A => "𝒜",
            Operator::AEsc => "𝒜_{G|O}",
            Operator::D => "𝒟",
            Operator::DN => "𝒟_N",
            Operator::L => "ℒ",
            Operator::U => "𝒰",
            Operator::Free => "free",
        }
    }

    /// Parses the ASCII spelling.
    ///
    /// Not the `FromStr` trait: an unknown spelling is an ordinary
    /// `None`, not an error type.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Operator> {
        Some(match s {
            "G" => Operator::G,
            "G_E" | "GE" => Operator::GE,
            "G_N" | "GN" => Operator::GN,
            "G_H" | "GH" => Operator::GH,
            "P" => Operator::P,
            "P_H" | "PH" => Operator::PH,
            "A" => Operator::A,
            "A_GO" | "AGO" | "A_G|O" => Operator::AEsc,
            "D" => Operator::D,
            "D_N" | "DN" => Operator::DN,
            "L" => Operator::L,
            "U" => Operator::U,
            "free" => Operator::Free,
            _ => return None,
        })
    }
}

/// An operator expression: an operator, possibly nested (`U∘D`), with an
/// optional pointer parameter (`p0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSpec {
    /// The outer operator.
    pub op: Operator,
    /// A nested operator (the `∘` composition), if any.
    pub nested: Option<Box<OpSpec>>,
    /// The bound pointer parameter name (`p0`), if any.
    pub param: Option<String>,
}

impl OpSpec {
    /// A bare operator.
    pub fn new(op: Operator) -> OpSpec {
        OpSpec {
            op,
            nested: None,
            param: None,
        }
    }

    /// Adds a pointer parameter.
    pub fn with_param(mut self, p: impl Into<String>) -> OpSpec {
        self.param = Some(p.into());
        self
    }

    /// Nests another operator under this one (`self ∘ inner`).
    pub fn nesting(mut self, inner: OpSpec) -> OpSpec {
        self.nested = Some(Box::new(inner));
        self
    }

    /// All operators in the composition, outermost first.
    pub fn operators(&self) -> Vec<Operator> {
        let mut out = vec![self.op];
        let mut cur = &self.nested;
        while let Some(spec) = cur {
            out.push(spec.op);
            cur = &spec.nested;
        }
        out
    }

    /// The parameter bound anywhere in the composition.
    pub fn bound_param(&self) -> Option<&str> {
        if let Some(p) = &self.param {
            return Some(p);
        }
        self.nested.as_ref().and_then(|n| n.bound_param())
    }
}

/// Context symbols (§3.2 "Contexts").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextKind {
    /// 𝒮 — a statement.
    Stmt,
    /// 𝐵 — a basic block.
    Block,
    /// 𝐹 — a function.
    Func,
    /// 𝑀 — a macro.
    Macro,
}

impl ContextKind {
    fn letter(&self) -> char {
        match self {
            ContextKind::Stmt => 'S',
            ContextKind::Block => 'B',
            ContextKind::Func => 'F',
            ContextKind::Macro => 'M',
        }
    }

    fn pretty(&self) -> char {
        match self {
            ContextKind::Stmt => '𝒮',
            ContextKind::Block => '𝐵',
            ContextKind::Func => '𝐹',
            ContextKind::Macro => '𝑀',
        }
    }
}

/// The subscript attached to a context symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subscript {
    /// `start` — function entry.
    Start,
    /// `end` — function exit.
    End,
    /// `error` — an error-handling block.
    Error,
    /// `break` — leaving a loop early: a `break`, or a `goto` or
    /// `return` inside a loop.
    Break,
    /// `SL` — a smartloop macro.
    SmartLoop,
    /// An operator expression.
    Op(OpSpec),
    /// Any other semantic name.
    Named(String),
}

/// A single template atom: context + subscript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The context symbol.
    pub ctx: ContextKind,
    /// Its subscript.
    pub sub: Subscript,
}

impl Atom {
    /// Creates an atom.
    pub fn new(ctx: ContextKind, sub: Subscript) -> Atom {
        Atom { ctx, sub }
    }
}

/// A complete semantic template: an execution path of atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// The atoms, in path order.
    pub atoms: Vec<Atom>,
}

impl Template {
    /// Creates a template from atoms.
    pub fn new(atoms: Vec<Atom>) -> Template {
        Template { atoms }
    }

    /// All distinct parameter names bound in the template, in order of
    /// first use.
    pub fn params(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for atom in &self.atoms {
            if let Subscript::Op(spec) = &atom.sub {
                if let Some(p) = spec.bound_param() {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Template {
    /// Renders the template in its ASCII text syntax (parseable back by
    /// [`parse_template`](crate::parse_template)).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}_", atom.ctx.letter())?;
            match &atom.sub {
                Subscript::Start => write!(f, "start")?,
                Subscript::End => write!(f, "end")?,
                Subscript::Error => write!(f, "error")?,
                Subscript::Break => write!(f, "break")?,
                Subscript::SmartLoop => write!(f, "SL")?,
                Subscript::Named(n) => write!(f, "{n}")?,
                Subscript::Op(spec) => write_spec(f, spec, false)?,
            }
        }
        Ok(())
    }
}

fn write_spec(f: &mut fmt::Formatter<'_>, spec: &OpSpec, pretty: bool) -> fmt::Result {
    let render = |op: &Operator| {
        if pretty {
            op.pretty().to_string()
        } else {
            op.as_str().to_string()
        }
    };
    // Simple single-letter operators use the shorthand `S_P(p0)`;
    // underscored names and compositions are braced, with any parameter
    // outside: `S_{G_E}`, `S_{U.D}(p0)`.
    let simple = spec.nested.is_none() && !spec.op.as_str().contains('_') && !pretty;
    if simple {
        write!(f, "{}", render(&spec.op))?;
    } else {
        write!(f, "{{{}", render(&spec.op))?;
        let mut cur = &spec.nested;
        while let Some(inner) = cur {
            write!(f, "{}{}", if pretty { "∘" } else { "." }, render(&inner.op))?;
            cur = &inner.nested;
        }
        write!(f, "}}")?;
    }
    if let Some(p) = spec.bound_param() {
        write!(f, "({p})")?;
    }
    Ok(())
}

/// Renders a template in the paper's mathematical notation, e.g.
/// `𝐹_start → 𝒮_{𝒫}(p0) → 𝒮_{𝒰∘𝒟}(p0) → 𝐹_end`.
pub fn pretty(t: &Template) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, atom) in t.atoms.iter().enumerate() {
        if i > 0 {
            out.push_str(" → ");
        }
        out.push(atom.ctx.pretty());
        out.push('_');
        match &atom.sub {
            Subscript::Start => out.push_str("start"),
            Subscript::End => out.push_str("end"),
            Subscript::Error => out.push_str("error"),
            Subscript::Break => out.push_str("break"),
            Subscript::SmartLoop => out.push_str("𝒮ℒ"),
            Subscript::Named(n) => out.push_str(n),
            Subscript::Op(spec) => {
                let _ = write!(out, "{}", PrettySpec(spec));
            }
        }
    }
    out
}

struct PrettySpec<'a>(&'a OpSpec);

impl fmt::Display for PrettySpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_spec(f, self.0, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_round_trip() {
        for op in [
            Operator::G,
            Operator::GE,
            Operator::GN,
            Operator::P,
            Operator::DN,
            Operator::AEsc,
        ] {
            assert_eq!(Operator::from_str(op.as_str()), Some(op));
        }
    }

    #[test]
    fn opspec_composition() {
        let spec = OpSpec::new(Operator::U).nesting(OpSpec::new(Operator::D).with_param("p0"));
        assert_eq!(spec.operators(), vec![Operator::U, Operator::D]);
        assert_eq!(spec.bound_param(), Some("p0"));
    }

    #[test]
    fn template_params() {
        let t = Template::new(vec![
            Atom::new(ContextKind::Func, Subscript::Start),
            Atom::new(
                ContextKind::Stmt,
                Subscript::Op(OpSpec::new(Operator::P).with_param("p0")),
            ),
            Atom::new(
                ContextKind::Stmt,
                Subscript::Op(OpSpec::new(Operator::D).with_param("p0")),
            ),
            Atom::new(ContextKind::Func, Subscript::End),
        ]);
        assert_eq!(t.params(), vec!["p0"]);
    }

    #[test]
    fn display_ascii() {
        let t = Template::new(vec![
            Atom::new(ContextKind::Func, Subscript::Start),
            Atom::new(ContextKind::Stmt, Subscript::Op(OpSpec::new(Operator::GE))),
            Atom::new(ContextKind::Block, Subscript::Error),
            Atom::new(ContextKind::Func, Subscript::End),
        ]);
        assert_eq!(t.to_string(), "F_start -> S_{G_E} -> B_error -> F_end");
    }

    #[test]
    fn pretty_rendering() {
        let t = Template::new(vec![
            Atom::new(ContextKind::Func, Subscript::Start),
            Atom::new(
                ContextKind::Stmt,
                Subscript::Op(
                    OpSpec::new(Operator::U).nesting(OpSpec::new(Operator::D).with_param("p0")),
                ),
            ),
            Atom::new(ContextKind::Func, Subscript::End),
        ]);
        let p = pretty(&t);
        assert!(p.contains('𝒰'));
        assert!(p.contains('∘'));
        assert!(p.contains("(p0)"));
    }
}
