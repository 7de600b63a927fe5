//! Text parser for the semantic-template syntax.
//!
//! Grammar (ASCII form of the paper's notation):
//!
//! ```text
//! template  := atom (`->` atom)*
//! atom      := ctx `_` subscript
//! ctx       := `F` | `S` | `B` | `M`
//! subscript := `{` spec `}` | word [`(` param `)`]
//! spec      := op (`.` op)* [`(` param `)`]
//! op        := `G` | `G_E` | `G_N` | `G_H` | `P` | `P_H` | `A`
//!            | `A_GO` | `D` | `D_N` | `L` | `U` | `free`
//! word      := `start` | `end` | `error` | `break` | `SL` | ident
//! ```

use crate::ast::{Atom, ContextKind, OpSpec, Operator, Subscript, Template};

/// A template-syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateParseError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TemplateParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "template syntax error: {}", self.message)
    }
}

impl std::error::Error for TemplateParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, TemplateParseError> {
    Err(TemplateParseError {
        message: message.into(),
    })
}

/// Parses a template from its text syntax.
///
/// # Examples
///
/// ```
/// use refminer_template::parse_template;
///
/// let t = parse_template("F_start -> S_{G_E} -> B_error -> F_end").unwrap();
/// assert_eq!(t.atoms.len(), 4);
/// assert_eq!(t.to_string(), "F_start -> S_{G_E} -> B_error -> F_end");
/// ```
pub fn parse_template(text: &str) -> Result<Template, TemplateParseError> {
    let mut atoms = Vec::new();
    for part in text.split("->") {
        let part = part.trim();
        if part.is_empty() {
            return err("empty atom");
        }
        atoms.push(parse_atom(part)?);
    }
    Ok(Template::new(atoms))
}

fn parse_atom(text: &str) -> Result<Atom, TemplateParseError> {
    let mut chars = text.chars();
    let ctx = match chars.next() {
        Some('F') => ContextKind::Func,
        Some('S') => ContextKind::Stmt,
        Some('B') => ContextKind::Block,
        Some('M') => ContextKind::Macro,
        other => return err(format!("unknown context symbol {other:?} in `{text}`")),
    };
    let rest: String = chars.collect();
    let Some(sub_text) = rest.strip_prefix('_') else {
        return err(format!("missing `_` after context in `{text}`"));
    };
    let sub = parse_subscript(sub_text)?;
    Ok(Atom::new(ctx, sub))
}

fn parse_subscript(text: &str) -> Result<Subscript, TemplateParseError> {
    if let Some(inner) = text.strip_prefix('{') {
        // `{spec}` with an optional `(param)` suffix outside the braces
        // (`S_{U.D}(p0)`).
        let Some(close) = inner.find('}') else {
            return err(format!("unclosed `{{` in `{text}`"));
        };
        let mut spec = parse_spec(&inner[..close])?;
        let suffix = inner[close + 1..].trim();
        if !suffix.is_empty() {
            let Some(param) = suffix.strip_prefix('(').and_then(|s| s.strip_suffix(')')) else {
                return err(format!("malformed parameter suffix in `{text}`"));
            };
            attach_param(&mut spec, param);
        }
        return Ok(Subscript::Op(spec));
    }
    // `word` or `word(param)`.
    let (word, param) = split_param(text)?;
    let sub = match word {
        "start" => Subscript::Start,
        "end" => Subscript::End,
        "error" => Subscript::Error,
        "break" => Subscript::Break,
        "SL" => Subscript::SmartLoop,
        w => {
            // Single-letter operator shorthand: `S_G`, `S_P(p0)`.
            if let Some(op) = Operator::from_str(w) {
                let mut spec = OpSpec::new(op);
                if let Some(p) = param {
                    spec = spec.with_param(p);
                }
                return Ok(Subscript::Op(spec));
            }
            Subscript::Named(w.to_string())
        }
    };
    if param.is_some() {
        return err(format!("parameter not allowed on `{word}`"));
    }
    Ok(sub)
}

/// Splits `word(param)` into `(word, Some(param))`.
fn split_param(text: &str) -> Result<(&str, Option<&str>), TemplateParseError> {
    match text.find('(') {
        None => Ok((text, None)),
        Some(open) => {
            let Some(inner) = text[open..]
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
            else {
                return err(format!("malformed parameter in `{text}`"));
            };
            Ok((&text[..open], Some(inner)))
        }
    }
}

/// Attaches a parameter to the innermost operator of a spec chain.
fn attach_param(spec: &mut OpSpec, param: &str) {
    let mut cur = spec;
    while let Some(inner) = cur.nested.as_deref_mut() {
        cur = inner;
    }
    cur.param = Some(param.to_string());
}

fn parse_spec(text: &str) -> Result<OpSpec, TemplateParseError> {
    let (ops_text, param) = split_param(text.trim())?;
    let mut specs: Vec<OpSpec> = Vec::new();
    for op_text in ops_text.split('.') {
        let op_text = op_text.trim();
        let Some(op) = Operator::from_str(op_text) else {
            return err(format!("unknown operator `{op_text}`"));
        };
        specs.push(OpSpec::new(op));
    }
    if specs.is_empty() {
        return err("empty operator spec");
    }
    // Attach the parameter to the innermost operator.
    if let Some(p) = param {
        if let Some(last) = specs.last_mut() {
            last.param = Some(p.to_string());
        }
    }
    // Fold right-to-left into a nesting chain.
    let mut iter = specs.into_iter().rev();
    let mut acc = iter.next().expect("non-empty checked above");
    for mut outer in iter {
        outer.nested = Some(Box::new(acc));
        acc = outer;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::pretty;
    use refminer_checkers::AntiPattern;

    #[test]
    fn parses_listing1_template() {
        let t = parse_template("F_start -> S_G -> B_error -> F_end").unwrap();
        assert_eq!(t.atoms.len(), 4);
        assert_eq!(t.atoms[0].sub, Subscript::Start);
        assert!(matches!(&t.atoms[1].sub, Subscript::Op(s) if s.op == Operator::G));
        assert_eq!(t.atoms[2].sub, Subscript::Error);
    }

    #[test]
    fn parses_listing2_template() {
        let t = parse_template("F_start -> S_P(p0) -> S_{U.D}(p0) -> F_end").unwrap();
        assert_eq!(t.params(), vec!["p0"]);
        match &t.atoms[2].sub {
            Subscript::Op(spec) => {
                assert_eq!(spec.operators(), vec![Operator::U, Operator::D]);
                assert_eq!(spec.bound_param(), Some("p0"));
            }
            other => panic!("expected op, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_display() {
        for text in [
            "F_start -> S_{G_E} -> B_error -> F_end",
            "F_start -> S_{G_N} -> S_{D_N} -> F_end",
            "F_start -> M_SL -> S_break -> F_end",
            "F_start -> S_P(p0) -> S_D(p0) -> F_end",
        ] {
            let t = parse_template(text).unwrap();
            assert_eq!(t.to_string(), text, "round trip failed for {text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_template("X_start").is_err());
        assert!(parse_template("F_start -> ").is_err());
        assert!(parse_template("S_{QQ}").is_err());
        assert!(parse_template("Sstart").is_err());
        assert!(parse_template("F_start(p0)").is_err());
    }

    #[test]
    fn all_nine_anti_patterns_parse() {
        let all: Vec<(&str, Template)> = AntiPattern::all()
            .iter()
            .map(|p| (p.id(), parse_template(p.template_text()).unwrap()))
            .collect();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0].0, "P1");
        assert_eq!(all[7].1.params(), vec!["p0"]);
    }

    #[test]
    fn pretty_renders_math() {
        let t = parse_template("F_start -> S_{G_E} -> B_error -> F_end").unwrap();
        let p = pretty(&t);
        assert!(p.contains('𝐹'));
        assert!(p.contains("𝒢_E"));
        assert!(p.contains('→'));
    }
}
