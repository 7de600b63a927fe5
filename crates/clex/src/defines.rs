//! Structured scanning of `#define` directives.
//!
//! The paper's "lexer parsing" stage (§6.1) extracts macro-defined
//! *smartloops* — `for_each_*` macros whose expansion hides refcounting
//! operations — directly from preprocessor lines, without expanding them.
//! This module provides that capability: it parses a `#define` logical
//! line into name, parameter list and body text.

use crate::token::{PpKind, Token, TokenKind};
use crate::Lexer;

/// A parsed `#define` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroDef {
    /// The macro name.
    pub name: String,
    /// Parameter names for function-like macros; `None` for object-like.
    pub params: Option<Vec<String>>,
    /// The replacement text, whitespace-normalized.
    pub body: String,
    /// 1-based line where the directive starts.
    pub line: u32,
}

impl MacroDef {
    /// Parses the raw text of a `#define` logical line.
    ///
    /// Returns `None` if the line is not a well-formed define.
    ///
    /// # Examples
    ///
    /// ```
    /// use refminer_clex::MacroDef;
    ///
    /// let m = MacroDef::parse("#define MAX(a, b) ((a) > (b) ? (a) : (b))", 1).unwrap();
    /// assert_eq!(m.name, "MAX");
    /// assert_eq!(m.params.as_deref(), Some(&["a".to_string(), "b".to_string()][..]));
    /// ```
    pub fn parse(raw: &str, line: u32) -> Option<MacroDef> {
        let rest = raw.trim_start().strip_prefix('#')?.trim_start();
        let rest = rest.strip_prefix("define")?;
        // Require whitespace after `define` so `#defined` is rejected.
        let rest = rest.strip_prefix(|c: char| c.is_whitespace())?.trim_start();
        let name_end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if name_end == 0 {
            return None;
        }
        let name = rest[..name_end].to_string();
        let after = &rest[name_end..];
        // Function-like only when `(` immediately follows the name.
        if let Some(parm_text) = after.strip_prefix('(') {
            let close = find_matching_paren(parm_text)?;
            let params: Vec<String> = parm_text[..close]
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            let body = normalize_ws(&parm_text[close + 1..]);
            Some(MacroDef {
                name,
                params: Some(params),
                body,
                line,
            })
        } else {
            Some(MacroDef {
                name,
                params: None,
                body: normalize_ws(after),
                line,
            })
        }
    }

    /// The define a lexed `#define` directive token carries, if it is
    /// one and is well formed.
    pub(crate) fn of_token(tok: &Token) -> Option<MacroDef> {
        match &tok.kind {
            TokenKind::PpDirective {
                kind: PpKind::Define,
                raw,
            } => MacroDef::parse(raw, tok.span.line),
            _ => None,
        }
    }

    /// Whether the macro looks like an iteration macro ("smartloop"):
    /// a function-like macro whose name contains a `for_each` stem and
    /// whose body begins with a `for` loop.
    pub fn is_loop_macro(&self) -> bool {
        if self.params.is_none() {
            return false;
        }
        let name_says_loop = self.name.contains("for_each") || self.name.starts_with("foreach");
        let body_is_for = self.body.starts_with("for ") || self.body.starts_with("for(");
        name_says_loop && body_is_for
    }

    /// Function names called inside the macro body, in textual order.
    ///
    /// Used by the discovery stage to see which (possibly refcounting)
    /// APIs a smartloop expansion invokes.
    pub fn called_functions(&self) -> Vec<String> {
        let toks = Lexer::new(&self.body).tokenize();
        let mut out = Vec::new();
        for w in toks.windows(2) {
            if let (TokenKind::Ident(name), kind) = (&w[0].kind, &w[1].kind) {
                if kind.is_punct(crate::Punct::LParen) {
                    out.push(name.to_string());
                }
            }
        }
        out
    }
}

/// Scans a whole source text for `#define` directives, with a lex of its
/// own and no token cap. A caller that lexes the text anyway gets the
/// same list from [`Lexer::tokenize_limited_with_defines`] unless that
/// lex was truncated; the audit scans only such truncated units.
///
/// # Examples
///
/// ```
/// use refminer_clex::scan_defines;
///
/// let src = "#define A 1\nint x;\n#define F(y) (y+1)\n";
/// let defs = scan_defines(src);
/// assert_eq!(defs.len(), 2);
/// assert_eq!(defs[1].name, "F");
/// ```
pub fn scan_defines(src: &str) -> Vec<MacroDef> {
    Lexer::new(src)
        .tokenize()
        .iter()
        .filter_map(MacroDef::of_token)
        .collect()
}

/// Finds the index of the `)` matching the `(` that precedes `text`.
fn find_matching_paren(text: &str) -> Option<usize> {
    let mut depth = 1usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Collapses runs of whitespace to single spaces and trims the ends.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_object_like() {
        let m = MacroDef::parse("#define PAGE_SIZE 4096", 1).unwrap();
        assert_eq!(m.name, "PAGE_SIZE");
        assert!(m.params.is_none());
        assert_eq!(m.body, "4096");
    }

    #[test]
    fn parses_function_like() {
        let m = MacroDef::parse("#define MIN(a,b) ((a)<(b)?(a):(b))", 1).unwrap();
        assert_eq!(m.params.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn parses_zero_arg_function_like() {
        let m = MacroDef::parse("#define NOW() jiffies", 1).unwrap();
        assert_eq!(m.params.as_deref(), Some(&[][..]));
    }

    #[test]
    fn rejects_non_define() {
        assert!(MacroDef::parse("#include <x.h>", 1).is_none());
        assert!(MacroDef::parse("not a directive", 1).is_none());
    }

    #[test]
    fn space_before_paren_means_object_like() {
        let m = MacroDef::parse("#define X (1+2)", 1).unwrap();
        assert!(m.params.is_none());
        assert_eq!(m.body, "(1+2)");
    }

    #[test]
    fn detects_smartloop() {
        let m = MacroDef::parse(
            "#define for_each_matching_node(dn, matches) \
             for (dn = of_find_matching_node(NULL, matches); dn; \
             dn = of_find_matching_node(dn, matches))",
            1,
        )
        .unwrap();
        assert!(m.is_loop_macro());
        let calls = m.called_functions();
        assert_eq!(calls[0], "of_find_matching_node");
    }

    #[test]
    fn non_loop_function_macro_is_not_smartloop() {
        let m = MacroDef::parse("#define GET(x) get_device(x)", 1).unwrap();
        assert!(!m.is_loop_macro());
        assert_eq!(m.called_functions(), vec!["get_device".to_string()]);
    }

    #[test]
    fn scan_over_multiline_source() {
        let src = "\
#define for_each_child_of_node(parent, child) \\
\tfor (child = of_get_next_child(parent, NULL); child != NULL; \\
\t     child = of_get_next_child(parent, child))
struct device_node;
";
        let defs = scan_defines(src);
        assert_eq!(defs.len(), 1);
        assert!(defs[0].is_loop_macro());
        assert!(defs[0]
            .called_functions()
            .contains(&"of_get_next_child".to_string()));
    }
}
