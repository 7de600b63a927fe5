//! The diff side of incomplete-fix detection (the paper's §6
//! observation that refcount fixes routinely patch one error path or
//! one call site and leave the sibling sites buggy).
//!
//! The crate reads fix diffs; it never audits or sweeps:
//!
//! * a minimal unified-diff model ([`FixDiff`], [`FileDiff`],
//!   [`Hunk`]) with a parser that accepts standard `diff -u` /
//!   `diff -ru` output, including `a/`/`b/` and directory path
//!   prefixes;
//! * [`FileDiff::reverse_apply`], which reconstructs the *pre-fix*
//!   text of a file from its post-fix text so both sides of the fix
//!   can be audited without needing the old tree on disk;
//! * [`render_file_diff`], a matching renderer (used by the evaluator
//!   to derive a fix diff from two trees) that round-trips through the
//!   parser and `reverse_apply`;
//! * [`infer_intents`] and [`intent_covers`], which read the changed
//!   lines through the refcount-API knowledge base to name the
//!   acquire/release pair the fix is about.
//!
//! Auditing both sides, the findings delta and the left-behind sweep
//! live in `refminer` (core), which runs a fix through the same
//! revision-delta path as `refminer diff`.

use refminer_checkers::Finding;
use refminer_json::{obj, ToJson, Value};
use refminer_rcapi::{ApiKb, RcDir};

/// One `@@` hunk: a contiguous run of context/removed/added lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hunk {
    /// 1-based first line of the hunk in the old file (0 when the old
    /// range is empty, per unified-diff convention).
    pub old_start: usize,
    /// Number of old-file lines the hunk covers.
    pub old_len: usize,
    /// 1-based first line of the hunk in the new file (0 when empty).
    pub new_start: usize,
    /// Number of new-file lines the hunk covers.
    pub new_len: usize,
    /// Hunk body: `(' ', line)` context, `('-', line)` removed,
    /// `('+', line)` added.
    pub lines: Vec<(char, String)>,
}

/// All hunks touching one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDiff {
    /// Old-side path with `a/` stripped; `/dev/null` for added files.
    pub old_path: String,
    /// New-side path with `b/` stripped; `/dev/null` for deleted files.
    pub new_path: String,
    /// Hunks in file order.
    pub hunks: Vec<Hunk>,
}

/// A parsed fix diff: one entry per touched file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FixDiff {
    /// Per-file diffs in input order.
    pub files: Vec<FileDiff>,
}

impl FileDiff {
    /// The path to look the file up under: the new-side path unless
    /// the file was deleted by the fix.
    pub fn path(&self) -> &str {
        if self.new_path == "/dev/null" {
            &self.old_path
        } else {
            &self.new_path
        }
    }

    /// True when the fix created this file (it has no pre-fix text).
    pub fn is_added(&self) -> bool {
        self.old_path == "/dev/null"
    }

    /// True when the fix deleted this file.
    pub fn is_deleted(&self) -> bool {
        self.new_path == "/dev/null"
    }

    /// Reconstructs the pre-fix text of the file from its post-fix
    /// text by applying the hunks in reverse: context and added lines
    /// are verified against `post`, removed lines are re-inserted.
    ///
    /// Errors when the diff does not match `post` (wrong tree, stale
    /// diff), naming the first mismatching line.
    pub fn reverse_apply(&self, post: &str) -> Result<String, String> {
        let post_lines: Vec<&str> = post.lines().collect();
        let mut out: Vec<String> = Vec::new();
        let mut cursor = 0usize; // index into post_lines
        for hunk in &self.hunks {
            // Unified-diff convention: a zero-length range's start is
            // the line *before* the hunk, so the 0-based insertion
            // index equals the start; non-empty ranges are 1-based.
            let at = if hunk.new_len == 0 {
                hunk.new_start
            } else {
                hunk.new_start.saturating_sub(1)
            };
            if at < cursor || at > post_lines.len() {
                return Err(format!(
                    "hunk @@ +{},{} is out of order or past the end of {}",
                    hunk.new_start,
                    hunk.new_len,
                    self.path()
                ));
            }
            out.extend(post_lines[cursor..at].iter().map(|s| s.to_string()));
            cursor = at;
            for (tag, text) in &hunk.lines {
                match tag {
                    ' ' | '+' => {
                        let got = post_lines.get(cursor).copied().unwrap_or_default();
                        if got != text {
                            return Err(format!(
                                "diff does not apply to {}: line {} is {:?}, diff expects {:?}",
                                self.path(),
                                cursor + 1,
                                got,
                                text
                            ));
                        }
                        if *tag == ' ' {
                            out.push(text.clone());
                        }
                        cursor += 1;
                    }
                    '-' => out.push(text.clone()),
                    other => {
                        return Err(format!("unexpected hunk line tag {other:?}"));
                    }
                }
            }
        }
        out.extend(post_lines[cursor..].iter().map(|s| s.to_string()));
        let mut text = out.join("\n");
        if post.ends_with('\n') || (post.is_empty() && !text.is_empty()) {
            text.push('\n');
        }
        Ok(text)
    }
}

/// Strips the conventional `a/` / `b/` prefix from a diff path.
fn strip_ab(path: &str) -> &str {
    path.strip_prefix("a/")
        .or_else(|| path.strip_prefix("b/"))
        .unwrap_or(path)
}

/// Takes the path out of a `---` / `+++` header line: everything up to
/// the first tab (GNU diff appends a timestamp after one).
fn header_path(rest: &str) -> String {
    let trimmed = rest.trim_start();
    let end = trimmed.find('\t').unwrap_or(trimmed.len());
    strip_ab(trimmed[..end].trim_end()).to_string()
}

/// Parses an `@@ -a,b +c,d @@` range header. The `,len` parts default
/// to 1 when omitted, per the format.
fn parse_hunk_header(line: &str) -> Option<(usize, usize, usize, usize)> {
    let body = line.strip_prefix("@@ ")?;
    let end = body.find(" @@")?;
    let mut parts = body[..end].split(' ');
    let old = parts.next()?.strip_prefix('-')?;
    let new = parts.next()?.strip_prefix('+')?;
    let parse_range = |s: &str| -> Option<(usize, usize)> {
        match s.split_once(',') {
            Some((a, b)) => Some((a.parse().ok()?, b.parse().ok()?)),
            None => Some((s.parse().ok()?, 1)),
        }
    };
    let (os, ol) = parse_range(old)?;
    let (ns, nl) = parse_range(new)?;
    Some((os, ol, ns, nl))
}

/// Parses unified-diff text into a [`FixDiff`].
///
/// Accepts plain `diff -u` output, recursive `diff -ru` output
/// (`diff`/`Only in` noise lines are skipped), and git-style diffs
/// with `a/`/`b/` prefixes. Hunk bodies are consumed by the counts in
/// the `@@` header, so removed lines that themselves start with `---`
/// cannot be mistaken for a new file header.
///
/// Errors when the text contains no hunks at all, or a hunk body is
/// truncated or malformed.
pub fn parse_diff(text: &str) -> Result<FixDiff, String> {
    let mut files: Vec<FileDiff> = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(old_rest) = line.strip_prefix("--- ") else {
            // `diff -ru file file` separators, `Only in`, index lines,
            // commit-message prose before the first header: all noise.
            continue;
        };
        let Some(new_line) = lines.peek() else {
            return Err("diff ends after a `---` header".to_string());
        };
        let Some(new_rest) = new_line.strip_prefix("+++ ") else {
            continue; // a `---` that is not a file header (e.g. prose)
        };
        let file = FileDiff {
            old_path: header_path(old_rest),
            new_path: header_path(new_rest),
            hunks: Vec::new(),
        };
        lines.next(); // consume the `+++` line
        let mut file = file;
        while let Some(peeked) = lines.peek() {
            if !peeked.starts_with("@@ ") {
                break;
            }
            let header = lines.next().unwrap();
            let Some((os, ol, ns, nl)) = parse_hunk_header(header) else {
                return Err(format!("malformed hunk header: {header}"));
            };
            let mut hunk = Hunk {
                old_start: os,
                old_len: ol,
                new_start: ns,
                new_len: nl,
                lines: Vec::new(),
            };
            let (mut old_left, mut new_left) = (ol, nl);
            while old_left > 0 || new_left > 0 {
                let Some(body) = lines.next() else {
                    return Err(format!(
                        "truncated hunk in {}: {} old / {} new lines missing",
                        file.path(),
                        old_left,
                        new_left
                    ));
                };
                if body.starts_with('\\') {
                    continue; // "\ No newline at end of file"
                }
                let (tag, text) = match body.chars().next() {
                    Some(' ') | None => (' ', body.get(1..).unwrap_or("")),
                    Some('-') => ('-', &body[1..]),
                    Some('+') => ('+', &body[1..]),
                    Some(other) => {
                        return Err(format!(
                            "unexpected line in hunk of {}: starts with {other:?}",
                            file.path()
                        ));
                    }
                };
                match tag {
                    ' ' => {
                        if old_left == 0 || new_left == 0 {
                            return Err(format!(
                                "hunk in {} has more lines than its header claims",
                                file.path()
                            ));
                        }
                        old_left -= 1;
                        new_left -= 1;
                    }
                    '-' => {
                        if old_left == 0 {
                            return Err(format!(
                                "hunk in {} removes more lines than its header claims",
                                file.path()
                            ));
                        }
                        old_left -= 1;
                    }
                    _ => {
                        if new_left == 0 {
                            return Err(format!(
                                "hunk in {} adds more lines than its header claims",
                                file.path()
                            ));
                        }
                        new_left -= 1;
                    }
                }
                hunk.lines.push((tag, text.to_string()));
            }
            // Trailing "\ No newline" marker after the last body line.
            if lines.peek().is_some_and(|l| l.starts_with('\\')) {
                lines.next();
            }
            file.hunks.push(hunk);
        }
        if file.hunks.is_empty() {
            return Err(format!("no hunks after header for {}", file.path()));
        }
        files.push(file);
    }
    if files.is_empty() {
        return Err("not a unified diff: no `---`/`+++` file headers found".to_string());
    }
    Ok(FixDiff { files })
}

/// Renders the difference between `old` and `new` as a single-hunk
/// unified diff (no context narrowing beyond the common prefix and
/// suffix), or `None` when the texts are identical. The output parses
/// with [`parse_diff`] and reverse-applies back to `old`.
pub fn render_file_diff(path: &str, old: &str, new: &str) -> Option<String> {
    if old == new {
        return None;
    }
    let old_lines: Vec<&str> = old.lines().collect();
    let new_lines: Vec<&str> = new.lines().collect();
    let mut prefix = 0;
    while prefix < old_lines.len()
        && prefix < new_lines.len()
        && old_lines[prefix] == new_lines[prefix]
    {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < old_lines.len() - prefix
        && suffix < new_lines.len() - prefix
        && old_lines[old_lines.len() - 1 - suffix] == new_lines[new_lines.len() - 1 - suffix]
    {
        suffix += 1;
    }
    let old_mid = &old_lines[prefix..old_lines.len() - suffix];
    let new_mid = &new_lines[prefix..new_lines.len() - suffix];
    let range = |len: usize| if len == 0 { prefix } else { prefix + 1 };
    let mut out = String::new();
    out.push_str(&format!("--- a/{path}\n+++ b/{path}\n"));
    out.push_str(&format!(
        "@@ -{},{} +{},{} @@\n",
        range(old_mid.len()),
        old_mid.len(),
        range(new_mid.len()),
        new_mid.len()
    ));
    for line in old_mid {
        out.push_str(&format!("-{line}\n"));
    }
    for line in new_mid {
        out.push_str(&format!("+{line}\n"));
    }
    Some(out)
}

/// True when a diff path and a project-relative unit path name the
/// same file: equal, or one is a `/`-boundary suffix of the other
/// (so `rev01/drivers/x.c` from `diff -ru` matches the unit
/// `drivers/x.c`, and a bare `x.c` diff matches too).
pub fn paths_match(diff_path: &str, unit_path: &str) -> bool {
    if diff_path == unit_path {
        return true;
    }
    let suffix_of = |longer: &str, shorter: &str| {
        longer.ends_with(shorter)
            && longer.as_bytes().get(longer.len() - shorter.len() - 1) == Some(&b'/')
    };
    suffix_of(diff_path, unit_path) || suffix_of(unit_path, diff_path)
}

/// What the fix is about, read straight from its changed lines: a
/// refcount API named on a `+`/`-` line, with the acquire APIs the
/// knowledge base pairs it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixIntent {
    /// Diff path of the file the call appears in.
    pub file: String,
    /// The refcount API the changed line calls.
    pub api: String,
    /// Its direction in the knowledge base.
    pub dir: RcDir,
    /// Acquire APIs this intent covers: the API itself when it is an
    /// increment, otherwise every increment that accepts it as the
    /// paired release.
    pub acquires: Vec<String>,
}

impl ToJson for FixIntent {
    fn to_json(&self) -> Value {
        obj([
            ("file", self.file.to_json()),
            ("api", self.api.to_json()),
            (
                "dir",
                Value::Str(
                    match self.dir {
                        RcDir::Inc => "inc",
                        RcDir::Dec => "dec",
                    }
                    .to_string(),
                ),
            ),
            ("acquires", self.acquires.to_json()),
        ])
    }
}

/// Maximal identifier tokens that are followed by `(` — i.e. call
/// sites — on one source line.
fn called_names(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut names = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let mut j = i;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'(' {
                names.push(&line[start..i]);
            }
        } else {
            i += 1;
        }
    }
    names
}

/// Infers which acquire/release pairs a fix diff is about by scanning
/// its added and removed lines for refcount-API calls. Deduplicated
/// by `(file, api)`, in diff order.
pub fn infer_intents(diff: &FixDiff, kb: &ApiKb) -> Vec<FixIntent> {
    let mut intents: Vec<FixIntent> = Vec::new();
    for file in &diff.files {
        for hunk in &file.hunks {
            for (tag, text) in &hunk.lines {
                if *tag == ' ' {
                    continue;
                }
                for name in called_names(text) {
                    let Some(dir) = kb.direction_of(name) else {
                        continue;
                    };
                    if intents
                        .iter()
                        .any(|i| i.file == file.path() && i.api == name)
                    {
                        continue;
                    }
                    let mut acquires = match dir {
                        RcDir::Inc => vec![name.to_string()],
                        RcDir::Dec => kb
                            .apis()
                            .filter(|a| {
                                a.dir == RcDir::Inc
                                    && kb.accepted_decs(&a.name).iter().any(|d| d == name)
                            })
                            .map(|a| a.name.clone())
                            .collect(),
                    };
                    // KB iteration order is an implementation detail
                    // (and varies with discovery merge order across
                    // `--jobs`); the rendered intent must not.
                    acquires.sort();
                    acquires.dedup();
                    intents.push(FixIntent {
                        file: file.path().to_string(),
                        api: name.to_string(),
                        dir,
                        acquires,
                    });
                }
            }
        }
    }
    intents
}

/// True when `intent` plausibly covers a finding: same file (modulo
/// diff path prefixes) and an API in the same acquire/release family.
pub fn intent_covers(intent: &FixIntent, finding: &Finding, kb: &ApiKb) -> bool {
    paths_match(&intent.file, &finding.file)
        && (finding.api == intent.api
            || intent.acquires.contains(&finding.api)
            || kb.accepted_decs(&finding.api).contains(&intent.api))
}

#[cfg(test)]
mod tests {
    use super::*;

    const POST: &str = "int f(void)\n{\n\tint x = 1;\n\treturn x;\n}\n";
    const PRE: &str = "int f(void)\n{\n\tint x = 0;\n\treturn x;\n}\n";

    fn simple_diff() -> String {
        render_file_diff("drivers/foo/bar.c", PRE, POST).expect("texts differ")
    }

    #[test]
    fn render_parse_reverse_round_trip() {
        let text = simple_diff();
        let diff = parse_diff(&text).expect("parses");
        assert_eq!(diff.files.len(), 1);
        assert_eq!(diff.files[0].path(), "drivers/foo/bar.c");
        let pre = diff.files[0].reverse_apply(POST).expect("applies");
        assert_eq!(pre, PRE);
    }

    #[test]
    fn render_is_none_for_identical_texts() {
        assert!(render_file_diff("a.c", PRE, PRE).is_none());
    }

    #[test]
    fn parses_gnu_recursive_diff_output() {
        let text = "diff -ru rev00/drivers/x.c rev01/drivers/x.c\n\
                    --- rev00/drivers/x.c\t2026-01-01 00:00:00\n\
                    +++ rev01/drivers/x.c\t2026-01-02 00:00:00\n\
                    @@ -2,2 +2,3 @@\n \
                    line_two();\n\
                    -old_line();\n\
                    +new_line();\n\
                    +added_line();\n\
                    Only in rev01/drivers: extra.c\n";
        let diff = parse_diff(text).expect("parses");
        assert_eq!(diff.files.len(), 1);
        assert_eq!(diff.files[0].old_path, "rev00/drivers/x.c");
        assert_eq!(diff.files[0].new_path, "rev01/drivers/x.c");
        let hunk = &diff.files[0].hunks[0];
        assert_eq!((hunk.old_start, hunk.old_len), (2, 2));
        assert_eq!((hunk.new_start, hunk.new_len), (2, 3));
        assert_eq!(hunk.lines.len(), 4);
    }

    #[test]
    fn counted_body_protects_dashes_in_content() {
        // A removed line that itself starts with `---` must stay hunk
        // body, not open a new file.
        let text = "--- a/x.c\n+++ b/x.c\n@@ -1,2 +1,1 @@\n \
                    keep\n\
                    ----three-dashes-comment\n";
        let diff = parse_diff(text).expect("parses");
        assert_eq!(diff.files.len(), 1);
        assert_eq!(diff.files[0].hunks[0].lines[1].1, "---three-dashes-comment");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse_diff("").is_err());
        assert!(parse_diff("just some prose\nno diff here\n").is_err());
        assert!(parse_diff("--- a/x.c\n+++ b/x.c\n").is_err(), "no hunks");
        assert!(
            parse_diff("--- a/x.c\n+++ b/x.c\n@@ -1,5 +1,5 @@\n context\n").is_err(),
            "truncated hunk"
        );
        assert!(parse_diff("--- a/x.c\n+++ b/x.c\n@@ garbage @@\n").is_err());
    }

    #[test]
    fn reverse_apply_rejects_mismatched_tree() {
        let text = simple_diff();
        let diff = parse_diff(&text).unwrap();
        let err = diff.files[0]
            .reverse_apply("int f(void)\n{\n\treturn 2;\n}\n")
            .unwrap_err();
        assert!(err.contains("does not apply"), "got: {err}");
    }

    #[test]
    fn reverse_apply_pure_insertion_hunk() {
        // Pure addition: old range is empty, start names the line
        // before the insertion.
        let old = "a\nb\n";
        let new = "a\nmid\nb\n";
        let text = render_file_diff("x.c", old, new).unwrap();
        let diff = parse_diff(&text).unwrap();
        assert_eq!(diff.files[0].hunks[0].old_len, 0);
        assert_eq!(diff.files[0].reverse_apply(new).unwrap(), old);
    }

    #[test]
    fn reverse_apply_pure_deletion_hunk() {
        let old = "a\nmid\nb\n";
        let new = "a\nb\n";
        let text = render_file_diff("x.c", old, new).unwrap();
        let diff = parse_diff(&text).unwrap();
        assert_eq!(diff.files[0].hunks[0].new_len, 0);
        assert_eq!(diff.files[0].reverse_apply(new).unwrap(), old);
    }

    #[test]
    fn paths_match_handles_prefixes() {
        assert!(paths_match("drivers/x.c", "drivers/x.c"));
        assert!(paths_match("rev01/drivers/x.c", "drivers/x.c"));
        assert!(paths_match("drivers/x.c", "tree/drivers/x.c"));
        assert!(!paths_match("otherdrivers/x.c", "drivers/x.c"));
        assert!(!paths_match("drivers/y.c", "drivers/x.c"));
    }

    #[test]
    fn infers_release_intent_with_paired_acquires() {
        let kb = ApiKb::builtin();
        let text = "--- a/drivers/of/unit.c\n+++ b/drivers/of/unit.c\n\
                    @@ -10,2 +10,3 @@\n \
                    if (!np)\n \
                    \treturn -ENODEV;\n\
                    +\tof_node_put(np);\n";
        let diff = parse_diff(text).expect("parses");
        let intents = infer_intents(&diff, &kb);
        assert_eq!(intents.len(), 1);
        assert_eq!(intents[0].api, "of_node_put");
        assert_eq!(intents[0].dir, RcDir::Dec);
        assert!(
            intents[0]
                .acquires
                .iter()
                .any(|a| a == "of_find_node_by_name"),
            "of_node_put should pair with of_find_node_by_name, got {:?}",
            intents[0].acquires
        );
    }

    #[test]
    fn neutral_diff_has_no_intents() {
        let kb = ApiKb::builtin();
        let text = "--- a/drivers/of/unit.c\n+++ b/drivers/of/unit.c\n\
                    @@ -10,1 +10,2 @@\n \
                    int x;\n\
                    +\tpr_info(\"hello\");\n";
        let diff = parse_diff(text).expect("parses");
        assert!(infer_intents(&diff, &kb).is_empty());
    }

    #[test]
    fn called_names_tokenizer() {
        assert_eq!(
            called_names("\tret = of_find_node_by_name(NULL, name);"),
            vec!["of_find_node_by_name"]
        );
        assert_eq!(
            called_names("of_node_put(np); kfree (p);"),
            vec!["of_node_put", "kfree"]
        );
        assert!(called_names("int of_node_put_count;").is_empty());
    }
}
