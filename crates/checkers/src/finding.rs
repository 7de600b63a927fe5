//! Findings: what a checker reports.

use refminer_cpg::Feasibility;
use refminer_json::{obj, ToJson, Value};
use std::fmt;

/// The paper's nine anti-patterns (§5.1.3, §5.2.3, §5.3.4, §5.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AntiPattern {
    /// Return-Error deviation: `G_E` increment followed by an error
    /// block with no paired decrement.
    P1,
    /// Return-NULL deviation: `G_N` increment whose result is
    /// dereferenced without a NULL check.
    P2,
    /// Smartloop break: leaving a macro loop without decrementing the
    /// iterator.
    P3,
    /// Hidden refcounting: a refcounting-embedded (find-like) API whose
    /// reference is never paired in the function.
    P4,
    /// Error-handling path missing the decrement that other paths have.
    P5,
    /// Inter-unpaired: increment in one half of an indirect-call pair
    /// (probe/remove, open/release) with no decrement in the other.
    P6,
    /// Direct-free: `kfree` on a refcounted object instead of the
    /// decrement API.
    P7,
    /// Use-after-decrease (UAD): object accessed after its decrement.
    P8,
    /// Reference escape: borrowed reference stored into a global or out
    /// parameter without an increment around the escape point.
    P9,
}

impl AntiPattern {
    /// All nine, in order.
    pub fn all() -> [AntiPattern; 9] {
        use AntiPattern::*;
        [P1, P2, P3, P4, P5, P6, P7, P8, P9]
    }

    /// The pattern's number, 1 through 9 — the form the corpus
    /// manifest records.
    pub fn number(&self) -> u8 {
        *self as u8 + 1
    }

    /// The pattern with manifest number `n` (1 through 9).
    pub fn from_number(n: u8) -> Option<AntiPattern> {
        let index = usize::from(n.checked_sub(1)?);
        AntiPattern::all().get(index).copied()
    }

    /// Parses a pattern id (`"P4"`), ignoring ASCII case.
    pub fn from_id(id: &str) -> Option<AntiPattern> {
        AntiPattern::all()
            .into_iter()
            .find(|p| p.id().eq_ignore_ascii_case(id))
    }

    /// Short identifier (`"P1"`).
    pub fn id(&self) -> &'static str {
        match self {
            AntiPattern::P1 => "P1",
            AntiPattern::P2 => "P2",
            AntiPattern::P3 => "P3",
            AntiPattern::P4 => "P4",
            AntiPattern::P5 => "P5",
            AntiPattern::P6 => "P6",
            AntiPattern::P7 => "P7",
            AntiPattern::P8 => "P8",
            AntiPattern::P9 => "P9",
        }
    }

    /// The semantic-template text of the anti-pattern (§5).
    pub fn template_text(&self) -> &'static str {
        match self {
            AntiPattern::P1 => "F_start -> S_{G_E} -> B_error -> F_end",
            AntiPattern::P2 => "F_start -> S_{G_N} -> S_{D_N} -> F_end",
            AntiPattern::P3 => "F_start -> M_SL -> S_break -> F_end",
            AntiPattern::P4 => "F_start -> S_{G_H} -> F_end",
            AntiPattern::P5 => "F_start -> S_G -> B_error -> F_end",
            AntiPattern::P6 => "F_interpaired -> S_G -> F_end",
            AntiPattern::P7 => "F_start -> S_G -> S_{free} -> F_end",
            AntiPattern::P8 => "F_start -> S_P(p0) -> S_D(p0) -> F_end",
            AntiPattern::P9 => "F_start -> S_{A_GO} -> F_end",
        }
    }

    /// The name of the template checker that detects the pattern,
    /// recorded in each of its findings' `checkers` list.
    pub fn checker_name(&self) -> &'static str {
        match self {
            AntiPattern::P1 => "ReturnErrorChecker",
            AntiPattern::P2 => "ReturnNullChecker",
            AntiPattern::P3 => "SmartLoopBreakChecker",
            AntiPattern::P4 => "HiddenApiChecker",
            AntiPattern::P5 => "ErrorPathChecker",
            AntiPattern::P6 => "InterUnpairedChecker",
            AntiPattern::P7 => "DirectFreeChecker",
            AntiPattern::P8 => "UadChecker",
            AntiPattern::P9 => "EscapeChecker",
        }
    }

    /// The root-cause family the pattern belongs to (§5 headings).
    pub fn root_cause(&self) -> &'static str {
        match self {
            AntiPattern::P1 | AntiPattern::P2 => "implementation deviation",
            AntiPattern::P3 | AntiPattern::P4 => "hidden refcounting",
            AntiPattern::P5 | AntiPattern::P6 | AntiPattern::P7 => "overlooked location",
            AntiPattern::P8 | AntiPattern::P9 => "future risk",
        }
    }
}

impl fmt::Display for AntiPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The security impact a finding can lead to (Table 4's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Impact {
    /// Memory leak (CWE-401).
    Leak,
    /// Use-after-free (CWE-416).
    Uaf,
    /// NULL-pointer dereference.
    Npd,
}

impl fmt::Display for Impact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Impact::Leak => "Leak",
            Impact::Uaf => "UAF",
            Impact::Npd => "NPD",
        })
    }
}

/// An analysis engine able to produce findings. The template engine
/// runs the paper's nine anti-pattern checkers; the delta engine runs
/// the ownership-delta dataflow analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineId {
    /// The semantic-template checkers (P1–P9).
    Template,
    /// The ownership-delta interval dataflow engine.
    Delta,
}

impl EngineId {
    /// Both engines, in canonical (report) order.
    pub fn all() -> [EngineId; 2] {
        [EngineId::Template, EngineId::Delta]
    }

    /// Stable lowercase name, used in JSON and `--engines` parsing.
    pub fn name(&self) -> &'static str {
        match self {
            EngineId::Template => "template",
            EngineId::Delta => "delta",
        }
    }

    /// Parses a lowercase engine name back to its id.
    pub fn from_name(name: &str) -> Option<EngineId> {
        EngineId::all().into_iter().find(|e| e.name() == name)
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cross-validation confidence: which engines stand behind a finding.
/// Derived from the finding's `engines` list, never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Both engines reported the site independently.
    Corroborated,
    /// Only the template checkers reported it.
    TemplateOnly,
    /// Only the delta dataflow engine reported it.
    DeltaOnly,
}

impl Confidence {
    /// The confidence a given engine attribution implies. An empty
    /// list (findings predating engine stamping) reads as
    /// template-only, matching how those findings were produced.
    pub fn of(engines: &[EngineId]) -> Confidence {
        let template = engines.contains(&EngineId::Template);
        let delta = engines.contains(&EngineId::Delta);
        match (template, delta) {
            (true, true) => Confidence::Corroborated,
            (false, true) => Confidence::DeltaOnly,
            _ => Confidence::TemplateOnly,
        }
    }

    /// Stable lowercase name, used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Confidence::Corroborated => "corroborated",
            Confidence::TemplateOnly => "template_only",
            Confidence::DeltaOnly => "delta_only",
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected anti-pattern instance.
///
/// A finding's identity is its value: `diff_findings` set-differences
/// findings by equality and hash, and [`ToJson`] renders every field,
/// so two findings are equal exactly when their JSONL lines are.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Finding {
    /// Which anti-pattern matched.
    pub pattern: AntiPattern,
    /// The projected security impact.
    pub impact: Impact,
    /// Source file (repo-relative).
    pub file: String,
    /// Containing function.
    pub function: String,
    /// 1-based line of the key statement.
    pub line: u32,
    /// The bug-caused API (Table 5's "Bug-Caused API" column).
    pub api: String,
    /// The refcounted object variable, when identified.
    pub object: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Path-feasibility verdict for the witnessing path. `Infeasible`
    /// findings are suppressed by default in the audit report.
    pub feasibility: Feasibility,
    /// The checkers that reported this site; more than one after the
    /// report layer merges same-(file, line, family) findings.
    pub checkers: Vec<String>,
    /// The engines that reported this site, in canonical order
    /// (template before delta). Both after the dedup/merge layers
    /// collapse a site both engines flagged independently.
    pub engines: Vec<EngineId>,
}

impl Finding {
    /// The cross-validation confidence this finding's engine
    /// attribution implies.
    pub fn confidence(&self) -> Confidence {
        Confidence::of(&self.engines)
    }

    /// Records that `engine` stands behind this finding, keeping the
    /// engine list in canonical order and free of duplicates.
    pub fn add_engine(&mut self, engine: EngineId) {
        if !self.engines.contains(&engine) {
            self.engines.push(engine);
            self.engines.sort();
        }
    }

    /// Merges a duplicate of this finding into it: `other`'s checkers
    /// are appended in order (skipping ones already listed), its
    /// engines are added, and the more credible feasibility verdict is
    /// kept.
    pub fn absorb(&mut self, other: &Finding) {
        for c in &other.checkers {
            if !self.checkers.contains(c) {
                self.checkers.push(c.clone());
            }
        }
        for &e in &other.engines {
            self.add_engine(e);
        }
        self.feasibility = self.feasibility.max(other.feasibility);
    }

    /// Whether this finding claims the ground-truth bug `pattern` in
    /// `function` of `path`: same file and function, and the bug's
    /// pattern is the finding's own or one its checker list names. The
    /// report layer merges same-site findings of one root-cause family,
    /// so a P7 bug caught by both `DirectFreeChecker` and
    /// `ErrorPathChecker` surfaces as one P5 finding whose checker list
    /// still names `DirectFreeChecker`.
    pub fn claims(&self, path: &str, function: &str, pattern: AntiPattern) -> bool {
        self.file == path
            && self.function == function
            && (self.pattern == pattern
                || self.checkers.iter().any(|c| c == pattern.checker_name()))
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {} in {}(): {}",
            self.file, self.line, self.pattern, self.impact, self.api, self.function, self.message
        )
    }
}

/// Sorts findings into the canonical report order: stable by
/// `(file, line)`.
///
/// A *stable* sort on exactly this key is load-bearing: findings from
/// the same line keep the order their checkers emitted them in, so the
/// parallel audit pipeline — which concatenates per-unit finding lists
/// in unit index order before sorting — reproduces the sequential
/// report byte for byte at any worker count.
pub fn sort_findings_canonical(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
}

/// Report-layer dedup: collapses findings that name the same
/// `(file, line, root-cause family)` site into one, with the checker
/// lists combined.
///
/// Input must already be in canonical order ([`sort_findings_canonical`]
/// groups same-site findings adjacently and fixes their relative order),
/// so the merge is deterministic at any worker count: the first finding
/// of each group survives and [absorbs](Finding::absorb) the others in
/// encounter order.
pub fn merge_duplicate_findings(findings: &mut Vec<Finding>) {
    findings.dedup_by(|f, kept| {
        let same_site = kept.file == f.file
            && kept.line == f.line
            && kept.pattern.root_cause() == f.pattern.root_cause();
        if same_site {
            kept.absorb(f);
        }
        same_site
    });
}

impl ToJson for AntiPattern {
    fn to_json(&self) -> Value {
        Value::Str(self.id().to_string())
    }
}

impl ToJson for Impact {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for Finding {
    fn to_json(&self) -> Value {
        obj([
            ("pattern", self.pattern.to_json()),
            ("impact", self.impact.to_json()),
            ("file", self.file.to_json()),
            ("function", self.function.to_json()),
            ("line", self.line.to_json()),
            ("api", self.api.to_json()),
            ("object", self.object.to_json()),
            ("message", self.message.to_json()),
            (
                "feasibility",
                Value::Str(self.feasibility.name().to_string()),
            ),
            ("checkers", self.checkers.to_json()),
            (
                "engines",
                Value::Arr(
                    self.engines
                        .iter()
                        .map(|e| Value::Str(e.name().to_string()))
                        .collect(),
                ),
            ),
            (
                "confidence",
                Value::Str(self.confidence().name().to_string()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_families() {
        assert_eq!(AntiPattern::P1.id(), "P1");
        assert_eq!(AntiPattern::all().len(), 9);
        assert_eq!(AntiPattern::P3.root_cause(), "hidden refcounting");
        assert_eq!(AntiPattern::P8.root_cause(), "future risk");
        for p in AntiPattern::all() {
            assert_eq!(AntiPattern::from_number(p.number()), Some(p));
            assert_eq!(AntiPattern::from_id(&p.id().to_lowercase()), Some(p));
        }
        assert_eq!(AntiPattern::P1.number(), 1);
        assert_eq!(AntiPattern::from_number(0), None);
        assert_eq!(AntiPattern::from_number(10), None);
        assert_eq!(AntiPattern::from_id("P10"), None);
    }

    #[test]
    fn templates_parse() {
        for p in AntiPattern::all() {
            assert!(
                refminer_template::parse_template(p.template_text()).is_ok(),
                "template for {p} must parse"
            );
        }
    }

    #[test]
    fn canonical_sort_keeps_same_line_emission_order() {
        let mk = |file: &str, line: u32, api: &str| Finding {
            pattern: AntiPattern::P4,
            impact: Impact::Leak,
            file: file.into(),
            function: "f".into(),
            line,
            api: api.into(),
            object: None,
            message: String::new(),
            feasibility: Feasibility::Assumed,
            checkers: Vec::new(),
            engines: Vec::new(),
        };
        // Two units concatenated in unit order, the second sorting
        // before the first by file name, plus same-line findings whose
        // relative order must survive the sort.
        let mut all = vec![mk("b.c", 7, "first"), mk("b.c", 7, "second")];
        all.push(mk("a.c", 3, "x"));
        sort_findings_canonical(&mut all);
        let order: Vec<&str> = all.iter().map(|f| f.api.as_str()).collect();
        assert_eq!(order, ["x", "first", "second"]);
    }

    #[test]
    fn value_identity_is_line_identity() {
        // `diff_findings` compares findings as values; a field that
        // `to_json` did not render would make two findings with equal
        // lines unequal values. Each variant changes exactly one field,
        // and the exhaustive pattern below stops compiling when a field
        // is added, until the field gets its variant.
        let base = Finding {
            pattern: AntiPattern::P4,
            impact: Impact::Leak,
            file: "a.c".into(),
            function: "f".into(),
            line: 3,
            api: "of_find_node_by_name".into(),
            object: None,
            message: "m".into(),
            feasibility: Feasibility::Assumed,
            checkers: vec!["HiddenApiChecker".into()],
            engines: vec![EngineId::Template],
        };
        let Finding {
            pattern: _,
            impact: _,
            file: _,
            function: _,
            line: _,
            api: _,
            object: _,
            message: _,
            feasibility: _,
            checkers: _,
            engines: _,
        } = &base;
        let with = |change: fn(&mut Finding)| {
            let mut f = base.clone();
            change(&mut f);
            f
        };
        let variants = [
            with(|f| f.pattern = AntiPattern::P1),
            with(|f| f.impact = Impact::Uaf),
            with(|f| f.file.push('x')),
            with(|f| f.function.push('x')),
            with(|f| f.line += 1),
            with(|f| f.api.push('x')),
            with(|f| f.object = Some("np".into())),
            with(|f| f.message.push('x')),
            with(|f| f.feasibility = Feasibility::Proven),
            with(|f| f.checkers.push("DeltaEngine".into())),
            with(|f| f.add_engine(EngineId::Delta)),
        ];
        let line_of = |f: &Finding| f.to_json().to_string();
        for v in &variants {
            assert_ne!(v, &base);
            assert_ne!(line_of(v), line_of(&base), "{v:?} renders like the base");
        }
    }

    #[test]
    fn finding_display() {
        let f = Finding {
            pattern: AntiPattern::P4,
            impact: Impact::Leak,
            file: "drivers/soc/foo.c".into(),
            function: "foo_probe".into(),
            line: 42,
            api: "of_find_node_by_name".into(),
            object: Some("np".into()),
            message: "reference never released".into(),
            feasibility: Feasibility::Assumed,
            checkers: vec!["HiddenApiChecker".into()],
            engines: vec![EngineId::Template],
        };
        let s = f.to_string();
        assert!(s.contains("drivers/soc/foo.c:42"));
        assert!(s.contains("[P4/Leak]"));
        assert!(s.contains("foo_probe"));
        let json = f.to_json().to_string();
        assert!(json.contains("\"feasibility\":\"assumed\""));
        assert!(json.contains("HiddenApiChecker"));
        assert!(json.contains("\"engines\":[\"template\"]"));
        assert!(json.contains("\"confidence\":\"template_only\""));
    }

    #[test]
    fn merge_collapses_same_site_same_family() {
        let mk = |pattern: AntiPattern, line: u32, checker: &str| Finding {
            pattern,
            impact: Impact::Leak,
            file: "a.c".into(),
            function: "f".into(),
            line,
            api: "get_thing".into(),
            object: None,
            message: String::new(),
            feasibility: Feasibility::Assumed,
            checkers: vec![checker.into()],
            engines: vec![EngineId::Template],
        };
        // P5 and P7 share the "overlooked location" family at line 9;
        // P1 at the same line is a different family and must survive.
        let mut v = vec![
            mk(AntiPattern::P1, 9, "ReturnErrorChecker"),
            mk(AntiPattern::P5, 9, "ErrorPathChecker"),
            mk(AntiPattern::P7, 9, "DirectFreeChecker"),
            mk(AntiPattern::P5, 11, "ErrorPathChecker"),
        ];
        let mut expect_feas = v.clone();
        expect_feas[2].feasibility = Feasibility::Proven;
        sort_findings_canonical(&mut v);
        merge_duplicate_findings(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].pattern, AntiPattern::P1);
        assert_eq!(v[1].pattern, AntiPattern::P5);
        assert_eq!(
            v[1].checkers,
            vec![
                "ErrorPathChecker".to_string(),
                "DirectFreeChecker".to_string()
            ]
        );
        assert_eq!(v[2].line, 11);
        assert_eq!(v[2].checkers, vec!["ErrorPathChecker".to_string()]);

        // The merged finding keeps the most credible verdict.
        sort_findings_canonical(&mut expect_feas);
        merge_duplicate_findings(&mut expect_feas);
        assert_eq!(expect_feas[1].feasibility, Feasibility::Proven);
    }

    #[test]
    fn engine_names_round_trip() {
        for e in EngineId::all() {
            assert_eq!(EngineId::from_name(e.name()), Some(e));
        }
        assert_eq!(EngineId::from_name("nope"), None);
    }

    #[test]
    fn confidence_derives_from_engine_attribution() {
        use EngineId::*;
        assert_eq!(Confidence::of(&[Template]), Confidence::TemplateOnly);
        assert_eq!(Confidence::of(&[Delta]), Confidence::DeltaOnly);
        assert_eq!(Confidence::of(&[Template, Delta]), Confidence::Corroborated);
        assert_eq!(
            Confidence::of(&[]),
            Confidence::TemplateOnly,
            "legacy findings without engine stamps read as template-only"
        );
    }

    #[test]
    fn merge_unions_engine_attribution() {
        let mk = |engines: &[EngineId]| Finding {
            pattern: AntiPattern::P5,
            impact: Impact::Leak,
            file: "a.c".into(),
            function: "f".into(),
            line: 9,
            api: "get_thing".into(),
            object: None,
            message: String::new(),
            feasibility: Feasibility::Assumed,
            checkers: vec!["ErrorPathChecker".into()],
            engines: engines.to_vec(),
        };
        // The delta finding arrives first here; the union must still
        // come out in canonical (template, delta) order.
        let mut v = vec![mk(&[EngineId::Delta]), mk(&[EngineId::Template])];
        sort_findings_canonical(&mut v);
        merge_duplicate_findings(&mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].engines, vec![EngineId::Template, EngineId::Delta]);
        assert_eq!(v[0].confidence(), Confidence::Corroborated);
    }
}
