//! Parser tests against realistic kernel-style C snippets, including the
//! exact listings from the paper.

use refminer_cparse::{
    parse_expr_str, parse_stmts_str, parse_str, parse_str_with_errors, ExprKind, Initializer, Item,
    StmtKind,
};

#[test]
fn parses_listing_1_nvmem_get() {
    // Listing 1 of the paper (missing-refcounting bug shape).
    let src = r#"
struct nvmem_device *__nvmem_device_get(struct device_node *np)
{
        struct device *dev;
        dev = bus_find_device(&nvmem_bus_type, NULL, np, of_nvmem_match);
        if (!dev)
                return ERR_PTR(-EPROBE_DEFER);
        return to_nvmem_device(dev);
}
"#;
    let tu = parse_str("drivers/nvmem/core.c", src);
    let f = tu.function("__nvmem_device_get").expect("function parsed");
    assert_eq!(f.ret.base, "struct nvmem_device");
    assert_eq!(f.ret.pointer, 1);
    assert_eq!(f.params.len(), 1);
    assert_eq!(f.params[0].ty.base, "struct device_node");
    // The body must contain the bus_find_device call.
    let mut found = false;
    for s in &f.body.stmts {
        s.walk_exprs(&mut |e| {
            if let Some(("bus_find_device", _)) = e.as_direct_call() {
                found = true;
            }
        });
    }
    assert!(found, "bus_find_device call not found in AST");
}

#[test]
fn parses_listing_2_usb_console() {
    // Listing 2 of the paper (misplacing-refcounting bug shape).
    let src = r#"
static int usb_console_setup(struct console *co, char *options)
{
        usb_serial_put(serial);
        mutex_unlock(&serial->disc_mutex);
        return retval;
}
"#;
    let tu = parse_str("drivers/usb/serial/console.c", src);
    let f = tu.function("usb_console_setup").unwrap();
    assert!(f.is_static);
    assert_eq!(f.body.stmts.len(), 3);
    match &f.body.stmts[1].kind {
        StmtKind::Expr(e) => {
            let (name, args) = e.as_direct_call().unwrap();
            assert_eq!(name, "mutex_unlock");
            assert_eq!(args[0].root_var(), Some("serial"));
        }
        other => panic!("expected expression statement, got {other:?}"),
    }
}

#[test]
fn parses_listing_3_pm_runtime() {
    let src = r#"
static int stm32_crc_remove(struct platform_device *pdev)
{
        struct stm32_crc *crc = platform_get_drvdata(pdev);
        int ret = pm_runtime_get_sync(crc->dev);
        if (ret < 0)
                return ret;
        return 0;
}
"#;
    let tu = parse_str("drivers/crypto/stm32/stm32-crc32.c", src);
    let f = tu.function("stm32_crc_remove").unwrap();
    // First two statements are declarations with call initializers.
    match &f.body.stmts[1].kind {
        StmtKind::Decl(decls) => {
            assert_eq!(decls[0].name, "ret");
            match decls[0].init.as_deref() {
                Some(Initializer::Expr(e)) => {
                    assert_eq!(e.as_direct_call().unwrap().0, "pm_runtime_get_sync");
                }
                other => panic!("expected call initializer, got {other:?}"),
            }
        }
        other => panic!("expected declaration, got {other:?}"),
    }
    // Then the early-return error check.
    match &f.body.stmts[2].kind {
        StmtKind::If { cond, then, .. } => {
            assert!(matches!(cond.kind, ExprKind::Binary { .. }));
            assert!(matches!(then.kind, StmtKind::Return(Some(_))));
        }
        other => panic!("expected if, got {other:?}"),
    }
}

#[test]
fn parses_listing_4_smartloop() {
    let src = r#"
static int brcmstb_pm_probe(struct platform_device *pdev)
{
        struct device_node *dn;
        for_each_matching_node(dn, sram_dt_ids) {
                ctrl.memcs[i] = of_iomap(dn, 0);
                if (!ctrl.memcs[i])
                        break;
        }
        return 0;
}
"#;
    let tu = parse_str("drivers/soc/bcm/brcmstb/pm/pm-arm.c", src);
    let f = tu.function("brcmstb_pm_probe").unwrap();
    let mut loops = 0;
    let mut breaks = 0;
    for s in &f.body.stmts {
        s.walk(&mut |s| match &s.kind {
            StmtKind::MacroLoop { name, args, .. } => {
                assert_eq!(name, "for_each_matching_node");
                assert_eq!(args.len(), 2);
                assert_eq!(args[0].as_ident(), Some("dn"));
                loops += 1;
            }
            StmtKind::Break => breaks += 1,
            _ => {}
        });
    }
    assert_eq!(loops, 1);
    assert_eq!(breaks, 1);
}

#[test]
fn parses_goto_error_labels() {
    let src = r#"
int foo_probe(struct platform_device *pdev)
{
        int ret;
        np = of_find_node_by_name(NULL, "codec");
        if (!np)
                goto err_put;
        ret = register_thing(np);
        if (ret)
                goto err_put;
        return 0;
err_put:
        of_node_put(np);
        return ret;
}
"#;
    let tu = parse_str("t.c", src);
    let f = tu.function("foo_probe").unwrap();
    let mut gotos = 0;
    let mut labels = Vec::new();
    for s in &f.body.stmts {
        s.walk(&mut |s| match &s.kind {
            StmtKind::Goto(l) => {
                assert_eq!(l, "err_put");
                gotos += 1;
            }
            StmtKind::Label(l) => labels.push(l.clone()),
            _ => {}
        });
    }
    assert_eq!(gotos, 2);
    assert_eq!(labels, vec!["err_put".to_string()]);
}

#[test]
fn parses_driver_ops_table() {
    let src = r#"
static const struct platform_driver foo_driver = {
        .probe = foo_probe,
        .remove = foo_remove,
        .driver = {
                .name = "foo",
                .of_match_table = foo_dt_ids,
        },
};
"#;
    let tu = parse_str("t.c", src);
    let g = tu.globals().next().expect("global parsed");
    assert_eq!(g.name, "foo_driver");
    assert_eq!(g.ty.base, "struct platform_driver");
    let init = g.init.as_ref().unwrap();
    assert_eq!(
        init.designated("probe").and_then(|i| i.as_ident()),
        Some("foo_probe")
    );
    assert_eq!(
        init.designated("remove").and_then(|i| i.as_ident()),
        Some("foo_remove")
    );
    // Nested list.
    assert!(matches!(
        init.designated("driver"),
        Some(Initializer::List(_))
    ));
}

#[test]
fn parses_struct_with_refcount_field() {
    let src = r#"
struct nvmem_device {
        struct device dev;
        struct kref refcnt;
        int users;
        void __iomem *base;
        int (*reg_read)(void *priv, unsigned int offset);
};
"#;
    let tu = parse_str("t.h", src);
    let s = tu.structs().next().unwrap();
    assert_eq!(s.name.as_deref(), Some("nvmem_device"));
    let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
    assert!(names.contains(&"refcnt"));
    assert!(names.contains(&"base"));
    assert!(names.contains(&"reg_read"));
    let refcnt = s.fields.iter().find(|f| f.name == "refcnt").unwrap();
    assert_eq!(refcnt.ty.base, "struct kref");
}

#[test]
fn parses_typedefs_and_enums() {
    let src = r#"
typedef unsigned int gfp_t;
typedef struct kobject *kobj_ptr_t;
enum probe_state { PROBE_IDLE, PROBE_BUSY = 2, PROBE_DONE };
"#;
    let tu = parse_str("t.h", src);
    let mut typedefs = 0;
    let mut enums = 0;
    for item in &tu.items {
        match item {
            Item::Typedef(t) => {
                typedefs += 1;
                assert!(t.name == "gfp_t" || t.name == "kobj_ptr_t");
            }
            Item::Enum(e) => {
                enums += 1;
                assert_eq!(e.variants[..], ["PROBE_IDLE", "PROBE_BUSY", "PROBE_DONE"]);
            }
            _ => {}
        }
    }
    assert_eq!(typedefs, 2);
    assert_eq!(enums, 1);
}

#[test]
fn skips_module_macros() {
    let src = r#"
MODULE_LICENSE("GPL");
MODULE_AUTHOR("someone");
module_platform_driver(foo_driver);
static int x;
"#;
    let tu = parse_str("t.c", src);
    assert_eq!(tu.globals().count(), 1);
    assert_eq!(tu.globals().next().unwrap().name, "x");
}

#[test]
fn recovers_from_garbage() {
    let src = r#"
int good_one(void) { return 1; }
@@@ total garbage $$$ ;
int good_two(void) { return 2; }
"#;
    let (tu, _errors) = parse_str_with_errors("t.c", src);
    assert!(tu.function("good_one").is_some());
    assert!(tu.function("good_two").is_some());
}

#[test]
fn expression_precedence() {
    let e = parse_expr_str("a + b * c");
    match e.kind {
        ExprKind::Binary { op, rhs, .. } => {
            assert_eq!(op, refminer_cparse::BinOp::Add);
            assert!(matches!(rhs.kind, ExprKind::Binary { .. }));
        }
        other => panic!("expected binary, got {other:?}"),
    }
}

#[test]
fn expression_ternary_and_assign() {
    let e = parse_expr_str("x = a ? b : c");
    match e.kind {
        ExprKind::Assign { rhs, .. } => {
            assert!(matches!(rhs.kind, ExprKind::Ternary { .. }));
        }
        other => panic!("expected assign, got {other:?}"),
    }
}

#[test]
fn expression_casts() {
    let e = parse_expr_str("(struct device *)ptr");
    match e.kind {
        ExprKind::Cast { ty, .. } => {
            assert_eq!(ty.base, "struct device");
            assert_eq!(ty.pointer, 1);
        }
        other => panic!("expected cast, got {other:?}"),
    }
}

#[test]
fn expression_not_a_cast() {
    // `(a) + b` — parenthesized expression, not a cast.
    let e = parse_expr_str("(a) + b");
    assert!(matches!(
        e.kind,
        ExprKind::Binary {
            op: refminer_cparse::BinOp::Add,
            ..
        }
    ));
}

#[test]
fn expression_address_and_member() {
    let e = parse_expr_str("&serial->disc_mutex");
    assert_eq!(e.root_var(), Some("serial"));
    match &e.kind {
        ExprKind::Unary { op, operand } => {
            assert_eq!(*op, refminer_cparse::UnOp::AddrOf);
            assert!(matches!(operand.kind, ExprKind::Member { .. }));
        }
        other => panic!("expected unary, got {other:?}"),
    }
}

#[test]
fn statement_switch_and_case() {
    let stmts = parse_stmts_str("switch (mode) { case 1: x = 1; break; default: x = 0; }");
    match &stmts[0].kind {
        StmtKind::Switch { body, .. } => {
            let mut cases = 0;
            let mut defaults = 0;
            body.walk(&mut |s| match &s.kind {
                StmtKind::Case(_) => cases += 1,
                StmtKind::Default => defaults += 1,
                _ => {}
            });
            assert_eq!(cases, 1);
            assert_eq!(defaults, 1);
        }
        other => panic!("expected switch, got {other:?}"),
    }
}

#[test]
fn statement_do_while() {
    let stmts = parse_stmts_str("do { x++; } while (x < 10);");
    assert!(matches!(stmts[0].kind, StmtKind::DoWhile { .. }));
}

#[test]
fn statement_for_with_decl_init() {
    let stmts = parse_stmts_str("for (int i = 0; i < n; i++) sum += i;");
    match &stmts[0].kind {
        StmtKind::For {
            init, cond, step, ..
        } => {
            assert!(matches!(
                init.as_deref().map(|s| &s.kind),
                Some(StmtKind::Decl(_))
            ));
            assert!(cond.is_some());
            assert!(step.is_some());
        }
        other => panic!("expected for, got {other:?}"),
    }
}

#[test]
fn declaration_vs_expression_heuristic() {
    // Pointer declaration.
    let stmts = parse_stmts_str("struct device_node *np = NULL;");
    assert!(matches!(&stmts[0].kind, StmtKind::Decl(d) if d[0].name == "np"));
    // Typedef-name declaration.
    let stmts = parse_stmts_str("u32 reg;");
    assert!(matches!(&stmts[0].kind, StmtKind::Decl(d) if d[0].name == "reg"));
    // Plain call expression.
    let stmts = parse_stmts_str("of_node_put(np);");
    assert!(matches!(&stmts[0].kind, StmtKind::Expr(_)));
    // Assignment expression.
    let stmts = parse_stmts_str("np = of_find_node_by_name(NULL, \"x\");");
    assert!(matches!(&stmts[0].kind, StmtKind::Expr(_)));
}

#[test]
fn multi_declarator_locals() {
    let stmts = parse_stmts_str("int a = 1, *b, c[4];");
    match &stmts[0].kind {
        StmtKind::Decl(decls) => {
            assert_eq!(decls.len(), 3);
            assert_eq!(decls[0].name, "a");
            assert_eq!(decls[1].name, "b");
            assert_eq!(decls[1].ty.pointer, 1);
            assert_eq!(decls[2].name, "c");
        }
        other => panic!("expected decl, got {other:?}"),
    }
}

#[test]
fn prototypes_are_kept() {
    let src = "extern struct device_node *of_find_node_by_name(struct device_node *from, const char *name);";
    let tu = parse_str("t.h", src);
    match &tu.items[0] {
        Item::Prototype(p) => {
            assert_eq!(p.name, "of_find_node_by_name");
            assert_eq!(p.ret.pointer, 1);
            assert_eq!(p.params.len(), 2);
        }
        other => panic!("expected prototype, got {other:?}"),
    }
}

#[test]
fn static_inline_header_function() {
    let src = r#"
static inline int pm_runtime_get_sync(struct device *dev)
{
        return __pm_runtime_resume(dev, RPM_GET_PUT);
}
"#;
    let tu = parse_str("include/linux/pm_runtime.h", src);
    let f = tu.function("pm_runtime_get_sync").unwrap();
    assert!(f.is_static);
    assert_eq!(f.params[0].name.as_deref(), Some("dev"));
}

#[test]
fn sizeof_forms() {
    let e = parse_expr_str("sizeof(struct device)");
    assert!(matches!(e.kind, ExprKind::SizeofType(_)));
    let e = parse_expr_str("sizeof x");
    assert!(matches!(e.kind, ExprKind::Sizeof(_)));
    let e = parse_expr_str("sizeof(*ptr)");
    assert!(matches!(e.kind, ExprKind::Sizeof(_)));
}

#[test]
fn gcc_statement_expression() {
    let stmts = parse_stmts_str("v = ({ int t = f(); t + 1; });");
    assert!(matches!(&stmts[0].kind, StmtKind::Expr(_)));
}

#[test]
fn attribute_soup_function() {
    let src = r#"
static int __init __attribute__((unused)) early_setup(void)
{
        return 0;
}
"#;
    let tu = parse_str("init/main.c", src);
    assert!(tu.function("early_setup").is_some());
}

#[test]
fn preprocessor_lines_ignored_in_functions() {
    let src = r#"
int f(void)
{
#ifdef CONFIG_OF
        of_node_put(np);
#endif
        return 0;
}
"#;
    let tu = parse_str("t.c", src);
    let f = tu.function("f").unwrap();
    let mut put_calls = 0;
    for s in &f.body.stmts {
        s.walk_exprs(&mut |e| {
            if let Some(("of_node_put", _)) = e.as_direct_call() {
                put_calls += 1;
            }
        });
    }
    assert_eq!(put_calls, 1);
}

#[test]
fn nested_if_else_chains() {
    let stmts = parse_stmts_str("if (a) x = 1; else if (b) x = 2; else { x = 3; y = 4; }");
    let mut if_count = 0;
    stmts[0].walk(&mut |s| {
        if matches!(s.kind, StmtKind::If { .. }) {
            if_count += 1;
        }
    });
    // The `else if` is an arm of the one `if`, not an `if` nested in
    // its `else`.
    assert_eq!(if_count, 1);
    let StmtKind::If { els: Some(els), .. } = &stmts[0].kind else {
        panic!("not an if-else: {:?}", stmts[0].kind);
    };
    assert_eq!(els.arms.len(), 1);
    assert!(matches!(
        els.stmt.as_ref().map(|s| &s.kind),
        Some(StmtKind::Block(_))
    ));
}

#[test]
fn list_for_each_entry_single_stmt_body() {
    let stmts = parse_stmts_str(
        "list_for_each_entry(evt, &phba->ct_ev_waiters, node) lpfc_bsg_event_ref(evt);",
    );
    match &stmts[0].kind {
        StmtKind::MacroLoop { name, args, body } => {
            assert_eq!(name, "list_for_each_entry");
            assert_eq!(args.len(), 3);
            assert!(matches!(body.kind, StmtKind::Expr(_)));
        }
        other => panic!("expected macro loop, got {other:?}"),
    }
}

#[test]
fn call_with_function_pointer_arg_is_not_loop() {
    let stmts = parse_stmts_str("dev = bus_find_device(&bus, NULL, np, match_fn);");
    assert!(matches!(&stmts[0].kind, StmtKind::Expr(_)));
}

#[test]
fn comma_operator() {
    let e = parse_expr_str("a = 1, b = 2");
    assert!(matches!(e.kind, ExprKind::Comma(ref items) if items.len() == 2));
}

#[test]
fn string_concatenation() {
    let e = parse_expr_str(r#""hello " "world""#);
    assert!(matches!(e.kind, ExprKind::StrLit(ref s) if s == "hello world"));
}

#[test]
fn union_definition() {
    let src = "union acpi_object { int type; char *str; };";
    let tu = parse_str("t.h", src);
    let s = tu.structs().next().unwrap();
    assert!(s.is_union);
    assert_eq!(s.fields.len(), 2);
}

#[test]
fn anonymous_nested_struct_flattens() {
    let src = r#"
struct outer {
        int a;
        struct {
                int b;
                int c;
        };
        int d;
};
"#;
    let tu = parse_str("t.h", src);
    let s = tu.structs().next().unwrap();
    let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, vec!["a", "b", "c", "d"]);
}

#[test]
fn multi_declarator_globals_all_kept() {
    let tu = parse_str("t.c", "static int a = 1, b, *c;");
    let names: Vec<_> = tu.globals().map(|g| g.name.as_str()).collect();
    assert_eq!(names, vec!["a", "b", "c"]);
    let c = tu.globals().find(|g| g.name == "c").unwrap();
    assert_eq!(c.ty.pointer, 1);
}

#[test]
fn inline_asm_is_skipped() {
    let src = r#"
int f(void)
{
        asm volatile("mrs %0, cntvct_el0" : "=r"(val));
        __asm__("nop");
        do_thing();
        return 0;
}
"#;
    let tu = parse_str("t.c", src);
    let f = tu.function("f").unwrap();
    let mut calls = Vec::new();
    for s in &f.body.stmts {
        s.walk_exprs(&mut |e| {
            if let Some((name, _)) = e.as_direct_call() {
                calls.push(name.to_string());
            }
        });
    }
    assert_eq!(calls, vec!["do_thing"]);
}

// ----------------------------------------------------------------------
// Depth-cap / resource-limit robustness (fault-isolation guarantees).
// ----------------------------------------------------------------------

#[test]
fn deep_parens_degrade_without_overflow() {
    let depth = 5000;
    let src = format!(
        "int f(void) {{ return {}1{}; }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped, "5000 nested parens must hit the cap");
    assert!(out
        .errors
        .iter()
        .any(|e| matches!(e, refminer_cparse::ParseError::TooDeep { .. })));
    assert_eq!(out.unit.functions().count(), 1);
}

#[test]
fn deep_unary_chain_degrades_without_overflow() {
    let src = format!("int f(void) {{ return {}x; }}", "!".repeat(5000));
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped);
}

#[test]
fn deep_brace_statements_degrade_without_overflow() {
    let depth = 5000;
    let src = format!(
        "int f(void) {{ {} x = 1; {} }}",
        "{".repeat(depth),
        "}".repeat(depth)
    );
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped);
    assert_eq!(out.unit.functions().count(), 1);
}

#[test]
fn deep_initializer_braces_degrade_without_overflow() {
    let depth = 5000;
    let src = format!("int a = {}1{};", "{".repeat(depth), "}".repeat(depth));
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped);
}

#[test]
fn deep_nested_structs_degrade_without_overflow() {
    let depth = 3000;
    let src = format!(
        "struct s {{ {} int leaf; {} }};",
        "struct {".repeat(depth),
        "};".repeat(depth)
    );
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped);
}

#[test]
fn token_cap_reports_truncation() {
    let src = "int a; ".repeat(1000);
    let limits = refminer_cparse::ParseLimits {
        max_tokens: 50,
        ..Default::default()
    };
    let out = refminer_cparse::parse_str_limited("t.c", &src, &limits);
    assert!(
        out.truncated,
        "3000-token file under a 50-token cap must truncate"
    );
    assert!(out.unit.globals().count() <= 50);
}

#[test]
fn healthy_code_is_not_flagged_by_limits() {
    let src = r#"
static int probe(struct platform_device *pdev)
{
        struct device_node *np = pdev->dev.of_node;
        if (!np)
                return -ENODEV;
        return of_device_is_available(np) ? 0 : -ENODEV;
}
"#;
    let out =
        refminer_cparse::parse_str_limited("t.c", src, &refminer_cparse::ParseLimits::default());
    assert!(!out.depth_capped);
    assert!(!out.truncated);
    assert!(out.lex_errors.is_empty());
    assert!(out.errors.is_empty());
}

/// Expression depth, measured without recursion (a recursive helper
/// would itself overflow on the bug this guards against).
fn max_expr_depth(unit: &refminer_cparse::TranslationUnit) -> usize {
    use refminer_cparse::{Expr, ExprKind};
    fn children(e: &Expr) -> Vec<&Expr> {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                let mut v: Vec<&Expr> = args.iter().collect();
                v.push(callee);
                v
            }
            ExprKind::Member { base, .. } => vec![base],
            ExprKind::Index { base, index } => vec![base, index],
            ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => vec![operand],
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                vec![lhs, rhs]
            }
            ExprKind::Ternary { cond, then, els } => vec![cond, then, els],
            ExprKind::Cast { expr, .. } | ExprKind::Sizeof(expr) => vec![expr],
            ExprKind::Comma(items) => items.iter().collect(),
            ExprKind::InitList(items) => items.iter().map(|(_, e)| &**e).collect(),
            _ => Vec::new(),
        }
    }
    let mut deepest = 0;
    for f in unit.functions() {
        for s in &f.body.stmts {
            s.walk_exprs(&mut |e| {
                let mut stack = vec![(e, 1usize)];
                while let Some((e, d)) = stack.pop() {
                    deepest = deepest.max(d);
                    for c in children(e) {
                        stack.push((c, d + 1));
                    }
                }
            });
        }
    }
    deepest
}

#[test]
fn long_binary_chain_builds_a_bounded_ast() {
    // `1+1+1+...` nests the AST one level per term with no parser
    // recursion; the depth cap must still bound the tree so downstream
    // recursive walkers (and Drop) cannot overflow.
    let src = format!(
        "int f(void)\n{{\n        return {};\n}}\n",
        vec!["1"; 6000].join(" + ")
    );
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped);
    let cap = refminer_cparse::ParseLimits::default().max_depth as usize;
    assert!(max_expr_depth(&out.unit) <= cap + 1);
}

#[test]
fn paren_run_recovery_builds_a_bounded_ast() {
    // Once the descent caps out, leftover `(` runs land in the postfix
    // call loop, which wraps iteratively; the wrap layers must also be
    // charged against the depth budget.
    let depth = 6000;
    let src = format!(
        "int f(void)\n{{\n        return {}1{};\n}}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let out =
        refminer_cparse::parse_str_limited("t.c", &src, &refminer_cparse::ParseLimits::default());
    assert!(out.depth_capped);
    let cap = refminer_cparse::ParseLimits::default().max_depth as usize;
    assert!(max_expr_depth(&out.unit) <= cap + 1);
}

/// A stray token where an operand should be, right before a function's
/// closing brace (`return 0;+}`): the `}` still closes the function, so
/// the function after it stays its own.
#[test]
fn stray_operand_before_a_closing_brace_keeps_the_next_function() {
    let tu = parse_str(
        "t.c",
        "int a(void)\n{\n\treturn 0;+}\n\nstatic int b(void)\n{\n\treturn 1;\n}\n",
    );
    let names: Vec<&str> = tu.functions().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["a", "b"]);
}

/// Statement-level recovery at the depth cap stops before the `}` that
/// closes the enclosing block, at every cap.
#[test]
fn depth_capped_recovery_leaves_the_closing_brace() {
    let src = "int a(void)\n{\n\tif (x)\n\t\tif (y)\n\t\t\tif (z)\n}\n\
               static int b(void)\n{\n\treturn 1;\n}\n";
    for max_depth in 1..=8 {
        let limits = refminer_cparse::ParseLimits {
            max_depth,
            ..Default::default()
        };
        let tu = refminer_cparse::parse_str_limited("t.c", src, &limits).unit;
        let names: Vec<&str> = tu.functions().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "max_depth {max_depth}");
    }
}
