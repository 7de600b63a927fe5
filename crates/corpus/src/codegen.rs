//! C source emitters: buggy and clean kernel-idiom functions.
//!
//! Every anti-pattern gets a generator producing a realistic function
//! around a given bug-caused API, plus a *fixed* twin used as clean
//! filler. The shapes mirror the paper's listings (Listing 1–6).

use refminer_prng::{ChaCha8Rng, Rng};
use refminer_rcapi::ApiKb;

/// Deterministic identifier generator.
pub struct NameGen {
    rng: ChaCha8Rng,
    counter: u32,
}

const STEMS: &[&str] = &[
    "codec", "bridge", "phy", "dma", "pll", "mux", "gate", "port", "lane", "bank", "cell", "ring",
    "queue", "bus", "link", "core", "ctrl", "node", "timer", "clk",
];

impl NameGen {
    /// Creates a generator from an RNG.
    pub fn new(rng: ChaCha8Rng) -> NameGen {
        NameGen { rng, counter: 0 }
    }

    /// A fresh snake_case identifier with the given prefix.
    pub fn ident(&mut self, prefix: &str) -> String {
        let stem = STEMS[self.rng.gen_range(0..STEMS.len())];
        self.counter += 1;
        format!("{prefix}_{stem}{}", self.counter)
    }

    /// A fresh quoted string naming a DT node/compatible.
    pub fn dt_name(&mut self) -> String {
        let stem = STEMS[self.rng.gen_range(0..STEMS.len())];
        self.counter += 1;
        format!("\"vendor,{stem}-{}\"", self.counter)
    }
}

/// How an acquiring API is invoked in generated code: the C expression
/// and the declaration of the result variable.
fn acquire_expr(api: &str, ng: &mut NameGen) -> (String, &'static str) {
    // (call expression with `{}` for nothing, result type)
    match api {
        "of_find_compatible_node" => (
            format!("of_find_compatible_node(NULL, NULL, {})", ng.dt_name()),
            "struct device_node *",
        ),
        "of_find_matching_node" => (
            "of_find_matching_node(NULL, match_tbl)".to_string(),
            "struct device_node *",
        ),
        "of_find_node_by_name" => (
            format!("of_find_node_by_name(NULL, {})", ng.dt_name()),
            "struct device_node *",
        ),
        "of_find_node_by_path" => (
            format!("of_find_node_by_path(\"/soc/{}\")", ng.ident("n")),
            "struct device_node *",
        ),
        "of_find_node_by_phandle" => (
            "of_find_node_by_phandle(ph)".to_string(),
            "struct device_node *",
        ),
        "of_find_node_by_type" => (
            format!("of_find_node_by_type(NULL, {})", ng.dt_name()),
            "struct device_node *",
        ),
        "of_parse_phandle" => (
            format!("of_parse_phandle(pdev->dev.of_node, {}, 0)", ng.dt_name()),
            "struct device_node *",
        ),
        "of_get_parent" => (
            "of_get_parent(pdev->dev.of_node)".to_string(),
            "struct device_node *",
        ),
        "of_get_child_by_name" => (
            format!("of_get_child_by_name(pdev->dev.of_node, {})", ng.dt_name()),
            "struct device_node *",
        ),
        "of_get_node" => (
            "of_get_node(pdev->dev.of_node)".to_string(),
            "struct device_node *",
        ),
        "of_graph_get_port_by_id" => (
            "of_graph_get_port_by_id(pdev->dev.of_node, 0)".to_string(),
            "struct device_node *",
        ),
        "of_graph_get_port_parent" => (
            "of_graph_get_port_parent(ep)".to_string(),
            "struct device_node *",
        ),
        "ip_dev_find" => ("ip_dev_find(net, addr)".to_string(), "struct net_device *"),
        "mdesc_grab" => ("mdesc_grab()".to_string(), "struct mdesc_handle *"),
        "bus_find_device" => (
            "bus_find_device(&platform_bus_type, NULL, np, match_fn)".to_string(),
            "struct device *",
        ),
        _ => (format!("{api}(pdev->dev.of_node)"), "struct device_node *"),
    }
}

/// The decrement API pairing `api` (consults the builtin KB).
fn dec_for(kb: &ApiKb, api: &str) -> String {
    kb.accepted_decs(api)
        .into_iter()
        .next()
        .unwrap_or_else(|| "of_node_put".to_string())
}

/// Emits one buggy function for anti-pattern `pattern` (1..=9) around
/// `api`. Returns the function's C source.
///
/// `uaf_variant` selects the missing-increase (UAF) flavour for P4.
pub fn emit_bug(
    pattern: u8,
    api: &str,
    fn_name: &str,
    kb: &ApiKb,
    ng: &mut NameGen,
    uaf_variant: bool,
) -> String {
    match pattern {
        1 => emit_p1(api, fn_name, ng),
        2 => emit_p2(api, fn_name, kb, ng),
        3 => emit_p3(api, fn_name, kb, ng),
        4 if uaf_variant => emit_p4_uaf(api, fn_name, ng),
        4 => emit_p4(api, fn_name, ng),
        5 => emit_p5(api, fn_name, kb, ng),
        6 => emit_p6(api, fn_name, kb, ng),
        7 => emit_p7(api, fn_name, ng),
        8 => emit_p8(api, fn_name, ng),
        9 => emit_p9(api, fn_name, ng),
        _ => unreachable!("pattern out of range"),
    }
}

/// Emits the clean (fixed) twin of the same shape.
pub fn emit_clean(pattern: u8, api: &str, fn_name: &str, kb: &ApiKb, ng: &mut NameGen) -> String {
    match pattern {
        1 => {
            let helper = ng.ident("cfg");
            format!(
                "static int {fn_name}(struct platform_device *pdev)\n\
                 {{\n\
                 \tint ret = pm_runtime_get_sync(pdev->dev.parent);\n\
                 \tif (ret < 0) {{\n\
                 \t\tpm_runtime_put_noidle(pdev->dev.parent);\n\
                 \t\treturn ret;\n\
                 \t}}\n\
                 \t{helper}(pdev);\n\
                 \tpm_runtime_put(pdev->dev.parent);\n\
                 \treturn 0;\n\
                 }}\n"
            )
        }
        2 => {
            let (expr, ty) = acquire_expr(api, ng);
            let dec = dec_for(kb, api);
            format!(
                "static int {fn_name}(void)\n\
                 {{\n\
                 \t{ty}hp = {expr};\n\
                 \tif (!hp)\n\
                 \t\treturn -ENODEV;\n\
                 \tprocess_version(hp->version);\n\
                 \t{dec}(hp);\n\
                 \treturn 0;\n\
                 }}\n"
            )
        }
        3 => {
            let sl = kb.smartloop(api);
            let dec = sl
                .map(|s| s.dec_name.clone())
                .unwrap_or("of_node_put".into());
            let (head, iter) = smartloop_head(api, kb, ng);
            format!(
                "static int {fn_name}(struct platform_device *pdev)\n\
                 {{\n\
                 \tstruct device_node *{iter};\n\
                 \t{head} {{\n\
                 \t\tif (want_node({iter})) {{\n\
                 \t\t\t{dec}({iter});\n\
                 \t\t\tbreak;\n\
                 \t\t}}\n\
                 \t}}\n\
                 \treturn 0;\n\
                 }}\n"
            )
        }
        5 | 4 => {
            let (expr, ty) = acquire_expr(api, ng);
            let dec = dec_for(kb, api);
            let helper = ng.ident("setup");
            format!(
                "static int {fn_name}(struct platform_device *pdev)\n\
                 {{\n\
                 \t{ty}np = {expr};\n\
                 \tint ret;\n\
                 \tif (!np)\n\
                 \t\treturn -ENODEV;\n\
                 \tret = {helper}(np);\n\
                 \tif (ret)\n\
                 \t\tgoto err_put;\n\
                 \t{dec}(np);\n\
                 \treturn 0;\n\
                 err_put:\n\
                 \t{dec}(np);\n\
                 \treturn ret;\n\
                 }}\n"
            )
        }
        6 => {
            // Clean ops pair is emitted by the P6 generator directly;
            // standalone clean filler reuses the P4/P5 clean shape.
            emit_clean(5, api, fn_name, kb, ng)
        }
        7 => {
            let (expr, ty) = acquire_expr(api, ng);
            let dec = dec_for(kb, api);
            format!(
                "static void {fn_name}(struct platform_device *pdev)\n\
                 {{\n\
                 \t{ty}np = {expr};\n\
                 \tif (!np)\n\
                 \t\treturn;\n\
                 \t{dec}(np);\n\
                 }}\n"
            )
        }
        8 => {
            let obj = ng.ident("st");
            format!(
                "static void {fn_name}(struct sock *{obj})\n\
                 {{\n\
                 \t{obj}->sk_state = 0;\n\
                 \tupdate_stats({obj}->sk_prot);\n\
                 \tsock_put({obj});\n\
                 }}\n"
            )
        }
        9 => {
            format!(
                "static void {fn_name}(struct foo_priv *priv, struct device_node *np)\n\
                 {{\n\
                 \tof_node_get(np);\n\
                 \tpriv->node = np;\n\
                 }}\n"
            )
        }
        _ => unreachable!("pattern out of range"),
    }
}

/// Emits a neutral helper that exercises no refcounting at all. Every
/// third filler is wrapped in a `#ifdef` block, as kernel code would
/// be, exercising the preprocessor-skipping path of the pipeline.
pub fn emit_filler(fn_name: &str, ng: &mut NameGen) -> String {
    let reg = ng.ident("reg");
    let mask = ng.ident("mask");
    let body = format!(
        "static u32 {fn_name}(u32 {reg}, u32 {mask})\n\
         {{\n\
         \tu32 val = {reg} & {mask};\n\
         \tif (val > 16)\n\
         \t\tval = val >> 2;\n\
         \telse\n\
         \t\tval = val << 1;\n\
         \treturn val ^ {mask};\n\
         }}\n"
    );
    if fn_name.len().is_multiple_of(3) {
        format!(
            "#ifdef CONFIG_{}\n{body}#endif\n",
            fn_name.to_ascii_uppercase()
        )
    } else {
        body
    }
}

fn emit_p1(_api: &str, fn_name: &str, ng: &mut NameGen) -> String {
    // Listing 3's shape: inc-on-error API, early return on failure.
    let helper = ng.ident("cfg");
    format!(
        "static int {fn_name}(struct platform_device *pdev)\n\
         {{\n\
         \tint ret = pm_runtime_get_sync(pdev->dev.parent);\n\
         \tif (ret < 0)\n\
         \t\treturn ret;\n\
         \t{helper}(pdev);\n\
         \tpm_runtime_put(pdev->dev.parent);\n\
         \treturn 0;\n\
         }}\n"
    )
}

fn emit_p2(api: &str, fn_name: &str, kb: &ApiKb, ng: &mut NameGen) -> String {
    let (expr, ty) = acquire_expr(api, ng);
    let dec = dec_for(kb, api);
    format!(
        "static int {fn_name}(void)\n\
         {{\n\
         \t{ty}hp = {expr};\n\
         \tprocess_version(hp->version);\n\
         \t{dec}(hp);\n\
         \treturn 0;\n\
         }}\n"
    )
}

/// Builds the smartloop header line and iterator name for a loop macro.
fn smartloop_head(api: &str, kb: &ApiKb, ng: &mut NameGen) -> (String, String) {
    let iter = ng.ident("dn");
    let sl = kb.smartloop(api);
    let iter_arg = sl.map(|s| s.iter_arg).unwrap_or(0);
    let head = match api {
        "for_each_child_of_node"
        | "for_each_available_child_of_node"
        | "device_for_each_child_node"
        | "fwnode_for_each_child_node" => {
            // (parent, child).
            debug_assert_eq!(iter_arg, 1);
            format!("{api}(pdev->dev.of_node, {iter})")
        }
        "for_each_compatible_node" => format!("{api}({iter}, NULL, \"vendor,x\")"),
        "for_each_matching_node" => format!("{api}({iter}, match_tbl)"),
        "for_each_node_by_name" => format!("{api}({iter}, \"port\")"),
        "for_each_cpu_node" => format!("{api}({iter})"),
        _ => format!("{api}({iter})"),
    };
    (head, iter)
}

fn emit_p3(api: &str, fn_name: &str, kb: &ApiKb, ng: &mut NameGen) -> String {
    // Listing 4's shape: break out of a smartloop without the put.
    let (head, iter) = smartloop_head(api, kb, ng);
    format!(
        "static int {fn_name}(struct platform_device *pdev)\n\
         {{\n\
         \tstruct device_node *{iter};\n\
         \tint found = 0;\n\
         \t{head} {{\n\
         \t\tif (want_node({iter})) {{\n\
         \t\t\tfound = 1;\n\
         \t\t\tbreak;\n\
         \t\t}}\n\
         \t}}\n\
         \treturn found ? 0 : -ENODEV;\n\
         }}\n"
    )
}

fn emit_p4(api: &str, fn_name: &str, ng: &mut NameGen) -> String {
    // Listing 1's shape: find-like acquisition, never released.
    let (expr, ty) = acquire_expr(api, ng);
    let helper = ng.ident("read");
    format!(
        "static int {fn_name}(struct platform_device *pdev)\n\
         {{\n\
         \t{ty}np = {expr};\n\
         \tu32 val;\n\
         \tif (!np)\n\
         \t\treturn -ENODEV;\n\
         \tif ({helper}(np, &val))\n\
         \t\treturn -EIO;\n\
         \twriteback(pdev, val);\n\
         \treturn 0;\n\
         }}\n"
    )
}

fn emit_p4_uaf(api: &str, fn_name: &str, ng: &mut NameGen) -> String {
    // The hidden-decrement flavour (§5.2.2): `from` is borrowed but the
    // find API puts it.
    let from = ng.ident("from");
    let call = match api {
        "of_find_compatible_node" => {
            format!("of_find_compatible_node({from}, NULL, \"vendor,x\")")
        }
        "of_find_matching_node" => format!("of_find_matching_node({from}, match_tbl)"),
        "of_find_node_by_name" => format!("of_find_node_by_name({from}, \"port\")"),
        "of_find_node_by_type" => format!("of_find_node_by_type({from}, \"cpu\")"),
        _ => format!("{api}({from}, NULL, \"vendor,x\")"),
    };
    format!(
        "static struct device_node *{fn_name}(struct device_node *{from})\n\
         {{\n\
         \tstruct device_node *np = {call};\n\
         \treturn np;\n\
         }}\n"
    )
}

fn emit_p5(api: &str, fn_name: &str, kb: &ApiKb, ng: &mut NameGen) -> String {
    // Paired on the success path, missed in the error label.
    let (expr, ty) = acquire_expr(api, ng);
    let dec = dec_for(kb, api);
    let helper = ng.ident("setup");
    format!(
        "static int {fn_name}(struct platform_device *pdev)\n\
         {{\n\
         \t{ty}np = {expr};\n\
         \tint ret;\n\
         \tif (!np)\n\
         \t\treturn -ENODEV;\n\
         \tret = {helper}(np);\n\
         \tif (ret)\n\
         \t\tgoto err_unmap;\n\
         \t{dec}(np);\n\
         \treturn 0;\n\
         err_unmap:\n\
         \tunmap_resources(pdev);\n\
         \treturn ret;\n\
         }}\n"
    )
}

fn emit_p6(api: &str, base: &str, kb: &ApiKb, ng: &mut NameGen) -> String {
    // An ops-table pair whose remove side forgets the put.
    let (expr, _ty) = acquire_expr(api, ng);
    let _ = dec_for(kb, api);
    format!(
        "static int {base}_probe(struct platform_device *pdev)\n\
         {{\n\
         \tstruct {base}_priv *priv = devm_kzalloc(&pdev->dev, sizeof(*priv), GFP_KERNEL);\n\
         \tif (!priv)\n\
         \t\treturn -ENOMEM;\n\
         \tpriv->node = {expr};\n\
         \tplatform_set_drvdata(pdev, priv);\n\
         \treturn 0;\n\
         }}\n\
         \n\
         static int {base}_remove(struct platform_device *pdev)\n\
         {{\n\
         \tstruct {base}_priv *priv = platform_get_drvdata(pdev);\n\
         \tdisable_hw(priv);\n\
         \treturn 0;\n\
         }}\n\
         \n\
         static const struct platform_driver {base}_driver = {{\n\
         \t.probe = {base}_probe,\n\
         \t.remove = {base}_remove,\n\
         }};\n"
    )
}

fn emit_p7(api: &str, fn_name: &str, ng: &mut NameGen) -> String {
    // Direct kfree of a refcounted object (§5.3.3).
    let (expr, ty) = acquire_expr(api, ng);
    format!(
        "static void {fn_name}(struct platform_device *pdev)\n\
         {{\n\
         \t{ty}np = {expr};\n\
         \tif (!np)\n\
         \t\treturn;\n\
         \tkfree(np);\n\
         }}\n"
    )
}

fn emit_p8(api: &str, fn_name: &str, ng: &mut NameGen) -> String {
    // UAD (Listing 6's shape), parameterized by the dec API.
    let obj = ng.ident("obj");
    let (param_ty, deref) = match api {
        "sock_put" => ("struct sock *", "sk_prot"),
        "usb_serial_put" => ("struct usb_serial *", "disc_mutex"),
        "nvmet_fc_tgt_q_put" => ("struct nvmet_fc_tgt_queue *", "fod_lock"),
        "of_node_put" => ("struct device_node *", "name"),
        _ => ("struct device_node *", "name"),
    };
    format!(
        "static void {fn_name}({param_ty}{obj})\n\
         {{\n\
         \t{api}({obj});\n\
         \tupdate_stats({obj}->{deref});\n\
         }}\n"
    )
}

fn emit_p9(_api: &str, fn_name: &str, ng: &mut NameGen) -> String {
    // Borrowed reference escaping into long-lived state (§5.4.2).
    let field = ng.ident("slot");
    format!(
        "static void {fn_name}(struct foo_priv *priv, struct device_node *np)\n\
         {{\n\
         \tpriv->{field} = np;\n\
         \tpriv->ready = 1;\n\
         }}\n"
    )
}

/// A correct-but-tricky snippet reproducing the paper's false-positive
/// root cause (§6.4): the release is semantically guaranteed but
/// syntactically invisible to the checker — here, hidden inside an
/// extern helper whose implementation lives in another file. The
/// code is correct; the checkers are expected to flag it anyway.
pub fn emit_tricky(fn_name: &str, ng: &mut NameGen) -> String {
    let helper = ng.ident("ctx_teardown");
    format!(
        "extern void {helper}(struct device_node *np);\n\
         \n\
         static int {fn_name}(struct platform_device *pdev)\n\
         {{\n\
         \tstruct device_node *np = of_find_node_by_name(NULL, \"ports\");\n\
         \tif (!np)\n\
         \t\treturn -ENODEV;\n\
         \tif (setup_hw(np) < 0) {{\n\
         \t\t/* {helper}() drops the node reference internally. */\n\
         \t\t{helper}(np);\n\
         \t\treturn -EIO;\n\
         \t}}\n\
         \t{helper}(np);\n\
         \treturn 0;\n\
         }}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_checkers::{check_unit, AntiPattern};
    use refminer_cparse::parse_str;
    use refminer_prng::SeedableRng;

    fn ng() -> NameGen {
        NameGen::new(ChaCha8Rng::seed_from_u64(7))
    }

    fn kb() -> ApiKb {
        ApiKb::builtin()
    }

    /// Every buggy emitter must trigger exactly its checker; every
    /// clean emitter must trigger none.
    #[test]
    fn emitted_bugs_trigger_their_checker() {
        let kb = kb();
        let mut ng = ng();
        let cases: &[(u8, &str)] = &[
            (1, "pm_runtime_get_sync"),
            (2, "mdesc_grab"),
            (3, "for_each_child_of_node"),
            (3, "for_each_compatible_node"),
            (3, "for_each_matching_node"),
            (4, "of_find_compatible_node"),
            (4, "of_parse_phandle"),
            (4, "of_get_parent"),
            (5, "of_find_node_by_path"),
            (6, "of_find_node_by_name"),
            (7, "of_find_node_by_name"),
            (8, "sock_put"),
            (8, "of_node_put"),
            (9, "of_node_get"),
        ];
        for (pattern, api) in cases {
            let src = emit_bug(*pattern, api, "test_fn", &kb, &mut ng, false);
            let tu = parse_str("drivers/test/gen.c", &src);
            let findings = check_unit(&tu, &kb);
            assert!(
                findings.iter().any(|f| f.pattern.number() == *pattern),
                "P{pattern} via {api} not detected; findings={findings:?}\nsrc:\n{src}"
            );
        }
    }

    #[test]
    fn p4_uaf_variant_triggers_uaf() {
        let kb = kb();
        let mut ng = ng();
        let src = emit_bug(4, "of_find_matching_node", "next_one", &kb, &mut ng, true);
        let tu = parse_str("t.c", &src);
        let findings = check_unit(&tu, &kb);
        assert!(findings
            .iter()
            .any(|f| f.pattern == AntiPattern::P4 && f.impact == refminer_checkers::Impact::Uaf));
    }

    #[test]
    fn clean_twins_are_clean() {
        let kb = kb();
        let mut ng = ng();
        for (pattern, api) in [
            (1u8, "pm_runtime_get_sync"),
            (2, "mdesc_grab"),
            (3, "for_each_child_of_node"),
            (4, "of_find_compatible_node"),
            (5, "of_find_node_by_path"),
            (7, "of_find_node_by_name"),
            (8, "sock_put"),
            (9, "of_node_get"),
        ] {
            let src = emit_clean(pattern, api, "clean_fn", &kb, &mut ng);
            let tu = parse_str("t.c", &src);
            let findings = check_unit(&tu, &kb);
            assert!(
                findings.is_empty(),
                "clean P{pattern} flagged: {findings:?}\nsrc:\n{src}"
            );
        }
    }

    #[test]
    fn filler_is_clean() {
        let kb = kb();
        let mut ng = ng();
        let src = emit_filler("mask_helper", &mut ng);
        let tu = parse_str("t.c", &src);
        assert!(check_unit(&tu, &kb).is_empty());
    }

    #[test]
    fn names_are_unique() {
        let mut ng = ng();
        let a = ng.ident("x");
        let b = ng.ident("x");
        assert_ne!(a, b);
    }
}
