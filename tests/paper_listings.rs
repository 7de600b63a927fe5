//! Every code listing of the paper, pushed through the pipeline: the
//! checkers must reproduce each listed bug (and stay quiet on the
//! corrected variants).

use std::collections::BTreeSet;

use refminer::checkers::{check_unit, AntiPattern, EngineId, Impact};
use refminer::corpus::{generate_tree, TreeConfig};
use refminer::cparse::parse_str;
use refminer::cpg::FunctionGraph;
use refminer::rcapi::ApiKb;
use refminer::template::{parse_template, TemplateMatcher};
use refminer::{audit, AuditConfig, Project};

fn findings(src: &str) -> Vec<refminer::Finding> {
    let tu = parse_str("listing.c", src);
    check_unit(&tu, &ApiKb::builtin())
}

/// Listing 1 — the NVMEM missing-refcounting bug: `bus_find_device`
/// embeds an increment the error path never undoes.
#[test]
fn listing_1_nvmem_missing_refcounting() {
    let f = findings(
        r#"
struct nvmem_device *__nvmem_device_get(struct device_node *np)
{
        struct device *dev;
        dev = bus_find_device(&nvmem_bus_type, NULL, np, of_nvmem_match);
        if (!dev)
                return ERR_PTR(-EPROBE_DEFER);
        if (any_error)
                return ERR_PTR(-EINVAL);
        return to_nvmem_device(dev);
}
"#,
    );
    assert!(
        f.iter()
            .any(|x| x.pattern == AntiPattern::P4 && x.api == "bus_find_device"),
        "got {f:?}"
    );
}

/// Listing 2 — the USB serial misplacing-refcounting bug: the unlock
/// dereferences `serial` after `usb_serial_put` may have freed it.
#[test]
fn listing_2_usb_console_uad() {
    let f = findings(
        r#"
static int usb_console_setup(struct console *co, char *options)
{
        usb_serial_put(serial);
        mutex_unlock(&serial->disc_mutex);
        return retval;
}
"#,
    );
    assert!(
        f.iter().any(|x| {
            x.pattern == AntiPattern::P8
                && x.impact == Impact::Uaf
                && x.object.as_deref() == Some("serial")
        }),
        "got {f:?}"
    );
}

/// Listing 3 — the Return-Error deviation: `pm_runtime_get_sync`
/// increments even on failure; the caller's early return leaks.
#[test]
fn listing_3_stm32_return_error() {
    let f = findings(
        r#"
static int stm32_crc_remove(struct platform_device *pdev)
{
        struct stm32_crc *crc = platform_get_drvdata(pdev);
        int ret = pm_runtime_get_sync(crc->dev);
        if (ret < 0)
                return ret;
        crc_shutdown(crc);
        pm_runtime_put(crc->dev);
        return 0;
}
"#,
    );
    assert!(
        f.iter()
            .any(|x| x.pattern == AntiPattern::P1 && x.api == "pm_runtime_get_sync"),
        "got {f:?}"
    );
}

/// Listing 4 — the smartloop break bug in the Broadcom PM driver.
#[test]
fn listing_4_brcmstb_smartloop_break() {
    let f = findings(
        r#"
static int brcmstb_pm_probe(struct platform_device *pdev)
{
        struct device_node *dn;
        int i = 0;
        for_each_matching_node(dn, sram_dt_ids) {
                ctrl.memcs[i] = of_iomap(dn, 0);
                if (!ctrl.memcs[i])
                        break;
                i++;
        }
        return 0;
}
"#,
    );
    assert!(
        f.iter()
            .any(|x| { x.pattern == AntiPattern::P3 && x.api == "for_each_matching_node" }),
        "got {f:?}"
    );
}

/// Listing 5 — the lpfc false positive: the conditional get inside the
/// list iteration is guarded by the later NULL-equivalent check. Our
/// checkers must not flag `lpfc_bsg_event_ref` here (the paper's tool
/// did — it was one of their 5 FPs).
#[test]
fn listing_5_lpfc_event_shape() {
    let f = findings(
        r#"
static int lpfc_bsg_hba_set_event(struct bsg_job *job)
{
        struct lpfc_bsg_event *evt;
        list_for_each_entry(evt, &phba->ct_ev_waiters, node) {
                if (evt->reg_id == event_req->ev_reg_id)
                        lpfc_bsg_event_ref(evt);
        }
        if (&evt->node == &phba->ct_ev_waiters) {
                evt = lpfc_bsg_event_new(ev_mask);
        }
        return evt ? 0 : -ENOMEM;
}
"#,
    );
    assert!(
        !f.iter().any(|x| x.api == "lpfc_bsg_event_ref"),
        "the Listing 5 shape must not be flagged: {f:?}"
    );
}

/// Listing 6 — the `ping_unhash` UAD the developers disputed: the
/// checkers report it (as the paper's did; the patch was rejected).
#[test]
fn listing_6_ping_unhash_uad() {
    let f = findings(
        r#"
void ping_unhash(struct sock *sk)
{
        sock_put(sk);
        isk->inet_num = 0;
        isk->inet_sport = 0;
        sock_prot_inuse_add(net, sk->sk_prot, -1);
}
"#,
    );
    assert!(
        f.iter()
            .any(|x| { x.pattern == AntiPattern::P8 && x.object.as_deref() == Some("sk") }),
        "got {f:?}"
    );
}

/// Table 1 — both semantic templates match their listings through the
/// generic template matcher (independent of the specialized checkers).
#[test]
fn table_1_templates_match_listings() {
    let kb = ApiKb::builtin();
    let matcher = TemplateMatcher::new(&kb);

    let tu = parse_str(
        "l1.c",
        r#"
struct nvmem_device *__nvmem_device_get(struct device_node *np)
{
        struct device *dev = bus_find_device(&bus, NULL, np, match_fn);
        if (!dev)
                return ERR_PTR(-EPROBE_DEFER);
        return to_nvmem_device(dev);
}
"#,
    );
    let g = FunctionGraph::build(tu.function("__nvmem_device_get").unwrap());
    let t1 = parse_template("F_start -> S_G -> B_error -> F_end").unwrap();
    assert_eq!(matcher.find(&t1, &g).len(), 1);

    let tu = parse_str(
        "l2.c",
        r#"
static int usb_console_setup(struct usb_serial *serial)
{
        usb_serial_put(serial);
        mutex_unlock(&serial->disc_mutex);
        return 0;
}
"#,
    );
    let g = FunctionGraph::build(tu.function("usb_console_setup").unwrap());
    let t2 = parse_template("F_start -> S_P(p0) -> S_{U.D}(p0) -> F_end").unwrap();
    let matches = matcher.find(&t2, &g);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].bindings[0].1, "serial");
}

/// Every finding the template engine stamps matches its pattern's
/// semantic template (§5) through the generic matcher, under the
/// audit's knowledge base: a checker only narrows its template, never
/// drifts away from it. Delta-only findings are out of scope, since
/// the delta engine's structural P5 for a double get has no error
/// block by construction.
#[test]
fn template_findings_match_their_pattern_template() {
    let trees = [
        TreeConfig::default(),
        TreeConfig {
            fp_traps: true,
            cross_unit: true,
            include_vendor: true,
            clone_groups: 3,
            ..Default::default()
        },
    ];
    let mut covered = BTreeSet::new();
    for config in trees {
        let tree = generate_tree(&config);
        let report = audit(&Project::from_tree(&tree), &AuditConfig::default());
        let matcher = TemplateMatcher::new(&report.kb);
        for f in &report.findings {
            if !f.engines.contains(&EngineId::Template) {
                continue;
            }
            let file = tree
                .files
                .iter()
                .find(|s| s.path == f.file)
                .expect("a finding names a file of the tree");
            let tu = parse_str(&file.path, &file.content);
            let func = tu
                .function(&f.function)
                .expect("a finding names a function of its file");
            let template = parse_template(f.pattern.template_text()).expect("valid template");
            assert!(
                !matcher
                    .find(&template, &FunctionGraph::build(func))
                    .is_empty(),
                "{f} does not match `{}`",
                f.pattern.template_text()
            );
            covered.insert(f.pattern);
        }
    }
    assert_eq!(covered, AntiPattern::all().into_iter().collect());
}

/// The corrected variants of the listings stay clean.
#[test]
fn corrected_listings_are_clean() {
    // Listing 1, fixed: put_device on the error path.
    let f = findings(
        r#"
struct nvmem_device *__nvmem_device_get(struct device_node *np)
{
        struct device *dev = bus_find_device(&bus, NULL, np, match_fn);
        if (!dev)
                return ERR_PTR(-EPROBE_DEFER);
        if (any_error) {
                put_device(dev);
                return ERR_PTR(-EINVAL);
        }
        return to_nvmem_device(dev);
}
"#,
    );
    assert!(f.is_empty(), "fixed listing 1 flagged: {f:?}");

    // Listing 2, fixed: unlock before the put.
    let f = findings(
        r#"
static int usb_console_setup(struct usb_serial *serial)
{
        mutex_unlock(&serial->disc_mutex);
        usb_serial_put(serial);
        return 0;
}
"#,
    );
    assert!(f.is_empty(), "fixed listing 2 flagged: {f:?}");

    // Listing 3, fixed: put_noidle on the error path.
    let f = findings(
        r#"
static int stm32_crc_remove(struct platform_device *pdev)
{
        int ret = pm_runtime_get_sync(pdev->dev.parent);
        if (ret < 0) {
                pm_runtime_put_noidle(pdev->dev.parent);
                return ret;
        }
        pm_runtime_put(pdev->dev.parent);
        return 0;
}
"#,
    );
    assert!(f.is_empty(), "fixed listing 3 flagged: {f:?}");

    // Listing 4, fixed: put before the break.
    let f = findings(
        r#"
static int brcmstb_pm_probe(struct platform_device *pdev)
{
        struct device_node *dn;
        for_each_matching_node(dn, sram_dt_ids) {
                if (!try_map(dn)) {
                        of_node_put(dn);
                        break;
                }
        }
        return 0;
}
"#,
    );
    assert!(f.is_empty(), "fixed listing 4 flagged: {f:?}");
}
