//! The binary payload codec for the persisted audit cache.
//!
//! `audit-cache.bin` is a length-prefixed container (framed in
//! [`crate::cache`]); this module encodes and decodes the *per-entry
//! payloads* — one [`ParsedUnit`] (with its [`UnitExports`]),
//! [`CheckedUnit`] or [`Barrier`] each. The design goals, in order:
//!
//! - **Self-contained**: every payload decodes on its own, from its own
//!   length-prefixed bytes, so one that fails to decode is dropped alone
//!   and its neighbours load.
//! - **Total decoding**: `decode_*` returns `Option` and never panics
//!   on any byte string — lengths are bounds-checked against the
//!   remaining input, strings are UTF-8-validated, enum tags are
//!   matched exhaustively. (The container checksums the whole body, so
//!   a failing payload decode is a checksum-collision-grade event; it
//!   degrades to a cache miss, never to wrong results.)
//! - **Deterministic**: equal values encode to equal bytes. Knowledge
//!   bases serialize their APIs and smartloops in sorted-name order, so
//!   `kb_fingerprint`, which hashes this encoding, is order-free.
//!
//! Primitive wire forms, all little-endian: `u64` (8 bytes), `u32`
//! (4 bytes), `u8` tags, `bool` as `0/1`, strings and vectors prefixed
//! with a `u32` count. Enum tags are positional indices into the
//! taxonomy-order lists (`UnitErrorKind::all()`, `AntiPattern::all()`)
//! or explicit `match`es — stable as long as the order is, which the
//! cache version guards.

use std::sync::Arc;

use refminer_checkers::{AntiPattern, Finding, Impact};
use refminer_clex::MacroDef;
use refminer_cpg::Feasibility;
use refminer_progdb::{CallSite, FnExport, UnitExports};
use refminer_rcapi::{
    ApiKb, ObjectFlow, RcApi, RcClass, RcDir, SmartLoop, StructFact, UnitDiscovery,
};

use crate::audit::UnitErrorKind;
use crate::cache::{Barrier, CachedError, CheckedUnit, ParsedUnit};

// ----------------------------------------------------------------------
// Primitives.
// ----------------------------------------------------------------------

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked read cursor over an entry payload (or the container
/// itself). Every accessor returns `None` past the end instead of
/// panicking.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes (the container framing reads each payload
    /// through here).
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok().map(str::to_string)
    }

    /// Reads a `u32` element count, rejecting counts that could not
    /// possibly fit in the remaining input (every element encodes to at
    /// least one byte) — a corrupt count then fails fast instead of
    /// provoking a giant allocation.
    fn count(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return None;
        }
        Some(n)
    }
}

fn put_vec<T>(out: &mut Vec<u8>, items: &[T], f: impl Fn(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for it in items {
        f(out, it);
    }
}

fn get_vec<T>(d: &mut Dec<'_>, f: impl Fn(&mut Dec<'_>) -> Option<T>) -> Option<Vec<T>> {
    let n = d.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f(d)?);
    }
    Some(out)
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
    }
}

fn get_opt_str(d: &mut Dec<'_>) -> Option<Option<String>> {
    match d.u8()? {
        0 => Some(None),
        1 => Some(Some(d.str()?)),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Leaf codecs.
// ----------------------------------------------------------------------

fn put_error(out: &mut Vec<u8>, e: &CachedError) {
    let kind = UnitErrorKind::all()
        .iter()
        .position(|k| *k == e.kind)
        .expect("every kind is in the taxonomy") as u8;
    put_u8(out, kind);
    put_str(out, &e.detail);
}

fn get_error(d: &mut Dec<'_>) -> Option<CachedError> {
    let kind = *UnitErrorKind::all().get(d.u8()? as usize)?;
    Some(CachedError {
        kind,
        detail: d.str()?,
    })
}

fn put_macro(out: &mut Vec<u8>, m: &MacroDef) {
    put_str(out, &m.name);
    match &m.params {
        None => put_u8(out, 0),
        Some(ps) => {
            put_u8(out, 1);
            put_vec(out, ps, |o, p| put_str(o, p));
        }
    }
    put_str(out, &m.body);
    put_u32(out, m.line);
}

fn get_macro(d: &mut Dec<'_>) -> Option<MacroDef> {
    let name = d.str()?;
    let params = match d.u8()? {
        0 => None,
        1 => Some(get_vec(d, |d| d.str())?),
        _ => return None,
    };
    Some(MacroDef {
        name,
        params,
        body: d.str()?,
        line: d.u32()?,
    })
}

fn put_flow(out: &mut Vec<u8>, flow: ObjectFlow) {
    match flow {
        ObjectFlow::Arg(i) => {
            put_u8(out, 0);
            put_u32(out, i as u32);
        }
        ObjectFlow::Returned => put_u8(out, 1),
        ObjectFlow::ArgAndReturned(i) => {
            put_u8(out, 2);
            put_u32(out, i as u32);
        }
    }
}

fn get_flow(d: &mut Dec<'_>) -> Option<ObjectFlow> {
    match d.u8()? {
        0 => Some(ObjectFlow::Arg(d.u32()? as usize)),
        1 => Some(ObjectFlow::Returned),
        2 => Some(ObjectFlow::ArgAndReturned(d.u32()? as usize)),
        _ => None,
    }
}

fn put_api(out: &mut Vec<u8>, api: &RcApi) {
    put_str(out, &api.name);
    put_u8(
        out,
        match api.class {
            RcClass::General => 0,
            RcClass::Specific => 1,
            RcClass::Embedded => 2,
        },
    );
    put_u8(
        out,
        match api.dir {
            RcDir::Inc => 0,
            RcDir::Dec => 1,
        },
    );
    put_flow(out, api.flow);
    put_vec(out, &api.dec_names, |o, n| put_str(o, n));
    put_bool(out, api.inc_on_error);
    put_bool(out, api.may_return_null);
    put_bool(out, api.releases_resources);
}

fn get_api(d: &mut Dec<'_>) -> Option<RcApi> {
    Some(RcApi {
        name: d.str()?,
        class: match d.u8()? {
            0 => RcClass::General,
            1 => RcClass::Specific,
            2 => RcClass::Embedded,
            _ => return None,
        },
        dir: match d.u8()? {
            0 => RcDir::Inc,
            1 => RcDir::Dec,
            _ => return None,
        },
        flow: get_flow(d)?,
        dec_names: get_vec(d, |d| d.str())?,
        inc_on_error: d.bool()?,
        may_return_null: d.bool()?,
        releases_resources: d.bool()?,
    })
}

fn put_struct_fact(out: &mut Vec<u8>, s: &StructFact) {
    put_str(out, &s.tag);
    put_bool(out, s.direct);
    put_vec(out, &s.embeds, |o, e| put_str(o, e));
}

fn get_struct_fact(d: &mut Dec<'_>) -> Option<StructFact> {
    Some(StructFact {
        tag: d.str()?,
        direct: d.bool()?,
        embeds: get_vec(d, |d| d.str())?,
    })
}

fn put_discovery(out: &mut Vec<u8>, disc: &UnitDiscovery) {
    put_vec(out, &disc.structs, put_struct_fact);
    put_vec(out, &disc.apis, put_api);
}

fn get_discovery(d: &mut Dec<'_>) -> Option<UnitDiscovery> {
    Some(UnitDiscovery {
        structs: get_vec(d, get_struct_fact)?,
        apis: get_vec(d, get_api)?,
    })
}

fn put_call_site(out: &mut Vec<u8>, c: &CallSite) {
    put_str(out, &c.callee);
    put_vec(out, &c.args, |o, a| match a {
        None => put_u8(o, 0),
        Some(i) => {
            put_u8(o, 1);
            put_u32(o, *i as u32);
        }
    });
}

fn get_call_site(d: &mut Dec<'_>) -> Option<CallSite> {
    Some(CallSite {
        callee: d.str()?,
        args: get_vec(d, |d| match d.u8()? {
            0 => Some(None),
            1 => Some(Some(d.u32()? as usize)),
            _ => None,
        })?,
    })
}

fn put_exports(out: &mut Vec<u8>, u: &UnitExports) {
    put_str(out, &u.path);
    put_vec(out, &u.fns, |o, f| {
        put_str(o, &f.name);
        put_bool(o, f.is_static);
        put_vec(o, &f.calls, put_call_site);
        put_vec(o, &f.stores, |o, s| put_u32(o, *s as u32));
    });
    put_vec(out, &u.loop_heads, |o, h| put_str(o, h));
}

fn get_exports(d: &mut Dec<'_>) -> Option<UnitExports> {
    Some(UnitExports {
        path: d.str()?,
        fns: get_vec(d, |d| {
            Some(FnExport {
                name: d.str()?,
                is_static: d.bool()?,
                calls: get_vec(d, get_call_site)?,
                stores: get_vec(d, |d| Some(d.u32()? as usize))?,
            })
        })?,
        loop_heads: get_vec(d, |d| d.str())?,
    })
}

fn put_finding(out: &mut Vec<u8>, f: &Finding) {
    let pattern = AntiPattern::all()
        .iter()
        .position(|p| *p == f.pattern)
        .expect("every pattern is in all()") as u8;
    put_u8(out, pattern);
    put_u8(
        out,
        match f.impact {
            Impact::Leak => 0,
            Impact::Uaf => 1,
            Impact::Npd => 2,
        },
    );
    put_str(out, &f.file);
    put_str(out, &f.function);
    put_u32(out, f.line);
    put_str(out, &f.api);
    put_opt_str(out, f.object.as_deref());
    put_str(out, &f.message);
    put_u8(
        out,
        match f.feasibility {
            Feasibility::Infeasible => 0,
            Feasibility::Assumed => 1,
            Feasibility::Proven => 2,
        },
    );
    put_vec(out, &f.checkers, |o, c| put_str(o, c));
}

fn get_finding(d: &mut Dec<'_>) -> Option<Finding> {
    let pattern = *AntiPattern::all().get(d.u8()? as usize)?;
    Some(Finding {
        pattern,
        impact: match d.u8()? {
            0 => Impact::Leak,
            1 => Impact::Uaf,
            2 => Impact::Npd,
            _ => return None,
        },
        file: d.str()?,
        function: d.str()?,
        line: d.u32()?,
        api: d.str()?,
        object: get_opt_str(d)?,
        message: d.str()?,
        feasibility: match d.u8()? {
            0 => Feasibility::Infeasible,
            1 => Feasibility::Assumed,
            2 => Feasibility::Proven,
            _ => return None,
        },
        checkers: get_vec(d, |d| d.str())?,
    })
}

fn put_smartloop(out: &mut Vec<u8>, sl: &SmartLoop) {
    put_str(out, &sl.name);
    put_u32(out, sl.iter_arg as u32);
    put_str(out, &sl.dec_name);
    put_opt_str(out, sl.embedded_api.as_deref());
}

fn get_smartloop(d: &mut Dec<'_>) -> Option<SmartLoop> {
    Some(SmartLoop {
        name: d.str()?,
        iter_arg: d.u32()? as usize,
        dec_name: d.str()?,
        embedded_api: get_opt_str(d)?,
    })
}

// ----------------------------------------------------------------------
// Entry payloads.
// ----------------------------------------------------------------------

/// Encodes a parse-layer entry. The AST is never serialized — a decoded
/// entry always has `tu: None` and later stages rehydrate on demand.
pub(crate) fn encode_parsed(out: &mut Vec<u8>, p: &ParsedUnit) {
    put_bool(out, p.parsed_ok);
    put_u64(out, p.lines as u64);
    put_vec(out, &p.errors, put_error);
    put_vec(out, &p.defines, put_macro);
    put_discovery(out, &p.discovery);
    put_exports(out, &p.exports);
    put_bool(out, p.exports_faulted);
}

pub(crate) fn decode_parsed(bytes: &[u8]) -> Option<ParsedUnit> {
    let mut d = Dec::new(bytes);
    let p = ParsedUnit {
        tu: None,
        parsed_ok: d.bool()?,
        lines: d.u64()? as usize,
        errors: get_vec(&mut d, get_error)?,
        defines: get_vec(&mut d, get_macro)?,
        discovery: get_discovery(&mut d)?,
        exports: get_exports(&mut d)?,
        exports_faulted: d.bool()?,
    };
    d.is_done().then_some(p)
}

pub(crate) fn encode_checked(out: &mut Vec<u8>, c: &CheckedUnit) {
    put_u64(out, c.functions as u64);
    put_vec(out, &c.findings, put_finding);
    put_vec(out, &c.errors, put_error);
}

pub(crate) fn decode_checked(bytes: &[u8]) -> Option<CheckedUnit> {
    let mut d = Dec::new(bytes);
    let c = CheckedUnit {
        functions: d.u64()? as usize,
        findings: get_vec(&mut d, get_finding)?,
        errors: get_vec(&mut d, get_error)?,
    };
    d.is_done().then_some(c)
}

/// Encodes a knowledge base with APIs and smartloops in sorted-name
/// order — equal KBs encode identically regardless of map iteration
/// order, which `kb_fingerprint` relies on.
pub(crate) fn encode_kb(out: &mut Vec<u8>, kb: &ApiKb) {
    let mut apis: Vec<&RcApi> = kb.apis().collect();
    apis.sort_by(|a, b| a.name.cmp(&b.name));
    put_u32(out, apis.len() as u32);
    for api in apis {
        put_api(out, api);
    }
    let mut loops: Vec<&SmartLoop> = kb.smartloops().collect();
    loops.sort_by(|a, b| a.name.cmp(&b.name));
    put_u32(out, loops.len() as u32);
    for sl in loops {
        put_smartloop(out, sl);
    }
}

/// Rebuilds a knowledge base, all or nothing — a partially-loaded KB
/// would silently change findings.
fn get_kb(d: &mut Dec<'_>) -> Option<ApiKb> {
    let mut kb = ApiKb::new();
    for api in get_vec(d, get_api)? {
        kb.insert(api);
    }
    for sl in get_vec(d, get_smartloop)? {
        kb.insert_loop(sl);
    }
    Some(kb)
}

/// Encodes a discovery-layer entry: the KB, then the deps keys.
pub(crate) fn encode_barrier(out: &mut Vec<u8>, b: &Barrier) {
    encode_kb(out, &b.kb);
    put_vec(out, &b.deps, |o, k| put_u64(o, *k));
}

pub(crate) fn decode_barrier(bytes: &[u8]) -> Option<Barrier> {
    let mut d = Dec::new(bytes);
    let b = Barrier {
        kb: Arc::new(get_kb(&mut d)?),
        deps: get_vec(&mut d, |d| d.u64())?,
    };
    d.is_done().then_some(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsed_unit_round_trips() {
        let p = ParsedUnit {
            tu: None,
            parsed_ok: true,
            defines: vec![MacroDef {
                name: "for_each_w".into(),
                params: Some(vec!["w".into()]),
                body: "for (w = w_first(); w; w = w_next(w))".into(),
                line: 3,
            }],
            errors: vec![CachedError {
                kind: UnitErrorKind::LexNoise,
                detail: "2 lex error(s)".into(),
            }],
            lines: 412,
            discovery: UnitDiscovery {
                structs: vec![
                    StructFact {
                        tag: "widget".into(),
                        direct: true,
                        embeds: vec!["inner".into()],
                    },
                    StructFact {
                        tag: "holder".into(),
                        direct: false,
                        embeds: vec!["widget".into(), "kref".into()],
                    },
                ],
                apis: vec![
                    RcApi::dec("widget_put", RcClass::Specific, ObjectFlow::Arg(0)),
                    RcApi::inc(
                        "widget_get",
                        RcClass::Specific,
                        ObjectFlow::ArgAndReturned(1),
                        &["widget_put"],
                    ),
                ],
            },
            exports: UnitExports {
                path: "drivers/w/w.c".into(),
                fns: vec![FnExport {
                    name: "widget_release".into(),
                    is_static: true,
                    calls: vec![CallSite {
                        callee: "widget_put".into(),
                        args: vec![Some(0)],
                    }],
                    stores: Vec::new(),
                }],
                loop_heads: vec!["for_each_w".into()],
            },
            exports_faulted: true,
        };
        let mut bytes = Vec::new();
        encode_parsed(&mut bytes, &p);
        let back = decode_parsed(&bytes).expect("round trip");
        assert!(back.tu.is_none());
        assert_eq!(back.parsed_ok, p.parsed_ok);
        assert_eq!(back.lines, p.lines);
        assert_eq!(back.errors, p.errors);
        assert_eq!(back.defines, p.defines);
        assert_eq!(back.discovery, p.discovery);
        assert_eq!(back.exports, p.exports);
        assert_eq!(back.exports_faulted, p.exports_faulted);
    }

    #[test]
    fn exports_round_trip() {
        let u = UnitExports {
            path: "drivers/a/a.c".into(),
            fns: vec![FnExport {
                name: "helper_put".into(),
                is_static: false,
                calls: vec![CallSite {
                    callee: "of_node_put".into(),
                    args: vec![Some(0), None],
                }],
                stores: vec![1],
            }],
            loop_heads: vec!["for_each_child_of_node".into()],
        };
        let mut bytes = Vec::new();
        put_exports(&mut bytes, &u);
        let mut d = Dec::new(&bytes);
        assert_eq!(get_exports(&mut d), Some(u));
        assert!(d.is_done());
    }

    #[test]
    fn checked_unit_round_trips() {
        let c = CheckedUnit {
            findings: vec![Finding {
                pattern: AntiPattern::P2,
                impact: Impact::Npd,
                file: "drivers/a/a.c".into(),
                function: "probe".into(),
                line: 12,
                api: "mdesc_grab".into(),
                object: Some("md".into()),
                message: "deref without NULL check".into(),
                feasibility: Feasibility::Proven,
                checkers: vec!["ReturnNullChecker".into()],
            }],
            functions: 7,
            errors: vec![CachedError {
                kind: UnitErrorKind::GraphBlowup,
                detail: "big() exceeded cap".into(),
            }],
        };
        let mut bytes = Vec::new();
        encode_checked(&mut bytes, &c);
        let back = decode_checked(&bytes).expect("round trip");
        assert_eq!(back.findings, c.findings);
        assert_eq!(back.functions, c.functions);
        assert_eq!(back.errors, c.errors);
    }

    #[test]
    fn kb_round_trips_and_is_order_free() {
        let b = Barrier {
            kb: Arc::new(ApiKb::builtin()),
            deps: vec![0, 7, u64::MAX],
        };
        let mut bytes = Vec::new();
        encode_barrier(&mut bytes, &b);
        let back = decode_barrier(&bytes).expect("round trip");
        assert_eq!(back.kb.len(), b.kb.len());
        assert!(back.kb.get("pm_runtime_get_sync").unwrap().inc_on_error);
        assert_eq!(back.deps, b.deps);
        let mut again = Vec::new();
        encode_barrier(&mut again, &back);
        assert_eq!(bytes, again, "re-encoding is byte-stable");
    }

    #[test]
    fn every_truncation_of_a_payload_fails_closed() {
        let c = CheckedUnit {
            findings: vec![Finding {
                pattern: AntiPattern::P5,
                impact: Impact::Leak,
                file: "a.c".into(),
                function: "f".into(),
                line: 3,
                api: "of_node_get".into(),
                object: None,
                message: "m".into(),
                feasibility: Feasibility::Assumed,
                checkers: vec!["ErrorPathChecker".into()],
            }],
            functions: 1,
            errors: Vec::new(),
        };
        let mut bytes = Vec::new();
        encode_checked(&mut bytes, &c);
        for cut in 0..bytes.len() {
            assert!(
                decode_checked(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too: a payload must consume its
        // slice exactly.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_checked(&padded).is_none());
    }

    #[test]
    fn enum_tags_out_of_range_fail_closed() {
        let mut bytes = Vec::new();
        encode_barrier(
            &mut bytes,
            &Barrier {
                kb: Arc::new(ApiKb::builtin()),
                deps: vec![1, 2],
            },
        );
        // The first API's class tag sits right after the count and the
        // name; stomp every byte in turn and require no panic — decode
        // either fails or yields *some* barrier, never UB or unwinding.
        for i in 0..bytes.len().min(64) {
            let mut dented = bytes.clone();
            dented[i] = 0xff;
            let _ = decode_barrier(&dented);
        }
    }
}
