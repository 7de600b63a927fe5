//! Name-keyword heuristics for refcounting APIs.
//!
//! The paper's first mining stage (§3.1) filters commits by the key
//! words of refcounting API names; Table 3 measures the semantic
//! distance between those keywords and the names of bug-causing APIs.
//! This module is the shared keyword vocabulary.

use crate::model::RcDir;

/// Keywords signalling a refcount *increment* in an API name.
pub const INC_WORDS: &[&str] = &[
    "get", "take", "hold", "grab", "ref", "inc", "acquire", "pin", "retain",
];

/// Keywords signalling a refcount *decrement* in an API name.
pub const DEC_WORDS: &[&str] = &[
    "put", "drop", "unhold", "release", "dec", "unref", "unpin", "free",
];

/// Keywords of the bug-causing (refcounting-embedded) API families the
/// paper analyzes in Table 3.
pub const BUG_API_WORDS: &[&str] = &["foreach", "find", "parse", "open", "probe", "register"];

/// Whether `name` is a kfree-family call: a plain memory free that,
/// applied to a refcounted object, skips its release callback (§5.3.3).
pub fn is_kfree_family(name: &str) -> bool {
    matches!(name, "kfree" | "kvfree" | "kfree_sensitive" | "vfree")
}

/// Splits a C identifier into lowercase words (snake_case segments,
/// with `for_each` fused into `foreach` to match the paper's keyword).
pub fn name_words(name: &str) -> Vec<String> {
    let lowered = name.to_ascii_lowercase();
    let fused = lowered.replace("for_each", "foreach");
    fused
        .split('_')
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// Guesses the refcounting direction of an API from its name alone.
///
/// Returns `None` when the name carries no (or conflicting) signals.
///
/// # Examples
///
/// ```
/// use refminer_rcapi::{name_direction, RcDir};
///
/// assert_eq!(name_direction("of_node_get"), Some(RcDir::Inc));
/// assert_eq!(name_direction("usb_serial_put"), Some(RcDir::Dec));
/// assert_eq!(name_direction("of_find_matching_node"), None);
/// ```
pub fn name_direction(name: &str) -> Option<RcDir> {
    let words = name_words(name);
    let inc = words.iter().any(|w| INC_WORDS.contains(&w.as_str()));
    let dec = words.iter().any(|w| DEC_WORDS.contains(&w.as_str()));
    match (inc, dec) {
        (true, false) => Some(RcDir::Inc),
        (false, true) => Some(RcDir::Dec),
        _ => None,
    }
}

/// Derives the conventional paired decrement name for an increment API
/// by keyword substitution (`of_node_get` → `of_node_put`).
pub fn paired_dec_name(inc_name: &str) -> Option<String> {
    const PAIRS: &[(&str, &str)] = &[
        ("get", "put"),
        ("take", "put"),
        ("hold", "put"),
        ("grab", "release"),
        ("acquire", "release"),
        ("pin", "unpin"),
        ("ref", "unref"),
        ("inc", "dec"),
        ("retain", "release"),
    ];
    for (inc, dec) in PAIRS {
        // Substitute only whole snake_case segments.
        let segs: Vec<&str> = inc_name.split('_').collect();
        if segs.iter().any(|s| s == inc) {
            let replaced: Vec<String> = segs
                .iter()
                .map(|s| {
                    if s == inc {
                        dec.to_string()
                    } else {
                        s.to_string()
                    }
                })
                .collect();
            return Some(replaced.join("_"));
        }
    }
    None
}

/// Whether a name looks like a *find*-like / iteration API (the
/// hidden-refcounting families of §5.2).
pub fn is_findlike_name(name: &str) -> bool {
    let words = name_words(name);
    words.iter().any(|w| {
        matches!(
            w.as_str(),
            "find" | "foreach" | "lookup" | "parse" | "match" | "search"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_names() {
        assert_eq!(name_words("of_node_get"), vec!["of", "node", "get"]);
        assert_eq!(
            name_words("for_each_child_of_node"),
            vec!["foreach", "child", "of", "node"]
        );
    }

    #[test]
    fn directions() {
        assert_eq!(name_direction("kref_get"), Some(RcDir::Inc));
        assert_eq!(name_direction("kref_put"), Some(RcDir::Dec));
        assert_eq!(name_direction("dev_hold"), Some(RcDir::Inc));
        assert_eq!(name_direction("dev_put"), Some(RcDir::Dec));
        assert_eq!(name_direction("mdesc_grab"), Some(RcDir::Inc));
        // `sockfd_lookup` has neither word.
        assert_eq!(name_direction("sockfd_lookup"), None);
        // `get_put_thing` is conflicting.
        assert_eq!(name_direction("get_put_thing"), None);
    }

    #[test]
    fn pairing() {
        assert_eq!(
            paired_dec_name("of_node_get").as_deref(),
            Some("of_node_put")
        );
        assert_eq!(paired_dec_name("dev_hold").as_deref(), Some("dev_put"));
        assert_eq!(
            paired_dec_name("mdesc_grab").as_deref(),
            Some("mdesc_release")
        );
        assert_eq!(paired_dec_name("plain_name"), None);
    }

    #[test]
    fn segment_substitution_is_whole_word() {
        // `target` contains "get" as a substring but not a segment.
        assert_eq!(paired_dec_name("set_target"), None);
    }

    #[test]
    fn findlike_names() {
        assert!(is_findlike_name("of_find_matching_node"));
        assert!(is_findlike_name("for_each_child_of_node"));
        assert!(is_findlike_name("sockfd_lookup"));
        assert!(is_findlike_name("of_parse_phandle"));
        assert!(!is_findlike_name("of_node_put"));
    }
}
