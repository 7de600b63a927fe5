//! # refminer-rcapi
//!
//! The refcounting API model of the SOSP '23 study: the three API
//! categories of §5 (General / Specific / Refcounting-Embedded), the
//! implementation deviations of §5.1 (inc-on-error, may-return-NULL),
//! smartloop macros (§5.2.1), a built-in knowledge base seeded with the
//! paper's Appendix A error-prone API list (Table 6), and a discovery
//! engine that infers all of the above from source (§6.1's lexer-parsing
//! stage).
//!
//! # Examples
//!
//! ```
//! use refminer_rcapi::ApiKb;
//!
//! let kb = ApiKb::builtin();
//! assert!(kb.pairs_with("bus_find_device", "put_device"));
//! assert!(kb.get("pm_runtime_get_sync").unwrap().inc_on_error);
//! ```

mod discover;
mod kb;
mod keywords;
mod model;

pub use discover::{
    discover, discover_rc_structs, discover_smartloops, discover_unit, merge_discoveries,
    DiscoverConfig, Discovery, StructFact, UnitDiscovery,
};
pub use kb::ApiKb;
pub use keywords::{
    is_findlike_name, is_kfree_family, name_direction, name_words, paired_dec_name, BUG_API_WORDS,
    DEC_WORDS, INC_WORDS,
};
pub use model::{ObjectFlow, RcApi, RcClass, RcDir, SmartLoop, RC_STRUCTS};
