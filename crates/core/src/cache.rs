//! The incremental audit cache: content-hashed per-unit results.
//!
//! Re-auditing a tree where little or nothing changed is the common
//! case for a checker that runs on every commit. The pipeline's unit
//! work is pure — the same file text under the same configuration and
//! knowledge base always produces the same parse, the same graphs and
//! the same findings — so results are memoizable by content hash alone;
//! no timestamps, no filesystem metadata.
//!
//! Three layers, because the stages have different invalidation scopes:
//!
//! - **Parse layer** — keyed by `(content hash, parse limits, graph
//!   cap, seed-KB fingerprint)`. Holds everything the phase-1 pass
//!   derives from the unit's text alone: macro defines, line count,
//!   parse-stage diagnostics, per-unit discovery facts
//!   ([`UnitDiscovery`]), the unit's function-effect exports
//!   ([`UnitExports`]), and (in memory) the parsed [`TranslationUnit`]
//!   itself, which the left-behind sweep of `diff` and `fixcheck`
//!   borrows too. Editing one file re-parses and re-exports exactly
//!   that file, and the cross-unit merges can run the moment the pass
//!   ends.
//! - **Discovery layer** — memoizes the whole barrier, keyed by a *tree
//!   fingerprint* folding every unit's key with the barrier
//!   configuration (discovery on or off).
//!   Holds a [`Barrier`]: the merged [`ApiKb`] and every unit's deps
//!   key. Touching any file re-runs the KB merge, the `ProgramDb`
//!   merge and the deps walk once (cheap — they fold cached per-unit
//!   facts, no ASTs); an audit of a tree the cache has seen skips all
//!   three, and builds a `ProgramDb` only if some unit misses the
//!   check layer.
//! - **Check layer** — keyed by `(unit key, mix(check configuration,
//!   deps key))`. Holds the unit's findings, function count and
//!   check-stage diagnostics. The deps key
//!   ([`ProgramDb::deps_fingerprint`]) folds the knowledge-base entries
//!   of every name the unit calls or opens a macro loop with, and where
//!   each call resolves with what summary: exactly what the checks read
//!   from outside the unit's text. Editing one file changes that
//!   file's unit key *and* the deps key of every unit whose helper
//!   calls resolve into it; a newly discovered or changed API re-checks
//!   only the units that name it. A unit whose export extraction
//!   faulted has no trustworthy name list, so its deps key folds the
//!   whole KB's fingerprint instead.
//!
//! # Persistence: `audit-cache.bin`
//!
//! With [`AuditCache::with_dir`] the layers persist across processes in
//! a length-prefixed binary container (ASTs are never serialized; the
//! parse layer persists its *metadata* only):
//!
//! ```text
//! magic "RFMCACHE" · version u64 · checksum u64   (24-byte header)
//! body: 3 sections (parse, check, discovery), each
//!       count u64, then per entry: key u64 [+ kb u64 for check],
//!       payload-length u64, payload bytes (see crate::binfmt)
//! ```
//!
//! The checksum is FNV-1a over the body. Loading reads the file into
//! one owned buffer, validates the header and decodes every payload as
//! it walks the section framing; the buffer is dropped once the walk
//! ends, so nothing written to the file after the load can reach a
//! lookup. Saves encode every held entry and publish atomically (a temp
//! file, then a rename), and a corrupt file is quarantined, both through
//! the `refminer-faultio` seams.
//!
//! # Retention: the last two audits
//!
//! Every entry is stamped with the audit that last read or wrote it.
//! When an audit completes, the cache keeps exactly the entries that
//! audit or the previous completed one read or wrote
//! ([`AUDITS_KEPT`]), so a daemon, `history` or a `--cache-dir` user
//! walking through revisions holds at most two trees' worth of
//! entries, in memory and on disk. The window is two audits because a
//! fixcheck right after a diff of the same commit re-reads entries
//! only the diff's revision-A audit read. Entries loaded from disk
//! count as read by no audit, so a process keeps a loaded entry only if
//! its first audit reads it. A cancelled audit drops nothing, and what
//! it read counts as read by the next audit to complete. Every held
//! entry is therefore one a recent audit used, which is why the load
//! decodes them all.
//!
//! Keys fold in every configuration input that can change the stage's
//! output — resource limits, the nesting threshold, the checker-set
//! fingerprint, the builtin-KB fingerprint — so a stale cache can be
//! *unused*, never *wrong*. The same holds one level down: a corrupt
//! payload (possible only past a checksum collision) fails to decode
//! and is dropped on load, a cache miss.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;

use refminer_checkers::{checker_set_fingerprint, Finding};
use refminer_clex::MacroDef;
use refminer_cparse::TranslationUnit;
use refminer_progdb::{fnv1a, mix, ProgramDb, UnitExports, FNV_OFFSET};
use refminer_rcapi::{ApiKb, DiscoverConfig, UnitDiscovery};

use crate::audit::{AuditConfig, UnitErrorKind};
use crate::binfmt;

// ----------------------------------------------------------------------
// Hashing and fingerprints.
// ----------------------------------------------------------------------

/// Content hash of a source file's text: its FNV-1a hash
/// ([`refminer_progdb::fnv1a`]).
pub fn content_hash(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// On-format version of the parse layer; bump when parse-time
/// extraction changes what a [`ParsedUnit`] carries.
/// v2: parse entries hold per-unit discovery (moved out of the export
/// layer so the KB merge needs no graphs).
/// v3: parse entries no longer carry a symbol digest (defined
/// functions, called names).
/// v4: parse entries carry the unit's function-effect exports (the
/// export layer folded into the phase-1 pass).
/// v5: exports list the unit's macro-loop heads, and entries record
/// whether export extraction faulted.
const PARSE_VERSION: u64 = 5;

/// Fingerprint of the phase-1 configuration. Folds the builtin seed
/// KB's fingerprint `seed_kb_fp` because per-unit discovery classifies
/// against it, and the graph cap because the unit's exports are read
/// off its built graphs.
pub fn parse_config_fingerprint(config: &AuditConfig, seed_kb_fp: u64) -> u64 {
    let l = &config.limits;
    let mut h = FNV_OFFSET;
    h = mix(h, PARSE_VERSION);
    h = mix(h, l.max_file_bytes as u64);
    h = mix(h, l.max_tokens as u64);
    h = mix(h, l.max_parse_depth as u64);
    h = mix(h, l.max_graph_nodes as u64);
    h = mix(h, seed_kb_fp);
    h
}

/// Fingerprint of the check-stage configuration.
///
/// `--only-pattern` changes a unit's findings, so it keys the layer —
/// a filtered run never poisons (or reuses) full-run entries. Two
/// flags are deliberately absent:
/// `--subsystem` only decides *which* units are checked, never what a
/// checked unit yields, so a narrowed run reuses full-run entries; and
/// the `feasibility` suppression flag, because verdicts are always
/// computed and cached with the findings and suppression happens
/// post-cache in the report layer, so both modes share the same
/// entries.
pub fn check_config_fingerprint(config: &AuditConfig) -> u64 {
    let mut h = FNV_OFFSET;
    h = mix(h, config.limits.max_graph_nodes as u64);
    h = mix(h, checker_set_fingerprint());
    match &config.only_patterns {
        None => h = mix(h, 0),
        Some(ps) => {
            h = mix(h, 1);
            for p in ps {
                h = mix(h, fnv1a(p.id().as_bytes()));
            }
        }
    }
    h
}

/// Fingerprint of the barrier configuration: whether discovery runs
/// (and with it the nesting threshold), and the builtin seed KB's
/// fingerprint `seed_kb_fp`, so a binary with a different seed never
/// reuses old results.
pub fn barrier_config_fingerprint(config: &AuditConfig, seed_kb_fp: u64) -> u64 {
    let mut h = FNV_OFFSET;
    h = mix(h, config.discover_apis as u64);
    h = mix(h, DiscoverConfig::default().nesting_threshold as u64);
    h = mix(h, seed_kb_fp);
    h
}

/// Deterministic fingerprint of a knowledge base: the FNV-1a hash of
/// its binary encoding, which lists APIs and smartloops in sorted-name
/// order. Two KBs with equal content fingerprint identically regardless
/// of hash-map iteration order.
pub fn kb_fingerprint(kb: &ApiKb) -> u64 {
    let mut bytes = Vec::new();
    binfmt::encode_kb(&mut bytes, kb);
    fnv1a(&bytes)
}

/// Every unit's deps key, in unit order (0 for units that did not
/// parse): [`ProgramDb::deps_fingerprint`], which folds what the
/// knowledge base and the database say about each name the unit's
/// exports list. A unit whose extraction faulted lists nothing, so its
/// key folds the whole KB's fingerprint instead.
pub(crate) fn deps_keys(parsed: &[Arc<ParsedUnit>], kb: &ApiKb, program: &ProgramDb) -> Vec<u64> {
    let mut whole_kb = None;
    parsed
        .iter()
        .map(|p| {
            if !p.parsed_ok {
                return 0;
            }
            let deps = program.deps_fingerprint(&p.exports.path);
            if p.exports_faulted {
                mix(deps, *whole_kb.get_or_insert_with(|| kb_fingerprint(kb)))
            } else {
                deps
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Cached per-unit results.
// ----------------------------------------------------------------------

/// One diagnostic recorded by a cached stage, in push order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedError {
    /// The taxonomy kind.
    pub kind: UnitErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

/// The phase-1 pass's result for one unit.
#[derive(Debug, Clone)]
pub struct ParsedUnit {
    /// The parsed AST. `None` when parsing failed (panic/oversize) —
    /// see [`ParsedUnit::parsed_ok`] — or when the entry was loaded
    /// from disk, where ASTs are not persisted.
    pub tu: Option<Arc<TranslationUnit>>,
    /// Whether parsing produced a usable (possibly degraded) AST. When
    /// `true` but [`ParsedUnit::tu`] is `None`, re-parsing the same
    /// text reproduces it.
    pub parsed_ok: bool,
    /// The unit's `#define`s, for smartloop discovery: read off the
    /// parse's lex, or scanned from the whole text when the lex was
    /// truncated at the token cap.
    pub defines: Vec<MacroDef>,
    /// Parse-stage diagnostics in the order they were recorded.
    pub errors: Vec<CachedError>,
    /// Source lines in the unit (0 for oversize-skipped units, which
    /// never count toward the audit's line total).
    pub lines: usize,
    /// Per-unit discovery facts for the cross-unit KB merge.
    pub discovery: UnitDiscovery,
    /// The unit's function-effect digest for the `ProgramDb` merge.
    /// Empty (under the unit's own path) when the unit did not parse
    /// or extraction faulted.
    pub exports: UnitExports,
    /// Whether export extraction faulted on a unit that parsed: its
    /// exports then name nothing the checks will look up.
    pub exports_faulted: bool,
}

/// The check stage's result for one unit.
#[derive(Debug, Clone, Default)]
pub struct CheckedUnit {
    /// Findings from this unit, in checker emission order.
    pub findings: Vec<Finding>,
    /// Functions analyzed.
    pub functions: usize,
    /// Check-stage diagnostics in the order they were recorded.
    pub errors: Vec<CachedError>,
}

/// The barrier's result for one tree: what the discovery layer holds.
#[derive(Debug)]
pub struct Barrier {
    /// The merged knowledge base (the builtin seed when discovery is
    /// off).
    pub kb: Arc<ApiKb>,
    /// Per unit, in unit order, the deps key its check key folds; 0 for
    /// units that did not parse.
    pub deps: Vec<u64>,
}

/// Hit/miss counters for one audit run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Units whose parse-stage result was served from cache.
    pub parse_hits: usize,
    /// Units that were lexed and parsed this run.
    pub parse_misses: usize,
    /// Units whose findings were served from cache.
    pub check_hits: usize,
    /// Units that were graphed and checked this run.
    pub check_misses: usize,
    /// Barriers (KB merge, `ProgramDb` merge, deps keys) served from
    /// cache (0 or 1 per run).
    pub discovery_hits: usize,
    /// Barriers computed this run (0 or 1).
    pub discovery_misses: usize,
    /// Units whose summary exports were served from cache. Exports
    /// ride the parse entry, so this always equals
    /// [`CacheStats::parse_hits`].
    pub export_hits: usize,
    /// Units whose summary exports were extracted this run; always
    /// equals [`CacheStats::parse_misses`].
    pub export_misses: usize,
}

impl CacheStats {
    /// Fraction of per-unit lookups served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.parse_hits + self.check_hits;
        let total = hits + self.parse_misses + self.check_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

// ----------------------------------------------------------------------
// Entries and their retention.
// ----------------------------------------------------------------------

/// How many completed audits' entries the cache keeps: those of the
/// last audit and of the one before it (see the module docs).
const AUDITS_KEPT: u64 = 2;

/// One cache entry and the audit that last read or wrote it: audit `n`
/// is the `n`-th through this cache, and 0 means no audit yet (an entry
/// loaded from disk).
#[derive(Debug)]
struct Entry<T> {
    value: Arc<T>,
    read: u64,
}

/// One layer: entries by key.
type Layer<K, T> = HashMap<K, Entry<T>>;

/// Looks `key` up and stamps the entry as read by `audit`.
fn get<K: Eq + Hash, T>(layer: &mut Layer<K, T>, key: &K, audit: u64) -> Option<Arc<T>> {
    let entry = layer.get_mut(key)?;
    entry.read = audit;
    Some(Arc::clone(&entry.value))
}

/// Inserts `value` under `key` as written by `audit`.
fn put<K: Eq + Hash, T>(layer: &mut Layer<K, T>, key: K, value: T, audit: u64) -> Arc<T> {
    let value = Arc::new(value);
    let entry = Entry {
        value: Arc::clone(&value),
        read: audit,
    };
    layer.insert(key, entry);
    value
}

/// Ends `audit` for one layer: drops every entry last read at or before
/// audit `floor`, and returns how many entries `audit` did not read.
fn retire<K, T>(layer: &mut Layer<K, T>, audit: u64, floor: u64) -> usize {
    let mut unread = 0;
    layer.retain(|_, e| {
        unread += usize::from(e.read != audit);
        e.read > floor
    });
    unread
}

/// Writes one layer's section: its entry count, then per entry in
/// sorted key order the key and the length-prefixed payload.
fn put_layer<K: Ord + Copy, T>(
    body: &mut Vec<u8>,
    layer: &Layer<K, T>,
    put_key: impl Fn(&mut Vec<u8>, K),
    encode: impl Fn(&mut Vec<u8>, &T),
) {
    let mut entries: Vec<(K, &Entry<T>)> = layer.iter().map(|(k, e)| (*k, e)).collect();
    entries.sort_by_key(|(k, _)| *k);
    binfmt::put_u64(body, entries.len() as u64);
    for (k, e) in entries {
        put_key(body, k);
        let at = body.len();
        binfmt::put_u64(body, 0); // placeholder
        encode(body, &e.value);
        let len = (body.len() - at - 8) as u64;
        body[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Reads one layer's section, decoding each payload as an entry no
/// audit has read. `None` on malformed framing; a payload that fails to
/// decode (checksum-collision territory) is dropped alone — a miss,
/// never a wrong answer.
fn get_layer<K: Eq + Hash, T>(
    d: &mut binfmt::Dec<'_>,
    get_key: impl Fn(&mut binfmt::Dec<'_>) -> Option<K>,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Option<Layer<K, T>> {
    let mut layer = HashMap::new();
    for _ in 0..d.u64()? {
        let key = get_key(d)?;
        let len = usize::try_from(d.u64()?).ok()?;
        if let Some(v) = decode(d.take(len)?) {
            let value = Arc::new(v);
            layer.insert(key, Entry { value, read: 0 });
        }
    }
    Some(layer)
}

// ----------------------------------------------------------------------
// The cache proper.
// ----------------------------------------------------------------------

/// What loading the persisted cache file found, for observability: a
/// corrupt file heals silently (the run goes cold), but daemons and
/// strict callers want to know it happened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CacheLoadOutcome {
    /// No cache file existed (or the cache is memory-only).
    #[default]
    Empty,
    /// The file validated and its entries were decoded.
    Loaded,
    /// The file was malformed or version-mismatched; it was renamed
    /// aside to the contained path and the cache rebuilt cold.
    Quarantined(PathBuf),
    /// The file could not be read at all (I/O error); the cache
    /// rebuilt cold and the file was left in place.
    ReadFailed(String),
}

/// The three-layer audit cache. See the module docs for the layering
/// and invalidation rules. When an audit through it completes, the
/// cache keeps only the entries that audit or the previous completed
/// one read or wrote, so it holds at most two trees' worth of entries;
/// a cancelled audit drops nothing.
#[derive(Debug, Default)]
pub struct AuditCache {
    parse: Layer<u64, ParsedUnit>,
    check: Layer<(u64, u64), CheckedUnit>,
    discovery: Layer<u64, Barrier>,
    /// Audits completed through this cache; the one in progress is
    /// number `audits + 1`.
    audits: u64,
    /// Counters for the current (or most recent) audit run; reset by
    /// each `audit_with_cache` call.
    pub stats: CacheStats,
    dir: Option<PathBuf>,
    load_outcome: CacheLoadOutcome,
}

/// File name of the persisted cache inside `--cache-dir`.
pub const CACHE_FILE: &str = "audit-cache.bin";

/// Suffix appended to [`CACHE_FILE`] when a corrupt cache is
/// quarantined — renamed aside for post-mortem instead of deleted.
pub const QUARANTINE_SUFFIX: &str = ".corrupt";

/// On-disk format version; bump on any incompatible change. A file
/// with a different version is ignored wholesale.
/// v4: binary container replaces the JSON document; parse entries
/// carry discovery/syms/called; export entries are exports-only.
/// v5: findings carry per-engine attribution (the two-engine audit
/// core); check entries serialized under v4 would deserialize with
/// empty engine lists and mislabel confidence.
/// v6: parse entries drop the symbol digest, and the KB fingerprint
/// in every check key hashes the binary KB encoding.
/// v7: the export section is gone; parse entries carry the exports.
/// v8: discovery entries memoize the whole barrier (the KB plus every
/// unit's deps key), and check keys fold the KB entries a unit names
/// instead of the whole KB's fingerprint, so a v7 check key would be
/// looked up under a different meaning.
/// v9: findings drop their engine attribution, so a v8 check payload
/// would be read with the wrong layout.
const CACHE_VERSION: u64 = 9;

/// First bytes of every cache file; anything else is not ours.
const MAGIC: [u8; 8] = *b"RFMCACHE";

/// Header = magic + version + checksum.
const HEADER_LEN: usize = 24;

impl AuditCache {
    /// An empty, memory-only cache.
    pub fn new() -> AuditCache {
        AuditCache::default()
    }

    /// A cache persisted under `dir`, pre-loaded from
    /// `dir/audit-cache.bin` when that file exists and validates. A
    /// missing file yields an empty cache; a *corrupt* file (truncated,
    /// bit-flipped, or from an incompatible version) is **quarantined**
    /// — renamed aside to `audit-cache.bin.corrupt` for post-mortem —
    /// and the cache rebuilds cold. Persistence failures degrade to
    /// cold runs, never to errors; [`AuditCache::load_outcome`] reports
    /// what happened.
    pub fn with_dir(dir: impl Into<PathBuf>) -> AuditCache {
        let dir = dir.into();
        let mut cache = AuditCache::new();
        let file = dir.join(CACHE_FILE);
        match refminer_faultio::read(&file) {
            Ok(bytes) => {
                if cache.load_bytes(bytes) {
                    cache.load_outcome = CacheLoadOutcome::Loaded;
                } else {
                    // Corrupt: quarantine it so the broken generation is
                    // preserved as evidence and can never be re-read as
                    // live state. A failed rename leaves the file for
                    // the next atomic save to overwrite.
                    let aside = dir.join(format!("{CACHE_FILE}{QUARANTINE_SUFFIX}"));
                    let _ = refminer_faultio::rename(&file, &aside);
                    cache.load_outcome = CacheLoadOutcome::Quarantined(aside);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                cache.load_outcome = CacheLoadOutcome::Empty;
            }
            Err(e) => {
                cache.load_outcome = CacheLoadOutcome::ReadFailed(e.to_string());
            }
        }
        cache.dir = Some(dir);
        cache
    }

    /// What loading the persisted file found; `Empty` for memory-only
    /// caches.
    pub fn load_outcome(&self) -> &CacheLoadOutcome {
        &self.load_outcome
    }

    /// Resets the per-run hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Parse-layer lookup; counts a hit (for the exports too).
    pub(crate) fn parse_get(&mut self, key: u64) -> Option<Arc<ParsedUnit>> {
        let hit = get(&mut self.parse, &key, self.audits + 1);
        if hit.is_some() {
            self.stats.parse_hits += 1;
            self.stats.export_hits += 1;
        }
        hit
    }

    /// Parse-layer insert; counts the miss that required it (for the
    /// exports too).
    pub(crate) fn parse_put(&mut self, key: u64, unit: ParsedUnit) -> Arc<ParsedUnit> {
        self.stats.parse_misses += 1;
        self.stats.export_misses += 1;
        put(&mut self.parse, key, unit, self.audits + 1)
    }

    /// The AST a parse-layer entry holds in memory, for a caller that
    /// reads the audited units after the audit (the left-behind sweep).
    /// Does not count as a read: an entry loaded from disk holds none.
    pub(crate) fn ast(&self, key: u64) -> Option<Arc<TranslationUnit>> {
        self.parse.get(&key)?.value.tu.clone()
    }

    /// Check-layer lookup; counts a hit.
    pub(crate) fn check_get(&mut self, unit_key: u64, kb_fp: u64) -> Option<Arc<CheckedUnit>> {
        let hit = get(&mut self.check, &(unit_key, kb_fp), self.audits + 1);
        if hit.is_some() {
            self.stats.check_hits += 1;
        }
        hit
    }

    /// Check-layer insert; counts the miss that required it.
    pub(crate) fn check_put(
        &mut self,
        unit_key: u64,
        kb_fp: u64,
        unit: CheckedUnit,
    ) -> Arc<CheckedUnit> {
        self.stats.check_misses += 1;
        put(&mut self.check, (unit_key, kb_fp), unit, self.audits + 1)
    }

    /// Discovery-layer lookup; counts a hit.
    pub(crate) fn discovery_get(&mut self, tree_fp: u64) -> Option<Arc<Barrier>> {
        let hit = get(&mut self.discovery, &tree_fp, self.audits + 1);
        if hit.is_some() {
            self.stats.discovery_hits += 1;
        }
        hit
    }

    /// Discovery-layer insert; counts the miss that required it.
    pub(crate) fn discovery_put(&mut self, tree_fp: u64, barrier: Barrier) -> Arc<Barrier> {
        self.stats.discovery_misses += 1;
        put(&mut self.discovery, tree_fp, barrier, self.audits + 1)
    }

    /// Completes the audit in progress: keeps only the entries it or
    /// the previous completed audit read or wrote, and returns per layer
    /// `(parse, check, discovery)` how many entries it did not read
    /// (the `cache.*.stale` trace counters).
    pub(crate) fn end_audit(&mut self) -> (usize, usize, usize) {
        self.audits += 1;
        let (audit, floor) = (self.audits, self.audits.saturating_sub(AUDITS_KEPT));
        (
            retire(&mut self.parse, audit, floor),
            retire(&mut self.check, audit, floor),
            retire(&mut self.discovery, audit, floor),
        )
    }

    /// Entries per layer: `(parse, check, discovery)`.
    pub fn len(&self) -> (usize, usize, usize) {
        (self.parse.len(), self.check.len(), self.discovery.len())
    }

    /// Whether all layers are empty.
    pub fn is_empty(&self) -> bool {
        self.parse.is_empty() && self.check.is_empty() && self.discovery.is_empty()
    }

    // ------------------------------------------------------------------
    // Binary persistence.
    // ------------------------------------------------------------------

    /// Serializes every layer into the binary container. Entries are
    /// written in sorted key order, so equal caches produce equal
    /// files.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_layer(
            &mut body,
            &self.parse,
            binfmt::put_u64,
            binfmt::encode_parsed,
        );
        let put_check_key = |body: &mut Vec<u8>, (uk, kb): (u64, u64)| {
            binfmt::put_u64(body, uk);
            binfmt::put_u64(body, kb);
        };
        put_layer(
            &mut body,
            &self.check,
            put_check_key,
            binfmt::encode_checked,
        );
        put_layer(
            &mut body,
            &self.discovery,
            binfmt::put_u64,
            binfmt::encode_barrier,
        );

        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.extend_from_slice(&MAGIC);
        binfmt::put_u64(&mut out, CACHE_VERSION);
        binfmt::put_u64(&mut out, fnv1a(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Validates a cache file and decodes its entries into the cache,
    /// as entries no audit has read. Returns `false` (caller
    /// quarantines), adding nothing, on a bad magic, a version
    /// mismatch, a checksum mismatch, or malformed framing; a payload
    /// that fails to decode is dropped alone. [`AuditCache::with_dir`]
    /// loads through here; tests feed corrupt buffers (bit flips,
    /// truncation) straight in.
    pub fn load_bytes(&mut self, bytes: Vec<u8>) -> bool {
        if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
            return false;
        }
        let version = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if version != CACHE_VERSION {
            return false;
        }
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        if fnv1a(&bytes[HEADER_LEN..]) != checksum {
            return false;
        }

        // Any structural violation rejects the whole file.
        let mut d = binfmt::Dec::new(&bytes[HEADER_LEN..]);
        let layers = (|| {
            let parse = get_layer(&mut d, |d| d.u64(), binfmt::decode_parsed)?;
            let check_key = |d: &mut binfmt::Dec<'_>| Some((d.u64()?, d.u64()?));
            let check = get_layer(&mut d, check_key, binfmt::decode_checked)?;
            let discovery = get_layer(&mut d, |d| d.u64(), binfmt::decode_barrier)?;
            d.is_done().then_some((parse, check, discovery))
        })();
        let Some((parse, check, discovery)) = layers else {
            return false;
        };
        self.parse.extend(parse);
        self.check.extend(check);
        self.discovery.extend(discovery);
        true
    }

    /// Writes the persistable layers to `dir/audit-cache.bin`. A
    /// no-op for memory-only caches.
    pub fn save(&self) -> std::io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        refminer_faultio::create_dir_all(dir)?;
        let bytes = self.to_bytes();
        // Atomic replace: write a temp file in the same directory and
        // rename it over the live cache, so an interrupted or
        // concurrent save leaves either the old or the new file on
        // disk — never a truncated one. The temp name is unique per
        // process *and* per save, so concurrent saves (even in-process)
        // race only at the (atomic) rename.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}.{seq}", std::process::id()));
        // Writes and the publishing rename go through the fault seam,
        // so an injected torn write or rename failure exercises exactly
        // the states a mid-save kill leaves behind.
        if let Err(e) = refminer_faultio::write(&tmp, &bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        refminer_faultio::rename(&tmp, dir.join(CACHE_FILE)).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_checkers::{AntiPattern, Impact};
    use refminer_progdb::{CallSite, FnExport};
    use refminer_rcapi::{ObjectFlow, RcApi, RcClass, RcDir, SmartLoop};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "refminer-cache-test-{}-{:x}",
            std::process::id(),
            content_hash(tag)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn parsed(lines: usize) -> ParsedUnit {
        ParsedUnit {
            tu: None,
            parsed_ok: true,
            defines: Vec::new(),
            errors: Vec::new(),
            lines,
            discovery: UnitDiscovery::default(),
            exports: UnitExports::default(),
            exports_faulted: false,
        }
    }

    fn barrier(deps: Vec<u64>) -> Barrier {
        Barrier {
            kb: Arc::new(ApiKb::builtin()),
            deps,
        }
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_is_sensitive() {
        let a = content_hash("int x;\n");
        assert_eq!(a, content_hash("int x;\n"));
        assert_ne!(a, content_hash("int x; \n"));
        assert_ne!(mix(a, 1), mix(a, 2));
    }

    #[test]
    fn kb_fingerprint_ignores_insertion_order() {
        let mut a = ApiKb::new();
        let mut b = ApiKb::new();
        let x = RcApi::dec("x_put", RcClass::Specific, ObjectFlow::Arg(0));
        let y = RcApi::dec("y_put", RcClass::Specific, ObjectFlow::Arg(0));
        a.insert(x.clone());
        a.insert(y.clone());
        b.insert(y);
        b.insert(x);
        assert_eq!(kb_fingerprint(&a), kb_fingerprint(&b));
        assert_ne!(kb_fingerprint(&a), kb_fingerprint(&ApiKb::new()));
    }

    type Edit<T> = (&'static str, fn(&mut T));

    /// One row per `RcApi` field, each changing exactly that field.
    fn api_edits() -> [Edit<RcApi>; 7] {
        [
            ("class", |a| a.class = RcClass::General),
            ("dir", |a| a.dir = RcDir::Dec),
            ("flow", |a| a.flow = ObjectFlow::Returned),
            ("dec_names", |a| a.dec_names.push("w_release".into())),
            ("inc_on_error", |a| a.inc_on_error = !a.inc_on_error),
            ("may_return_null", |a| {
                a.may_return_null = !a.may_return_null
            }),
            ("releases_resources", |a| {
                a.releases_resources = !a.releases_resources
            }),
        ]
    }

    /// One row per `SmartLoop` field but the name (the KB's key).
    fn loop_edits() -> [Edit<SmartLoop>; 3] {
        [
            ("iter_arg", |l| l.iter_arg = 0),
            ("dec_name", |l| l.dec_name = "w_release".into()),
            ("embedded_api", |l| l.embedded_api = None),
        ]
    }

    fn kb_of(apis: &[&RcApi], loops: &[&SmartLoop]) -> ApiKb {
        let mut kb = ApiKb::new();
        for api in apis {
            kb.insert((*api).clone());
        }
        for sl in loops {
            kb.insert_loop((*sl).clone());
        }
        kb
    }

    #[test]
    fn kb_fingerprint_covers_every_api_and_smartloop_field() {
        // The fingerprint keys the check entries of units whose export
        // extraction faulted, so a field it missed would let a changed
        // KB serve them stale findings. Each row changes exactly one
        // field of the base KB's API or smartloop.
        let api = RcApi::inc("w_get", RcClass::Specific, ObjectFlow::Arg(0), &["w_put"]);
        let sl = SmartLoop::new("for_each_w", 1, "w_put", Some("w_find"));
        let base = kb_fingerprint(&kb_of(&[&api], &[&sl]));
        for (field, edit) in api_edits() {
            let mut changed = api.clone();
            edit(&mut changed);
            assert_ne!(
                kb_fingerprint(&kb_of(&[&changed], &[&sl])),
                base,
                "RcApi::{field} does not reach the fingerprint"
            );
        }
        for (field, edit) in loop_edits() {
            let mut changed = sl.clone();
            edit(&mut changed);
            assert_ne!(
                kb_fingerprint(&kb_of(&[&api], &[&changed])),
                base,
                "SmartLoop::{field} does not reach the fingerprint"
            );
        }
    }

    #[test]
    fn check_key_covers_the_kb_entries_a_unit_names_and_no_others() {
        // A check key folds the unit's deps key, the only part of it the
        // KB reaches. A field of a named entry it missed would let a
        // changed KB serve stale findings; an entry the unit does not
        // name that reached it would re-check the whole tree on every
        // discovered API. The unit calls `w_get` and opens a
        // `for_each_w` loop; `z_get` and `for_each_z` it never names.
        let path = "drivers/w/w.c";
        let src = "int probe(struct w *p)\n{\n\tstruct w *x = w_get(p);\n\n\
                   \tfor_each_w(p, x)\n\t\tw_use(x);\n\treturn 0;\n}\n";
        let tu = refminer_cparse::parse_str(path, src);
        let unit = Arc::new(ParsedUnit {
            exports: UnitExports::of_unit(path, &tu, 1_000),
            ..parsed(9)
        });
        assert_eq!(unit.exports.loop_heads, ["for_each_w"]);
        let key = |kb: &ApiKb| {
            let db = ProgramDb::build(&[&unit.exports], kb, true);
            deps_keys(std::slice::from_ref(&unit), kb, &db)[0]
        };
        let named = RcApi::inc("w_get", RcClass::Specific, ObjectFlow::Arg(0), &["w_put"]);
        let other = RcApi::inc("z_get", RcClass::Specific, ObjectFlow::Arg(0), &["z_put"]);
        let named_loop = SmartLoop::new("for_each_w", 1, "w_put", Some("w_find"));
        let other_loop = SmartLoop::new("for_each_z", 1, "z_put", Some("z_find"));
        let base = key(&kb_of(&[&named, &other], &[&named_loop, &other_loop]));
        for (field, edit) in api_edits() {
            let (mut n, mut o) = (named.clone(), other.clone());
            edit(&mut n);
            edit(&mut o);
            let with_named = kb_of(&[&n, &other], &[&named_loop, &other_loop]);
            assert_ne!(key(&with_named), base, "RcApi::{field} of a named entry");
            let with_other = kb_of(&[&named, &o], &[&named_loop, &other_loop]);
            assert_eq!(key(&with_other), base, "RcApi::{field} of an unnamed entry");
        }
        for (field, edit) in loop_edits() {
            let (mut n, mut o) = (named_loop.clone(), other_loop.clone());
            edit(&mut n);
            edit(&mut o);
            let with_named = kb_of(&[&named, &other], &[&n, &other_loop]);
            assert_ne!(
                key(&with_named),
                base,
                "SmartLoop::{field} of a named entry"
            );
            let with_other = kb_of(&[&named, &other], &[&named_loop, &o]);
            assert_eq!(
                key(&with_other),
                base,
                "SmartLoop::{field} of an unnamed entry"
            );
        }
        // An entry's absence counts too, under both lookups of a name.
        let missing_api = kb_of(&[&other], &[&named_loop, &other_loop]);
        assert_ne!(key(&missing_api), base, "removing a named API");
        let missing_loop = kb_of(&[&named, &other], &[&other_loop]);
        assert_ne!(key(&missing_loop), base, "removing a named smartloop");
        let head_as_api = RcApi::inc("for_each_w", RcClass::Embedded, ObjectFlow::Arg(1), &[]);
        let added = kb_of(&[&named, &other, &head_as_api], &[&named_loop, &other_loop]);
        assert_ne!(key(&added), base, "adding an API under a loop-head name");
        let unnamed = RcApi::inc("y_get", RcClass::Specific, ObjectFlow::Arg(0), &[]);
        let added = kb_of(&[&named, &other, &unnamed], &[&named_loop, &other_loop]);
        assert_eq!(key(&added), base, "adding an API the unit never names");
    }

    #[test]
    fn persists_and_reloads_all_layers() {
        let dir = test_dir("persists_and_reloads");

        let mut cache = AuditCache::with_dir(&dir);
        assert!(cache.is_empty());
        cache.check_put(
            7,
            9,
            CheckedUnit {
                findings: Vec::new(),
                functions: 4,
                errors: vec![CachedError {
                    kind: UnitErrorKind::GraphBlowup,
                    detail: "big() exceeded cap".into(),
                }],
            },
        );
        cache.discovery_put(11, barrier(vec![3, 0]));
        let mut p = parsed(40);
        p.discovery.apis.push(RcApi::dec(
            "widget_put",
            RcClass::Specific,
            ObjectFlow::Arg(0),
        ));
        p.defines.push(MacroDef {
            name: "for_each_w".into(),
            params: Some(vec!["w".into()]),
            body: "for (w = w_first(); w; w = w_next(w))".into(),
            line: 3,
        });
        p.exports = UnitExports {
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
            loop_heads: vec!["for_each_w".into()],
        };
        cache.parse_put(5, p);
        cache.save().expect("save");

        let mut reloaded = AuditCache::with_dir(&dir);
        assert_eq!(reloaded.load_outcome(), &CacheLoadOutcome::Loaded);
        let c = reloaded.check_get(7, 9).expect("check entry");
        assert_eq!(c.functions, 4);
        assert_eq!(c.errors[0].kind, UnitErrorKind::GraphBlowup);
        let b = reloaded.discovery_get(11).expect("discovery entry");
        assert_eq!(kb_fingerprint(&b.kb), kb_fingerprint(&ApiKb::builtin()));
        assert_eq!(b.deps, vec![3, 0]);
        let p = reloaded.parse_get(5).expect("parse entry");
        assert!(p.parsed_ok);
        assert!(p.tu.is_none(), "ASTs must not round-trip through disk");
        assert_eq!(p.lines, 40);
        assert_eq!(p.discovery.apis[0].name, "widget_put");
        assert_eq!(p.defines[0].name, "for_each_w");
        assert_eq!(p.defines[0].params, Some(vec!["w".to_string()]));
        assert_eq!(p.exports.path, "drivers/a/a.c");
        assert_eq!(p.exports.fns[0].calls[0].callee, "of_node_put");
        assert_eq!(p.exports.loop_heads, vec!["for_each_w".to_string()]);
        assert_eq!(reloaded.stats.check_hits, 1);
        assert_eq!(reloaded.stats.parse_hits, 1);
        assert_eq!(reloaded.stats.export_hits, 1, "exports ride the parse hit");
        assert!(reloaded.parse_get(6).is_none());
        assert_eq!(reloaded.stats.parse_misses, 0, "a miss is counted on put");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_cap_keys_the_parse_layer() {
        // Exports ride the parse entry and are read off graphs built
        // under the cap, so the cap must key the parse layer.
        let config = AuditConfig::default();
        let smaller_cap = AuditConfig {
            limits: crate::AuditLimits {
                max_graph_nodes: config.limits.max_graph_nodes - 1,
                ..config.limits
            },
            ..AuditConfig::default()
        };
        let seed_fp = kb_fingerprint(&ApiKb::builtin());
        assert_ne!(
            parse_config_fingerprint(&config, seed_fp),
            parse_config_fingerprint(&smaller_cap, seed_fp),
            "max_graph_nodes must key the parse layer"
        );
        assert_ne!(
            parse_config_fingerprint(&config, seed_fp),
            check_config_fingerprint(&config)
        );
    }

    #[test]
    fn binary_file_round_trips_and_resaves_byte_identically() {
        // A reloaded cache must re-serialize to the exact same bytes,
        // before and after its entries are looked up (deterministic
        // codec).
        let mut cache = AuditCache::new();
        cache.parse_put(1, parsed(10));
        cache.parse_put(2, parsed(20));
        cache.check_put(3, 4, CheckedUnit::default());
        cache.discovery_put(5, barrier(vec![9]));
        let bytes = cache.to_bytes();

        let mut loaded = AuditCache::new();
        assert!(loaded.load_bytes(bytes.clone()));
        assert_eq!(loaded.len(), (2, 1, 1));
        assert_eq!(loaded.to_bytes(), bytes, "a loaded cache re-encodes equal");

        loaded.parse_get(1);
        loaded.parse_get(2);
        loaded.check_get(3, 4);
        loaded.discovery_get(5);
        assert_eq!(loaded.to_bytes(), bytes, "decoded resave re-encodes equal");
    }

    #[test]
    fn old_version_is_rejected_as_cold_never_wrong() {
        let dir = test_dir("version_bump");
        let mut cache = AuditCache::with_dir(&dir);
        cache.parse_put(1, parsed(10));
        cache.save().unwrap();

        // Rewind the version field. The checksum covers the body only,
        // so the file still checksums clean — rejection must come from
        // the version gate alone.
        let live = dir.join(CACHE_FILE);
        let mut bytes = std::fs::read(&live).unwrap();
        bytes[8..16].copy_from_slice(&(CACHE_VERSION - 1).to_le_bytes());
        std::fs::write(&live, &bytes).unwrap();

        let mut old = AuditCache::with_dir(&dir);
        assert!(
            matches!(old.load_outcome(), CacheLoadOutcome::Quarantined(_)),
            "old version must go cold, got {:?}",
            old.load_outcome()
        );
        assert!(old.is_empty());
        assert!(old.parse_get(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        // FNV-1a's per-byte step is a bijection of the running state,
        // so any single-byte change to the body always changes the
        // checksum; header damage trips the magic/version/checksum
        // gates directly. Flip every byte (capped stride for speed) and
        // require a cold load each time.
        let mut cache = AuditCache::new();
        cache.parse_put(1, parsed(10));
        cache.check_put(2, 3, CheckedUnit::default());
        let bytes = cache.to_bytes();
        for i in 0..bytes.len() {
            let mut dented = bytes.clone();
            dented[i] ^= 0x20;
            let mut c = AuditCache::new();
            assert!(!c.load_bytes(dented), "byte {i} flip must reject");
        }
        // Truncations: every proper prefix must reject too.
        for cut in 0..bytes.len() {
            let mut c = AuditCache::new();
            assert!(!c.load_bytes(bytes[..cut].to_vec()), "prefix {cut}");
        }
    }

    #[test]
    fn seeded_cache_states_round_trip() {
        // A deterministic mini-fuzzer: derive pseudo-random cache
        // states from a seed and require encode→load→re-encode byte
        // stability for each.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..8 {
            let mut cache = AuditCache::new();
            for e in 0..(next() % 5) {
                let mut p = parsed((next() % 1000) as usize);
                p.parsed_ok = next() % 2 == 0;
                for s in 0..(next() % 4) {
                    p.defines.push(MacroDef {
                        name: format!("m_{round}_{e}_{s}"),
                        params: (next() % 2 == 0).then(|| vec![format!("a{}", next() % 7)]),
                        body: format!("callee_{}()", next() % 7),
                        line: (next() % 500) as u32,
                    });
                }
                if next() % 2 == 0 {
                    p.errors.push(CachedError {
                        kind: UnitErrorKind::all()
                            [(next() % UnitErrorKind::all().len() as u64) as usize],
                        detail: format!("detail {}", next()),
                    });
                }
                p.exports.path = format!("p{}.c", next() % 9);
                for f in 0..(next() % 3) {
                    p.exports.fns.push(FnExport {
                        name: format!("exp_{f}"),
                        is_static: next() % 2 == 0,
                        calls: vec![CallSite {
                            callee: format!("c_{}", next() % 5),
                            args: vec![None, Some((next() % 4) as usize)],
                        }],
                        stores: vec![(next() % 3) as usize],
                    });
                }
                p.exports.loop_heads = vec![format!("for_each_{}", next() % 3)];
                cache.parse_put(next(), p);
            }
            for _ in 0..(next() % 4) {
                let mut findings = Vec::new();
                if next() % 2 == 0 {
                    findings.push(Finding {
                        pattern: AntiPattern::all()
                            [(next() % AntiPattern::all().len() as u64) as usize],
                        impact: [Impact::Leak, Impact::Uaf, Impact::Npd][(next() % 3) as usize],
                        file: format!("f{}.c", next() % 3),
                        function: format!("fn{}", next() % 3),
                        line: (next() % 500) as u32,
                        api: "of_node_get".into(),
                        object: (next() % 2 == 0).then(|| "obj".to_string()),
                        message: format!("m {}", next() % 100),
                        feasibility: [
                            refminer_checkers::Feasibility::Infeasible,
                            refminer_checkers::Feasibility::Assumed,
                            refminer_checkers::Feasibility::Proven,
                        ][(next() % 3) as usize],
                        checkers: vec!["C".into()],
                    });
                }
                cache.check_put(
                    next(),
                    next(),
                    CheckedUnit {
                        findings,
                        functions: (next() % 40) as usize,
                        errors: Vec::new(),
                    },
                );
            }
            let bytes = cache.to_bytes();
            let mut back = AuditCache::new();
            assert!(back.load_bytes(bytes.clone()), "round {round} must load");
            assert_eq!(back.len(), cache.len(), "round {round} entry counts");
            assert_eq!(back.to_bytes(), bytes, "round {round} byte stability");
        }
    }

    #[test]
    fn torn_payload_degrades_to_a_miss_not_a_wrong_answer() {
        // Corrupt one payload *and* fix up the checksum, simulating the
        // checksum-collision worst case: the framing loads, but the
        // poisoned entry must fail decode and be dropped on load — a
        // miss — while its neighbors stay servable.
        let mut cache = AuditCache::new();
        cache.parse_put(1, parsed(10));
        cache.parse_put(2, parsed(20));
        let mut bytes = cache.to_bytes();
        // Body layout: count u64 | key=1 u64 | len u64 | payload ...
        // The first payload byte is `parsed_ok`; any value > 1 cannot
        // decode as a bool.
        let first_payload = HEADER_LEN + 8 + 8 + 8;
        bytes[first_payload] = 7;
        let sum = fnv1a(&bytes[HEADER_LEN..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());

        let mut c = AuditCache::new();
        assert!(c.load_bytes(bytes));
        assert_eq!(c.len().0, 1, "poisoned entry is dropped on load");
        assert!(c.parse_get(1).is_none(), "poisoned entry must miss");
        assert_eq!(c.parse_get(2).expect("neighbor survives").lines, 20);
        assert_eq!(c.stats.parse_hits, 1);
    }

    #[test]
    fn interrupted_save_leaves_old_or_new_cache_never_garbage() {
        let dir = test_dir("interrupted_save");

        // A first successful save: the old, valid generation.
        let mut cache = AuditCache::with_dir(&dir);
        cache.parse_put(1, parsed(11));
        cache.save().unwrap();
        let old = std::fs::read(dir.join(CACHE_FILE)).unwrap();
        assert!(AuditCache::with_dir(&dir).parse_get(1).is_some());

        // A writer killed mid-write leaves only a truncated temp file;
        // the live cache file is untouched, so readers still get the
        // complete old generation — never a garbage prefix.
        let killed = dir.join(format!("{CACHE_FILE}.tmp.{}.999", std::process::id()));
        std::fs::write(&killed, &old[..old.len() / 2]).unwrap();
        assert_eq!(std::fs::read(dir.join(CACHE_FILE)).unwrap(), old);
        assert!(AuditCache::with_dir(&dir).parse_get(1).is_some());
        std::fs::remove_file(&killed).unwrap();

        // The next completed save atomically publishes the new
        // generation and leaves no temp debris behind.
        let mut cache = AuditCache::with_dir(&dir);
        cache.parse_get(1);
        cache.parse_put(2, parsed(22));
        cache.save().unwrap();
        let mut reloaded = AuditCache::with_dir(&dir);
        assert!(reloaded.parse_get(1).is_some());
        assert!(reloaded.parse_get(2).is_some());
        let debris: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
            .filter(|n| n != CACHE_FILE)
            .collect();
        assert_eq!(debris, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loaded_entries_ignore_later_writes_to_the_file() {
        // The loader owns its copy of the file. Overwriting the file in
        // place (same inode, same length) after the load must not
        // change what a lookup returns.
        let dir = test_dir("in_place_overwrite");
        let mut cache = AuditCache::with_dir(&dir);
        cache.parse_put(1, parsed(10));
        cache.save().unwrap();

        let mut reopened = AuditCache::with_dir(&dir);
        assert_eq!(reopened.load_outcome(), &CacheLoadOutcome::Loaded);

        let mut other = AuditCache::new();
        other.parse_put(1, parsed(20));
        let live = dir.join(CACHE_FILE);
        let other_bytes = other.to_bytes();
        assert_eq!(other_bytes.len(), std::fs::read(&live).unwrap().len());
        std::fs::write(&live, &other_bytes).unwrap();

        let p = reopened.parse_get(1).expect("loaded entry");
        assert_eq!(p.lines, 10, "a lookup decoded bytes written after the load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_cache_file_is_ignored() {
        let dir = test_dir("malformed_cache_file");
        std::fs::create_dir_all(&dir).unwrap();
        // Not even our magic (e.g. a leftover JSON-era cache).
        std::fs::write(dir.join(CACHE_FILE), "{\"version\":3}").unwrap();
        let cache = AuditCache::with_dir(&dir);
        assert!(cache.is_empty());
        // Right magic, garbage after it.
        let mut junk = MAGIC.to_vec();
        junk.extend_from_slice(&[0xab; 40]);
        std::fs::write(dir.join(CACHE_FILE), &junk).unwrap();
        let cache = AuditCache::with_dir(&dir);
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_warm_cache_is_quarantined_and_rebuilds_cold() {
        use crate::{audit_with_cache, AuditConfig, Project};

        let dir = test_dir("quarantine_regression");

        // Warm the cache with a real audit over a buggy source so the
        // post-quarantine rebuild has findings to compare against.
        let p = Project::from_sources(vec![(
            "drivers/q/q.c".to_string(),
            r#"
struct widget { struct kref refs; };
int widget_probe(struct widget *w)
{
        kref_get(&w->refs);
        if (!w)
                return -EINVAL;
        return 0;
}
"#
            .to_string(),
        )]);
        let cfg = AuditConfig::default();
        let baseline = {
            let mut cache = AuditCache::with_dir(&dir);
            let report = audit_with_cache(&p, &cfg, &mut cache);
            cache.save().unwrap();
            report
        };

        let live = dir.join(CACHE_FILE);
        let aside = dir.join(format!("{CACHE_FILE}{QUARANTINE_SUFFIX}"));
        let good = std::fs::read(&live).unwrap();

        // Corruption one: a single bit flip in the magic.
        let mut flipped = good.clone();
        assert_eq!(flipped[0], b'R');
        flipped[0] ^= 0x20;
        std::fs::write(&live, &flipped).unwrap();
        let mut cache = AuditCache::with_dir(&dir);
        assert_eq!(
            cache.load_outcome(),
            &CacheLoadOutcome::Quarantined(aside.clone())
        );
        assert!(cache.is_empty(), "quarantine must rebuild cold");
        // Moved aside intact (evidence), not copied and not deleted.
        assert_eq!(std::fs::read(&aside).unwrap(), flipped);
        assert!(!live.exists(), "the corrupt generation must not stay live");
        let rebuilt = audit_with_cache(&p, &cfg, &mut cache);
        assert_eq!(rebuilt.findings, baseline.findings);
        assert!(rebuilt.cache.parse_misses > 0, "rebuild must be cold");
        cache.save().unwrap();
        assert_eq!(
            AuditCache::with_dir(&dir).load_outcome(),
            &CacheLoadOutcome::Loaded
        );

        // Corruption two: truncate the (healed) file mid-way, as a
        // crash during a non-atomic copy would.
        let healed = std::fs::read(&live).unwrap();
        std::fs::write(&live, &healed[..healed.len() / 2]).unwrap();
        let mut cache = AuditCache::with_dir(&dir);
        assert!(
            matches!(cache.load_outcome(), CacheLoadOutcome::Quarantined(p) if *p == aside),
            "truncated cache must quarantine, got {:?}",
            cache.load_outcome()
        );
        assert!(cache.is_empty());
        let rebuilt = audit_with_cache(&p, &cfg, &mut cache);
        assert_eq!(rebuilt.findings, baseline.findings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subsystem_filter_reuses_full_run_check_entries() {
        // `--subsystem` only picks which units are checked; a checked
        // unit's findings do not depend on it. A narrowed run through a
        // full run's cache must therefore check nothing new and report
        // exactly the full run's findings under the prefix.
        use crate::{audit_with_cache, AuditConfig, Project};
        use refminer_corpus::{generate_tree, TreeConfig};

        let tree = generate_tree(&TreeConfig {
            scale: 0.03,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let mut cache = AuditCache::new();
        let full = audit_with_cache(&project, &AuditConfig::default(), &mut cache);
        let drivers = AuditConfig {
            subsystem: Some("drivers".to_string()),
            ..AuditConfig::default()
        };
        let narrowed = audit_with_cache(&project, &drivers, &mut cache);
        assert_eq!(
            narrowed.cache.check_misses, 0,
            "the narrowed run re-checked"
        );
        let under_drivers: Vec<&Finding> = full
            .findings
            .iter()
            .filter(|f| f.file.starts_with("drivers/"))
            .collect();
        assert!(!under_drivers.is_empty(), "the tree has driver findings");
        assert_eq!(narrowed.findings.iter().collect::<Vec<_>>(), under_drivers);
        assert!(
            full.findings.len() > under_drivers.len(),
            "the tree has findings outside drivers/"
        );
    }

    #[test]
    fn successive_edits_keep_the_cache_within_two_trees() {
        // Each step edits four files and audits the new tree through one
        // cache, which then holds that tree and the one before it: parse
        // and check entries at most the live units plus the files the
        // step edited, and two barriers. Every step still re-parses
        // exactly its edited files.
        use crate::{audit, audit_with_cache, Project};
        use refminer_corpus::{generate_tree, next_revision, TreeConfig};

        let mut tree = generate_tree(&TreeConfig {
            scale: 0.05,
            ..Default::default()
        });
        let cfg = AuditConfig {
            jobs: 1,
            ..AuditConfig::default()
        };
        let mut cache = AuditCache::new();
        audit_with_cache(&Project::from_tree(&tree), &cfg, &mut cache);
        let mut last = None;
        for step in 0..30 {
            let (next, edited) = next_revision(&tree, step, 4);
            tree = next;
            let project = Project::from_tree(&tree);
            let report = audit_with_cache(&project, &cfg, &mut cache);
            assert_eq!(report.cache.parse_misses, edited.len(), "step {step}");
            let bound = project.units().len() + edited.len();
            let (parse, check, discovery) = cache.len();
            assert!(
                parse <= bound && check <= bound && discovery <= 2,
                "step {step}: {:?} entries for {bound} units and edits",
                cache.len()
            );
            last = Some((project, report));
        }
        let (project, report) = last.expect("30 steps ran");
        assert_eq!(report.findings, audit(&project, &cfg).findings);
    }

    #[test]
    fn a_reopened_cache_keeps_only_what_its_first_audit_reads() {
        // A saved cache holding two trees is reopened and audits one of
        // them. Entries loaded from disk count as read by no audit, so
        // the cache then holds that tree's entries alone, and the warm
        // audit finds what a cold one does.
        use crate::{audit, audit_with_cache, Project};
        use refminer_corpus::{generate_tree, TreeConfig};

        let tree = |seed| {
            Project::from_tree(&generate_tree(&TreeConfig {
                seed,
                scale: 0.03,
                ..Default::default()
            }))
        };
        let (a, b) = (tree(1), tree(2));
        let cfg = AuditConfig::default();
        let dir = test_dir("reopened_keeps_one_tree");
        let mut both = AuditCache::with_dir(&dir);
        audit_with_cache(&a, &cfg, &mut both);
        audit_with_cache(&b, &cfg, &mut both);
        both.save().expect("save");
        let mut alone = AuditCache::new();
        audit_with_cache(&a, &cfg, &mut alone);
        assert!(
            both.len().0 > alone.len().0,
            "the saved cache holds both trees"
        );

        let mut reopened = AuditCache::with_dir(&dir);
        assert_eq!(reopened.len(), both.len());
        let warm = audit_with_cache(&a, &cfg, &mut reopened);
        assert_eq!((warm.cache.parse_misses, warm.cache.check_misses), (0, 0));
        assert_eq!(reopened.len(), alone.len());
        assert_eq!(warm.findings, audit(&a, &cfg).findings);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
