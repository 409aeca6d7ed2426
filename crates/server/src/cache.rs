//! The fingerprint-keyed result cache.
//!
//! Serving workloads issue many queries over few databases at varying
//! thresholds, so a repeat query must not re-mine. The key is
//! `(database fingerprint, δ, algorithm, mode)`:
//!
//! * the **fingerprint** is the FNV-1a hash of the registered database
//!   ([`disc_core::database_fingerprint`]) — the same value checkpoints are
//!   validated against, so "same database" means byte-identical contents,
//!   not same name;
//! * **δ** is the *resolved* support count, so `minsup=0.5` and `delta=N/2`
//!   on the same database share one entry;
//! * the **algorithm** is part of the key even though every complete miner
//!   returns the same pattern set — a cached entry must attest which engine
//!   produced it, and partial/budget-limited configurations differ;
//! * the **mode** (`all` / `closed` / `maximal`) selects which projection
//!   of the frequent set was rendered.
//!
//! Entries hold the fully rendered result rows (support + pattern text in
//! comparative order — exactly the bytes `disc-mine` prints) in one
//! buffer, so a cache hit is a clone of an `Arc`, no re-rendering.
//! Eviction is LRU by entry count; hits refresh recency.

use disc_core::MiningResult;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;

/// A cache key. See the module docs for field semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a fingerprint of the database contents.
    pub fingerprint: u64,
    /// Resolved minimum-support count δ.
    pub delta: u64,
    /// Algorithm name as submitted (`disc-all`, `dynamic`, `parallel`, `auto`).
    pub algo: String,
    /// Result projection: `all`, `closed`, or `maximal`.
    pub mode: String,
}

/// A finished, rendered mining result — what jobs produce and the cache
/// stores. One byte buffer holds every row in `disc-mine`'s
/// `"{support}\t{pattern}\n"` format, in comparative order, beside the
/// offset where each row ends: a page is a slice copy, the persisted
/// `result.tsv` is the buffer itself, and a finished job retains two
/// allocations however many patterns it holds.
#[derive(Debug)]
pub struct RenderedResult {
    /// Every row, rendered.
    bytes: Vec<u8>,
    /// One past the `\n` of each row in `bytes`.
    ends: Vec<usize>,
    /// Total frequent sequences before any mode projection.
    pub total_patterns: usize,
}

impl RenderedResult {
    /// Renders `(pattern, support)` rows in the order given.
    pub fn from_rows<P: std::fmt::Display>(
        rows: impl IntoIterator<Item = (P, u64)>,
        total_patterns: usize,
    ) -> RenderedResult {
        let rows = rows.into_iter();
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(rows.size_hint().0);
        for (pattern, support) in rows {
            writeln!(bytes, "{support}\t{pattern}").expect("writing to a Vec cannot fail");
            ends.push(bytes.len());
        }
        bytes.shrink_to_fit();
        ends.shrink_to_fit();
        RenderedResult { bytes, ends, total_patterns }
    }

    /// Renders the `mode` projection (`all`, `closed` or `maximal`) of a
    /// mining result.
    pub fn project(result: &MiningResult, mode: &str) -> RenderedResult {
        match mode {
            "closed" => RenderedResult::from_rows(result.closed_patterns(), result.len()),
            "maximal" => RenderedResult::from_rows(result.maximal_patterns(), result.len()),
            _ => RenderedResult::from_rows(result.iter(), result.len()),
        }
    }

    /// Rebuilds a result from the bytes [`RenderedResult::as_bytes`]
    /// returned (a persisted `result.tsv`). `None` unless every row is
    /// UTF-8 `support\tpattern\n` with a `u64` support. The projection's
    /// source count is not persisted, so `total_patterns` is the row count.
    pub fn from_tsv(bytes: Vec<u8>) -> Option<RenderedResult> {
        let mut ends = Vec::new();
        let mut end = 0;
        for line in std::str::from_utf8(&bytes).ok()?.split_inclusive('\n') {
            let (support, _pattern) = line.strip_suffix('\n')?.split_once('\t')?;
            support.parse::<u64>().ok()?;
            end += line.len();
            ends.push(end);
        }
        let total_patterns = ends.len();
        Some(RenderedResult { bytes, ends, total_patterns })
    }

    /// Rows held.
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Every row, exactly as `disc-mine` prints them.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Renders rows `offset..offset+limit` with a minimum pattern length,
    /// in the exact `"{support}\t{pattern}\n"` byte format of `disc-mine`.
    pub fn render(&self, min_length: usize, offset: usize, limit: usize) -> Vec<u8> {
        if min_length <= 1 {
            let first = offset.min(self.rows());
            let last = offset.saturating_add(limit).min(self.rows());
            return self.bytes[self.row_start(first)..self.row_start(last)].to_vec();
        }
        let mut out = Vec::new();
        for row in (0..self.rows())
            .map(|i| &self.bytes[self.row_start(i)..self.ends[i]])
            .filter(|row| pattern_length(row) >= min_length)
            .skip(offset)
            .take(limit)
        {
            out.extend_from_slice(row);
        }
        out
    }

    /// Where row `i` starts in `bytes` (`bytes.len()` for `i == rows()`).
    fn row_start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev])
    }
}

/// Items in a rendered pattern = commas + itemsets. `(a,g)(b)` has one
/// comma and two itemsets: length 3. Cheaper than re-parsing and exact for
/// the canonical `Display` format the rows were rendered from; a whole
/// row counts the same, since its support and separators hold neither.
fn pattern_length(p: impl AsRef<[u8]>) -> usize {
    p.as_ref().iter().filter(|&&b| b == b',' || b == b'(').count()
}

/// An LRU map from [`CacheKey`] to [`RenderedResult`], plus hit/miss
/// counters for observability (the acceptance check that a repeat query
/// never re-mines reads these alongside the mine-invocation counter).
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, Arc<RenderedResult>>,
    /// Keys in recency order, oldest first. Entry count is small (the
    /// capacity default is 64), so O(n) recency updates are fine.
    order: Vec<CacheKey>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// A cache evicting beyond `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, refreshing its recency and counting a hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<RenderedResult>> {
        match self.map.get(key) {
            Some(v) => {
                self.hits += 1;
                let pos = self.order.iter().position(|k| k == key).expect("order tracks map");
                let k = self.order.remove(pos);
                self.order.push(k);
                Some(Arc::clone(v))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used
    /// entry beyond capacity.
    pub fn insert(&mut self, key: CacheKey, value: Arc<RenderedResult>) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push(key);
        } else {
            let pos = self.order.iter().position(|k| *k == key).expect("order tracks map");
            let k = self.order.remove(pos);
            self.order.push(k);
        }
        while self.map.len() > self.capacity {
            let oldest = self.order.remove(0);
            self.map.remove(&oldest);
        }
    }

    /// `(hits, misses, live entries)`.
    pub fn stats(&self) -> (u64, u64, usize) {
        (self.hits, self.misses, self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(delta: u64) -> CacheKey {
        CacheKey { fingerprint: 7, delta, algo: "disc-all".into(), mode: "all".into() }
    }

    fn value() -> Arc<RenderedResult> {
        Arc::new(RenderedResult::from_rows([("(a)", 3), ("(a, g)(b)", 2)], 2))
    }

    #[test]
    fn hits_refresh_recency_and_misses_count() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), value());
        cache.insert(key(2), value());
        assert!(cache.get(&key(1)).is_some()); // 1 now most recent
        cache.insert(key(3), value()); // evicts 2
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        let (hits, misses, live) = cache.stats();
        assert_eq!((hits, misses, live), (3, 1, 2));
    }

    #[test]
    fn render_paginates_in_comparative_order() {
        let v = value();
        assert_eq!(v.render(1, 0, usize::MAX), b"3\t(a)\n2\t(a, g)(b)\n");
        assert_eq!(v.render(1, 1, 1), b"2\t(a, g)(b)\n");
        assert_eq!(v.render(1, 2, 10), b"");
        // min_length filters exactly like `disc-mine --min-length`.
        assert_eq!(v.render(3, 0, usize::MAX), b"2\t(a, g)(b)\n");
    }

    #[test]
    fn pattern_length_matches_display_format() {
        assert_eq!(pattern_length("(a)"), 1);
        assert_eq!(pattern_length("(a, g)(b)"), 3);
        assert_eq!(pattern_length("(a, b, c)"), 3);
    }

    /// The per-row representation results had before they became one
    /// buffer, and its renderer: the reference the buffer must reproduce.
    fn old_render(
        lines: &[(u64, String)],
        min_length: usize,
        offset: usize,
        limit: usize,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        for (support, pattern) in lines
            .iter()
            .filter(|(_, p)| min_length <= 1 || pattern_length(p) >= min_length)
            .skip(offset)
            .take(limit)
        {
            out.extend_from_slice(format!("{support}\t{pattern}\n").as_bytes());
        }
        out
    }

    #[test]
    fn buffer_renders_like_per_row_strings_in_every_mode() {
        use disc_algo::DiscAll;
        use disc_core::{MinSupport, SequentialMiner};
        let db = disc_datagen::QuestConfig::paper_table11()
            .with_ncust(50)
            .with_nitems(30)
            .with_pools(30, 60)
            .with_slen(6.0)
            .with_seed(17)
            .generate();
        let mined = DiscAll::default().mine(&db, MinSupport::Count(8));
        assert!(mined.len() > 50, "workload too small to page: {}", mined.len());
        for mode in ["all", "closed", "maximal"] {
            let rows = match mode {
                "closed" => mined.closed_patterns(),
                "maximal" => mined.maximal_patterns(),
                _ => mined.iter().collect(),
            };
            let lines: Vec<(u64, String)> = rows.iter().map(|(p, s)| (*s, p.to_string())).collect();
            let result = RenderedResult::project(&mined, mode);
            assert_eq!(result.rows(), lines.len(), "{mode}");
            assert_eq!(result.total_patterns, mined.len());
            let all = old_render(&lines, 1, 0, usize::MAX);
            assert_eq!(result.as_bytes(), all.as_slice(), "{mode}");
            let n = lines.len();
            for min_length in 0..=4 {
                for (offset, limit) in [
                    (0, usize::MAX),
                    (0, 7),
                    (5, 13),
                    (n.saturating_sub(1), 10),
                    (n, 5),
                    (n + 3, usize::MAX),
                    (2, 0),
                ] {
                    assert_eq!(
                        result.render(min_length, offset, limit),
                        old_render(&lines, min_length, offset, limit),
                        "{mode} min_length={min_length} offset={offset} limit={limit}"
                    );
                }
            }
            let reloaded = RenderedResult::from_tsv(all.clone()).expect("rendered rows parse");
            assert_eq!(reloaded.as_bytes(), all.as_slice());
            assert_eq!(reloaded.rows(), n);
            assert_eq!(reloaded.render(3, 2, 9), result.render(3, 2, 9));
        }
    }

    #[test]
    fn from_tsv_refuses_malformed_rows() {
        assert_eq!(RenderedResult::from_tsv(Vec::new()).map(|r| r.rows()), Some(0));
        for bad in [
            &b"3\t(a)\nx\t(b)\n"[..], // support is not a count
            b"3\t(a)\n2 (b)\n",       // no tab
            b"3\t(a)\n\n",            // empty row
            b"3\t(a)\n2\t(b)",        // last row cut short
            b"3\t(\xff)\n",           // not UTF-8
        ] {
            assert!(RenderedResult::from_tsv(bad.to_vec()).is_none(), "{bad:?}");
        }
    }
}
