//! Rendering a pattern set the way `disc-mine` prints it, and the digest
//! every rendered output is checked against.

use disc_core::MiningResult;
use std::io::Write;

/// One `support<TAB>pattern` line per pattern, in comparative order — the
/// bytes `disc-mine` writes and the server serves.
pub fn render(result: &MiningResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(result.len() * 24);
    for (pattern, support) in result.iter() {
        writeln!(out, "{support}\t{pattern}").expect("writing to a Vec cannot fail");
    }
    out
}

/// What a rendered output must match: its pattern count, its longest
/// pattern, and a hash of every byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Number of lines (patterns).
    pub patterns: usize,
    /// Largest pattern length, in items.
    pub max_length: usize,
    /// FNV-1a (64-bit) of the bytes.
    pub hash: u64,
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests rendered output. A pattern's length is its item count: per
/// itemset `(x, y, z)`, its commas plus one.
pub fn digest(rendered: &[u8]) -> Digest {
    let mut patterns = 0;
    let mut max_length = 0;
    for line in rendered.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        patterns += 1;
        let pattern = match line.iter().position(|&b| b == b'\t') {
            Some(tab) => &line[tab + 1..],
            None => line,
        };
        let length = pattern.iter().filter(|&&b| b == b'(' || b == b',').count();
        max_length = max_length.max(length);
    }
    Digest { patterns, max_length, hash: fnv1a(rendered) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, MiningResult};

    fn sample() -> Vec<u8> {
        let mut r = MiningResult::new();
        r.insert(parse_sequence("(a)").unwrap(), 4);
        r.insert(parse_sequence("(a, b)(c)").unwrap(), 3);
        r.insert(parse_sequence("(b)").unwrap(), 5);
        render(&r)
    }

    #[test]
    fn digest_counts_patterns_and_lengths() {
        let bytes = sample();
        let d = digest(&bytes);
        assert_eq!(d.patterns, 3);
        assert_eq!(d.max_length, 3);
        assert_eq!(d, digest(&bytes.clone()));
    }

    #[test]
    fn digest_rejects_a_mutated_output() {
        let bytes = sample();
        let good = digest(&bytes);

        // One support digit changed: same count and lengths, other hash.
        let mut flipped = bytes.clone();
        let at = flipped.iter().position(|b| b.is_ascii_digit()).unwrap();
        flipped[at] = if flipped[at] == b'9' { b'8' } else { flipped[at] + 1 };
        assert_ne!(digest(&flipped), good);

        // One pattern dropped.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let dropped: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        let d = digest(dropped.as_bytes());
        assert_ne!(d, good);
        assert_eq!(d.patterns, 2);

        // Two lines swapped: same multiset of patterns, wrong order.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_ne!(digest(swapped.as_bytes()), good);
    }
}
