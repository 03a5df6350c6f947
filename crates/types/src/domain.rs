//! Domain names.
//!
//! The correlator treats domain names as opaque keys most of the time, but
//! Section 5 of the paper validates them against three RFC 1035 rules
//! (total length, label length, allowed characters), and the analyses
//! group names by their labels and suffixes. [`DomainName`] therefore
//! stores a normalized (lower-cased, no trailing
//! dot) representation and exposes label iteration, while *accepting*
//! arbitrary non-empty strings: the paper explicitly observes malformed
//! names on the wire (666k per day), so rejecting them at parse time would
//! make the Section 5 analysis impossible.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Maximum length of a domain name in bytes per RFC 1035.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label in bytes per RFC 1035.
pub const MAX_LABEL_LEN: usize = 63;

/// Error produced when a string cannot even be stored as a domain name
/// (empty, or not representable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainParseError {
    /// The input string was empty (after removing a trailing dot).
    Empty,
}

impl fmt::Display for DomainParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainParseError::Empty => write!(f, "domain name is empty"),
        }
    }
}

impl std::error::Error for DomainParseError {}

/// A normalized domain name.
///
/// Normalization: ASCII lower-casing and removal of a single trailing dot
/// (`example.COM.` and `example.com` compare equal). The name is stored in
/// an `Arc<str>` so that cloning — which the correlator does on every
/// hashmap insert and every CNAME chain hop — is a reference-count bump
/// rather than a heap copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    normalized: Arc<str>,
}

impl DomainName {
    /// Parse a domain name from text, normalizing case and trailing dot.
    ///
    /// Text that is already lower-case (the common case on the wire) is
    /// copied once, straight into the shared string.
    pub fn parse(s: &str) -> Result<Self, DomainParseError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Err(DomainParseError::Empty);
        }
        let normalized: Arc<str> = if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            trimmed.to_ascii_lowercase().into()
        } else {
            trimmed.into()
        };
        Ok(DomainName { normalized })
    }

    /// Parse, panicking on failure. Intended for literals in tests and
    /// generators.
    pub fn literal(s: &str) -> Self {
        DomainName::parse(s).expect("invalid domain literal")
    }

    /// The normalized textual form (lower-case, no trailing dot).
    pub fn as_str(&self) -> &str {
        &self.normalized
    }

    /// Share the underlying allocation (a reference-count bump). Used by
    /// the interned-name machinery in [`crate::intern`].
    pub(crate) fn shared_str(&self) -> Arc<str> {
        Arc::clone(&self.normalized)
    }

    /// Wrap an already-normalized shared string. Callers must guarantee
    /// the text is normalized (lower-case, non-empty, no trailing dot),
    /// which holds for any string extracted from a parsed `DomainName`.
    pub(crate) fn from_shared(normalized: Arc<str>) -> Self {
        DomainName { normalized }
    }

    /// The labels of the name, in order (e.g. `a.b.com` → `["a","b","com"]`).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.normalized.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Length of the textual representation in bytes.
    pub fn len(&self) -> usize {
        self.normalized.len()
    }

    /// True if the textual representation is empty (never true for a
    /// successfully parsed name; present for completeness).
    pub fn is_empty(&self) -> bool {
        self.normalized.is_empty()
    }

    /// The registrable-ish suffix of the name: its last `n` labels joined.
    /// FlowDNS's service attribution groups names by their trailing labels
    /// (e.g. everything under `nflxvideo.net` is "Netflix").
    pub fn suffix(&self, n: usize) -> String {
        self.suffix_str(n).to_string()
    }

    /// Borrowed view of the last `n` labels. The labels are already
    /// dot-joined in the stored text, so the suffix is a plain subslice —
    /// no per-call label vector, no allocation.
    pub fn suffix_str(&self, n: usize) -> &str {
        if n == 0 {
            return "";
        }
        let s: &str = &self.normalized;
        let mut dots = 0;
        for (i, b) in s.bytes().enumerate().rev() {
            if b == b'.' {
                dots += 1;
                if dots == n {
                    return &s[i + 1..];
                }
            }
        }
        s
    }

    /// Is `self` equal to `other` or a subdomain of `other`?
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        if self == other {
            return true;
        }
        let me = self.as_str();
        let parent = other.as_str();
        me.len() > parent.len()
            && me.ends_with(parent)
            && me.as_bytes()[me.len() - parent.len() - 1] == b'.'
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.normalized)
    }
}

impl std::str::FromStr for DomainName {
    type Err = DomainParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.normalized
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.normalized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes_case_and_trailing_dot() {
        let a = DomainName::parse("Example.COM.").unwrap();
        let b = DomainName::parse("example.com").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "example.com");
    }

    #[test]
    fn parse_rejects_empty() {
        assert_eq!(DomainName::parse(""), Err(DomainParseError::Empty));
        assert_eq!(DomainName::parse("."), Err(DomainParseError::Empty));
    }

    #[test]
    fn labels_and_suffix() {
        let d = DomainName::literal("cdn1.video.netflix.com");
        assert_eq!(d.label_count(), 4);
        assert_eq!(d.suffix(2), "netflix.com");
        assert_eq!(d.suffix(10), "cdn1.video.netflix.com");
        assert_eq!(d.suffix(0), "");
        assert_eq!(d.suffix_str(1), "com");
        assert_eq!(d.suffix_str(3), "video.netflix.com");
        assert_eq!(d.suffix_str(4), "cdn1.video.netflix.com");
        let single = DomainName::literal("localhost");
        assert_eq!(single.suffix(1), "localhost");
        assert_eq!(single.suffix(5), "localhost");
    }

    #[test]
    fn subdomain_relation() {
        let parent = DomainName::literal("netflix.com");
        let child = DomainName::literal("cdn1.netflix.com");
        let sibling = DomainName::literal("notnetflix.com");
        assert!(child.is_subdomain_of(&parent));
        assert!(parent.is_subdomain_of(&parent));
        assert!(!sibling.is_subdomain_of(&parent));
        assert!(!parent.is_subdomain_of(&child));
    }

    #[test]
    fn malformed_names_are_still_storable() {
        // The correlator must be able to carry malformed names end to end
        // so that Section 5's analysis can see them.
        let d = DomainName::literal("weird_host.example.com");
        assert_eq!(d.as_str(), "weird_host.example.com");
    }

    #[test]
    fn borrow_as_str_enables_map_lookup() {
        use std::collections::HashMap;
        let mut m: HashMap<DomainName, u32> = HashMap::new();
        m.insert(DomainName::literal("example.com"), 7);
        assert_eq!(m.get("example.com"), Some(&7));
    }
}
