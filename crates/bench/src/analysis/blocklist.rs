//! The domain blocklist (Spamhaus-DBL stand-in).

use std::collections::HashMap;

use flowdns_types::DomainName;

/// Blocklist categories, matching the composition the paper reports for
/// its 1M-name hourly sample (512 spam, 41 botnet C&C, 34 abused
/// redirectors, 11 malware, 3 phishing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlocklistCategory {
    /// Spam / generic bad reputation.
    Spam,
    /// Botnet command and control.
    BotnetCc,
    /// Abused spammed redirector.
    AbusedRedirector,
    /// Malware distribution.
    Malware,
    /// Phishing.
    Phishing,
}

impl BlocklistCategory {
    /// All categories in the paper's order.
    pub fn all() -> [BlocklistCategory; 5] {
        [
            BlocklistCategory::Spam,
            BlocklistCategory::BotnetCc,
            BlocklistCategory::AbusedRedirector,
            BlocklistCategory::Malware,
            BlocklistCategory::Phishing,
        ]
    }

    /// The label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            BlocklistCategory::Spam => "spam",
            BlocklistCategory::BotnetCc => "botnet",
            BlocklistCategory::AbusedRedirector => "abused-redirector",
            BlocklistCategory::Malware => "malware",
            BlocklistCategory::Phishing => "phish",
        }
    }
}

/// An in-memory domain blocklist with category labels.
///
/// Lookups match the exact name or any listed parent domain (listing
/// `bad.example` also flags `cdn.bad.example`), which is how DNSBL
/// services behave.
#[derive(Debug, Default, Clone)]
pub struct Blocklist {
    entries: HashMap<DomainName, BlocklistCategory>,
}

impl Blocklist {
    /// An empty blocklist.
    pub fn new() -> Self {
        Blocklist::default()
    }

    /// Add a domain to the blocklist.
    pub fn add(&mut self, domain: DomainName, category: BlocklistCategory) {
        self.entries.insert(domain, category);
    }

    /// Is the blocklist empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a domain: returns the category of the name itself or of the
    /// closest listed parent.
    pub fn lookup(&self, domain: &DomainName) -> Option<BlocklistCategory> {
        if let Some(cat) = self.entries.get(domain) {
            return Some(*cat);
        }
        // Walk parent domains: a.b.c -> b.c -> c
        let labels: Vec<&str> = domain.labels().collect();
        for start in 1..labels.len() {
            let parent = labels[start..].join(".");
            if let Some(cat) = self.entries.get(parent.as_str()) {
                return Some(*cat);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocklist() -> Blocklist {
        let mut bl = Blocklist::new();
        bl.add(
            DomainName::literal("spamhub.example"),
            BlocklistCategory::Spam,
        );
        bl.add(
            DomainName::literal("cc-node3.bad.example"),
            BlocklistCategory::BotnetCc,
        );
        bl.add(
            DomainName::literal("dropper.example"),
            BlocklistCategory::Malware,
        );
        bl
    }

    #[test]
    fn exact_and_subdomain_matches() {
        let bl = blocklist();
        assert_eq!(
            bl.lookup(&DomainName::literal("spamhub.example")),
            Some(BlocklistCategory::Spam)
        );
        assert_eq!(
            bl.lookup(&DomainName::literal("promo.spamhub.example")),
            Some(BlocklistCategory::Spam)
        );
        assert_eq!(
            bl.lookup(&DomainName::literal("cc-node3.bad.example")),
            Some(BlocklistCategory::BotnetCc)
        );
        assert_eq!(bl.lookup(&DomainName::literal("benign.example")), None);
    }

    #[test]
    fn parent_listing_does_not_leak_sideways() {
        let bl = blocklist();
        // "bad.example" itself is not listed, only cc-node3.bad.example.
        assert_eq!(bl.lookup(&DomainName::literal("bad.example")), None);
        assert_eq!(bl.lookup(&DomainName::literal("other.bad.example")), None);
    }
}
