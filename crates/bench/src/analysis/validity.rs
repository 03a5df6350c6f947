//! RFC 1035 domain-name validity analysis (Section 5, Invalid Domain
//! Names).
//!
//! The paper checks three rules:
//!
//! 1. the total length of the domain name is 255 bytes or less,
//! 2. each label is limited to 63 bytes,
//! 3. each label starts with a letter, ends with a letter or digit, and
//!    interior characters are limited to letters, digits and hyphens.
//!
//! It reports that 666k names per day violate at least one rule, that the
//! most common violation is a disallowed interior character, and that the
//! most common disallowed character (87% of malformed names) is the
//! underscore. [`validate_domain`] produces the per-name breakdown;
//! [`ValidityStats`] aggregates it over a trace.

use std::collections::HashMap;

use flowdns_types::domain::{DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};

/// One rule violation found in a domain name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RuleViolation {
    /// Rule 1: the whole name exceeds 255 bytes.
    NameTooLong {
        /// Actual length in bytes.
        length: usize,
    },
    /// Rule 2: a label exceeds 63 bytes.
    LabelTooLong {
        /// The offending label length.
        length: usize,
    },
    /// Rule 3: a label starts with a character that is not a letter.
    BadLeadingCharacter {
        /// The offending character.
        character: char,
    },
    /// Rule 3: a label ends with a character that is not a letter/digit.
    BadTrailingCharacter {
        /// The offending character.
        character: char,
    },
    /// Rule 3: a label contains a disallowed interior character.
    DisallowedCharacter {
        /// The offending character.
        character: char,
    },
    /// A label is empty (consecutive dots).
    EmptyLabel,
}

/// The validity report for one domain name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidityReport {
    /// Every violation found (possibly several per name).
    pub violations: Vec<RuleViolation>,
}

impl ValidityReport {
    /// Does the name satisfy all three rules?
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Does any violation involve an underscore character?
    pub fn has_underscore(&self) -> bool {
        self.violations.iter().any(|v| {
            matches!(
                v,
                RuleViolation::DisallowedCharacter { character: '_' }
                    | RuleViolation::BadLeadingCharacter { character: '_' }
                    | RuleViolation::BadTrailingCharacter { character: '_' }
            )
        })
    }
}

/// Check a domain name against the three RFC 1035 rules.
pub fn validate_domain(domain: &DomainName) -> ValidityReport {
    let mut report = ValidityReport::default();
    if domain.len() > MAX_NAME_LEN {
        report.violations.push(RuleViolation::NameTooLong {
            length: domain.len(),
        });
    }
    for label in domain.labels() {
        if label.is_empty() {
            report.violations.push(RuleViolation::EmptyLabel);
            continue;
        }
        if label.len() > MAX_LABEL_LEN {
            report.violations.push(RuleViolation::LabelTooLong {
                length: label.len(),
            });
        }
        let chars: Vec<char> = label.chars().collect();
        let first = chars[0];
        let last = chars[chars.len() - 1];
        if !first.is_ascii_alphabetic() {
            report
                .violations
                .push(RuleViolation::BadLeadingCharacter { character: first });
        }
        if !last.is_ascii_alphanumeric() {
            report
                .violations
                .push(RuleViolation::BadTrailingCharacter { character: last });
        }
        for c in &chars {
            if !c.is_ascii_alphanumeric() && *c != '-' {
                report
                    .violations
                    .push(RuleViolation::DisallowedCharacter { character: *c });
            }
        }
    }
    report
}

/// Aggregated validity statistics over many names.
#[derive(Debug, Clone, Default)]
pub struct ValidityStats {
    /// Names examined.
    pub total: u64,
    /// Names violating at least one rule.
    pub invalid: u64,
    /// Invalid names containing an underscore.
    pub with_underscore: u64,
    /// Count of names per violation kind (a name counts once per kind).
    pub by_kind: HashMap<&'static str, u64>,
}

impl ValidityStats {
    /// A fresh accumulator.
    pub fn new() -> Self {
        ValidityStats::default()
    }

    /// Examine one name and fold its report into the statistics.
    pub fn observe(&mut self, domain: &DomainName) -> ValidityReport {
        let report = validate_domain(domain);
        self.total += 1;
        if !report.is_valid() {
            self.invalid += 1;
            if report.has_underscore() {
                self.with_underscore += 1;
            }
            let mut kinds: Vec<&'static str> = report.violations.iter().map(kind_label).collect();
            kinds.sort_unstable();
            kinds.dedup();
            for kind in kinds {
                *self.by_kind.entry(kind).or_insert(0) += 1;
            }
        }
        report
    }

    /// Share of invalid names containing an underscore (the paper: 87%).
    pub fn underscore_share(&self) -> f64 {
        if self.invalid == 0 {
            0.0
        } else {
            self.with_underscore as f64 / self.invalid as f64
        }
    }

    /// The most common violation kind, if any names were invalid.
    pub fn most_common_kind(&self) -> Option<&'static str> {
        self.by_kind
            .iter()
            .max_by_key(|(_, count)| **count)
            .map(|(kind, _)| *kind)
    }
}

fn kind_label(v: &RuleViolation) -> &'static str {
    match v {
        RuleViolation::NameTooLong { .. } => "name-too-long",
        RuleViolation::LabelTooLong { .. } => "label-too-long",
        RuleViolation::BadLeadingCharacter { .. } => "bad-leading-character",
        RuleViolation::BadTrailingCharacter { .. } => "bad-trailing-character",
        RuleViolation::DisallowedCharacter { .. } => "disallowed-character",
        RuleViolation::EmptyLabel => "empty-label",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_names_pass() {
        for name in [
            "example.com",
            "a-b-c.example",
            "xn--idn.example.org",
            "a.example.com",
            "xn--nxasmq6b.example",
        ] {
            let report = validate_domain(&DomainName::literal(name));
            assert!(report.is_valid(), "{name} should be valid: {report:?}");
        }
    }

    #[test]
    fn malformed_names_fail() {
        for name in [
            // The underscore is the most common violation in the paper (87%).
            "_dmarc.example.com".to_string(),
            "weird_host.example.com".to_string(),
            // A label starting with a digit violates rule 3 as the paper
            // states it.
            "1stlabel.example.com".to_string(),
            format!("{}.com", "a".repeat(64)),
            vec!["abcdefgh"; 40].join("."),
            "bad-.example.com".to_string(),
        ] {
            let report = validate_domain(&DomainName::literal(&name));
            assert!(!report.is_valid(), "{name} should be invalid");
        }
    }

    #[test]
    fn underscore_is_a_disallowed_interior_character() {
        let report = validate_domain(&DomainName::literal("_dmarc.example.com"));
        assert!(!report.is_valid());
        assert!(report.has_underscore());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, RuleViolation::DisallowedCharacter { character: '_' })));
    }

    #[test]
    fn length_rules_are_checked() {
        let long_label = format!("{}.example", "a".repeat(70));
        let report = validate_domain(&DomainName::literal(&long_label));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, RuleViolation::LabelTooLong { length: 70 })));

        let long_name = vec!["abcdefghij"; 30].join(".");
        let report = validate_domain(&DomainName::literal(&long_name));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, RuleViolation::NameTooLong { .. })));
    }

    #[test]
    fn leading_and_trailing_rules_are_checked() {
        let report = validate_domain(&DomainName::literal("1start.example"));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, RuleViolation::BadLeadingCharacter { character: '1' })));
        let report = validate_domain(&DomainName::literal("bad-.example"));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, RuleViolation::BadTrailingCharacter { character: '-' })));
        let report = validate_domain(&DomainName::literal("a..example"));
        assert!(report.violations.contains(&RuleViolation::EmptyLabel));
    }

    #[test]
    fn stats_aggregate_shares() {
        let mut stats = ValidityStats::new();
        // 87 underscore names, 13 other violations, 900 valid names.
        for i in 0..87 {
            stats.observe(&DomainName::literal(&format!("host_name{i}.example")));
        }
        for i in 0..13 {
            stats.observe(&DomainName::literal(&format!("{i}lead.example")));
        }
        for i in 0..900 {
            stats.observe(&DomainName::literal(&format!("ok{i}.example")));
        }
        assert_eq!(stats.total, 1000);
        assert_eq!(stats.invalid, 100);
        assert!((stats.underscore_share() - 0.87).abs() < 1e-9);
        assert_eq!(stats.most_common_kind(), Some("disallowed-character"));
    }

    #[test]
    fn empty_stats_have_zero_shares() {
        let stats = ValidityStats::new();
        assert_eq!(stats.underscore_share(), 0.0);
        assert_eq!(stats.most_common_kind(), None);
    }
}
