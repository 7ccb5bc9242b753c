//! The policy algebra: evaluation and org selection over [`PolicyNode`].
//!
//! A destination's verification policy and a source's endorsement policy
//! are both `Org`/`And`/`Or`/`OutOf` trees, so the endorser, the relay
//! driver and commit-time validation all evaluate them here.

use crate::messages::PolicyNode;

impl PolicyNode {
    /// A policy requiring one member of each listed organization.
    pub fn all_of<I, S>(orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PolicyNode::And(
            orgs.into_iter()
                .map(|o| PolicyNode::Org(o.into()))
                .collect(),
        )
    }

    /// A policy satisfied by a member of any one listed organization.
    pub fn any_of<I, S>(orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PolicyNode::Or(
            orgs.into_iter()
                .map(|o| PolicyNode::Org(o.into()))
                .collect(),
        )
    }

    /// All organization ids referenced anywhere in the tree.
    pub fn organizations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_orgs(&mut out);
        out
    }

    fn collect_orgs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PolicyNode::Org(o) => out.push(o),
            PolicyNode::And(cs) | PolicyNode::Or(cs) | PolicyNode::OutOf(_, cs) => {
                for c in cs {
                    c.collect_orgs(out);
                }
            }
        }
    }

    /// Evaluates the tree against the set of organizations that produced
    /// valid attestations (or endorsements).
    pub fn is_satisfied<S: AsRef<str>>(&self, endorsing_orgs: &[S]) -> bool {
        match self {
            PolicyNode::Org(org) => endorsing_orgs.iter().any(|o| o.as_ref() == org),
            PolicyNode::And(cs) => cs.iter().all(|c| c.is_satisfied(endorsing_orgs)),
            PolicyNode::Or(cs) => cs.iter().any(|c| c.is_satisfied(endorsing_orgs)),
            PolicyNode::OutOf(k, cs) => {
                cs.iter().filter(|c| c.is_satisfied(endorsing_orgs)).count() >= *k as usize
            }
        }
    }

    /// A minimal set of organizations that would satisfy the policy, used
    /// by gateways and relay drivers to choose which peers to contact.
    /// Returns `None` for unsatisfiable policies (e.g. `OutOf(3, [a, b])`).
    pub fn minimal_org_set(&self) -> Option<Vec<String>> {
        match self {
            PolicyNode::Org(org) => Some(vec![org.clone()]),
            PolicyNode::And(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    for org in p.minimal_org_set()? {
                        if !out.contains(&org) {
                            out.push(org);
                        }
                    }
                }
                Some(out)
            }
            PolicyNode::Or(ps) => ps
                .iter()
                .filter_map(PolicyNode::minimal_org_set)
                .min_by_key(Vec::len),
            PolicyNode::OutOf(k, ps) => {
                let mut candidates: Vec<Vec<String>> =
                    ps.iter().filter_map(PolicyNode::minimal_org_set).collect();
                if candidates.len() < *k as usize {
                    return None;
                }
                candidates.sort_by_key(Vec::len);
                let mut out = Vec::new();
                for set in candidates.into_iter().take(*k as usize) {
                    for org in set {
                        if !out.contains(&org) {
                            out.push(org);
                        }
                    }
                }
                Some(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::messages::{PolicyNode, VerificationPolicy};
    use proptest::prelude::*;

    fn org(name: &str) -> PolicyNode {
        PolicyNode::Org(name.into())
    }

    fn out_of(k: u32, orgs: &[&str]) -> PolicyNode {
        PolicyNode::OutOf(k, orgs.iter().map(|o| org(o)).collect())
    }

    #[test]
    fn all_of_requires_every_org() {
        let p = PolicyNode::all_of(["a", "b"]);
        assert_eq!(p, PolicyNode::And(vec![org("a"), org("b")]));
        assert!(p.is_satisfied(&["a", "b"]));
        assert!(!p.is_satisfied(&["a"]));
        assert!(!p.is_satisfied::<&str>(&[]));
    }

    #[test]
    fn any_of_requires_one() {
        let p = PolicyNode::any_of(["a", "b"]);
        assert_eq!(p, PolicyNode::Or(vec![org("a"), org("b")]));
        assert!(p.is_satisfied(&["b"]));
        assert!(!p.is_satisfied(&["c"]));
    }

    #[test]
    fn k_of_threshold() {
        let p = out_of(2, &["a", "b", "c"]);
        assert!(p.is_satisfied(&["a", "c"]));
        assert!(!p.is_satisfied(&["b"]));
        assert!(p.is_satisfied(&["a", "b", "c"]));
    }

    #[test]
    fn nested_policy() {
        // AND( org-x, OR(a, b) )
        let p = PolicyNode::And(vec![org("x"), PolicyNode::any_of(["a", "b"])]);
        assert!(p.is_satisfied(&["x", "b"]));
        assert!(!p.is_satisfied(&["x"]));
        assert!(!p.is_satisfied(&["a", "b"]));
    }

    #[test]
    fn confidential_builder() {
        let p =
            VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality();
        assert!(p.confidential);
        assert_eq!(
            p.expression,
            PolicyNode::all_of(["seller-org", "carrier-org"])
        );
    }

    #[test]
    fn minimal_set_org() {
        assert_eq!(org("a").minimal_org_set().unwrap(), vec!["a"]);
    }

    #[test]
    fn minimal_set_and() {
        // Policy order is kept: the endorser asks the orgs in this order.
        let p = PolicyNode::all_of(["b", "a"]);
        assert_eq!(p.minimal_org_set().unwrap(), vec!["b", "a"]);
    }

    #[test]
    fn minimal_set_and_dedups() {
        let p = PolicyNode::And(vec![org("a"), org("b"), org("a")]);
        assert_eq!(p.minimal_org_set().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn minimal_set_or_prefers_smallest() {
        let p = PolicyNode::Or(vec![PolicyNode::all_of(["a", "b"]), org("c")]);
        assert_eq!(p.minimal_org_set().unwrap(), vec!["c"]);
    }

    #[test]
    fn minimal_set_or_picks_smallest() {
        // An unsatisfiable branch is never the smallest choice.
        let p = PolicyNode::Or(vec![out_of(3, &["a"]), PolicyNode::all_of(["b", "c"])]);
        assert_eq!(p.minimal_org_set().unwrap(), vec!["b", "c"]);
    }

    #[test]
    fn minimal_set_outof() {
        let p = out_of(2, &["a", "b", "c"]);
        let set = p.minimal_org_set().unwrap();
        assert_eq!(set.len(), 2);
        assert!(p.is_satisfied(&set));
    }

    #[test]
    fn minimal_set_unsatisfiable() {
        // An unsatisfiable child makes its `And` unsatisfiable.
        let p = PolicyNode::And(vec![org("a"), out_of(2, &["b"])]);
        assert!(p.minimal_org_set().is_none());
    }

    #[test]
    fn unsatisfiable_outof() {
        assert!(out_of(5, &["a"]).minimal_org_set().is_none());
    }

    #[test]
    fn minimal_set_satisfies_policy() {
        let p = PolicyNode::And(vec![org("x"), out_of(1, &["y", "z"])]);
        let set = p.minimal_org_set().unwrap();
        assert!(p.is_satisfied(&set));
        assert!(set.contains(&"x".to_string()));
    }

    proptest! {
        #[test]
        fn prop_minimal_set_satisfies(orgs in proptest::collection::vec("[a-e]", 1..5), k in 1u32..4) {
            let k = k.min(orgs.len() as u32);
            let p = PolicyNode::OutOf(k, orgs.into_iter().map(PolicyNode::Org).collect());
            if let Some(set) = p.minimal_org_set() {
                prop_assert!(p.is_satisfied(&set));
            }
        }
    }
}
