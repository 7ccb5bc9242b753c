//! Endorsement policies: which organizations must endorse a transaction.
//!
//! Fabric expresses these as boolean expressions over MSP principals. An
//! endorsement policy and the interop verification policy play distinct
//! roles — the first is local consensus on the source network, the second
//! is what a destination demands of a proof — but they are one algebra
//! (`AND`/`OR`/`OutOf` over org ids), so both are a
//! [`tdt_wire::messages::PolicyNode`]. This module adds only Fabric's text
//! form of a policy.

pub use tdt_wire::messages::PolicyNode as EndorsementPolicy;

/// Renders `policy` in Fabric's text form, e.g.
/// `AND('seller.member', 'carrier.member')`. Genesis blocks record every
/// deployed policy in this form.
pub fn fabric_text(policy: &EndorsementPolicy) -> String {
    let list = |ps: &[EndorsementPolicy]| ps.iter().map(fabric_text).collect::<Vec<_>>();
    match policy {
        EndorsementPolicy::Org(o) => format!("'{o}.member'"),
        EndorsementPolicy::And(ps) => format!("AND({})", list(ps).join(", ")),
        EndorsementPolicy::Or(ps) => format!("OR({})", list(ps).join(", ")),
        EndorsementPolicy::OutOf(k, ps) => {
            let mut args = vec![k.to_string()];
            args.extend(list(ps));
            format!("OutOf({})", args.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let p = EndorsementPolicy::all_of(["seller", "carrier"]);
        assert_eq!(fabric_text(&p), "AND('seller.member', 'carrier.member')");
        let k = EndorsementPolicy::OutOf(
            2,
            vec![
                EndorsementPolicy::any_of(["a"]),
                EndorsementPolicy::Org("b".into()),
            ],
        );
        assert_eq!(fabric_text(&k), "OutOf(2, OR('a.member'), 'b.member')");
        assert_eq!(fabric_text(&EndorsementPolicy::And(Vec::new())), "AND()");
    }
}
