//! Binary Merkle roots.
//!
//! A block's data hash is the Merkle root over its transactions. Leaves and
//! interior nodes are domain-separated to prevent second-preimage splicing
//! attacks.

use tdt_crypto::sha256::sha256_concat;

/// A 32-byte Merkle node hash.
pub type Hash = [u8; 32];

fn leaf_hash(data: &[u8]) -> Hash {
    sha256_concat(&[b"\x00leaf", data])
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    sha256_concat(&[b"\x01node", left, right])
}

/// Computes the Merkle root of `leaves`.
///
/// The empty tree has the all-zero root. Odd nodes are promoted (not
/// duplicated), so the tree is resistant to CVE-2012-2459-style mutation.
pub fn merkle_root<T: AsRef<[u8]>>(leaves: &[T]) -> Hash {
    if leaves.is_empty() {
        return [0u8; 32];
    }
    let mut level: Vec<Hash> = leaves.iter().map(|l| leaf_hash(l.as_ref())).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [l, r] => next.push(node_hash(l, r)),
                // chunks(2) yields 1- or 2-element slices only; carry an
                // odd tail up unchanged.
                _ => next.extend(pair.first().copied()),
            }
        }
        level = next;
    }
    level.first().copied().unwrap_or([0u8; 32])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_root_is_zero() {
        let leaves: Vec<Vec<u8>> = Vec::new();
        assert_eq!(merkle_root(&leaves), [0u8; 32]);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let root = merkle_root(&[b"tx0"]);
        assert_eq!(root, leaf_hash(b"tx0"));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let a = merkle_root(&[b"t0".as_slice(), b"t1", b"t2"]);
        let b = merkle_root(&[b"t0".as_slice(), b"tX", b"t2"]);
        assert_ne!(a, b);
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf containing what looks like two concatenated hashes must not
        // collide with the interior node of those hashes.
        let h1 = leaf_hash(b"x");
        let h2 = leaf_hash(b"y");
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&h1);
        spliced.extend_from_slice(&h2);
        assert_ne!(leaf_hash(&spliced), node_hash(&h1, &h2));
    }
}
