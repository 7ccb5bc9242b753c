//! Thread-safe cache of verified certificate chains.
//!
//! Proof verification authenticates every attestation's signer
//! certificate against the source network's recorded root (paper §4.3).
//! The same few endorser certificates recur across proofs, so the full
//! Schnorr chain validation — a fixed-base walk and a 256-bit
//! exponentiation per check — is wasted work after the first success. A [`CertChainCache`] keyed by
//! the digest of (certificate, signature, root) remembers successful
//! validations until the next configuration epoch.
//!
//! Only *successful* validations are cached: a failure is cheap to
//! reproduce and callers want the real error, not a cached stand-in.
//! The cache key covers the certificate's canonical bytes, its CA
//! signature, and the root's canonical bytes, so a forged signature over
//! the same certificate body can never hit a legitimate entry.
//!
//! Every caller that authenticates a signer goes on to verify a signature
//! with the certified key, so a verified entry holds the decoded
//! [`VerifyingKey`] ([`CertChainCache::verified_key`]) and a hit answers
//! both questions with one lookup. Decoding alone would not be worth a
//! cache — the subgroup check is a Legendre symbol, tens of microseconds —
//! which is why callers without a root to key an entry by just call
//! [`Certificate::verifying_key`].

use crate::cert::Certificate;
use crate::error::CryptoError;
use crate::group::FixedBaseTable;
use crate::schnorr::VerifyingKey;
use crate::sha256::sha256;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Maximum number of per-verifying-key fixed-base tables kept alive. A
/// table covers the 256-bit Schnorr challenge — 64 windows × 16 entries ×
/// the element size: ≈ 98 KB at modp768, ≈ 262 KB at modp2048 — so a full
/// cache is under 1 MB and 2.1 MB; it is bounded to the handful of endorser
/// keys that recur across proofs, older entries evicted in insertion order.
pub const KEY_TABLE_CAP: usize = 8;

/// Shared cache of certificate chains that have already validated.
///
/// Cheap to share via `Arc`; hit/miss counters make the cache's effect
/// observable through monitoring endpoints (e.g. `RelayStats`).
///
/// Alongside the verified-chain set it keeps a small cache of fixed-base
/// window tables for recurring endorser verifying keys ([`Self::key_table`]):
/// both stores answer "have I seen this signer before", so they share the
/// same epoch invalidation — a configuration change drops chains *and*
/// tables together.
#[derive(Debug, Default)]
pub struct CertChainCache {
    /// Verified chain → what decoding the certified key gave. The decode
    /// outcome is a pure function of the certificate, so a chain whose key
    /// does not decode is still a (cached) chain success.
    verified: Mutex<HashMap<[u8; 32], Result<VerifyingKey, CryptoError>>>,
    /// Insertion-ordered `(key-element digest, table)` pairs, capped at
    /// [`KEY_TABLE_CAP`].
    key_tables: Mutex<Vec<([u8; 32], Arc<FixedBaseTable>)>>,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    table_hits: AtomicU64,
    table_misses: AtomicU64,
}

impl CertChainCache {
    /// Creates an empty cache at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(cert: &Certificate, root: &Certificate) -> [u8; 32] {
        let mut material = cert.canonical_bytes();
        match cert.signature() {
            Some(sig) => {
                material.push(1);
                material.extend_from_slice(&sig.to_bytes());
            }
            None => material.push(0),
        }
        material.extend_from_slice(&root.canonical_bytes());
        sha256(&material)
    }

    /// Validates `cert` against `root`, consulting the cache first.
    ///
    /// On a miss the full [`Certificate::verify`] chain validation runs
    /// and, on success, the chain is remembered for the current epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::CertificateInvalid`] from the
    /// underlying validation; failures are never cached.
    pub fn verify_chain(&self, cert: &Certificate, root: &Certificate) -> Result<(), CryptoError> {
        self.verified_key(cert, root).map(drop)
    }

    /// [`Self::verify_chain`], also handing back the certificate's decoded
    /// verifying key: on a hit neither the chain validation nor the key
    /// decoding runs again.
    ///
    /// The inner result is [`Certificate::verifying_key`]'s — a chain can
    /// validate over key bytes that do not decode, and callers report the
    /// two failures differently.
    ///
    /// # Errors
    ///
    /// The outer error is the chain validation's, as for
    /// [`Self::verify_chain`]; failures are never cached.
    pub fn verified_key(
        &self,
        cert: &Certificate,
        root: &Certificate,
    ) -> Result<Result<VerifyingKey, CryptoError>, CryptoError> {
        let key = Self::key(cert, root);
        // Capture the epoch before validating. Chain validation runs
        // outside any lock (it is a signature verification), so a
        // configuration change can land mid-validation: without the
        // epoch re-check below, a chain validated under the *old* root
        // set could be inserted *after* `bump_epoch` cleared the table,
        // poisoning the new epoch with a stale trust decision. Acquire
        // pairs with the AcqRel bump so an unchanged epoch also means we
        // observed the matching table state.
        let epoch_at_start = self.epoch.load(Ordering::Acquire);
        {
            let verified = self.verified.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(decoded) = verified.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(decoded.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        cert.verify(root)?;
        let decoded = cert.verifying_key();
        let mut verified = self.verified.lock().unwrap_or_else(PoisonError::into_inner);
        if self.epoch.load(Ordering::Acquire) == epoch_at_start {
            verified.insert(key, decoded.clone());
        }
        Ok(decoded)
    }

    /// Returns the cached fixed-base table for `vk`'s element, building
    /// and caching it on a miss (outside the lock — a build is about two
    /// plain verifications and must not stall concurrent lookups). A full
    /// cache evicts its oldest entry.
    ///
    /// The returned `Arc` stays valid across an epoch bump or eviction;
    /// only the cache's reference is dropped.
    pub fn key_table(&self, vk: &VerifyingKey) -> Arc<FixedBaseTable> {
        self.table(vk, true)
            .unwrap_or_else(|| Arc::new(vk.precompute_table()))
    }

    /// [`Self::key_table`] without eviction: a cached table, or a freshly
    /// built one while the cache has room, else `None` (the caller verifies
    /// table-less). For callers whose signer set can exceed
    /// [`KEY_TABLE_CAP`] — a commit path cycling through more endorsers
    /// than that would otherwise evict and rebuild a table (about two plain
    /// verifications' worth of work) on every lookup.
    pub fn key_table_if_room(&self, vk: &VerifyingKey) -> Option<Arc<FixedBaseTable>> {
        self.table(vk, false)
    }

    /// `None` only when the cache is full and `evict` is false.
    fn table(&self, vk: &VerifyingKey, evict: bool) -> Option<Arc<FixedBaseTable>> {
        // Cache id over the *public* key element; nothing secret compares
        // here.
        let table_id = sha256(&vk.to_bytes());
        {
            let tables = self
                .key_tables
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some((_, t)) = tables.iter().find(|(id, _)| *id == table_id) {
                self.table_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(t));
            }
            if !evict && tables.len() >= KEY_TABLE_CAP {
                return None;
            }
        }
        self.table_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(vk.precompute_table());
        let mut tables = self
            .key_tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, t)) = tables.iter().find(|(id, _)| *id == table_id) {
            // A racing builder won; use its table and drop ours.
            return Some(Arc::clone(t));
        }
        if tables.len() >= KEY_TABLE_CAP {
            if !evict {
                // Racing builders filled the cache: use ours, uncached.
                return Some(built);
            }
            tables.remove(0);
        }
        tables.push((table_id, Arc::clone(&built)));
        Some(built)
    }

    /// Number of key-table lookups answered from the cache.
    pub fn table_hits(&self) -> u64 {
        self.table_hits.load(Ordering::Relaxed)
    }

    /// Number of key-table lookups that had to build a table.
    pub fn table_misses(&self) -> u64 {
        self.table_misses.load(Ordering::Relaxed)
    }

    /// Number of per-key tables currently cached.
    pub fn table_len(&self) -> usize {
        self.key_tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Invalidates every cached chain and per-key table, and advances the
    /// epoch. Called when a foreign network configuration is
    /// (re)recorded: a new root set must not honor chains validated — or
    /// reuse signer tables precomputed — under the old one.
    pub fn bump_epoch(&self) -> u64 {
        // Advance the epoch *before* clearing: any validation that began
        // under the old epoch then fails its insert-time re-check in
        // `verify_chain`, so a stale chain can never land after the
        // clear. The reverse order (clear, then bump) leaves a window
        // where old-root validations repopulate the fresh table. An
        // insert under the *new* epoch that slips in before the clear is
        // wiped along with the old entries — a lost cache hit, not a
        // trust violation.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.verified
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.key_tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        epoch
    }

    /// The current configuration epoch (starts at 0).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (full validations) since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of chains currently cached.
    pub fn len(&self) -> usize {
        self.verified
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no chains are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups answered from the cache (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertRole, CertificateAuthority};
    use crate::group::Group;
    use crate::schnorr::SigningKey;
    use std::sync::Arc;

    fn ca(seed: &[u8]) -> CertificateAuthority {
        CertificateAuthority::new("stl", "seller-org", Group::test_group(), seed)
    }

    fn issue(authority: &mut CertificateAuthority, name: &str) -> Certificate {
        let key = SigningKey::from_seed(Group::test_group(), name.as_bytes());
        authority.issue(name, CertRole::Peer, &key.verifying_key(), None)
    }

    #[test]
    fn second_validation_hits() {
        let mut authority = ca(b"a");
        let root = authority.root_certificate().clone();
        let cert = issue(&mut authority, "peer0");
        let cache = CertChainCache::new();
        cache.verify_chain(&cert, &root).unwrap();
        cache.verify_chain(&cert, &root).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failures_not_cached() {
        let mut good = ca(b"a");
        let other = ca(b"b");
        let root = good.root_certificate().clone();
        let wrong_root = other.root_certificate().clone();
        let cert = issue(&mut good, "peer0");
        let cache = CertChainCache::new();
        assert!(cache.verify_chain(&cert, &wrong_root).is_err());
        assert!(cache.verify_chain(&cert, &wrong_root).is_err());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
        // The genuine chain still validates and caches normally.
        cache.verify_chain(&cert, &root).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn forged_signature_misses_despite_cached_body() {
        let mut authority = ca(b"a");
        let root = authority.root_certificate().clone();
        let cert = issue(&mut authority, "peer0");
        let cache = CertChainCache::new();
        cache.verify_chain(&cert, &root).unwrap();
        // Same body, different (stripped) signature: distinct key, and
        // the full validation rejects it.
        let forged = Certificate::assemble(
            cert.subject().clone(),
            cert.serial(),
            cert.group_name().to_string(),
            cert.sign_key_bytes().to_vec(),
            cert.enc_key_bytes().map(<[u8]>::to_vec),
            cert.issuer().clone(),
            None,
        );
        assert!(cache.verify_chain(&forged, &root).is_err());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn epoch_bump_clears() {
        let mut authority = ca(b"a");
        let root = authority.root_certificate().clone();
        let cert = issue(&mut authority, "peer0");
        let cache = CertChainCache::new();
        cache.verify_chain(&cert, &root).unwrap();
        assert_eq!(cache.bump_epoch(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 1);
        // Next lookup re-validates.
        cache.verify_chain(&cert, &root).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn concurrent_lookups_consistent() {
        let mut authority = ca(b"a");
        let root = Arc::new(authority.root_certificate().clone());
        let certs: Vec<_> = (0..4)
            .map(|i| Arc::new(issue(&mut authority, &format!("peer{i}"))))
            .collect();
        let cache = Arc::new(CertChainCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let root = Arc::clone(&root);
                let certs = certs.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        for cert in &certs {
                            cache.verify_chain(cert, &root).unwrap();
                        }
                    }
                });
            }
        });
        // 4 threads x 8 rounds x 4 certs = 128 lookups, >= 4 misses.
        assert_eq!(cache.hits() + cache.misses(), 128);
        assert!(cache.misses() >= 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn key_table_cached_and_reused() {
        let sk = SigningKey::from_seed(Group::test_group(), b"table-key");
        let vk = sk.verifying_key();
        let cache = CertChainCache::new();
        let a = cache.key_table(&vk);
        let b = cache.key_table(&vk);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.table_hits(), cache.table_misses()), (1, 1));
        assert_eq!(cache.table_len(), 1);
        // The cached table actually verifies signatures for this key.
        let sig = sk.sign(b"tabled");
        assert!(vk.verify_with_table(b"tabled", &sig, &a).is_ok());
    }

    #[test]
    fn key_table_epoch_bump_clears() {
        let vk = SigningKey::from_seed(Group::test_group(), b"epoch-key").verifying_key();
        let cache = CertChainCache::new();
        let before = cache.key_table(&vk);
        cache.bump_epoch();
        assert_eq!(cache.table_len(), 0);
        let after = cache.key_table(&vk);
        // Rebuilt, not resurrected — and the old Arc stays usable.
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(cache.table_misses(), 2);
    }

    #[test]
    fn key_table_evicts_in_insertion_order() {
        let cache = CertChainCache::new();
        let keys: Vec<_> = (0..KEY_TABLE_CAP + 1)
            .map(|i| {
                SigningKey::from_seed(Group::test_group(), format!("evict-{i}").as_bytes())
                    .verifying_key()
            })
            .collect();
        for vk in &keys {
            cache.key_table(vk);
        }
        assert_eq!(cache.table_len(), KEY_TABLE_CAP);
        // The first-inserted key was evicted: fetching it misses again.
        let misses_before = cache.table_misses();
        cache.key_table(&keys[0]);
        assert_eq!(cache.table_misses(), misses_before + 1);
        // The most recent key is still cached.
        let hits_before = cache.table_hits();
        cache.key_table(&keys[KEY_TABLE_CAP]);
        assert_eq!(cache.table_hits(), hits_before + 1);
    }

    #[test]
    fn verified_key_hit_returns_the_key_the_miss_decoded() {
        let mut authority = ca(b"a");
        let root = authority.root_certificate().clone();
        let cert = issue(&mut authority, "peer0");
        let cache = CertChainCache::new();
        let cold = cache.verified_key(&cert, &root).unwrap().unwrap();
        let warm = cache.verified_key(&cert, &root).unwrap().unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cold, cert.verifying_key().unwrap());
        assert_eq!(warm, cold);
        // One entry serves both lookups.
        cache.verify_chain(&cert, &root).unwrap();
        assert_eq!((cache.hits(), cache.len()), (2, 1));
    }

    #[test]
    fn chain_over_undecodable_key_is_a_chain_success() {
        // The CA signed key bytes that are no element of the certificate's
        // group: the chain verdict (outer) and the key (inner) differ, and
        // the pair is cached like any other chain success.
        let mut authority = ca(b"a");
        let root = authority.root_certificate().clone();
        let wide = SigningKey::from_seed(Group::modp_1024(), b"wide").verifying_key();
        let cert = authority.issue("peer0", CertRole::Peer, &wide, None);
        let cache = CertChainCache::new();
        for _ in 0..2 {
            assert!(cache.verify_chain(&cert, &root).is_ok());
            assert!(cache.verified_key(&cert, &root).unwrap().is_err());
        }
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
    }

    #[test]
    fn key_table_if_room_never_evicts() {
        let cache = CertChainCache::new();
        let keys: Vec<_> = (0..KEY_TABLE_CAP + 4)
            .map(|i| {
                SigningKey::from_seed(Group::test_group(), format!("room-{i}").as_bytes())
                    .verifying_key()
            })
            .collect();
        for _round in 0..3 {
            for (i, vk) in keys.iter().enumerate() {
                assert_eq!(cache.key_table_if_room(vk).is_some(), i < KEY_TABLE_CAP);
            }
        }
        // One build per admitted key, ever; the rest go table-less.
        assert_eq!(cache.table_misses(), KEY_TABLE_CAP as u64);
        assert_eq!(cache.table_len(), KEY_TABLE_CAP);
    }
}
