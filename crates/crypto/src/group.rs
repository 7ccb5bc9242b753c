//! Named multiplicative groups modulo safe primes.
//!
//! A [`Group`] is the quadratic-residue subgroup of `Z_p^*` for a safe prime
//! `p = 2q + 1`. The subgroup has prime order `q = (p-1)/2` and is generated
//! by `g = 4` (the square of 2, guaranteed to be a quadratic residue). All
//! Schnorr and ElGamal operations in this crate run in such a group.
//!
//! Three well-known safe primes are bundled:
//!
//! * [`Group::modp_768`] — Oakley Group 1 (RFC 2409), fast, for tests.
//! * [`Group::modp_1024`] — Oakley Group 2 (RFC 2409), the default.
//! * [`Group::modp_2048`] — RFC 3526 Group 14, for production-equivalent runs.
//!
//! The unit tests guard against transcription errors in the constants: `p`
//! and `q` pass Miller–Rabin, and `g^q == 1 mod p`.

use crate::bigint::{random_below, BigUint, MontElem, MontgomeryCtx};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Oakley Group 1 prime (768-bit safe prime, RFC 2409 §6.1).
const MODP_768_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";

/// Oakley Group 2 prime (1024-bit safe prime, RFC 2409 §6.2).
const MODP_1024_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
     EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 14 prime (2048-bit safe prime).
const MODP_2048_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
     EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
     98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
     9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
     E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
     3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// Bit length of every exponent this crate is free to choose — ElGamal's `k`
/// and `x`, the Schnorr challenge `e`: twice the 128-bit security level, the
/// short-exponent rule for a safe-prime group whose foreign elements all pass
/// [`Group::is_element`] (RFC 7919 §5.2). DESIGN.md "Exponent length" has the
/// argument and the exponents that must stay full-width.
const SHORT_EXPONENT_BITS: usize = 256;

/// A multiplicative group of prime order `q` inside `Z_p^*`.
///
/// Cheap to clone (internally reference-counted), and the three builtin
/// groups are interned: every handle over one prime shares its two
/// Montgomery contexts (mod `p`, mod `q`) and one generator table.
#[derive(Clone)]
pub struct Group {
    inner: Arc<GroupInner>,
}

struct GroupInner {
    name: &'static str,
    p_mont: MontgomeryCtx,
    q_mont: MontgomeryCtx,
    generator: BigUint,
    element_len: usize,
    scalar_len: usize,
    /// Fixed-base table for the generator, built on first use.
    gen_table: OnceLock<Arc<FixedBaseTable>>,
}

impl fmt::Debug for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Group")
            .field("name", &self.inner.name)
            .field("bits", &self.p().bits())
            .finish()
    }
}

impl PartialEq for Group {
    fn eq(&self, other: &Self) -> bool {
        self.inner.name == other.inner.name && self.p() == other.p()
    }
}

impl Eq for Group {}

impl Group {
    fn from_prime(name: &'static str, p_hex: &str) -> Self {
        let p = BigUint::from_hex(p_hex).expect("builtin prime constant is valid hex");
        let q = p.sub(&BigUint::one()).shr(1);
        let element_len = p.bits().div_ceil(8);
        let scalar_len = q.bits().div_ceil(8);
        Group {
            inner: Arc::new(GroupInner {
                name,
                p_mont: MontgomeryCtx::new(p).expect("builtin prime is odd and > 1"),
                q_mont: MontgomeryCtx::new(q).expect("builtin subgroup order is odd and > 1"),
                generator: BigUint::from_u64(4),
                element_len,
                scalar_len,
                gen_table: OnceLock::new(),
            }),
        }
    }

    /// Oakley Group 1 (768-bit). Fast; suitable for tests and benches.
    pub fn modp_768() -> Self {
        static GROUP: OnceLock<Group> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_prime("modp768", MODP_768_HEX))
            .clone()
    }

    /// Oakley Group 2 (1024-bit). The default group.
    pub fn modp_1024() -> Self {
        static GROUP: OnceLock<Group> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_prime("modp1024", MODP_1024_HEX))
            .clone()
    }

    /// RFC 3526 Group 14 (2048-bit). Production-equivalent parameter size.
    pub fn modp_2048() -> Self {
        static GROUP: OnceLock<Group> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_prime("modp2048", MODP_2048_HEX))
            .clone()
    }

    /// The group used throughout the test-suites: the 768-bit Oakley group.
    pub fn test_group() -> Self {
        Self::modp_768()
    }

    /// Looks a group up by its short name (`modp768`, `modp1024`, `modp2048`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "modp768" => Some(Self::modp_768()),
            "modp1024" => Some(Self::modp_1024()),
            "modp2048" => Some(Self::modp_2048()),
            _ => None,
        }
    }

    /// Short identifier of the group.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// The safe prime `p`.
    pub fn p(&self) -> &BigUint {
        self.inner.p_mont.modulus()
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn q(&self) -> &BigUint {
        self.inner.q_mont.modulus()
    }

    /// The subgroup generator (`4`).
    pub fn generator(&self) -> &BigUint {
        &self.inner.generator
    }

    /// Byte length of a serialized group element.
    pub fn element_len(&self) -> usize {
        self.inner.element_len
    }

    /// Byte length of a canonically-encoded scalar mod `q`.
    pub fn scalar_len(&self) -> usize {
        self.inner.scalar_len
    }

    /// `base^exp mod p` (Montgomery-form exponentiation).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.inner.p_mont.modexp(base, exp)
    }

    /// Bit length of a short exponent in this group: `SHORT_EXPONENT_BITS`,
    /// capped so that a short exponent is always a scalar below `q`.
    pub fn short_exponent_bits(&self) -> usize {
        SHORT_EXPONENT_BITS.min(self.q().bits() - 1)
    }

    /// Draws a secret exponent uniformly from `[1, 2^bits)`, `bits` being
    /// [`Self::short_exponent_bits`]. For ElGamal only: Schnorr nonces drawn
    /// here would hand out the signing key (see `SigningKey::sign`).
    pub fn short_exponent<R: rand::RngCore>(&self, rng: &mut R) -> BigUint {
        random_below(&BigUint::one().shl(self.short_exponent_bits()), rng)
    }

    /// `g^exp mod p` via the cached fixed-base generator table: one
    /// Montgomery multiplication per 4-bit window, no squarings at all. The
    /// windows walked are those of one of two public lengths, never of the
    /// exponent's own: 64 for a short exponent (ElGamal `k`, `x`), all of
    /// them for anything longer — a uniform `[1, q)` nonce is short with
    /// probability 2^-511, so the choice says nothing about it.
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        let ctx = &self.inner.p_mont;
        let short = self.short_exponent_bits();
        let bits = if exp.bits() <= short {
            short
        } else {
            self.q().bits()
        };
        match self.generator_table().pow_mont(ctx, exp, bits) {
            Some(acc) => ctx.from_mont(&acc),
            None => ctx.modexp(&self.inner.generator, exp),
        }
    }

    /// The fixed-base table for this group's generator, built on first use
    /// and shared by every handle over the same (interned) group. Full-width:
    /// the Schnorr response `s` and nonce `k` range over all of `[1, q)`.
    pub fn generator_table(&self) -> Arc<FixedBaseTable> {
        self.inner
            .gen_table
            .get_or_init(|| Arc::new(self.precompute_table(&self.inner.generator, self.q().bits())))
            .clone()
    }

    /// Builds a fixed-base window table for `base`, sized for exponents of up
    /// to `exp_bits` bits. Cost ≈ 15 Montgomery multiplications per 4-bit
    /// window, amortized over every later [`Self::mul_exp_g`] call that uses
    /// it.
    pub fn precompute_table(&self, base: &BigUint, exp_bits: usize) -> FixedBaseTable {
        FixedBaseTable::build(&self.inner.p_mont, base, exp_bits)
    }

    /// The Schnorr verify equation's heavy step: `g^s · y^e mod p`.
    ///
    /// The generator contribution always uses the shared fixed-base table;
    /// the `y` contribution uses `y_table` when the caller has one cached
    /// (per-verifying-key tables live in `certcache`), else a plain
    /// Montgomery exponentiation — the single `mont_mul` joining the halves
    /// replaces a full extra exponentiation.
    pub fn mul_exp_g(
        &self,
        s: &BigUint,
        y: &BigUint,
        e: &BigUint,
        y_table: Option<&FixedBaseTable>,
    ) -> BigUint {
        let ctx = &self.inner.p_mont;
        let g_part = match self.generator_table().pow_mont(ctx, s, self.q().bits()) {
            Some(v) => v,
            None => ctx.modexp_mont(&ctx.to_mont(&self.inner.generator), s),
        };
        let y_part = match y_table.and_then(|t| t.pow_mont(ctx, e, t.capacity_bits())) {
            Some(v) => v,
            None => ctx.modexp_mont(&ctx.to_mont(y), e),
        };
        ctx.from_mont(&ctx.mont_mul(&g_part, &y_part))
    }

    /// `(a * b) mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.inner.p_mont.modmul(a, b)
    }

    /// Scalar arithmetic mod `q`: `(a + b) mod q`.
    pub fn scalar_add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mod_add(b, self.q())
    }

    /// Scalar arithmetic mod `q`: `(a * b) mod q`.
    pub fn scalar_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.inner.q_mont.modmul(a, b)
    }

    /// Checks that `x` is a valid element of the order-`q` subgroup:
    /// `0 < x < p` and `x^q ≡ 1 (mod p)`. Because `p = 2q + 1` is prime,
    /// `x^q = x^((p-1)/2)` *is* the Legendre symbol `(x|p)` (Euler's
    /// criterion), so the exponentiation is never run: the symbol comes out
    /// of [`BigUint::jacobi`] for the price of a few multiplications.
    ///
    /// Variable time in `x`, which is public at every call site (a key from
    /// a certificate, the `c1` header of a ciphertext).
    pub fn is_element(&self, x: &BigUint) -> bool {
        !x.is_zero() && x < self.p() && x.jacobi(self.p()) == 1
    }

    /// The definition [`Self::is_element`] must agree with, bit for bit:
    /// the subgroup exponentiation it replaced, kept as the tests' oracle.
    #[cfg(test)]
    fn is_element_by_exponentiation(&self, x: &BigUint) -> bool {
        if x.is_zero() || x >= self.p() {
            return false;
        }
        self.pow(x, self.q()) == BigUint::one()
    }

    /// Serializes a group element as fixed-width big-endian bytes.
    pub fn element_to_bytes(&self, x: &BigUint) -> Vec<u8> {
        x.to_bytes_be_padded(self.inner.element_len)
    }
}

/// Fixed-base windowed precomputation: `table[w][d] = base^(d·16^w)` in
/// Montgomery form for every 4-bit window `w` of the exponent range and
/// digit `d ∈ 0..16`.
///
/// A fixed-base exponentiation then costs one Montgomery multiplication per
/// window — no squarings — versus four squarings plus a multiplication per
/// window for a plain windowed modexp. Entry `d = 0` stores the Montgomery
/// `1`, so the multiply loop does uniform work for every digit.
///
/// A table is bound to the [`MontgomeryCtx`] (i.e. the prime) it was built
/// with; `pow_mont` is only called through the owning [`Group`].
#[derive(Debug)]
pub struct FixedBaseTable {
    /// Flat `windows × 16` entry array, `table[w * 16 + d]`.
    table: Vec<MontElem>,
    windows: usize,
}

impl FixedBaseTable {
    /// Precomputes the table for exponents of up to `exp_bits` bits.
    pub fn build(ctx: &MontgomeryCtx, base: &BigUint, exp_bits: usize) -> Self {
        let windows = exp_bits.max(1).div_ceil(4);
        let mut table = Vec::with_capacity(windows * 16);
        let mut scratch = ctx.scratch();
        // base_w = base^(16^w); after pushing d = 1..15 the accumulator has
        // been multiplied 15 times and sits at base_w^16 = base^(16^(w+1)),
        // which seeds the next window for free.
        let mut base_w = ctx.to_mont(base);
        for _w in 0..windows {
            table.push(ctx.one());
            let mut acc = base_w.clone();
            for _d in 1..=15 {
                table.push(acc.clone());
                ctx.mont_mul_assign(&mut acc, &base_w, &mut scratch);
            }
            base_w = acc;
        }
        FixedBaseTable { table, windows }
    }

    /// Largest exponent bit-length this table covers.
    pub fn capacity_bits(&self) -> usize {
        self.windows * 4
    }

    /// Approximate heap footprint, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        self.table.len() * self.table.first().map_or(0, |e| e.limb_count() * 8)
    }

    /// `base^exp` in Montgomery form over the `bits.div_ceil(4)` low
    /// windows, or `None` when `exp` is longer than `bits` or `bits`
    /// than the table (callers fall back to a plain modexp). `bits` must
    /// be a public length: every window walked multiplies whatever its digit,
    /// so the work depends on it alone — the Schnorr nonce passes through
    /// here, and stopping at the exponent's own top window would time it.
    pub fn pow_mont(&self, ctx: &MontgomeryCtx, exp: &BigUint, bits: usize) -> Option<MontElem> {
        if exp.bits() > bits || bits > self.capacity_bits() {
            return None;
        }
        let mut acc = ctx.one();
        let mut scratch = ctx.scratch();
        for w in 0..bits.div_ceil(4) {
            let mut digit = 0usize;
            for b in 0..4 {
                if exp.bit(w * 4 + b) {
                    digit |= 1 << b;
                }
            }
            // lint:allow(ct: "the window count is a public length and every window multiplies; the digit-indexed lookup's cache footprint is the one accepted for modexp_mont — see DESIGN.md crypto hot path")
            ctx.mont_mul_assign(&mut acc, &self.table[w * 16 + digit], &mut scratch);
        }
        Some(acc)
    }
}

/// Encodings a hostile peer can put where a group element belongs (a key in
/// a certificate, the `c1` of a ciphertext), each with whether it names an
/// element of the subgroup. Shared by the decoders' tests.
#[cfg(test)]
pub(crate) fn hostile_element_encodings(group: &Group) -> Vec<(&'static str, Vec<u8>, bool)> {
    let one = BigUint::one();
    let element = group.pow_g(&BigUint::from_u64(0xC0FFEE));
    let padded = |x: &BigUint| [vec![0u8; 3], group.element_to_bytes(x)].concat();
    vec![
        ("empty", Vec::new(), false),
        ("zero", vec![0u8; group.element_len()], false),
        (
            "order-2 element p-1",
            group.p().sub(&one).to_bytes_be(),
            false,
        ),
        ("p", group.p().to_bytes_be(), false),
        ("p+1", group.p().add(&one).to_bytes_be(), false),
        ("element + p", element.add(group.p()).to_bytes_be(), false),
        ("all ones", vec![0xff; group.element_len()], false),
        ("over-long", vec![0xab; 2 * group.element_len() + 5], false),
        (
            "zero-padded non-element",
            padded(&group.p().sub(&element)),
            false,
        ),
        ("zero-padded element", padded(&element), true),
        ("minimal element", element.to_bytes_be(), true),
        ("one", vec![1], true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Transcription guard: the generator must have order exactly q. If a
    /// prime constant were mistyped this would fail with overwhelming
    /// probability.
    #[test]
    fn generator_order_768() {
        let g = Group::modp_768();
        assert_eq!(g.pow_g(g.q()), BigUint::one());
        assert_ne!(g.pow_g(&BigUint::one()), BigUint::one());
    }

    #[test]
    fn generator_order_1024() {
        let g = Group::modp_1024();
        assert_eq!(g.pow_g(g.q()), BigUint::one());
    }

    #[test]
    fn generator_order_2048() {
        let g = Group::modp_2048();
        assert_eq!(g.pow_g(g.q()), BigUint::one());
    }

    #[test]
    fn p_is_odd_and_q_half() {
        for g in [Group::modp_768(), Group::modp_1024(), Group::modp_2048()] {
            assert!(g.p().is_odd());
            assert_eq!(&g.q().shl(1).add(&BigUint::one()), g.p());
        }
    }

    #[test]
    fn elements_are_in_subgroup() {
        let g = Group::test_group();
        let mut rng = rand::thread_rng();
        let x = random_below(g.q(), &mut rng);
        let elem = g.pow_g(&x);
        assert!(g.is_element(&elem));
    }

    #[test]
    fn non_elements_rejected() {
        let g = Group::test_group();
        assert!(!g.is_element(&BigUint::zero()));
        assert!(!g.is_element(g.p()));
        // p ≡ 3 (mod 4), so -1 ≡ p-1 is a quadratic non-residue and hence
        // outside the order-q subgroup.
        assert!(!g.is_element(&g.p().sub(&BigUint::one())));
    }

    fn builtin_groups() -> [Group; 3] {
        [Group::modp_768(), Group::modp_1024(), Group::modp_2048()]
    }

    #[test]
    fn is_element_matches_the_exponentiation_on_the_edge_values() {
        for g in builtin_groups() {
            let one = BigUint::one();
            let all_ones = BigUint::one().shl(8 * g.element_len()).sub(&one);
            let edges = [
                (BigUint::zero(), false),
                (one.clone(), true),
                // p ≡ 7 (mod 8): 2 is a residue, and q = -1/2 is not.
                (BigUint::from_u64(2), true),
                (BigUint::from_u64(4), true),
                (g.q().clone(), false),
                (g.p().sub(&one), false),
                (g.p().clone(), false),
                (g.p().add(&one), false),
                (all_ones, false),
            ];
            for (x, want) in edges {
                assert_eq!(
                    g.is_element_by_exponentiation(&x),
                    want,
                    "{} oracle {x}",
                    g.name()
                );
                assert_eq!(g.is_element(&x), want, "{} {x}", g.name());
            }
        }
    }

    /// One value of every shape the differential test covers, derived from
    /// the case's raw bytes: subgroup elements, their negations (never
    /// elements: p ≡ 3 mod 4 makes -1 a non-residue), uniform residues,
    /// whole zero limbs at the bottom and at the top, small integers.
    fn candidates(g: &Group, raw: &[u8], small: u64) -> Vec<BigUint> {
        let wide = BigUint::from_bytes_be(raw);
        let element = g.pow_g(&wide.rem(g.q()));
        let short = BigUint::from_bytes_be(&raw[..g.element_len() - 16]);
        vec![
            g.p().sub(&element),
            element,
            wide.rem(g.p()),
            short.shl(64),
            short.shl(128),
            BigUint::from_bytes_be(&raw[..raw.len() / 3]),
            BigUint::from_bytes_be(&raw[..9]),
            BigUint::from_u64(small),
        ]
    }

    fn assert_agrees_with_the_exponentiation(g: &Group, raw: &[u8], small: u64) {
        for x in candidates(g, raw, small) {
            assert_eq!(
                g.is_element(&x),
                g.is_element_by_exponentiation(&x),
                "{} disagrees on {x}",
                g.name()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_is_element_matches_the_exponentiation_768(
            raw in proptest::collection::vec(any::<u8>(), 104..105),
            small in 0u64..1001,
        ) {
            assert_agrees_with_the_exponentiation(&Group::modp_768(), &raw, small);
        }

        #[test]
        fn prop_is_element_matches_the_exponentiation_1024(
            raw in proptest::collection::vec(any::<u8>(), 136..137),
            small in 0u64..1001,
        ) {
            assert_agrees_with_the_exponentiation(&Group::modp_1024(), &raw, small);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_is_element_matches_the_exponentiation_2048(
            raw in proptest::collection::vec(any::<u8>(), 264..265),
            small in 0u64..1001,
        ) {
            assert_agrees_with_the_exponentiation(&Group::modp_2048(), &raw, small);
        }
    }

    #[test]
    fn differential_candidates_cover_both_verdicts_and_the_limb_shapes() {
        // Guards the generator, not the kernel: a differential test whose
        // inputs were all rejected by the range check would prove nothing.
        let g = Group::modp_768();
        let raw: Vec<u8> = (0..104u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let xs = candidates(&g, &raw, 7);
        assert!(!g.is_element(&xs[0]) && g.is_element(&xs[1]));
        assert!(xs.iter().all(|x| x < g.p()));
        assert!(xs[3].low_u64() == 0 && xs[4].shr(64).low_u64() == 0);
        assert!(xs[5].bits() < g.p().bits() / 2 && xs[6].bits() <= 72);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(Group::by_name("modp768"), Some(Group::modp_768()));
        assert_eq!(Group::by_name("modp1024"), Some(Group::modp_1024()));
        assert!(Group::by_name("nope").is_none());
    }

    #[test]
    fn element_bytes_fixed_width() {
        let g = Group::modp_768();
        let bytes = g.element_to_bytes(&BigUint::one());
        assert_eq!(bytes.len(), g.element_len());
        assert_eq!(g.element_len(), 96);
    }

    /// Miller–Rabin to the fixed bases 2, 3, …, 37 through
    /// [`MontgomeryCtx::modexp`]. A mistyped digit leaves a composite, and
    /// each base exposes one with probability at least 3/4.
    fn passes_miller_rabin(n: &BigUint) -> bool {
        let ctx = MontgomeryCtx::new(n.clone()).unwrap();
        let one = BigUint::one();
        let n_minus_1 = n.sub(&one);
        let twos = (0..).find(|&i| n_minus_1.bit(i)).unwrap();
        let odd = n_minus_1.shr(twos);
        [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
            .into_iter()
            .all(|base| {
                let mut x = ctx.modexp(&BigUint::from_u64(base), &odd);
                for _ in 1..twos {
                    if x == one || x == n_minus_1 {
                        break;
                    }
                    x = ctx.modmul(&x, &x);
                }
                x == one || x == n_minus_1
            })
    }

    /// Transcription guard for the bundled constants: `p` and `q = (p-1)/2`
    /// are both prime, for every group.
    #[test]
    fn builtin_p_and_q_pass_miller_rabin() {
        for g in builtin_groups() {
            assert!(passes_miller_rabin(g.p()), "{} p", g.name());
            assert!(passes_miller_rabin(g.q()), "{} q", g.name());
        }
    }

    #[test]
    fn miller_rabin_rejects_composites() {
        // Carmichael numbers fool the Fermat test; products of two primes,
        // word-sized and group-sized, have no small factor to stumble on.
        let p = Group::modp_768().p().clone();
        let composites = [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401]
            .map(BigUint::from_u64)
            .into_iter()
            .chain([
                BigUint::from_u64(1_000_000_007).mul(&BigUint::from_u64(1_000_000_009)),
                p.mul(Group::modp_1024().p()),
            ]);
        for c in composites {
            assert!(!passes_miller_rabin(&c), "{c} is composite");
        }
        assert!(passes_miller_rabin(&BigUint::from_u64(1_000_000_007)));
    }

    #[test]
    fn scalar_mul_matches_naive() {
        let mut rng = rand::thread_rng();
        for g in builtin_groups() {
            let q = g.q();
            let a = BigUint::from_u64(u64::MAX);
            let b = BigUint::from_u64(u64::MAX - 1);
            assert_eq!(g.scalar_mul(&a, &b), a.mul(&b).rem(q), "{}", g.name());
            // Sign-shaped: a 256-bit challenge times a full-width key.
            let e = g.short_exponent(&mut rng);
            let x = random_below(q, &mut rng);
            assert_eq!(g.scalar_mul(&e, &x), e.mul(&x).rem(q), "{}", g.name());
            assert_eq!(g.scalar_mul(&BigUint::zero(), &x), BigUint::zero());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every group's q, operands from empty (zero) to past 2048 bits
        // (≥ q in every group), and the shape `sign` multiplies: the
        // 256-bit challenge times a full-width key.
        #[test]
        fn prop_scalar_mul_matches_mul_rem(
            a in proptest::collection::vec(any::<u8>(), 0..300),
            b in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let e = BigUint::from_bytes_be(&a[..a.len().min(32)]);
            let (a, b) = (BigUint::from_bytes_be(&a), BigUint::from_bytes_be(&b));
            for g in builtin_groups() {
                let q = g.q();
                prop_assert_eq!(g.scalar_mul(&a, &b), a.mul(&b).rem(q), "{}", g.name());
                let x = b.rem(q);
                prop_assert_eq!(g.scalar_mul(&e, &x), e.mul(&x).rem(q), "{}", g.name());
            }
        }
    }

    #[test]
    fn scalar_len_matches_q_width() {
        let g = Group::modp_768();
        assert_eq!(g.scalar_len(), g.q().bits().div_ceil(8));
        assert_eq!(g.scalar_len(), 96);
    }

    #[test]
    fn pow_g_matches_pow_of_generator() {
        let g = Group::test_group();
        let mut rng = rand::thread_rng();
        for _ in 0..8 {
            let e = random_below(g.q(), &mut rng);
            assert_eq!(g.pow_g(&e), g.pow(g.generator(), &e));
        }
        assert_eq!(g.pow_g(&BigUint::zero()), BigUint::one());
        // Full-width exponent (q itself) stays inside the table range.
        assert_eq!(g.pow_g(g.q()), BigUint::one());
    }

    #[test]
    fn fixed_base_table_matches_pow() {
        let g = Group::test_group();
        let mut rng = rand::thread_rng();
        let base = g.pow_g(&random_below(g.q(), &mut rng));
        let table = g.precompute_table(&base, g.q().bits());
        assert!(table.capacity_bits() >= g.q().bits());
        assert!(table.approx_bytes() > 0);
        for _ in 0..4 {
            let e = random_below(g.q(), &mut rng);
            let got = g.mul_exp_g(&BigUint::zero(), &base, &e, Some(&table));
            assert_eq!(got, g.pow(&base, &e));
        }
    }

    #[test]
    fn short_exponents_are_nonzero_and_fill_exactly_their_256_bits() {
        for g in builtin_groups() {
            assert_eq!(g.short_exponent_bits(), 256, "{}", g.name());
            let mut rng = rand::thread_rng();
            let draws: Vec<BigUint> = (0..64).map(|_| g.short_exponent(&mut rng)).collect();
            assert!(draws.iter().all(|k| !k.is_zero() && k.bits() <= 256));
            assert_eq!(draws.iter().map(BigUint::bits).max(), Some(256));
        }
    }

    #[test]
    fn pow_g_of_a_short_exponent_matches_pow_at_both_walk_lengths() {
        let g = Group::test_group();
        let one = BigUint::one();
        // Either side of the length at which pow_g switches walks.
        for e in [one.shl(256).sub(&one), one.shl(256), one.shl(255), one] {
            assert_eq!(g.pow_g(&e), g.pow(g.generator(), &e), "{e}");
        }
    }

    /// `bits`-bit exponent from the case's raw bytes, top bit set.
    fn exponent_of_length(raw: &[u8], bits: usize) -> BigUint {
        if bits == 0 {
            return BigUint::zero();
        }
        let top = BigUint::one().shl(bits - 1);
        BigUint::from_bytes_be(raw).rem(&top).add(&top)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Both table sizes against the plain exponentiation, for every
        // exponent length from 0 to |q|: walking exactly the stated windows,
        // walking more than the exponent has, and refusing an exponent
        // longer than the stated length or a length beyond the table.
        #[test]
        fn prop_fixed_base_pow_mont_matches_modexp(
            raw in proptest::collection::vec(any::<u8>(), 104..105),
            bits in 0usize..768,
            slack in 0usize..9,
        ) {
            let g = Group::modp_768();
            let ctx = &g.inner.p_mont;
            let base = g.pow_g(&BigUint::from_bytes_be(&raw[..12]));
            let exp = exponent_of_length(&raw, bits);
            let want = ctx.modexp(&base, &exp);
            for capacity in [g.short_exponent_bits(), g.q().bits()] {
                let table = g.precompute_table(&base, capacity);
                let stated = bits + slack;
                let got = table.pow_mont(ctx, &exp, stated);
                if stated > table.capacity_bits() {
                    prop_assert!(got.is_none(), "{bits}+{slack} bits fit a {capacity}-bit table");
                } else {
                    let got = got.map(|m| ctx.from_mont(&m));
                    prop_assert_eq!(got.as_ref(), Some(&want), "{} bits, table {}", bits, capacity);
                }
                if bits > 0 {
                    prop_assert!(table.pow_mont(ctx, &exp, bits - 1).is_none());
                }
                // What callers do with `None`: the plain exponentiation.
                prop_assert_eq!(&g.mul_exp_g(&BigUint::zero(), &base, &exp, Some(&table)), &want);
            }
        }
    }

    #[test]
    fn mul_exp_g_matches_naive_with_and_without_table() {
        let g = Group::test_group();
        let mut rng = rand::thread_rng();
        let y = g.pow_g(&random_below(g.q(), &mut rng));
        let s = random_below(g.q(), &mut rng);
        let e = random_below(g.q(), &mut rng);
        let want = g.mul(&g.pow_g(&s), &g.pow(&y, &e));
        assert_eq!(g.mul_exp_g(&s, &y, &e, None), want);
        for exp_bits in [g.short_exponent_bits(), g.q().bits()] {
            let table = g.precompute_table(&y, exp_bits);
            assert_eq!(g.mul_exp_g(&s, &y, &e, Some(&table)), want);
        }
    }

    #[test]
    fn generator_table_is_shared_across_group_handles() {
        let a = Group::modp_768().generator_table();
        let b = Group::modp_768().generator_table();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
