//! Arbitrary-precision unsigned integers.
//!
//! Implements exactly the operations needed by the Schnorr/ElGamal layer:
//! comparison, addition, subtraction, schoolbook multiplication, binary long
//! division, and Montgomery (CIOS) multiplication behind a [`MontgomeryCtx`],
//! the one modular-reduction engine: exponentiations and one-shot products
//! modulo every (odd) modulus the groups use. Limbs are `u64`, stored
//! little-endian.

use crate::error::CryptoError;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use tdt_crypto::bigint::BigUint;
///
/// let a = BigUint::from_u64(10);
/// let b = BigUint::from_u64(4);
/// assert_eq!(a.mul(&b), BigUint::from_u64(40));
/// let (q, r) = a.div_rem(&b);
/// assert_eq!((q, r), (BigUint::from_u64(2), BigUint::from_u64(2)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (normalized).
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_start = bytes.len();
        while chunk_start > 0 {
            let lo = chunk_start.saturating_sub(8);
            let mut limb = 0u64;
            for &b in &bytes[lo..chunk_start] {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
            chunk_start = lo;
        }
        BigUint::from_limbs(limbs)
    }

    /// Parses a hex string (whitespace tolerated).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Encoding`] on non-hex characters.
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let cleaned: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let padded = if cleaned.len() % 2 == 1 {
            format!("0{cleaned}")
        } else {
            cleaned
        };
        let bytes = crate::hex_decode(&padded)?;
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zeros.
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first_nonzero);
        out
    }

    /// Serializes to big-endian bytes left-padded to exactly `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// The value of little-endian `limbs`, trailing zero limbs dropped.
    fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut r = BigUint { limbs };
        r.normalize();
        r
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut r = self.clone();
        r.sub_assign(other);
        r
    }

    /// `self -= other` in place; the caller guarantees `self >= other`.
    fn sub_assign(&mut self, other: &BigUint) {
        let mut borrow = 0u64;
        for (i, a) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *a = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Divides out every factor of two in place and returns how many there
    /// were (zero has none and stays zero).
    fn strip_twos(&mut self) -> usize {
        let Some(zero_limbs) = self.limbs.iter().position(|&l| l != 0) else {
            return 0;
        };
        self.limbs.drain(..zero_limbs);
        let bits = self.limbs[0].trailing_zeros();
        if bits > 0 {
            let mut carry = 0u64;
            for limb in self.limbs.iter_mut().rev() {
                let low = *limb << (64 - bits);
                *limb = (*limb >> bits) | carry;
                carry = low;
            }
            self.normalize();
        }
        zero_limbs * 64 + bits as usize
    }

    /// The Jacobi symbol `(self | n)` — `1`, `-1`, or `0` when the two share
    /// a factor — by the binary algorithm: no division and no
    /// exponentiation, `O(bits²/64)` limb operations on two buffers that are
    /// only ever shifted, swapped and subtracted in place. For a prime `n`
    /// this is the Legendre symbol, i.e. `self^((n-1)/2) mod n` by Euler's
    /// criterion, at the price of a few multiplications.
    ///
    /// Runs in time that depends on both operands; see the allow below.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even (the symbol is undefined there).
    pub fn jacobi(&self, n: &BigUint) -> i8 {
        assert!(n.is_odd(), "Jacobi symbol needs an odd modulus");
        let (mut a, mut n) = (self.clone(), n.clone());
        let mut negative = false;
        // lint:allow(ct: "the loop branches on a and n, and both are public wherever this is called: n is a group modulus, a a key out of a certificate or the c1 header of a ciphertext — never a signing or decryption scalar (crates/lint/tests/passes.rs pins the call sites)")
        while !a.is_zero() {
            // (2|n) = -1 exactly when n ≡ ±3 (mod 8).
            if a.strip_twos() % 2 == 1 && matches!(n.low_u64() % 8, 3 | 5) {
                negative = !negative;
            }
            // Both odd now. Reciprocity: swapping them flips the sign
            // exactly when both are ≡ 3 (mod 4).
            if a < n {
                std::mem::swap(&mut a, &mut n);
                if (a.low_u64() & n.low_u64()) % 4 == 3 {
                    negative = !negative;
                }
            }
            // (a|n) = (a-n|n), and a-n is even: the next round shrinks it.
            a.sub_assign(&n);
        }
        match (n.limbs == [1], negative) {
            (false, _) => 0,
            (true, false) => 1,
            (true, true) => -1,
        }
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push((src[i] >> bit_shift) | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Binary long division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_u64(divisor.limbs[0]);
        }
        let shift = self.bits() - divisor.bits();
        let mut remainder = self.clone();
        let mut quotient_limbs = vec![0u64; shift / 64 + 1];
        let mut shifted = divisor.shl(shift);
        let mut i = shift as isize;
        while i >= 0 {
            if remainder >= shifted {
                remainder = remainder.sub(&shifted);
                quotient_limbs[(i as usize) / 64] |= 1u64 << ((i as usize) % 64);
            }
            shifted = shifted.shr(1);
            i -= 1;
        }
        (BigUint::from_limbs(quotient_limbs), remainder)
    }

    fn div_rem_u64(&self, d: u64) -> (BigUint, BigUint) {
        let mut rem = 0u128;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(q), BigUint::from_u64(rem as u64))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular addition `(self + other) mod m`; inputs must already be `< m`.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && other < m);
        let s = self.add(other);
        if &s >= m {
            s.sub(m)
        } else {
            s
        }
    }

    /// Modular subtraction `(self - other) mod m`; inputs must already be `< m`.
    pub fn mod_sub(&self, other: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && other < m);
        if self >= other {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{self})")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        write!(f, "{}", crate::hex_encode(&self.to_bytes_be()))
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

/// An element in Montgomery form: `x·R mod m` where `R = b^k`, stored as
/// exactly `k` little-endian limbs (fixed width, never normalized).
///
/// Only meaningful together with the [`MontgomeryCtx`] that produced it;
/// mixing elements across contexts yields garbage values (but no UB).
#[derive(Clone, PartialEq, Eq)]
pub struct MontElem {
    limbs: Vec<u64>,
}

impl MontElem {
    /// Number of limbs — fixed at the owning context's width `k`.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }
}

impl fmt::Debug for MontElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MontElem({} limbs)", self.limbs.len())
    }
}

/// Widest modulus a [`MontgomeryCtx`] accepts, in limbs: 2 048 bits, the
/// largest group's `p`. Every width up to it has its own instance of the
/// fixed-width kernel.
const MAX_LIMBS: usize = 32;

/// Montgomery multiplication context (CIOS, Koç et al.) for a fixed odd
/// modulus of 1 to 32 limbs (2 048 bits).
///
/// A CIOS `mont_mul` fuses the multiplication with the reduction in a
/// single `O(k^2)` pass over fixed-width limb arrays — no intermediate
/// `2k`-limb product, no heap scratch, and no normalization. One-shot
/// products go through [`Self::modmul`], which pays one extra pass to
/// leave the Montgomery domain.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// Modulus limbs, fixed width `k`.
    m: Vec<u64>,
    k: usize,
    /// `-m^(-1) mod b` (b = 2^64).
    n0_inv: u64,
    /// `R^2 mod m`, Montgomery form of `R` — converts into the domain.
    r2: MontElem,
    /// `R mod m`, Montgomery form of `1`.
    one: MontElem,
}

impl MontgomeryCtx {
    /// Builds a context for `modulus`, which must fit in 32 limbs (2 048
    /// bits): the kernel is instantiated for each width from 1 to 32.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] when the modulus is even or ≤ 1
    /// (Montgomery reduction needs `gcd(m, b) = 1`), or wider than 2 048
    /// bits.
    pub fn new(modulus: BigUint) -> Result<Self, CryptoError> {
        if modulus <= BigUint::one() || !modulus.is_odd() {
            return Err(CryptoError::InvalidKey(
                "Montgomery modulus must be odd and > 1".into(),
            ));
        }
        let k = modulus.limbs.len();
        if k > MAX_LIMBS {
            return Err(CryptoError::InvalidKey(format!(
                "Montgomery modulus must fit in {MAX_LIMBS} limbs, got {k}"
            )));
        }
        let m = modulus.limbs.clone();
        // n0_inv = -m[0]^(-1) mod 2^64 via Newton iteration (m[0] is odd).
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod m with R = b^k, via long division (setup cost only).
        let r2_value = BigUint::one().shl(64 * 2 * k).rem(&modulus);
        let one_value = BigUint::one().shl(64 * k).rem(&modulus);
        let fixed_width = |x: BigUint| {
            let mut limbs = x.limbs;
            limbs.resize(k, 0);
            MontElem { limbs }
        };
        Ok(MontgomeryCtx {
            modulus,
            m,
            k,
            n0_inv,
            r2: fixed_width(r2_value),
            one: fixed_width(one_value),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Montgomery form of `1` (`R mod m`).
    pub fn one(&self) -> MontElem {
        self.one.clone()
    }

    /// `x mod m` in the low `k` limbs; only an `x ≥ m` pays the division.
    fn reduced(&self, x: &BigUint) -> [u64; MAX_LIMBS] {
        let rem;
        let x = if x < &self.modulus {
            x
        } else {
            rem = x.rem(&self.modulus);
            &rem
        };
        let mut out = [0u64; MAX_LIMBS];
        out[..x.limbs.len()].copy_from_slice(&x.limbs);
        out
    }

    /// Converts `x` into Montgomery form (`x` is reduced mod `m` first).
    pub fn to_mont(&self, x: &BigUint) -> MontElem {
        let out = self.mul_limbs(&self.reduced(x), &self.r2.limbs);
        MontElem {
            limbs: out[..self.k].to_vec(),
        }
    }

    /// `(a·b) mod m` in two CIOS passes, `a·b·R⁻¹` and then `·R²·R⁻¹`; an
    /// operand `≥ m` is reduced first, as in [`Self::to_mont`].
    pub fn modmul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let ab = self.mul_limbs(&self.reduced(a), &self.reduced(b));
        let out = self.mul_limbs(&ab, &self.r2.limbs);
        BigUint::from_limbs(out[..self.k].to_vec())
    }

    /// Converts back out of Montgomery form.
    pub fn from_mont(&self, x: &MontElem) -> BigUint {
        let mut one = [0u64; MAX_LIMBS];
        one[0] = 1;
        BigUint::from_limbs(self.mul_limbs(&x.limbs, &one)[..self.k].to_vec())
    }

    /// Montgomery product `a·b·R^(-1) mod m`.
    pub fn mont_mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let out = self.mul_limbs(&a.limbs, &b.limbs);
        MontElem {
            limbs: out[..self.k].to_vec(),
        }
    }

    /// `acc <- acc · b` in place (no allocation).
    pub fn mont_mul_assign(&self, acc: &mut MontElem, b: &MontElem) {
        let out = self.mul_limbs(&acc.limbs, &b.limbs);
        acc.limbs.copy_from_slice(&out[..self.k]);
    }

    /// `acc <- acc²` in place (no allocation).
    pub fn mont_sqr_assign(&self, acc: &mut MontElem) {
        let out = self.mul_limbs(&acc.limbs, &acc.limbs);
        acc.limbs.copy_from_slice(&out[..self.k]);
    }

    /// `a·b·R^(-1) mod m` in the low `k` limbs, from the low `k` limbs of
    /// `a` and `b`: dispatches on the (public) width `k` to the [`cios`]
    /// instance of that many limbs.
    fn mul_limbs(&self, a: &[u64], b: &[u64]) -> [u64; MAX_LIMBS] {
        fn fixed<const N: usize>(x: &[u64]) -> &[u64; N] {
            x.first_chunk().expect("every row is at least k limbs wide")
        }
        let mut out = [0u64; MAX_LIMBS];
        macro_rules! dispatch {
            ($($n:literal)*) => {
                match self.k {
                    $($n => out[..$n].copy_from_slice(
                        &cios::<$n>(fixed(a), fixed(b), fixed(&self.m), self.n0_inv),
                    ),)*
                    _ => unreachable!("MontgomeryCtx::new admits 1 to {MAX_LIMBS} limbs"),
                }
            };
        }
        dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
                  17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
        out
    }

    /// Modular exponentiation `base^exp mod m` with a fixed 4-bit window
    /// in Montgomery form.
    ///
    /// Every window performs four squarings and one multiplication — zero
    /// windows multiply by the Montgomery `1` instead of branching — so
    /// the work depends only on the exponent's bit length.
    pub fn modexp(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let acc = self.modexp_mont(&self.to_mont(base), exp);
        self.from_mont(&acc)
    }

    /// Montgomery-domain exponentiation: `base^exp` with `base` already in
    /// Montgomery form; returns the result in Montgomery form.
    pub fn modexp_mont(&self, base: &MontElem, exp: &BigUint) -> MontElem {
        tdt_obs::profile_scope!("crypto.modexp_mont");
        // Precompute base^0..=15 in Montgomery form.
        let mut table = Vec::with_capacity(16);
        table.push(self.one.clone());
        table.push(base.clone());
        for i in 2..16 {
            table.push(self.mont_mul(&table[i - 1], base));
        }
        let nbits = exp.bits().max(1);
        let nwindows = nbits.div_ceil(4);
        let mut acc = self.one.clone();
        for w in (0..nwindows).rev() {
            if w + 1 != nwindows {
                for _ in 0..4 {
                    self.mont_sqr_assign(&mut acc);
                }
            }
            let mut window = 0usize;
            for b in 0..4 {
                let bit_idx = w * 4 + (3 - b);
                window <<= 1;
                if exp.bit(bit_idx) {
                    window |= 1;
                }
            }
            // lint:allow(ct: "window digit derives from the exponent; exponents here are public signature scalars (verify) or DRBG nonces whose table-lookup cache footprint we accept — see DESIGN.md crypto hot path")
            self.mont_mul_assign(&mut acc, &table[window]);
        }
        acc
    }
}

/// CIOS (coarsely integrated operand scanning) Montgomery multiplication
/// `a·b·R^(-1) mod m` at a width `N` fixed at compile time: interleaves the
/// multiply and the reduction limb by limb in a stack accumulator of `N`
/// limbs plus one overflow word. Loop bounds depend only on `N`; the final
/// modulus subtraction is selected branchlessly by mask.
fn cios<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], n0_inv: u64) -> [u64; N] {
    let mut t = [0u64; N];
    // The limb above t[N-1]: with a, b < m, t < 2m after every step, so it
    // is 0 or 1.
    let mut t_hi = 0u64;
    for &bi in b {
        // t += a * bi; `spill` is the bit above t_hi, at most 1.
        let mut carry = 0u64;
        for j in 0..N {
            let cur = t[j] as u128 + a[j] as u128 * bi as u128 + carry as u128;
            t[j] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let (top, spill) = t_hi.overflowing_add(carry);
        // m_val makes t divisible by b: t = (t + m_val*m) / b
        let m_val = t[0].wrapping_mul(n0_inv);
        let mut carry = ((t[0] as u128 + m_val as u128 * m[0] as u128) >> 64) as u64;
        for j in 1..N {
            let cur = t[j] as u128 + m_val as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = top as u128 + carry as u128;
        t[N - 1] = cur as u64;
        t_hi = spill as u64 + (cur >> 64) as u64;
    }
    // Conditional subtraction: result = t - m if t >= m (including the
    // overflow limb), selected by mask rather than branch.
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    for j in 0..N {
        let (d1, b1) = t[j].overflowing_sub(m[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[j] = d2;
        borrow = (b1 as u64) | (b2 as u64);
    }
    // Need the subtraction iff the overflow limb is set (value has a
    // 2^(64N) component, always >= m) or t >= m (no borrow).
    let need = (t_hi != 0) as u64 | (borrow == 0) as u64;
    let mask = need.wrapping_neg();
    for j in 0..N {
        out[j] = (out[j] & mask) | (t[j] & !mask);
    }
    out
}

/// Generates a uniformly random value in `[1, upper)`.
///
/// # Panics
///
/// Panics if `upper <= 1`.
pub fn random_below<R: rand::RngCore>(upper: &BigUint, rng: &mut R) -> BigUint {
    assert!(upper > &BigUint::one(), "upper bound must exceed 1");
    // Sized by the largest value wanted, so a power of two never rejects.
    let bits = upper.sub(&BigUint::one()).bits();
    let byte_len = bits.div_ceil(8);
    loop {
        let mut bytes = vec![0u8; byte_len];
        rng.fill_bytes(&mut bytes);
        // Mask the top byte so the rejection rate stays below 50%.
        let excess_bits = byte_len * 8 - bits;
        bytes[0] &= 0xffu8 >> excess_bits;
        let candidate = BigUint::from_bytes_be(&bytes);
        if !candidate.is_zero() && &candidate < upper {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = big("0123456789abcdef0123456789abcdef01");
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
    }

    #[test]
    fn from_bytes_leading_zeros() {
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0, 5]), BigUint::from_u64(5));
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from_u64(0x1234);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small() {
        BigUint::from_u64(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn add_with_carry() {
        let a = big("ffffffffffffffff");
        let b = BigUint::one();
        assert_eq!(a.add(&b), big("010000000000000000"));
    }

    #[test]
    fn sub_with_borrow() {
        let a = big("010000000000000000");
        let b = BigUint::one();
        assert_eq!(a.sub(&b), big("ffffffffffffffff"));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_cross_limb() {
        let a = big("ffffffffffffffff");
        assert_eq!(a.mul(&a), big("fffffffffffffffe0000000000000001"));
    }

    #[test]
    fn shifts() {
        let v = BigUint::from_u64(1);
        assert_eq!(v.shl(64), big("010000000000000000"));
        assert_eq!(v.shl(64).shr(64), v);
        assert_eq!(v.shl(3), BigUint::from_u64(8));
        assert_eq!(BigUint::from_u64(8).shr(3), BigUint::from_u64(1));
        assert_eq!(BigUint::from_u64(8).shr(4), BigUint::zero());
    }

    #[test]
    fn div_rem_simple() {
        let (q, r) = BigUint::from_u64(100).div_rem(&BigUint::from_u64(7));
        assert_eq!(q, BigUint::from_u64(14));
        assert_eq!(r, BigUint::from_u64(2));
    }

    #[test]
    fn div_rem_large() {
        let a = big("ffffffffffffffffffffffffffffffffffffffffffffffff");
        let b = big("fedcba9876543210");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        BigUint::one().div_rem(&BigUint::zero());
    }

    /// `base^exp mod m` by square-and-multiply over `mul` and `rem`: the
    /// definition, and the reference every Montgomery exponentiation is
    /// checked against.
    fn modexp_by_definition(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = BigUint::one().rem(m);
        for i in (0..exp.bits()).rev() {
            acc = acc.mul(&acc).rem(m);
            if exp.bit(i) {
                acc = acc.mul(base).rem(m);
            }
        }
        acc
    }

    fn mont(m: u64) -> MontgomeryCtx {
        MontgomeryCtx::new(BigUint::from_u64(m)).unwrap()
    }

    #[test]
    fn modexp_small() {
        // 3^7 mod 11 = 2187 mod 11 = 9
        let r = mont(11).modexp(&BigUint::from_u64(3), &BigUint::from_u64(7));
        assert_eq!(r, BigUint::from_u64(9));
    }

    #[test]
    fn modexp_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 mod p for prime p.
        let p = 1_000_000_007;
        let a = BigUint::from_u64(123_456_789);
        let r = mont(p).modexp(&a, &BigUint::from_u64(p - 1));
        assert_eq!(r, BigUint::one());
    }

    #[test]
    fn modexp_zero_exponent() {
        assert_eq!(
            mont(97).modexp(&BigUint::from_u64(5), &BigUint::zero()),
            BigUint::one()
        );
    }

    #[test]
    fn montgomery_rejects_even_or_trivial_modulus() {
        assert!(MontgomeryCtx::new(BigUint::from_u64(100)).is_err());
        assert!(MontgomeryCtx::new(BigUint::one()).is_err());
        assert!(MontgomeryCtx::new(BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(BigUint::from_u64(97)).is_ok());
    }

    #[test]
    fn montgomery_roundtrip() {
        let m = big("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b23");
        let ctx = MontgomeryCtx::new(m.clone()).unwrap();
        let x = big("0123456789abcdef0123456789abcdef");
        assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        // Values >= m are reduced on the way in.
        let y = x.add(&m);
        assert_eq!(ctx.from_mont(&ctx.to_mont(&y)), x);
        assert_eq!(ctx.from_mont(&ctx.one()), BigUint::one());
    }

    #[test]
    fn montgomery_mul_matches_schoolbook() {
        let m = big("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b23");
        let ctx = MontgomeryCtx::new(m.clone()).unwrap();
        let a = big("0123456789abcdef0123456789abcdef0123456789abcdef");
        let b = big("fedcba9876543210fedcba9876543210");
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        assert_eq!(got, a.mul(&b).rem(&m));
        assert_eq!(ctx.modmul(&a, &b), a.mul(&b).rem(&m));
    }

    #[test]
    fn modmul_edges() {
        let m = big("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b23");
        let ctx = MontgomeryCtx::new(m.clone()).unwrap();
        let one = BigUint::one();
        let top = m.sub(&one);
        assert_eq!(ctx.modmul(&BigUint::zero(), &top), BigUint::zero());
        assert_eq!(ctx.modmul(&top, &one), top);
        // (-1)·(-1) = 1, and m itself is zero.
        assert_eq!(ctx.modmul(&top, &top), one);
        assert_eq!(ctx.modmul(&m, &top), BigUint::zero());
        assert_eq!(ctx.modmul(&m.add(&one), &top), top);
        assert_eq!(
            mont(3).modmul(&BigUint::from_u64(2), &BigUint::from_u64(2)),
            one
        );
    }

    #[test]
    fn montgomery_modexp_matches_square_and_multiply() {
        let m = big("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b23");
        let mont = MontgomeryCtx::new(m.clone()).unwrap();
        let base = big("0123456789abcdef0123456789abcdef");
        let exp = big("deadbeefcafebabe0000000000000001ffffffffffffffff");
        assert_eq!(
            mont.modexp(&base, &exp),
            modexp_by_definition(&base, &exp, &m)
        );
        assert_eq!(
            mont.modexp(&base, &BigUint::zero()),
            modexp_by_definition(&base, &BigUint::zero(), &m)
        );
        assert_eq!(mont.modexp(&BigUint::zero(), &exp), BigUint::zero());
    }

    #[test]
    fn montgomery_rejects_modulus_wider_than_32_limbs() {
        let widest = BigUint::one().shl(2048).sub(&BigUint::one());
        assert_eq!(MontgomeryCtx::new(widest.clone()).unwrap().k, MAX_LIMBS);
        let too_wide = widest.add(&BigUint::from_u64(2));
        assert_eq!(too_wide.bits(), 2049);
        assert!(matches!(
            MontgomeryCtx::new(too_wide),
            Err(CryptoError::InvalidKey(_))
        ));
    }

    /// The widths the groups run: `p` and `q` of modp768, modp1024 and
    /// modp2048.
    const GROUP_WIDTHS: [usize; 3] = [12, 16, 32];

    /// An odd modulus of exactly `n` limbs drawn from `limbs`. `shape` bit 0
    /// sets the low limb to all ones, as in every MODP prime
    /// (`n0_inv = 1`); bit 1 sets the top limb to all ones, where products
    /// reach the overflow word and the final subtraction.
    fn wide_modulus(n: usize, limbs: &[u64], shape: u8) -> BigUint {
        let mut limbs = limbs[..n].to_vec();
        limbs[0] |= 1;
        if shape & 1 == 1 {
            limbs[0] = u64::MAX;
        }
        if shape & 2 == 2 {
            limbs[n - 1] = u64::MAX;
        }
        limbs[n - 1] = limbs[n - 1].max(1);
        BigUint { limbs }
    }

    /// `0`, `1`, `m − 1`, or (for any other `kind`) the value of `random`.
    fn operand(kind: u8, m: &BigUint, random: &[u64]) -> BigUint {
        match kind {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            2 => m.sub(&BigUint::one()),
            _ => BigUint::from_limbs(random.to_vec()),
        }
    }

    /// `mont_mul`, both in-place forms and `modmul` against `mul` + `rem`.
    fn check_products(m: &BigUint, a: &BigUint, b: &BigUint) -> Result<(), String> {
        let ctx = MontgomeryCtx::new(m.clone()).map_err(|e| e.to_string())?;
        let (am, bm) = (ctx.to_mont(a), ctx.to_mont(b));
        let (want, want_sqr) = (a.mul(b).rem(m), a.mul(a).rem(m));
        let mut acc = am.clone();
        ctx.mont_mul_assign(&mut acc, &bm);
        let mut sqr = am.clone();
        ctx.mont_sqr_assign(&mut sqr);
        let got = [
            ("mont_mul", ctx.from_mont(&ctx.mont_mul(&am, &bm)), &want),
            ("mont_mul_assign", ctx.from_mont(&acc), &want),
            ("mont_sqr_assign", ctx.from_mont(&sqr), &want_sqr),
            ("modmul", ctx.modmul(a, b), &want),
        ];
        for (name, value, want) in got {
            if &value != want {
                return Err(format!("{name}: {value:?} != {want:?} mod {m:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn montgomery_edges_at_group_widths() {
        let mut rng = proptest::test_runner::TestRng::new("edges");
        for n in GROUP_WIDTHS {
            for shape in 0..4 {
                let limbs: Vec<u64> = (0..2 * n).map(|_| rng.next_u64()).collect();
                let (m, random) = (wide_modulus(n, &limbs, shape), &limbs[n..]);
                for (ka, kb) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
                    let (a, b) = (operand(ka, &m, random), operand(kb, &m, random));
                    if let Err(e) = check_products(&m, &a, &b) {
                        panic!("n = {n}, shape = {shape}, operands {ka}/{kb}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::thread_rng();
        // The last two are powers of two: [1, 2) and a whole-byte width.
        for upper in [big("ff00000000000001"), big("2"), big("010000")] {
            for _ in 0..50 {
                let v = random_below(&upper, &mut rng);
                assert!(!v.is_zero());
                assert!(v < upper);
            }
        }
    }

    /// The textbook Jacobi symbol on machine words (reduce, then flip by
    /// reciprocity), the reference for the in-place limb version.
    fn jacobi_u64(mut a: u64, mut n: u64) -> i8 {
        let mut sign = 1;
        a %= n;
        while a != 0 {
            while a.is_multiple_of(2) {
                a /= 2;
                if matches!(n % 8, 3 | 5) {
                    sign = -sign;
                }
            }
            std::mem::swap(&mut a, &mut n);
            if a % 4 == 3 && n % 4 == 3 {
                sign = -sign;
            }
            a %= n;
        }
        if n == 1 {
            sign
        } else {
            0
        }
    }

    #[test]
    fn jacobi_matches_the_word_sized_reference() {
        for n in (1..200u64).step_by(2) {
            for a in 0..(2 * n + 3) {
                let got = BigUint::from_u64(a).jacobi(&BigUint::from_u64(n));
                assert_eq!(got, jacobi_u64(a, n), "({a}|{n})");
            }
        }
        // Words that only differ from small cases by their size.
        for (a, n) in [(u64::MAX, u64::MAX - 58), (1 << 63, 1_000_000_007)] {
            let got = BigUint::from_u64(a).jacobi(&BigUint::from_u64(n));
            assert_eq!(got, jacobi_u64(a, n), "({a}|{n})");
        }
    }

    #[test]
    fn jacobi_shifts_whole_zero_limbs_out() {
        // (2^128 · 3 | n) = (3 | n): 128 twos contribute an even power.
        let n = big("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b23");
        let three = BigUint::from_u64(3);
        assert_eq!(three.shl(128).jacobi(&n), three.jacobi(&n));
        assert_eq!(BigUint::zero().jacobi(&n), 0);
        assert_eq!(BigUint::zero().jacobi(&BigUint::one()), 1);
        assert_eq!(n.jacobi(&n), 0);
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn jacobi_even_modulus_panics() {
        BigUint::one().jacobi(&BigUint::from_u64(10));
    }

    #[test]
    fn ordering() {
        assert!(big("0100000000000000ff") > big("ff"));
        assert!(big("fe") < big("ff"));
        assert_eq!(big("00ff"), big("ff"));
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..40),
                                  b in proptest::collection::vec(any::<u8>(), 0..40)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            let sum = a.add(&b);
            prop_assert_eq!(sum.sub(&b), a);
        }

        #[test]
        fn prop_div_rem_invariant(a in proptest::collection::vec(any::<u8>(), 0..48),
                                  b in proptest::collection::vec(any::<u8>(), 1..24)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(q.mul(&b).add(&r), a);
            prop_assert!(r < b);
        }

        #[test]
        fn prop_mul_commutative(a in proptest::collection::vec(any::<u8>(), 0..32),
                                b in proptest::collection::vec(any::<u8>(), 0..32)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn prop_bytes_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..64)) {
            let v = BigUint::from_bytes_be(&a);
            prop_assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }

        #[test]
        fn prop_shift_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..32),
                                n in 0usize..200) {
            let v = BigUint::from_bytes_be(&a);
            prop_assert_eq!(v.shl(n).shr(n), v);
        }

        // Multi-limb operands have no independent oracle short of an
        // exponentiation modulo a prime (group.rs has that one); what every
        // Jacobi symbol must satisfy is checked here on arbitrary odd n.
        #[test]
        fn prop_jacobi_is_periodic_and_multiplicative(
            a in proptest::collection::vec(any::<u8>(), 0..40),
            b in proptest::collection::vec(any::<u8>(), 0..24),
            n in proptest::collection::vec(any::<u8>(), 1..24),
        ) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            let mut n = BigUint::from_bytes_be(&n);
            if !n.is_odd() {
                n = n.add(&BigUint::one());
            }
            prop_assert_eq!(a.jacobi(&n), a.rem(&n).jacobi(&n));
            prop_assert_eq!(a.mul(&b).rem(&n).jacobi(&n), a.rem(&n).jacobi(&n) * b.jacobi(&n));
        }

        #[test]
        fn prop_montgomery_modexp_matches_square_and_multiply(
            base in proptest::collection::vec(any::<u8>(), 0..32),
            exp in proptest::collection::vec(any::<u8>(), 0..24),
            m in proptest::collection::vec(any::<u8>(), 2..24),
        ) {
            let base = BigUint::from_bytes_be(&base);
            let exp = BigUint::from_bytes_be(&exp);
            let mut m = BigUint::from_bytes_be(&m);
            prop_assume!(m > BigUint::one());
            if !m.is_odd() {
                m = m.add(&BigUint::one());
            }
            let mont = MontgomeryCtx::new(m.clone()).unwrap();
            prop_assert_eq!(mont.modexp(&base, &exp), modexp_by_definition(&base, &exp, &m));
        }

        #[test]
        fn prop_montgomery_mul_matches_mul_rem(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            b in proptest::collection::vec(any::<u8>(), 0..32),
            m in proptest::collection::vec(any::<u8>(), 2..24),
        ) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            let mut m = BigUint::from_bytes_be(&m);
            prop_assume!(m > BigUint::one());
            if !m.is_odd() {
                m = m.add(&BigUint::one());
            }
            let ctx = MontgomeryCtx::new(m.clone()).unwrap();
            let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            prop_assert_eq!(got, a.mul(&b).rem(&m));
        }

        // Odd moduli of 1 to 24 bytes, operands up to twice as wide: most
        // are ≥ m and take the `rem` on the way in, some are empty (zero).
        // group.rs runs the same check on each group's q.
        #[test]
        fn prop_modmul_matches_mul_rem(
            a in proptest::collection::vec(any::<u8>(), 0..48),
            b in proptest::collection::vec(any::<u8>(), 0..48),
            m in proptest::collection::vec(any::<u8>(), 1..25),
        ) {
            let (a, b) = (BigUint::from_bytes_be(&a), BigUint::from_bytes_be(&b));
            let mut m = BigUint::from_bytes_be(&m);
            if !m.is_odd() {
                m = m.add(&BigUint::one());
            }
            prop_assume!(m > BigUint::one());
            let ctx = MontgomeryCtx::new(m.clone()).unwrap();
            prop_assert_eq!(ctx.modmul(&a, &b), a.mul(&b).rem(&m));
            prop_assert_eq!(ctx.modmul(&BigUint::zero(), &b), BigUint::zero());
        }
    }

    // The same oracles at the widths the groups run, on moduli whose low or
    // top limb is all ones half of the time each, with each operand 0, 1 or
    // m − 1 half of the time and exponents up to the 256 bits the groups
    // use. Random operands are up to twice the modulus wide, so they take
    // the `rem` on the way in.
    proptest! {
        #[test]
        fn prop_products_match_mul_rem_at_group_widths(
            n in prop_oneof![Just(12usize), Just(16), Just(32)],
            shape in 0u8..4,
            m in proptest::collection::vec(any::<u64>(), 32..33),
            kinds in (0u8..6, 0u8..6),
            a in proptest::collection::vec(any::<u64>(), 0..65),
            b in proptest::collection::vec(any::<u64>(), 0..65),
        ) {
            let m = wide_modulus(n, &m, shape);
            let (a, b) = (operand(kinds.0, &m, &a), operand(kinds.1, &m, &b));
            if let Err(e) = check_products(&m, &a, &b) {
                prop_assert!(false, "n = {}: {}", n, e);
            }
        }

        #[test]
        fn prop_montgomery_modexp_matches_square_and_multiply_at_group_widths(
            n in prop_oneof![Just(12usize), Just(16), Just(32)],
            shape in 0u8..4,
            m in proptest::collection::vec(any::<u64>(), 32..33),
            kind in 0u8..6,
            base in proptest::collection::vec(any::<u64>(), 0..33),
            exp in proptest::collection::vec(any::<u8>(), 0..33),
        ) {
            let m = wide_modulus(n, &m, shape);
            let base = operand(kind, &m, &base);
            let exp = BigUint::from_bytes_be(&exp);
            let mont = MontgomeryCtx::new(m.clone()).unwrap();
            prop_assert_eq!(mont.modexp(&base, &exp), modexp_by_definition(&base, &exp, &m));
        }
    }
}
