//! Minimal arbitrary-precision natural numbers.
//!
//! Used only for *parameter derivation*: all BLS12-381 constants (modulus,
//! subgroup order, cofactors, Montgomery constants, final-exponentiation
//! exponent) are derived at startup from the single curve parameter
//! `z = 0xd201_0000_0001_0000` instead of being transcribed as long hex
//! literals. This keeps the implementation self-verifying: a transcription
//! error is impossible, and structural properties (bit lengths, congruences)
//! are asserted in tests.
//!
//! Performance is irrelevant here (everything runs once at startup), so the
//! implementation favours obviousness: schoolbook multiplication and
//! shift-subtract division.

use std::cmp::Ordering;

/// An arbitrary-precision natural number (little-endian 64-bit limbs).
///
/// The representation is normalized: no trailing zero limbs, and zero is the
/// empty limb vector.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    limbs: Vec<u64>,
}

impl Nat {
    /// The natural number zero.
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// The natural number one.
    pub fn one() -> Self {
        Nat::from_u64(1)
    }

    /// Creates a `Nat` from a single limb.
    pub fn from_u64(v: u64) -> Self {
        let mut n = Nat { limbs: vec![v] };
        n.normalize();
        n
    }

    /// Creates a `Nat` from little-endian limbs.
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut n = Nat {
            limbs: limbs.to_vec(),
        };
        n.normalize();
        n
    }

    /// Little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Little-endian limbs padded (or truncated, which panics if lossy) to `n`.
    ///
    /// # Panics
    /// Panics if the value does not fit in `n` limbs.
    pub fn to_limbs(&self, n: usize) -> Vec<u64> {
        assert!(self.limbs.len() <= n, "value does not fit in {n} limbs");
        let mut v = self.limbs.clone();
        v.resize(n, 0);
        v
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian, bit 0 is the least significant).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// `self % 2^64` (0 if zero).
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &Nat) -> Nat {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        out.push(carry);
        let mut n = Nat { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction.
    ///
    /// # Panics
    /// Panics if `other > self` (naturals have no negatives).
    pub fn sub(&self, other: &Nat) -> Nat {
        assert!(self >= other, "Nat::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = Nat { limbs: out };
        n.normalize();
        n
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Nat) -> Nat {
        if self.is_zero() || other.is_zero() {
            return Nat::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = Nat { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Nat {
        if self.is_zero() {
            return Nat::zero();
        }
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            out.push(carry);
        }
        let mut r = Nat { limbs: out };
        r.normalize();
        r
    }

    /// Shift-subtract long division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Nat) -> (Nat, Nat) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Nat::zero(), self.clone());
        }
        let shift = self.bit_len() - divisor.bit_len();
        let mut rem = self.clone();
        let mut quo_limbs = vec![0u64; shift / 64 + 1];
        let mut d = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if rem >= d {
                rem = rem.sub(&d);
                quo_limbs[i / 64] |= 1 << (i % 64);
            }
            d = d.shr1();
        }
        let mut q = Nat { limbs: quo_limbs };
        q.normalize();
        (q, rem)
    }

    /// Right shift by one bit.
    pub fn shr1(&self) -> Nat {
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut carry = 0u64;
        for &l in self.limbs.iter().rev() {
            out.push((l >> 1) | (carry << 63));
            carry = l & 1;
        }
        out.reverse();
        let mut n = Nat { limbs: out };
        n.normalize();
        n
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Nat) -> Nat {
        self.div_rem(m).1
    }

    /// Exact division; panics (in debug) if not exact.
    pub fn div_exact(&self, d: &Nat) -> Nat {
        let (q, r) = self.div_rem(d);
        debug_assert!(r.is_zero(), "div_exact with nonzero remainder");
        q
    }

    /// `self^2`.
    pub fn square(&self) -> Nat {
        self.mul(self)
    }

    /// Integer square root `floor(sqrt(self))` (greedy bit-by-bit).
    pub fn isqrt(&self) -> Nat {
        if self.is_zero() {
            return Nat::zero();
        }
        let mut root = Nat::zero();
        for i in (0..=self.bit_len() / 2).rev() {
            let cand = root.add(&Nat::one().shl(i));
            if cand.square() <= *self {
                root = cand;
            }
        }
        root
    }

    /// Big-endian bytes, minimal length (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Parses big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Nat {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        let mut n = Nat { limbs };
        n.normalize();
        n
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nat {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Nat::from_limbs(&[u64::MAX, u64::MAX, 3]);
        let b = Nat::from_limbs(&[7, u64::MAX]);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    }

    #[test]
    fn mul_matches_u128() {
        let a = Nat::from_u64(0xdead_beef_1234_5678);
        let b = Nat::from_u64(0xfeed_face_8765_4321);
        let prod = (0xdead_beef_1234_5678u128) * (0xfeed_face_8765_4321u128);
        let m = a.mul(&b);
        assert_eq!(m.limbs(), &[prod as u64, (prod >> 64) as u64]);
    }

    #[test]
    fn div_rem_identity() {
        let a = Nat::from_limbs(&[0x1234, 0x5678, 0x9abc, 0xdef0]);
        let d = Nat::from_limbs(&[0xfff1, 0x3]);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn division_by_one_and_self() {
        let a = Nat::from_limbs(&[5, 9, 1]);
        let (q, r) = a.div_rem(&Nat::one());
        assert_eq!(q, a);
        assert!(r.is_zero());
        let (q, r) = a.div_rem(&a);
        assert_eq!(q, Nat::one());
        assert!(r.is_zero());
    }

    #[test]
    fn shifts() {
        let a = Nat::from_u64(1);
        assert_eq!(a.shl(64), Nat::from_limbs(&[0, 1]));
        assert_eq!(a.shl(65).shr1(), Nat::from_limbs(&[0, 1]));
        assert_eq!(a.shl(3), Nat::from_u64(8));
    }

    #[test]
    fn bit_len_and_bits() {
        let a = Nat::from_limbs(&[0, 0b1010]);
        assert_eq!(a.bit_len(), 64 + 4);
        assert!(a.bit(65));
        assert!(!a.bit(64));
        assert!(a.bit(67));
        assert_eq!(Nat::zero().bit_len(), 0);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let a = Nat::from_limbs(&[0xdead_beef, 0x1234_5678_9abc_def0, 0x42]);
        assert_eq!(Nat::from_be_bytes(&a.to_be_bytes()), a);
        assert!(Nat::from_be_bytes(&[]).is_zero());
    }
}
