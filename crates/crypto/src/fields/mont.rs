//! Generic Montgomery-form modular arithmetic over fixed-width limbs.
//!
//! All per-field constants (Montgomery radix powers, the word inverse, the
//! inversion/sqrt exponents) are derived from the modulus at startup via
//! [`MontParams::derive`], so no magic constants are transcribed anywhere.
//!
//! The CIOS (coarsely integrated operand scanning) multiplication used here
//! is the textbook algorithm; a single conditional subtraction suffices
//! because intermediate results stay below `2m`.

use crate::nat::Nat;

/// Derived parameters of a Montgomery field with `N` 64-bit limbs.
#[derive(Debug)]
pub struct MontParams<const N: usize> {
    /// The prime modulus `m`, little-endian limbs.
    pub modulus: [u64; N],
    /// The modulus as a [`Nat`] for slow-path computations.
    pub modulus_nat: Nat,
    /// `-m^{-1} mod 2^64`.
    pub inv: u64,
    /// `R mod m` where `R = 2^(64N)` — the Montgomery form of `1`.
    pub r1: [u64; N],
    /// `R^2 mod m` — used to convert into Montgomery form.
    pub r2: [u64; N],
    /// `m - 2`, the Fermat inversion exponent.
    pub m_minus_2: [u64; N],
    /// `(m + 1) / 4`; a valid sqrt exponent iff [`Self::sqrt_3mod4`].
    pub sqrt_exp: [u64; N],
    /// Whether `m ≡ 3 (mod 4)` so `a^((m+1)/4)` computes square roots.
    pub sqrt_3mod4: bool,
    /// `(m - 1) / 2`, the Euler/Legendre exponent.
    pub legendre_exp: [u64; N],
}

impl<const N: usize> MontParams<N> {
    /// Derives every constant from the odd prime `modulus`.
    ///
    /// # Panics
    /// Panics if `modulus` is even or does not fit in `N` limbs.
    pub fn derive(modulus: &Nat) -> Self {
        assert!(modulus.bit(0), "modulus must be odd");
        let m_limbs: [u64; N] = modulus
            .to_limbs(N)
            .try_into()
            .expect("modulus limb count mismatch");
        // Word inverse by Newton iteration: each step doubles the number of
        // correct low bits; 6 steps reach 64 bits from the initial 3.
        let m0 = m_limbs[0];
        let mut inv = m0;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let inv = inv.wrapping_neg();

        let r1 = Nat::one().shl(64 * N).rem(modulus);
        let r2 = Nat::one().shl(128 * N).rem(modulus);
        let two = Nat::from_u64(2);
        let m_minus_2 = modulus.sub(&two);
        let m_plus_1 = modulus.add(&Nat::one());
        let sqrt_3mod4 = modulus.low_u64() & 3 == 3;
        let sqrt_exp = m_plus_1.shr1().shr1();
        let legendre_exp = modulus.sub(&Nat::one()).shr1();

        let arr = |n: &Nat| -> [u64; N] { n.to_limbs(N).try_into().unwrap() };
        MontParams {
            modulus: m_limbs,
            modulus_nat: modulus.clone(),
            inv,
            r1: arr(&r1),
            r2: arr(&r2),
            m_minus_2: arr(&m_minus_2),
            sqrt_exp: arr(&sqrt_exp),
            sqrt_3mod4,
            legendre_exp: arr(&legendre_exp),
        }
    }
}

/// `a + b*c + carry` returning `(low, high)` words.
#[inline(always)]
pub fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry` returning `(sum, carry)`.
#[inline(always)]
pub fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow` returning `(diff, borrow)`.
#[inline(always)]
pub fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// `true` if `a >= b` as little-endian `N`-limb integers.
#[inline]
pub fn geq<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..N).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a - b` assuming `a >= b`.
#[inline]
pub fn sub_noborrow<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut borrow = 0;
    for i in 0..N {
        let (d, br) = sbb(a[i], b[i], borrow);
        out[i] = d;
        borrow = br;
    }
    debug_assert_eq!(borrow, 0);
    out
}

/// Montgomery multiplication `a * b * R^{-1} mod m` (CIOS).
#[inline]
pub fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], inv: u64) -> [u64; N] {
    let mut t = [0u64; N];
    let mut t_hi = 0u64; // word N
    #[allow(unused_assignments)]
    let mut t_top = 0u64; // word N+1 (at most 1)
    for &bi in b.iter() {
        // t += a * bi
        let mut carry = 0u64;
        for j in 0..N {
            let (lo, hi) = mac(t[j], a[j], bi, carry);
            t[j] = lo;
            carry = hi;
        }
        let (s, c) = adc(t_hi, carry, 0);
        t_hi = s;
        t_top = c;
        // Reduce: add k*m so the low word cancels, then shift down one word.
        let k = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], k, m[0], 0);
        for j in 1..N {
            let (lo, hi) = mac(t[j], k, m[j], carry);
            t[j - 1] = lo;
            carry = hi;
        }
        let (s, c) = adc(t_hi, carry, 0);
        t[N - 1] = s;
        t_hi = t_top + c;
    }
    if t_hi != 0 || geq(&t, m) {
        t = sub_noborrow(&t, m);
    }
    t
}

/// Modular addition of values already reduced below `m`.
#[inline]
pub fn mod_add<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut carry = 0;
    for i in 0..N {
        let (s, c) = adc(a[i], b[i], carry);
        out[i] = s;
        carry = c;
    }
    if carry != 0 || geq(&out, m) {
        // When carry is set, the "virtual" bit 64N makes out >= m; the wrap
        // from sub_noborrow is exactly the mod-2^(64N) arithmetic we need.
        let mut borrow = 0;
        let mut res = [0u64; N];
        for i in 0..N {
            let (d, br) = sbb(out[i], m[i], borrow);
            res[i] = d;
            borrow = br;
        }
        debug_assert!(carry == 1 || borrow == 0);
        res
    } else {
        out
    }
}

/// Modular subtraction of values already reduced below `m`.
#[inline]
pub fn mod_sub<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    if geq(a, b) {
        sub_noborrow(a, b)
    } else {
        let t = mod_add_raw(a, m); // a + m, no reduction (fits: a < m so a+m < 2m < 2^(64N+1))
                                   // a + m may carry past N limbs only if m's top bit region is full;
                                   // for our 381/255-bit moduli in 384/256-bit limbs it never does.
        sub_noborrow(&t, b)
    }
}

#[inline]
fn mod_add_raw<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut carry = 0;
    for i in 0..N {
        let (s, c) = adc(a[i], b[i], carry);
        out[i] = s;
        carry = c;
    }
    debug_assert_eq!(
        carry, 0,
        "mod_add_raw overflow: modulus too wide for N limbs"
    );
    out
}

/// Declares a concrete Montgomery field type backed by [`MontParams`].
///
/// `$name` is the type, `$n` the limb count and `$params` a
/// `fn() -> &'static MontParams<$n>` providing derived constants.
macro_rules! mont_field {
    ($(#[$attr:meta])* $name:ident, $n:expr, $params:path) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub(crate) [u64; $n]);

        impl $name {
            /// The additive identity.
            pub fn zero() -> Self {
                $name([0u64; $n])
            }

            /// The multiplicative identity.
            pub fn one() -> Self {
                $name($params().r1)
            }

            /// Embeds a small integer.
            pub fn from_u64(v: u64) -> Self {
                let mut limbs = [0u64; $n];
                limbs[0] = v;
                // Into Montgomery form.
                let p = $params();
                $name($crate::fields::mont::mont_mul(&limbs, &p.r2, &p.modulus, p.inv))
            }

            /// Embeds a [`Nat`]($crate::nat::Nat) (reduced mod the field modulus).
            pub fn from_nat(v: &$crate::nat::Nat) -> Self {
                let p = $params();
                let reduced = v.rem(&p.modulus_nat);
                let limbs: [u64; $n] = reduced.to_limbs($n).try_into().unwrap();
                $name($crate::fields::mont::mont_mul(&limbs, &p.r2, &p.modulus, p.inv))
            }

            /// Canonical (non-Montgomery) value.
            pub fn to_nat(&self) -> $crate::nat::Nat {
                let p = $params();
                let one = {
                    let mut l = [0u64; $n];
                    l[0] = 1;
                    l
                };
                let canon = $crate::fields::mont::mont_mul(&self.0, &one, &p.modulus, p.inv);
                $crate::nat::Nat::from_limbs(&canon)
            }

            /// Parses big-endian bytes, reducing mod the modulus.
            pub fn from_be_bytes_reduced(bytes: &[u8]) -> Self {
                Self::from_nat(&$crate::nat::Nat::from_be_bytes(bytes))
            }

            /// Canonical big-endian byte encoding, fixed width (`8 * N` bytes).
            pub fn to_be_bytes(&self) -> [u8; $n * 8] {
                let nat = self.to_nat();
                let limbs = nat.to_limbs($n);
                let mut out = [0u8; $n * 8];
                for (i, l) in limbs.iter().rev().enumerate() {
                    out[i * 8..i * 8 + 8].copy_from_slice(&l.to_be_bytes());
                }
                out
            }

            /// True for the additive identity.
            pub fn is_zero(&self) -> bool {
                self.0.iter().all(|&l| l == 0)
            }

            /// Field addition.
            #[inline]
            pub fn add(&self, other: &Self) -> Self {
                let p = $params();
                $name($crate::fields::mont::mod_add(&self.0, &other.0, &p.modulus))
            }

            /// Field subtraction.
            #[inline]
            pub fn sub(&self, other: &Self) -> Self {
                let p = $params();
                $name($crate::fields::mont::mod_sub(&self.0, &other.0, &p.modulus))
            }

            /// Additive inverse.
            #[inline]
            pub fn neg(&self) -> Self {
                Self::zero().sub(self)
            }

            /// Doubling.
            #[inline]
            pub fn double(&self) -> Self {
                self.add(self)
            }

            /// Field multiplication.
            #[inline]
            pub fn mul(&self, other: &Self) -> Self {
                let p = $params();
                $name($crate::fields::mont::mont_mul(&self.0, &other.0, &p.modulus, p.inv))
            }

            /// Squaring.
            #[inline]
            pub fn square(&self) -> Self {
                self.mul(self)
            }

            /// Exponentiation by little-endian limbs (square-and-multiply).
            pub fn pow(&self, exp: &[u64]) -> Self {
                let mut res = Self::one();
                let mut started = false;
                for &limb in exp.iter().rev() {
                    for bit in (0..64).rev() {
                        if started {
                            res = res.square();
                        }
                        if (limb >> bit) & 1 == 1 {
                            if started {
                                res = res.mul(self);
                            } else {
                                res = *self;
                                started = true;
                            }
                        }
                    }
                }
                if started {
                    res
                } else {
                    Self::one()
                }
            }

            /// Multiplicative inverse (`None` for zero), via Fermat.
            pub fn inverse(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                Some(self.pow(&$params().m_minus_2))
            }

            /// Square root for moduli `≡ 3 (mod 4)`; `None` if no root exists.
            ///
            /// # Panics
            /// Panics if the modulus is not `≡ 3 (mod 4)`.
            pub fn sqrt(&self) -> Option<Self> {
                let p = $params();
                assert!(p.sqrt_3mod4, "sqrt() requires modulus = 3 mod 4");
                let cand = self.pow(&p.sqrt_exp);
                if cand.square() == *self {
                    Some(cand)
                } else {
                    None
                }
            }

            /// Legendre symbol: 1 (residue), -1 (non-residue), 0 (zero).
            pub fn legendre(&self) -> i32 {
                if self.is_zero() {
                    return 0;
                }
                let e = self.pow(&$params().legendre_exp);
                if e == Self::one() {
                    1
                } else {
                    -1
                }
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}(0x", stringify!($name))?;
                for b in self.to_be_bytes() {
                    write!(f, "{:02x}", b)?;
                }
                write!(f, ")")
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::zero()
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name::add(&self, &rhs)
            }
        }
        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name::sub(&self, &rhs)
            }
        }
        impl std::ops::Mul for $name {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name::mul(&self, &rhs)
            }
        }
        impl std::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name::neg(&self)
            }
        }
    };
}

pub(crate) use mont_field;
