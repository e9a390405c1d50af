//! Arithmetic in GF(2^8), the field underlying Reed–Solomon codes.
//!
//! The paper's `RSD` benchmark is a Reed–Solomon decoder (5,324 LoC of
//! Verilog — the largest benchmark). Reed–Solomon works over GF(2^8) with
//! the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the
//! polynomial used by CCSDS/QR-style codecs. This module provides log/exp
//! table arithmetic, the same structure a hardware implementation uses
//! (table ROMs + adders).
//!
//! # Examples
//!
//! ```
//! use optimus_algo::gf256::Gf256;
//!
//! let f = Gf256::new();
//! let a = 0x57;
//! let inv = f.inv(a);
//! assert_eq!(f.mul(a, inv), 1);
//! ```

/// The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// GF(2^8) arithmetic via log/antilog tables generated from the primitive
/// element α = 2.
#[derive(Debug, Clone)]
pub struct Gf256 {
    exp: [u8; 512],
    log: [u8; 256],
}

impl Default for Gf256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Gf256 {
    /// Builds the log/exp tables.
    pub fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        // Duplicate so mul can skip the mod-255 reduction.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Self { exp, log }
    }

    /// Addition (and subtraction) in GF(2^8) is XOR.
    #[inline]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Multiplies `a` and `b`.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Divides `a` by `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        assert!(b != 0, "division by zero in GF(256)");
        if a == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + 255 - self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "zero has no inverse in GF(256)");
        self.exp[255 - self.log[a as usize] as usize]
    }

    /// Raises the primitive element α to `power`.
    #[inline]
    pub fn alpha_pow(&self, power: i32) -> u8 {
        self.exp[power.rem_euclid(255) as usize]
    }

    /// α raised to a sum of two discrete logs, `log_sum` in `0..510`: the
    /// antilog table is doubled so that a caller keeping values in the log
    /// domain (a Chien-search register, say) needs no mod-255 reduction.
    ///
    /// # Panics
    ///
    /// Panics if `log_sum >= 512`.
    #[inline]
    pub fn exp(&self, log_sum: usize) -> u8 {
        self.exp[log_sum]
    }

    /// The whole multiplication row of `a`: `table[y] = a · y`. A Horner
    /// step with a fixed evaluation point becomes one lookup through it.
    pub fn mul_table(&self, a: u8) -> [u8; 256] {
        let mut table = [0u8; 256];
        for (y, t) in table.iter_mut().enumerate() {
            *t = self.mul(a, y as u8);
        }
        table
    }

    /// Discrete log base α.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn log(&self, a: u8) -> u8 {
        assert!(a != 0, "zero has no discrete log");
        self.log[a as usize]
    }

    /// `a` raised to an arbitrary exponent.
    pub fn pow(&self, a: u8, mut e: u32) -> u8 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        e %= 255;
        self.exp[(self.log[a as usize] as u32 * e % 255) as usize]
    }

    /// Evaluates polynomial `poly` (most significant coefficient first) at `x`.
    pub fn poly_eval(&self, poly: &[u8], x: u8) -> u8 {
        let mut y = 0u8;
        for &c in poly {
            y = self.mul(y, x) ^ c;
        }
        y
    }

    /// Multiplies two polynomials (most significant coefficient first).
    pub fn poly_mul(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        if a.is_empty() || b.is_empty() {
            return vec![];
        }
        let mut out = vec![0u8; a.len() + b.len() - 1];
        for (i, &ca) in a.iter().enumerate() {
            for (j, &cb) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ca, cb);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_products() {
        let f = Gf256::new();
        // 0x57 * 0x13 with poly 0x11D.
        assert_eq!(f.mul(2, 2), 4);
        assert_eq!(f.mul(0x80, 2), 0x1D); // wraps through the poly
        assert_eq!(f.mul(7, 0), 0);
        assert_eq!(f.mul(1, 0xAB), 0xAB);
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        let f = Gf256::new();
        for a in 1..=255u8 {
            assert_eq!(f.mul(a, f.inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        let f = Gf256::new();
        for a in (1..=255u8).step_by(17) {
            for b in (1..=255u8).step_by(13) {
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in (1..=255u8).step_by(31) {
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law() {
        let f = Gf256::new();
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(19) {
                    assert_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
                }
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        let f = Gf256::new();
        for a in (0..=255u8).step_by(5) {
            for b in (1..=255u8).step_by(9) {
                assert_eq!(f.div(f.mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn alpha_generates_the_field() {
        let f = Gf256::new();
        let mut seen = [false; 256];
        for i in 0..255 {
            seen[f.alpha_pow(i) as usize] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 255);
        assert!(!seen[0]);
    }

    #[test]
    fn mul_table_is_the_multiplication_row() {
        let f = Gf256::new();
        for a in [0u8, 1, 2, 0x1D, 0xFF] {
            let table = f.mul_table(a);
            for y in 0..=255u8 {
                assert_eq!(table[y as usize], f.mul(a, y), "a={a} y={y}");
            }
        }
    }

    #[test]
    fn exp_covers_a_sum_of_two_logs() {
        let f = Gf256::new();
        for a in (1..=255u8).step_by(7) {
            for b in (1..=255u8).step_by(11) {
                let sum = f.log(a) as usize + f.log(b) as usize;
                assert_eq!(f.exp(sum), f.mul(a, b));
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = Gf256::new();
        let a = 0x53;
        let mut acc = 1u8;
        for e in 0..20u32 {
            assert_eq!(f.pow(a, e), acc, "e={e}");
            acc = f.mul(acc, a);
        }
    }

    #[test]
    fn poly_eval_horner() {
        let f = Gf256::new();
        // p(x) = x^2 + 3x + 2 evaluated at 1: 1 ^ 3 ^ 2 = 0.
        assert_eq!(f.poly_eval(&[1, 3, 2], 1), 0);
        // At 0: constant term.
        assert_eq!(f.poly_eval(&[1, 3, 2], 0), 2);
    }

    #[test]
    fn poly_mul_degree_adds() {
        let f = Gf256::new();
        let p = f.poly_mul(&[1, 1], &[1, 2]); // (x+1)(x+2) = x^2 + 3x + 2
        assert_eq!(p, vec![1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        Gf256::new().div(1, 0);
    }
}
