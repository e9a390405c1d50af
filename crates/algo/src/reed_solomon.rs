//! Reed–Solomon encoding and decoding over GF(2^8).
//!
//! The paper's `RSD` benchmark is a Reed–Solomon *decoder* — the heaviest
//! real-world accelerator in Table 1. This module implements a systematic
//! RS(n, k) code with `n − k = 2t` parity symbols:
//!
//! * encoding by polynomial long division with the generator polynomial,
//! * syndrome computation,
//! * Berlekamp–Massey to find the error-locator polynomial,
//! * Chien search for error positions,
//! * Forney's formula for error magnitudes.
//!
//! This is exactly the pipeline an FPGA RS decoder implements stage by
//! stage.
//!
//! # Examples
//!
//! ```
//! use optimus_algo::reed_solomon::ReedSolomon;
//!
//! let rs = ReedSolomon::new(16); // 16 parity symbols: corrects 8 errors
//! let mut codeword = rs.encode(b"hello reed solomon");
//! codeword[0] ^= 0xFF; // corrupt one symbol
//! let decoded = rs.decode(&codeword).unwrap();
//! assert_eq!(&decoded, b"hello reed solomon");
//! ```

use crate::gf256::Gf256;

/// Longest codeword over GF(2^8), and so the bound of every per-codeword
/// working buffer (none of which is heap-allocated).
const MAX_CODEWORD: usize = 255;

/// Errors returned by [`ReedSolomon::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// More errors occurred than the code can correct.
    TooManyErrors,
    /// The codeword is shorter than the parity region.
    CodewordTooShort,
    /// The codeword is longer than the 255-symbol block of GF(2^8).
    CodewordTooLong,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::TooManyErrors => write!(f, "too many symbol errors to correct"),
            DecodeError::CodewordTooShort => write!(f, "codeword shorter than parity length"),
            DecodeError::CodewordTooLong => write!(f, "codeword longer than 255 symbols"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A systematic Reed–Solomon codec with a configurable number of parity
/// symbols.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    field: Gf256,
    parity: usize,
    generator: Vec<u8>,
    /// `root_mul[i][y] = y · α^i`: the Horner step of syndrome `i` as one
    /// lookup (a hardware decoder's constant multipliers).
    root_mul: Vec<[u8; 256]>,
}

impl ReedSolomon {
    /// Creates a codec with `parity` parity symbols (corrects `parity / 2`
    /// symbol errors).
    ///
    /// # Panics
    ///
    /// Panics if `parity` is zero or ≥ 255.
    pub fn new(parity: usize) -> Self {
        assert!(parity > 0 && parity < 255, "parity must be in 1..255");
        let field = Gf256::new();
        // g(x) = Π_{i=0}^{parity-1} (x − α^i)
        let mut generator = vec![1u8];
        for i in 0..parity {
            generator = field.poly_mul(&generator, &[1, field.alpha_pow(i as i32)]);
        }
        let root_mul = (0..parity)
            .map(|i| field.mul_table(field.alpha_pow(i as i32)))
            .collect();
        Self {
            field,
            parity,
            generator,
            root_mul,
        }
    }

    /// Number of parity symbols appended to each message.
    pub fn parity_len(&self) -> usize {
        self.parity
    }

    /// Maximum number of correctable symbol errors.
    pub fn correction_capacity(&self) -> usize {
        self.parity / 2
    }

    /// Encodes `message`, returning `message ‖ parity`.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() + parity` exceeds 255 (the RS block length
    /// over GF(2^8)).
    pub fn encode(&self, message: &[u8]) -> Vec<u8> {
        assert!(
            message.len() + self.parity <= MAX_CODEWORD,
            "RS block length over GF(256) is at most 255 symbols"
        );
        // Systematic encoding: remainder of msg·x^parity divided by g(x).
        let mut remainder = vec![0u8; self.parity];
        for &sym in message {
            let factor = sym ^ remainder[0];
            remainder.rotate_left(1);
            remainder[self.parity - 1] = 0;
            if factor != 0 {
                for (r, &g) in remainder.iter_mut().zip(&self.generator[1..]) {
                    *r ^= self.field.mul(g, factor);
                }
            }
        }
        let mut out = message.to_vec();
        out.extend_from_slice(&remainder);
        out
    }

    /// `synd[i] = codeword(α^i)`, all `parity` Horner chains advanced
    /// together one symbol at a time: per symbol that is `parity`
    /// independent table lookups, where evaluating one syndrome after the
    /// other is `parity` serial chains of 255 dependent multiplies.
    fn syndromes(&self, codeword: &[u8], synd: &mut [u8]) {
        synd.fill(0);
        for &c in codeword {
            for (y, row) in synd.iter_mut().zip(&self.root_mul) {
                *y = row[*y as usize] ^ c;
            }
        }
    }

    /// Decodes a codeword, correcting up to `parity/2` symbol errors.
    /// Returns the message portion (parity stripped).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TooManyErrors`] if the error count exceeds the
    /// correction capacity, [`DecodeError::CodewordTooShort`] if the input
    /// cannot even contain the parity symbols, and
    /// [`DecodeError::CodewordTooLong`] if it exceeds 255 symbols.
    pub fn decode(&self, codeword: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut word = codeword.to_vec();
        let message_len = self.correct(&mut word)?;
        word.truncate(message_len);
        Ok(word)
    }

    /// Corrects up to `parity/2` symbol errors of `codeword` in place and
    /// returns the length of its message portion (`codeword.len() −
    /// parity`). [`decode`](Self::decode) without the copy: a streaming
    /// caller decodes in its own staging buffer and allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode). After `TooManyErrors` the buffer may
    /// hold a partial miscorrection and must not be used.
    pub fn correct(&self, codeword: &mut [u8]) -> Result<usize, DecodeError> {
        let n_len = codeword.len();
        if n_len < self.parity {
            return Err(DecodeError::CodewordTooShort);
        }
        if n_len > MAX_CODEWORD {
            return Err(DecodeError::CodewordTooLong);
        }
        let message_len = n_len - self.parity;
        let mut synd = [0u8; MAX_CODEWORD];
        let synd = &mut synd[..self.parity];
        self.syndromes(codeword, synd);
        if synd.iter().all(|&s| s == 0) {
            return Ok(message_len);
        }

        // Berlekamp–Massey: find the error locator polynomial sigma
        // (lowest-degree LFSR generating the syndrome sequence). Both
        // polynomials are lowest degree first and never longer than
        // `parity + 1` (a locator's length is bounded by the LFSR length,
        // and that by the number of syndromes consumed).
        let f = &self.field;
        let mut sigma = [0u8; MAX_CODEWORD + 1]; // current locator
        let mut prev = [0u8; MAX_CODEWORD + 1]; // locator at the last length change
        let (mut sigma_len, mut prev_len) = (1usize, 1usize);
        sigma[0] = 1;
        prev[0] = 1;
        let mut l = 0usize; // current LFSR length
        let mut m = 1usize; // steps since last update
        let mut b = 1u8; // discrepancy at last update
        for n in 0..self.parity {
            // discrepancy d = S_n + Σ sigma_i * S_{n-i}
            let mut d = synd[n];
            for i in 1..=l.min(sigma_len - 1) {
                d ^= f.mul(sigma[i], synd[n - i]);
            }
            if d == 0 {
                m += 1;
                continue;
            }
            let before = (sigma, sigma_len);
            // sigma -= (d/b) * x^m * prev
            let coef = f.div(d, b);
            for (s, &p) in sigma[m..].iter_mut().zip(&prev[..prev_len]) {
                *s ^= f.mul(coef, p);
            }
            sigma_len = sigma_len.max(m + prev_len);
            if 2 * l <= n {
                l = n + 1 - l;
                (prev, prev_len) = before;
                b = d;
                m = 1;
            } else {
                m += 1;
            }
        }
        while sigma[sigma_len - 1] == 0 {
            sigma_len -= 1; // sigma[0] is 1: stops there at the latest
        }
        let sigma = &sigma[..sigma_len];
        let num_errors = sigma_len - 1;
        if num_errors > self.correction_capacity() {
            return Err(DecodeError::TooManyErrors);
        }

        // Chien search: find roots of sigma. Position j (from the end of the
        // codeword) is an error location if sigma(α^{-j}) == 0. As in the
        // hardware, each non-zero term σ_i·x^i lives in a register — here
        // its discrete log — that one step to the next position multiplies
        // by α^{-i}; the locator's value is the XOR of the registers.
        let mut terms = [(0u8, 0u8); MAX_CODEWORD + 1]; // (log of the term, log of α^{-i})
        let mut num_terms = 0;
        for (i, &c) in sigma.iter().enumerate() {
            if c != 0 {
                terms[num_terms] = (f.log(c), ((255 - i) % 255) as u8);
                num_terms += 1;
            }
        }
        let terms = &mut terms[..num_terms];
        let mut error_positions = [0u8; MAX_CODEWORD];
        let mut num_roots = 0;
        for j in 0..n_len {
            let mut acc = 0u8;
            for (log, step) in terms.iter_mut() {
                acc ^= f.exp(*log as usize);
                let next = *log as usize + *step as usize;
                *log = if next >= 255 { next - 255 } else { next } as u8;
            }
            if acc == 0 {
                error_positions[num_roots] = (n_len - 1 - j) as u8;
                num_roots += 1;
            }
        }
        if num_roots != num_errors {
            return Err(DecodeError::TooManyErrors);
        }

        // Forney: error magnitude at position p is
        //   e = X * omega(X^-1) / sigma'(X^-1),   X = α^{n-1-p}
        // where omega = (synd · sigma) mod x^parity.
        let mut omega = [0u8; MAX_CODEWORD];
        let omega = &mut omega[..self.parity];
        for (i, om) in omega.iter_mut().enumerate() {
            let mut acc = 0u8;
            for k in 0..=i.min(num_errors) {
                acc ^= f.mul(sigma[k], synd[i - k]);
            }
            *om = acc;
        }

        for &p in &error_positions[..num_roots] {
            let p = p as usize;
            let j = (n_len - 1 - p) as i32;
            let x_inv = f.alpha_pow(-j);
            // omega (lowest degree first) at x_inv, by Horner from the top.
            let omega_val = omega.iter().rev().fold(0u8, |y, &c| f.mul(y, x_inv) ^ c);
            // Formal derivative of sigma at x_inv: the odd-power terms, as
            // a polynomial in x_inv².
            let x_inv_sq = f.mul(x_inv, x_inv);
            let sigma_deriv = sigma
                .iter()
                .skip(1)
                .step_by(2)
                .rev()
                .fold(0u8, |y, &c| f.mul(y, x_inv_sq) ^ c);
            if sigma_deriv == 0 {
                return Err(DecodeError::TooManyErrors);
            }
            // Forney with the b = 0 generator convention:
            //   e = X^(1-b) · Ω(X⁻¹) / Λ'(X⁻¹),  X = α^j.
            let magnitude = f.mul(f.alpha_pow(j), f.div(omega_val, sigma_deriv));
            codeword[p] ^= magnitude;
        }

        // Verify: all syndromes of the corrected word must vanish.
        self.syndromes(codeword, synd);
        if synd.iter().any(|&s| s != 0) {
            return Err(DecodeError::TooManyErrors);
        }
        Ok(message_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_sim::rng::Xoshiro256;
    use optimus_testkit::runner::check;
    use optimus_testkit::{gens, prop_assert, prop_assert_eq};

    #[test]
    fn clean_round_trip() {
        let rs = ReedSolomon::new(8);
        let msg = b"the quick brown fox";
        let cw = rs.encode(msg);
        assert_eq!(cw.len(), msg.len() + 8);
        assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn corrects_up_to_capacity() {
        let rs = ReedSolomon::new(16);
        let msg: Vec<u8> = (0..100).collect();
        let clean = rs.encode(&msg);
        let mut rng = Xoshiro256::seed_from(77);
        for errors in 1..=8 {
            let mut cw = clean.clone();
            let mut positions: Vec<usize> = (0..cw.len()).collect();
            rng.shuffle(&mut positions);
            for &p in positions.iter().take(errors) {
                cw[p] ^= (rng.next_u64() % 255 + 1) as u8;
            }
            assert_eq!(rs.decode(&cw).unwrap(), msg, "errors={errors}");
        }
    }

    #[test]
    fn detects_too_many_errors() {
        let rs = ReedSolomon::new(8); // corrects 4
        let msg: Vec<u8> = (0..50).collect();
        let mut cw = rs.encode(&msg);
        let mut rng = Xoshiro256::seed_from(3);
        // 10 errors in distinct positions: far beyond capacity.
        let mut positions: Vec<usize> = (0..cw.len()).collect();
        rng.shuffle(&mut positions);
        for &p in positions.iter().take(10) {
            cw[p] ^= 0x55;
        }
        // Either an error is reported, or (rarely) miscorrection to a
        // different codeword; it must never silently return the original.
        match rs.decode(&cw) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, msg),
        }
    }

    #[test]
    fn corrupt_parity_symbols_also_corrected() {
        let rs = ReedSolomon::new(8);
        let msg = b"parity errors too";
        let mut cw = rs.encode(msg);
        let n = cw.len();
        cw[n - 1] ^= 0xA5;
        cw[n - 3] ^= 0x11;
        assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn max_length_block() {
        let rs = ReedSolomon::new(32);
        let msg: Vec<u8> = (0..223).map(|i| i as u8).collect(); // RS(255,223)
        let mut cw = rs.encode(&msg);
        assert_eq!(cw.len(), 255);
        for p in [0usize, 100, 254] {
            cw[p] ^= 0xFF;
        }
        assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn burst_errors_within_capacity() {
        let rs = ReedSolomon::new(16);
        let msg: Vec<u8> = (0..64).map(|i| (i * 3) as u8).collect();
        let mut cw = rs.encode(&msg);
        for p in 10..18 {
            cw[p] = !cw[p]; // 8 consecutive corrupted symbols
        }
        assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn rejects_short_codeword() {
        let rs = ReedSolomon::new(8);
        assert_eq!(rs.decode(&[1, 2, 3]), Err(DecodeError::CodewordTooShort));
    }

    #[test]
    fn rejects_long_codeword() {
        let rs = ReedSolomon::new(8);
        assert_eq!(rs.decode(&[0; 256]), Err(DecodeError::CodewordTooLong));
        assert_eq!(rs.correct(&mut [0; 256]), Err(DecodeError::CodewordTooLong));
        assert_eq!(rs.decode(&[0; 255]), Ok(vec![0; 247]));
        assert_eq!(
            DecodeError::CodewordTooLong.to_string(),
            "codeword longer than 255 symbols"
        );
    }

    #[test]
    fn all_zero_codeword_is_the_zero_message() {
        for parity in [8, 16, 32] {
            let rs = ReedSolomon::new(parity);
            for len in [parity, parity + 1, 100, 255] {
                assert_eq!(rs.decode(&vec![0; len]), Ok(vec![0; len - parity]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn encode_rejects_oversized_block() {
        let rs = ReedSolomon::new(8);
        rs.encode(&vec![0u8; 250]);
    }

    #[test]
    fn generator_has_expected_degree() {
        let rs = ReedSolomon::new(12);
        assert_eq!(rs.correction_capacity(), 6);
        assert_eq!(rs.parity_len(), 12);
    }

    /// The decoder this module shipped before its syndromes became table
    /// lookups and its Chien search log-domain registers: every step spelled
    /// out with `poly_eval` / `pow` / `mul`. The oracle for `decode` on
    /// every input, decodable or not.
    fn decode_reference(rs: &ReedSolomon, codeword: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let f = &rs.field;
        let syndromes = |word: &[u8]| -> Vec<u8> {
            (0..rs.parity)
                .map(|i| f.poly_eval(word, f.alpha_pow(i as i32)))
                .collect()
        };
        if codeword.len() < rs.parity {
            return Err(DecodeError::CodewordTooShort);
        }
        if codeword.len() > 255 {
            return Err(DecodeError::CodewordTooLong);
        }
        let synd = syndromes(codeword);
        if synd.iter().all(|&s| s == 0) {
            return Ok(codeword[..codeword.len() - rs.parity].to_vec());
        }
        let mut sigma = vec![1u8];
        let mut prev = vec![1u8];
        let (mut l, mut m, mut b) = (0usize, 1usize, 1u8);
        for n in 0..rs.parity {
            let mut d = synd[n];
            for i in 1..=l {
                if i < sigma.len() {
                    d ^= f.mul(sigma[i], synd[n - i]);
                }
            }
            if d == 0 {
                m += 1;
                continue;
            }
            let temp = sigma.clone();
            let coef = f.div(d, b);
            let mut shifted = vec![0u8; m];
            shifted.extend_from_slice(&prev);
            if shifted.len() > sigma.len() {
                sigma.resize(shifted.len(), 0);
            }
            for (s, &p) in sigma.iter_mut().zip(shifted.iter()) {
                *s ^= f.mul(coef, p);
            }
            if 2 * l <= n {
                l = n + 1 - l;
                prev = temp;
                b = d;
                m = 1;
            } else {
                m += 1;
            }
        }
        while sigma.last() == Some(&0) {
            sigma.pop();
        }
        let num_errors = sigma.len() - 1;
        if num_errors > rs.correction_capacity() {
            return Err(DecodeError::TooManyErrors);
        }
        let n_len = codeword.len();
        let mut error_positions = Vec::new();
        for j in 0..n_len {
            let x_inv = f.alpha_pow(-(j as i32));
            let mut acc = 0u8;
            for (i, &c) in sigma.iter().enumerate() {
                acc ^= f.mul(c, f.pow(x_inv, i as u32));
            }
            if acc == 0 {
                error_positions.push(n_len - 1 - j);
            }
        }
        if error_positions.len() != num_errors {
            return Err(DecodeError::TooManyErrors);
        }
        let mut omega = vec![0u8; rs.parity];
        for (i, om) in omega.iter_mut().enumerate() {
            for k in 0..=i {
                if k < sigma.len() {
                    *om ^= f.mul(sigma[k], synd[i - k]);
                }
            }
        }
        let mut corrected = codeword.to_vec();
        for &p in &error_positions {
            let j = (n_len - 1 - p) as i32;
            let x_inv = f.alpha_pow(-j);
            let mut omega_val = 0u8;
            for (i, &c) in omega.iter().enumerate() {
                omega_val ^= f.mul(c, f.pow(x_inv, i as u32));
            }
            let mut sigma_deriv = 0u8;
            for (i, &c) in sigma.iter().enumerate() {
                if i % 2 == 1 {
                    sigma_deriv ^= f.mul(c, f.pow(x_inv, (i - 1) as u32));
                }
            }
            if sigma_deriv == 0 {
                return Err(DecodeError::TooManyErrors);
            }
            corrected[p] ^= f.mul(f.alpha_pow(j), f.div(omega_val, sigma_deriv));
        }
        if syndromes(&corrected).iter().any(|&s| s != 0) {
            return Err(DecodeError::TooManyErrors);
        }
        Ok(corrected[..n_len - rs.parity].to_vec())
    }

    /// A corrupted codeword: parity, message, and `(position, flip)` draws
    /// that [`corrupt`] folds onto distinct positions.
    type Case = (usize, Vec<u8>, Vec<(usize, u8)>);

    fn case_gen() -> gens::Gen<Case> {
        gens::zip3(
            gens::choose(vec![8usize, 16, 32]),
            gens::vec_of(gens::byte_any(), 0..248),
            gens::vec_of(
                gens::zip2(
                    gens::usize_in(0..255),
                    gens::u64_in(1..256).map(|v| v as u8),
                ),
                0..33,
            ),
        )
    }

    /// Encodes the case's message (cut to fit the block) and flips up to
    /// `parity` distinct symbols among the last `span` of the codeword.
    /// Returns the codec, the message, the clean and the corrupted word and
    /// the number of symbols that differ.
    fn corrupt(
        (parity, message, flips): &Case,
        span: impl Fn(usize, usize) -> usize,
    ) -> (ReedSolomon, Vec<u8>, Vec<u8>, Vec<u8>, usize) {
        let rs = ReedSolomon::new(*parity);
        let message = message[..message.len().min(255 - parity)].to_vec();
        let clean = rs.encode(&message);
        let mut word = clean.clone();
        let span = span(clean.len(), *parity);
        for &(pos, flip) in flips.iter().take(*parity) {
            let p = clean.len() - 1 - pos % span;
            if word[p] == clean[p] {
                word[p] ^= flip;
            }
        }
        let errors = word.iter().zip(&clean).filter(|(a, b)| a != b).count();
        (rs, message, clean, word, errors)
    }

    fn hamming(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    /// Up to `t` errors anywhere decode to exactly the message; more either
    /// fail or land on another codeword within `t` of the input — never a
    /// silent wrong success — and the table-driven decoder agrees with the
    /// reference on every input.
    #[test]
    fn decode_is_exact_within_capacity_and_never_silently_wrong() {
        check("rs_decode_oracle", &case_gen(), |case: &Case| {
            let (rs, message, _, word, errors) = corrupt(case, |len, _| len);
            let got = rs.decode(&word);
            prop_assert_eq!(got, decode_reference(&rs, &word));
            let t = rs.correction_capacity();
            match got {
                Ok(decoded) if errors <= t => prop_assert_eq!(decoded, message),
                Ok(decoded) => {
                    prop_assert!(decoded != message, "{errors} errors decoded as if none");
                    prop_assert!(hamming(&rs.encode(&decoded), &word) <= t);
                }
                Err(e) => {
                    prop_assert!(errors > t, "{errors} <= {t} errors gave {e}");
                    prop_assert_eq!(e, DecodeError::TooManyErrors);
                }
            }
            Ok(())
        });
    }

    /// Errors confined to the parity symbols leave the message as sent.
    #[test]
    fn parity_region_errors_never_touch_the_message() {
        check("rs_parity_region", &case_gen(), |case: &Case| {
            let (rs, message, _, word, errors) = corrupt(case, |_, parity| parity);
            let got = rs.decode(&word);
            prop_assert_eq!(got, decode_reference(&rs, &word));
            if errors <= rs.correction_capacity() {
                prop_assert_eq!(got, Ok(message));
            }
            Ok(())
        });
    }

    /// In-place correction restores the whole codeword, parity included.
    #[test]
    fn correct_restores_the_clean_codeword_in_place() {
        check("rs_correct_in_place", &case_gen(), |case: &Case| {
            let (rs, message, clean, mut word, errors) = corrupt(case, |len, _| len);
            if errors <= rs.correction_capacity() {
                prop_assert_eq!(rs.correct(&mut word), Ok(message.len()));
                prop_assert_eq!(word, clean);
            }
            Ok(())
        });
    }
}
