//! Minimal base-10 digit vectors for the 3SAT → BSS construction.
//!
//! The appendix encoding builds numbers with `n + 2m + 1` decimal digits
//! and relies on the fact that no digit column ever carries (the largest
//! column sum is 9). A digit vector with explicit addition keeps the
//! construction faithful and overflow-free.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision non-negative integer stored as base-10 digits,
/// most significant first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Digits {
    /// Digits, most significant first; no leading zeros (empty = 0).
    digits: Vec<u8>,
}

impl Digits {
    /// Zero.
    pub fn zero() -> Self {
        Digits { digits: Vec::new() }
    }

    /// Builds from explicit digits (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if any digit is ≥ 10.
    pub fn from_digits(digits: Vec<u8>) -> Self {
        assert!(digits.iter().all(|&d| d < 10), "digit out of range");
        let first_nonzero = digits.iter().position(|&d| d != 0);
        Digits {
            digits: match first_nonzero {
                Some(k) => digits[k..].to_vec(),
                None => Vec::new(),
            },
        }
    }

    /// Builds from a `u64`.
    pub fn from_u64(mut v: u64) -> Self {
        let mut digits = Vec::new();
        while v > 0 {
            digits.push((v % 10) as u8);
            v /= 10;
        }
        digits.reverse();
        Digits { digits }
    }

    /// Number of digits (0 for zero).
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// `true` when the value is zero.
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Sum of two numbers.
    pub fn add(&self, other: &Digits) -> Digits {
        let mut a: Vec<u8> = self.digits.iter().rev().copied().collect();
        let b: Vec<u8> = other.digits.iter().rev().copied().collect();
        if a.len() < b.len() {
            a.resize(b.len(), 0);
        }
        let mut carry = 0u8;
        for (i, da) in a.iter_mut().enumerate() {
            let s = *da + b.get(i).copied().unwrap_or(0) + carry;
            *da = s % 10;
            carry = s / 10;
        }
        if carry > 0 {
            a.push(carry);
        }
        a.reverse();
        Digits::from_digits(a)
    }

    /// Doubles the number (used by the bounded-ness check `2·x > max`).
    pub fn double(&self) -> Digits {
        self.add(self)
    }
}

impl PartialOrd for Digits {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Digits {
    fn cmp(&self, other: &Self) -> Ordering {
        self.digits
            .len()
            .cmp(&other.digits.len())
            .then_with(|| self.digits.cmp(&other.digits))
    }
}

impl fmt::Display for Digits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.digits.is_empty() {
            return f.write_str("0");
        }
        for d in &self.digits {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64() {
        for v in [0u64, 1, 9, 10, 999, 123456789] {
            assert_eq!(Digits::from_u64(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn addition_matches_u64() {
        let cases = [(0u64, 0u64), (1, 9), (99, 1), (12345, 67890), (5, 5)];
        for (a, b) in cases {
            let s = Digits::from_u64(a).add(&Digits::from_u64(b));
            assert_eq!(s.to_string(), (a + b).to_string());
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Digits::from_u64(100) > Digits::from_u64(99));
        assert!(Digits::from_u64(100) < Digits::from_u64(101));
        assert_eq!(
            Digits::from_u64(42).cmp(&Digits::from_u64(42)),
            Ordering::Equal
        );
    }

    #[test]
    fn leading_zeros_normalized() {
        assert_eq!(Digits::from_digits(vec![0, 0, 7]), Digits::from_u64(7));
        assert!(Digits::from_digits(vec![0, 0]).is_empty());
        assert_eq!(Digits::zero().to_string(), "0");
    }

    #[test]
    fn double_doubles() {
        assert_eq!(Digits::from_u64(123).double(), Digits::from_u64(246));
    }
}
