//! Multiplicities.
//!
//! The "ring of databases" view (Koch, PODS'10) underlying DBToaster treats a
//! relation as a function from tuples to elements of a commutative ring.
//! Aggregates live in multiplicities per the paper's data model, so the
//! engine instantiates that ring with [`f64`] ([`Mult`]), and incremental
//! maintenance relies only on its laws.

/// Tolerance below which a floating-point multiplicity counts as zero.
/// Incremental `+=`/`-=` of doubles accumulates rounding error; without a
/// tolerance, views would retain ghost tuples with multiplicities like 1e-13.
pub const MULT_EPSILON: f64 = 1e-9;

/// The multiplicity type used by the execution engine.  Aggregate values are
/// carried in multiplicities per the paper's data model, so a real-valued
/// ring is the natural default.
pub type Mult = f64;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ring laws incremental maintenance relies on hold for [`Mult`]
    /// (exactly for these operands), and [`MULT_EPSILON`] separates a
    /// rounding residue from a small multiplicity.
    #[test]
    fn f64_ring_laws() {
        let (a, b): (Mult, Mult) = (1.5, -2.25);
        assert_eq!(a + 0.0, a);
        assert_eq!(a * 1.0, a);
        assert_eq!(a + -a, 0.0);
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!(a * (b + 4.0), a * b + a * 4.0);
        assert!((0.1 + 0.2 - 0.3 as Mult).abs() < MULT_EPSILON);
        assert!((1e-3 as Mult).abs() >= MULT_EPSILON);
    }

    proptest! {
        #[test]
        fn prop_f64_additive_inverse(a in -1e6f64..1e6) {
            let a: Mult = a;
            prop_assert_eq!(a + -a, 0.0);
        }
    }
}
