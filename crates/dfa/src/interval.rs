//! The abstract value domain of the kernel interpreter: integer intervals.
//!
//! Kernel values are 32-bit words; the interpreter tracks them as `i64`
//! intervals saturated at ±[`INF`] so unknown quantities (token payloads,
//! `pedf.available(..)` results) have a representation. Arithmetic is
//! modeled without 32-bit wrap-around: results that could leave the `u32`
//! range widen towards infinity rather than wrapping, which keeps the
//! domain sound for everything the analyzer derives from it (io indices,
//! loop bounds, branch conditions — all small in practice).
//!
//! [`Iv::unary`] and [`Iv::binary`] are the one operator table: every
//! interval interpreter, over the kernelc AST or over its bytecode, maps
//! an operator onto a value through them.

use kernelc::ast::{BinOp, UnOp};

/// Pseudo-infinity. Far below `i64::MAX` so sums of two infinities cannot
/// overflow the machine integer.
pub const INF: i64 = i64::MAX / 4;

/// A closed interval `[lo, hi]`, `lo <= hi` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iv {
    pub lo: i64,
    pub hi: i64,
}

/// Three-valued truth of a branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    False,
    True,
    Maybe,
}

fn sat(v: i64) -> i64 {
    v.clamp(-INF, INF)
}

// The arithmetic names mirror the kernelc operators; they are two-operand
// associated functions, not operator-trait methods (no `self` receiver).
#[allow(clippy::should_implement_trait)]
impl Iv {
    pub fn new(lo: i64, hi: i64) -> Iv {
        debug_assert!(lo <= hi);
        Iv {
            lo: sat(lo),
            hi: sat(hi),
        }
    }

    pub fn exact(v: i64) -> Iv {
        Iv::new(v, v)
    }

    /// The full unknown-word range `[0, INF]`: kernel values are unsigned.
    pub fn top() -> Iv {
        Iv { lo: 0, hi: INF }
    }

    /// The widest interval, `[-INF, INF]`. Unlike [`Iv::top`] it keeps
    /// definitely-negative values, which `Neg` and signed shifts produce.
    pub fn full() -> Iv {
        Iv { lo: -INF, hi: INF }
    }

    /// A boolean-valued unknown, `[0, 1]`.
    pub fn boolean() -> Iv {
        Iv { lo: 0, hi: 1 }
    }

    pub fn as_exact(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    pub fn join(a: Iv, b: Iv) -> Iv {
        Iv {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
        }
    }

    /// Truthiness of the interval as a condition (`!= 0`).
    pub fn truth(&self) -> Tri {
        if self.lo == 0 && self.hi == 0 {
            Tri::False
        } else if self.lo > 0 || self.hi < 0 {
            Tri::True
        } else {
            Tri::Maybe
        }
    }

    pub fn from_bool(b: bool) -> Iv {
        Iv::exact(b as i64)
    }

    pub fn add(a: Iv, b: Iv) -> Iv {
        Iv::new(sat(a.lo + b.lo), sat(a.hi + b.hi))
    }

    pub fn sub(a: Iv, b: Iv) -> Iv {
        Iv::new(sat(a.lo - b.hi), sat(a.hi - b.lo))
    }

    pub fn mul(a: Iv, b: Iv) -> Iv {
        let cands = [
            a.lo.saturating_mul(b.lo),
            a.lo.saturating_mul(b.hi),
            a.hi.saturating_mul(b.lo),
            a.hi.saturating_mul(b.hi),
        ];
        Iv::new(*cands.iter().min().unwrap(), *cands.iter().max().unwrap())
    }

    pub fn div(a: Iv, b: Iv) -> Iv {
        // Division by an interval containing zero is unknown; the VM would
        // fault, the analyzer just loses precision.
        if b.lo <= 0 && b.hi >= 0 {
            return Iv::top();
        }
        let cands = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
        Iv::new(*cands.iter().min().unwrap(), *cands.iter().max().unwrap())
    }

    pub fn rem(a: Iv, b: Iv) -> Iv {
        match (a.as_exact(), b.as_exact()) {
            (Some(x), Some(y)) if y != 0 => Iv::exact(x % y),
            _ => {
                if b.lo > 0 {
                    // `x % y` for non-negative x lies in [0, y-1].
                    Iv::new(0, (b.hi - 1).max(0))
                } else {
                    Iv::top()
                }
            }
        }
    }

    pub fn shl(a: Iv, b: Iv) -> Iv {
        match (a.as_exact(), b.as_exact()) {
            (Some(x), Some(y)) if (0..32).contains(&y) => Iv::exact(sat(x << y)),
            _ => Iv::top(),
        }
    }

    pub fn shr(a: Iv, b: Iv) -> Iv {
        match (a.as_exact(), b.as_exact()) {
            (Some(x), Some(y)) if (0..32).contains(&y) && x >= 0 => Iv::exact(x >> y),
            _ => Iv::top(),
        }
    }

    pub fn bit_op(a: Iv, b: Iv, f: fn(i64, i64) -> i64) -> Iv {
        match (a.as_exact(), b.as_exact()) {
            (Some(x), Some(y)) => Iv::exact(sat(f(x, y))),
            _ => Iv::top(),
        }
    }

    // Comparison results are {0,1}-valued intervals, exact whenever the
    // operand ranges decide the outcome.
    pub fn lt(a: Iv, b: Iv) -> Iv {
        if a.hi < b.lo {
            Iv::exact(1)
        } else if a.lo >= b.hi {
            Iv::exact(0)
        } else {
            Iv::boolean()
        }
    }

    pub fn le(a: Iv, b: Iv) -> Iv {
        if a.hi <= b.lo {
            Iv::exact(1)
        } else if a.lo > b.hi {
            Iv::exact(0)
        } else {
            Iv::boolean()
        }
    }

    pub fn eq(a: Iv, b: Iv) -> Iv {
        match (a.as_exact(), b.as_exact()) {
            (Some(x), Some(y)) => Iv::from_bool(x == y),
            _ if a.hi < b.lo || b.hi < a.lo => Iv::exact(0),
            _ => Iv::boolean(),
        }
    }

    /// `op a` for a kernelc unary operator.
    pub fn unary(op: UnOp, a: Iv) -> Iv {
        match op {
            UnOp::Neg => Iv::sub(Iv::exact(0), a),
            UnOp::Not => match a.truth() {
                Tri::True => Iv::exact(0),
                Tri::False => Iv::exact(1),
                Tri::Maybe => Iv::boolean(),
            },
            UnOp::BitNot => match a.as_exact() {
                Some(x) if (0..=i64::from(u32::MAX)).contains(&x) => {
                    Iv::exact(i64::from(!(x as u32)))
                }
                _ => Iv::top(),
            },
        }
    }

    /// `a op b` for a kernelc binary operator, with both operands
    /// evaluated. `&&` and `||` combine the operands' truth; an
    /// interpreter that short-circuits decides first whether `b` runs.
    pub fn binary(op: BinOp, a: Iv, b: Iv) -> Iv {
        match op {
            BinOp::Add => Iv::add(a, b),
            BinOp::Sub => Iv::sub(a, b),
            BinOp::Mul => Iv::mul(a, b),
            BinOp::Div => Iv::div(a, b),
            BinOp::Rem => Iv::rem(a, b),
            BinOp::BitAnd => Iv::bit_op(a, b, |x, y| x & y),
            BinOp::BitOr => Iv::bit_op(a, b, |x, y| x | y),
            BinOp::BitXor => Iv::bit_op(a, b, |x, y| x ^ y),
            BinOp::Shl => Iv::shl(a, b),
            BinOp::Shr => Iv::shr(a, b),
            BinOp::Lt => Iv::lt(a, b),
            BinOp::Le => Iv::le(a, b),
            BinOp::Gt => Iv::lt(b, a),
            BinOp::Ge => Iv::le(b, a),
            BinOp::Eq => Iv::eq(a, b),
            BinOp::Ne => Iv::unary(UnOp::Not, Iv::eq(a, b)),
            BinOp::LAnd => match (a.truth(), b.truth()) {
                (Tri::False, _) | (_, Tri::False) => Iv::exact(0),
                (Tri::True, Tri::True) => Iv::exact(1),
                _ => Iv::boolean(),
            },
            BinOp::LOr => match (a.truth(), b.truth()) {
                (Tri::True, _) | (_, Tri::True) => Iv::exact(1),
                (Tri::False, Tri::False) => Iv::exact(0),
                _ => Iv::boolean(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactness_and_truth() {
        assert_eq!(Iv::exact(3).as_exact(), Some(3));
        assert_eq!(Iv::new(1, 2).as_exact(), None);
        assert_eq!(Iv::exact(0).truth(), Tri::False);
        assert_eq!(Iv::exact(7).truth(), Tri::True);
        assert_eq!(Iv::new(0, 1).truth(), Tri::Maybe);
        assert_eq!(Iv::new(1, INF).truth(), Tri::True);
    }

    #[test]
    fn arithmetic_stays_sound() {
        let a = Iv::new(1, 3);
        let b = Iv::new(10, 20);
        assert_eq!(Iv::add(a, b), Iv::new(11, 23));
        assert_eq!(Iv::sub(b, a), Iv::new(7, 19));
        assert_eq!(Iv::mul(a, b), Iv::new(10, 60));
        assert_eq!(Iv::div(b, Iv::exact(2)), Iv::new(5, 10));
        assert_eq!(Iv::div(b, Iv::new(0, 2)), Iv::top());
        assert_eq!(Iv::rem(Iv::top(), Iv::exact(4)), Iv::new(0, 3));
    }

    #[test]
    fn comparisons_decide_when_ranges_do() {
        assert_eq!(Iv::lt(Iv::new(0, 2), Iv::exact(5)), Iv::exact(1));
        assert_eq!(Iv::lt(Iv::exact(5), Iv::new(0, 5)), Iv::exact(0));
        assert_eq!(Iv::lt(Iv::new(0, 5), Iv::exact(3)), Iv::boolean());
        assert_eq!(Iv::eq(Iv::exact(4), Iv::exact(4)), Iv::exact(1));
        assert_eq!(Iv::eq(Iv::new(0, 2), Iv::new(5, 9)), Iv::exact(0));
    }

    #[test]
    fn saturation_never_overflows() {
        let big = Iv::new(INF - 1, INF);
        let r = Iv::add(big, big);
        assert_eq!(r.hi, INF);
        let m = Iv::mul(big, big);
        assert_eq!(m.hi, INF);
    }
}
