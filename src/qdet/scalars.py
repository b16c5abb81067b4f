"""Exact coefficient arithmetic: Laurent polynomials in q over the
rationals, and the fraction field built on top of them.

Every identity the workbench certifies is checked with q transcendental,
so a verified identity holds under any specialization of q except the
finitely many poles excluded per value.  LaurentScalar is the workhorse
(all structure constants of the algebra live in Z[q, q^-1]); elimination
never divides, and a RationalScalar is built only to print the
straightening coefficients that tower.subalgebra_commutation_check
solves for.

Coefficients are Python ints whenever they are integral, and a
`fractions.Fraction` only when they are not (parser rationals, unit
inverses, RationalScalar numerators, specialization).  Structure
constants, minors and ideal rows are therefore pure int arithmetic.
Every coefficient division goes through `_exact_div`, which stays in
the integers when the division is exact and never yields a float.

Instances are immutable by convention: no method mutates `terms` after
construction, which is what makes the caching layers safe.
"""

import warnings
from fractions import Fraction

from .errors import PoleAtSpecialization


class DegenerateSpecializationWarning(UserWarning):
    """q0 in {1, -1} collapses the quantum relations to classical ones."""


def _coerce_fraction(x):
    """An int or Fraction coefficient as an int when integral."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _exact_div(a, b):
    """a / b for int or Fraction coefficients, never a float.

    An int when b divides a in the integers, otherwise a Fraction.
    """
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        return quot if not rem else Fraction(a, b)
    return _coerce_fraction(Fraction(a) / b)


def _as_laurent(x):
    """A LaurentScalar operand from a LaurentScalar, int or Fraction."""
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentScalar.from_rational(x)
    return NotImplemented


def _laurent(terms):
    """A LaurentScalar over a terms dict with no zero coefficients.

    The dict is taken over, not copied.  All-int dicts (the hot path) are
    used as they are; any other goes through the constructor, which turns
    integral Fractions into ints.
    """
    # int + Fraction is a Fraction, so the sum is an int iff every term is
    if type(sum(terms.values())) is not int:
        return LaurentScalar(terms)
    r = LaurentScalar.__new__(LaurentScalar)
    r.terms = terms
    r._hash = None
    return r


class LaurentScalar:
    """Sparse Laurent polynomial in q with rational coefficients.

    terms maps integer exponents to nonzero coefficients: an int when
    integral, otherwise a Fraction.  The zero polynomial is the empty map.
    The representation is canonical, so structural equality is
    mathematical equality.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _coerce_fraction(c)
                if c:
                    clean[e] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def from_rational(cls, c):
        c = _coerce_fraction(c)
        return cls({0: c}) if c else ZERO

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        if type(other) is not LaurentScalar:
            other = _as_laurent(other)
            if other is NotImplemented:
                return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return _laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not LaurentScalar:
            other = _as_laurent(other)
            if other is NotImplemented:
                return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _laurent(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentScalar:
            if isinstance(other, (int, Fraction)):
                other = _coerce_fraction(other)
                if not other:
                    return ZERO
                return _laurent({e: c * other for e, c in self.terms.items()})
            if not isinstance(other, LaurentScalar):
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(a) == 1:
            (e1, c1), = a.items()
            return _laurent({e1 + e: c1 * c for e, c in b.items()})
        if len(b) == 1:
            (e1, c1), = b.items()
            return _laurent({e1 + e: c1 * c for e, c in a.items()})
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _laurent(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("LaurentScalar powers must be nonnegative ints")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __truediv__(self, other):
        if type(other) is not LaurentScalar:
            other = _as_laurent(other)
            if other is NotImplemented:
                return other
        return RationalScalar(self, other)

    # ------------------------------------------------------------------
    # queries

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_single_term(self):
        return len(self.terms) == 1

    @property
    def min_exp(self):
        return min(self.terms)

    @property
    def max_exp(self):
        return max(self.terms)

    @property
    def leading_coeff(self):
        """Coefficient of the highest power of q."""
        return self.terms[max(self.terms)]

    def single_term(self):
        """Return (exponent, coefficient) for a one-term scalar."""
        if len(self.terms) != 1:
            raise ValueError("not a single-term scalar: %s" % self)
        (e, c), = self.terms.items()
        return e, c

    def unit_inverse(self):
        """Inverse of a one-term scalar c*q^e, namely (1/c)*q^-e."""
        e, c = self.single_term()
        return _laurent({-e: _exact_div(1, c)})

    def shift(self, k):
        """Multiply by q^k."""
        if not k or not self.terms:
            return self
        return _laurent({e + k: c for e, c in self.terms.items()})

    def specialize(self, q0):
        """Evaluate at a nonzero rational q0; the value is a Fraction.

        Warns when q0 is 1 or -1, where the quantum structure degenerates.
        """
        q0 = _coerce_fraction(q0)
        if q0 == 0:
            raise ValueError("cannot specialize a Laurent polynomial at q = 0")
        if q0 == 1 or q0 == -1:
            warnings.warn(
                "specializing at q0 = %s degenerates the quantum relations" % q0,
                DegenerateSpecializationWarning,
                stacklevel=2,
            )
        total = 0
        for e, c in self.terms.items():
            total += c * q0 ** e if e >= 0 else _exact_div(c, q0 ** -e)
        return Fraction(total)

    # ------------------------------------------------------------------
    # comparisons and rendering

    def __eq__(self, other):
        if type(other) is not LaurentScalar:
            other = _as_laurent(other)
            if other is NotImplemented:
                return other
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __str__(self):
        return render_laurent(self)

    def __repr__(self):
        return "LaurentScalar(%s)" % render_laurent(self)


ZERO = LaurentScalar()
ONE = LaurentScalar({0: 1})
Q = LaurentScalar({1: 1})
Q_INV = LaurentScalar({-1: 1})
QHAT = LaurentScalar({1: 1, -1: -1})  # q - q^-1
MINUS_Q = LaurentScalar({1: -1})


def minus_q_power(k):
    """(-q)^k as a LaurentScalar, any integer k."""
    return LaurentScalar({k: 1 if k % 2 == 0 else -1})


def render_laurent(a):
    """Deterministic text form, exponents descending: 'q - q^-1', '1 - q^-2'."""
    if not a.terms:
        return "0"
    parts = []
    for e in sorted(a.terms, reverse=True):
        c = a.terms[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            qpow = "q" if e == 1 else "q^%d" % e
            body = qpow if c == 1 else "%s*%s" % (c, qpow)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


# ----------------------------------------------------------------------
# dense polynomial helpers (internal): a poly is a list of int or Fraction
# coefficients, index = exponent, last entry nonzero, [] = zero.


def _to_poly(a):
    """LaurentScalar -> (coeff list, shift) with poly[0] != 0."""
    if not a.terms:
        return [], 0
    lo = min(a.terms)
    hi = max(a.terms)
    coeffs = [0] * (hi - lo + 1)
    for e, c in a.terms.items():
        coeffs[e - lo] = c
    return coeffs, lo


def _from_poly(coeffs, shift=0):
    return LaurentScalar({i + shift: c for i, c in enumerate(coeffs) if c})


def _poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a, b):
    """Long division in Q[q]; returns (quotient, remainder)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = _exact_div(a[i + len(b) - 1], lead)
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b):
    """Monic gcd in Q[q] by the Euclidean algorithm."""
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        if lead != 1:
            a = [_exact_div(c, lead) for c in a]
    return a


class RationalScalar:
    """Element of Q(q) as a reduced fraction of Laurent polynomials.

    Canonical form: numerator and denominator coprime in Q[q], denominator
    a monic polynomial with nonzero constant term (lowest exponent 0).
    Monic is a deliberate strengthening of "positive leading coefficient":
    it makes structural equality decide mathematical equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, (int, Fraction)):
            num = LaurentScalar.from_rational(num)
        if isinstance(den, (int, Fraction)):
            den = LaurentScalar.from_rational(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if num.is_zero:
            self.num = ZERO
            self.den = ONE
            return
        pn, sn = _to_poly(num)
        pd, sd = _to_poly(den)
        g = _poly_gcd(pn, pd)
        if len(g) > 1 or (g and g[0] != 1):
            pn, _ = _poly_divmod(pn, g)
            pd, _ = _poly_divmod(pd, g)
        lead = pd[-1]
        if lead != 1:
            pn = [_exact_div(c, lead) for c in pn]
            pd = [_exact_div(c, lead) for c in pd]
        self.num = _from_poly(pn, sn - sd)
        self.den = _from_poly(pd)

    @classmethod
    def from_laurent(cls, a):
        r = cls.__new__(cls)
        r.num = a
        r.den = ONE
        return r

    # ------------------------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num.terms)

    def to_laurent(self):
        """Lossless round trip when the denominator is 1."""
        if self.den == ONE:
            return self.num
        raise ValueError("denominator is not 1: %s" % self)

    def __add__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return other
        return RationalScalar(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RationalScalar.__new__(RationalScalar)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return other
        return RationalScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return other
        if other.is_zero:
            raise ZeroDivisionError("division by zero in Q(q)")
        return RationalScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return other
        return other / self

    def inverse(self):
        return RationalScalar(ONE, ONE) / self

    def specialize(self, q0):
        q0 = _coerce_fraction(q0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSpecializationWarning)
            d = self.den.specialize(q0)
        if d == 0:
            raise PoleAtSpecialization(
                "denominator %s vanishes at q0 = %s" % (self.den, q0))
        return self.num.specialize(q0) / d

    def __eq__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == ONE:
            return render_laurent(self.num)
        return "(%s)/(%s)" % (render_laurent(self.num), render_laurent(self.den))

    def __repr__(self):
        return "RationalScalar(%s)" % self


def _as_rational(x):
    if isinstance(x, RationalScalar):
        return x
    if isinstance(x, LaurentScalar):
        return RationalScalar.from_laurent(x)
    if isinstance(x, (int, Fraction)):
        return RationalScalar.from_laurent(LaurentScalar.from_rational(x))
    return NotImplemented


RAT_ZERO = RationalScalar.from_laurent(ZERO)
RAT_ONE = RationalScalar.from_laurent(ONE)
