"""Exact coefficient arithmetic: Laurent polynomials in q over the
rationals, the one scalar type of the workbench.

Every identity the workbench certifies is checked with q transcendental,
so a verified identity holds under any nonzero specialization of q.
All structure constants of the algebra live in Z[q, q^-1], elimination
is fraction-free, and every scalar a check predicts (normality scalars,
straightening coefficients) is a LaurentScalar proved by an exact
product comparison.  Nothing here divides one polynomial by another:
the only inverse is that of a unit c*q^e.

Coefficients are Python ints whenever they are integral, and a
`fractions.Fraction` only when they are not (parser rationals, unit
inverses, specialization).  Structure constants, minors and ideal rows
are therefore pure int arithmetic.  Every coefficient division goes
through `_exact_div`, which stays in the integers when the division is
exact and never yields a float.

Instances are immutable: no code may mutate `terms` after construction.
The caching layers hand one result to every caller, and every internal
result of the form +-q^k with |k| <= UNIT_RANGE is one shared instance
from a table built at import (ONE, Q, Q_INV and MINUS_Q among them), so
a mutation would change every coefficient equal to it.  The sharing keeps
the memos from holding many equal one-term scalars, and lets the product
kernel skip multiplications by ONE with an `is` test.
"""

import warnings
from fractions import Fraction


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

    +-q^k with |k| <= UNIT_RANGE is the shared instance from _UNITS.
    Otherwise the dict is taken over, not copied: all-int dicts (the hot
    path) are used as they are; any other goes through the constructor,
    which turns integral Fractions into ints.
    """
    if len(terms) == 1:
        (item,) = terms.items()
        unit = _UNITS.get(item)
        if unit is not None:
            return unit
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


#: largest |k| whose +-q^k _laurent hands out as one shared instance
UNIT_RANGE = 64

#: (k, c) -> the shared c*q^k, for c = +-1 and |k| <= UNIT_RANGE
_UNITS = {(k, c): LaurentScalar({k: c})
          for k in range(-UNIT_RANGE, UNIT_RANGE + 1) for c in (1, -1)}

ZERO = LaurentScalar()
ONE = _UNITS[0, 1]
Q = _UNITS[1, 1]
Q_INV = _UNITS[-1, 1]
QHAT = LaurentScalar({1: 1, -1: -1})  # q - q^-1
MINUS_Q = _UNITS[1, -1]


def minus_q_power(k):
    """(-q)^k as a LaurentScalar, any integer k (shared, |k| <= UNIT_RANGE)."""
    return _laurent({k: 1 if k % 2 == 0 else -1})


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
