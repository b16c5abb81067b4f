"""Exact coefficient arithmetic: Laurent polynomials in q over the
integers, the one scalar type of the workbench.

Every identity the workbench certifies is checked with q transcendental,
so a verified identity holds under any nonzero specialization of q.
All structure constants of the algebra, the quantum minors, the torus
eigenvalues +-q^k and the normality scalars live in Z[q, q^-1]; elimination
is fraction-free, and every scalar a check predicts (normality scalars,
straightening coefficients) is a LaurentScalar proved by an exact
product comparison.  Nothing here divides one polynomial by another:
the only inverse is that of a unit +-q^e.

Coefficients are Python ints, and the constructor refuses anything else
with TypeError, so structure constants, minors and ideal rows are pure
int arithmetic.  Rationals enter the workbench only through the
expression parser, which keeps a common denominator beside an integer
polynomial; no result here leaves Z[q, q^-1].

Instances are immutable: no code may mutate `terms` after construction.
The caching layers hand one result to every caller, and every internal
result of the form +-q^k with |k| <= UNIT_RANGE is one shared instance
from a table built at import (ONE, Q, Q_INV and MINUS_Q among them), so
a mutation would change every coefficient equal to it.  The sharing keeps
the memos from holding many equal one-term scalars, and lets the product
kernel skip multiplications by ONE with an `is` test.
"""

from math import gcd


def _as_laurent(x):
    """A LaurentScalar operand from a LaurentScalar or an int."""
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, int):
        return LaurentScalar({0: x})
    return NotImplemented


def _laurent(terms):
    """A LaurentScalar over a terms dict of nonzero int coefficients.

    +-q^k with |k| <= UNIT_RANGE is the shared instance from _UNITS;
    any other dict is taken over, not copied.
    """
    if len(terms) == 1:
        (item,) = terms.items()
        unit = _UNITS.get(item)
        if unit is not None:
            return unit
    r = LaurentScalar.__new__(LaurentScalar)
    r.terms = terms
    r._hash = None
    return r


class LaurentScalar:
    """Sparse Laurent polynomial in q with integer coefficients.

    terms maps integer exponents to nonzero int coefficients; the zero
    polynomial is the empty map.  The representation is canonical, so
    structural equality is mathematical equality.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not int:
                    raise TypeError("coefficients are ints, got %r" % (c,))
                if c:
                    clean[e] = c
        self.terms = clean
        self._hash = None

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
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return ZERO
            return _laurent({e: c * other for e, c in self.terms.items()})
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
    def leading_coeff(self):
        """Coefficient of the highest power of q."""
        return self.terms[max(self.terms)]

    @property
    def is_unit(self):
        """True for the units +-q^e of Z[q, q^-1]."""
        return len(self.terms) == 1 and abs(self.leading_coeff) == 1

    def unit_inverse(self):
        """Inverse of a unit +-q^e, namely +-q^-e."""
        if not self.is_unit:
            raise ValueError("not a unit of Z[q, q^-1]: %s" % self)
        (e, c), = self.terms.items()
        return _laurent({-e: c})

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


def render_laurent(a, den=1):
    """Deterministic text form, exponents descending: 'q - q^-1', '1 - q^-2'.

    The text is that of a / den, den a positive int: each coefficient
    c prints as the fraction c/den in lowest terms ('1/2*q + 1/3').
    """
    if not a.terms:
        return "0"
    parts = []
    for e in sorted(a.terms, reverse=True):
        c = a.terms[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        g = gcd(c, den)
        c = str(c // g) if g == den else "%d/%d" % (c // g, den // g)
        if e == 0:
            body = c
        else:
            qpow = "q" if e == 1 else "q^%d" % e
            body = qpow if c == "1" else "%s*%s" % (c, qpow)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text
