"""A small expression language over the quantum matrix algebra.

Grammar, with the usual precedence (power binds tightest, then products,
then sums):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' ['-'] integer]
    atom   := 'x' '[' int ',' int ']'
            | 'minor' '[' ints '|' ints ']'
            | 'q'
            | integer ['/' integer]
            | '(' expr ')'

Negative powers are allowed only on invertible expressions: nonzero
rationals and single-term Laurent scalars such as q or 2*q^3.  Every
syntax or semantic problem raises ExprSyntaxError carrying the character
offset where it was detected.

A power p^k raises DegreeTooLarge before anything is multiplied when
|k| times the size of p's largest coefficient (its bits plus its span of
q exponents) exceeds POWER_SIZE_GUARD, or when p is not a scalar and the
degree-(k * deg p) component is larger than algebra.DIM_GUARD.
"""

import re
from fractions import Fraction

from .errors import (DegreeTooLarge, ExprSyntaxError, IndexOutOfShape,
                     SizeMismatch)
from .algebra import DIM_GUARD, NCPoly, graded_dim
from .minors import Minor, minor_value
from .scalars import Q

#: bound on |k| * (size of the base's largest coefficient) for p^k
POWER_SIZE_GUARD = 2000

_TOKEN_RE = re.compile(r"(\d+)|(minor|x|q)\b|([\[\](),|+\-*^/])|(\S)")


def _tokenize(text):
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        pos = match.start()
        if match.group(1) is not None:
            try:
                value = int(match.group(1))
            except ValueError:   # longer than sys.get_int_max_str_digits()
                raise ExprSyntaxError("integer literal too long", pos) from None
            tokens.append(("int", value, pos))
        elif match.group(2) is not None:
            tokens.append(("name", match.group(2), pos))
        elif match.group(3) is not None:
            tokens.append((match.group(3), match.group(3), pos))
        else:
            raise ExprSyntaxError("unexpected character %r" % match.group(4), pos)
    tokens.append(("end", None, len(text)))
    return tokens


def _coefficient_size(c):
    """Bits of a LaurentScalar's largest coefficient plus its q-span."""
    bits = max(abs(v.numerator).bit_length() + v.denominator.bit_length() - 1
               for v in c.terms.values())
    return bits + max(c.terms) - min(c.terms)


def _check_power(p, k):
    """Raise DegreeTooLarge if p^k would be too large to compute."""
    size = max(map(_coefficient_size, p.terms.values()), default=1)
    if abs(k) * size > POWER_SIZE_GUARD:
        raise DegreeTooLarge(
            "power %d of a base with coefficients of size %d exceeds the "
            "guard %d" % (k, size, POWER_SIZE_GUARD))
    degree = p.degree()
    if degree > 0 and graded_dim(p.shape, k * degree) > DIM_GUARD:
        raise DegreeTooLarge(
            "power %d of a degree-%d expression reaches a component of "
            "dimension above %d" % (k, degree, DIM_GUARD))


class _Parser:
    def __init__(self, text, shape):
        self.text = text
        self.shape = shape
        self.tokens = _tokenize(text)
        self.k = 0

    # token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError("expected %s" % (what or kind), tok[2])
        return tok

    # grammar -----------------------------------------------------------

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return p

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            p = p + rhs if op == "+" else p - rhs
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self):
        p = self.atom()
        if self.peek()[0] != "^":
            return p
        caret = self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        k = sign * self.expect("int", "an integer exponent")[1]
        _check_power(p, k)
        if k >= 0:
            return p ** k
        if len(p.terms) == 1:
            (exps, c), = p.terms.items()
            if not any(exps) and c.is_single_term:
                return NCPoly.scalar(self.shape, c.unit_inverse() ** (-k))
        raise ExprSyntaxError("negative power of a non-invertible expression",
                              caret[2])

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "(":
            p = self.expr()
            self.expect(")", "a closing parenthesis")
            return p
        if kind == "int":
            num = value
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("int", "a denominator")
                if dtok[1] == 0:
                    raise ExprSyntaxError("zero denominator", dtok[2])
                return NCPoly.scalar(self.shape, Fraction(num, dtok[1]))
            return NCPoly.scalar(self.shape, Fraction(num))
        if kind == "name" and value == "q":
            return NCPoly.scalar(self.shape, Q)
        if kind == "name" and value == "x":
            self.expect("[", "'['")
            i = self.expect("int", "a row index")[1]
            self.expect(",", "','")
            j = self.expect("int", "a column index")[1]
            self.expect("]", "']'")
            try:
                return NCPoly.generator(self.shape, i, j)
            except IndexOutOfShape as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        if kind == "name" and value == "minor":
            self.expect("[", "'['")
            rows = self._int_list()
            self.expect("|", "'|'")
            cols = self._int_list()
            self.expect("]", "']'")
            try:
                return minor_value(Minor(self.shape, rows, cols))
            except (IndexOutOfShape, SizeMismatch) as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        raise ExprSyntaxError("expected a value", pos)

    def _int_list(self):
        if self.peek()[0] != "int":
            return ()
        out = [self.advance()[1]]
        while self.peek()[0] == ",":
            self.advance()
            out.append(self.expect("int", "an index")[1])
        return tuple(out)


def parse_expression(text, shape):
    """Evaluate the expression text to an NCPoly over the shape."""
    return _Parser(text, shape).parse()


def parse_index_pair(text):
    """Parse a minor description like "1,3|1,2" into (rows, cols).

    Used for command-line arguments; whitespace is ignored and either side
    may be empty.
    """
    if text.count("|") != 1:
        raise ExprSyntaxError("expected exactly one '|'", 0)
    sides = text.split("|")
    out = []
    offset = 0
    for side in sides:
        items = []
        stripped = side.strip()
        if stripped:
            for piece in stripped.split(","):
                piece = piece.strip()
                if not re.fullmatch(r"\d+", piece):
                    raise ExprSyntaxError("expected an integer index, got %r"
                                          % piece, offset)
                items.append(int(piece))
        out.append(tuple(items))
        offset = len(sides[0]) + 1
    return out[0], out[1]
