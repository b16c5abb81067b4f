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
offset where it was detected; so does a '(' nested deeper than
NESTING_GUARD, since the parser recurses on each.

Rationals enter the workbench only here: a value is a pair (p, den),
p an NCPoly over Z[q, q^-1] and den a positive int, reduced after each
operation so that den and p's coefficients have no common factor.

A power p^k raises DegreeTooLarge before anything is multiplied when
|k| times the size of p's largest coefficient (its bits plus its span of
q exponents) exceeds POWER_SIZE_GUARD, or when p is not a scalar and the
degree-(k * deg p) component is larger than algebra.DIM_GUARD.

Every product the parser forms, each '*' and each step of a power (the
parser multiplies a power out itself), is charged to one budget of
TERM_BUDGET Laurent terms: before it is formed, the pairings of its
operands' Laurent terms, which it must multiply; after, the Laurent terms
of its result.  DegreeTooLarge is raised as soon as the total passes the
budget, so neither a coefficient that grows with the power on a thin
shape nor a product of two guarded powers runs unbounded.

Every term holds an exponent tuple of m*n entries, so a wide shape needs
no product to run out of memory.  The terms an expression forms, each
atom's (one, or t! for a minor of size t) before the atom is formed and
each product's result after, are counted, and DegreeTooLarge is raised
as soon as that count times m*n passes ENTRY_GUARD (check_entries);
`compute minor` charges its minor the same way.
"""

import re
from math import factorial, gcd

from .errors import (DegreeTooLarge, ExprSyntaxError, IndexOutOfShape,
                     SizeMismatch)
from .algebra import DIM_GUARD, NCPoly, graded_dim
from .minors import MINOR_SIZE_GUARD, Minor, minor_value
from .scalars import LaurentScalar, Q

#: bound on |k| * (size of the base's largest coefficient) for p^k
POWER_SIZE_GUARD = 2000

#: Laurent terms the products of one expression may form in all
TERM_BUDGET = 10 ** 6

#: exponent entries, m*n per term, the terms of one expression may hold
ENTRY_GUARD = 10 ** 7

#: parentheses an expression may nest, each open one a few parser frames
NESTING_GUARD = 100

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


def _coefficient_size(c, den):
    """Bits of c's largest coefficient v / den, in lowest terms, plus the
    q-span of the LaurentScalar c."""
    bits = 0
    for v in c.terms.values():
        g = gcd(v, den)
        num, d = abs(v) // g, den // g
        bits = max(bits, num.bit_length() + d.bit_length() - 1)
    return bits + max(c.terms) - min(c.terms)


def _check_power(p, den, k):
    """Raise DegreeTooLarge if (p / den)^k would be too large to compute."""
    size = max((_coefficient_size(c, den) for c in p.terms.values()),
               default=1)
    if abs(k) * size > POWER_SIZE_GUARD:
        raise DegreeTooLarge(
            "power %d of a base with coefficients of size %d exceeds the "
            "guard %d" % (k, size, POWER_SIZE_GUARD))
    degree = p.degree()
    if degree > 0 and graded_dim(p.shape, k * degree) > DIM_GUARD:
        raise DegreeTooLarge(
            "power %d of a degree-%d expression reaches a component of "
            "dimension above %d" % (k, degree, DIM_GUARD))


def check_entries(shape, terms):
    """Raise DegreeTooLarge when terms exponent tuples of the shape would
    hold more than ENTRY_GUARD entries; called before they are formed."""
    entries = terms * shape.ngens
    if entries > ENTRY_GUARD:
        raise DegreeTooLarge("%d terms on %s hold %d exponent entries "
                             "(guard %d)" % (terms, shape, entries,
                                             ENTRY_GUARD))


def minor_terms(minor):
    """The t! terms minor_value forms for a minor of size t; 0 past
    MINOR_SIZE_GUARD, where minor_value refuses with its own message."""
    return factorial(minor.size) if minor.size <= MINOR_SIZE_GUARD else 0


def _laurent_terms(p):
    return sum(len(c.terms) for c in p.terms.values())


def _reduced(p, den):
    """(p, den) with the gcd of den and p's coefficients divided out."""
    g = gcd(den, *[v for c in p.terms.values() for v in c.terms.values()])
    if g == 1:
        return p, den
    return NCPoly(p.shape, {
        e: LaurentScalar({k: v // g for k, v in c.terms.items()})
        for e, c in p.terms.items()}), den // g


class _Parser:
    def __init__(self, text, shape):
        self.text = text
        self.shape = shape
        self.tokens = _tokenize(text)
        self.k = 0
        self.spent = 0
        self.formed = 0
        self.depth = 0

    def form(self, terms):
        """Count terms formed by the expression, before or as they are."""
        self.formed += terms
        check_entries(self.shape, self.formed)

    def charge(self, terms):
        self.spent += terms
        if self.spent > TERM_BUDGET:
            raise DegreeTooLarge(
                "the products of the expression form more than %d Laurent "
                "terms" % TERM_BUDGET)

    def multiply(self, a, b):
        """a * b for two (p, den) pairs, charged to the term budget
        before and after."""
        (pa, da), (pb, db) = a, b
        self.charge(_laurent_terms(pa) * _laurent_terms(pb))
        p = pa * pb
        self.charge(_laurent_terms(p))
        self.form(len(p.terms))
        return _reduced(p, da * db)

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
            p = (-p[0], p[1])
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            (pa, da), (pb, db) = p, self.term()
            if op == "-":
                pb = -pb
            p = _reduced(pa.scale(db) + pb.scale(da), da * db)
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = self.multiply(p, self.factor())
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
        poly, den = p
        _check_power(poly, den, k)
        if k >= 0:
            self.form(1)
            out = (NCPoly.one(self.shape), 1)
            for _ in range(k):
                out = self.multiply(out, p)
            return out
        if len(poly.terms) == 1:
            (exps, c), = poly.terms.items()
            if not any(exps) and len(c.terms) == 1:
                # (v q^e / den)^-1 = +-den q^-e / |v|, v and den coprime
                (e, v), = c.terms.items()
                inv = LaurentScalar({-e: den if v > 0 else -den}) ** -k
                return NCPoly.scalar(self.shape, inv), abs(v) ** -k
        raise ExprSyntaxError("negative power of a non-invertible expression",
                              caret[2])

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "(":
            self.depth += 1
            if self.depth > NESTING_GUARD:
                raise ExprSyntaxError("parentheses nested deeper than %d"
                                      % NESTING_GUARD, pos)
            p = self.expr()
            self.expect(")", "a closing parenthesis")
            self.depth -= 1
            return p
        if kind == "int":
            self.form(1)
            num = NCPoly.scalar(self.shape, LaurentScalar({0: value}))
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("int", "a denominator")
                if dtok[1] == 0:
                    raise ExprSyntaxError("zero denominator", dtok[2])
                return _reduced(num, dtok[1])
            return num, 1
        if kind == "name" and value == "q":
            self.form(1)
            return NCPoly.scalar(self.shape, Q), 1
        if kind == "name" and value == "x":
            self.expect("[", "'['")
            i = self.expect("int", "a row index")[1]
            self.expect(",", "','")
            j = self.expect("int", "a column index")[1]
            self.expect("]", "']'")
            try:
                self.shape.check(i, j)
            except IndexOutOfShape as exc:
                raise ExprSyntaxError(str(exc), pos) from None
            self.form(1)
            return NCPoly.generator(self.shape, i, j), 1
        if kind == "name" and value == "minor":
            self.expect("[", "'['")
            rows = self._int_list()
            self.expect("|", "'|'")
            cols = self._int_list()
            self.expect("]", "']'")
            try:
                minor = Minor(self.shape, rows, cols)
            except (IndexOutOfShape, SizeMismatch) as exc:
                raise ExprSyntaxError(str(exc), pos) from None
            self.form(minor_terms(minor))
            return minor_value(minor), 1
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
    """Evaluate the expression text over the shape to a pair (p, den):
    p an NCPoly over Z[q, q^-1], den a positive int, the value p / den
    with no common factor left between den and p's coefficients."""
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
