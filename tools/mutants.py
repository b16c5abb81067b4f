#!/usr/bin/env python3
"""Mutation check: tier-1 must fail on every semantic mutant in MUTANTS.

For each mutant, src/, tests/, pyproject.toml and bench/golden.json (the
golden-report test reads it) of this checkout are copied to a temporary
directory, one anchor text is replaced there (it must occur exactly once
in its file), and the tier-1 suite runs on the copy.  A mutant that
tier-1 passes has survived: some behaviour has no test.  The unmutated
copy runs first and must pass.

    python3 tools/mutants.py

Exit status 0 when every mutant is caught; 1 when one survives or an
anchor does not match exactly once; 2 when the unmutated copy fails.
Standard library only (pytest and hypothesis must be importable, as for
tier-1); the checkout itself is never modified.  Not part of tier-1.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: seconds before a tier-1 run counts as hung (and the mutant as caught)
TIMEOUT = 900

#: (name, what it breaks, file, anchor, replacement)
MUTANTS = (
    ("same-line-q", "same-row/column swap costs q instead of q^-1",
     "src/qdet/algebra.py",
     "stack.append((coeff * Q_INV, swapped))",
     "stack.append((coeff * Q_INV.unit_inverse(), swapped))"),
    ("diagonal-sign", "diagonal correction carries +(q - q^-1)",
     "src/qdet/algebra.py",
     "_MINUS_QHAT = -QHAT",
     "_MINUS_QHAT = QHAT"),
    ("southeast-closed",
     "a southeast letter in the next column counts as correction-free",
     "src/qdet/algebra.py",
     "for s in range(j + 1, n)]",
     "for s in range(j + 2, n)]"),
    ("closed-k-rowonly", "the same-column letters are dropped from k",
     "src/qdet/algebra.py",
     "line = [*range(g + 1, (i + 1) * n), *range(g + n, m * n, n)]",
     "line = [*range(g + 1, (i + 1) * n)]"),
    ("concat-letters-left", "a product chains the left factor's letters",
     "src/qdet/algebra.py",
     "letters = [g for g, e in enumerate(e2) for _ in range(e)]",
     "letters = [g for g, e in enumerate(e1) for _ in range(e)]"),
    ("concat-closed-k-shorter",
     "a closed-form product counts K from the right factor's own letters",
     "src/qdet/algebra.py",
     "k += count * sum(line(e1))",
     "k += count * sum(line(e2))"),
    ("concat-closed-southeast",
     "a closed-form product is taken despite a southeast letter",
     "src/qdet/algebra.py",
     "            if any(southeast(e1)):\n                return None\n",
     ""),
    ("one-letter-left-unreversed",
     "a one-letter left factor keeps the mirrored tuples",
     "src/qdet/algebra.py",
     "e = e[::-1]",
     "e = e"),
    ("one-letter-left-unmirrored",
     "a one-letter left factor multiplies by x_g, not rho(x_g)",
     "src/qdet/algebra.py",
     "g = last - e1.index(1)",
     "g = e1.index(1)"),
    ("torus-row-by-column", "the torus weight reads a row exponent by column",
     "src/qdet/algebra.py",
     "k += (self.alphas[idx // n] + self.betas[idx % n]) * e",
     "k += (self.alphas[idx % n] + self.betas[idx % n]) * e"),
    ("torus-column-sign", "the torus weight flips a column exponent's sign",
     "src/qdet/algebra.py",
     "k += (self.alphas[idx // n] + self.betas[idx % n]) * e",
     "k += (self.alphas[idx // n] - self.betas[idx % n]) * e"),
    ("lines-guard-skipped", "a product's line table is built at any size",
     "src/qdet/algebra.py",
     "    if entries > LINES_GUARD:\n",
     "    if False:\n"),
    ("lines-guard-off-by-one", "a table of exactly LINES_GUARD is refused",
     "src/qdet/algebra.py",
     "    if entries > LINES_GUARD:\n",
     "    if entries >= LINES_GUARD:\n"),
    ("entry-guard-off-by-one", "a count at ENTRY_GUARD entries is refused",
     "src/qdet/parser.py",
     "if entries > ENTRY_GUARD:",
     "if entries >= ENTRY_GUARD:"),
    ("entry-guard-letter-late", "a letter is formed before it is counted",
     "src/qdet/parser.py",
     "            self.form(1)\n            return NCPoly.generator(self.shape, i, j), 1",
     "            p = NCPoly.generator(self.shape, i, j)\n            self.form(1)\n"
     "            return p, 1"),
    ("nest-guard-off-by-one", "parentheses exactly NESTING_GUARD deep are refused",
     "src/qdet/parser.py",
     "if self.depth > NESTING_GUARD:",
     "if self.depth >= NESTING_GUARD:"),
    ("entry-guard-minor-skipped", "compute minor expands without the count",
     "src/qdet/cli.py",
     "        check_entries(shape, minor_terms(minor))\n",
     ""),
    ("lines-guard-late", "the memo tables are made before the shape is refused",
     "src/qdet/algebra.py",
     "            _refuse_wide(m, n)\n",
     ""),
    ("unit-sign", "the shared -q^k is built as +q^k",
     "src/qdet/scalars.py",
     "{(k, c): LaurentScalar({k: c})",
     "{(k, c): LaurentScalar({k: abs(c)})"),
    ("basis-ascending", "graded_basis lists its monomials in ascending lex",
     "src/qdet/algebra.py",
     "        out.append(tuple(exps))\n    return out\n",
     "        out.append(tuple(exps))\n    return out[::-1]\n"),
    ("laplace-untransposed", "the row Laplace factors are not transposed back",
     "src/qdet/minors.py",
     "Minor(shape, f.cols, f.rows)",
     "Minor(shape, f.rows, f.cols)"),
    ("pbw-guard-pairs", "the pbw guard counts generator pairs, not triples",
     "src/qdet/suites.py",
     "triples = shape.ngens ** 3",
     "triples = shape.ngens ** 2"),
    ("minor-count-unbounded", "the pool binomial is formed in full",
     "src/qdet/minors.py",
     "        if c > bound + 1:\n",
     "        if False:\n"),
    ("minor-count-off-by-one", "a pool of exactly bound minors is refused",
     "src/qdet/minors.py",
     "        if c > bound + 1:\n",
     "        if c > bound:\n"),
    ("empty-suites-accepted", "a run with no suite passes with nothing checked",
     "src/qdet/suites.py",
     "        if not names:\n",
     "        if False:\n"),
    ("ctau-guard-skipped", "ctau lists the minors of any shape",
     "src/qdet/suites.py",
     "    minor_count(gamma.shape, CTAU_POOL_GUARD)\n",
     ""),
    ("pbw-pairs-transposed", "pbw reads pairs[c][b] for v * w",
     "src/qdet/suites.py",
     "u * pairs[b][c]",
     "u * pairs[c][b]"),
    ("left-is-right", "the left generator products are the right ones",
     "src/qdet/linalg.py",
     "            yield {(back[j], e): c for (j, e), c in left.items()}\n",
     "            yield _image_sum(rights, g)\n"),
    ("unmirrored-generator",
     "the left products read x_g's images, not rho(x_g)'s",
     "src/qdet/linalg.py",
     "left = _image_sum(lefts, last - g)",
     "left = _image_sum(lefts, g)"),
    ("unreversed-image",
     "the left products are not read back through the reversal",
     "src/qdet/linalg.py",
     "{(back[j], e): c for (j, e), c in left.items()}",
     "left"),
    ("images-kept", "a column's images are kept after its last reading row",
     "src/qdet/linalg.py",
     "            del held[col]\n",
     "            pass\n"),
    ("images-released-early",
     "a column's images are dropped after each read and built again",
     "src/qdet/linalg.py",
     "        if not uses[col]:\n",
     "        if True:\n"),
    ("memo-without-shape", "the rewriting memos are keyed without (m, n)",
     "src/qdet/algebra.py",
     "        key = (m, n)\n",
     "        key = m * n\n"),
    ("equal-row-grows", "an equal row is stored and counted as new",
     "src/qdet/linalg.py",
     "            if row == stored:\n                return False\n",
     "            if row == stored:\n                pivots[col] = row\n"
     "                return True\n"),
    ("shift-kept", "a normalized row keeps its q-shift",
     "src/qdet/linalg.py",
     "shift = min([e for _, e in row])",
     "shift = 0"),
    ("sign-lowest-power", "the sign is taken from the pivot's lowest power",
     "src/qdet/linalg.py",
     "row[max([k for k in row if k[0] == col])]",
     "row[min(row)]"),
    ("content-kept", "a normalized row keeps its integer content",
     "src/qdet/linalg.py",
     "g = gcd(*row.values())",
     "g = 1"),
    ("local-columns-collide", "LocalColumns gives every monomial column 0",
     "src/qdet/linalg.py",
     "i = self.index[e] = len(self.index)",
     "i = self.index[e] = 0"),
    ("c-rows-only", "the predicted normality scalar drops |L - J|",
     "src/qdet/factor.py",
     "\n                + len(set(tau.cols) - set(gamma.cols)))",
     ")"),
    ("c-intersection", "the predicted normality scalar counts K & I",
     "src/qdet/factor.py",
     "len(set(tau.rows) - set(gamma.rows))",
     "len(set(tau.rows) & set(gamma.rows))"),
    ("c-one", "the predicted normality scalar is always 1",
     "src/qdet/factor.py",
     "c = LaurentScalar({exponent: 1})",
     "c = ONE"),
    ("drop-excluded-minor", "the ideal build skips the first excluded minor",
     "src/qdet/factor.py",
     "for mn in excluded_minors(gamma):\n        if mn.size == degree:",
     "for mn in excluded_minors(gamma)[1:]:\n        if mn.size == degree:"),
    ("dead-as-surviving",
     "the merged size-(t+1) minor of an expansion counts as surviving",
     "src/qdet/factor.py",
     "elif std_le(gamma, tail):",
     "elif std_le(gamma, tail) or len(factors) == 1:"),
    ("counts-floorless", "standard_monomial_counts ignores its floor",
     "src/qdet/factor.py",
     "for a in bits(up[pool.index(floor)])}",
     "for a in range(len(pool))}"),
    ("rank-mod-unsubtracted",
     "rank_mod returns the extended rank, the ideal's rank included",
     "src/qdet/factor.py",
     "return ext.rank - self.echelon.rank",
     "return ext.rank"),
    ("quotient-dim-ambient",
     "quotient_dim returns the dimension of R's whole component",
     "src/qdet/factor.py",
     "return len(self.basis) - self.echelon.rank",
     "return len(self.basis)"),
    ("rank-on-r", "rank is I_gamma'(d)'s rank on R, not the ambient rank",
     "src/qdet/factor.py",
     "return graded_dim(self.shape, self.basis.degree) - self.quotient_dim",
     "return self.echelon.rank"),
    ("pi-keeps-outside",
     "pi keeps a term with a letter outside R, on R's first monomial",
     "src/qdet/factor.py",
     "            if i is None:\n                continue\n",
     "            if i is None:\n                i = 0\n"),
    ("corner-rows-both", "gamma' shifts its columns by the row offset",
     "src/qdet/factor.py",
     "[j - c1 + 1 for j in cols]",
     "[j - r1 + 1 for j in cols]"),
    ("corner-column-right", "pi reads R from one column right of c1",
     "src/qdet/factor.py",
     "cuts = tuple((i * n + c1 - 1, (i + 1) * n)",
     "cuts = tuple((i * n + c1, (i + 1) * n)"),
    ("guard-on-r", "the size guard reads R's component, not the ambient one",
     "src/qdet/factor.py",
     "    _dim_guard(shape, degree)\n    sub, cuts = _corner(gamma)\n",
     "    sub, cuts = _corner(gamma)\n    _dim_guard(sub.shape, degree)\n"),
    ("spans-kept-across-runs", "a run starts with the spans of earlier runs",
     "src/qdet/factor.py",
     "    _ECHELONS.clear()\n",
     ""),
    ("tower-image-base-series",
     "the tower image is compared with the base stage's series",
     "src/qdet/factor.py",
     "stage_series_dims([g.degree for g in gens], max_degree)",
     "stage_series_dims([g.degree for g in gens[:frame.size ** 2]],"
     " max_degree)"),
    ("straighten-shift", "straightening predicts (-q)^(j - s + 1)",
     "src/qdet/tower.py",
     "c = QHAT * minus_q_power(mb.j - s)",
     "c = QHAT * minus_q_power(mb.j - s + 1)"),
    ("straighten-e1", "straightening predicts (-q)^1 for every s",
     "src/qdet/tower.py",
     "c = QHAT * minus_q_power(mb.j - s)",
     "c = QHAT * minus_q_power(1)"),
    ("straighten-sign", "straightening predicts -(q - q^-1)",
     "src/qdet/tower.py",
     "c = QHAT * minus_q_power(mb.j - s)",
     "c = -QHAT * minus_q_power(mb.j - s)"),
    ("skip-new-products", "the walk skips the newest generator's products",
     "src/qdet/tower.py",
     "products = stage_monomials(frame, k, d)",
     "products = stage_monomials(frame, min(k, base), d)"),
    ("no-higher-powers", "the product recursion never squares a generator",
     "src/qdet/tower.py",
     "lower = products[(k, e - g.degree)] if e >= g.degree else []",
     "lower = products[(k - 1, e - g.degree)] if e >= g.degree else []"),
    ("ore-series-unbounded", "the guard sums the series up to max_degree",
     "src/qdet/tower.py",
     "min(max_degree, DIM_GUARD))[-1]",
     "max_degree)[-1]"),
    ("ore-series-short", "the guard sums the series one degree short",
     "src/qdet/tower.py",
     "min(max_degree, DIM_GUARD))[-1]",
     "min(max_degree, DIM_GUARD - 1))[-1]"),
    ("ore-memberless-series", "a frame without members is still guarded",
     "src/qdet/tower.py",
     "    if not family:\n        return []\n",
     ""),
    ("delta-no-q-inverse", "the base-variable delta drops its -q^-1 factor",
     "src/qdet/tower.py",
     "return rhs.scale(-Q_INV)",
     "return rhs"),
    ("diagonal-pair", "the diagonal commutator reads mem(i, j) * mem(k, l)",
     "src/qdet/tower.py",
     "return (entries[(i, l)] * entries[(k, j)])",
     "return (entries[(i, j)] * entries[(k, l)])"),
    ("diagonal-zero", "the diagonal delta is predicted to be 0",
     "src/qdet/tower.py",
     "    return -diagonal_commutator(values, (other.i, other.j),\n"
     "                                (member.i, member.j))\n",
     "    return zero\n"),
    ("sum-uncrossed",
     "a sum adds numerators without scaling by the other denominator",
     "src/qdet/parser.py",
     "_reduced(pa.scale(db) + pb.scale(da), da * db)",
     "_reduced(pa + pb, da * db)"),
    ("inverse-sign-in-den", "a negative power keeps the sign in den",
     "src/qdet/parser.py",
     "inv = LaurentScalar({-e: den if v > 0 else -den}) ** -k\n"
     "                return NCPoly.scalar(self.shape, inv), abs(v) ** -k\n",
     "inv = LaurentScalar({-e: den}) ** -k\n"
     "                return NCPoly.scalar(self.shape, inv), v ** -k\n"),
    ("pair-unreduced", "a value's pair keeps its common factor",
     "src/qdet/parser.py",
     "    if g == 1:\n        return p, den\n",
     "    if g:\n        return p, den\n"),
    ("size-over-den", "the power guard sizes v / den without reducing it",
     "src/qdet/parser.py",
     "g = gcd(v, den)",
     "g = 1"),
)

#: tests/test_tools.py checks this file's anchors against the checkout; a
#: copy lacks tools/ and has lost one anchor by design, so it is left out
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_tools.py"]


def _copy_checkout(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)
    os.mkdir(os.path.join(dest, "bench"))
    shutil.copy(os.path.join(ROOT, "bench", "golden.json"),
                os.path.join(dest, "bench"))


def _apply(dest, path, anchor, replacement):
    """Replace the anchor in the copy; the match count when it is not 1."""
    full = os.path.join(dest, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(anchor)
    if count != 1:
        return count
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(text.replace(anchor, replacement))
    return 1


def _tier1(dest):
    """(passed, last summary line) of tier-1 on the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(TIER1, cwd=dest, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, "timed out after %d s" % TIMEOUT
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return proc.returncode == 0, lines[-1] if lines else "no output"


def _run(mutant):
    """'caught', 'survived' or 'anchor', with the tier-1 summary."""
    _, _, path, anchor, replacement = mutant
    with tempfile.TemporaryDirectory(prefix="qdet-mutant-") as dest:
        _copy_checkout(dest)
        if path is not None:
            count = _apply(dest, path, anchor, replacement)
            if count != 1:
                return "anchor", "anchor matches %d times in %s" % (count, path)
        passed, summary = _tier1(dest)
    return ("survived" if passed else "caught"), summary


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    status, summary = _run(("unmutated", "", None, None, None))
    print("%-9s %-20s %s" % ("baseline", "unmutated", summary), flush=True)
    if status != "survived":
        print("tier-1 fails on the unmutated copy; no mutant can be judged")
        return 2
    bad = 0
    for mutant in MUTANTS:
        status, summary = _run(mutant)
        bad += status != "caught"
        print("%-9s %-20s %s" % (status, mutant[0], summary), flush=True)
    print("%d mutants, %d caught, %d survived or unmatched"
          % (len(MUTANTS), len(MUTANTS) - bad, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
