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
     "stack.append((coeff.shift(1), swapped))"),
    ("diagonal-sign", "diagonal correction carries +(q - q^-1)",
     "src/qdet/algebra.py",
     "_MINUS_QHAT = -QHAT",
     "_MINUS_QHAT = QHAT"),
    ("provenance-shift", "spanning row i tagged at column width + i + 1",
     "src/qdet/linalg.py",
     "self.echelon.insert({**row, width + i: ONE})",
     "self.echelon.insert({**row, width + i + 1: ONE})"),
    ("nums-sign", "Span.express returns -nums",
     "src/qdet/linalg.py",
     "[-res.get(width + i, ZERO) for i in range(n)]",
     "[res.get(width + i, ZERO) for i in range(n)]"),
    ("express-inserts", "Span.express inserts its target into the span",
     "src/qdet/linalg.py",
     "        res = self.echelon.residue({**target, width + n: ONE})\n",
     "        res = self.echelon.residue({**target, width + n: ONE})\n"
     "        self.echelon.insert({**target, width + n: ONE})\n"),
    ("drop-excluded-minor", "the ideal build skips one excluded minor",
     "src/qdet/factor.py",
     ".get(degree, ()):",
     ".get(degree, ())[1:]:"),
    ("straighten-e0", "straightening accepts (q - q^-1)(-q)^0",
     "src/qdet/tower.py",
     "if e >= 1 and num == den * QHAT * minus_q_power(e):",
     "if e >= 0 and num == den * QHAT * minus_q_power(e):"),
    ("skip-recombination", "ore_step_check trusts its witness unchecked",
     "src/qdet/tower.py",
     "rep.add(name, back == delta.scale(den),",
     "rep.add(name, True,"),
)

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


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
