"""The mutation tool's anchors match the code they mutate."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "mutants.py")


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS, ids=lambda m: m[0])
def test_anchor_occurs_exactly_once(mutant):
    name, _, path, anchor, replacement = mutant
    with open(os.path.join(MUTANTS.ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(anchor) == 1, name
    assert replacement != anchor, name

