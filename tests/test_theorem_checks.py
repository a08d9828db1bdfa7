"""Run-time theorem checks raise TheoremViolationError, also under python -O."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import groupcodes as gc
from groupcodes.errors import TheoremViolationError
from groupcodes.isomorphy import GroupCodeIso

# the package namespace re-exports functions named like their modules
codes_module = importlib.import_module("groupcodes.codes")
decompose_module = importlib.import_module("groupcodes.decompose")


def test_gc_isomorphic_rejects_invalid_witness(monkeypatch, code_d, rep3):
    left, right = gc.direct_sum(code_d, rep3), gc.direct_sum(rep3, code_d)
    assert gc.gc_isomorphic(left, right) is not None
    monkeypatch.setattr(GroupCodeIso, "verify", lambda self, pair_check=None: False)
    with pytest.raises(TheoremViolationError):
        gc.gc_isomorphic(left, right)


def test_decompose_rejects_witness_that_does_not_reassemble(monkeypatch, code_d, rep3):
    total = gc.direct_sum(code_d, rep3)
    assert len(gc.decompose(total).partition.blocks) == 2

    def identity_only(iso, C):
        return gc.Code.from_words(C.alphabet, C.length, [C.identity_word()])

    monkeypatch.setattr(decompose_module, "apply_to_code", identity_only)
    with pytest.raises(TheoremViolationError):
        gc.decompose(total)


def test_parameters_rejects_singleton_violation(monkeypatch, code_d):
    assert gc.parameters(code_d).min_distance == 2
    # |C| = 4 > 2^(3 - 3 + 1) once the distance is misreported as 3
    monkeypatch.setattr(codes_module, "min_distance", lambda C: C.length)
    with pytest.raises(TheoremViolationError):
        gc.parameters(code_d)


def test_theorem_checks_survive_optimized_mode():
    script = textwrap.dedent("""
        import importlib
        import groupcodes as gc
        from groupcodes.catalog import binary_repetition, even_weight_code
        from groupcodes.errors import TheoremViolationError
        from groupcodes.isomorphy import GroupCodeIso
        try:
            assert False
            optimized = True
        except AssertionError:
            optimized = False
        d, r = even_weight_code(3), binary_repetition(3)
        left, right = gc.direct_sum(d, r), gc.direct_sum(r, d)
        GroupCodeIso.verify = lambda self, pair_check=None: False
        importlib.import_module("groupcodes.decompose").apply_to_code = (
            lambda iso, C: gc.Code.from_words(C.alphabet, C.length, [C.identity_word()]))
        importlib.import_module("groupcodes.codes").min_distance = lambda C: C.length
        raised = 0
        for call in (lambda: gc.gc_isomorphic(left, right), lambda: gc.decompose(left),
                     lambda: gc.parameters(d)):
            try:
                call()
            except TheoremViolationError:
                raised += 1
        print(optimized, raised)
    """)
    src = str(Path(gc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "3"]
