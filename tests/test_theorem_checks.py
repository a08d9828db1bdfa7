"""Run-time theorem checks raise TheoremViolationError, also under python -O."""

from __future__ import annotations

import dataclasses
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
    monkeypatch.setattr(codes_module, "code_distance", lambda C: C.length)
    with pytest.raises(TheoremViolationError):
        gc.parameters(code_d)


def broken_witnesses(dec, f):
    """The decomposition with the witness of component 1 relabelled by f
    on every coordinate."""
    w = dec.isotype_witnesses[1]
    bad = gc.Isometry(gc.Configuration((f,) * w.n), w.equiv)
    return dataclasses.replace(dec, isotype_witnesses=(dec.isotype_witnesses[0], bad))


@pytest.mark.parametrize("explicit_cap", [10**4, 1], ids=["explicit_elements", "generators_only"])
def test_aut_group_rejects_conjugates_that_are_no_subgroup_isomorphisms(code_d, z4, explicit_cap):
    # the swap of Z/2 moves the identity
    C = gc.direct_sum(code_d, code_d)
    dec = gc.decompose(C)
    assert gc.aut_group(C, dec, explicit_cap=explicit_cap).order == 72
    with pytest.raises(TheoremViolationError):
        gc.aut_group(C, broken_witnesses(dec, (1, 0)), explicit_cap=explicit_cap)
    # this relabelling of Z/4 moves the projection {0, 2} onto {1, 3}
    half = gc.GroupCode.from_words(z4, 2, [(0, 0), (2, 2)])
    C = gc.direct_sum(half, half)
    dec = gc.decompose(C)
    assert len(dec.components) == 2
    with pytest.raises(TheoremViolationError):
        gc.aut_group(C, broken_witnesses(dec, (1, 0, 3, 2)), explicit_cap=explicit_cap)


def test_theorem_checks_survive_optimized_mode():
    script = textwrap.dedent("""
        import dataclasses
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
        dd = gc.direct_sum(d, d)
        dec = gc.decompose(dd)
        w = dec.isotype_witnesses[1]
        bad = gc.Isometry(gc.Configuration(((1, 0),) * w.n), w.equiv)  # moves the identity
        broken = dataclasses.replace(dec, isotype_witnesses=(dec.isotype_witnesses[0], bad))
        GroupCodeIso.verify = lambda self, pair_check=None: False
        importlib.import_module("groupcodes.decompose").apply_to_code = (
            lambda iso, C: gc.Code.from_words(C.alphabet, C.length, [C.identity_word()]))
        importlib.import_module("groupcodes.codes").code_distance = lambda C: C.length
        raised = 0
        for call in (lambda: gc.gc_isomorphic(left, right), lambda: gc.decompose(left),
                     lambda: gc.parameters(d), lambda: gc.aut_group(dd, broken)):
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
    assert out.stdout.split() == ["True", "4"]
