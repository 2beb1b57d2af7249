import ast
import pathlib
import types

from twistlab import _kept
from twistlab._kept import kept, kept_count
from twistlab.classify import (
    ClassOmega,
    FiniteQuotient,
    Presentation,
    PresentedAlgebraA,
)
from twistlab.cocycle import TwistData
from twistlab.fock import FockModule, GradedBasis, RegularOmega
from twistlab.lattice import TwistedLattice

import pytest

# every method kept by the helper, per class; the benchmark's tracer
# wraps only plain-function class attributes, and counts the spans of
# PresentedAlgebraA.tau, FiniteQuotient.lift and FockModule.mode_apply
KEPT = {
    GradedBasis: ("decompose", "creation_terms", "annihilation_terms"),
    FiniteQuotient: ("lift",),
    Presentation: ("algebra", "k_parts", "mu_parts"),
    PresentedAlgebraA: ("k_image", "e_image", "tau"),
    ClassOmega: ("e_act",),
    RegularOmega: ("e_act",),
    TwistData: ("phi", "orbit_product"),
    FockModule: ("tilde", "vertex_series", "vertex_exponents_k",
                 "_mode_plan"),
}


class Owner:
    def __init__(self):
        self.calls = []

    @kept
    def f(self, x, y=0):
        """Records each computation; None for a negative x."""
        self.calls.append((x, y))
        return None if x and x[0] < 0 else [x, y]


def test_kept_contract():
    a, b = Owner(), Owner()
    # a list argument is keyed, and handed on, as a tuple
    out = a.f([1, 2], 3)
    assert a.f((1, 2), 3) is out and out == [(1, 2), 3]
    # a None result is computed once
    assert a.f((-1,), 0) is None and a.f([-1], 0) is None
    assert a.calls == [((1, 2), 3), ((-1,), 0)]
    # two owners do not share a memo
    assert b.f((1, 2), 3) is not out and b.calls == [((1, 2), 3)]
    # keyword arguments are refused
    with pytest.raises(TypeError):
        a.f((1, 2), y=3)
    # __wrapped__ gives the fresh value, and keeps nothing
    fresh = Owner.f.__wrapped__(a, (1, 2), 3)
    assert fresh == out and fresh is not out
    assert a.f((1, 2), 3) is out
    assert Owner.f.__name__ == "f" and "Records" in Owner.f.__doc__
    for cls, names in KEPT.items():
        for name in names:
            attr = cls.__dict__[name]
            assert isinstance(attr, types.FunctionType), (cls, name)
            assert isinstance(attr.__wrapped__, types.FunctionType)


def _reads():
    """(hits, misses) of the tallied kind in the enumeration memo's counts."""
    return _kept._hits["tallied"], _kept._misses["tallied"]


class Tallied:
    @kept(tally="tallied")
    def g(self, x):
        """Records the counts it sees, and refuses a negative x."""
        self.seen = _reads()
        if x < 0:
            raise ValueError(x)
        return [x]


def test_kept_tally_sees_every_read():
    # a miss is counted before it computes, a raising one too, and a hit
    t = Tallied()
    out = t.g(1)
    assert t.seen == _reads() == (0, 1)
    assert t.g(1) is out and _reads() == (1, 1)
    with pytest.raises(ValueError):
        t.g(-1)
    assert t.seen == _reads() == (1, 2)
    assert kept_count(t, "g") == 1 and kept_count(Tallied(), "g") == 0
    assert Tallied.g.__wrapped__(t, 2) == [2] and _reads() == (1, 2)


def test_regular_vacuum_keeps_its_e_action_and_window_exits():
    twist = TwistData(TwistedLattice([[2]], [[1]]))
    omega = RegularOmega(twist, 1)
    edge, inner = omega.lookup[(1,)], omega.lookup[(0,)]
    assert omega.e_act((1,), edge) is None
    hit = omega.e_act([1], inner)
    assert hit == (edge, twist.epsilon((1,), (0,)).scalar())
    # a second lookup reads the memo: recomputing would fail here
    omega.lines = None
    assert omega.e_act((1,), edge) is None
    assert omega.e_act((1,), inner) is hit


SRC = pathlib.Path(_kept.__file__).parent


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _imported(node):
    """The twistlab modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return {parts[1]} if parts[0] == "twistlab" and parts[1:] \
                else set()
        if node.module:
            return {node.module.split(".")[0]}
        return {a.name for a in node.names}
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("twistlab.")}
    return set()


def test_the_memo_lies_beneath_the_layers_that_read_it():
    # the lattice imports at module level and never imports classify
    lattice = _tree("lattice")
    for fn in ast.walk(lattice):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert not any(isinstance(n, (ast.Import, ast.ImportFrom))
                           for n in ast.walk(fn)), fn.name
    assert not any("classify" in _imported(n) for n in ast.walk(lattice))
    # the memo imports no twistlab module but scalar
    assert set().union(*map(_imported, ast.walk(_tree("_kept")))) \
        <= {"scalar"}
    # no library module reaches into classify for the memo
    moved = {"_kept", "_tally", "_read_tables", "MAX_WORK"}
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute) and n.attr in moved:
                assert not (isinstance(n.value, ast.Name)
                            and n.value.id == "classify"), path.name
            if isinstance(n, ast.ImportFrom) and n.module == "classify":
                assert not moved & {a.name for a in n.names}, path.name
