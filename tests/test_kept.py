import types

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


READS = []


class Tallied:
    @kept(tally=READS.append)
    def g(self, x):
        """Refuses a negative x."""
        if x < 0:
            raise ValueError(x)
        return [x]


def test_kept_tally_sees_every_read():
    # a miss is told before it computes, a raising one too, and a hit
    READS.clear()
    t = Tallied()
    out = t.g(1)
    assert t.g(1) is out
    with pytest.raises(ValueError):
        t.g(-1)
    assert READS == [False, True, False]
    assert kept_count(t, "g") == 1 and kept_count(Tallied(), "g") == 0
    assert Tallied.g.__wrapped__(t, 2) == [2] and READS[-1] is False


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
