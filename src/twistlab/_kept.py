"""The two memo idioms, beneath every layer that keeps a value.

`kept`: what an object computes once and then reads many times, phi per
lattice vector, the algebra A per root choice, tau per pair, a vertex
series per vector and the rest, kept on the owner.  A value that takes
no argument is a functools.cached_property instead.

The enumeration memo: the one process-wide owner of what depends only
on a twist's content (`_content_key`), per content, least recently used
first, a dict by key (`kept_value`): the enumeration result
("result",), the lattice's eigenbasis ("basis",), the regular vacuum
spaces ("regular", bound), the class vacuum spaces (`vacuum_key`), each
with its module tables, and with default seeds the twist's integer
tables ("twist",), which `read_tables` finds under the same key.
Beside it, the summed weight of the kept values (`_weight`) and, per
kind of value (a key's first item), the hits and misses since the last
clear; the lock guards them, not the building of a value.  It reads a
twist and its values only through their attributes, so it imports no
layer above `scalar`, whose CONDUCTOR_CAP it reads at call time, as the
classifier's two refusals read MAX_WORK here."""
from __future__ import annotations

import collections
import functools
import threading

from . import scalar

_MISSING = object()

# a bound on the work of one enumeration: root choices times |E|^2, the
# number of multiplication scalars tau over all root choices, and root
# choices times the eta cosets, the classes of a one-block algebra; and
# on the summed weight of the enumeration memo's kept values
MAX_WORK = 2 ** 16

_memo: dict = {}
_memo_lock = threading.Lock()
_memo_held = 0
_hits = collections.Counter()
_misses = collections.Counter()


def kept(method=None, *, tally=None):
    """method(self, *args), kept in a dict on the owner's __dict__ for as
    long as the owner lives.

    The key is the positional arguments, a list among them keyed (and
    handed to method) as a tuple; keyword arguments are refused.  Every
    result is kept, None included; an exception is not.  The result is a
    plain function, so the class attribute stays a function, and
    `__wrapped__` is the memo-free computation.

    `kept(tally=kind)` is a decorator that also counts every read, before
    a miss computes, as a hit or a miss of that kind among the
    enumeration memo's counts: the eigenbases count their exponential
    tables so."""
    if method is None:
        return functools.partial(kept, tally=tally)
    slot = "_kept_" + method.__name__

    @functools.wraps(method)
    def keeper(self, *args):
        memo = self.__dict__.get(slot)
        if memo is None:
            memo = self.__dict__[slot] = {}
        try:
            out = memo.get(args, _MISSING)
        except TypeError:
            # a list among the arguments
            args = tuple(tuple(a) if type(a) is list else a for a in args)
            out = memo.get(args, _MISSING)
        if tally is not None:
            with _memo_lock:
                (_misses if out is _MISSING else _hits)[tally] += 1
        if out is _MISSING:
            out = memo[args] = method(self, *args)
        return out

    return keeper


def kept_count(owner, name: str) -> int:
    """The number of values kept for owner's kept method of that name."""
    return len(owner.__dict__.get("_kept_" + name, ()))


def _content_key(T):
    """Everything an enumeration's outcome depends on: the lattice (Gram
    matrix and sigma), the cocycle and the two caps that can turn the
    same twist into a refusal, MAX_WORK and `scalar.CONDUCTOR_CAP`.
    With default seeds the cocycle is a function of the lattice, so it
    is None there; a twist with seeds gives its exponents (epsilon's
    matrix on its order, phi(e_i) on the twist's grid, and the grid).
    The eigenbasis and the vacuum spaces depend on nothing else of the
    twist."""
    lat = T.lattice
    seeds = None if T._default_seeds else (
        T.eps_order, T.eps_exponents, T.grid,
        tuple((x.q, x.k) for x in T.phi_basis))
    return _lattice_key(lat.gram, lat.sigma, seeds)


def _lattice_key(gram, sigma, seeds=None):
    """The content key of the integer lattice (gram, sigma) with the
    cocycle seeds, None for the defaults, under the current caps."""
    return gram, sigma, seeds, MAX_WORK, scalar.CONDUCTOR_CAP


def vacuum_key(mu_choice, ideal_index, xi0, eta):
    """The key of a class vacuum space among its content's values."""
    return ("class", tuple(mu_choice), ideal_index, tuple(xi0), tuple(eta))


def _value_weight(key, value) -> int:
    """What a kept value counts against MAX_WORK: a result one for
    itself, one per entry and one per class, so results without classes
    count too; a vacuum space its number of lines; the eigenbasis and
    the twist's tables one each."""
    if key[0] == "result":
        return 1 + len(value.entries) + len(value.classes)
    if key[0] in ("basis", "twist"):
        return 1
    return value.size


def _weight(values: dict) -> int:
    """What a content's kept values count against MAX_WORK."""
    return sum(_value_weight(k, v) for k, v in values.items())


def _lookup(key):
    """The values kept for the content key, now the most recently used,
    or None; the caller holds the lock."""
    values = _memo.pop(key, None)
    if values is not None:
        _memo[key] = values
    return values


def read_tables(gram, sigma):
    """The integer tables of the default twist on (gram, sigma), while
    the memo keeps its content, or None: a lattice and a twist read
    them instead of building their own.  A read is a twist hit or
    miss."""
    with _memo_lock:
        values = _memo.get(_lattice_key(gram, sigma))
        if values is None:
            _misses["twist"] += 1
            return None
        _hits["twist"] += 1
        return values[("twist",)]


def _evict():
    """Drop the least recently used contents while the kept weight
    passes MAX_WORK; the caller holds the lock."""
    global _memo_held
    while _memo_held > MAX_WORK:
        _memo_held -= _weight(_memo.pop(next(iter(_memo))))


def kept_value(T, key, build):
    """The value under key of the twist T's content: read from the
    content's kept values, or built by build() and kept there.  The
    least recently used contents leave, with all their values, while
    the kept weight passes MAX_WORK; a value heavier than that alone is
    not kept, and an exception never is.

    A content of a twist with default seeds keeps the twist's integer
    tables beside its first value, at weight one (the twist's
    `_integer_tables()`): the lattice's validated Gram matrix and
    sigma, p, `sigma_pows` and `commutator_exponents`, and the twist's
    `eps_order`, `eps_exponents`, `grid` and `phi_basis`.  Its key is
    the lattice's under the current caps (`_lattice_key`), so while it
    stays, a lattice of the same integer Gram matrix and sigma reads
    the lattice's tables instead of building them (`read_tables`), and
    a twist on it without seeds the twist's; a twist with seeds builds
    its own, and its content keeps no tables.  Every construction is
    still one object with its own memos: only tuples and roots of unity
    are shared.  `enumeration_memo_counts` reads the hits, misses and
    contents, and `clear_enumeration_memo` empties the memo."""
    global _memo_held
    content = _content_key(T)
    with _memo_lock:
        values = _lookup(content)
        value = None if values is None else values.get(key)
        if value is not None:
            _hits[key[0]] += 1
            return value
        _misses[key[0]] += 1
    value = build()
    weight = _value_weight(key, value)
    tables = T._integer_tables() if T._default_seeds else None
    with _memo_lock:
        values = _lookup(content)
        if weight <= MAX_WORK:
            if values is None:
                values = _memo[content] = {}
                if tables is not None:
                    values[("twist",)] = tables
                    _memo_held += 1
            elif key in values:
                return values[key]
            values[key] = value
            _memo_held += weight
        _evict()
    return value


def enumeration_memo_counts() -> dict:
    """Since the last clear, the hits and misses of the results, and the
    results, entries and classes kept now; and for the class vacuum
    spaces (`vacua`), the regular vacuum spaces (`regular`), the
    eigenbases (`bases`), the twists' integer tables (`twists`) and the
    exponential tables the kept eigenbases hold (`creations` and
    `annihilations`, their `creation_terms` and `annihilation_terms`),
    how many are kept now and the hits and misses since the last clear
    (a miss builds one, kept or not, or raises; a twist hit or miss is
    a lattice construction that does or does not read kept tables; a
    table hit or miss is a read on any eigenbasis, kept or not)."""
    with _memo_lock:
        kept = [(k, v) for values in _memo.values() for k, v in values.items()]
        results = [v for k, v in kept if k[0] == "result"]
        kinds = collections.Counter(k[0] for k, _v in kept)
        counts = {"hits": _hits["result"], "misses": _misses["result"],
                  "results": len(results),
                  "entries": sum(len(r.entries) for r in results),
                  "classes": sum(len(r.classes) for r in results)}
        for kind, name, one in (("class", "vacua", "vacuum"),
                                ("regular", "regular", "regular"),
                                ("basis", "bases", "basis"),
                                ("twist", "twists", "twist")):
            counts[name] = kinds[kind]
            counts[one + "_hits"] = _hits[kind]
            counts[one + "_misses"] = _misses[kind]
        bases = [v for k, v in kept if k[0] == "basis"]
        for one in ("creation", "annihilation"):
            counts[one + "s"] = sum(kept_count(b, one + "_terms")
                                    for b in bases)
            counts[one + "_hits"] = _hits[one]
            counts[one + "_misses"] = _misses[one]
        return counts


def clear_enumeration_memo():
    """Empty the memo, every kept value with it, and zero its counts."""
    global _memo_held
    with _memo_lock:
        _memo.clear()
        _memo_held = 0
        _hits.clear()
        _misses.clear()
