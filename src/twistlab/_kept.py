"""One memo idiom for the values an object computes once and then reads
many times: phi per lattice vector, the algebra A per root choice, tau
per pair, a vertex series per vector, and the rest.  A value that takes
no argument is a functools.cached_property instead, which already keeps
it on the owner."""
from __future__ import annotations

import functools

_MISSING = object()


def kept(method=None, *, tally=None):
    """method(self, *args), kept in a dict on the owner's __dict__ for as
    long as the owner lives.

    The key is the positional arguments, a list among them keyed (and
    handed to method) as a tuple; keyword arguments are refused.  Every
    result is kept, None included; an exception is not.  The result is a
    plain function, so the class attribute stays a function, and
    `__wrapped__` is the memo-free computation.

    `kept(tally=f)` is a decorator that also calls f(hit) on every read,
    before a miss computes: the enumeration memo counts the tables of
    its eigenbases so (`classify._tally`)."""
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
            tally(out is not _MISSING)
        if out is _MISSING:
            out = memo[args] = method(self, *args)
        return out

    return keeper


def kept_count(owner, name: str) -> int:
    """The number of values kept for owner's kept method of that name."""
    return len(owner.__dict__.get("_kept_" + name, ()))
