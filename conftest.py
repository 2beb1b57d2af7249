"""Set-up shared by the test directories."""
import sys

import pytest


def _twistlab_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "twistlab" or name.startswith("twistlab.")}


@pytest.fixture(autouse=True)
def keep_twistlab_modules():
    """Restore the twistlab entries of sys.modules after each test.

    perfbench/run.py's load_twistlab imports twistlab afresh.  Without
    the restore, the library's in-function imports in later tests would
    bind to those fresh modules while the tests hold the classes of the
    first import."""
    saved = _twistlab_modules()
    yield
    for name in _twistlab_modules():
        if name not in saved:
            del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture(autouse=True)
def clear_enumeration_memo():
    """Empty the process-wide memo of enumerate_simple_twisted before
    each test, so no test reads an enumeration an earlier test made.
    The benchmark's tests import twistlab afresh, with an empty memo."""
    classify = sys.modules.get("twistlab.classify")
    if classify is not None:
        classify.clear_enumeration_memo()
