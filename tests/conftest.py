"""Shared fixtures.

``work_counter`` counts operations instead of timing them, so a cost pin
reads the same on any machine and under any load: two calls that do the
same work make the same counts.
"""

from collections import Counter

import pytest

from tateops import EvSeq, Scalar, TateOp, operators

SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__eq__")


@pytest.fixture
def work_counter(monkeypatch):
    """A Counter of the calls made while the test runs to Scalar's six
    operators and ``times_int``, and of TateOp and EvSeq constructions,
    keyed "Scalar.__add__", ..., "Scalar.times_int", "TateOp.__init__",
    "EvSeq.__init__" and "operators._from_steps", the one construction of
    an EvSeq that bypasses its ``__init__``
    (``tests/test_layers.py`` checks that it is the only one).  Clear it
    after building the inputs to count one call alone."""
    counts = Counter()

    def count(owner, name):
        original, key = vars(owner)[name], f"{owner.__name__.rpartition('.')[2]}.{name}"

        def counting(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for name in SCALAR_OPS + ("times_int",):
        count(Scalar, name)
    count(TateOp, "__init__")
    count(EvSeq, "__init__")
    count(operators, "_from_steps")
    return counts
