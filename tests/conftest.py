"""Shared fixtures."""

import weakref

import pytest

import multiform.gauge  # noqa: F401  (defines a node class of its own)
from multiform import fields


class Evaluations(list):
    """The nodes evaluated, one entry per evaluation; ``values`` holds a weak
    reference to each evaluation's value, in the same order."""

    def __init__(self):
        super().__init__()
        self.values = []

    def clear(self):
        super().clear()
        self.values.clear()


@pytest.fixture
def evaluated(monkeypatch):
    """The nodes evaluated while the test runs, as an :class:`Evaluations`.

    Every node class's ``_eval`` is wrapped; a call that a class makes to its
    base's ``_eval`` for the same node (``_RecipDet`` does) is not counted again.
    """
    seen, active = Evaluations(), []

    def wrap(method):
        def recorded(node, *args):
            if active and active[-1] is node:
                return method(node, *args)
            index = len(seen)
            seen.append(node)
            seen.values.append(None)
            active.append(node)
            try:
                out = method(node, *args)
            finally:
                active.pop()
            seen.values[index] = weakref.ref(out)
            return out

        return recorded

    classes = [fields._Node]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "_eval" in vars(cls):
            monkeypatch.setattr(cls, "_eval", wrap(vars(cls)["_eval"]))
    return seen
