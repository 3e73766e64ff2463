"""Stub that exists only for the benchmark under ``perfbench/``.

``perfbench/workload.py`` reports ``using_numba()`` in every run, and
``perfbench/spans.py`` looks ``connected_masks`` up by name in traced runs.
Nothing in the library or the tests imports this module: graphs are
enumerated by :func:`chromaspec.search.connected_classes`.
"""


def using_numba() -> bool:
    return False


def connected_masks(n: int):
    """Never called; graphs are enumerated in :mod:`chromaspec.search`."""
    raise NotImplementedError("use chromaspec.search.connected_classes")
