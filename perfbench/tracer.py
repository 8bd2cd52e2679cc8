"""In-memory span tracer that wraps wealthsim's public functions from outside.

A span is ``[name, parent_id, start_ns, end_ns, work]``: the span id is its
index in ``Tracer.spans``, ``parent_id`` is -1 for a root, and ``work`` is
``None`` or a dict of counts taken at the boundary (rows sampled, records
kept, replicas run).  Spans stay in memory; ``child.py`` writes them once,
into its result file, when the traced call has returned.

``install`` patches, in ``wealthsim.core``, ``stats``, ``solver`` and
``cli``, every module attribute that is a public function of the package,
so a call through any module's namespace lands on the same wrapper.  Two
boundaries that the layer table names are not module functions and are
wrapped on their classes: ``sample_raw`` of each noise background and the
``WealthState`` constructor (recording in ``run_trajectory``).  Private
helpers such as ``_evolve`` are never patched; their time shows as the self
time of the public function that calls them.  The wealthsim source is not
edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _sample_work(bound: dict, result) -> dict:
    count, n = int(bound["count"]), int(bound["n"])
    return {"rows": count, "cells": count * n}


def _run_trajectory_work(bound: dict, result) -> dict:
    return {"records": len(result)}


def _variance_trajectory_work(bound: dict, result) -> dict:
    return {"records": int(result[0].size)}


def _concordance_work(bound: dict, result) -> dict:
    return {
        "records": int(result.replicas * result.transaction_indices.size),
        "replicas": int(result.replicas),
    }


#: Counts recorded at a boundary, keyed by span name; each takes the bound
#: call arguments and the return value.
WORK = {
    "core.sample_epsilon_matrix": _sample_work,
    "core.run_trajectory": _run_trajectory_work,
    "stats.variance_trajectory": _variance_trajectory_work,
    "solver.concordance": _concordance_work,
}

TRACED_MODULES = ("core", "stats", "solver", "cli")


class Tracer:
    """Collects spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records one span named ``name``."""
        work = WORK.get(name)
        sig = inspect.signature(fn) if work is not None else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the traced boundaries in the wealthsim modules."""
    modules = [importlib.import_module(f"wealthsim.{m}") for m in TRACED_MODULES]
    wrappers: dict[int, object] = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("wealthsim.") or home not in TRACED_MODULES:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(f"{home}.{obj.__name__}", obj)
            setattr(module, attr, wrappers[id(obj)])

    core = modules[0]
    for cls in (core.UniformBackground, core.GaussianBackground, core.ConstantBackground):
        cls.sample_raw = tracer.wrap("core.sample_raw", cls.__dict__["sample_raw"])
    core.WealthState.__init__ = tracer.wrap("core.WealthState", core.WealthState.__init__)
