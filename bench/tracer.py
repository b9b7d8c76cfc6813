"""Outside-in span recorder for the wormbec layers.

The recorder wraps, for the duration of one traced CLI call, every binding
of each target function across the loaded ``wormbec.*`` module namespaces
(``write_csv`` is bound in cli, gp3d, profile1d, profile3d and tableio, and
each of those bindings is wrapped). A call through any binding becomes one
span ``[name, start, end, parent, attrs]`` kept in memory; the worker writes
the spans out when it exits. A target that the package no longer defines is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Layer (module of wormbec) -> public functions whose calls become spans.
# feshbach has no span: it runs inside the profile kernels.
TARGETS = {
    "config": ("load_config",),
    "profile1d": ("sample_profile_1d", "feasibility_1d"),
    "profile3d": ("lab_profiles_3d", "feasibility_report_3d"),
    "gp3d": ("solve_matching", "matching_residuals"),
    "geometry": ("embedding_height",),
    "tableio": ("write_csv", "write_json"),
}


def _points(_args, result) -> dict:
    """Sample count of a kernel result: a sequence of samples, or an object
    holding one-dimensional column arrays."""
    if hasattr(result, "__len__"):
        return {"points": len(result)}
    columns = [v for v in getattr(result, "__dict__", {}).values()
               if getattr(v, "ndim", None) == 1]
    return {"points": max((len(c) for c in columns), default=0)}


def _solution(args, result) -> dict:
    attrs = _points(args, result)
    converged = getattr(result, "converged", None)
    if converged is not None:
        attrs["converged"] = int(sum(bool(c) for c in converged))
    return attrs


def _file_size(args, result) -> dict:
    path = result if isinstance(result, (str, os.PathLike)) else (args[0] if args else None)
    try:
        return {"bytes": os.path.getsize(path)}
    except (TypeError, OSError):
        return {"bytes": 0}


# Counters read from a call's arguments and result, after its span ends.
MEASURES = {
    "sample_profile_1d": _points,
    "lab_profiles_3d": _points,
    "solve_matching": _solution,
    "write_csv": _file_size,
    "write_json": _file_size,
}


class Recorder:
    """Spans of one process, in call order; parents index into ``spans``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None,
            stop: float | None = None) -> None:
        self.spans[index][2] = time.perf_counter() if stop is None else stop
        self.spans[index][4] = attrs
        self._open.pop()


def _wrap(recorder: Recorder, name: str, func, measure):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            recorder.end(index)
            raise
        stop = time.perf_counter()
        recorder.end(index, measure(args, result) if measure else None, stop)
        return result
    return traced


def install(recorder: Recorder) -> tuple[list, list[str]]:
    """Wrap every binding of every target in the loaded wormbec modules.

    Returns the patches to hand to ``uninstall`` and the names of targets
    the package does not define.
    """
    modules = [module for name, module in sorted(sys.modules.items())
               if module is not None and (name == "wormbec" or name.startswith("wormbec."))]
    patches, absent = [], []
    for layer, names in TARGETS.items():
        home = sys.modules.get(f"wormbec.{layer}")
        for fname in names:
            original = getattr(home, fname, None)
            if not callable(original):
                absent.append(f"{layer}.{fname}")
                continue
            wrapper = _wrap(recorder, f"{layer}.{fname}", original, MEASURES.get(fname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
    return patches, absent


def uninstall(patches: list) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)
