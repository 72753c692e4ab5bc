"""In-memory span tracing of ``doublepass`` from outside the package.

``Tracer.installed()`` replaces selected public functions with wrappers at
every module attribute of the package that refers to them, so calls made
through ``from .x import f`` bindings and through lazy imports are seen
alike, and restores the originals on exit.  Each call records a span
(name, start, end, parent, operation id) in flat arrays; nothing is
written until ``dump``.  A layer's self time is the duration of its spans
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

import numpy as np

import doublepass.cli
import doublepass.drive
import doublepass.evolve
import doublepass.harness
import doublepass.su2relations
import doublepass.su3relations

# Functions wrapped, by (module, name) where they are defined.
TRACED = (
    ("drive", "sample_rabi"),
    ("drive", "sample_detuning"),
    ("drive", "backward_profile_2"),
    ("drive", "backward_profile_3"),
    ("evolve", "hamiltonian2"),
    ("evolve", "hamiltonian3"),
    ("evolve", "propagate"),
    ("evolve", "propagate_profile"),
    ("evolve", "cayley_klein"),
    ("evolve", "unitarity_defect"),
    ("su2relations", "invert_p_general"),
    ("su2relations", "invert_p_rap"),
    ("su2relations", "invert_p_const_detuning"),
    ("su3relations", "invert_case1"),
    ("su3relations", "invert_case2"),
    ("su3relations", "invert_detuned"),
    ("su3relations", "invert_general"),
    ("su3relations", "extract_resonant_ck"),
    ("su3relations", "four_phase_average"),
    ("su3relations", "backward_propagator"),
    ("su3relations", "resonant_propagator"),
    ("harness", "run_protocol"),
    ("harness", "sweep"),
    ("harness", "verify"),
    ("harness", "write_csv"),
    ("cli", "main"),
)
# Spans of these functions are named by the dimension of the propagator
# they return, e.g. "evolve.propagate/d3".
_BY_DIMENSION = {"propagate", "propagate_profile"}
_HAMILTONIANS = {"hamiltonian2", "hamiltonian3"}
HOOK = "trace.hook"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self._stack = [-1]
        self.steps = {2: 0, 3: 0}
        self.zero_steps = 0

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def _count_steps(self, h: np.ndarray) -> None:
        # runs in a span of its own, so its cost is not charged to the caller
        index = self._open(self._id(HOOK))
        h = np.asarray(h)
        if h.ndim == 3:
            n = h.shape[0]
            self.steps[h.shape[-1]] += n
            self.zero_steps += n - int(np.count_nonzero(h.reshape(n, -1).any(axis=1)))
        self._close(index)

    def _wrap(self, module: str, fn):
        tracer = self
        if fn.__name__ in _BY_DIMENSION:
            by_dim = {d: self._id(f"{module}.{fn.__name__}/d{d}") for d in (2, 3)}

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = tracer._open(by_dim[2])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer.name[index] = by_dim[np.shape(result)[-1]]
                return result

            return traced

        name_id = self._id(f"{module}.{fn.__name__}")
        count_steps = fn.__name__ in _HAMILTONIANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count_steps:
                tracer._count_steps(result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        modules = [m for k, m in sys.modules.items() if k == "doublepass" or k.startswith("doublepass.")]
        replaced: List[Tuple[object, str, object]] = []
        try:
            for module_name, attr in TRACED:
                original = getattr(sys.modules[f"doublepass.{module_name}"], attr)
                wrapper = self._wrap(module_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            replaced.append((module, key, original))
            yield self
        finally:
            for module, key, original in replaced:
                setattr(module, key, original)

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Self time and call count per span name, and the time covered by
        root spans."""
        n = len(self.start)
        children = [0.0] * n
        covered = 0.0
        for i in range(n):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                children[p] += duration
            else:
                covered += duration
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] += self.end[i] - self.start[i] - children[i]
            calls[name] += 1
        return self_s, calls, covered

    def dump(self, path: Path, header: dict) -> None:
        """Write a header line and one JSON array per span:
        [name, start_s, end_s, parent_index, op_id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(
                    f'["{names[self.name[i]]}",{self.start[i] - t0:.7f},'
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{self.op[i]}]\n"
                )
