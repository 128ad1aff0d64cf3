"""Span recorder for the traced run, applied to bmc from outside.

`Tracer.install` replaces each traced function with a wrapper in every bmc
module that binds it (cli imports `capacity_point` by name, the package
re-exports nearly everything), and `DensityMatrix.validate` on its class.
A wrapper records one span: which function, which op, the enclosing span,
start and end. Spans stay in memory in flat arrays and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

TRACED = (
    "lindblad.evolve_trajectory",
    "analytic.to_density_matrix",
    "analytic.evolve_coherent_analytic",
    "fock.displacement_operator",
    "fock.thermal_state",
    "fock.von_neumann_entropy",
    "fock.trace_distance",
    "fock.DensityMatrix.validate",
    "fock.coherent_state",
    "fock.projector",
    "capacity.optimal_nbar",
    "capacity.theta_at_nbar",
    "capacity.capacity_point",
    "capacity.g_entropy",
    "cli.main",
    "cli.run_validation",
    "cli.sweep_rows",
    "cli.write_sweep_csv",
    "cli.load_config",
)
MODULES = ("lindblad", "analytic", "fock", "capacity", "cli")


class Tracer:
    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        self._op += 1

    def _wrap(self, index: int, fn):
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            slot = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(self._op)
            start.append(0)
            end.append(0)
            stack.append(slot)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[slot] = clock()
                start[slot] = t0
                stack.pop()

        return span

    def install(self) -> None:
        bmc_modules = [m for key, m in sys.modules.items() if key == "bmc" or key.startswith("bmc.")]
        for index, dotted in enumerate(self.names):
            module_name, *path = dotted.split(".")
            owner = sys.modules[f"bmc.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(index, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            for module in bmc_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op calls and self time of every traced function, and module roll-ups.

    A span's self time is its duration minus the durations of its child
    spans; spans of one thread nest, so the children never overlap.
    """
    spans = tracer.arrays()
    duration = (spans["end_ns"] - spans["start_ns"]).astype(float)
    has_parent = spans["parent"] >= 0
    child_time = np.bincount(
        spans["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_ns = duration - child_time
    n = len(tracer.names)
    calls = np.bincount(spans["name"], minlength=n)
    self_by_name = np.bincount(spans["name"], weights=self_ns, minlength=n)
    metrics = {}
    modules = dict.fromkeys(MODULES, 0.0)
    for index, dotted in enumerate(tracer.names):
        self_ms = self_by_name[index] / 1e6 / n_ops
        metrics[f"{dotted}.calls"] = calls[index] / n_ops
        metrics[f"{dotted}.self_ms"] = self_ms
        modules[dotted.split(".")[0]] += self_ms
    for module, self_ms in modules.items():
        metrics[f"{module}.self_ms"] = self_ms
    return metrics
