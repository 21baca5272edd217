"""Outside-in layer trace for the kaczmat benchmark.

The tracer replaces module-level names that ``kaczmat.solve`` and
``kaczmat.cli`` look up at call time with timing wrappers, so it sees every
layer boundary without any change to the library. Spans are kept in memory
(flat arrays, one entry per call) and written once, at the end of the run.
A span's self time is its duration minus the time its child spans cover.

A hooked name that no longer exists is reported as absent rather than
raising, so a refactor that removes one loses that layer's numbers but not
the run.
"""

import importlib
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

WORD = 8  # bytes per float64 entry


def _step_shape(args):
    state, I, J = args[0], args[1], args[2]
    p, q = state.X.shape
    return p, q, np.size(I), np.size(J)


def _grk_counts(args):
    p, q = args[0].X.shape
    # a X b residual, then the scaled outer-product update of X
    return 5 * p * q + 2 * q, WORD * (2 * p * q + p + q)


def _grbk_counts(args):
    p, q, t1, t2 = _step_shape(args)
    residual = 2 * t1 * p * q + 2 * t1 * q * t2 + t1 * t2
    update = 2 * p * t1 * t2 + 2 * p * t2 * q + p * q
    moved = 2 * p * q + t1 * p + q * t2 + t1 * t2 + p * t1 + t2 * q
    return residual + update, WORD * moved


def _grabk_counts(args, adaptive):
    p, q, t1, t2 = _step_shape(args)
    residual = 2 * t1 * p * q + 2 * t1 * q * t2 + t1 * t2
    update = 2 * t1 * t2 + 2 * p * t1 * t2 + 2 * p * t2 * q + 2 * p * q
    if adaptive:  # ||U||_F^2 and the weighted residual energy
        update += 2 * p * q + 3 * t1 * t2
    moved = 2 * p * q + t1 * p + q * t2 + t1 * t2
    return residual + update, WORD * moved


def _step_counter(method, counts):
    def count(tracer, args, kwargs, result):
        flops, nbytes = counts(args)
        tracer.add(f"flops.{method}", flops)
        tracer.add(f"bytes.{method}", nbytes)
    return count


def _count_solve(tracer, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.add(f"iterations.{config.method}", result.iterations)


def _count_file_bytes(tracer, args, kwargs, result):
    tracer.add("mmio.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, counter) for every wrapped name.
HOOKS = (
    ("kaczmat.solvers", "prepare_state", "solvers.prepare_state", None),
    ("kaczmat.solvers", "sample_block", "sampling.sample_block", None),
    ("kaczmat.solvers", "grk_step", "solvers.step.grk",
     _step_counter("grk", _grk_counts)),
    ("kaczmat.solvers", "grbk_step", "solvers.step.grbk",
     _step_counter("grbk", _grbk_counts)),
    ("kaczmat.solvers", "grabk_step", "solvers.step.grabk_const",
     _step_counter("grabk_const", lambda a: _grabk_counts(a, False))),
    ("kaczmat.solvers", "_grabk_adaptive_apply", "solvers.step.grabk_adaptive",
     _step_counter("grabk_adaptive", lambda a: _grabk_counts(a, True))),
    ("kaczmat.solvers", "_relative_residual", "solvers.residual", None),
    ("kaczmat.solvers", "pinv", "matrices.pinv", None),
    ("kaczmat.solvers", "beta_max", "rates.beta_max", None),
    ("kaczmat.solvers", "gamma_max", "rates.gamma_max", None),
    ("kaczmat.solvers", "frobenius_block_probs",
     "sampling.frobenius_block_probs", None),
    ("kaczmat.cli", "solve", "solvers.solve", _count_solve),
    ("kaczmat.cli", "load_problem_dir", "cli.load_problem_dir", None),
    ("kaczmat.cli", "load_matrix_market", "mmio.load_matrix_market",
     _count_file_bytes),
    ("kaczmat.cli", "read_pgm", "images.read_pgm", None),
    ("kaczmat.cli", "write_pgm", "images.write_pgm", None),
    ("kaczmat.cli", "blur_problem", "problems.blur_problem", None),
    ("kaczmat.cli", "write_trace_csv", "cli.write_trace_csv", None),
)


class Tracer:
    """Span recorder with per-name call counts, inclusive and self time."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.absent = []
        self._originals = []

    def add(self, key, amount):
        self.counters[key] += amount

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])

    def _close(self, name):
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every hooked name for the duration of the block."""
        self.absent = []
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
        try:
            yield self
        finally:
            while self._originals:
                module, attr, fn = self._originals.pop()
                setattr(module, attr, fn)

    def write(self, path):
        """Write every span (name, parent span, start, end) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
