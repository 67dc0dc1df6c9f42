"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``smcbsde`` module that holds it, so calls between modules (the CLI
calling ``build_lattice``, ``check_comparison`` calling ``solve_bsde``) are
seen as nested spans.  A span's self time is its duration minus the time of
the spans it encloses.  Nothing is traced until ``active`` is set, and
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from smcbsde import bsde


def _solve_kind(args, kwargs):
    driver = args[1] if len(args) > 1 else kwargs["driver"]
    return "linear" if isinstance(driver, bsde.LinearDriver) else "general"


def _dual_kind(args, kwargs):
    mc = args[5] if len(args) > 5 else kwargs.get("mc_paths")
    return "exhaustive" if mc is None else "mc"


# (module, function, span name or a suffix chooser)
TRACED = (
    ("chain", "simulate_paths", None),
    ("lattice", "build_lattice", None),
    ("lattice", "projection_constants", None),
    ("linalg", "positivity_condition", None),
    ("linalg", "comparison_condition", None),
    ("bsde", "solve_bsde", _solve_kind),
    ("bsde", "check_comparison", None),
    ("duality", "dual_value", _dual_kind),
    ("duality", "weight_bounds", None),
    ("control", "solve_control", None),
    ("control", "brute_force_value", None),
    ("control", "epsilon_optimal_policy", None),
    ("files", "load_model", "files.load"),
    ("files", "load_linear_problem", "files.load"),
    ("files", "load_control_problem", "files.load"),
    ("files", "write_json", "files.write"),
    ("files", "write_csv", "files.write"),
)


def retained_bytes(obj) -> int:
    """Bytes of the distinct numpy buffers reachable from obj's fields."""
    seen = set()
    buffers = set()
    total = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            base = x
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in buffers:
                buffers.add(id(base))
                total += base.nbytes
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
    return total


class Tracer:
    def __init__(self):
        self.active = False
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.top_level = 0.0
        self.built = {}
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            self.busy[name] += dur
            self.self_time[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += dur
            else:
                self.top_level += dur

    def _wrap(self, module, fname, fn, naming):
        base = f"{module}.{fname}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if naming is None:
                name = base
            elif isinstance(naming, str):
                name = naming
            else:
                name = f"{base}.{naming(args, kwargs)}"
            if fname == "build_lattice":
                self._record_build(args[0] if args else kwargs["model"])
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _record_build(self, model):
        # the CLI loads a fresh model object per call, so key on content
        key = hashlib.sha1(b"".join(
            a.tobytes() for a in (model.pi, model.jump, model.x0))).digest()
        entry = self.built.setdefault(key, [model, 0])
        entry[1] += 1

    def memory_pass(self):
        """Rebuild each traced model's lattice once under tracemalloc.

        Kept out of the traced loop so tracemalloc does not slow the spans.
        Returns (largest build peak in bytes, retained bytes summed over every
        traced build call).
        """
        from smcbsde import lattice

        peak = 0
        retained = 0
        for model, calls in self.built.values():
            tracemalloc.start()
            try:
                sys_ = lattice.build_lattice(model)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            retained += calls * retained_bytes(sys_)
            del sys_
        return peak, retained

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if name == "smcbsde" or name.startswith("smcbsde.")]
        for module, fname, naming in TRACED:
            owner = sys.modules[f"smcbsde.{module}"]
            fn = getattr(owner, fname)
            wrapper = self._wrap(module, fname, fn, naming)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
