"""Spans around sweptplan's public functions, installed from outside the package.

Each traced function is wrapped on every attribute of every loaded
``sweptplan`` module bound to that function object, found by identity, so
calls made through ``from .x import f`` bindings (``sim.mpc_step``,
``planner.build_minco``) are caught too. Methods are wrapped on their class.
A traced name that no longer exists fails `install` instead of reading 0.

A span is (id, name, start, end, parent id, thread id, stage); spans stay in
memory and are written by `write_spans` when the run ends. The sweep's worker
threads start with an empty stack, so their spans take the main thread's open
span (``compute_swept_field``) as parent. Self time subtracts only children
on the span's own thread, because cross-thread children overlap in parallel.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

TRACED = {
    "worldmodel": ("rasterize_obstacles", "astar_plan", "estimate_headings"),
    "minco": (
        "build_minco",
        "propagate_gradient",
        "energy_cost_with_grads",
        "time_cost_with_grads",
        "MincoTrajectory.sample",
    ),
    "planner": (
        "optimize_stage1",
        "optimize_stage2",
        "deviation_cost_with_grads",
        "obstacle_cost_with_grads",
        "sweep_cost_with_grads",
        "check_feasibility",
    ),
    "geometry": ("footprint_sdf_values", "footprint_sdf_batch"),
    "sweptfield": ("compute_swept_field", "auto_region", "excess_area", "LinearPosePath.sample"),
    "mpc": ("mpc_step", "build_qp", "solve_qp"),
    "sim": ("run_closed_loop", "signed_lateral_error", "driven_path", "compute_metrics"),
    "drivetrain": ("allocate",),
    "render": ("render_scene",),
    "cli": (
        "parse_scenario",
        "write_field_csv",
        "load_field_csv",
        "write_trace_csv",
        "load_trace_csv",
    ),
}

# Spans whose ancestors are counted, to attribute cost evaluations to stages.
_ANCESTRY = ("minco.energy_cost_with_grads", "minco.propagate_gradient")


class MissingFunction(RuntimeError):
    """A traced public name is not defined by its sweptplan module."""


def _sample_points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["ts"]))}


def _sdf_points(args, kwargs, result):
    return {"points": int(np.shape(args[0] if args else kwargs["points"])[0])}


def _field_cells(args, kwargs, result):
    return {
        "cells": int(result.width * result.height),
        "far_cells": int(np.count_nonzero(result.f_star > 1.0)),
    }


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _qp_info(args, kwargs, result):
    if not isinstance(result, tuple):
        return {}
    info = result[1]
    return {
        "qp_iterations": int(info["iterations"]),
        "non_optimal": int(info["status"] != "optimal"),
        "active_set": len(info["active_set"]),
    }


_EXTRACT = {
    "minco.MincoTrajectory.sample": _sample_points,
    "sweptfield.LinearPosePath.sample": _sample_points,
    "geometry.footprint_sdf_values": _sdf_points,
    "geometry.footprint_sdf_batch": _sdf_points,
    "sweptfield.compute_swept_field": _field_cells,
    "render.render_scene": _file_bytes,
    "cli.write_field_csv": _file_bytes,
    "mpc.mpc_step": _qp_info,
}


def call_cost(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer("calibration")._wrap("calibration.noop", noop)
    best = []
    for fn in (noop, wrapped):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return (best[1] - best[0]) / calls


def _bindings(obj):
    """Every (module, attribute) of the loaded sweptplan modules bound to obj."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sweptplan" or modname.startswith("sweptplan.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                yield mod, attr


def wrapped_leftovers() -> list:
    """Names of sweptplan attributes that still hold a tracing wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sweptplan" or modname.startswith("sweptplan.")):
            continue
        for attr, value in list(vars(mod).items()):
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == modname:
                owners += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            found += [f"{modname}.{n}" for n, v in owners if hasattr(v, "__perfbench_original__")]
    return found


class Tracer:
    """Records spans and counts for one run; install() before, uninstall() after."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stage = None
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._installed = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, t0) -> None:
        t1 = time.perf_counter()
        stack.pop()
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), self.stage))

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, name, t0)

    def count(self, name: str, values: dict) -> None:
        with self._lock:
            for key, v in values.items():
                k = f"{name}.{key}@{self.stage}"
                self.counts[k] = self.counts.get(k, 0) + v

    def _wrap(self, name: str, fn):
        extract = _EXTRACT.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack, sid, parent, name, t0)
            if extract is not None:
                tracer.count(name, extract(args, kwargs, result))
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function; raises MissingFunction before wrapping any."""
        targets = []
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"sweptplan.{modname}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    raise MissingFunction(f"sweptplan.{modname}.{name} is not defined")
                bindings = [(owner, attr)] if owner_name else list(_bindings(fn))
                targets.append((f"{modname}.{name}", fn, bindings))
        for label, fn, bindings in targets:
            wrapper = self._wrap(label, fn)
            for owner, attr in bindings:
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding; raises if any wrapper is left behind."""
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)
        left = wrapped_leftovers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, thread, stage in self.spans:
                rec = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                       "run": self.run_id, "thread": thread, "stage": stage}
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """Per (name, stage): calls, total and self seconds; counts; ancestry counts."""
        by_id = {s[0]: s for s in self.spans}
        child_s = {}
        for sid, _, t0, t1, parent, thread, _ in self.spans:
            if parent is not None and by_id[parent][5] == thread:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        calls, total, self_s, under = {}, {}, {}, {}
        for sid, name, t0, t1, parent, _, stage in self.spans:
            key = f"{name}@{stage}"
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + (t1 - t0)
            self_s[key] = self_s.get(key, 0.0) + (t1 - t0) - child_s.get(sid, 0.0)
            if name in _ANCESTRY:
                seen = set()
                while parent is not None:
                    anc = by_id[parent][1]
                    if anc not in seen:
                        seen.add(anc)
                        k = f"{name}<{anc}"
                        under[k] = under.get(k, 0) + 1
                    parent = by_id[parent][4]
        return {"calls": calls, "total_s": total, "self_s": self_s, "counts": dict(self.counts), "under": under}
