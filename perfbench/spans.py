"""Span tracer that wraps the public ebcommit functions from outside the package.

Every traced function is replaced, in every ``ebcommit.*`` module namespace
that holds it, by a wrapper that records a span (name, start, end, parent).
Internal calls go through ``from .linalg import ...`` bindings, so rebinding
only the defining module would miss most of them. ``DensityMatrix`` is traced
through its ``__post_init__`` validation.

A span's self time is its duration minus the time its child spans cover;
calls run in one thread, so child spans never overlap and that time is the
sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Traced functions per module, in report order.
TRACED = {
    "linalg": ("eig_hermitian", "sqrtm_psd", "fidelity", "kron", "partial_trace",
               "partial_transpose", "trace_distance"),
    "states": ("DensityMatrix", "joint_outcome_decomposition", "cheat_state"),
    "channels": ("lift_apply", "channel_apply", "choi", "is_entanglement_breaking"),
    "entanglement": ("concurrence", "is_separable", "eb_threshold"),
    "protocol": ("derive_rng", "commit_honest", "commit_cheating", "open_and_steer",
                 "verify", "run_session", "monte_carlo"),
    "security": ("alice_binding_attack", "bob_cheat_probability"),
    "cli": ("main",),
}

TRACED_KEYS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._binding_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "ebcommit" or name.startswith("ebcommit.")]
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"ebcommit.{mod_name}")
            for fn in fns:
                key = f"{mod_name}.{fn}"
                if fn == "DensityMatrix":
                    cls = mod.DensityMatrix
                    orig = cls.__dict__["__post_init__"]
                    self._rebind(cls, "__post_init__", orig, self._wrap(key, orig))
                    continue
                orig = getattr(mod, fn, None)
                if orig is None:  # removed from the package: reported as zero calls
                    continue
                wrapper = self._wrap(key, orig)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, attr, orig, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _rebind(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(key, fn, args, kwargs)

        return traced

    def _call(self, key, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append((key, 0.0, 0.0, parent))
        stack.append(frame)
        binding = key == "security.alice_binding_attack"
        self._binding_depth += binding
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._binding_depth -= binding
            stack.pop()
            duration = end - start
            self.spans[frame[0]] = (key, start, end, parent)
            self.calls[key] += 1
            self.self_s[key] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
        self._observe(key, args, kwargs, result)
        return result

    def _observe(self, key, args, kwargs, result) -> None:
        if key == "protocol.run_session":
            report = result[1]
            config = args[0] if args else kwargs["config"]
            self.counters["sessions"] += 1
            self.counters["rounds"] += config.rounds
            self.counters["sifted"] += report.sifted_count
            self.counters["accepted"] += bool(report.accepted)
        elif key == "states.joint_outcome_decomposition" and self._binding_depth:
            side = args[1] if len(args) > 1 else kwargs.get("side")
            if side == "A":
                self.counters["steer_evals"] += 1

    def durations_ms(self, key: str) -> list[float]:
        return [(end - start) * 1e3 for k, start, end, _ in self.spans if k == key]

    def dump(self, path) -> None:
        """Write every span as one JSON line: [index, name, start_s, end_s, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (key, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, key, start, end, parent]) + "\n")
