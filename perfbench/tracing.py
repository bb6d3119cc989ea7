"""Per-layer tracing of the ``cbnorm`` package, applied from outside it.

:class:`Tracer` replaces every public function of each package module with
a wrapper that records a span, in the namespace of every module that binds
it: ``dnorm`` imports ``solve`` and ``herm_eig`` with ``from ... import``, so
patching the defining module alone would miss those calls.  Spans stay in
memory and are written out when the run ends.  Nothing under ``src/`` is
changed, and :meth:`Tracer.uninstall` restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

PACKAGE = "cbnorm"
LAYERS = ("linalg", "superop", "sdp", "dnorm", "fidelity", "serialize", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name index, start ns, end ns, parent span index or -1, call id,
        # nested: an enclosing span has the same name)
        self.spans: list = []
        # One record per sdp.solve call: sizes, iterations and status.
        self.solves: list[dict] = []
        self._largest = None
        self.bytes_out = 0
        self.call_id = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patched: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", self._hook(layer, name, fn))
        for mod in [importlib.import_module(PACKAGE), *modules]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        problem = importlib.import_module(f"{PACKAGE}.sdp").SdpProblem
        original = problem.__dict__["from_maps"]
        self._patched.append((problem, "from_maps", original))
        problem.from_maps = staticmethod(self._wrap("sdp.from_maps", original.__func__))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    def _hook(self, layer: str, name: str, fn):
        if (layer, name) == ("sdp", "solve"):
            return self._recorded_solve(fn)
        if (layer, name) == ("serialize", "dump_json"):
            return self._counted_dump(fn)
        return fn

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            nested = depth[idx] > 0
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            depth[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[idx] -= 1
                stack.pop()
                spans[pos] = (idx, start, end, parent, self.call_id, nested)

        return wrapper

    def _recorded_solve(self, solve):
        """``solve`` that records the problem sizes, iterations and status,
        and keeps the largest problem for :meth:`peak_alloc_mb`."""

        @functools.wraps(solve)
        def recorded(problem, options=None):
            sol = solve(problem, options)
            self.solves.append({
                "m_con": problem.con_structure.dof,
                "blocks": list(problem.var_structure.blocks)
                + list(problem.con_structure.blocks),
                "iterations": sol.iterations,
                "status": sol.status,
            })
            if self._largest is None or problem.con_structure.dof > \
                    self._largest[1].con_structure.dof:
                self._largest = (solve, problem, options)
            return sol

        return recorded

    def peak_alloc_mb(self) -> float:
        """Peak memory allocated inside ``solve`` on the largest problem of
        the traced passes, solved once more under ``tracemalloc`` (numpy
        reports its buffers to it).  Run after the traced passes: tracing
        every allocation inside the timed solves would slow small solves
        several times over."""
        if self._largest is None:
            return 0.0
        solve, problem, options = self._largest
        tracemalloc.start()
        try:
            solve(problem, options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def _counted_dump(self, dump_json):
        @functools.wraps(dump_json)
        def counted(obj, stream):
            start = stream.tell() if stream.seekable() else None
            dump_json(obj, stream)
            if start is not None:
                self.bytes_out += stream.tell() - start

        return counted

    # ----------------------------------------------------------- results

    def summary(self) -> dict:
        """Per span name: ``calls``, ``s`` (inclusive time, outermost spans
        only, so recursion is not counted twice) and ``self_s`` (duration
        minus the time covered by direct child spans)."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for pos, (idx, start, end, _, _, nested) in enumerate(self.spans):
            entry = out[self.names[idx]]
            entry["calls"] += 1
            if not nested:
                entry["s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child[pos]) * 1e-9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "call", "nested"],
                       "names": self.names, "spans": self.spans,
                       "solves": self.solves}, fh)


def dense_gflop(solve: dict) -> float:
    """Computed floating-point work of the dense Newton system of one solve:
    per iteration, Schur formation ``W row_j W`` (two complex ``d^3``
    products per row and block) and ``<row_j, .>`` (``m^2 d^2`` complex
    multiply-adds per block), plus the real Cholesky factor (``m^3 / 3``).
    A complex multiply-add counts as 8 flops."""
    m = solve["m_con"]
    per_iter = sum(16 * m * d ** 3 + 8 * m * m * d * d for d in solve["blocks"])
    return solve["iterations"] * (per_iter + m ** 3 / 3) * 1e-9


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """The per-layer metrics, per traced pass of the workload."""
    spans = tracer.summary()

    def total(field, *names):
        return sum(spans.get(n, {}).get(field, 0.0) for n in names) / passes

    def prefixed(field, prefix):
        return total(field, *[n for n in spans if n.startswith(prefix)])

    eig = ("linalg.herm_eig", "linalg.min_eigenvalue", "linalg.max_eigenvalue")
    solves = tracer.solves
    iterations = sum(s["iterations"] for s in solves)
    solve_s = total("s", "sdp.solve")
    gflop = sum(dense_gflop(s) for s in solves) / passes
    return {
        "linalg.spectral_norm.calls": total("calls", "linalg.spectral_norm"),
        "linalg.spectral_norm.s": total("s", "linalg.spectral_norm"),
        "linalg.hermitian_part.calls": total("calls", "linalg.hermitian_part"),
        "linalg.hermitian_part.s": total("s", "linalg.hermitian_part"),
        "linalg.eig.calls": total("calls", *eig),
        "linalg.eig.s": total("s", *eig),
        "linalg.self_s": prefixed("self_s", "linalg."),
        "superop.to_choi.calls": total("calls", "superop.to_choi"),
        "superop.to_choi.s": total("s", "superop.to_choi"),
        "superop.to_stinespring.s": total("s", "superop.to_stinespring"),
        "superop.is_channel.calls": total("calls", "superop.is_channel"),
        "superop.is_channel.s": total("s", "superop.is_channel"),
        "superop.apply.calls": total("calls", "superop.apply"),
        "superop.adjoint.s": total("s", "superop.adjoint"),
        "superop.self_s": prefixed("self_s", "superop."),
        "sdp.from_maps.s": total("s", "sdp.from_maps"),
        "sdp.solve.calls": total("calls", "sdp.solve"),
        "sdp.solve.s": solve_s,
        "sdp.solve.self_s": total("self_s", "sdp.solve"),
        "sdp.solve.iterations": iterations / passes,
        "sdp.solve.s_per_iter": solve_s * passes / iterations if iterations else 0.0,
        "sdp.solve.optimal_share": (
            sum(s["status"] == "optimal" for s in solves) / len(solves)
            if solves else 0.0),
        "sdp.solve.peak_alloc_mb": tracer.peak_alloc_mb(),
        "sdp.m_con.max": max((s["m_con"] for s in solves), default=0),
        "sdp.rows_mb": max((16 * s["m_con"] * sum(d * d for d in s["blocks"])
                            for s in solves), default=0) / 2 ** 20,
        "sdp.dense_gflop": gflop,
        "sdp.dense_gflop_per_s": gflop / solve_s if solve_s else 0.0,
        "dnorm.build.self_s": total("self_s", "dnorm.build_general_sdp",
                                    "dnorm.build_channel_diff_sdp"),
        "dnorm.diamond_norm.self_s": total("self_s", "dnorm.diamond_norm"),
        "dnorm.verify_certificate.calls": total("calls", "dnorm.verify_certificate"),
        "dnorm.verify_certificate.s": total("s", "dnorm.verify_certificate"),
        "fidelity.fidelity_sdp.self_s": total("self_s", "fidelity.fidelity_sdp"),
        "serialize.load.s": total("s", "serialize.load_problem",
                                  "serialize.load_certificate"),
        "serialize.dump.s": total("s", "serialize.dump_json",
                                  "serialize.certificate_to_json"),
        "serialize.bytes_out": tracer.bytes_out / passes,
        "cli.main.self_s": prefixed("self_s", "cli."),
    }
