"""Regenerate ``refs.json``: reference values of every pool member a
workload uses.

    python3 perfbench/make_refs.py            # about 2 minutes

Norms: the midpoint of a bracket at most 1e-7 wide (relative), from a
tight-tolerance solve (gap and feasibility 1e-10) whose certificate
``verify_certificate`` accepts.  Where that solve fails or is not tight
enough, the verified brackets of the further attempts in ``_attempts`` are
intersected with it, in order, until the bracket is tight; the attempts used
are recorded as the reference's ``routes``.  The norms are invariant under
the unitary rotation and homogeneous under the rescaling those attempts
apply.  Each reference is cross-checked against
``induced_trace_norm_lower_bound`` and, for the diamond norm of a channel
pair, against the other SDP route.
Fidelity: the closed form, computed here from the generator's factor of
``P`` and cross-checked against ``fidelity_closed_form``.
"""

from __future__ import annotations

import json
import sys
import time

import common

THREADS = common.pin_threads()

import numpy as np  # noqa: E402

import workloads  # noqa: E402

common.import_package()
from cbnorm import (  # noqa: E402
    NormOptions,
    adjoint,
    cb_spectral_norm,
    diamond_norm,
    fidelity_closed_form,
    induced_trace_norm_lower_bound,
    verify_certificate,
)
from cbnorm.errors import CbnormError  # noqa: E402

TIGHT = {"gap_tol": 1e-10, "feas_tol": 1e-10}
# A reference bracket must be at least this tight (relative to its value).
MAX_REF_WIDTH = 1e-7
# Cross-checks: the ascent lower bound may not exceed the reference, and the
# two routes must agree, within this relative tolerance.
CROSS_TOL = 1e-6


def _attempts(raw: dict):
    """``(route, map, factor, options)``: the norm of ``map`` is ``factor``
    times the norm of the pool member.  The ``max_iter`` attempts stop the
    solver before the iteration where it breaks down; their repaired
    certificates still give sound bounds."""
    phi = workloads.to_package(raw)
    yield "tight", phi, 1.0, TIGHT
    if raw["kind"] == "channel_pair":
        yield "tight-general", phi, 1.0, dict(TIGHT, method="general")
    rotated = workloads.rotate(raw, np.random.default_rng(1))
    yield "rotated", workloads.to_package(rotated), 1.0, TIGHT
    yield "default-tol", phi, 1.0, {}
    if raw["kind"] != "channel_pair":
        for factor in (10.0, 0.1):
            yield f"scaled-{factor:g}", workloads.to_package(raw, factor), factor, TIGHT
    for max_iter in (40, 30, 25, 20, 16, 12):
        yield f"max-iter-{max_iter}", phi, 1.0, dict(TIGHT, max_iter=max_iter)


def norm_reference(raw: dict, norm: str) -> dict:
    """Intersection of the verified brackets of the attempts, taken in
    order until it is at most ``MAX_REF_WIDTH`` wide."""
    fn = diamond_norm if norm == "diamond" else cb_spectral_norm
    lower, upper = -np.inf, np.inf
    used, rejected, iterations = [], [], []
    for route, phi, factor, opts in _attempts(raw):
        try:
            res = fn(phi, NormOptions(**opts))
        except CbnormError as exc:
            rejected.append(f"{route}: {type(exc).__name__}: {exc}")
            continue
        target = phi if norm == "diamond" else adjoint(phi)
        check = verify_certificate(target, res.certificate)
        if not check.valid:
            rejected.append(f"{route}: certificate rejected")
            continue
        lower = max(lower, check.lower / factor)
        upper = min(upper, check.upper / factor)
        used.append(route)
        iterations.append(res.solver_stats.iterations)
        if upper - lower <= MAX_REF_WIDTH * abs(upper):
            break
    if lower > upper:
        raise RuntimeError(f"{norm}: verified brackets disagree: {lower} > {upper}")
    if not used or upper - lower > MAX_REF_WIDTH * abs(upper):
        raise RuntimeError(f"no reference for {norm}: [{lower}, {upper}] {rejected}")
    ref = {"value": (lower + upper) / 2, "lower": lower, "upper": upper,
           "routes": used, "iterations": iterations, "rejected": rejected}
    _cross_check(raw, norm, ref)
    return ref


def _cross_check(raw: dict, norm: str, ref: dict) -> None:
    phi = workloads.to_package(raw)
    target = phi if norm == "diamond" else adjoint(phi)
    value = ref["value"]
    lower = induced_trace_norm_lower_bound(target, restarts=3, max_iters=300)
    ref["ascent_lower"] = lower
    if lower > value * (1 + CROSS_TOL):
        raise RuntimeError(f"ascent lower bound {lower} exceeds {norm} {value}")
    if raw["kind"] == "channel_pair" and norm == "diamond":
        method = "channel-diff" if ref["routes"][0] == "tight-general" else "general"
        try:
            other = diamond_norm(phi, NormOptions(method=method, **TIGHT)).value
        except CbnormError as exc:
            ref["other_route"] = f"{method}: {type(exc).__name__}"
            return
        ref["other_route"] = other
        if abs(other - value) > CROSS_TOL * value:
            raise RuntimeError(f"routes disagree: {value} vs {method} {other}")


def fidelity_reference(raw: dict) -> dict:
    """``F(P, Q) = |sqrt(P) sqrt(Q)|_1 = |G^dag sqrt(Q)|_1`` for
    ``P = G G^dag``, which needs a square root of the full-rank ``Q`` only."""
    vals, vecs = np.linalg.eigh(raw["q_factor"] @ raw["q_factor"].conj().T)
    root_q = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    value = float(np.linalg.svd(raw["p_factor"].conj().T @ root_q,
                                compute_uv=False).sum())
    package = fidelity_closed_form(*workloads.to_package(raw))
    if abs(package - value) > CROSS_TOL * value:
        raise RuntimeError(f"closed forms disagree: {value} vs {package}")
    return {"value": value, "package_closed_form": package}


def main() -> int:
    data = {"members": {}}
    for pool, index in workloads.all_members():
        start = time.perf_counter()
        raw = workloads.generate(pool, index)
        entry = {"fingerprint": workloads.fingerprint(raw)}
        if raw["kind"] == "fidelity":
            entry["fidelity"] = fidelity_reference(raw)
        else:
            for norm in ("diamond", "cb"):
                entry[norm] = norm_reference(raw, norm)
        data["members"][f"{pool}/{index}"] = entry
        routes = [entry[k].get("routes", "closed-form")
                  for k in ("diamond", "cb", "fidelity") if k in entry]
        print(f"{pool}/{index}: {routes} {time.perf_counter() - start:.1f} s",
              flush=True)
    data["environment"] = common.environment(THREADS)
    common.REFS.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
