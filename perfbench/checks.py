"""The correctness gate: every call is judged against its committed reference.

A judge returns a list of problems; an empty list means the call passed.
``wrong`` problems are answers that are false (a bracket that excludes the
reference, a rejected certificate, a fidelity off its closed form, or bounds
that ``certify`` does not reproduce).  Every other problem (an exception, an
unexpected exit code) means the call produced no answer.  Both count as
failed calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# A bracket must reach to within this share of the reference value; the
# references are verified brackets at least 10x tighter than this.
REL_TOL = 1e-6
# ``verify_certificate`` recomputes the bounds of a certificate from scratch;
# it must reproduce those the norm call reported to within rounding.
BOUNDS_REL_TOL = 1e-12


class Problem(NamedTuple):
    text: str
    wrong: bool


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def judge_bracket(lower: float, upper: float, ref: float) -> list:
    tol = REL_TOL * abs(ref)
    if not (lower <= ref + tol and upper >= ref - tol):
        return [Problem(f"bracket [{lower!r}, {upper!r}] excludes reference {ref!r}",
                        True)]
    return []


def judge_verified(valid: bool, violations, bounds: tuple, reported: tuple) -> list:
    """A re-verification must accept the certificate and reproduce the
    reported bounds."""
    problems = []
    if not valid:
        problems.append(Problem(f"certificate rejected: {list(violations)}", True))
    if not all(_close(a, b, BOUNDS_REL_TOL) for a, b in zip(bounds, reported)):
        problems.append(Problem(
            f"re-verified bounds {bounds!r} differ from reported {reported!r}", True))
    return problems


def judge_fidelity(value: float, ref: float) -> list:
    if not (math.isfinite(value) and abs(value - ref) <= REL_TOL * max(ref, 1.0)):
        return [Problem(f"fidelity {value!r} differs from closed form {ref!r}", True)]
    return []


def judge_exit(code: int, expected: int, stderr: str = "") -> list:
    if code != expected:
        detail = stderr.strip().splitlines()[-1:] if stderr else []
        return [Problem(f"exit code {code}, expected {expected} {detail}", False)]
    return []


def rel_width(lower: float, upper: float) -> float:
    """Bracket width relative to the upper bound (0 for the zero bracket)."""
    return (upper - lower) / abs(upper) if upper else 0.0
