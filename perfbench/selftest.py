"""Self-test of the benchmark itself (not of cbnorm).

    python3 perfbench/selftest.py

Checks that the instance generator is deterministic for a given seed, and
that the correctness gate counts a bracket that excludes its reference, a
call that raises and a ``cbnorm certify`` that rejects a tampered
certificate as failed calls.  Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import common

common.pin_threads()

import numpy as np  # noqa: E402

import workloads  # noqa: E402

common.import_package()

import checks  # noqa: E402
import run  # noqa: E402


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def test_generator_is_deterministic() -> None:
    for workload in workloads.WORKLOADS:
        for member in {c.member for c in workloads.calls_for(workload)}:
            def arrays(seed):
                rng = workloads.rotation_rng(workload, seed, member)
                raw = workloads.rotate(workloads.generate(*member), rng)
                return [np.asarray(v) for v in raw.values() if not np.isscalar(v)]

            first, again, other = arrays(7), arrays(7), arrays(8)
            expect(all(np.array_equal(a, b) for a, b in zip(first, again)),
                   f"{workload} {member}: seed 7 gave two different inputs")
            expect(not any(np.allclose(a, b) for a, b in zip(first, other)),
                   f"{workload} {member}: seeds 7 and 8 gave the same input")


def test_gate_counts_excluded_bracket() -> None:
    expect(checks.judge_bracket(1.0, 1.1, 1.05) == [], "bracket holding its reference")
    (problem,) = checks.judge_bracket(1.0, 1.1, 1.2)
    expect(problem.wrong, "an excluded reference is a wrong answer")

    runner = run.Runner("small-batch", 0, in_process_cli=False)
    runner.setup()
    call = next(c for c in runner.calls if c.entry == "diamond")
    expect(runner.call(call).problems == [], f"{call.label} fails at the seed")

    ref = runner.refs[call.member]
    shifted = dict(ref, diamond=dict(ref["diamond"], value=2 * ref["diamond"]["value"]))
    runner.refs[call.member] = shifted
    out = runner.call(call)
    expect([p.wrong for p in out.problems] == [True],
           f"a bracket excluding a shifted reference passed: {out.problems}")
    runner.refs[call.member] = ref

    broken = dataclasses.replace(call, member=("broken", 0))
    raw = runner.raw[call.member]
    runner.raw[broken.member] = {**raw, "kraus0": [k * np.nan for k in raw["kraus0"]]}
    runner.refs[broken.member] = ref
    out = runner.call(broken)
    expect(len(out.problems) == 1 and not out.problems[0].wrong
           and out.problems[0].text.startswith("raised"),
           f"a raising call was not counted as failed: {out.problems}")


def test_gate_counts_rejected_certificate() -> None:
    """``cbnorm certify`` on a tampered certificate exits 3; the answer it
    writes is still judged, and the rejection makes ``correct`` false."""
    runner = run.Runner("cli-roundtrip", 0, in_process_cli=False)
    try:
        runner.setup()
        compute = next(c for c in runner.calls if c.entry.startswith("cli-compute"))
        certify = runner.calls[runner.calls.index(compute) + 1]
        expect(runner.call(compute).problems == [], f"{compute.label} fails at the seed")
        path = runner._path(compute, "cert")
        with open(path) as fh:
            cert = json.load(fh)
        cert["rho"] = [[[-re, -im] for re, im in row] for row in cert["rho"]]
        with open(path, "w") as fh:
            json.dump(cert, fh)
        out = runner.call(certify)
    finally:
        runner.close()
    expect(out.exit_code == 3, f"certify of a tampered certificate exited {out.exit_code}")
    expect(any(p.wrong for p in out.problems),
           f"a rejected certificate was not a wrong answer: {out.problems}")
    report = {"trace": 0, "wrong": 1, "attempted": 1, "failed": 1, "end_to_end": {}}
    expect(not run.result_line(report, {"end_to_end": []})["correct"],
           "a wrong answer left correct true")


def main() -> int:
    for test in (test_generator_is_deterministic, test_gate_counts_excluded_bracket,
                 test_gate_counts_rejected_certificate):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
