"""Command-line front end.

Exit codes: 0 success, 1 input error (a malformed command line too), 2
solver did not reach optimality, ``numerical_failure`` included (repaired
bounds still reported), 3 certificate invalid.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__, superop
from .dnorm import NormOptions, cb_spectral_norm, diamond_norm, verify_certificate
from .errors import CbnormError, InvalidInputError
from .fidelity import fidelity_closed_form, fidelity_sdp
from .serialize import (
    certificate_to_json,
    dump_json,
    load_certificate,
    load_problem,
    problem_to_json,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NON_OPTIMAL = 2
EXIT_INVALID_CERT = 3


def _write_output(obj, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            dump_json(obj, fh)
    else:
        dump_json(obj, sys.stdout)


def _require_superop(problem: dict) -> superop.SuperOp:
    if "superop" not in problem:
        raise InvalidInputError(
            f"problem kind {problem['kind']!r} does not describe a super-operator"
        )
    return problem["superop"]


def cmd_compute(args) -> int:
    problem = load_problem(args.input)
    phi = _require_superop(problem)
    options = NormOptions(gap_tol=args.tol, feas_tol=args.tol,
                          verbose=args.verbose)
    start = time.perf_counter()
    if args.norm == "diamond":
        result = diamond_norm(phi, options)
    else:
        result = cb_spectral_norm(phi, options)
    elapsed = time.perf_counter() - start

    cert_json = certificate_to_json(result.certificate, args.norm)
    out = {
        "tool_version": __version__,
        "norm": args.norm,
        "method": result.method,
        "status": result.solver_stats.status,
        "value": result.value,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "iterations": result.solver_stats.iterations,
        "solver_gap": result.solver_stats.gap,
        "wall_time_seconds": elapsed,
        "warnings": list(result.warnings),
        "certificate": cert_json,
    }
    _write_output(out, args.output)
    if args.certificate:
        with open(args.certificate, "w") as fh:
            dump_json(cert_json, fh)
    return EXIT_OK if result.solver_stats.status == "optimal" else EXIT_NON_OPTIMAL


def cmd_certify(args) -> int:
    phi = _require_superop(load_problem(args.input))
    cert, target = load_certificate(args.certificate, phi)
    check = verify_certificate(target, cert, tol=args.tol)
    out = {
        "tool_version": __version__,
        "valid": check.valid,
        "lower_bound": check.lower,
        "upper_bound": check.upper,
        "violations": list(check.violations),
    }
    _write_output(out, args.output)
    return EXIT_OK if check.valid else EXIT_INVALID_CERT


def cmd_convert(args) -> int:
    problem = load_problem(args.input)
    phi = _require_superop(problem)
    out = problem_to_json(phi, args.to)
    _write_output(out, args.output)
    return EXIT_OK


def cmd_fidelity(args) -> int:
    problem = load_problem(args.input)
    if problem["kind"] != "fidelity":
        raise InvalidInputError("fidelity command requires a fidelity problem file")
    p, q = problem["p"], problem["q"]
    result = fidelity_sdp(p, q)
    out = {
        "tool_version": __version__,
        "fidelity": result.fidelity,
        "fidelity_squared": result.fidelity_squared,
        "method": result.method,
        "gap": result.gap,
        "closed_form": fidelity_closed_form(p, q),
    }
    _write_output(out, args.output)
    return EXIT_OK


def cmd_check_channel(args) -> int:
    problem = load_problem(args.input)
    phi = _require_superop(problem)
    report = superop.is_channel(phi)
    out = {
        "tool_version": __version__,
        "is_cp": report.is_cp,
        "is_tp": report.is_tp,
        "min_choi_eigenvalue": report.min_choi_eigenvalue,
        "tp_residual": report.tp_residual,
    }
    _write_output(out, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbnorm",
        description="Completely bounded trace/spectral norms of super-operators "
        "via semidefinite programming, with verifiable certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a completely bounded norm")
    p.add_argument("--input", required=True)
    p.add_argument("--norm", choices=("diamond", "cb-spectral"), default="diamond")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--certificate", help="write the certificate to this path")
    p.add_argument("--output")
    p.add_argument("--verbose", action="store_true",
                   help="solver iteration or ascent log on stderr")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("certify", help="re-verify a certificate without solving")
    p.add_argument("--input", required=True)
    p.add_argument("--certificate", required=True)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="absolute for the states' trace and eigenvalues, "
                   "relative to the spectral norm of the Choi matrix for "
                   "the block matrix's smallest eigenvalue")
    p.add_argument("--output")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--input", required=True)
    p.add_argument("--to", required=True,
                   choices=("choi", "kraus", "stinespring"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("fidelity", help="fidelity of two PSD operators")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("check-channel", help="CP / trace-preservation report")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_check_channel)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    if getattr(args, "to", None) == "stinespring":
        args.to = "stinespring_pair"
    try:
        return args.func(args)
    except CbnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
