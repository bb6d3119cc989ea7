"""JSON problem, result, and certificate file formats.

Complex scalars are stored as two-element ``[re, im]`` arrays of decimal
floats; matrices as nested row-major arrays of those pairs.  Floats are
emitted with shortest round-trip representation, so re-serializing parsed
data is byte-stable.
"""

from __future__ import annotations

import json

import numpy as np

from . import superop
from .dnorm import Certificate, _certificate, _normalized_state
from .errors import InvalidInputError
from .superop import StinespringPair, SuperOp

FORMAT_VERSION = "1"  # of problem files
CERTIFICATE_VERSION = "2"  # format "1" certificates are still read

PROBLEM_KINDS = ("choi", "kraus", "stinespring_pair", "channel_pair", "fidelity")
NORMS = ("diamond", "cb-spectral")


class ProblemFormatError(InvalidInputError):
    """Malformed problem/certificate file; message names the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _is_number(x) -> bool:
    """A parsed JSON number; ``true`` and ``false`` parse as ``bool``, an
    ``int`` subclass, and are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_json(obj, path: str, shape: tuple | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError(path, "expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ProblemFormatError(f"{path}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFormatError(f"{path}[{i}]", "ragged row length")
        entries = []
        for k, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2 or
                    not all(_is_number(x) for x in cell)):
                raise ProblemFormatError(
                    f"{path}[{i}][{k}]", "expected an [re, im] pair"
                )
            entries.append(complex(cell[0], cell[1]))
        rows.append(entries)
    a = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ProblemFormatError(path, "non-finite entries")
    if shape is not None and a.shape != shape:
        raise ProblemFormatError(
            path, f"expected shape {shape}, got {a.shape}"
        )
    return a


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ProblemFormatError(f"{path}.{key}", "missing required field")
    return obj[key]


def _positive_int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < 1:
        raise ProblemFormatError(path, "expected a positive integer")
    return obj


def _superop_from_payload(kind: str, payload: dict, dim_in: int,
                          dim_out: int, path: str) -> SuperOp:
    if kind == "choi":
        j = matrix_from_json(
            _require(payload, "choi", path), f"{path}.choi",
            (dim_out * dim_in, dim_out * dim_in),
        )
        return SuperOp.from_choi(j, dim_in, dim_out)
    if kind == "kraus":
        raw_left = _require(payload, "left", path)
        if not isinstance(raw_left, list) or not raw_left:
            raise ProblemFormatError(f"{path}.left", "expected a non-empty array")
        left = [
            matrix_from_json(km, f"{path}.left[{i}]", (dim_out, dim_in))
            for i, km in enumerate(raw_left)
        ]
        right = None
        if "right" in payload:
            raw_right = payload["right"]
            if not isinstance(raw_right, list) or len(raw_right) != len(raw_left):
                raise ProblemFormatError(
                    f"{path}.right", "expected an array matching 'left' in length"
                )
            right = [
                matrix_from_json(km, f"{path}.right[{i}]", (dim_out, dim_in))
                for i, km in enumerate(raw_right)
            ]
        return SuperOp.from_kraus(left, right)
    if kind == "stinespring_pair":
        r = _positive_int(_require(payload, "dim_env", path), f"{path}.dim_env")
        a = matrix_from_json(
            _require(payload, "a", path), f"{path}.a", (dim_out * r, dim_in)
        )
        b = matrix_from_json(
            _require(payload, "b", path), f"{path}.b", (dim_out * r, dim_in)
        )
        return SuperOp.from_stinespring(a, b, r)
    raise ProblemFormatError(f"{path}.kind", f"unsupported kind {kind!r}")


def parse_problem(obj) -> dict:
    """Parse a problem file into ``{"kind": ..., ...}`` with either a
    ``superop`` entry or (for fidelity) ``p``/``q`` matrices."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("$", "expected a JSON object")
    version = _require(obj, "version", "$")
    if version != FORMAT_VERSION:
        raise ProblemFormatError("$.version", f"unrecognized version {version!r}")
    kind = _require(obj, "kind", "$")
    if kind not in PROBLEM_KINDS:
        raise ProblemFormatError("$.kind", f"unknown kind {kind!r}")
    payload = _require(obj, "payload", "$")
    if not isinstance(payload, dict):
        raise ProblemFormatError("$.payload", "expected a JSON object")

    if kind == "fidelity":
        dim = _positive_int(_require(obj, "dim_in", "$"), "$.dim_in")
        p = matrix_from_json(_require(payload, "p", "$.payload"),
                             "$.payload.p", (dim, dim))
        q = matrix_from_json(_require(payload, "q", "$.payload"),
                             "$.payload.q", (dim, dim))
        return {"kind": kind, "p": p, "q": q}

    dim_in = _positive_int(_require(obj, "dim_in", "$"), "$.dim_in")
    dim_out = _positive_int(_require(obj, "dim_out", "$"), "$.dim_out")
    if kind == "channel_pair":
        phis = []
        for name in ("channel0", "channel1"):
            sub = _require(payload, name, "$.payload")
            if not isinstance(sub, dict):
                raise ProblemFormatError(f"$.payload.{name}", "expected an object")
            sub_kind = _require(sub, "kind", f"$.payload.{name}")
            sub_payload = _require(sub, "payload", f"$.payload.{name}")
            phis.append(_superop_from_payload(
                sub_kind, sub_payload, dim_in, dim_out, f"$.payload.{name}.payload"
            ))
        return {"kind": kind, "superop": SuperOp.difference(*phis)}
    phi = _superop_from_payload(kind, payload, dim_in, dim_out, "$.payload")
    return {"kind": kind, "superop": phi}


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError("$", f"malformed JSON: {exc}") from exc


def load_problem(path: str) -> dict:
    return parse_problem(_load_json(path))


def problem_to_json(phi: SuperOp, kind: str) -> dict:
    """Serialize a super-operator under the requested representation kind."""
    n, m = phi.dim_in, phi.dim_out
    if kind == "choi":
        payload = {"choi": matrix_to_json(superop.to_choi(phi))}
    elif kind == "kraus":
        kr = (phi.rep if isinstance(phi.rep, superop.Kraus)
              else superop.to_kraus(phi).rep)
        payload = {
            "left": [matrix_to_json(k) for k in kr.left],
            "right": [matrix_to_json(k) for k in kr.right],
        }
    elif kind == "stinespring_pair":
        pair = (phi.rep if isinstance(phi.rep, superop.StinespringPair)
                else superop.to_stinespring(phi))
        payload = {
            "a": matrix_to_json(pair.a),
            "b": matrix_to_json(pair.b),
            "dim_env": pair.dim_env,
        }
    else:
        raise InvalidInputError(f"cannot serialize kind {kind!r}")
    return {
        "version": FORMAT_VERSION,
        "kind": kind,
        "dim_in": n,
        "dim_out": m,
        "payload": payload,
    }


def certificate_to_json(cert: Certificate, norm: str) -> dict:
    return {
        "version": CERTIFICATE_VERSION,
        "norm": norm,
        **{key: matrix_to_json(getattr(cert, key))
           for key in ("rho", "sigma", "y0", "y1")},
    }


def certificate_from_json(obj, phi: SuperOp) -> tuple:
    """``(certificate, target)`` of a certificate file for the map ``phi``:
    ``target`` is the map it certifies, ``phi`` or, for the cb spectral norm,
    its adjoint.  A format-"1" file is converted to format "2": a ``general``
    one by the Stinespring pair it holds, with ``sigma`` the normalized
    ``B^dag W B``; a ``channel_diff`` one by the Choi matrix ``J`` of the
    target, with ``rho`` and ``sigma`` the transpose of its ``rho`` and ``Y0
    = Y1 = 2 Z - J`` (``Z >= J``, ``Z >= 0`` and ``Tr_Y J = 0``)."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("$", "expected a JSON object")
    version = _require(obj, "version", "$")
    if version not in ("1", CERTIFICATE_VERSION):
        raise ProblemFormatError("$.version", f"unrecognized version {version!r}")
    norm = obj.get("norm", "diamond")
    if norm not in NORMS:
        raise ProblemFormatError("$.norm", f"unknown norm {norm!r}")
    target = superop.adjoint(phi) if norm == "cb-spectral" else phi

    def field(key, shape=None):
        return matrix_from_json(_require(obj, key, "$"), f"$.{key}", shape)

    if version == CERTIFICATE_VERSION:
        return Certificate(*map(field, ("rho", "sigma", "y0", "y1"))), target
    kind = _require(obj, "kind", "$")
    if kind == "general":
        r = _positive_int(_require(obj, "dim_env", "$"), "$.dim_env")
        a = field("a")
        if a.shape[0] % r != 0:
            raise ProblemFormatError("$", "inconsistent Stinespring dimensions")
        b, n = field("b", a.shape), a.shape[1]
        rho, w, z = field("rho", (n, n)), field("w", (len(a), len(a))), \
            field("z", (r, r))
        sigma = _normalized_state(b.conj().T @ w @ b, n)
        return _certificate(StinespringPair(a, b, r), rho, sigma, z)[0], target
    if kind == "channel_diff":
        j = superop.to_choi(target)
        rho = field("rho", (target.dim_in, target.dim_in)).T
        y = 2 * field("z", j.shape) - j
        return Certificate(rho, rho, y, y), target
    raise ProblemFormatError("$.kind", f"unknown certificate kind {kind!r}")


def load_certificate(path: str, phi: SuperOp) -> tuple:
    return certificate_from_json(_load_json(path), phi)


def dump_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2)
    stream.write("\n")
