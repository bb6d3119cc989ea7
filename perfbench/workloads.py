"""Seeded instances and the three benchmark workloads.

A workload is a fixed list of calls on *pool members*: instances that the
generators below build from their own fixed seeds, and whose reference
values are committed in ``refs.json`` (regenerate with ``make_refs.py``).
The workload seed draws Haar-random unitaries that rotate the input and
output spaces of every member (:func:`rotate`).  The norms and the fidelity
are unitarily invariant, so the references hold for any seed, and so does
the cost of a well-conditioned solve: its iteration count does not change
with the rotation.
The package only ever sees the rotated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pools: name -> (generator, arguments).  A pool member's seed is
# ``[POOL_SEED, position of the pool in POOLS, member index]``, so adding a
# pool at the end leaves every existing member unchanged.
POOL_SEED = 9014709

# (n, m) shapes of the rank-2 general maps in ``small-batch``; the last four
# are non-square.
SMALL_GENERAL_DIMS = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
                      (2, 4), (4, 2), (3, 5), (5, 3))
FIDELITY_DIMS = (2, 3, 4, 5, 6)
# Scales applied to rank-2 d=3 maps in ``small-batch``.  Their references
# follow from homogeneity: ||c phi|| = c ||phi||.
SCALES = (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6)


def _pools():
    pools = {
        "cp-d2": ("channel_pair", {"d": 2}),
        "cp-d3": ("channel_pair", {"d": 3}),
        "cp-d4": ("channel_pair", {"d": 4}),
        "cp-d5": ("channel_pair", {"d": 5}),
        "full-d4": ("general", {"n": 4, "m": 4, "rank": 16}),
        "ss-3x3": ("stinespring", {"n": 3, "m": 3, "env": 2}),
        "fid-d8-full": ("fidelity", {"d": 8, "rank_p": 8}),
        "fid-d8-rank1": ("fidelity", {"d": 8, "rank_p": 1}),
    }
    for n, m in SMALL_GENERAL_DIMS:
        pools[f"g2-{n}x{m}"] = ("general", {"n": n, "m": m, "rank": 2})
    for d in FIDELITY_DIMS:
        pools[f"fid-d{d}-full"] = ("fidelity", {"d": d, "rank_p": d})
        pools[f"fid-d{d}-def"] = ("fidelity", {"d": d, "rank_p": max(1, d // 2)})
    return pools


POOLS = _pools()


# ---------------------------------------------------------------- generators


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_isometry(rng, rows, cols):
    q, r = np.linalg.qr(complex_gaussian(rng, (rows, cols)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density_factor(rng, d, rank):
    """``G`` of shape ``(d, rank)`` such that ``G G^dag`` is a density
    matrix; kept so that references need no square root of ``G G^dag``."""
    g = complex_gaussian(rng, (d, rank))
    return g / np.linalg.norm(g)


def channel_kraus(rng, d):
    """Kraus operators of a random channel on ``d`` dimensions with a full
    environment, from a random Stinespring isometry."""
    v = random_isometry(rng, d * d, d).reshape(d, d, d)
    return [v[:, k, :] for k in range(d)]


def generate(key: str, index: int) -> dict:
    """Raw arrays of pool member ``index`` of pool ``key``.

    The result is plain numpy data, so it can be fingerprinted and turned
    into package objects by :func:`to_package`.
    """
    kind, args = POOLS[key]
    rng = np.random.default_rng([POOL_SEED, list(POOLS).index(key), index])
    if kind == "channel_pair":
        return {"kind": kind, "kraus0": channel_kraus(rng, args["d"]),
                "kraus1": channel_kraus(rng, args["d"])}
    if kind == "general":
        shape = (args["rank"], args["m"], args["n"])
        return {"kind": kind, "left": complex_gaussian(rng, shape),
                "right": complex_gaussian(rng, shape)}
    if kind == "stinespring":
        shape = (args["m"] * args["env"], args["n"])
        return {"kind": kind, "a": complex_gaussian(rng, shape),
                "b": complex_gaussian(rng, shape), "env": args["env"]}
    if kind == "fidelity":
        d = args["d"]
        return {"kind": kind, "p_factor": density_factor(rng, d, args["rank_p"]),
                "q_factor": density_factor(rng, d, d)}
    raise ValueError(f"unknown pool kind {kind!r}")


def fingerprint(raw: dict) -> float:
    """A position-weighted sum of the generated entries; the runner checks
    it against ``refs.json`` to catch a generator that drifted."""
    total = 0.0
    for value in raw.values():
        if isinstance(value, (list, np.ndarray)):
            flat = np.asarray(value).ravel()
            weights = np.arange(1, flat.size + 1) / flat.size
            total += float(weights @ (flat.real + 2 * flat.imag))
    return total


def same_fingerprint(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def rotate(raw: dict, rng) -> dict:
    """``raw`` with Haar-random unitaries applied to its spaces:
    ``phi -> U phi(V . V^dag) U^dag`` for maps (the same ``U, V`` for both
    channels of a pair, so they stay channels; a further unitary on the
    environment of a Stinespring pair) and ``P, Q -> W P W^dag, W Q W^dag``
    for fidelity pairs.  Both norms and the fidelity are invariant, so the
    references still hold while every entry the package sees changes."""
    kind = raw["kind"]
    if kind == "fidelity":
        d = raw["q_factor"].shape[0]
        w = random_isometry(rng, d, d)
        return dict(raw, p_factor=w @ raw["p_factor"], q_factor=w @ raw["q_factor"])
    if kind == "stinespring":
        rows, n = raw["a"].shape
        m, env = rows // raw["env"], raw["env"]
        u = np.kron(random_isometry(rng, m, m), random_isometry(rng, env, env))
        v = random_isometry(rng, n, n)
        return dict(raw, a=u @ raw["a"] @ v, b=u @ raw["b"] @ v)
    keys = ("kraus0", "kraus1") if kind == "channel_pair" else ("left", "right")
    m, n = np.asarray(raw[keys[0]]).shape[1:]
    u, v = random_isometry(rng, m, m), random_isometry(rng, n, n)
    return dict(raw, **{k: u @ np.asarray(raw[k]) @ v for k in keys})


def to_package(raw: dict, scale: float = 1.0):
    """Package object for a raw instance: a ``SuperOp`` scaled by ``scale``,
    or a ``(P, Q)`` pair for fidelity."""
    from cbnorm import SuperOp

    kind = raw["kind"]
    if kind == "fidelity":
        return tuple(g @ g.conj().T for g in (raw["p_factor"], raw["q_factor"]))
    root = np.sqrt(scale)
    if kind == "channel_pair":
        return SuperOp.difference(SuperOp.from_kraus(list(raw["kraus0"])),
                                  SuperOp.from_kraus(list(raw["kraus1"])))
    if kind == "general":
        return SuperOp.from_kraus(list(root * raw["left"]),
                                  list(root * raw["right"]))
    return SuperOp.from_stinespring(root * raw["a"], root * raw["b"],
                                    raw["env"])


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Call:
    """One timed call.

    ``entry`` is ``diamond``, ``cb`` or ``fidelity`` for library calls.  In
    ``cli-roundtrip`` it is ``cli-compute/<format>/<norm>``, always followed
    by the ``cli-certify/<format>/<norm>`` call that checks the certificate
    the compute call wrote, or ``cli-fidelity``; each is one child process.
    ``member`` is ``(pool, index)``.
    """

    entry: str
    member: tuple
    scale: float = 1.0

    @property
    def label(self) -> str:
        pool, index = self.member
        suffix = "" if self.scale == 1.0 else f"*{self.scale:g}"
        return f"{self.entry}:{pool}/{index}{suffix}"


WORKLOADS = ("dense-solve", "small-batch", "cli-roundtrip")

# Full-rank d=4 maps in dense-solve: member 0, and member 11, one of the two
# among the pool's first 12 on which the solver raises NumericalFailureError
# (ROADMAP item 3).  Depending on the rotation its diamond_norm raises or
# takes 19-28 iterations instead of 14-15.  The other, member 7, is not
# used: its failing cb_spectral_norm takes 3-10 s depending on the rotation,
# which would make wall_s swing by a third from seed to seed.
DENSE_FULL_RANK = (0, 11)


def _members(pool: str, count: int) -> list:
    return [(pool, i) for i in range(count)]


def calls_for(workload: str) -> list:
    """The ordered call list of one pass of ``workload``."""
    calls = []
    if workload == "dense-solve":
        calls += [Call("diamond", m) for m in _members("cp-d5", 2)]
        for index in DENSE_FULL_RANK:
            calls += [Call("diamond", ("full-d4", index)), Call("cb", ("full-d4", index))]
        calls += [Call("fidelity", ("fid-d8-full", 0)),
                  Call("fidelity", ("fid-d8-rank1", 0))]
    elif workload == "small-batch":
        calls += [Call("diamond", m) for m in _members("cp-d2", 8) + _members("cp-d3", 8)]
        for n, m_out in SMALL_GENERAL_DIMS:
            for m in _members(f"g2-{n}x{m_out}", 3):
                calls += [Call("diamond", m), Call("cb", m)]
        for scale, m in zip(SCALES, _members("g2-3x3", len(SCALES))):
            calls += [Call("diamond", m, scale), Call("cb", m, scale)]
        for d in FIDELITY_DIMS:
            calls += [Call("fidelity", m)
                      for m in _members(f"fid-d{d}-full", 4) + _members(f"fid-d{d}-def", 4)]
    elif workload == "cli-roundtrip":
        files = [("channel_pair", ("cp-d3", 0)), ("channel_pair", ("cp-d4", 0)),
                 ("kraus", ("g2-3x3", 0)), ("kraus", ("g2-3x3", 1)),
                 ("kraus", ("g2-4x4", 0)), ("stinespring_pair", ("ss-3x3", 0)),
                 ("choi", ("g2-3x3", 2))]
        for fmt, member in files:
            for norm in ("diamond", "cb"):
                calls += [Call(f"cli-compute/{fmt}/{norm}", member),
                          Call(f"cli-certify/{fmt}/{norm}", member)]
        calls += [Call("cli-fidelity", ("fid-d3-full", 0)),
                  Call("cli-fidelity", ("fid-d4-def", 0))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def warmup_call(workload: str) -> Call:
    """The call made once per set-up: small and outside the timed pass."""
    if workload == "cli-roundtrip":
        return Call("cli-compute/kraus/diamond", ("g2-2x2", 0))
    return Call("diamond", ("cp-d2", 0))


def rotation_rng(workload: str, seed: int, member: tuple):
    """The generator of the rotation of ``member`` in ``workload`` at
    ``seed``: the same seed gives the same inputs."""
    pool, index = member
    return np.random.default_rng([POOL_SEED, 1 + WORKLOADS.index(workload), seed,
                                  list(POOLS).index(pool), index])


def all_members() -> list:
    """Every member some workload uses, for ``make_refs.py``."""
    calls = [c for w in WORKLOADS for c in calls_for(w) + [warmup_call(w)]]
    return sorted({c.member for c in calls})
