import numpy as np
import pytest

from cbnorm.sdp import SdpProblem
from cbnorm.superop import SuperOp, to_choi


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    g = random_complex(rng, (d, d))
    return (g + g.conj().T) / 2


def random_psd(rng, d, rank=None):
    r = rank or d
    g = random_complex(rng, (d, r))
    return g @ g.conj().T


def random_density(rng, d, rank=None):
    p = random_psd(rng, d, rank)
    return p / np.trace(p).real


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(rng, rows, cols):
    """Columns orthonormal; requires rows >= cols."""
    q, r = np.linalg.qr(random_complex(rng, (rows, cols)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng, n, m, env=None):
    """Random channel from a Haar-ish Stinespring isometry."""
    r = env or max(1, min(n, m))
    v = random_isometry(rng, m * r, n)
    kraus = [v.reshape(m, r, n)[:, l, :] for l in range(r)]
    return SuperOp.from_kraus(kraus)


def random_superop(rng, n, m, terms=2, scale=1.0):
    """Generic (non-CP) map with independent left/right Kraus families."""
    left = [scale * random_complex(rng, (m, n)) for _ in range(terms)]
    right = [scale * random_complex(rng, (m, n)) for _ in range(terms)]
    return SuperOp.from_kraus(left, right)


def channel_diff_data(phi0, phi1):
    """``(phi, J)`` for ``build_channel_diff_sdp``: the difference of two
    channels and the Hermitian part of its Choi matrix."""
    phi = SuperOp.difference(phi0, phi1)
    j = to_choi(phi)
    return phi, (j + j.conj().T) / 2


def undeclared(build, *args, keep=("equality",)):
    """``build(*args)`` and the all-dense oracle: the same maps passed to
    ``from_maps`` without the embedded declaration, keeping the keyword
    arguments named in ``keep``."""
    real, seen = SdpProblem.from_maps, []

    def capture(*a, **kw):
        seen.append((a, kw))
        return real(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SdpProblem, "from_maps", staticmethod(capture))
        prob = build(*args)
    a, kw = seen[0]
    return prob, real(*a, **{k: v for k, v in kw.items() if k in keep})


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
