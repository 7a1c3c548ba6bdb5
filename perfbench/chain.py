"""Damped mass-spring chain with massless connector nodes (chain-sparse).

Unit masses x1[0..n1-1] sit on a stiff grounded backbone. Between masses
k and k+1 sits a massless connector node x2[k], tied to both masses and
to ground, so the algebraic block K22 is diagonal and positive definite
and the system is index 1 by construction. A few masses are detached
from the backbone and hang on soft springs instead; they carry the only
lightly damped modes inside the analysis band, while every backbone
mode lies far above it and is overdamped under the Rayleigh damping
L11 = ALPHA M11 + BETA K11. The input drives the resonators and a few
backbone nodes; the system is symmetric (K21 = K12^T, H = F^T).

The generator lives with the benchmark so the workload stays fixed when
the library grows its own network generator.
"""

import math

import numpy as np
import scipy.sparse as sp

from morkit import SecondOrderIndex1System

GROUND = 1.0e10        # backbone ground spring: modes at ~1e5 rad/s
CONNECTOR = 1.0e9      # mass <-> connector springs on the backbone
CONNECTOR_GROUND = 1.0e8
DIRECT = 1.0e8         # mass <-> mass springs on the backbone
JITTER = 0.2           # relative spread of every backbone spring
RESONATORS = 6
RESONANT_BAND = (30.0, 5.0e3)  # rad/s, inside the sweep band [10, 1e4]
ALPHA, BETA = 1.0, 2.0e-5      # Rayleigh damping
LOADED_BACKBONE_NODES = 8
PORT2_SCALE = 1e-2


def generate_chain(n1, m, seed):
    """Return a chain system with n1 masses, n1 - 1 connectors and m ports."""
    if n1 < 2 * RESONATORS + 4 or m < 1:
        raise ValueError(f"need n1 >= {2 * RESONATORS + 4} and m >= 1")
    rng = np.random.default_rng(seed)
    n2 = n1 - 1

    def jittered(scale, size):
        return scale * (1.0 + JITTER * rng.uniform(-1.0, 1.0, size=size))

    ground = jittered(GROUND, n1)
    left = jittered(CONNECTOR, n2)   # mass k <-> connector k
    right = jittered(CONNECTOR, n2)  # connector k <-> mass k + 1
    direct = jittered(DIRECT, n2)    # mass k <-> mass k + 1
    conn_ground = jittered(CONNECTOR_GROUND, n2)

    # resonators: interior masses, pairwise non-adjacent, on soft springs
    slots = rng.choice(np.arange(1, n1 // 2 - 1), size=RESONATORS, replace=False)
    resonators = np.sort(2 * slots)
    lo, hi = RESONANT_BAND
    omegas = np.logspace(math.log10(lo), math.log10(hi), RESONATORS)
    omegas *= np.exp(rng.uniform(-0.1, 0.1, size=RESONATORS))
    # a detached unit mass with no ground spring and two soft springs of
    # stiffness k to (nearly rigid) neighbours resonates at omega^2 = 2 k
    soft = omegas**2 / 2.0
    ground[resonators] = 0.0
    for i, k in zip(resonators, soft):
        left[i] = right[i - 1] = 0.5 * k
        direct[i] = direct[i - 1] = 0.5 * k

    idx = np.arange(n2)
    K11_diag = ground.copy()
    K11_diag[:-1] += left + direct
    K11_diag[1:] += right + direct
    K11 = sp.diags_array([K11_diag, -direct, -direct], offsets=[0, 1, -1])
    K22 = sp.diags_array(left + right + conn_ground)
    K21 = sp.coo_array(
        (np.concatenate([-left, -right]),
         (np.concatenate([idx, idx]), np.concatenate([idx, idx + 1]))),
        shape=(n2, n1),
    )
    M11 = sp.eye_array(n1)
    L11 = ALPHA * M11 + BETA * K11

    F1 = np.zeros((n1, m))
    F1[resonators] = rng.standard_normal((RESONATORS, m))
    loaded = rng.choice(n1, size=LOADED_BACKBONE_NODES, replace=False)
    F1[loaded] += rng.standard_normal((LOADED_BACKBONE_NODES, m))
    F2 = np.zeros((n2, m))
    taps = rng.choice(n2, size=LOADED_BACKBONE_NODES, replace=False)
    F2[taps] = PORT2_SCALE * rng.standard_normal((LOADED_BACKBONE_NODES, m))

    return SecondOrderIndex1System(
        M11=M11, L11=L11, K11=K11, K12=K21.T, K21=K21, K22=K22,
        F1=F1, F2=F2, H1=F1.T.copy(), H2=F2.T.copy(), Da=np.zeros((m, m)),
    )
