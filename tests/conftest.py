"""Pin BLAS to one thread before numpy is imported by any test module.

The padded SVDs of the purity sweeps (dims <= 330) run slower with two
OpenBLAS threads than with one, and their times spread more; variables
already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@pytest.fixture
def cold_memos():
    """Start from empty memos: no basis, index table or shift map is cached."""
    from gradedshift import ball_identities, operators, spaces

    for memo in (
        spaces._polydisc_basis,
        spaces._ball_basis,
        spaces.enumerate_indices,
        operators._prefix_steps,
        ball_identities._degree_steps,
        ball_identities.gamma_coeffs,
    ):
        memo.cache_clear()


@pytest.fixture
def inner_bcl_theta():
    """``theta(seed, e_dim=2)``: an inner degree-1 symbol on two variables
    with theta(0) != 0, the first of a seeded BCL pair."""
    import numpy as np

    from gradedshift.dilation import BCLTriple, bcl_pair, haar_unitary

    def theta(seed: int, e_dim: int = 2):
        rng = np.random.default_rng(seed)
        u = haar_unitary(rng, e_dim)
        p = np.zeros((e_dim, e_dim), dtype=complex)
        p[0, 0] = 1.0
        q = haar_unitary(rng, e_dim)
        p = q @ p @ q.conj().T
        return bcl_pair(BCLTriple(e_dim=e_dim, u=u, p=p), n_vars=2)[0]

    return theta
