"""Pin BLAS to one thread before numpy is imported by any test module.

One thread keeps test times from depending on the host's core count.  The
dense linear algebra left in the tests is small: the dense oracles of
tests/oracles.py, the adjoint compressions that decay curves are checked
against among them.  On a 2-vCPU host the whole suite took about
as long with two OpenBLAS threads as with one (14.3-17.2 s against
15.9-17.5 s, two runs each).  Variables already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@pytest.fixture
def cold_memos():
    """Start from empty memos: no basis, index table, multinomial table,
    product plan, schema or parser is cached (tests/test_surface.py checks
    that these are all of the package's memos)."""
    from gradedshift import ball_identities, cli, purity, spaces

    for memo in (
        spaces._polydisc_basis,
        spaces._ball_basis,
        spaces.enumerate_indices,
        ball_identities.gamma_coeffs,
        purity._product_plan,
        cli._validator,
        cli._parser,
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
