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
    checked support, realization scale or plan, product plan, schema or
    parser is cached (tests/test_surface.py checks that these are all of
    the package's memos)."""
    from gradedshift import ball_identities, cli, purity, spaces

    for memo in (
        spaces._polydisc_basis,
        spaces._ball_basis,
        spaces.enumerate_indices,
        spaces._checked_support,
        ball_identities.gamma_coeffs,
        purity._realization_scales,
        purity._realization_plan,
        purity._product_plan,
        cli._validator,
        cli._parser,
    ):
        memo.cache_clear()


@pytest.fixture
def break_tables(monkeypatch):
    """``break_tables(basis, stall=None, nan_norm=False)`` corrupts, for the
    rest of the test, the cached tables that the shift maps of ``basis``
    are built from.  With ``stall = d < D`` the successor table sends each
    monomial of degree d to itself on every axis, so the map of every beta
    != 0 built from then on keeps some entry below its lift; with
    ``nan_norm`` the last monomial norm is nan, so the map of beta = 0 gets
    a weight that is not 1.0.  The swapped tables are read-only, as the
    cached ones are.  Maps already memoised are kept, and those memoised
    from then on are dropped with the corrupted tables."""
    import numpy as np

    def corrupt(basis, stall=None, nan_norm=False):
        tables = {"_shift_maps": dict(basis._shift_maps)}
        if stall is not None:
            tables["successors"] = basis.successors.copy()
            at = np.flatnonzero(basis.degree_array == stall)
            tables["successors"][:, at] = at
        if nan_norm:
            tables["norm_array"] = basis.norm_array.copy()
            tables["norm_array"][-1] = np.nan
        for name, table in tables.items():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
            monkeypatch.setitem(vars(basis), name, table)

    return corrupt


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
