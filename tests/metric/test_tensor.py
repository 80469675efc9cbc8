"""SPD tensor algebra: eigen-structure, log/exp calculus, quadratic forms.

The compact ``[m11, m12, m22]`` representation and the closed-form 2x2
eigendecomposition are the foundation every metric consumer (refinement
criterion, adaptation operations, smoothing weights) builds on, so the
properties are checked against ``numpy.linalg`` and against the
defining algebraic identities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metric import tensor


def random_spd(rng, n, *, lam_lo=1e-2, lam_hi=1e4):
    """Random SPD batch with controlled eigenvalue range."""
    lam1 = rng.uniform(lam_lo, lam_hi, n)
    lam2 = rng.uniform(lam_lo, lam_hi, n)
    theta = rng.uniform(0.0, np.pi, n)
    v1 = np.column_stack([np.cos(theta), np.sin(theta)])
    return tensor.from_eigs(np.maximum(lam1, lam2),
                            np.minimum(lam1, lam2), v1)


class TestEig:
    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 200)
        lam1, lam2, _ = tensor.eig(m)
        ref = np.linalg.eigvalsh(tensor.as_full(m))
        np.testing.assert_allclose(lam1, ref[:, 1], rtol=1e-10)
        np.testing.assert_allclose(lam2, ref[:, 0], rtol=1e-10)

    def test_eigenvector_satisfies_definition(self):
        rng = np.random.default_rng(8)
        m = random_spd(rng, 100)
        lam1, _, v1 = tensor.eig(m)
        full = tensor.as_full(m)
        mv = np.einsum("nij,nj->ni", full, v1)
        np.testing.assert_allclose(mv, lam1[:, None] * v1,
                                   rtol=1e-8, atol=1e-8)

    def test_isotropic_tensor_gets_unit_vector(self):
        m = tensor.identity(3) * 4.0
        lam1, lam2, v1 = tensor.eig(m)
        np.testing.assert_allclose(lam1, 4.0)
        np.testing.assert_allclose(lam2, 4.0)
        np.testing.assert_allclose(np.linalg.norm(v1, axis=1), 1.0)

    def test_from_eigs_roundtrip(self):
        rng = np.random.default_rng(9)
        m = random_spd(rng, 150)
        lam1, lam2, v1 = tensor.eig(m)
        np.testing.assert_allclose(tensor.from_eigs(lam1, lam2, v1), m,
                                   rtol=1e-9, atol=1e-12)


class TestLogExp:
    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        m = random_spd(rng, 120)
        np.testing.assert_allclose(tensor.exp(tensor.log(m)), m,
                                   rtol=1e-8)

    def test_log_of_identity_is_zero(self):
        np.testing.assert_allclose(tensor.log(tensor.identity(4)), 0.0,
                                   atol=1e-14)

class TestQuadForm:
    def test_matches_explicit(self):
        rng = np.random.default_rng(12)
        m = random_spd(rng, 60)
        e = rng.normal(size=(60, 2))
        full = tensor.as_full(m)
        ref = np.einsum("ni,nij,nj->n", e, full, e)
        np.testing.assert_allclose(tensor.quad_form(m, e), ref,
                                   rtol=1e-12)


@given(
    lam1=st.floats(1e-2, 1e4),
    ratio=st.floats(1.0, 1e3),
    theta=st.floats(0.0, np.pi),
)
@settings(max_examples=60, deadline=None)
def test_eig_property_random(lam1, ratio, theta):
    """eig() recovers the eigenvalues that built the tensor."""
    lam2 = lam1 / ratio
    v1 = np.array([[np.cos(theta), np.sin(theta)]])
    m = tensor.from_eigs(np.array([lam1]), np.array([lam2]), v1)
    out1, out2, _ = tensor.eig(m)
    assert out1[0] == pytest.approx(lam1, rel=1e-6)
    assert out2[0] == pytest.approx(lam2, rel=1e-6)
