import numpy as np
import pytest

from etaforge.clifford import clifford_action, standard_rep, volume_trace


@pytest.mark.parametrize("k", range(1, 7))
def test_defining_identities_exact(k):
    rep = standard_rep(k)
    assert rep.p == 2 * k - 1
    assert rep.rank == 2 ** (k - 1)
    eye = np.eye(rep.rank, dtype=complex)
    for g in rep.generators:
        assert np.max(np.abs(g.conj().T + g)) == 0.0
    for i, gi in enumerate(rep.generators):
        for j, gj in enumerate(rep.generators):
            target = -2.0 * eye if i == j else 0.0
            assert np.max(np.abs(gi @ gj + gj @ gi - target)) == 0.0
    assert np.max(np.abs((1j) ** k * rep.volume_product() - eye)) == 0.0


def test_entries_are_gaussian_integers():
    rep = standard_rep(4)
    for g in rep.generators:
        assert np.all(np.isin(g.ravel(), [0, 1, -1, 1j, -1j]))


@pytest.mark.parametrize(
    "k,want",
    [(1, -1j), (2, -2.0), (3, 4.0j), (4, 8.0), (5, -16.0j)],
)
def test_volume_trace_values(k, want):
    # oracle: multiply the generators directly
    rep = standard_rep(k)
    prod = rep.generators[0]
    for g in rep.generators[1:]:
        prod = prod @ g
    assert complex(np.trace(prod)) == complex(want)
    assert volume_trace(rep) == complex(want)
    assert volume_trace(rep) == 2 ** (k - 1) * (1j) ** (-k)


def test_k_out_of_range():
    with pytest.raises(ValueError):
        standard_rep(0)
    with pytest.raises(ValueError):
        standard_rep(9)


def test_action_at_zero_and_basis_vector():
    rep = standard_rep(2)
    assert np.max(np.abs(clifford_action(rep, np.zeros(3)))) == 0.0
    e1 = np.array([1.0, 0.0, 0.0])
    c = clifford_action(rep, e1)
    assert np.array_equal(c, rep.generators[0])
    assert np.max(np.abs(c @ c + np.eye(2))) == 0.0


def test_action_norm_identity():
    rep = standard_rep(2)
    x = np.array([3.0, 4.0, 0.0])
    c = clifford_action(rep, x)
    # oracle: direct matrix arithmetic
    assert np.max(np.abs(c.conj().T @ c - 25.0 * np.eye(2))) == 0.0


def test_action_batched():
    rep = standard_rep(3)
    x = np.arange(15.0).reshape(3, 5)
    out = clifford_action(rep, x)
    assert out.shape == (3, 4, 4)
    for i in range(3):
        assert np.array_equal(out[i], clifford_action(rep, x[i]))


@pytest.mark.parametrize("k", range(1, 7))
def test_action_equals_generator_sum_exactly(rng, k):
    # each real and imaginary entry of c(x) has at most one nonzero term, so
    # the contraction must reproduce the generator-by-generator sum bit for bit
    rep = standard_rep(k)
    x = rng.normal(size=(40, rep.p))
    want = np.zeros((40, rep.rank, rep.rank), dtype=complex)
    for j, g in enumerate(rep.generators):
        want += x[:, j, None, None] * g
    assert np.array_equal(clifford_action(rep, x), want)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("k", range(1, 7))
def test_action_matches_the_complex_sum_of_real_products(rng, k):
    # one complex buffer filled part by part against a + 1j * b: the same bits
    # on random points; on points holding +-0.0, equal values and signed zeros
    rep = standard_rep(k)
    gens = np.stack(rep.generators).reshape(rep.p, -1)
    x = rng.normal(size=(50, rep.p))
    want = (x @ gens.real + 1j * (x @ gens.imag)).reshape(50, rep.rank, rep.rank)
    assert np.array_equal(_bits(clifford_action(rep, x)), _bits(want))
    z = rng.choice(np.array([0.0, -0.0, 1.5, -2.0]), size=(50, rep.p))
    got = clifford_action(rep, z)
    want = (z @ gens.real + 1j * (z @ gens.imag)).reshape(got.shape)
    assert np.all(got == want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_rotation_covariance_of_spectrum(rng):
    rep = standard_rep(2)
    x = rng.normal(size=3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    ev_x = np.sort_complex(np.linalg.eigvals(clifford_action(rep, x)))
    ev_qx = np.sort_complex(np.linalg.eigvals(clifford_action(rep, q @ x)))
    assert np.max(np.abs(ev_x - ev_qx)) < 1e-12
    r = np.linalg.norm(x)
    want = np.sort_complex(np.array([1j * r, -1j * r]))
    assert np.max(np.abs(ev_x - want)) < 1e-12


def test_dimension_mismatch_rejected():
    rep = standard_rep(2)
    with pytest.raises(ValueError):
        clifford_action(rep, np.zeros(4))
