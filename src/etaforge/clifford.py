"""Standard matrix representation of the odd complex Clifford algebra.

Generators are built recursively from 2x2 Pauli-type blocks, so all entries
lie in {0, +-1, +-i} and the defining identities hold to machine precision:
skew-adjointness, the anticommutation relations, and the complex volume
element i^k E_1 ... E_{2k-1} acting as the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CliffordRep", "standard_rep", "clifford_action", "volume_trace"]

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_K = 8  # rank cap 2^{k-1} = 128


@dataclass(frozen=True)
class CliffordRep:
    """Skew-adjoint generators of rank 2^{k-1} acting on C^{2^{k-1}}."""

    k: int
    generators: tuple[np.ndarray, ...]

    @property
    def p(self) -> int:
        return 2 * self.k - 1

    @property
    def rank(self) -> int:
        return 2 ** (self.k - 1)

    def volume_product(self) -> np.ndarray:
        prod = self.generators[0]
        for g in self.generators[1:]:
            prod = prod @ g
        return prod


def standard_rep(k: int) -> CliffordRep:
    """Generators E_1..E_{2k-1}: each level keeps S_1 (x) E_j and appends
    i S_3 (x) I and -i S_2 (x) I, for which i^k E_1...E_{2k-1} = I exactly
    (``_check_invariants`` verifies it with the other identities)."""
    if not (1 <= k <= MAX_K):
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    gens = [np.array([[-1j]], dtype=complex)]
    for _ in range(2, k + 1):
        eye = np.eye(gens[0].shape[0], dtype=complex)
        gens = [np.kron(_S1, g) for g in gens] + [1j * np.kron(_S3, eye), -1j * np.kron(_S2, eye)]
    rep = CliffordRep(k, tuple(g.copy() for g in gens))
    _check_invariants(rep)
    return rep


def _check_invariants(rep: CliffordRep) -> None:
    n = rep.rank
    eye = np.eye(n, dtype=complex)
    for i, gi in enumerate(rep.generators):
        if np.max(np.abs(gi.conj().T + gi)) != 0.0:
            raise AssertionError(f"generator {i + 1} not skew-adjoint")
        for j, gj in enumerate(rep.generators):
            target = -2.0 * eye if i == j else 0.0
            if np.max(np.abs(gi @ gj + gj @ gi - target)) != 0.0:
                raise AssertionError(f"anticommutation fails at pair ({i + 1}, {j + 1})")
    if np.max(np.abs((1j) ** rep.k * rep.volume_product() - eye)) != 0.0:
        raise AssertionError("complex volume element is not the identity")


def clifford_action(rep: CliffordRep, x) -> np.ndarray:
    """c(x) = sum_j x_j E_j; for (M, p) input returns (M, N, N).

    c(x)* c(x) = |x|^2 I, so a + c(x) is invertible whenever (a, x) != 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != rep.p:
        raise ValueError(f"expected {rep.p}-vectors, got shape {x.shape}")
    single = x.ndim == 1
    pts = x[None, :] if single else x
    gens = np.stack(rep.generators).reshape(rep.p, -1)
    # both parts written into one buffer; a + 1j * b builds two more complex temporaries
    out = np.empty(pts.shape[:-1] + gens.shape[1:], dtype=complex)
    out.real, out.imag = pts @ gens.real, pts @ gens.imag
    out = out.reshape(pts.shape[:-1] + (rep.rank, rep.rank))
    return out[0] if single else out


def volume_trace(rep: CliffordRep) -> complex:
    """tr(E_1 ... E_{2k-1}) = 2^{k-1} i^{-k}, exactly."""
    return complex(np.trace(rep.volume_product()))
