"""Seeded random generation of states, effects, and POVMs.

All randomness flows through numpy's PCG64 generator (128-bit state, 64-bit
outputs), so every artifact is bit-reproducible from its seed. Unitaries are
Haar-distributed (QR of a complex Ginibre sample with the standard phase
fix); POVMs are built by symmetric normalization of random positive
operators, which gives full-support outcome sets. Each generator checks its
dimension against ``MAX_DIM`` before it draws anything.
"""

from __future__ import annotations

import numpy as np

from .effects import Effect, Povm
from .operators import HermitianOperator, check_dim
from .valuation import DensityOperator


def rng_from_seed(seed: int) -> np.random.Generator:
    """A PCG64 generator seeded with the caller's integer. This package
    draws from no other entropy source: ``valuation.sample_outcomes``
    seeds its own PCG64 from the caller's integer the same way."""
    return np.random.Generator(np.random.PCG64(seed))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim))
            + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    check_dim(dim)
    q, r = np.linalg.qr(_ginibre(dim, rng))
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    check_dim(dim)
    g = _ginibre(dim, rng)
    return HermitianOperator((g + g.conj().T) / 2.0)


def random_effect(dim: int, rng: np.random.Generator,
                  label: str = "E") -> Effect:
    """U diag(u_1..u_d) U^dagger with u_i uniform in [0, 1], U Haar."""
    u = haar_unitary(dim, rng)
    diag = rng.uniform(0.0, 1.0, size=dim)
    op = HermitianOperator((u * diag) @ u.conj().T)
    return Effect(op, label)


def random_psd(dim: int, rng: np.random.Generator) -> HermitianOperator:
    check_dim(dim)
    g = _ginibre(dim, rng)
    return HermitianOperator(g @ g.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    check_dim(dim)
    g = _ginibre(dim, rng)
    a = g @ g.conj().T
    return DensityOperator(HermitianOperator(a / np.trace(a).real))


def random_pure_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    check_dim(dim)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    return DensityOperator(HermitianOperator(np.outer(psi, psi.conj())))


def random_povm(dim: int, outcomes: int, rng: np.random.Generator,
                label_prefix: str = "E") -> Povm:
    """Normalize random positive operators A_i by S^{-1/2} A_i S^{-1/2}."""
    check_dim(dim)
    if outcomes < 1:
        raise ValueError("a POVM needs at least one outcome")
    ops = []
    for _ in range(outcomes):
        g = _ginibre(dim, rng)
        ops.append(g @ g.conj().T)
    s = np.zeros((dim, dim), dtype=np.complex128)
    for a in ops:
        s = s + a
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    effects = []
    for i, a in enumerate(ops):
        e = inv_sqrt @ a @ inv_sqrt
        effects.append(Effect(HermitianOperator(e),
                              f"{label_prefix}{i}"))
    return Povm(tuple(effects))


def random_frame(dim: int, size: int, rng: np.random.Generator,
                 label_prefix: str = "F") -> list[Effect]:
    """A list of independent random effects (no sum constraint)."""
    return [random_effect(dim, rng, f"{label_prefix}{i}") for i in range(size)]
