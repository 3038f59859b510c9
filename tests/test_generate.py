"""Seeded generators: distribution sanity and bit reproducibility."""

import numpy as np
import pytest

from effectkit import (
    Effect,
    Povm,
    eigenvalues_of,
    haar_unitary,
    random_density,
    random_effect,
    random_povm,
    random_pure_density,
    rng_from_seed,
)
from effectkit import generate, operators


def test_haar_unitaries_are_unitary():
    rng = rng_from_seed(0)
    for dim in (2, 3, 5):
        u = haar_unitary(dim, rng)
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_random_effects_validate():
    rng = rng_from_seed(1)
    for _ in range(100):
        e = random_effect(4, rng)
        Effect(e.op, e.label)


def test_random_povms_validate():
    rng = rng_from_seed(2)
    for _ in range(50):
        povm = random_povm(3, 4, rng)
        Povm(povm.effects)


def test_random_densities_are_states():
    rng = rng_from_seed(3)
    for _ in range(50):
        rho = random_density(3, rng)
        assert eigenvalues_of(rho.op)[0] >= -1e-12
        assert abs(np.trace(rho.op.array).real - 1.0) <= 1e-12


def test_pure_states_have_unit_purity():
    rng = rng_from_seed(4)
    rho = random_pure_density(4, rng)
    arr = rho.op.array
    assert abs(np.trace(arr @ arr).real - 1.0) <= 1e-12


def test_same_seed_same_artifacts():
    a = random_povm(3, 4, rng_from_seed(7))
    b = random_povm(3, 4, rng_from_seed(7))
    for ea, eb in zip(a.effects, b.effects):
        assert np.array_equal(ea.op.array, eb.op.array)
    c = random_povm(3, 4, rng_from_seed(8))
    assert not np.array_equal(a.effects[0].op.array, c.effects[0].op.array)


@pytest.mark.parametrize("name,extra", [
    ("haar_unitary", ()), ("random_hermitian", ()), ("random_effect", ()),
    ("random_psd", ()), ("random_density", ()), ("random_pure_density", ()),
    ("random_povm", (2,)), ("random_frame", (2,))])
def test_dimension_is_checked_before_drawing(monkeypatch, name, extra):
    class NoDraws:
        def __getattr__(self, attr):
            raise AssertionError(f"{name} drew from the generator ({attr})")

    monkeypatch.setattr(operators, "MAX_DIM", 3)
    for dim in (0, 4):
        with pytest.raises(ValueError, match="at least 1|MAX_DIM"):
            getattr(generate, name)(dim, *extra, NoDraws())
