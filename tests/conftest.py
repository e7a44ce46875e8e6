"""Shared fixtures and independent oracles used across the test suite."""

import math

import numpy as np
import pytest

from groupstates import (
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return quaternion_group()


def builtin_catalog(max_order: int = 24):
    """Every named constructor instance with order up to the bound."""
    groups = []
    for n in range(1, max_order + 1):
        groups.append(cyclic_group(n))
    for n in range(2, max_order // 2 + 1):
        groups.append(dihedral_group(n))
    groups.append(quaternion_group())
    for n in (3, 4):
        if math.factorial(n) <= max_order:
            groups.append(symmetric_group(n))
    for a, b in [(2, 2), (2, 4), (2, 6), (3, 3), (2, 10), (4, 4)]:
        if a * b <= max_order:
            groups.append(direct_product(cyclic_group(a), cyclic_group(b)))
    groups.append(direct_product(cyclic_group(2), dihedral_group(3)))
    return [g for g in groups if g.order <= max_order]


def brute_force_conjugacy_classes(group):
    """Independent conjugation-orbit enumeration by explicit looping."""
    n = group.order
    remaining = set(range(n))
    classes = []
    while remaining:
        s = min(remaining)
        orbit = set()
        for g in range(n):
            orbit.add(group.mul(group.mul(g, s), group.inv(g)))
        remaining -= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (group.identity not in c, len(c), c[0]))
    return classes


def regular_rep_dims_oracle(group, rng):
    """Block dimensions from eigenvalue multiplicities of a random
    self-adjoint algebra element: each block of size d contributes d distinct
    eigenvalues of multiplicity d in the regular representation."""
    from groupstates.groups import algebra_matrix

    n = group.order
    coeffs = np.zeros(n, dtype=complex)
    for s in range(n):
        t = group.inv(s)
        if s > t:
            continue
        if s == t:
            coeffs[s] = rng.normal()
        else:
            z = rng.normal() + 1j * rng.normal()
            coeffs[s] = z
            coeffs[t] = np.conj(z)
    mat = algebra_matrix(group, coeffs)
    evals = np.linalg.eigvalsh(mat)
    scale = max(float(np.abs(evals).max()), 1.0)
    groups = [[evals[0]]]
    for x in evals[1:]:
        if x - groups[-1][-1] > 1e-6 * scale:
            groups.append([x])
        else:
            groups[-1].append(x)
    mult_count = {}
    for cluster in groups:
        m = len(cluster)
        mult_count[m] = mult_count.get(m, 0) + 1
    dims = []
    for d, count in mult_count.items():
        assert count % d == 0, "multiplicity pattern is not block-like"
        dims.extend([d] * (count // d))
    return sorted(dims)


def dft_psd_oracle(fn, cutoff):
    """Bochner on cyclic groups: positive definite iff the DFT of the value
    vector is entrywise nonnegative."""
    spectrum = np.fft.fft(fn.values)
    return float(spectrum.real.min()), float(np.abs(spectrum.imag).max())


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n), scale=scale) + 1j * rng.normal(size=(n, n), scale=scale)
    return (a + a.conj().T) / 2


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def loop_coefficient_transport(src, dst, matching):
    """Coefficient transport one basis vector at a time: block pi of the
    source decomposition is pushed onto block matching[pi] of the target."""
    n = src.group.order
    mat = np.empty((dst.group.order, n), dtype=complex)
    for s in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[s] = 1.0
        blocks = src.from_coefficients(basis)
        pushed = [np.zeros((d, d), dtype=complex) for d in dst.block_dims]
        for pi, b in enumerate(blocks):
            pushed[matching[pi]] = b
        mat[:, s] = dst.to_coefficients(pushed)
    return mat
