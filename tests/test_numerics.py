"""Tolerance table, eigensolver and 3x3 solver."""

import ast
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

from triseq import TOL, hermitian_eigen, solve3
from triseq.errors import NonHermitian, SingularSystem


def test_tolerances_frozen():
    assert TOL.herm == 1e-12
    assert TOL.psd == 1e-9
    assert TOL.tie == 1e-9
    assert (TOL.zero_trace, TOL.pole) == (1e-14, 1e-14)
    assert (TOL.defer_snap, TOL.collinear) == (1e-10, 1e-10)
    assert (TOL.det_floor, TOL.membership) == (1e-18, 1e-9)
    assert (TOL.degenerate, TOL.solve_resid) == (1e-12, 1e-10)
    assert 2 * TOL.degenerate == 2e-12  # multipartite's clamp target, bit-equal
    assert (TOL.product_gap, TOL.null_space, TOL.active) == (1e-9, 1e-8, 1e-14)
    assert (TOL.kernel_resid, TOL.kernel_zero, TOL.leak) == (1e-8, 1e-9, 1e-10)
    assert (TOL.completeness, TOL.prob_sum, TOL.povm_psd) == (1e-10, 1e-8, 1e-12)
    assert (TOL.drift, TOL.success_gap) == (1e-12, 1e-10)


def test_tolerances_live_in_tol():
    # every threshold is a TOL field: no module but numerics spells one out
    src = Path(__file__).resolve().parents[1] / "src" / "triseq"
    modules = sorted(p for p in src.glob("*.py") if p.name != "numerics.py")
    assert len(modules) >= 8
    found = []
    for path in modules:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type != tokenize.NUMBER:
                continue
            text = tok.string.lower()
            exponent = "e" in text and not text.startswith("0x")
            if exponent or 0.0 < abs(ast.literal_eval(text)) < 1e-6:
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def test_eigen_identity():
    w, v = hermitian_eigen(np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(v @ v.conj().T, np.eye(3))


def test_eigen_diagonal_sorted():
    w, _ = hermitian_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def test_eigen_random_spectrum():
    rng = np.random.default_rng(42)
    for _ in range(25):
        spectrum = np.sort(rng.normal(size=3))
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(m)
        h = u @ np.diag(spectrum) @ u.conj().T
        h = (h + h.conj().T) / 2
        w, v = hermitian_eigen(h)
        assert np.allclose(w, spectrum, atol=1e-12)
        for i in range(3):
            assert np.linalg.norm(h @ v[:, i] - w[i] * v[:, i]) <= 1e-10


def test_eigen_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NonHermitian):
        hermitian_eigen(m)


def test_eigen_rejects_non_square():
    with pytest.raises(NonHermitian):
        hermitian_eigen(np.ones((2, 3)))


def test_eigen_on_a_stack():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    stack = m + np.swapaxes(m, -2, -1).conj()
    w, v = hermitian_eigen(stack)
    assert w.shape == (5, 4) and v.shape == (5, 4, 4)
    for h, got in zip(stack, w):
        assert got.tobytes() == hermitian_eigen(h)[0].tobytes()
    with pytest.raises(NonHermitian) as one:
        hermitian_eigen(stack[0] + np.triu(np.ones((4, 4)), 1))
    assert one.value.index == 0

    skewed = stack.copy()
    skewed[3, 0, 2] += 0.25
    skewed[4, 1, 0] += 0.5  # a later failure is not the one named
    with pytest.raises(NonHermitian, match="symmetry residual 2.500e-01") as many:
        hermitian_eigen(skewed)
    assert many.value.index == 3


def test_solve3_identity():
    assert solve3(np.eye(3), (1.0, 1.0, 1.0)) == (1.0, 1.0, 1.0)


def test_solve3_known_solution():
    m = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]
    x = (0.5, -1.5, 2.0)
    b = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
    u = solve3(m, b)
    assert max(abs(u[i] - x[i]) for i in range(3)) < 1e-13


def test_solve3_residual_contract():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        b = rng.normal(size=3)
        u = solve3(m, b)
        resid = np.max(np.abs(m @ np.array(u) - b))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_solve3_badly_scaled_but_solvable():
    # one row dominating by 8 orders of magnitude, as happens in the weight
    # systems when an offset is tiny; must not be flagged singular
    m = [[3.2, 11.0, 0.0], [4.1, 2.4e9, 0.0], [5.0, 30.0, 1.0]]
    x = (0.3, 2.0e-9, 0.7)
    b = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
    u = solve3(m, b)
    resid = max(abs(sum(m[i][j] * u[j] for j in range(3)) - b[i]) for i in range(3))
    assert resid <= 1e-10 * max(1.0, max(abs(v) for v in b))


def test_solve3_singular_raises():
    with pytest.raises(SingularSystem):
        solve3(np.zeros((3, 3)), (1.0, 0.0, 0.0))
    m = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]  # rank 2
    with pytest.raises(SingularSystem):
        solve3(m, (1.0, 1.0, 1.0))
