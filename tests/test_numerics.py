"""Tolerance table and eigensolver."""

import ast
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

from triseq import TOL, hermitian_eigen
from triseq.errors import NonHermitian


def test_tolerances_frozen():
    assert len(TOL) == 16
    assert TOL.herm == 1e-12
    assert TOL.psd == 1e-9
    assert TOL.tie == 1e-9
    assert (TOL.zero_trace, TOL.pole) == (1e-14, 1e-14)
    assert (TOL.defer_snap, TOL.collinear) == (1e-10, 1e-10)
    assert (TOL.membership, TOL.degenerate) == (1e-9, 1e-12)
    assert (TOL.active, TOL.kernel_resid, TOL.leak) == (1e-14, 1e-8, 1e-10)
    assert (TOL.completeness, TOL.prob_sum, TOL.povm_psd) == (1e-10, 1e-8, 1e-12)
    assert TOL.success_gap == 1e-10


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


def test_every_tolerance_is_read():
    # a field no site reads as TOL.<field> is a threshold nothing applies
    src = Path(__file__).resolve().parents[1] / "src" / "triseq"
    read = {node.attr for path in src.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "TOL"}
    assert "herm" in read  # numerics' own hermitian_eigen counts
    assert [field for field in TOL._fields if field not in read] == []


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


def test_eigen_hermiticity_band_sits_at_its_tolerance():
    # TOL.herm is 1e-12: a residual of 1e-14 is accepted, one of 1e-10 is
    # refused; a band 1e3 times wider or narrower moves one of them across
    for skew, accepted in ((1e-14, True), (1e-10, False)):
        m = np.eye(3, dtype=complex)
        m[0, 1] = skew
        if accepted:
            assert np.allclose(hermitian_eigen(m)[0], 1.0)
        else:
            with pytest.raises(NonHermitian, match="^symmetry residual 1.000e-10 exceeds 1.0e-12$"):
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

