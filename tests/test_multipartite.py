"""Chained many-party sufficiency checks."""

import numpy as np
import pytest

from helpers import random_overlap
from triseq import check_copies_psk, check_global_optimality, check_multipartite, psk_overlap
from triseq.errors import DegenerateStates, DomainError


def test_two_parties_reduce_to_bipartite():
    rng = np.random.default_rng(51)
    for _ in range(50):
        ka = random_overlap(rng)
        kb = random_overlap(rng)
        verdict = check_global_optimality(ka, kb).verdict
        sufficient, level = check_multipartite([ka, kb])
        assert sufficient == verdict
        assert level == (None if verdict else 0)


def test_multipartite_input_validation():
    with pytest.raises(DomainError):
        check_multipartite([0.3])
    with pytest.raises(DegenerateStates):
        check_multipartite([0.3, 1.0])
    with pytest.raises(DegenerateStates, match=r"\|K\| = inf exceeds 1"):
        check_multipartite([1.7e308 + 1.7e308j, 0.1])  # the modulus overflows


def test_multipartite_failing_level_is_first():
    # the failing bipartite face (-0.2, -0.2) sits at level 1 here; the
    # front level faces (0.01, 0.04) which passes
    assert check_multipartite([0.01, -0.2, -0.2]) == (False, 1)
    # moved to the front it already fails at level 0
    assert check_multipartite([-0.2, -0.2, 0.01]) == (False, 0)


def test_copies_psk_validation():
    with pytest.raises(DomainError):
        check_copies_psk(1.0, 1)
    with pytest.raises(DomainError):
        check_copies_psk(-1.0, 4)


def test_copies_psk_many_weak_copies_pass():
    assert check_copies_psk(0.1, 20) == (True, None)


def test_copies_psk_strong_signal_fails_early():
    suff, level = check_copies_psk(3.0, 2)
    assert suff is False
    assert level == 0
    # splitting the dead-zone total over two copies lands each level in
    # the dead zone as well
    suff, level = check_copies_psk(4 * 3.141592653589793 / 3**0.5, 2)
    assert suff is False
    assert level == 0


def test_copies_psk_matches_explicit_chain():
    rng = np.random.default_rng(52)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        s_total = float(rng.uniform(0.02, 6.0))
        s = s_total / n
        explicit = check_multipartite([psk_overlap(s)] * n)
        closed = check_copies_psk(s_total, n)
        assert closed == explicit


def test_copies_psk_downstream_closed_form():
    # product of m equal phase-keyed overlaps is the overlap at m times
    # the per-copy power
    s = 0.37
    prod = 1.0 + 0j
    for _ in range(5):
        prod *= psk_overlap(s)
    assert prod == pytest.approx(psk_overlap(5 * s), rel=1e-12)

