"""Chained sequential measurement over many parties.

With N subsystems measured one after another, party n faces a bipartite
problem: its own overlap against the product of all downstream overlaps
(the unmeasured remainder behaves as one effective party).  If every
level passes the bipartite check, the chained strategy reaches the
global optimum; for N > 2 this is a sufficient condition only, so the
result is reported as "sufficient", never as a necessity claim.
"""

from __future__ import annotations

from .errors import DomainError
from .optimality import check_global_optimality
from .states import _check_overlap, psk_overlap


def check_multipartite(overlaps):
    """Level-by-level sufficiency check for a chain of parties.

    args:    overlaps -- one complex overlap per party, at least two
    returns: (sufficient, failing_level); failing_level is the first
             party index whose bipartite check fails, or None
    """
    ks = [_check_overlap(k) for k in overlaps]
    if len(ks) < 2:
        raise DomainError(f"need at least 2 parties, got {len(ks)}")
    for n in range(len(ks) - 1):
        downstream = complex(1.0)
        for k in ks[n + 1 :]:
            downstream *= k
        if not check_global_optimality(ks[n], downstream).verdict:
            return False, n
    return True, None


def check_copies_psk(s_total, n):
    """Sufficiency check for n identical phase-keyed copies.

    The total mean photon number s_total is split evenly; downstream
    overlaps use the closed-form product (overlap of the summed photon
    number) instead of repeated multiplication.

    returns: (sufficient, failing_level)
    """
    n = int(n)
    if n < 2:
        raise DomainError(f"need at least 2 copies, got {n}")
    s = float(s_total) / n
    ka = psk_overlap(s)  # raises for s_total <= 0
    for lvl in range(n - 1):
        kb = psk_overlap((n - lvl - 1) * s)
        if not check_global_optimality(ka, kb).verdict:
            return False, lvl
    return True, None
