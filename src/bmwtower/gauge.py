"""Braid test between neighbouring positions of the tower.

``repbuilder`` builds every block in a braid-consistent normalization
(``repbuilder._partner_scale``), so no diagonal gauge is solved for; what
is left is the braid test, made on the classes of the join of the blocks at two
neighbouring positions, once per class key of the call
(``repbuilder._braid_holds``).
"""

from __future__ import annotations


class GaugeRepairFailed(RuntimeError):
    pass


def repair_position(sig_prev, sig_i, kap_i):
    """Check position i against the already-built position i-1.

    Returns (sig_i, kap_i, None), kap_i unread, when
    sigma_{i-1} sigma_i sigma_{i-1} = sigma_i sigma_{i-1} sigma_i, and raises
    GaugeRepairFailed otherwise.  The name and the third, always-None item
    are kept because perfbench/tracing.py wraps this function by name and
    reads that item.
    """
    lhs = sig_prev * sig_i * sig_prev
    rhs = sig_i * sig_prev * sig_i
    if not lhs.equals(rhs):
        raise GaugeRepairFailed(
            "braid relation fails between consecutive positions"
        )
    return sig_i, kap_i, None
