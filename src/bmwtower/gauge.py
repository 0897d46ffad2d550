"""Braid test between neighbouring positions of the tower.

``repbuilder`` builds every block in a braid-consistent normalization (see
``repbuilder._partner_scale``), so no diagonal gauge has to be solved for.
``repair_position`` keeps the test that the construction gets right: the
braid identity between sigma_{i-1} and sigma_i.
"""

from __future__ import annotations


class GaugeRepairFailed(RuntimeError):
    pass


def repair_position(sig_prev, sig_i, kap_i, blocks_i, field, commuters=()):
    """Check position i against the already-built position i-1.

    Returns (sigma, kappa, None), the inputs unchanged, when
    sigma_{i-1} sigma_i sigma_{i-1} = sigma_i sigma_{i-1} sigma_i, and raises
    GaugeRepairFailed otherwise.  ``blocks_i``, ``field`` and ``commuters``
    are not read; they keep the call signature of the earlier gauge solver.
    """
    lhs = sig_prev * sig_i * sig_prev
    rhs = sig_i * sig_prev * sig_i
    if not lhs.equals(rhs):
        raise GaugeRepairFailed(
            "braid relation fails between consecutive positions"
        )
    return sig_i, kap_i, None
