"""Braid test between neighbouring positions of the tower.

``repbuilder`` builds every block in a braid-consistent normalization (see
``repbuilder._partner_scale``), so no diagonal gauge has to be solved for.
``repair_position`` keeps the test that the construction gets right: the
braid identity between sigma_{i-1} and sigma_i, on whatever matrices it is
given.  ``repbuilder`` gives it the two generators on one class of the
join of their blocks at a time (``repbuilder._braid_test``), since they
are direct sums over those classes.  ``verify_relations`` runs it as its
``braid`` check, and ``build_rep`` runs it while building only when no
verification follows, so each build computes the braid products once.
"""

from __future__ import annotations


class GaugeRepairFailed(RuntimeError):
    pass


def repair_position(sig_prev, sig_i, kap_i):
    """Check position i against the already-built position i-1.

    Returns (sigma, kappa, None), the inputs unchanged, when
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
