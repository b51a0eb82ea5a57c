"""Exact modular data of SU(2)_k from its closed formulas.

Labels are the spins j = 0..k (written as integers, "j" meaning spin j/2).
Fusion is the truncated Clebsch-Gordan rule, N_ab^c = 1 iff
|a - b| <= c <= min(a + b, 2k - a - b) and a + b + c is even; every label is
self-dual.  The quantum dimension is d_j = [j + 1]_q with q = zeta_(2(k+2)),
and the twist is theta_j = exp(2 pi i j(j + 2) / (4(k + 2))).  See
Bakalov-Kirillov, Lectures on Tensor Categories and Modular Functors, ch. 3,
and Rowell-Stong-Wang, Commun. Math. Phys. 292 (2009).
"""

from __future__ import annotations

from fractions import Fraction


def su2_level(setcat, k: int):
    """SU(2)_k as a setcat Premodular, built from `setcat` (the imported package)."""
    if k < 1:
        raise ValueError("level must be positive")
    labels = [str(j) for j in range(k + 1)]
    fusion = {}
    for a in range(k + 1):
        for b in range(k + 1):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                fusion[(str(a), str(b), str(c))] = 1
    ring = setcat.FusionRing(labels, {x: x for x in labels}, fusion)
    # [j+1]_q = q^j + q^(j-2) + ... + q^(-j), q = zeta_(2(k+2))
    dims = {}
    for j in range(k + 1):
        d = setcat.Cyclo.zero()
        for m in range(j + 1):
            d = d + setcat.root_of_unity(Fraction(j - 2 * m, 2 * (k + 2)))
        dims[str(j)] = d
    twists = {str(j): Fraction(j * (j + 2), 4 * (k + 2)) for j in range(k + 1)}
    return setcat.Premodular(ring, dims, twists, name=f"su2_{k}")
