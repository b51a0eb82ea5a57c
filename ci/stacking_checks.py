"""Stacking checks beyond Tier-1, pinned to their verdicts.

- SU(2)_16 x_Z2 SU(2)_16: the stacking identity holds (Tier-1 stops at k = 12).
- The Z2 stacking census: all 36 unordered pairs of eight categories, each
  with a Z2 of bosons; 33 hold and 3 are inconclusive (None).  The slowest
  pair is printed with its time: the degenerate (ii x fib, ii x fib), whose
  left side's split search depends most on the search order.
- The S decision of every candidate that the census's split searches check
  matches the same decision in Cyclo arithmetic (tests/dense_reference.py).

Run from the repository root:

    PYTHONPATH=src python ci/stacking_checks.py

It prints one line per check and exits 1 naming every verdict off its pin.
"""

import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from setcat import relprod  # noqa: E402
from setcat.catalog import get  # noqa: E402
from setcat.fusion import pair_label  # noqa: E402
from setcat.relprod import verify_stacking_identity  # noqa: E402
from tests.dense_reference import cyclo_s_invertibility  # noqa: E402
from tests.test_relprod import su2_level, z2_embedding  # noqa: E402

# the census pairs whose verdict is None: the left side's own S cannot tell its
# survivors apart
INCONCLUSIVE = {("ii", "ii"), ("ii", "ii x fib"), ("ii x fib", "ii x fib")}


def census_inputs():
    """(name, category, Z2 embedding) for the eight categories of the census."""
    ii = get("ising").category.deligne(get("ising_rev").category)
    iif = ii.deligne(get("fibonacci").category)
    su2 = {k: su2_level(k) for k in (4, 8)}
    return [(f"{n}/{k}", get(n).category, get(n).embeddings[k])
            for n, k in (("toric_code", "e"), ("toric_code", "m"),
                         ("double_semion", "boson"))] + [
        ("ii", ii, z2_embedding(ii, pair_label("psi", "psi"))),
        *((f"su2_{k}", P, z2_embedding(P, str(k))) for k, P in su2.items()),
        ("ii x fib", iif, z2_embedding(iif, pair_label(pair_label("psi", "psi"), "1"))),
        ("rep_z2/identity", get("rep_z2").category, get("rep_z2").embeddings["identity"])]


def main() -> int:
    off = []
    start = time.perf_counter()
    P = su2_level(16)
    emb = z2_embedding(P, "16")
    verdict = verify_stacking_identity(P, P, emb, emb)
    if verdict is not True:
        off.append(("su2_16", "su2_16", verdict))
    print(f"SU(2)_16 x_Z2 SU(2)_16: {verdict} ({time.perf_counter() - start:.1f} s)")

    start, verdicts, slowest, checked = time.perf_counter(), [], (0.0, ""), []
    check = relprod._candidate_ok
    relprod._candidate_ok = lambda cand: checked.append(cand) or check(cand)
    for (a, C, e), (b, D, f) in combinations_with_replacement(census_inputs(), 2):
        began = time.perf_counter()
        verdicts.append(v := verify_stacking_identity(C, D, e, f))
        slowest = max(slowest, (time.perf_counter() - began, f"{a} / {b}"))
        if v is not (None if (a, b) in INCONCLUSIVE else True):
            off.append((a, b, v))
    relprod._candidate_ok = check
    print(f"Z2 stacking census: {verdicts.count(True)} True, {verdicts.count(None)} None, "
          f"{verdicts.count(False)} False ({time.perf_counter() - start:.1f} s); "
          f"slowest pair {slowest[1]} ({slowest[0]:.2f} s)")
    mismatched = [c.name for c in checked if c._s_invertibility != cyclo_s_invertibility(c)]
    print(f"S decisions of the census's {len(checked)} checked candidates match the Cyclo "
          f"reference: {not mismatched}")
    off += [("S decision", name, "differs from the Cyclo reference") for name in mismatched]
    if off:
        print(f"verdicts off the pins: {off}")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
