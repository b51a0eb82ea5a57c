"""Test-only reference: the split-fusion search as it was before the
propagating, symmetry-broken solver replaced it.  It enumerates the unknown
coefficients one commutativity class at a time under the integer margins
(recursively), validates each complete candidate with the dense O(r^4)
Verlinde sum, and only then groups the survivors up to relabelling children
within orbits.  `tests/test_split_differential.py` asserts that the engine
finds the same classes, with the same representatives, wherever this finishes,
and that the engine's candidate check gives the verdict of
`sparse_candidate_ok`, the check it had before its character fast path.
It works on fusion coefficients as (a, b, c) triples, builds its categories
with its own `_build_result`, and takes the engine's forced rows as
`relprod._orbit_fusion` returns them.  Nothing in `src/` imports it."""

import sys
from collections import defaultdict
from itertools import permutations

from setcat.cyclo import Cyclo
from setcat.errors import InputError, InternalFault
from setcat.fusion import _with_rows
from setcat.premodular import Premodular

from .dense_reference import dense_smatrix_invertible

_SEARCH_NODE_BUDGET = 200_000
_MAX_SURVIVORS = 64


def _build_result(labels, n_dict, dims, twists, name="candidate"):
    """The category whose rows hold n_dict's entries {(a, b, c): N_ab^c}, in
    n_dict's order."""
    rows = {}
    for (a, b, c), v in n_dict.items():
        rows.setdefault((a, b), {})[c] = v
    ring = _with_rows(labels, {a: b for (a, b, c) in n_dict if c == labels[0]}, rows)
    return Premodular(ring, dims, twists, name=name)


def reference_split_classes(forced, unknown, labels, rep_of, dims, twists, orbit_margins):
    """The surviving classes, each as its least relabelling, in sorted order,
    as {(a, b, c): N_ab^c} dicts; `forced` holds the engine's forced rows."""
    forced = {(a, b, c): v for (a, b), row in forced.items() for c, v in row.items()}
    of_orbit = defaultdict(list)
    for lab in labels:
        of_orbit[rep_of[lab]].append(lab)
    survivors = _resolve_split_fusion(
        forced, unknown, labels, rep_of, dims, twists, orbit_margins)
    return _dedupe_by_child_permutation(
        survivors, of_orbit, {rep: len(ch) for rep, ch in of_orbit.items()})


def dense_verlinde_holds(cand, labels) -> bool:
    """N_ij^k = sum_l S_il S_jl conj(S_kl) / (d_l D^2) for all i, j, k."""
    d2_inv = cand.global_dim().inverse()
    inv_d = {x: cand.dim(x).inverse() for x in labels}
    for i in labels:
        for j in labels:
            for k in labels:
                acc = Cyclo.zero()
                for l in labels:
                    acc = acc + (cand.s_entry(i, l) * cand.s_entry(j, l)
                                 * cand.s_entry(k, l).conjugate() * inv_d[l])
                if acc * d2_inv != Cyclo.from_rational(cand.ring.n(i, j, k)):
                    return False
    return True


def _resolve_split_fusion(forced, unknown, labels, rep_of, dims, twists, orbit_margins):
    """Enumerate split fusion coefficients consistent with the margins, then
    filter by ring axioms, exact S-matrix consistency, and Verlinde when the
    candidate is nondegenerate."""
    margins: dict[tuple, int] = {}

    def margin_keys(triple):
        a, b, c = triple
        ox, oy, oz = rep_of[a], rep_of[b], rep_of[c]
        return (("r", a, oy, oz), ("c", b, ox, oz), ("o", c, ox, oy))

    for t in unknown:
        for key, m in zip(margin_keys(t), orbit_margins):
            margins.setdefault(key, m.get(tuple(rep_of[x] for x in t), 0))

    # commutativity ties (a,b,c) with (b,a,c); one variable per class
    var_of: dict[tuple, tuple] = {}
    variables: dict[tuple, list[tuple]] = {}
    for t in unknown:
        a, b, c = t
        canon = min(t, (b, a, c))
        var_of[t] = canon
        variables.setdefault(canon, [])
        if t not in variables[canon]:
            variables[canon].append(t)
    var_list = sorted(variables)

    solutions: list[dict[tuple, int]] = []
    budget = [_SEARCH_NODE_BUDGET]

    def dfs(idx: int, current: dict[tuple, int]):
        if budget[0] <= 0:
            raise InternalFault(
                f"splitting enumeration exhausted its search budget of "
                f"{_SEARCH_NODE_BUDGET:,} nodes over {len(var_list)} unknown variables")
        budget[0] -= 1
        if idx == len(var_list):
            if all(v == 0 for v in margins.values()):
                if len(solutions) >= _MAX_SURVIVORS:
                    raise InternalFault(
                        f"splitting enumeration: too many candidates, {len(solutions) + 1} "
                        f"reached against the cap of {_MAX_SURVIVORS}, over "
                        f"{len(var_list)} unknown variables")
                solutions.append(dict(current))
            return
        var = var_list[idx]
        concretes = variables[var]
        ub = min(min(margins[k] for k in margin_keys(t)) for t in concretes)
        for val in range(ub + 1):
            for t in concretes:
                for k in margin_keys(t):
                    margins[k] -= val
            if all(m >= 0 for m in margins.values()):
                if val:
                    current[var] = val
                dfs(idx + 1, current)
                current.pop(var, None)
            for t in concretes:
                for k in margin_keys(t):
                    margins[k] += val
        return

    try:
        dfs(0, {})
    except RecursionError:
        raise InternalFault(
            f"splitting enumeration over {len(var_list)} unknown variables needs a "
            f"deeper recursion than the limit {sys.getrecursionlimit()}") from None

    survivors = []
    for sol in solutions:
        n_dict = dict(forced)
        for t in unknown:
            v = sol.get(var_of[t], 0)
            if v:
                n_dict[t] = v
        if _candidate_ok(labels, n_dict, dims, twists):
            survivors.append(n_dict)
    return survivors


def dense_candidate_ok(labels, n_dict, dims, twists) -> bool:
    try:
        cand = _build_result(labels, n_dict, dims, twists)
        if cand.validate():
            return False
    except (InternalFault, InputError):
        return False
    # Verlinde consistency whenever the candidate S-matrix is invertible
    if dense_smatrix_invertible(cand):
        if cand.muger_center() != [cand.unit]:
            return False
        return dense_verlinde_holds(cand, labels)
    return True


_candidate_ok = dense_candidate_ok  # what `_resolve_split_fusion` calls


def sparse_candidate_ok(labels, n_dict, dims, twists) -> bool:
    """The engine's candidate check before the character fast path: the full
    validation, the rank^3 test S conj(S)^T = D^2 Id, the Mueger center, and
    Verlinde as the character identity S_il S_jl = d_l sum_k N_ij^k S_kl."""
    cand = _build_result(labels, n_dict, dims, twists)
    if cand.validate():
        return False
    ring, S = cand.ring, cand.s_entry
    return not dense_smatrix_invertible(cand) or cand.muger_center() == [cand.unit] and all(
        S(i, l) * S(j, l) == dims[l] * sum((S(k, l) * m for k, m in ring.fuse(i, j).items()),
                                           Cyclo.zero())
        for a, i in enumerate(labels) for j in labels[a:] for l in labels)


def _dedupe_by_child_permutation(survivors, of_orbit, child_count):
    """Group surviving assignments up to relabeling children within orbits."""
    split_orbits = [rep for rep, c in child_count.items() if c > 1]
    perm_maps = [{}]
    for rep in split_orbits:
        labs = of_orbit[rep]
        new_maps = []
        for base in perm_maps:
            for perm in permutations(labs):
                m = dict(base)
                m.update(dict(zip(labs, perm)))
                new_maps.append(m)
        perm_maps = new_maps

    def apply_map(n_dict, m):
        out = {}
        for (a, b, c), v in n_dict.items():
            out[(m.get(a, a), m.get(b, b), m.get(c, c))] = v
        return out

    def canon(n_dict):
        return min(tuple(sorted(apply_map(n_dict, m).items())) for m in perm_maps)

    classes: dict[tuple, dict] = {}
    for sol in survivors:
        key = canon(sol)
        if key not in classes:
            classes[key] = dict(key)
    ordered = [classes[k] for k in sorted(classes)]
    return ordered
