import hashlib
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from setcat import abelian, relprod
from setcat.catalog import catalog, get
from setcat.cyclo import Cyclo, root_of_unity
from setcat.double import drinfeld_double, rep_abelian
from setcat.embedding import SymmetryEmbedding
from setcat.equiv import check_bijection, find_equivalence
from setcat.errors import InputError, InternalFault, LimitExceeded, ValidationInputError
from setcat.fusion import pair_label
from setcat.pointed import MetricGroup, element_label
from setcat.premodular import Premodular
from setcat.randomized import random_metric_group
from setcat.relprod import (
    canonical_algebra,
    condense_by_invertible_bosons,
    is_deconfined,
    relative_centralizer,
    relative_tensor_product,
    verify_stacking_identity,
    verify_unit_law,
)

from .test_acceptance import STACKING_SET, UNIT_LAW_INSTANCES
from .test_invariants import su2_level
from .test_sparse_differential import oracle_inputs
from .test_split_differential import assert_least_relabelling, ising_squared, rep_d8

F = Fraction


def test_canonical_algebra_toric_toric():
    emb = get("toric_code").embeddings["e"]
    assert canonical_algebra(emb, emb) == [pair_label("1", "1"), pair_label("e", "e")]


def test_canonical_algebra_trivial_group():
    vec = get("vec")
    emb = SymmetryEmbedding([], "vec", {(): "1"})
    assert canonical_algebra(emb, emb) == [pair_label("1", "1")]


def test_canonical_algebra_toric_double_semion():
    embt = get("toric_code").embeddings["e"]
    embd = get("double_semion").embeddings["boson"]
    assert canonical_algebra(embt, embd) == [
        pair_label("1", "1"), pair_label("e", "b")]


def test_is_deconfined_toric_pairs():
    toric = get("toric_code").category
    emb = get("toric_code").embeddings["e"]
    assert is_deconfined(toric, toric, emb, emb, "m", "f")
    assert not is_deconfined(toric, toric, emb, emb, "m", "1")
    assert is_deconfined(toric, toric, emb, emb, "1", "1")


def test_condense_toric_on_e_gives_vec():
    toric = get("toric_code").category
    res = condense_by_invertible_bosons(toric, ["1", "e"])
    assert res.result.ring.rank() == 1
    assert res.deconfined == ["1", "e"]
    assert res.confined == ["m", "f"]
    assert res.conservation["global_dim_conserved"]
    assert res.conservation["gauss_conserved"]
    assert res.ambiguity_flags == []


def test_condense_rejects_bad_boson_sets():
    toric = get("toric_code").category
    with pytest.raises(InputError):
        condense_by_invertible_bosons(toric, ["1", "f"])  # twist 1/2
    with pytest.raises(InputError):
        condense_by_invertible_bosons(toric, ["1", "e", "m"])  # not closed
    ising = get("ising").category
    with pytest.raises(InputError):
        condense_by_invertible_bosons(ising, ["1", "sigma"])  # not invertible


def test_toric_stack_toric_is_toric():
    toric = get("toric_code").category
    emb = get("toric_code").embeddings["e"]
    res, ind = relative_tensor_product(toric, toric, emb, emb)
    assert res.result.ring.rank() == 4
    assert sorted(res.result.twist(x) for x in res.result.labels) == \
        [F(0), F(0), F(0), F(1, 2)]
    assert len(res.orbits) == 4
    assert all(len(o.stabilizer) == 1 for o in res.orbits)
    assert res.conservation["global_dim_conserved"]
    sigma = find_equivalence(res.result, toric)
    assert sigma is not None
    # the induced symmetry sits on the orbit of (e, 1)
    assert ind.validate(res.result) == []


def test_ising_times_reverse_condenses_to_toric():
    ising = get("ising").category
    rev = get("ising_rev").category
    prod = ising.deligne(rev)
    res = condense_by_invertible_bosons(
        prod, [pair_label("1", "1"), pair_label("psi", "psi")])
    assert res.ambiguity_flags == []
    assert res.result.ring.rank() == 4
    assert sorted(res.result.twist(x) for x in res.result.labels) == \
        [F(0), F(0), F(0), F(1, 2)]
    # the fixed point (sigma, sigma) splits into two invertible children
    rep = pair_label("sigma", "sigma")
    assert res.splittings[rep] == 2
    for lab in [lab for lab, (r, _) in res.provenance.items() if r == rep]:
        assert res.result.dim(lab) == Cyclo.one()
        assert res.result.twist(lab) == 0
    assert find_equivalence(res.result, get("toric_code").category) is not None
    # exact conservation: gauss(ising x rev) = 2 zeta16 * 2 zeta16^-1 = 4
    assert prod.gauss_sum() == Cyclo.from_rational(4)
    assert res.conservation["gauss_conserved"]
    assert res.conservation["global_dim_conserved"]


def test_relative_centralizer_cases():
    toric = get("toric_code").category
    emb = get("toric_code").embeddings["e"]
    cent = relative_centralizer(toric, emb)
    assert cent.labels == ["1", "e"]
    assert cent.muger_center() == cent.labels

    # central embedding keeps everything
    rz2 = get("rep_z2")
    cent2 = relative_centralizer(rz2.category, rz2.embeddings["identity"])
    assert cent2.labels == rz2.category.labels

    ising = get("ising").category
    rev = get("ising_rev").category
    prod = ising.deligne(rev)
    emb_pair = SymmetryEmbedding([2], prod.name,
                                 {(0,): prod.unit, (1,): pair_label("psi", "psi")})
    assert emb_pair.validate(prod) == []
    cent3 = relative_centralizer(prod, emb_pair)
    assert cent3.ring.rank() == 5


def test_unit_law_toric_both_embeddings():
    toric = get("toric_code")
    assert verify_unit_law(toric.category, toric.embeddings["e"]) is True
    assert verify_unit_law(toric.category, toric.embeddings["m"]) is True


def test_unit_law_rep_z2():
    rz2 = get("rep_z2")
    Z, embZ = drinfeld_double([2])
    res, ind = relative_tensor_product(Z, rz2.category, embZ, rz2.embeddings["identity"])
    assert res.result.ring.rank() == 2
    assert verify_unit_law(rz2.category, rz2.embeddings["identity"]) is True


def test_unit_law_double_z3():
    d3 = get("double_3")
    assert verify_unit_law(d3.category, d3.embeddings["canonical"]) is True


def test_stacking_identity_toric_pairs():
    toric = get("toric_code")
    assert verify_stacking_identity(
        toric.category, toric.category,
        toric.embeddings["e"], toric.embeddings["e"]) is True
    assert verify_stacking_identity(
        toric.category, toric.category,
        toric.embeddings["e"], toric.embeddings["m"]) is True


def test_stacking_identity_with_double():
    toric = get("toric_code")
    d2 = get("double_2")
    assert verify_stacking_identity(
        d2.category, toric.category,
        d2.embeddings["canonical"], toric.embeddings["e"]) is True


def test_each_input_embedding_is_validated_once_per_call(monkeypatch):
    toric, d4 = get("toric_code"), get("double_4")
    C, e, m = toric.category, toric.embeddings["e"], toric.embeddings["m"]
    fermion = SymmetryEmbedding([2], C.name, {(0,): "1", (1,): "f"})
    z4 = d4.embeddings["canonical"]
    expected = "invalid embedding into toric_code: image of (1,) is not bosonic: theta[f] != 1"
    for call in (lambda: relative_tensor_product(C, C, e, fermion),
                 lambda: relative_centralizer(C, fermion), lambda: verify_unit_law(C, fermion),
                 lambda: verify_stacking_identity(C, C, fermion, e),
                 lambda: verify_stacking_identity(C, C, e, fermion)):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == expected
    with pytest.raises(InputError, match=r"different symmetry groups: \[2\] vs \[4\]"):
        verify_stacking_identity(C, d4.category, e, z4)
    seen = []
    validate = SymmetryEmbedding.validate
    monkeypatch.setattr(SymmetryEmbedding, "validate",
                        lambda emb, cat: seen.append((emb, cat.name)) or validate(emb, cat))
    assert verify_stacking_identity(C, C, e, m) is True
    assert seen == [(e, C.name), (m, C.name)]
    seen.clear()
    assert verify_unit_law(C, m) is True
    assert seen == [(m, C.name)]


def test_stack_and_oracle_paths_compute_no_s_entry(monkeypatch):
    # transparency and charges are read from the twists: the unit laws, the
    # stacking identities and the benchmark's oracle condensations read no S
    monkeypatch.setattr(Premodular, "s_entry", lambda *a: pytest.fail("s_entry was called"))
    for name, key in UNIT_LAW_INSTANCES:
        entry = get(name)
        assert verify_unit_law(entry.category, entry.embeddings[key]) is True
    for (n1, k1), (n2, k2) in product(STACKING_SET, STACKING_SET):
        C, D = get(n1), get(n2)
        assert verify_stacking_identity(C.category, D.category, C.embeddings[k1],
                                        D.embeddings[k2]) is True
    for M, H in oracle_inputs():
        res = condense_by_invertible_bosons(M.to_premodular(), [element_label(h) for h in H])
        assert res.conservation["global_dim_conserved"] and res.conservation["gauss_conserved"]


def test_relprod_unit_instance_equals_engine_on_doubles():
    # stacking the double with rep(G) itself: Z(E) x_E E = E
    rz2 = get("rep_z2")
    assert verify_unit_law(rz2.category, rz2.embeddings["identity"]) is True


def test_double_z4_two_embeddings_condense_differently():
    d4 = get("double_4").category
    bosons = [x for x in d4.labels
              if d4.is_invertible(x) and d4.twist(x) == 0]
    order2 = []
    for x in bosons:
        if x == d4.unit:
            continue
        if d4.ring.fuse(x, x) == {d4.unit: 1}:
            order2.append(x)
    assert len(order2) == 3
    twist_sets = {}
    for x in order2:
        res = condense_by_invertible_bosons(d4, [d4.unit, x])
        key = tuple(sorted(res.result.twist(t) for t in res.result.labels))
        twist_sets[x] = key
    values = sorted(twist_sets.values())
    # one subgroup yields the double semion, the others the toric code
    assert values.count((F(0), F(0), F(0), F(1, 2))) == 2
    assert values.count((F(0), F(0), F(1, 4), F(3, 4))) == 1


def test_pointed_engine_matches_oracle_small():
    import random

    from setcat.randomized import (random_isotropic_subgroup,
                                   random_metric_group)

    rng = random.Random(123)
    done = 0
    while done < 12:
        M = random_metric_group(rng, max_order=16)
        H = random_isotropic_subgroup(M, rng)
        done += 1
        oracle = M.condense([g for g in H if g != M.zero()])
        P = M.to_premodular(check_smatrix=False)
        from setcat.pointed import element_label
        res = condense_by_invertible_bosons(P, [element_label(h) for h in H])
        sigma = find_equivalence(res.result,
                                 oracle.to_premodular(check_smatrix=False))
        assert sigma is not None


def test_nondegeneracy_preserved():
    toric = get("toric_code").category
    res = condense_by_invertible_bosons(toric.deligne(toric),
                                        [pair_label("1", "1"), pair_label("e", "e")])
    assert res.result.is_nondegenerate()


def test_trivial_symmetry_gives_plain_product():
    semion = get("semion").category
    anti = get("anti_semion").category
    emb1 = SymmetryEmbedding([], "semion", {(): "1"})
    emb2 = SymmetryEmbedding([], "anti_semion", {(): "1"})
    res, ind = relative_tensor_product(semion, anti, emb1, emb2)
    assert res.result.ring.rank() == 4
    assert res.confined == []
    assert find_equivalence(res.result, semion.deligne(anti)) is not None


def test_rep_stack_c_is_relative_centralizer():
    # E x_E C computed by the engine agrees with the centralizer subcategory
    toric = get("toric_code")
    C, embC = toric.category, toric.embeddings["e"]
    R, embR = rep_abelian(embC.group)
    res, ind = relative_tensor_product(R, C, embR, embC)
    cent = relative_centralizer(C, embC)
    assert find_equivalence(res.result, cent) is not None

    dsem = get("double_semion")
    C2, embC2 = dsem.category, dsem.embeddings["boson"]
    R2, embR2 = rep_abelian(embC2.group)
    res2, _ = relative_tensor_product(R2, C2, embR2, embC2)
    cent2 = relative_centralizer(C2, embC2)
    assert find_equivalence(res2.result, cent2) is not None


def test_split_budget_message_names_the_numbers(monkeypatch):
    assert relprod._SEARCH_NODE_BUDGET == 200_000
    monkeypatch.setattr(relprod, "_SEARCH_NODE_BUDGET", 10)
    with pytest.raises(InternalFault, match=r"search budget of 10 nodes "
                                            r"over 23 unknown variables") as fault:
        condense_by_invertible_bosons(su2_level(12), ["0", "12"])
    assert isinstance(fault.value, LimitExceeded)


def test_split_candidate_cap_message_names_the_numbers(monkeypatch):
    assert relprod._MAX_SURVIVORS == 64
    monkeypatch.setattr(relprod, "_MAX_SURVIVORS", 0)
    prod = get("ising").category.deligne(get("ising_rev").category)
    with pytest.raises(InternalFault, match=r"too many candidates, 1 reached against "
                                            r"the cap of 0, over \d+ unknown variables") as fault:
        condense_by_invertible_bosons(prod, [pair_label("1", "1"), pair_label("psi", "psi")])
    assert isinstance(fault.value, LimitExceeded)


def test_split_relabelling_limit_is_checked_before_the_search():
    # SU(2)_4^3 by Z2^3: one 8-child, three 4-child and three 2-child orbits, whose
    # 8! 4!^3 2!^3 relabellings would be built before the first node
    assert relprod._MAX_RELABELLINGS == 100_000
    P = su2_level(4)
    bosons = [pair_label(pair_label(a, b), c) for a, b, c in product(("0", "4"), repeat=3)]
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match=r"^splitting enumeration: relabelling the split "
                                            r"children gives 4,459,069,440 relabellings, above "
                                            r"the limit of 100,000$"):
        condense_by_invertible_bosons(P.deligne(P).deligne(P), bosons)
    assert time.perf_counter() - start < 5


def test_global_dim_conserved_when_bosons_meet_the_mueger_center():
    # dim(result) |H|^2 = dim(input) |H meet Z2(input)|; in each case H meets Z2 in 2 bosons
    rep_z2 = get("rep_z2")
    emb = rep_z2.embeddings["identity"]
    toric_rep = get("toric_code").category.deligne(rep_z2.category)
    for res, dim_in, dim_out in [
            (condense_by_invertible_bosons(rep_z2.category, ["1", "e"]), 2, 1),
            (relative_tensor_product(rep_z2.category, rep_z2.category, emb, emb)[0], 4, 2),
            (condense_by_invertible_bosons(rep_d8(), ["1", "a"]), 8, 4),
            (condense_by_invertible_bosons(toric_rep, [pair_label(a, b) for a in ("1", "e")
                                                       for b in ("1", "e")]), 8, 1)]:
        cons = res.conservation
        assert cons["global_dim_input"] == Cyclo.from_rational(dim_in)
        assert cons["global_dim_result"] == Cyclo.from_rational(dim_out)
        assert cons["global_dim_conserved"] is True and cons["gauss_conserved"] is True


def test_split_orbit_below_its_stabilizer_order_is_unsupported_input():
    # (ising x ising_rev) x ising is valid data, and its Z2 x Z2 of bosons fixes
    # ((sigma,sigma),sigma), of dim 2 sqrt(2): 4 children would have dim sqrt(2)/2;
    # the stabilizer acts with a nontrivial 2-cocycle, which the engine does not model,
    # and the message names it next to the other cause, data with no braiding
    ising = get("ising").category
    P = ising.deligne(get("ising_rev").category).deligne(ising)
    assert P.validate() == []
    bosons = [pair_label(pair_label(a, b), c) for a, b, c in
              [("1", "1", "1"), ("1", "psi", "psi"), ("psi", "1", "psi"), ("psi", "psi", "1")]]
    with pytest.raises(InputError) as error:
        condense_by_invertible_bosons(P, bosons)
    assert type(error.value) is InputError
    assert str(error.value) == (
        "ising (x) ising_rev (x) ising: split orbit(s) ((sigma,sigma),sigma): dim "
        "2*z8 - 2*z8^3 is below the stabilizer's order 4, so 4 children would have dims "
        "below 1: either the data is not a braided category, or the stabilizer carries a "
        "nontrivial 2-cocycle; unsupported input")


def test_split_without_a_consistent_assignment_names_both_causes():
    # the Rep(D8) fusion ring with twists 1/2 on b and c and 1/16 on m validates; the
    # dim-2 fixed point m of {1, a} has room for 2 children, yet no assignment is consistent
    P = rep_d8((0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 16)))
    assert P.validate() == []
    with pytest.raises(ValidationInputError, match=(
            r"^rep_d8: no fusion assignment of the split orbit\(s\) m is consistent: either "
            r"the data is not a braided category, or a stabilizer carries a nontrivial "
            r"2-cocycle, which the engine does not support$")):
        condense_by_invertible_bosons(P, ["1", "a"])


def test_split_ising_squared_is_toric_squared():
    P, bosons = ising_squared()
    res = condense_by_invertible_bosons(P, bosons)
    assert res.ambiguity_flags == []
    assert sorted(res.splittings.values()) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    toric = get("toric_code").category
    assert find_equivalence(res.result, toric.deligne(toric)) is not None
    assert_least_relabelling(res)


# -- non-pointed stacking through the split solver ---------------------------


def z2_embedding(P, generator):
    return SymmetryEmbedding([2], P.name, {(0,): P.unit, (1,): generator})


@pytest.mark.parametrize("k", [4, 8, 12])
def test_su2_stacking_identity_over_z2(k):
    # SU(2)_k x_Z2 SU(2)_k with the boson k splits its fixed point (k/2, k/2)
    P = su2_level(k)
    emb = z2_embedding(P, str(k))
    assert verify_stacking_identity(P, P, emb, emb) is True


# the 89 ambiguity flags of the left-hand condensation below, as recorded
ISING_PAIR_LHS_FLAGS = "38842fe075b355b8c86198e1e3dcb4c06bba5aa32def05f834c918edea217838"


def test_ising_pair_unit_law_holds_and_self_stacking_is_inconclusive():
    ii = get("ising").category.deligne(get("ising_rev").category)
    emb = z2_embedding(ii, pair_label("psi", "psi"))
    assert emb.validate(ii) == []
    assert verify_unit_law(ii, emb) is True
    assert verify_stacking_identity(ii, ii, emb, emb) is None
    # the right-hand side is unambiguous; on the left, C' x_E C' for the
    # centralizer C' (five labels) keeps 9 fusion assignments that its
    # degenerate modular data does not tell apart
    rhs, _ = relative_tensor_product(ii, ii, emb, emb)
    assert rhs.ambiguity_flags == [] and rhs.result.ring.rank() == 22
    Cp = relative_centralizer(ii, emb)
    assert Cp.ring.rank() == 5
    embp = emb.restrict_to(Cp)
    lhs, _ = relative_tensor_product(Cp, Cp, embp, embp)
    flags = lhs.ambiguity_flags
    assert flags[0] == "9 fusion assignments survive all constraints"
    assert (len(flags), hashlib.sha256("\n".join(flags).encode()).hexdigest()) == \
        (89, ISING_PAIR_LHS_FLAGS)


# -- pointed stacking oracle ------------------------------------------------------

STACKING_ORACLE_SEED = 20261019
STACKING_ORACLE_GROUPS = [[2], [3], [4], [2, 2]]
STACKING_ORACLE_ROUNDS = 6


def direct_sum(A: MetricGroup, B: MetricGroup, name: str) -> MetricGroup:
    """(A + B, q_A + q_B), an element being the coordinates of A then of B."""
    q = {a + b: A.q[a] + B.q[b] for a in A.elements() for b in B.elements()}
    return MetricGroup(A.invariant_factors + B.invariant_factors, q, name=name)


def double_plus(G: list[int], M: MetricGroup, name: str):
    """D(G) + M, from the definition q(g, chi, m) = sum g_i chi_i / n_i + q_M(m),
    and its characters iota(chi) = (0, chi, 0)."""
    r = len(G)
    q = {a: sum((F(a[i] * a[r + i], n) for i, n in enumerate(G)), F(0))
         for a in abelian.iter_elements(G + G)}
    iota = {chi: (0,) * r + chi + M.zero() for chi in abelian.iter_elements(G)}
    return direct_sum(MetricGroup(G + G, q), M, name), iota


def automorphisms(G: list[int]) -> list[dict]:
    """Every automorphism of the group G, as a map of its elements."""
    elems = abelian.iter_elements(G)
    out = []
    for perm in permutations(elems[1:]):
        f = dict(zip(elems, (elems[0],) + perm))
        if all(f[abelian.add(G, a, b)] == abelian.add(G, f[a], f[b])
               for a in elems for b in elems):
            out.append(f)
    return out


def pointed_stacking_oracle(G, C, iota_C, D, iota_D):
    """C x_E D as (A + B, q_A + q_B) condensed by the anti-diagonal
    {(iota_C(-e), iota_D(e))}, with the induced embedding e -> [(iota_C(e), 0)]."""
    E = direct_sum(C, D, "oracle")
    gens = [iota_C[abelian.neg(G, e)] + iota_D[e] for e in abelian.iter_elements(G)]
    Q = E.condense(gens)
    # name each coset of H by its point of the presentation `condense` reads
    H = E.subgroup(gens)
    ns, xs = abelian.quotient_basis(E.invariant_factors, E.orthogonal_complement(H), H)
    coset = {}
    for t in abelian.iter_elements(ns):
        x = tuple(sum(c * g[j] for c, g in zip(t, xs)) % n
                  for j, n in enumerate(E.invariant_factors))
        coset.update((E.add(x, h), t) for h in H)
    mapping = {e: element_label(coset[iota_C[e] + D.zero()]) for e in iota_C}
    return Q.to_premodular(name="oracle"), SymmetryEmbedding(G, "oracle", mapping)


def test_pointed_stacking_matches_the_metric_group_oracle():
    """C = D(G) + M_C and D = D(G) + M_D, stacked over Rep(G), against the
    metric-group oracle, for G in Z2, Z3, Z4, Z2xZ2: the equivalence with both
    embeddings (D's twisted by an automorphism of G) and its independent check,
    the stacking identity, the unit law and conservation.  The products keep
    rank <= 256."""
    rng = random.Random(STACKING_ORACLE_SEED)
    trivial = MetricGroup([], {(): F(0)})
    ranks = []
    for G in STACKING_ORACLE_GROUPS * STACKING_ORACLE_ROUNDS:
        room = 256 // abelian.group_order(G) ** 4  # the most |M_C| * |M_D| may be
        M_C = random_metric_group(rng, room // 2) if room >= 4 else trivial
        rest = room // M_C.order()
        M_D = random_metric_group(rng, rest) if rest >= 2 else trivial
        C, iota_C = double_plus(G, M_C, "C")
        D, iota_D = double_plus(G, M_D, "D")
        alpha = rng.choice(automorphisms(G))  # D's characters, twisted
        iota_D = {e: iota_D[alpha[e]] for e in iota_D}
        P_C, P_D = C.to_premodular(name="C"), D.to_premodular(name="D")
        emb_C = SymmetryEmbedding(G, "C", {e: element_label(a) for e, a in iota_C.items()})
        emb_D = SymmetryEmbedding(G, "D", {e: element_label(a) for e, a in iota_D.items()})
        res, emb = relative_tensor_product(P_C, P_D, emb_C, emb_D)
        oracle, emb_oracle = pointed_stacking_oracle(G, C, iota_C, D, iota_D)
        case = (G, M_C.invariant_factors, M_C.q, M_D.invariant_factors, M_D.q, alpha)
        sigma = find_equivalence(res.result, oracle, emb, emb_oracle)
        assert sigma is not None, case
        assert check_bijection(res.result, oracle, sigma, emb, emb_oracle), case
        assert res.conservation["global_dim_conserved"], case
        assert res.conservation["gauss_conserved"], case
        assert verify_stacking_identity(P_C, P_D, emb_C, emb_D) is True, case
        assert verify_unit_law(P_C, emb_C) is True, case
        assert verify_unit_law(P_D, emb_D) is True, case
        ranks.append(P_C.ring.rank() * P_D.ring.rank())
    assert max(ranks) == 256 and min(ranks) < 256, ranks
