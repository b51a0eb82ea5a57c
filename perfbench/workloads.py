"""The four benchmark workloads: their inputs, built in set-up, and their ops.

Each workload is a function from the imported setcat modules (`lib`, see
`run.load_setcat`) and a seed to a fixed job list of `Op`s.  An op calls setcat's public
functions and then checks the answer against an independent reference; it
raises `WrongAnswer` when the answer differs and `Inconclusive` when setcat
returns no verdict.  Any other exception is an engine failure (a raised limit
such as the 200k-node split budget, or a crash); the runner records it and
carries on.

Data: `oracle` and `arith` use the acceptance suite's own random streams
(seeds 20260808 and 1729), drawn by setcat's own generators in the order the
acceptance suite consumes them, so the ops are byte-for-byte the acceptance
data.  `stack` and `split` have fixed inputs.  `--seed` fixes the order in
which a pass runs the job list.  It does not change the data, because op cost
is heavy-tailed (a few oracle and arith ops carry most of a pass), so a job
list redrawn per seed would make `wall_s` move by more than any bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from su2 import su2_level

# Job-list lengths keep an oracle or arith pass near 5 s, so that a 24-s run
# times several passes.  Oracle trial 16 is the first rank-64 trial with
# H = 0 (the heavy class: 16 of the 200 trials, three quarters of their
# time); arith trial 1 is the first whose products reach conductor 5681.
ORACLE_SEED = 20260808
ORACLE_MAX_ORDER = 64
ORACLE_TRIALS = 17
ARITH_SEED = 1729
ARITH_TRIALS = 64

UNIT_LAW_INSTANCES = [
    ("toric_code", "e"), ("toric_code", "m"), ("double_2", "canonical"),
    ("double_3", "canonical"), ("double_4", "canonical"), ("rep_z2", "identity"),
    ("rep_z4", "identity"), ("double_semion", "boson"),
]
STACKING_SET = [
    ("toric_code", "e"), ("toric_code", "m"), ("double_2", "canonical"),
    ("double_semion", "boson"),
]


class WrongAnswer(Exception):
    """setcat answered, and the answer differs from the reference."""


class Inconclusive(Exception):
    """setcat returned no verdict (an ambiguous condensation)."""


@dataclass
class Op:
    label: str
    run: Callable[[], None]


def _check_conservation(res) -> None:
    if not (res.conservation["global_dim_conserved"]
            and res.conservation["gauss_conserved"]):
        raise WrongAnswer("global dimension or Gauss sum is not conserved")


def shuffled(ops: list[Op], seed: int) -> list[Op]:
    """The job list in the order a pass runs it; the seed fixes the order."""
    out = list(ops)
    random.Random(seed).shuffle(out)
    return out


# -- oracle ------------------------------------------------------------------


def draw_oracle_inputs(lib, count: int) -> list:
    """(M, H) pairs exactly as `pointed_oracle_trial` draws them."""
    rng = random.Random(ORACLE_SEED)
    return [lib.randomized.random_conserving_pair(rng, ORACLE_MAX_ORDER)
            for _ in range(count)]


def _oracle_op(lib, M, H) -> Callable[[], None]:
    def run():
        oracle = M.condense([g for g in H if g != M.zero()])
        P = M.to_premodular(check_smatrix=False)
        res = lib.relprod.condense_by_invertible_bosons(
            P, [lib.pointed.element_label(h) for h in H])
        sigma = lib.equiv.find_equivalence(
            res.result, oracle.to_premodular(check_smatrix=False))
        if sigma is None:
            raise WrongAnswer("engine result is not equivalent to the oracle H_perp/H")
        _check_conservation(res)
        if M.is_perfect_pairing() and not res.result.is_nondegenerate():
            raise WrongAnswer("perfect-pairing input gave a degenerate result")
    return run


def oracle_ops(lib, seed: int) -> list[Op]:
    ops = [Op(f"oracle#{i} {M.invariant_factors} |H|={len(H)}", _oracle_op(lib, M, H))
           for i, (M, H) in enumerate(draw_oracle_inputs(lib, ORACLE_TRIALS))]
    return shuffled(ops, seed)


# -- arith -------------------------------------------------------------------


def draw_arith_inputs(lib, count: int) -> list[tuple]:
    """(a, b, c, q, p) exactly as `run_arithmetic_trials` draws them."""
    rng = random.Random(ARITH_SEED)
    out = []
    for _ in range(count):
        a = lib.randomized.random_cyclo(rng)
        b = lib.randomized.random_cyclo(rng)
        c = lib.randomized.random_cyclo(rng)
        q = rng.randint(1, 24)
        p = rng.randrange(q)
        out.append((a, b, c, q, p))
    return out


def _arith_op(lib, a, b, c, q, p) -> Callable[[], None]:
    one = lib.cyclo.Cyclo.one()

    def run():
        # the identities and float cross-checks of run_arithmetic_trials
        checks = [
            (a + b) - b == a,
            a + b == b + a,
            a * b == b * a,
            (a + b) * c == a * c + b * c,
            (a * b) * c == a * (b * c),
            (a + b).conjugate() == a.conjugate() + b.conjugate(),
            (a * b).conjugate() == a.conjugate() * b.conjugate(),
            a.conjugate().conjugate() == a,
        ]
        if not a.is_zero():
            checks.append(a * a.inverse() == one)
        r = lib.cyclo.root_of_unity(Fraction(p, q))
        checks.append(r ** q == one)
        checks.append(r.conjugate() * r == one)
        checks.append(abs((a * b).approx() - a.approx() * b.approx()) < 1e-9)
        checks.append(abs((a + b).approx() - (a.approx() + b.approx())) < 1e-9)
        checks.append(abs(abs(r.approx()) - 1.0) < 1e-12)
        bad = [i for i, ok in enumerate(checks) if not ok]
        if bad:
            raise WrongAnswer(f"identity checks {bad} fail")
    return run


def arith_ops(lib, seed: int) -> list[Op]:
    ops = []
    for i, (a, b, c, q, p) in enumerate(draw_arith_inputs(lib, ARITH_TRIALS)):
        n = max(a.order, b.order, c.order)
        ops.append(Op(f"arith#{i} max order {n}", _arith_op(lib, a, b, c, q, p)))
    return shuffled(ops, seed)


# -- stack -------------------------------------------------------------------


def _verdict(value) -> None:
    if value is None:
        raise Inconclusive("a condensation was ambiguous")
    if value is not True:
        raise WrongAnswer("identity does not hold")


def stack_ops(lib, seed: int) -> list[Op]:
    get = lib.catalog.get
    ops = []
    for name, key in UNIT_LAW_INSTANCES:
        entry = get(name)
        ops.append(Op(f"unit_law {name}/{key}",
                      lambda C=entry.category, emb=entry.embeddings[key]:
                      _verdict(lib.relprod.verify_unit_law(C, emb))))
    for n1, k1 in STACKING_SET:
        for n2, k2 in STACKING_SET:
            e1, e2 = get(n1), get(n2)
            ops.append(Op(f"stacking {n1}/{k1} x {n2}/{k2}",
                          lambda C=e1.category, D=e2.category,
                          eC=e1.embeddings[k1], eD=e2.embeddings[k2]:
                          _verdict(lib.relprod.verify_stacking_identity(C, D, eC, eD))))
    return shuffled(ops, seed)


# -- split -------------------------------------------------------------------


def _metric_premodular(lib, n: int, den: int, name: str):
    q = {(x,): Fraction(x * x, den) for x in range(n)}
    return lib.pointed.MetricGroup([n], q, name=name).to_premodular()


def split_inputs(lib) -> list[tuple]:
    """(label, category, bosons, reference or None) for the 8 condensations."""
    pl = lib.fusion.pair_label
    get = lib.catalog.get
    ising, ising_rev = get("ising").category, get("ising_rev").category
    fib, toric = get("fibonacci").category, get("toric_code").category
    su2 = {}
    for k in (4, 8, 12, 16):
        su2[k] = su2_level(lib.setcat, k)
        report = su2[k].validate()
        if report:
            raise RuntimeError(f"SU(2)_{k} builder gives invalid data: {report[0]}")
    ii = ising.deligne(ising_rev)
    z2 = [pl("1", "1"), pl("psi", "psi")]
    one, psi = z2
    rev_fib = fib.reverse()
    return [
        ("ising x ising_rev / Z2", ii, z2, toric),
        ("ising x ising / Z2", ising.deligne(ising), z2,
         _metric_premodular(lib, 4, 8, "z4_x2/8")),
        ("su2_4 / {0,4}", su2[4], ["0", "4"], _metric_premodular(lib, 3, 3, "z3_x2/3")),
        ("su2_8 / {0,8}", su2[8], ["0", "8"], rev_fib.deligne(rev_fib)),
        ("su2_12 / {0,12}", su2[12], ["0", "12"], None),
        ("su2_16 / {0,16}", su2[16], ["0", "16"], None),
        ("ising x ising_rev x fib / Z2", ii.deligne(fib),
         [pl(one, "1"), pl(psi, "1")], toric.deligne(fib)),
        ("(ising x ising_rev)^2 / Z2xZ2", ii.deligne(ii),
         [pl(one, one), pl(psi, one), pl(one, psi), pl(psi, psi)],
         toric.deligne(toric)),
    ]


def _split_op(lib, P, bosons, ref) -> Callable[[], None]:
    def run():
        res = lib.relprod.condense_by_invertible_bosons(P, bosons)
        if res.ambiguity_flags:
            raise Inconclusive(res.ambiguity_flags[0])
        _check_conservation(res)
        if ref is not None:
            if lib.equiv.find_equivalence(res.result, ref) is None:
                raise WrongAnswer(f"result is not equivalent to {ref.name}")
        elif not res.result.is_nondegenerate():
            raise WrongAnswer("nondegenerate input gave a degenerate result")
    return run


def split_ops(lib, seed: int) -> list[Op]:
    ops = [Op(f"split {label}", _split_op(lib, P, bosons, ref))
           for label, P, bosons, ref in split_inputs(lib)]
    return shuffled(ops, seed)


WORKLOADS = {"oracle": oracle_ops, "arith": arith_ops, "stack": stack_ops,
             "split": split_ops}
