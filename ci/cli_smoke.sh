#!/usr/bin/env bash
# Smoke run of the installed `setcat` console script. Run it from an empty
# directory: it exports the fixtures there and writes its products beside them.
# It exports fixtures, writes Rep(Z4) (JSON report) and D(Z2 x Z4) (text
# report) to a directory, decides nondegeneracy both ways and on the rank-81
# (ising x ising_rev)^2, verifies the nondegeneracy of a stacking, prints two Mueger
# centers and the centralizer of an embedding's image, conserves the global
# dim of a condensation by transparent bosons, finds an equivalence, finds
# none between Rep(Z2^6) and Rep(Z4 x Z2^4), whose 64 and 32 self-dual labels
# give pools of other sizes, splits a fixed point, splits (ising x ising_rev)^2 by Z2xZ2 (a
# 4-child orbit and four 2-child orbits), splits ising x ising_rev x D(Z3) by Z2 (nine
# 2-child orbits, four pairs of them mutually dual), refuses a split orbit
# whose stabilizer carries a 2-cocycle, an out-of-range --max-order, a flag
# its verify kind does not read and an option given twice, checks a unit law,
# checks a Z4 stacking identity and stacks two toric codes.
set -eu

# exits 2 with no traceback, and its stderr holds the given text
refused() {
    local text=$1 status=0
    shift
    "$@" 2> refused.txt || status=$?
    cat refused.txt
    test "$status" -eq 2
    grep -q -- "$text" refused.txt
    if grep -q Traceback refused.txt; then exit 1; fi
}

setcat catalog --export fixtures
setcat rep --group 4 --out-dir out --format json > rep.json
python -c 'import json, os; w = json.load(open("rep.json"))["written"]
assert len(w) == 2 and all(map(os.path.isfile, w)), w'
test "$(setcat double --group 2,4 --out-dir out | wc -l)" -eq 2
setcat info fixtures/ising.json | grep -x "nondegenerate: True"
setcat info fixtures/rep_z2.json | grep -x "nondegenerate: False"
setcat center fixtures/rep_z2.json | grep -x "Mueger center of rep_z2: 1, e"
setcat center fixtures/ising.json | grep -x "Mueger center of ising: 1"
setcat centralizer fixtures/toric_code.json --emb fixtures/toric_code.emb_e.json \
    | grep -x "centralizer of {1, e} in toric_code: 1, e"
setcat condense fixtures/rep_z2.json --bosons 1,e | grep -x "global dim: 2 -> 1 (conserved: True)"
setcat equiv fixtures/toric_code.json fixtures/double_2.json
setcat rep --group 2,2,2,2,2,2 --out-dir groups > /dev/null
setcat rep --group 4,2,2,2,2 --out-dir groups > /dev/null
status=0
setcat equiv groups/rep_2x2x2x2x2x2.json groups/rep_4x2x2x2x2.json > equiv.txt || status=$?
test "$status" -eq 1
test "$(cat equiv.txt)" = none
setcat product fixtures/ising.json fixtures/ising_rev.json --out ii.json
setcat condense ii.json --bosons "(1,1),(psi,psi)" | tee condense.txt
grep -q "splits into 2" condense.txt
setcat product ii.json ii.json --out iiii.json
setcat info iiii.json | grep -x "nondegenerate: True"
setcat condense iiii.json --bosons "((1,1),(1,1)),((psi,psi),(1,1)),((1,1),(psi,psi)),((psi,psi),(psi,psi))" | grep -q "splits into 4"
setcat product ii.json fixtures/double_3.json --out ii3.json
test "$(setcat condense ii3.json --bosons "((1,1),(0,0)),((psi,psi),(0,0))" | grep -c "splits into 2")" -eq 9
setcat product ii.json fixtures/ising.json --out iii.json
refused "nontrivial 2-cocycle" \
    setcat condense iii.json --bosons "((1,1),1),((1,psi),psi),((psi,1),psi),((psi,psi),1)"
refused "must be at least 2" setcat verify pointed-oracle --max-order 1
refused "unrecognized arguments: --count 5" \
    setcat verify unit-law fixtures/double_4.json --emb fixtures/double_4.emb_canonical.json --count 5
refused "argument --bosons: may be given only once" \
    setcat condense fixtures/toric_code.json --bosons 1,m --bosons 1,e
setcat verify unit-law fixtures/double_4.json --emb fixtures/double_4.emb_canonical.json
setcat verify stacking fixtures/double_4.json fixtures/rep_z4.json \
    --emb fixtures/double_4.emb_canonical.json --emb fixtures/rep_z4.emb_identity.json \
    | grep -x "verdict: True"
setcat verify nondegeneracy fixtures/toric_code.json fixtures/toric_code.json \
    --emb fixtures/toric_code.emb_e.json --emb fixtures/toric_code.emb_e.json \
    | grep -x "verdict: True"
setcat relprod fixtures/toric_code.json fixtures/toric_code.json \
    --emb fixtures/toric_code.emb_e.json --emb fixtures/toric_code.emb_e.json > relprod.txt
grep -q "^confined (8): " relprod.txt
