"""Golden digests of canonical cycle and forest forms.

Each digest is the sha256 of the JSON that ``serialize`` writes for one
family of outputs (its sums come sorted, and each coordinate lists its
symbols in the stored order).  Any change to the canonical form,
the parameter numbering, the coordinate order or a sign changes a
digest, so a rewrite of the canonicalization kernel or of the forest
differential must leave these untouched.
"""

import hashlib
import json
import random

from forest_cycles import (OutOfClassError, boundary, checks, d, is_admissible,
                           normalize, phi, standard_spec, tau)
from forest_cycles.cycle_algebra import INF, face_outcome
from forest_cycles.forest_algebra import d_contributions, forest_sum
from forest_cycles.serialize import (cycle_sum_to_json, cycle_term_to_json,
                                     forest_sum_to_json, forest_term_to_json)
from helpers import (ct, fixture_terms, forest, hybrid_image, lf, nd, om, random_coords,
                     tr)

EXPECTED = {
    "phi_tau":
        "fe78b263b8af954eeb8cf41247da39dc1cc593cc64898e28100af0108b971b37",
    "boundary_phi_tau":
        "d701b873fb3230e59c15868100866301f6be95e3e6579c2cd0357b6c0879efa6",
    "phi_d_tau":
        "9373213f39486f6f1a34f7c1df0ecb76ad7282b44f3da585806b0e7f1e00bc13",
    "phi_random_forests":
        "30b480aadad92e21a19f54d51e6ee8f756d90cf7fcbd228aba6f788c7a66a87a",
    "normalize_fixtures":
        "97fe2155d13aba2c90979c9e7075ea070dfbfaa86b098a0c13371aec90d955a8",
    "admissibility_reports":
        "595695eba50ee5d7a0dfbbede81dab3363b4dfe75fd0d153993298d8b7947c2d",
    "boundary_phi_random_forests":
        "6cb8f2c30fcd4fc7c584fa2c4511f88191465f8f77287bc3f81a4d20518d71ac",
    "d_random_forests":
        "e089259547579cbb4904d2777cb49404014c3fc61c089b762c77957ded556c4c",
    "d_tau":
        "a3714dca9db6181cb7455ed3d082313741d6dbd6a94dbcbaf0d69b5d26681499",
    "d_contributions_raw":
        "9f6a16228a0929f90e6363efc2aaced7e5d2570865a5a076db7e05e9dc5b9238",
    "face_outcomes":
        "8881c37aa794d918e72d417f1d036381f9355d40c89a09a6606aabd205e5f779",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _boundary_or_error(S):
    # repeated leaf names can pin a face coordinate at a constant, which
    # the boundary reports as a class error
    try:
        return cycle_sum_to_json(boundary(S))
    except OutOfClassError as exc:
        return {"error": str(exc)}


def _face_outcomes(seeds) -> list:
    """Every face of seeded phi images, hybrid images and random terms
    with bare coordinates, and every face of their faces: the surviving
    terms and signs with the flags, or the error."""
    records = []

    def faces(t, deeper):
        for i in range(1, t.n + 1):
            for eps in (0, INF):
                try:
                    out = face_outcome(t, i, eps)
                except OutOfClassError as exc:
                    records.append({"error": type(exc).__name__, "message": str(exc)})
                    continue
                records.append([[[cycle_term_to_json(sub), sign]
                                 for sub, sign in out.contributions], list(out.flags)])
                if deeper:
                    for sub, _ in out.contributions:
                        faces(sub, False)

    for seed in seeds:
        rng = random.Random(seed)
        terms = [t for t, _ in phi(forest_sum([(checks.random_forest(rng), 1)]))]
        terms += [t for t, _ in hybrid_image(rng)]
        # bare and 1 - q coordinates over parameters, a constant and two
        # topological variables
        terms.append(ct(*random_coords(rng, ("u1", "u2", "u3", "a", "s1", "s2"), 4, 0.6)))
        for t in terms:
            faces(t, True)
    return records


def golden_outputs() -> dict:
    phis = {m: phi(tau(standard_spec(m))) for m in range(2, 6)}
    rng = random.Random(0)
    forests = [checks.random_forest(rng) for _ in range(8)]
    rng = random.Random(1)
    d_forests = ([checks.random_forest(rng) for _ in range(40)]
                 + [checks.random_forest(rng, 14) for _ in range(40)])
    # an unsorted three-tree forest with repeated names and sign -1; its
    # leaf edges include odd block swaps
    multi = forest(tr("x1", nd(nd(lf("x2"), lf("x3"), lf("x1")), lf("x4"))),
                   tr("1", nd(lf("x1"), nd(lf("x2"), nd(lf("x3"), lf("x2"))))),
                   tr("x2", lf("x5")), sign=-1)
    # every term of phi(tau) in the order of its printed form, then a
    # term whose zero-face pins a coordinate at a constant
    violation, _ = normalize([om(u1=1, a=1), om(u1=-1, a=-1)])
    walked = [t for m in range(2, 6) for t in sorted(phis[m].terms(), key=str)]
    reports = [is_admissible(t) for t in walked + [violation]]
    normalized = []
    for t in fixture_terms():
        res = normalize(t.coords)
        normalized.append(None if res is None
                          else [cycle_term_to_json(res[0]), res[1]])
    return {
        "phi_tau": [cycle_sum_to_json(phis[m]) for m in range(2, 6)],
        "boundary_phi_tau": [cycle_sum_to_json(boundary(phis[m]))
                             for m in range(2, 5)],
        "phi_d_tau": cycle_sum_to_json(phi(d(tau(standard_spec(4))))),
        "phi_random_forests": [cycle_sum_to_json(phi(forest_sum([(F, 1)])))
                               for F in forests],
        "normalize_fixtures": normalized,
        "admissibility_reports": [[r.admissible, r.certificate, r.faces_checked]
                                  for r in reports],
        "boundary_phi_random_forests": [_boundary_or_error(phi(forest_sum([(F, 1)])))
                                        for F in forests + d_forests],
        "d_random_forests": [forest_sum_to_json(d(forest_sum([(F, 1)])))
                             for F in d_forests],
        "d_tau": [forest_sum_to_json(d(tau(standard_spec(m)))) for m in range(2, 7)],
        "d_contributions_raw": [
            [i, list(p), None if res is None else forest_term_to_json(res), str(c)]
            for i, p, res, c in d_contributions(multi)],
        "face_outcomes": _face_outcomes(range(60)),
    }


def test_canonical_forms_match_golden_digests():
    got = {name: _digest(out) for name, out in golden_outputs().items()}
    assert got == EXPECTED
