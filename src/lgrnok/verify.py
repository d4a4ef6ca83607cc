"""The verification suite: the table `CHECKS` and its one run loop, `run_checks`.

A check is a plain function n -> (ok, witness), the witness reported only
on failure, that polls the run's armed deadline.  Outside its entry's
n-range a check is skipped, with the entry's reason as its witness.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations, combinations_with_replacement, islice, repeat
from operator import ne

from . import equivalence, partitions, plabic, polytope, quiverfold, superpotential, valuation
from .budget import POLL_EVERY, TimeBudgetExceeded, armed, polled
from .polytope import VPolytope


def roundtrip(n):
    """The two path maps against both sides of the dictionary, listed in C
    and walked in lockstep: the n-subsets I of [2n] in lexicographic order,
    and the partitions in the n x n box as the weakly decreasing n-tuples
    over n, ..., 0 that `combinations_with_replacement` lists, zeros
    stripped.  The k-th items pair up: I -> (I_r - r) over the 1-based rows
    r is a bijection onto the weakly increasing n-tuples over 0..n that
    keeps the lexicographic order, and combinations_with_replacement lists
    the box tuples by their positions n - lam_r in the pool, which are
    those same tuples in that same order; lam_r = n - (I_r - r) is the path
    map.  So each pair asks that `_path_partition` send I to lam and
    `_partition_path` send lam back to I, a bijection both ways, not only
    an inverse of whatever the forward map returns.  The pairs are compared
    a chunk of POLL_EVERY at a time, the deadline polled once per chunk;
    the first failing I of a chunk is the witness."""
    forward, inverse = partitions._path_partition, partitions._partition_path
    sets = combinations(range(1, 2 * n + 1), n)
    boxes = map(tuple, map(filter, repeat(None),
                           combinations_with_replacement(range(n, -1, -1), n)))
    while chunk := list(islice(sets, POLL_EVERY)):
        armed().check()
        lams = list(islice(boxes, len(chunk)))
        if (any(map(ne, map(forward, chunk, repeat(n)), lams))
                or any(map(ne, map(inverse, lams, repeat(n)), chunk))):
            I = next(I for I, lam in zip(chunk, lams) if forward(I, n) != lam or inverse(lam, n) != I)
            return False, f"round trip fails at {I}"
    return True, ""


def orientation_unique(n):
    plabic.corect_network(n)  # raises unless every edge is forced, hence unique
    return True, ""


def oracle(n):
    """The flow model replayed against the closed form at every class, and
    the class stream counted: (C(2n, n) + 2^n) / 2 transpose classes (2^n
    of the C(2n, n) index sets are their own transpose) taking Catalan(n+1)
    distinct values."""
    table = valuation.all_plucker_valuations(n, cross_check=True)
    classes = (math.comb(2 * n, n) + 2 ** n) // 2
    values, expected = len(set(table.values())), partitions.catalan(n + 1)
    return (len(table) == classes and values == expected,
            f"{len(table)} classes against {classes}, {values} values against {expected}")


def table_lgr36(n):
    table = valuation.all_plucker_valuations(n)
    rows = table.get((3, 2, 1)), table.get(())
    return (rows == ((0, 2, 0, 2, 1, 1), (2, 4, 1, 4, 2, 3)) and len(table) == 14,
            f"(3,2,1) -> {rows[0]}, () -> {rows[1]}, {len(table)} classes")


# The three flows to {1,4,5} at n=3, sorted; the first is the valuation of
# p_(3,1,1).  See the README's worked example.
FLOWS_145 = [(0, 2, 0, 2, 1, 2), (0, 2, 1, 2, 1, 2), (0, 2, 1, 2, 2, 2)]


def flow_polynomial_145(n):
    G, O = plabic.corect_network(n)
    flows = plabic.enumerate_flows(G, O, (1, 4, 5))
    vectors = sorted(valuation.orbit_vector(n, f.monomial(G)) for f in flows)
    minimal = tuple(min(c) for c in zip(*vectors))
    return (vectors == FLOWS_145
            and minimal == valuation.valuation_maxdiag(n, (3, 1, 1))), f"vectors {vectors}"


def term_count(n):
    terms = superpotential.build_superpotential(n)
    return len(terms) == n * (n + 1) // 2 + 2 ** (n - 1), f"{len(terms)} terms"


def gamma_routes(n):
    trop = set(superpotential.gamma_hrep(n).rows)
    chain = set(polled(superpotential.chain_polytope_rows(superpotential.build_poset(n))))
    return trop == chain, f"missing {sorted(chain - trop)}, extra {sorted(trop - chain)}"


def catalan(n):
    """The antichains of P_n are the lattice points of its chain polytope,
    counted down the covers of P_n, none of them listed."""
    count = superpotential.chain_polytope_points(superpotential.build_poset(n), 1)
    return count == partitions.catalan(n + 1), f"{count}"


def extensions(n):
    got = superpotential.linear_extension_count(superpotential.build_poset(n))
    return got == partitions.staircase_syt_count(n), f"{got}"


def blocks(n):
    return equivalence.check_blocks(equivalence.build_valuation_matrix(n))


def unimodular(n):
    return equivalence.is_unimodular(equivalence.build_valuation_matrix(n))


def singletons(n):
    return equivalence.verify_singleton_images(n)


# The folded exchange matrices printed in the paper, by n.
PRINTED_FOLD = {
    4: (
        (0, 1, 0, -1, 0, 0), (-1, 0, 1, 1, 0, -1), (0, -1, 0, 0, 0, 1),
        (2, -2, 0, 0, -1, 1), (0, 0, 0, 1, 0, -1), (0, 2, -2, -1, 1, 0),
        (-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, -1, 1),
        (0, 0, 2, 0, 0, -1), (0, 0, -1, 0, 0, 0),
    ),
}


def fold(n):
    F = quiverfold.folded_matrix(n)  # raises if ill-defined
    return F.entries == PRINTED_FOLD.get(n, F.entries), str(F.entries)


def lattice_points(n):
    """The lattice points of k Gamma for k = 1, 2, 3 against dim V(k omega_n)
    of Sp(2n).  Delta = M_n(Gamma) is the Newton-Okounkov body of LGr(n, 2n)
    in its Pluecker embedding, whose degree-k sections span V(k omega_n)
    (Kaveh-Khovanskii), and M_n is unimodular; the check counts, it does not
    assume the match.  At k = 1 the points are the antichain indicators,
    Catalan(n+1) of them."""
    P, rho = superpotential.build_poset(n), tuple(range(n, 0, -1))
    got = [superpotential.chain_polytope_points(P, k) for k in (1, 2, 3)]
    expected = [partitions.symplectic_dimension(k, rho) for k in (1, 2, 3)]
    return (got == expected and got[0] == partitions.catalan(n + 1),
            f"{got} points against dimensions {expected}")


# The facet system of Delta printed in the paper for n=3, as (coefficients, constant).
PRINTED_DELTA3 = frozenset({
    ((0, -1, 0, 1, 0, 0), 0), ((-1, 1, 2, -1, 0, 0), 0), ((1, 0, -1, 0, 0, 0), 0),
    ((0, 0, 0, -1, 2, 0), 0), ((0, 0, -1, 1, -1, 0), 0), ((0, 0, 0, 0, -1, 1), 0),
    ((0, 0, -1, 0, 0, 0), 1), ((1, 0, -1, -1, 1, 0), 1), ((0, 1, 1, -1, -1, 0), 1),
    ((0, 1, 0, 0, -1, -1), 1),
})


def delta_printed(n):
    V = VPolytope.from_points(valuation.delta_vertices(n))
    rows = polytope.facets(V).row_set()
    return rows == PRINTED_DELTA3, (f"missing {sorted(PRINTED_DELTA3 - rows)}, "
                                    f"extra {sorted(rows - PRINTED_DELTA3)}")


def f_vector(n):
    delta = VPolytope.from_points(valuation.delta_vertices(n))
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n))
    fv_delta, fv_gamma = polytope.f_vector(delta), polytope.f_vector(gamma)
    return fv_delta == fv_gamma == (14, 51, 86, 78, 39, 10), f"{fv_delta} / {fv_gamma}"


class Check(namedtuple("Check", "name level run n_min n_max skip", defaults=(1, math.inf, ""))):
    """A check at level "vertex" or "hull"; run(n) gives (passed, witness),
    and skip is the witness of a check skipped for n outside [n_min, n_max]."""

    __slots__ = ()


CHECKS = (
    Check("partition-bijection-roundtrip", "vertex", roundtrip),
    Check("perfect-orientation-unique", "vertex", orientation_unique),
    Check("valuation-oracle-equivalence", "vertex", oracle,
          n_max=6, skip="flow model gated to n <= 6"),
    Check("valuation-table-lgr36", "vertex", table_lgr36,
          n_min=3, n_max=3, skip="reference table is for n=3"),
    Check("flow-polynomial-145", "vertex", flow_polynomial_145,
          n_min=3, n_max=3, skip="worked example is for n=3"),
    Check("superpotential-term-count", "vertex", term_count),
    Check("gamma-tropicalization-vs-chain-polytope", "vertex", gamma_routes),
    Check("antichain-count-catalan", "vertex", catalan),
    Check("linear-extensions-equal-syt", "vertex", extensions),
    Check("matrix-block-lemmas", "vertex", blocks, n_min=2, skip="blocks need n >= 2"),
    Check("matrix-unimodular", "vertex", unimodular),
    Check("singleton-antichain-images", "vertex", singletons),
    # Looked up when called, so that a wrapper set on the module later (the
    # benchmark's traced run) still sees each call of the main theorem.
    Check("main-theorem-vertex-level", "vertex",
          lambda n: equivalence.verify_main_theorem(n)),
    Check("folded-exchange-matrix", "vertex", fold),
    # The indicators' hull by double description, a second route to the hull
    # level's rows (name and skip text as before).  In-process: 0.12 s at n=6, 2.8 s at n=7.
    Check("gamma-vertex-enumeration", "hull", lambda n: equivalence.gamma_facets_match_hrep(n),
          n_max=7, skip="vertex enumeration gated to n <= 7"),
    # (k+1)^n states on the last level: 0.6 s at n=8, 2.8 s at n=9.
    Check("lattice-points-vs-weyl-dimension", "hull", lattice_points,
          n_max=8, skip="lattice count gated to n <= 8"),
    Check("delta-facets-match-printed", "hull", delta_printed,
          n_min=3, n_max=3, skip="printed system is for n=3"),
    Check("f-vector", "hull", f_vector,
          n_min=3, n_max=3, skip="reference f-vector is for n=3"),
    # In-process, most of it Gamma's volume: 0.5 s at n=6, 20 s at n=7
    # (78 MB peak).
    Check("main-theorem-hull-level", "hull",
          lambda n: equivalence.verify_hull_level(n),
          n_max=7, skip="hull level gated to n <= 7"),
)


def run_checks(n: int, level: str) -> list[dict]:
    """Runs the checks of `level` ("vertex", "hull" or "all") at n, in table
    order, and returns one {"name", "status", "witness"} per check, status
    "pass", "fail" or "skip".

    A check that raises fails.  The deadline is polled by the engine inside
    a check and again when each check returns; when it has expired, the run
    stops with TimeBudgetExceeded naming the check that used up the budget.
    """
    results = []
    for check in CHECKS:
        if level not in ("all", check.level):
            continue
        if not check.n_min <= n <= check.n_max:
            results.append({"name": check.name, "status": "skip", "witness": check.skip})
            continue
        try:
            ok, witness = check.run(n)
            armed().check()
        except TimeBudgetExceeded as exc:
            raise TimeBudgetExceeded(f"{check.name}: {exc}") from exc
        except Exception as exc:  # a raising check is a failing check
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": check.name, "status": "pass" if ok else "fail",
                        "witness": "" if ok else witness})
    return results
