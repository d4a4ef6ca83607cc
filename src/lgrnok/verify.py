"""The verification suite: the table `CHECKS` and its one run loop, `run_checks`.

A check is a plain function (n, deadline) -> (ok, witness), the witness
reported only on failure.  Outside its entry's n-range a check is skipped,
with the entry's reason as its witness.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import combinations
from typing import NamedTuple

from . import equivalence, partitions, plabic, polytope, quiverfold, superpotential, valuation
from .budget import Deadline, TimeBudgetExceeded, polled
from .polytope import VPolytope


def roundtrip(n, deadline):
    for I in polled(combinations(range(1, 2 * n + 1), n), deadline):
        if partitions.partition_to_indexset(partitions._path_partition(I, n), n) != I:
            return False, f"round trip fails at {I}"
    return True, ""


def orientation_unique(n, deadline):
    plabic.corect_network(n)  # raises unless every edge is forced, hence unique
    return True, ""


def oracle(n, deadline):
    """The flow model replayed against the closed form at every class, and
    the class stream counted: (C(2n, n) + 2^n) / 2 transpose classes (2^n
    of the C(2n, n) index sets are their own transpose) taking Catalan(n+1)
    distinct values."""
    table = valuation.all_plucker_valuations(n, cross_check=True, deadline=deadline)
    classes = (math.comb(2 * n, n) + 2 ** n) // 2
    values, expected = len(set(table.values())), partitions.catalan(n + 1)
    return (len(table) == classes and values == expected,
            f"{len(table)} classes against {classes}, {values} values against {expected}")


def table_lgr36(n, deadline):
    table = valuation.all_plucker_valuations(n, deadline=deadline)
    rows = table.get((3, 2, 1)), table.get(())
    return (rows == ((0, 2, 0, 2, 1, 1), (2, 4, 1, 4, 2, 3)) and len(table) == 14,
            f"(3,2,1) -> {rows[0]}, () -> {rows[1]}, {len(table)} classes")


# The three flows to {1,4,5} at n=3, sorted; the first is the valuation of
# p_(3,1,1).  See the README's worked example.
FLOWS_145 = [(0, 2, 0, 2, 1, 2), (0, 2, 1, 2, 1, 2), (0, 2, 1, 2, 2, 2)]


def flow_polynomial_145(n, deadline):
    G, O = plabic.corect_network(n)
    flows = plabic.enumerate_flows(G, O, (1, 4, 5))
    vectors = sorted(valuation.orbit_vector(n, f.monomial(G)) for f in flows)
    minimal = tuple(min(c) for c in zip(*vectors))
    return (vectors == FLOWS_145
            and minimal == valuation.valuation_maxdiag(n, (3, 1, 1))), f"vectors {vectors}"


def term_count(n, deadline):
    terms = superpotential.build_superpotential(n, deadline)
    return len(terms) == n * (n + 1) // 2 + 2 ** (n - 1), f"{len(terms)} terms"


def gamma_routes(n, deadline):
    trop = set(superpotential.gamma_hrep(n, deadline).rows)
    chain = set(polled(superpotential.chain_polytope_rows(superpotential.build_poset(n)), deadline))
    return trop == chain, f"missing {sorted(chain - trop)}, extra {sorted(trop - chain)}"


def catalan(n, deadline):
    """The antichains of P_n are the lattice points of its chain polytope,
    counted down the covers of P_n, none of them listed."""
    count = superpotential.chain_polytope_points(superpotential.build_poset(n), 1, deadline)
    return count == superpotential.antichain_count_formula(n), f"{count}"


def extensions(n, deadline):
    got = superpotential.linear_extension_count(superpotential.build_poset(n), deadline)
    return got == partitions.staircase_syt_count(n), f"{got}"


def blocks(n, deadline):
    return equivalence.check_blocks(equivalence.build_valuation_matrix(n))


def unimodular(n, deadline):
    return equivalence.is_unimodular(equivalence.build_valuation_matrix(n))


def singletons(n, deadline):
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


def fold(n, deadline):
    F = quiverfold.folded_matrix(n)  # raises if ill-defined
    return F.entries == PRINTED_FOLD.get(n, F.entries), str(F.entries)


def gamma_vertices(n, deadline):
    return equivalence.gamma_vertices_match_hrep(n, deadline)


def lattice_points(n, deadline):
    """The lattice points of k Gamma for k = 1, 2, 3 against dim V(k omega_n)
    of Sp(2n).  Delta = M_n(Gamma) is the Newton-Okounkov body of LGr(n, 2n)
    in its Pluecker embedding, whose degree-k sections span V(k omega_n)
    (Kaveh-Khovanskii), and M_n is unimodular; the check counts, it does not
    assume the match.  At k = 1 the points are the antichain indicators,
    Catalan(n+1) of them."""
    P, rho = superpotential.build_poset(n), tuple(range(n, 0, -1))
    got = [superpotential.chain_polytope_points(P, k, deadline) for k in (1, 2, 3)]
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


def delta_printed(n, deadline):
    V = VPolytope.from_points(valuation.delta_vertices(n, deadline))
    rows = polytope.facets(V, deadline).row_set()
    return rows == PRINTED_DELTA3, (f"missing {sorted(PRINTED_DELTA3 - rows)}, "
                                    f"extra {sorted(rows - PRINTED_DELTA3)}")


def f_vector(n, deadline):
    delta = VPolytope.from_points(valuation.delta_vertices(n, deadline))
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n, deadline))
    fv_delta, fv_gamma = polytope.f_vector(delta, deadline), polytope.f_vector(gamma, deadline)
    return fv_delta == fv_gamma == (14, 51, 86, 78, 39, 10), f"{fv_delta} / {fv_gamma}"


class Check(NamedTuple):
    name: str
    level: str  # "vertex" or "hull"
    run: Callable[[int, Deadline], tuple[bool, str]]
    n_min: int = 1
    n_max: float = math.inf
    skip: str = ""  # the witness of a check skipped for n outside [n_min, n_max]


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
          lambda n, deadline: equivalence.verify_main_theorem(n, deadline)),
    Check("folded-exchange-matrix", "vertex", fold),
    Check("gamma-vertex-enumeration", "hull", gamma_vertices,
          n_max=6, skip="vertex enumeration gated to n <= 6"),
    # (k+1)^n states on the last level: 0.6 s at n=8, 2.8 s at n=9.
    Check("lattice-points-vs-weyl-dimension", "hull", lattice_points,
          n_max=8, skip="lattice count gated to n <= 8"),
    Check("delta-facets-match-printed", "hull", delta_printed,
          n_min=3, n_max=3, skip="printed system is for n=3"),
    Check("f-vector", "hull", f_vector,
          n_min=3, n_max=3, skip="reference f-vector is for n=3"),
    Check("main-theorem-hull-level", "hull",
          lambda n, deadline: equivalence.verify_hull_level(n, deadline),
          n_max=6, skip="hull level gated to n <= 6"),
)


def run_checks(n: int, level: str, deadline: Deadline) -> list[dict]:
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
            ok, witness = check.run(n, deadline)
            deadline.check()
        except TimeBudgetExceeded as exc:
            raise TimeBudgetExceeded(f"{check.name}: {exc}") from exc
        except Exception as exc:  # a raising check is a failing check
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": check.name, "status": "pass" if ok else "fail",
                        "witness": "" if ok else witness})
    return results
