"""Catalog of the closed-form sparing-number claims and the checker.

Each claim pairs a family template with the closed-form value it predicts.
`check_claim` builds the instance, asks the exact solver for the true value,
and returns the report row with its MATCH or MISMATCH; predicted values come
only from the formulas here, exact values only from the solver, and a
MISMATCH is a finding about the claim, not a failure of the checker. Claims
whose stated value is contested are encoded exactly as stated so the solver
can adjudicate them.
"""

from __future__ import annotations

import time
from dataclasses import KW_ONLY, dataclass
from functools import partial
from typing import Callable, Mapping

from .errors import DomainError, MissingGraph, TooLarge
from .families import (
    FAMILY_PARAMS, FamilySpec, LabeledGraph, check_range, checked_param, generate, render_params,
)
from .graphs import mask_of, subdivide_edges, shadow, triangles_through
from .labels import Labeling, sumset, verify_weak
from .solver import SparingResult, solve_and_certify, sparing_exact

Params = Mapping[str, object]
MODES = ("fresh", "induced")  # C13's evaluation modes; see _exact_subdivision


def _as_base(params: Params, key: str, claim: str) -> FamilySpec:
    base = params.get(key)
    if not isinstance(base, FamilySpec):
        raise DomainError(f"{claim} requires a '{key}' FamilySpec parameter")
    return base


def _as_mode(params: Params, key: str, claim: str) -> str:
    if params.get(key) not in MODES:
        raise DomainError(f"{claim} requires {key} in {{{', '.join(MODES)}}}")
    return params[key]


# the type checks of the claim-only parameters; any other name is checked as
# the family parameter of that name
_PARAM_TYPES = {"base": _as_base, "mode": _as_mode}
_family_param = partial(checked_param, error=DomainError)


def _family_instance(claim: Claim, p: Params) -> LabeledGraph:
    """The claim's family at ``p``; a family that takes one list (``parts``)
    gets the claim's parameters as that list, in param_order."""
    key = claim.item_list()
    params = dict(p) if key is None else {key: [p[k] for k in claim.param_order]}
    return generate(FamilySpec(claim.family, params))


def _solve_instance(p: Params, lg: LabeledGraph) -> tuple[int, int]:
    """The exact solver on the instance, which refuses one over 64 vertices."""
    result = sparing_exact(lg.graph)
    return result.value, len(result.witness)


@dataclass(frozen=True)
class Claim:
    """One cataloged claim: what it is about, where it applies, what it predicts.

    - ``id`` and ``statement`` name the claim in reports.
    - ``family`` is the family the claim is about and the report's row family.
    - ``param_order`` lists the parameters in report order, by default the
      family's; a claim names its own only for a list's items (C3's ``a`` and
      ``b`` fill ``parts``) or for a base and mode. Each name decides its type
      check: ``base`` is a FamilySpec, ``mode`` one of MODES, and any other
      name is checked as the family parameter of that name.
    - The range is the family's least values (a list's for each item a claim
      names, as C3 names ``a`` and ``b``). A claim that holds on less narrows
      it with ``requires`` and ``in_domain``, in words for the DomainError and
      as a test of the type-checked parameters.
    - ``predict`` gives the claimed value from the parameters and the
      instance; C5 and C7 read the instance and raise MissingGraph without it.
    - ``build`` makes the instance; by default ``family`` at the parameters.
    - ``exact`` gives the value the prediction is compared with and the
      witness size; by default the exact solver on the instance, which
      refuses one over 64 vertices, naming its count, before it solves.
    """

    id: str
    family: str
    statement: str
    _: KW_ONLY
    param_order: tuple[str, ...] = ()
    predict: Callable[[Params, LabeledGraph | None], int]
    requires: str = ""
    in_domain: Callable[[Params], bool] | None = None
    build: Callable[[Claim, Params], LabeledGraph] = _family_instance
    exact: Callable[[Params, LabeledGraph], tuple[int, int]] = _solve_instance

    def __post_init__(self):
        if not self.param_order:
            object.__setattr__(self, "param_order", tuple(FAMILY_PARAMS[self.family]))

    def item_list(self) -> str | None:
        """The family's list parameter (``parts``) if the claim names its items."""
        order = tuple(FAMILY_PARAMS.get(self.family, self.param_order))
        return None if order == self.param_order else order[0]

    def _point(self, params: Params) -> dict:
        """The type-checked parameters in param_order; raises DomainError."""
        point = {
            key: _PARAM_TYPES.get(key, _family_param)(params, key, self.id)
            for key in self.param_order
        }
        if self.in_domain is None:
            least = FAMILY_PARAMS.get(self.family, {})
            if (key := self.item_list()) is not None:
                least = dict.fromkeys(self.param_order, least[key])
            check_range(point, least, self.id, DomainError)
        elif not self.in_domain(point):
            raise DomainError(f"{self.id} requires {self.requires}")
        return point


@dataclass(frozen=True)
class ClaimVerdict:
    """One report row of `check_claim`, its fields in the report's column order:
    the row family (``shadow(cycle)`` for a claim on a base), the point as
    ``a=35,b=30`` or ``base=cycle,n=5,mode=fresh``, the predicted and exact
    values, MATCH or MISMATCH, the witness size and mono count of the exact
    side (the mono count is the exact value), and the milliseconds that side
    took."""

    family: str
    where: str
    predicted: int
    exact: int
    verdict: str  # MATCH | MISMATCH
    witness_size: int
    mono_count: int
    runtime_ms: int


@dataclass(frozen=True)
class _Subdivision(LabeledGraph):
    """C13's instance: the base graph with every mono edge of its certified
    solve (``result`` and ``labeling``) subdivided. It carries that solve, so
    the prediction and the ``induced`` rule read it instead of solving again."""

    result: SparingResult
    labeling: Labeling


def _shadow(claim: Claim, p: Params) -> LabeledGraph:
    return LabeledGraph(shadow(generate(p["base"]).graph), {})


def _maximal_subdivision(claim: Claim, p: Params) -> _Subdivision:
    g = generate(p["base"]).graph
    result, labeling = solve_and_certify(g)
    return _Subdivision(subdivide_edges(g, result.mono), {}, result, labeling)


def _exact_subdivision(p: Params, lg: _Subdivision) -> tuple[int, int]:
    """The solver on the subdivided graph (``fresh``), or the mono count and
    non-singleton count of the labeling the subdivision inherits from its
    base (``induced``), which solves nothing and so has no vertex cap.

    Each subdivided edge's fresh vertex (numbered in mono order after the
    base vertices) takes over the edge's old sum set, so both replacement
    edges come out mono.
    """
    if p["mode"] == "fresh":
        return _solve_instance(p, lg)
    extended = dict(lg.labeling)
    for u, v in lg.result.mono:
        extended[len(extended)] = sumset(extended[u], extended[v])
    verdict = verify_weak(lg.graph, extended)
    if not verdict.ok:
        raise AssertionError("inherited subdivision labeling failed verification")
    non_singleton = sum(1 for lab in extended.values() if len(lab) > 1)
    return len(verdict.mono), non_singleton


def _min_clique_triangles(lg: LabeledGraph | None) -> int:
    clique = None if lg is None else lg.partitions.get("clique")
    if clique is None:
        raise MissingGraph("C5 needs an instance with a 'clique' partition")
    return min(triangles_through(lg.graph, u) for u in sorted(clique))


def _cross_paths_through_least_part(lg: LabeledGraph | None) -> int:
    # paths u-v-w with v in the least-cardinality part and u, w in the two
    # different remaining parts; ties between parts resolve in X, Y, Z order
    parts = {} if lg is None else lg.partitions
    try:
        named = [(name, parts[name]) for name in ("X", "Y", "Z")]
    except KeyError:
        raise MissingGraph("C7 needs an instance with X, Y, Z partitions") from None
    named.sort(key=lambda item: (len(item[1]), ("X", "Y", "Z").index(item[0])))
    (_, least), (_, part_a), (_, part_b) = named
    g = lg.graph
    mask_a, mask_b = mask_of(part_a), mask_of(part_b)
    return sum(
        (g.adjacency_mask(v) & mask_a).bit_count()
        * (g.adjacency_mask(v) & mask_b).bit_count()
        for v in sorted(least)
    )


def _twice_phi_of_base(p: Params, lg: LabeledGraph | None) -> int:
    if isinstance(lg, _Subdivision):
        return 2 * lg.result.value
    return 2 * sparing_exact(generate(p["base"]).graph).value


def _product_of_two_smallest(a: int, b: int, c: int) -> int:
    lo, mid, _ = sorted((a, b, c))
    return lo * mid


_CATALOG: tuple[Claim, ...] = (
    Claim("C1", "complete", "phi(K_n) = (n-1)(n-2)/2",
          predict=lambda p, lg: (p["n"] - 1) * (p["n"] - 2) // 2),
    Claim("C2", "cycle", "phi(C_n) = 1 for odd n",
          requires="odd n >= 3", in_domain=lambda p: p["n"] >= 3 and p["n"] % 2 == 1,
          predict=lambda p, lg: 1),
    Claim("C3", "complete_bipartite", "phi(K_{a,b}) = 0", param_order=("a", "b"),
          predict=lambda p, lg: 0),
    Claim("C4", "complete_sun", "phi(sun_n) = (n^2 - 3n + 6)/2",
          predict=lambda p, lg: (p["n"] ** 2 - 3 * p["n"] + 6) // 2),
    Claim("C5", "complete_split", "phi(split) = fewest triangles through any one clique vertex",
          predict=lambda p, lg: _min_clique_triangles(lg)),
    Claim("C6", "complete_split", "phi(K_S(r,s)) = r(r-1)/2",
          predict=lambda p, lg: p["r"] * (p["r"] - 1) // 2),
    Claim("C7", "complete_bisplit", "phi(bisplit) = cross paths of length 2 through the least part",
          param_order=("x", "y", "z"),
          predict=lambda p, lg: _cross_paths_through_least_part(lg)),
    Claim("C8", "complete_multipartite", "phi(K_{a,b,c}) = product of the two smallest part sizes",
          param_order=("a", "b", "c"),
          predict=lambda p, lg: _product_of_two_smallest(p["a"], p["b"], p["c"])),
    Claim("C9", "block_chain", "phi(block graph) = sum (n_i-1)(n_i-2)/2",
          predict=lambda p, lg: sum((s - 1) * (s - 2) // 2 for s in p["cliques"])),
    Claim("C10", "windmill", "phi(W(n,r)) = r(n-1)(n-2)/2",
          predict=lambda p, lg: p["r"] * (p["n"] - 1) * (p["n"] - 2) // 2),
    Claim("C11", "friendship", "phi(F_r) = r",
          predict=lambda p, lg: p["r"]),
    Claim("C12", "shadow", "phi(shadow(G)) = 2 phi(G)", param_order=("base",),
          predict=_twice_phi_of_base, build=_shadow),
    Claim("C13", "max_subdivision", "phi(maximal subdivision of G) = 2 phi(G)",
          param_order=("base", "mode"),
          predict=_twice_phi_of_base, build=_maximal_subdivision, exact=_exact_subdivision),
    Claim("C14", "cactus_chain", "phi(cactus) = number of odd cycles",
          predict=lambda p, lg: sum(c % 2 for c in p["cycles"])),
    Claim("C15", "wheel", "phi(wheel on m+1 vertices) = ceil((m-1)/2)",
          predict=lambda p, lg: p["m"] // 2),  # == ceil((m - 1) / 2)
    Claim("C16", "cone", "phi(cone(m,n)) = m for n >= 2",
          requires="m >= 3 and n >= 2", in_domain=lambda p: p["m"] >= 3 and p["n"] >= 2,
          predict=lambda p, lg: p["m"]),
)


def catalog() -> list[Claim]:
    """All 16 cataloged claims in id order."""
    return list(_CATALOG)


def claim_by_id(claim_id: str) -> Claim:
    for claim in _CATALOG:
        if claim.id == claim_id:
            return claim
    raise KeyError(claim_id)


def predicted_value(claim: Claim, params: Params, lg: LabeledGraph | None = None) -> int:
    """The claimed closed-form value at ``params`` (graph-dependent claims need ``lg``)."""
    return claim.predict(claim._point(params), lg)


def check_claim(claim: Claim, params: Params) -> ClaimVerdict:
    """The report row comparing the claim's predicted value with the exact
    solver on the claim's instance at ``params``.

    Raises DomainError for a point outside the claim, and TooLarge, naming
    the claim and the point, for an instance over 64 vertices (a family one
    before any edge is made) or one that cannot be built; all before any
    solve of the instance. The claim's exact rule returns the value and the
    witness size, and the value is also the row's mono count.
    """
    point = claim._point(params)
    where = render_params(point, claim.param_order)
    try:
        lg = claim.build(claim, point)
        t0 = time.perf_counter()
        exact, witness_size = claim.exact(point, lg)
    except TooLarge as exc:
        raise TooLarge(f"claim {claim.id} at {where}: {exc}") from None
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    predicted = predicted_value(claim, point, lg)
    base = point.get("base")
    return ClaimVerdict(
        family=claim.family if base is None else f"{claim.family}({base.family})",
        where=where,
        predicted=predicted,
        exact=exact,
        verdict="MATCH" if predicted == exact else "MISMATCH",
        witness_size=witness_size,
        mono_count=exact,
        runtime_ms=runtime_ms,
    )
