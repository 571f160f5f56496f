"""The four benchmark workloads: inputs from a seed, the items of one round,
and the checks of their outputs.

A round is a fixed list of items solved one after another (a closed loop with
one client); the run repeats it. Each workload looks the package's functions
up as module attributes at call time, so that the tracer's wrappers apply.
Why each workload exists is in its docstring and in README.md.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter

from spinbrauer import cellular, diagrams, multiply, verify
from spinbrauer.realization import SpaceSpec
from spinbrauer.scalars import DeltaPolynomial

import gen

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# Stand-ins for a leading-term prediction that is not a (diagram, coeff) pair.
UNEQUAL = "unequal"  # through counts differ, so no prediction is made
FORM_ERROR = "form_error"  # CellFormError: an expected answer from n = 4 on


def _timed_enumerate(n: int):
    start = perf_counter()
    basis = diagrams.enumerate_basis(n)
    return basis, perf_counter() - start


def _report(report) -> dict:
    """The fields of a verification report that are the check's answer."""
    out = {"check": report.check_name, "parameters": report.parameters,
           "passed": report.passed}
    if report.check_name == "rank":
        out["basis_size"] = report.info["basis_size"]
        out["rank"] = report.info["rank"]
    return out


class Products:
    """multiply_diagrams on uniform pairs of n = 4 basis diagrams, plus the
    cellular prediction of the leading term for pairs of equal through count.

    Ordinary symbolic traffic: few labels per product, so normal-form paths
    seldom revisit a state; the only workload where stitching and cellular
    carry real weight. The pairs are drawn uniformly, but each round takes a fixed number of
    them at each normal-form potential (capped at 10), in the proportions
    that 40,000 uniform pairs showed. The rare high-potential products cost
    up to a thousand times the median one, so fixing their number keeps the
    work of a round nearly the same from seed to seed.
    """

    name = "products"
    QUOTAS = {0: 557, 1: 316, 2: 265, 3: 147, 4: 92, 5: 57, 6: 31, 7: 17, 8: 9, 9: 5, 10: 4}
    DRAWS = 8000  # the capped bucket (0.23 % of pairs) turns up 18 times on average

    def __init__(self, seed: int):
        basis, self.enumerate_s = _timed_enumerate(4)
        rng = random.Random(f"products/{seed}")
        self.items = gen.stratified_pairs(
            lambda: (rng.choice(basis), rng.choice(basis)),
            self.QUOTAS, self.DRAWS, cap=max(self.QUOTAS))
        self.weights = [1] * len(self.items)

    def solve(self, item):
        top, bottom = item
        product = multiply.multiply_diagrams(top, bottom)
        if top.through_count != bottom.through_count:
            return product, UNEQUAL
        try:
            return product, cellular.predicted_leading_term(top, bottom)
        except cellular.CellFormError:
            return product, FORM_ERROR

    def canonical(self, output):
        product, prediction = output
        if isinstance(prediction, tuple):
            d, coeff = prediction
            prediction = {"diagram": diagrams.emit_diagram(d), "coeff": coeff.to_pairs()}
        return {"product": product.to_json(), "leading": prediction}

    def check(self, index, item, output) -> bool:
        top, bottom = item
        product, prediction = output
        if product.max_through() > min(top.through_count, bottom.through_count):
            return False
        if not (top.top_isolated or top.bottom_isolated
                or bottom.top_isolated or bottom.bottom_isolated):
            loops, matching = verify.brauer_multiply(
                verify.brauer_from_spin(top), verify.brauer_from_spin(bottom), top.n)
            expected = diagrams.AlgebraElement.from_diagram(
                verify.brauer_to_spin(top.n, matching), DeltaPolynomial.delta(loops))
            if product != expected:
                return False
        if prediction in (UNEQUAL, FORM_ERROR):
            return True
        ell = top.through_count
        leading = {d: c for d, c in product.terms.items() if d.through_count >= ell}
        return leading == ({} if prediction is None else dict([prediction]))


class Isolated:
    """Products of diagrams whose vertices are mostly isolated.

    The normal form's swap tree grows about ninefold per extra isolated
    vertex, and its paths keep reaching the same states. Each round holds
    the all-isolated squares for n = 3..6 and, at n = 6 (isolation
    probability 0.7) and n = 7 (0.6), twelve random products at each
    normal-form potential 8..14. Fixing the number of products per
    potential keeps the work of a round nearly the same from seed to seed;
    the cost of products of one potential still varies, so a round holds
    many of them. The n = 7 square (0.6 s or more as one item) is left
    out: one indivisible item would weigh as much as all the others.
    """

    name = "isolated"
    SQUARES = range(3, 7)
    RANDOM = ((6, 0.7), (7, 0.6))
    POTENTIALS = range(8, 15)
    PER_POTENTIAL = 12
    DRAWS = 1000  # per row size; each potential turns up 43 times or more on average
    ASCENDING_CHECKS = 4

    def __init__(self, seed: int):
        self.enumerate_s = 0.0
        gen.check_isolated_sizes([*self.SQUARES, *(n for n, _ in self.RANDOM)])
        rng = random.Random(f"isolated/{seed}")
        squares = [(gen.all_isolated(n),) * 2 for n in self.SQUARES]
        quotas = dict.fromkeys(self.POTENTIALS, self.PER_POTENTIAL)
        drawn = []
        for n, p in self.RANDOM:
            drawn += gen.stratified_pairs(
                lambda: (gen.random_isolated(rng, n, p), gen.random_isolated(rng, n, p)),
                quotas, self.DRAWS)
        self.items = squares + drawn
        self.weights = [1] * len(self.items)
        self.ascending = set(rng.sample(range(len(squares), len(self.items)),
                                        self.ASCENDING_CHECKS))

    def solve(self, item):
        return multiply.multiply_diagrams(*item)

    def canonical(self, output):
        return output.to_json()

    def check(self, index, item, output) -> bool:
        top, bottom = item
        if output.max_through() > min(top.through_count, bottom.through_count):
            return False
        if top == bottom == gen.all_isolated(top.n):
            return output.to_json() == EXPECTED["isolated_squares"][str(top.n)]
        if index in self.ascending:
            return multiply.multiply_diagrams(top, bottom, multiply.ascending_strategy) == output
        return True


class Homomorphism:
    """verify_homomorphism(3, N, "random") at N = 5 and N = 6.

    Realization, linear combination (Fraction arithmetic, most of the time),
    composition and comparison of matrices at odd and even N. A round makes
    many verifications of one pair each rather than one large one, so that
    each item is short. Pairs differ widely in cost (a product can have one
    term or a dozen, and each term is a sparse matrix of thousands of
    Fraction entries). So each verification seed is the one, among
    CANDIDATES drawn from the benchmark seed, whose estimated cost is
    closest to TYPICAL_COST; this keeps rounds of different seeds alike.
    """

    name = "homomorphism"
    CALLS = ((5, 1, 12), (6, 1, 4))  # (N, pairs per verification, verifications)
    CANDIDATES = 24
    # N -> median of homomorphism_cost(basis, nnz, N, pairs, s) over the
    # verification seeds s = 0..999, with pairs as in CALLS.
    TYPICAL_COST = {5: 2550, 6: 6782}

    def __init__(self, seed: int):
        basis, self.enumerate_s = _timed_enumerate(3)
        nnz_table = json.loads((HERE / "realized_nnz.json").read_text(encoding="utf-8"))
        rng = random.Random(f"homomorphism/{seed}")
        self.items = []
        for N, pairs, calls in self.CALLS:
            nnz = {d: nnz_table[str(N)][diagrams.diagram_key(d)] for d in basis}
            target = self.TYPICAL_COST[N]
            for _ in range(calls):
                vseed = min(
                    (rng.randrange(2**31) for _ in range(self.CANDIDATES)),
                    key=lambda s: abs(homomorphism_cost(basis, nnz, N, pairs, s) - target))
                self.items.append((N, pairs, vseed))
        self.weights = [pairs for _, pairs, _ in self.items]

    def solve(self, item):
        N, pairs, vseed = item
        return verify.verify_homomorphism(3, N, "random", pairs, vseed)

    def canonical(self, output):
        return _report(output)

    def check(self, index, item, output) -> bool:
        return output.passed


# Weights of the composition and realization parts of homomorphism_cost,
# relative to the nonzeros combined. Least-squares fit to the times of 60
# single-pair verifications at each of N = 5 and 6 on the development host;
# equal weights left twice the unexplained spread at N = 5 and half as much
# again at N = 6.
COMPOSE_WEIGHT = 0.25
REALIZE_WEIGHT = 0.35


def homomorphism_cost(basis, nnz, N: int, pairs: int, vseed: int) -> float:
    """Estimated work of verify_homomorphism(3, N, "random", pairs, vseed).

    nnz maps each basis diagram d to realize_diagram(d, SpaceSpec(N, 3)).nnz(),
    as stored in realized_nnz.json. Draws the pairs the way the check's
    random mode does, then adds the nonzeros combined for each product term,
    the multiply-adds of a composition of average density, and one pass over
    the space for each distinct diagram realized, the last two weighted.
    """
    dim = SpaceSpec(N, 3).total_dim
    rng = random.Random(vseed)
    drawn = [(rng.choice(basis), rng.choice(basis)) for _ in range(pairs)]
    cost = 0.0
    realized = set()
    for top, bottom in drawn:
        terms = multiply.multiply_diagrams(top, bottom).evaluate_at(N).terms
        cost += sum(nnz[d] for d in terms) + COMPOSE_WEIGHT * nnz[top] * nnz[bottom] / dim
        realized.update(terms, (top, bottom))
    return cost + REALIZE_WEIGHT * dim * len(realized)


class Rank:
    """verify_rank at (n, N) = (3, 2), rank 20 of 76, and (2, 6), full rank 10.

    One deficient case (exact elimination to the end) and one certified-full
    case. Each verification takes a fraction of a second: the larger cases
    (3, 4) and (2, 8) take seconds as one indivisible call, too long to time
    steadily on a host whose speed swings by half within seconds. An item
    is one basis diagram realized and reduced. The inputs do not depend on
    the seed."""

    name = "rank"
    CASES = ((3, 2, 76, 20), (2, 6, 10, 10))  # (n, N, basis size, rank)

    def __init__(self, seed: int):
        self.enumerate_s = 0.0
        self.items = [case[:2] for case in self.CASES]
        self.weights = [case[2] for case in self.CASES]

    def solve(self, item):
        return verify.verify_rank(*item)

    def canonical(self, output):
        return _report(output)

    def check(self, index, item, output) -> bool:
        _, _, size, rank = self.CASES[index]
        return output.passed and (output.info["basis_size"], output.info["rank"]) == (size, rank)


WORKLOADS = {w.name: w for w in (Products, Isolated, Homomorphism, Rank)}
