"""The four benchmark workloads.

A workload is built from the package and a seed; building it is the
set-up that ``setup_s`` times.  ``expect`` then computes the reference
values of the independent checks, untimed, since no user of the package
pays for them.  ``cases`` yields one pass as (label, call) pairs; a call
returns when its verdict holds and raises ``oracle.Wrong`` when it does
not.  ``case_count`` is the number of cases a pass must yield, counted
from the inputs and not from the package's outputs, so a case that
fills a list for later cases cannot shorten a pass unseen.  ``apart``
lists operations that are timed apart from the pass.

The package is reached only through attributes of its modules at call
time (``fc.phi``, ``fc.forest_algebra.forest_sum``), so the traced run
sees every call after it swaps those attributes for timing wrappers.

``cases`` is a generator: a case may fill a list that the generator
reads once the runner has called that case and asked for the next one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from inputs import (decoration_names, full_binary_tree, polydisc_point,
                    random_forest, x_of_z, z_of_x)
from oracle import (catalan, check_tree_image, equal_argument_integral,
                    nested_sum, parameter_count, require)


def _spec(fc, names):
    return fc.TauSpec(tuple(fc.deco(n) for n in names))


def _close(value, expected, rel: float, what: str) -> None:
    err = abs(value - expected)
    require(err <= rel * max(1.0, abs(expected)),
            f"{what}: {value!r} against {expected!r} (off by {err:.3e})")


class Workload:
    apart = ()

    def expect(self) -> None:
        pass

    def case_count(self) -> int:
        raise NotImplementedError


class ChainMap(Workload):
    """phi(d S) = boundary(phi S), plus boundary^2 = 0 on the image."""

    M_RANGE = range(2, 8)
    FORESTS = 32
    # boundary^2 of an image costs several times its chain-map check: 12 s
    # for the 132 trees of m = 7, 29 s for the depth-5 tree and about 3 s
    # for every 16 random forests, against about 11 s for the whole pass
    # without them.  So boundary^2 is checked on the tau trees up to
    # m = 6 and on the depth-4 tree only.
    D2_MAX_M = 6
    BINARY_DEPTHS = ((4, True), (5, False))
    # the depth-7 generic tree: phi gives up behind the relabeling cap;
    # its names are fixed so that the failure does not depend on the seed
    FAILING_DEPTH = 7

    def __init__(self, fc, seed: int):
        self.fc = fc
        rng = random.Random(seed)
        self.specs = [_spec(fc, decoration_names(rng, m)) for m in self.M_RANGE]
        forest_sum = fc.forest_algebra.forest_sum
        self.forests = [forest_sum([(random_forest(fc, rng, 24, 3, 4), 1)])
                        for _ in range(self.FORESTS)]
        self.binary = [(depth, d2, fc.tree_sum(full_binary_tree(
                            fc, depth, decoration_names(rng, 2 ** depth))))
                       for depth, d2 in self.BINARY_DEPTHS]
        leaves = 2 ** self.FAILING_DEPTH
        self.failing = fc.tree_sum(full_binary_tree(
            fc, self.FAILING_DEPTH, [f"y{i}" for i in range(1, leaves + 1)]))

    def _tau_trees(self, spec) -> list:
        trees = self.fc.tau_trees(spec)
        require(len(trees) == catalan(spec.m - 1),
                f"{len(trees)} tau trees for m = {spec.m}")
        return trees

    def _chain_map(self, S, m=None, check_d2=True) -> None:
        fc = self.fc
        image = fc.phi(S)
        if m is not None:
            require(len(image) == 1, "a tree maps to one term")
            check_tree_image(image.terms()[0], m)
        rhs = fc.boundary(image)
        require(fc.phi(fc.d(S)) == rhs, "phi(d S) differs from boundary(phi S)")
        if check_d2:
            require(fc.boundary(rhs).is_zero(), "boundary^2 of phi S is not 0")

    def case_count(self) -> int:
        return (sum(1 + catalan(spec.m - 1) for spec in self.specs)
                + len(self.forests) + len(self.binary))

    def cases(self):
        fc = self.fc
        for spec in self.specs:
            trees: list = []
            yield f"tau m={spec.m}", lambda spec=spec: trees.extend(self._tau_trees(spec))
            for k, T in enumerate(trees):
                yield (f"tau m={spec.m} tree {k}",
                       lambda T=T, m=spec.m: self._chain_map(
                           fc.tree_sum(T), m, m <= self.D2_MAX_M))
        for k, S in enumerate(self.forests):
            yield f"forest {k}", lambda S=S: self._chain_map(S, check_d2=False)
        for depth, d2, S in self.binary:
            yield (f"binary depth {depth}",
                   lambda S=S, d2=d2: self._chain_map(S, check_d2=d2))

    def _failing(self) -> None:
        image = self.fc.phi(self.failing)
        require(len(image) == 1, "a tree maps to one term")
        term = image.terms()[0]
        edges = 2 ** (self.FAILING_DEPTH + 1) - 1
        require(len(term.coords) == edges and parameter_count(term) == edges // 2,
                "depth-7 image has the wrong shape")

    @property
    def apart(self):
        return [(f"phi binary depth {self.FAILING_DEPTH}", self._failing)]


class Admissibility(Workload):
    """is_admissible on every term of phi(tau) for m = 2..5."""

    M_RANGE = range(2, 6)

    def __init__(self, fc, seed: int):
        self.fc = fc
        rng = random.Random(seed)
        self.specs = [_spec(fc, decoration_names(rng, m)) for m in self.M_RANGE]

    def _image(self, spec) -> list:
        fc = self.fc
        Z = fc.phi(fc.tau(spec))
        require(len(Z) == catalan(spec.m - 1), f"phi(tau) has {len(Z)} terms")
        for t, c in Z:
            require(abs(c) == 1, f"phi(tau) coefficient {c}")
            check_tree_image(t, spec.m)
        return Z.terms()

    def _admissible(self, t) -> None:
        require(self.fc.is_admissible(t).admissible, f"{t} is not admissible")

    def case_count(self) -> int:
        return sum(1 + catalan(spec.m - 1) for spec in self.specs)

    def cases(self):
        for spec in self.specs:
            terms: list = []
            yield f"phi(tau) m={spec.m}", lambda spec=spec: terms.extend(self._image(spec))
            for k, t in enumerate(terms):
                yield f"admissible m={spec.m} term {k}", lambda t=t: self._admissible(t)


class ForestLaws(Workload):
    """d^2 = 0, graded Leibniz for star, and the tau cancellation reports."""

    # enough random forests that the case percentiles hardly move with
    # the seed: with 80 and 40, case_p50_ms spread 0.13 over ten seeds
    D2_FORESTS = 240
    LEIBNIZ_PAIRS = 120
    M_RANGE = range(2, 9)

    def __init__(self, fc, seed: int):
        self.fc = fc
        rng = random.Random(seed)
        pool = decoration_names(rng, 9)
        forest_sum = fc.forest_algebra.forest_sum

        def draw(max_edges, max_trees):
            # forests with two equal odd trees are 0; draw again
            while True:
                S = forest_sum([(random_forest(fc, rng, max_edges, max_trees,
                                               3, pool), 1)])
                if not S.is_zero():
                    return S

        self.d2 = [draw(14, 3) for _ in range(self.D2_FORESTS)]
        self.pairs = [(draw(7, 2), draw(7, 2)) for _ in range(self.LEIBNIZ_PAIRS)]
        self.specs = [_spec(fc, decoration_names(rng, m)) for m in self.M_RANGE]

    def _leibniz(self, A, B) -> None:
        fc = self.fc
        d, star = fc.d, fc.star
        edges = fc.grade(A.terms()[0])[0]
        lhs = d(star(A, B))
        rhs = star(d(A), B) + star(A, d(B)).scale((-1) ** edges)
        require(lhs == rhs, "d(A*B) breaks graded Leibniz")

    def _tau_count(self, spec) -> None:
        n = len(self.fc.tau(spec))
        require(n == catalan(spec.m - 1), f"tau has {n} trees for m = {spec.m}")

    def case_count(self) -> int:
        return len(self.d2) + len(self.pairs) + 3 * len(self.specs)

    def cases(self):
        fc = self.fc
        for k, S in enumerate(self.d2):
            yield f"d2 forest {k}", lambda S=S: require(
                fc.d(fc.d(S)).is_zero(), "d^2 is not 0")
        for k, (A, B) in enumerate(self.pairs):
            yield f"leibniz pair {k}", lambda A=A, B=B: self._leibniz(A, B)
        for spec in self.specs:
            yield f"tau m={spec.m}", lambda spec=spec: self._tau_count(spec)
            yield f"cancellation m={spec.m}", lambda spec=spec: require(
                fc.check_internal_cancellation(spec).passed,
                "internal edges of d(tau) do not cancel")
            yield f"decomposable m={spec.m}", lambda spec=spec: require(
                fc.check_decomposable(spec).all_two_trees,
                "a term of d(tau) is not a product of two trees")


class Periods(Workload):
    """Iterated integrals against the series, and the hybrid fixtures."""

    # depth -> seeded points; one depth-4 point is ~0.8 s and ~550 MB,
    # because the error estimate doubles the quadrature order
    INTEGRAL_POINTS = {1: 6, 2: 6, 3: 6, 4: 1}
    EQUAL_DEPTHS = range(1, 5)
    SERIES_DEPTHS = range(1, 9)
    SERIES_POINTS = 3
    FIXTURES = ("double_log", "triple_log")

    def __init__(self, fc, seed: int):
        self.fc = fc
        rng = random.Random(seed)
        self.integrals = [polydisc_point(rng, depth, 0.15, 0.6, real=True)
                          for depth, n in self.INTEGRAL_POINTS.items()
                          for _ in range(n)]
        self.equal = [(m, rng.choice((-1, 1)) * rng.uniform(1.7, 6.0))
                      for m in self.EQUAL_DEPTHS]
        self.series = [polydisc_point(rng, depth, 0.1, 0.6, real=False)
                       for depth in self.SERIES_DEPTHS
                       for _ in range(self.SERIES_POINTS)]
        self.fixtures = []
        for name in self.FIXTURES:
            chain, target, meta = fc.load_fixture(name)
            spec = _spec(fc, [f"x{i}" for i in range(1, meta["tau_m"] + 1)])
            self.fixtures.append((name, chain, target, meta, spec))

    def expect(self) -> None:
        self.integral_ref = [nested_sum(z) for z in self.integrals]
        self.series_ref = [nested_sum(z) for z in self.series]
        self.fixture_ref = [nested_sum(z_of_x(meta["xs"])).real
                            for _, _, _, meta, _ in self.fixtures]

    def _integral(self, z, ref) -> None:
        fc = self.fc
        x = x_of_z(z)
        m = len(x)
        value = fc.simplex_integral(x)
        series = fc.multiple_log_series(fc.z_from_x(x))
        _close(series, ref, 1e-12, f"series at depth {m}")
        _close(value, (-1) ** m * ref.real, 1e-10, f"integral at depth {m}")
        _close(value, (-1) ** m * series.real, 1e-10, f"I = (-1)^m Li at depth {m}")
        err = fc.numerics.integral_error_estimate(x)
        require(err <= 1e-10, f"integral error estimate {err:.3e} at depth {m}")

    def _fixture_eval(self, chain, meta, ref) -> None:
        fc = self.fc
        xs = meta["xs"]
        assignment = {f"x{i + 1}": v for i, v in enumerate(xs)}
        value = fc.eval_topological_sum(fc.topological_part(chain), assignment)
        _close(value, meta["integral_sign"] * (-1) ** len(xs) * ref, 1e-10,
               "topological part against the series")

    def case_count(self) -> int:
        return (len(self.integrals) + len(self.equal) + len(self.series)
                + 4 * len(self.fixtures))

    def cases(self):
        fc = self.fc
        for z, ref in zip(self.integrals, self.integral_ref):
            yield f"integral depth {len(z)}", lambda z=z, ref=ref: self._integral(z, ref)
        for m, x in self.equal:
            yield f"equal arguments depth {m}", lambda m=m, x=x: _close(
                fc.simplex_integral([x] * m), equal_argument_integral(x, m),
                1e-10, f"equal-argument integral at depth {m}")
        for z, ref in zip(self.series, self.series_ref):
            yield f"series depth {len(z)}", lambda z=z, ref=ref: _close(
                fc.multiple_log_series(z), ref, 1e-12, f"series at depth {len(z)}")
        for (name, chain, target, meta, spec), ref in zip(self.fixtures, self.fixture_ref):
            yield f"{name} bounding", lambda chain=chain, target=target: require(
                fc.verify_bounding(chain, target).passed, "bounding fails")
            yield f"{name} D^2", lambda chain=chain: require(
                fc.D(fc.D(chain)).is_zero(), "D^2 of the chain is not 0")
            yield f"{name} target", lambda target=target, meta=meta, spec=spec: require(
                target == fc.phi(fc.tau(spec)).scale(Fraction(meta["target_scale"])),
                "target is not target_scale * phi(tau)")
            yield f"{name} topological integral", (
                lambda chain=chain, meta=meta, ref=ref: self._fixture_eval(chain, meta, ref))


WORKLOADS = {
    "chain-map": ChainMap,
    "admissibility": Admissibility,
    "forest-laws": ForestLaws,
    "periods": Periods,
}
