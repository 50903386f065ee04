"""Audit bundle: cross-checked identities, witnesses, and determinism."""

import io
import json
import random
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import conic_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatgroups import audit, conic, monomial, search
from fermatgroups.cli import main
from fermatgroups.conic import CIRCLE, HYPERBOLA, Conic, _hyperbola_left_form
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import INF, Mat2, format_projective, projective_pair


class TestCircleLawSample:
    def test_holds_with_specials(self):
        report = audit.circle_law_sample(random.Random(5), pairs=200)
        assert report["holds"] is True
        assert report["mismatches"] == []
        assert report["special_pairs"] == 16
        assert report["pairs_checked"] == 200


class TestMonomialLawSample:
    def test_holds(self):
        report = audit.monomial_law_sample(random.Random(6), pairs=60)
        assert report["holds"] is True
        assert report["pairs_checked"] == 60

    def test_reports_a_broken_law(self, monkeypatch):
        # the law composed in the reverse order: f·g taken as g·f
        mul = monomial.MonomialMatrix.__mul__
        monkeypatch.setattr(monomial.MonomialMatrix, "__mul__", lambda first, second: mul(second, first))
        report = audit.monomial_law_sample(random.Random(0), 60)
        assert report["holds"] is False
        assert report["mismatches"]
        for mismatch in report["mismatches"]:
            assert set(mismatch) == {"first", "second", "k"}

    def test_builds_each_dense_entry_once(self, monkeypatch):
        # one table [omega^0, ..., omega^(k-1), 0] for each k in 3..6: 22 values
        calls = []
        root_of_unity, zero = CyclotomicNumber.root_of_unity.__func__, CyclotomicNumber.zero.__func__

        def counted(build):
            def wrapped(cls, *args):
                calls.append(args)
                return build(cls, *args)

            return classmethod(wrapped)

        monkeypatch.setattr(CyclotomicNumber, "root_of_unity", counted(root_of_unity))
        monkeypatch.setattr(CyclotomicNumber, "zero", counted(zero))
        report = audit.monomial_law_sample(random.Random(0), 300)
        assert report["holds"] is True
        assert len(calls) <= 22


class TestCircleIdentitySweep:
    def test_small_sweep_holds(self):
        report = audit.circle_identity_sweep(10)
        assert report["identity_holds"] is True
        assert report["side_mismatches"] == []
        assert report["solver_mismatches"] == []
        assert report["pairs"] == report["points"] ** 2
        assert report["both_defined"] + report["undefined_pairs"] == report["pairs"]
        assert report["witness"] is not None


class TestHyperbolaIdentitySweep:
    def test_witness_values_preserved(self):
        report = audit.hyperbola_identity_sweep(10)
        witness = report["witness"]
        assert witness["pair"] == "(5/4,3/4) -> (5/3,4/3)"
        assert witness["left"] == "-3/55"
        assert witness["right"] == "1/5"
        assert witness["solver"] == "1/5"
        assert witness["sides_equal"] is False

    def test_right_form_tracks_solver(self):
        report = audit.hyperbola_identity_sweep(10)
        assert report["right_form_tracks_solver"] is True
        assert report["right_solver_mismatches"] == []
        assert report["left_form_discrepant"] is True
        assert report["disagreement_witnesses"]


class TestRationalSubgroupAudit:
    def test_even_k_flagged(self):
        rows = {row["k"]: row for row in audit.rational_subgroup_audit()}
        assert rows[3]["order"] == 2 and rows[3]["matches_plain_permutations"]
        assert rows[5]["order"] == 2 and rows[5]["matches_plain_permutations"]
        assert rows[4]["order"] == 8
        assert rows[4]["exceeds_plain_permutations"] is True
        assert rows[4]["order"] == rows[4]["signed_permutation_count"]
        assert all(row["is_group"] for row in rows.values())


class TestOrbitCardinalityAudit:
    def test_generic_orbits_match_group_order(self):
        for row in audit.orbit_cardinality_audit((3, 4)):
            assert row["generic_orbit_is_group_order"] is True
            assert row["orbits"]["axis"]["orbit"] == 2 * row["k"]
            assert row["orbits"]["diagonal"]["orbit"] == row["k"] ** 2
            for orbit_row in row["orbits"].values():
                assert orbit_row["product_is_group_order"] is True


@pytest.fixture(scope="module")
def small_report():
    return audit.run_audit_suite(seed=11, identity_bound=8, law_pairs=120)


class TestRunAuditSuite:
    def test_all_expected_results(self, small_report):
        assert small_report["all_expected_results"] is True

    def test_deterministic_given_seed(self, small_report):
        again = audit.run_audit_suite(seed=11, identity_bound=8, law_pairs=120)
        assert json.dumps(small_report) == json.dumps(again)

    def test_seed_changes_sampled_content_only(self, small_report):
        other = audit.run_audit_suite(seed=12, identity_bound=8, law_pairs=120)
        assert other["all_expected_results"] is True
        assert other["circle_delta_identity"] == small_report["circle_delta_identity"]

    @pytest.mark.parametrize("seed", [True, 0.5, 1.0, "0", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            audit.run_audit_suite(seed=seed, identity_bound=3, law_pairs=1)

    def test_negative_seed_is_allowed(self):
        assert audit.run_audit_suite(seed=-3, identity_bound=3, law_pairs=1)["seed"] == -3

    @pytest.mark.parametrize("pairs", [True, -1, 2.0, Fraction(1)])
    def test_law_pairs_must_be_a_nonnegative_int(self, pairs):
        with pytest.raises(InvalidArgumentError, match=r"law pairs must be an integer >= 0"):
            audit.run_audit_suite(seed=0, identity_bound=3, law_pairs=pairs)

    def test_json_serializable_without_floats(self, small_report):
        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        text = json.dumps(small_report)
        assert no_floats(small_report)
        assert json.loads(text) == small_report


CURVES = [(CIRCLE, search.circle_triples), (HYPERBOLA, search.hyperbola_triples)]


def _oracle_rendering(curve, source, target):
    return oracle.render(oracle.delta_identity_audit(curve, source, target))


def _point(triple):
    a, b, c = triple
    return Fraction(a, c), Fraction(b, c)


def _rendered_sweep(curve, triples):
    """Every ordered pair of `triples` through `identity_pairs`, rendered by the package."""
    return [audit.render_identity_audit(pair) for pair in curve.identity_pairs(triples, triples)]


def _oracle_sweep(curve, triples):
    """Every ordered pair of the same points through the Fraction oracle and its renderer."""
    points = list(map(_point, triples))
    return [_oracle_rendering(curve, source, target) for source in points for target in points]


class TestPairSweepAgainstFractionAudit:
    @pytest.mark.parametrize("curve, triples", CURVES, ids=["circle", "hyperbola"])
    def test_every_pair_up_to_height_20(self, curve, triples):
        triples = triples(20)
        rendered = _rendered_sweep(curve, triples)
        assert len(rendered) == len(triples) ** 2
        assert rendered == _oracle_sweep(curve, triples)

    def test_sweep_counts_at_height_50(self):
        started = time.perf_counter()
        circle_report = audit.circle_identity_sweep(50)
        hyperbola_report = audit.hyperbola_identity_sweep(50)
        elapsed = time.perf_counter() - started
        assert (
            circle_report["points"],
            circle_report["pairs"],
            circle_report["both_defined"],
            circle_report["sides_agree"],
            circle_report["undefined_pairs"],
            len(circle_report["solver_mismatches"]),
        ) == (60, 3600, 3423, 3423, 177, 0)
        assert (
            hyperbola_report["points"],
            hyperbola_report["pairs"],
            hyperbola_report["both_defined"],
            hyperbola_report["sides_agree"],
            hyperbola_report["undefined_pairs"],
            hyperbola_report["right_defined"],
            hyperbola_report["right_agrees_solver"],
        ) == (58, 3364, 3193, 113, 171, 3249, 3249)
        # the Fraction route took about 1.6 s here; the integer kernel about 0.04 s
        assert elapsed < 1.0

    def test_sweeps_chart_each_point_once(self, monkeypatch):
        calls = []
        chart_pair = Conic.chart_pair

        def counted(self, a, b, c):
            calls.append((self.s, a, b, c))
            return chart_pair(self, a, b, c)

        monkeypatch.setattr(Conic, "chart_pair", counted)
        audit.circle_identity_sweep(50)
        audit.hyperbola_identity_sweep(50)
        # `identity_pairs` charts each of the 60 + 58 points once, plus the two
        # points of the fixed hyperbola witness, which the report solves on its own
        assert len(calls) == 60 + 58 + 2
        assert len(set(calls)) == 118

    def test_sweeps_build_a_record_only_for_what_they_print(self, monkeypatch):
        # `render_identity_audit` builds the record of each pair it prints
        built = []

        class Counted(conic.DeltaIdentityAudit):
            def __new__(cls, *fields):
                built.append(fields[:2])
                return super().__new__(cls, *fields)

        monkeypatch.setattr(audit, "DeltaIdentityAudit", Counted)
        circle_report = audit.circle_identity_sweep(50)
        # the witness; no pair mismatches, and 3,600 pairs get no record
        assert len(built) == 1 + len(circle_report["side_mismatches"]) + len(circle_report["solver_mismatches"]) == 1
        built.clear()
        hyperbola_report = audit.hyperbola_identity_sweep(50)
        # the fixed witness and five disagreement witnesses, of 3,364 pairs
        assert len(hyperbola_report["disagreement_witnesses"]) == 5
        assert len(built) == 1 + 5 + len(hyperbola_report["right_solver_mismatches"]) == 6

    def test_sweeps_check_each_point_on_the_curve_once(self, monkeypatch):
        calls = []
        on_curve = Conic._on_curve

        def counted(self, x, y):
            calls.append((self.s, x, y))
            return on_curve(self, x, y)

        monkeypatch.setattr(Conic, "_on_curve", counted)
        audit.circle_identity_sweep(50)
        audit.hyperbola_identity_sweep(50)
        # `identity_pairs` checks each of the 60 + 58 points, and the two points
        # of the fixed hyperbola witness, once
        assert len(calls) == 60 + 58 + 2


def _oracle_circle_report(bound, triples):
    # the former circle sweep: a Fraction record per pair, its flags read as properties
    points = list(map(_point, triples))
    records = [oracle.delta_identity_audit(CIRCLE, source, target) for source in points for target in points]
    defined = [record for record in records if record.sides_equal is not None]
    solver_mismatches = [r for r in defined if not (r.left_matches_solver and r.right_matches_solver)]
    witness = next((record for record in defined if record.solver_delta != 0), None)
    return {
        "height": bound,
        "points": len(points),
        "pairs": len(records),
        "both_defined": len(defined),
        "sides_agree": sum(record.sides_equal for record in defined),
        "undefined_pairs": len(records) - len(defined),
        "side_mismatches": [oracle.render(r) for r in defined if not r.sides_equal],
        "solver_mismatches": list(map(oracle.render, solver_mismatches)),
        "identity_holds": all(r.sides_equal for r in defined) and not solver_mismatches,
        "witness": None if witness is None else oracle.render(witness),
    }


def _oracle_hyperbola_report(bound, triples):
    # the former hyperbola sweep, over the same Fraction records
    points = list(map(_point, triples))
    records = [oracle.delta_identity_audit(HYPERBOLA, source, target) for source in points for target in points]
    defined = [record for record in records if record.sides_equal is not None]
    right_defined = [record for record in records if record.right_matches_solver is not None]
    agree = sum(record.sides_equal for record in defined)
    right_agrees = sum(record.right_matches_solver for record in right_defined)
    witness = oracle.delta_identity_audit(HYPERBOLA, (Fraction(5, 4), Fraction(3, 4)), (Fraction(5, 3), Fraction(4, 3)))
    return {
        "height": bound,
        "points": len(points),
        "pairs": len(records),
        "both_defined": len(defined),
        "sides_agree": agree,
        "sides_disagree": len(defined) - agree,
        "undefined_pairs": len(records) - len(defined),
        "right_defined": len(right_defined),
        "right_agrees_solver": right_agrees,
        "right_solver_mismatches": [
            oracle.render(r) for r in right_defined if not r.right_matches_solver
        ],
        "right_form_tracks_solver": right_agrees == len(right_defined),
        "left_form_discrepant": len(defined) > agree,
        "witness": oracle.render(witness),
        "disagreement_witnesses": [oracle.render(r) for r in defined if not r.sides_equal][:5],
    }


def _fraction_constructions(call) -> int:
    """How many Fractions `call()` builds, counted as calls of the constructors of `fractions.Fraction`."""
    constructors = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # the arithmetic's constructor from Python 3.12 on
        constructors.add(Fraction._from_coprime_ints.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code in constructors

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def _pair_audit(*argv):
    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--format", "json"]) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: audit.circle_identity_sweep(50),
        lambda: audit.hyperbola_identity_sweep(50),
        lambda: _pair_audit("circle", "audit-exy", "--from", "3/5,4/5", "--to", "-5/13,12/13"),
        lambda: _pair_audit("hyper", "audit", "--from", "5/4,3/4", "--to", "5/3,4/3"),
    ],
    ids=["circle-sweep", "hyperbola-sweep", "circle-pair", "hyperbola-pair"],
)
def test_identity_audit_builds_no_fraction(call):
    # the count sees both Fractions built by name and those arithmetic returns
    assert _fraction_constructions(lambda: Fraction(1, 2) + Fraction(1, 3)) == 3
    assert _fraction_constructions(call) == 0


@st.composite
def curve_triples(draw, curve):
    """The triples of points reached from (1, 0) by drawn parameters, after (1, 0) and (-1, 0).

    (1, 0) and (-1, 0) give pairs with an indeterminate side on both curves,
    and (-1, 0), like every parameter |Delta| > 1, lies on the hyperbola's
    other branch.
    """
    finite = st.fractions(min_value=-12, max_value=12, max_denominator=12)
    if curve.s < 0:
        finite = finite.filter(lambda delta: abs(delta) != 1)
    deltas = draw(st.lists(st.one_of(st.just(INF), finite), max_size=5))
    triples = [(1, 0, 1), (-1, 0, 1)]
    for delta in deltas:
        x, y = oracle.rotation_matrix(curve, delta).apply(1, 0)
        triples.append((x.numerator, y.numerator, x.denominator))
    return triples


SWEEPS = [
    (CIRCLE, "circle_triples", audit.circle_identity_sweep, _oracle_circle_report),
    (HYPERBOLA, "hyperbola_triples", audit.hyperbola_identity_sweep, _oracle_hyperbola_report),
]


@pytest.mark.parametrize("curve, triples_name, sweep, former", SWEEPS, ids=["circle", "hyperbola"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_loop_equals_the_fraction_audit(curve, triples_name, sweep, former, data):
    triples = data.draw(curve_triples(curve))
    rendered = _rendered_sweep(curve, triples)
    assert rendered == _oracle_sweep(curve, triples)
    assert any(entry["sides_equal"] is None for entry in rendered)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, triples_name, lambda bound: triples)
        assert sweep(7) == former(7, triples)


class TestPathsRealDataNeverReaches:
    def test_wrong_left_form_is_reported(self, monkeypatch):
        curve = Conic(1, "circle", "rotation", "CircleElement", _hyperbola_left_form)
        monkeypatch.setattr(audit, "CIRCLE", curve)
        report = audit.circle_identity_sweep(10)
        assert report["identity_holds"] is False
        assert report["side_mismatches"]
        assert report["both_defined"] > report["sides_agree"]
        for entry in report["side_mismatches"] + report["solver_mismatches"]:
            source, _, target = entry["pair"][1:-1].partition(") -> (")
            source = tuple(map(Fraction, source.split(",")))
            target = tuple(map(Fraction, target.split(",")))
            assert entry == _oracle_rendering(curve, source, target)

    @pytest.mark.parametrize("curve, triples", CURVES, ids=["circle", "hyperbola"])
    def test_failed_action_check_raises(self, curve, triples):
        class Broken(Conic):
            def compose_pair(self, first, second):
                n, m = super().compose_pair(first, second)
                return -n, m

        broken = Broken(curve.s, curve.name, curve.motion, "Broken", curve.left_form)
        with pytest.raises(ArithmeticError, match="transitivity solve failed"):
            list(broken.identity_pairs(triples(10), triples(10)))

    def test_law_sample_keeps_no_pair_list(self):
        audit.circle_law_sample(random.Random(0), 100)  # warm caches and imports
        tracemalloc.start()
        try:
            report = audit.circle_law_sample(random.Random(0), 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["holds"] is True
        # holding all 20,000 sampled pairs at once takes about 3.6 MB
        assert peak < 100_000

    def test_sweep_keeps_no_per_pair_list(self):
        audit.circle_identity_sweep(40)  # warm caches and imports
        tracemalloc.start()
        try:
            report = audit.circle_identity_sweep(40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["pairs"] == 2704
        # holding the flags of all pairs at once takes about 350 kB
        assert peak < 100_000

    def test_off_curve_point_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="point 1/1,1/1 is not on the unit circle"):
            list(CIRCLE.identity_pairs([(1, 1, 1)], [(1, 1, 1)]))


SPECIAL_PAIRS = [(d1, d2) for d1 in audit.SPECIAL_DELTAS for d2 in audit.SPECIAL_DELTAS]


def _former_draw(rng, span=30):
    # the law sample's draw as a Fraction: the oracle for audit._random_pair
    if rng.random() < 0.05:
        return INF
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _sampled_pairs(count, seed):
    rng = random.Random(seed)
    return [(_former_draw(rng), _former_draw(rng)) for _ in range(count)]


def _as_mat2(entries, scale):
    return Mat2(*(Fraction(entry, scale) for entry in entries))


class TestIntegerMatrices:
    @pytest.mark.parametrize("delta", [*audit.SPECIAL_DELTAS, Fraction(1, 2), Fraction(-7, 4), Fraction(30, 29)])
    def test_matrix_pair_is_the_rotation_matrix(self, delta):
        assert _as_mat2(*CIRCLE.matrix_pair(*projective_pair(delta))) == oracle.rotation_matrix(CIRCLE, delta)

    @pytest.mark.parametrize("delta", [Fraction(0), INF, Fraction(1, 2), Fraction(-7, 4), Fraction(3)])
    def test_hyperbola_matrix_pair_is_the_boost_matrix(self, delta):
        assert _as_mat2(*HYPERBOLA.matrix_pair(*projective_pair(delta))) == oracle.rotation_matrix(HYPERBOLA, delta)

    def test_law_against_mat2_products(self):
        for d1, d2 in SPECIAL_PAIRS + _sampled_pairs(300, 3):
            product = oracle.rotation_matrix(CIRCLE, d1) * oracle.rotation_matrix(CIRCLE, d2)
            law = CIRCLE.compose_pair(projective_pair(d1), projective_pair(d2))
            assert _as_mat2(*CIRCLE.matrix_pair(*law)) == product

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_law_sample_verdicts_match_mat2(self, seed):
        # the sample draws its pairs from the same seeded generator
        report = audit.circle_law_sample(random.Random(seed), 400)
        expected = [
            (format_projective(d1), format_projective(d2))
            for d1, d2 in SPECIAL_PAIRS + _sampled_pairs(400 - len(SPECIAL_PAIRS), seed)
            if oracle.rotation_matrix(CIRCLE, oracle.compose_delta(CIRCLE, d1, d2))
            != oracle.rotation_matrix(CIRCLE, d1) * oracle.rotation_matrix(CIRCLE, d2)
        ]
        assert report["mismatches"] == expected == []
        assert report["pairs_checked"] == 400

    def test_law_sample_reports_a_broken_law(self, monkeypatch):
        compose_pair = CIRCLE.compose_pair
        monkeypatch.setattr(CIRCLE, "compose_pair", lambda first, second: compose_pair(first, (0, 1)))
        report = audit.circle_law_sample(random.Random(0), 40)
        assert report["holds"] is False
        assert ("0/1", "1/1") in [tuple(pair) for pair in report["mismatches"]]

    def test_law_sample_reports_an_indeterminate_law(self, monkeypatch):
        # (0 : 0) has the zero matrix over scale 0, which cross-multiplies equal to anything
        monkeypatch.setattr(CIRCLE, "compose_pair", lambda first, second: (0, 0))
        report = audit.circle_law_sample(random.Random(0), 40)
        assert report["holds"] is False
        assert len(report["mismatches"]) == 40

    def test_law_sample_draws_the_former_parameters(self):
        for seed in range(10):
            rng, former = random.Random(seed), random.Random(seed)
            for _ in range(2000):
                assert audit._random_pair(rng) == projective_pair(_former_draw(former))
            assert rng.random() == former.random()
