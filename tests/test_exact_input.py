"""One rule for exact input: `rationals.exact` and `rationals.integer` guard every entry point.

Each coercion site takes an int or a Fraction only, and each integer
parameter an int that is not a bool; anything else raises
InvalidArgumentError instead of being truncated, parsed from text or read
as a binary fraction.
"""

import ast
import operator
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import fermatgroups
from fermatgroups import audit, circle, cyclotomic, monomial, search, stroboscope
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.errors import InvalidArgumentError
from fermatgroups.rationals import Mat2, as_projective, exact, format_rational, integer, rational

HALF = Fraction(1, 2)

# one call per coercion site, with the value under test in the checked place
COERCIONS = {
    "as_projective": lambda v: as_projective(v),
    "rational": lambda v: rational(v),
    "format_rational": lambda v: format_rational(v),
    "Mat2": lambda v: Mat2(v, 0, 0, 1),
    "Mat2.apply": lambda v: Mat2.identity().apply(v, 0),
    "conic point": lambda v: circle.on_circle((v, 0)),
    "CyclotomicNumber coefficient": lambda v: CyclotomicNumber(3, (0, v)),
    "CyclotomicNumber.from_rational": lambda v: CyclotomicNumber.from_rational(3, v),
    "cyclo_vector": lambda v: monomial.cyclo_vector(3, (v, 0)),
    "rational_kth_root": lambda v: search.rational_kth_root(v, 2),
    "n_counterexample": lambda v: search.n_counterexample(3, v),
}

# one call per integer parameter
INTEGERS = {
    "primitive_triples bound": lambda v: circle.primitive_triples(v),
    "euler_phi k": lambda v: cyclotomic.euler_phi(v),
    "cyclotomic_polynomial k": lambda v: cyclotomic.cyclotomic_polynomial(v),
    "CyclotomicNumber k": lambda v: CyclotomicNumber(v),
    "root_of_unity k": lambda v: CyclotomicNumber.root_of_unity(v, 1),
    "root_of_unity exponent": lambda v: CyclotomicNumber.root_of_unity(3, v),
    "CyclotomicNumber power": lambda v: CyclotomicNumber.one(3) ** v,
    "element_limit override": lambda v: monomial.element_limit(v),
    "group order k": lambda v: monomial.group_order(v, 2),
    "group order n": lambda v: monomial.group_order(3, v),
    "MonomialMatrix permutation entry": lambda v: monomial.MonomialMatrix(3, (v, 0), (0, 0)),
    "MonomialMatrix exponent": lambda v: monomial.MonomialMatrix(3, (1, 0), (0, v)),
    "Mat2 power": lambda v: Mat2.identity() ** v,
    "height bound": lambda v: search.reduced_fractions(v),
    "rational_kth_root k": lambda v: search.rational_kth_root(Fraction(4), v),
    "search_n k": lambda v: search.search_n(v, 2, 5),
    "search_n n": lambda v: search.search_n(2, v, 5),
    "search_n budget": lambda v: search.search_n(3, 2, 10, budget=v),
    "search_solutions budget": lambda v: search.search_solutions(3, 10, budget=v),
    "n_counterexample k": lambda v: search.n_counterexample(v, HALF),
    "iterate steps": lambda v: stroboscope.iterate(HALF, (1, 0), v),
    "power_parameter m": lambda v: stroboscope.power_parameter(HALF, v),
    "period_check limit": lambda v: stroboscope.period_check(HALF, v),
    "audit seed": lambda v: audit.run_audit_suite(v),
    "circle_law_sample pairs": lambda v: audit.circle_law_sample(random.Random(0), v),
    "monomial_law_sample pairs": lambda v: audit.monomial_law_sample(random.Random(0), v),
}

# integer parameters that take any int, negative ones too
UNBOUNDED = {"root_of_unity exponent", "audit seed", "MonomialMatrix permutation entry", "MonomialMatrix exponent"}


@pytest.mark.parametrize("value", [0.5, 1.0, True, "1/2", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("site", COERCIONS)
def test_coercion_sites_take_only_ints_and_fractions(site, value):
    with pytest.raises(InvalidArgumentError, match="not an exact rational"):
        COERCIONS[site](value)


# one value of each arithmetic type, each with +, - and * defined on its own kind
OPERANDS = {
    "CyclotomicNumber": CyclotomicNumber.one(3),
    "MonomialMatrix": monomial.MonomialMatrix.identity(3, 2),
    "Mat2": Mat2.identity(),
}


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=lambda op: op.__name__)
@pytest.mark.parametrize("kind", OPERANDS)
def test_arithmetic_refuses_text_operands(kind, op):
    # text is never parsed as a number, on either side of the operator
    value = OPERANDS[kind]
    with pytest.raises(TypeError):
        op(value, "1")
    with pytest.raises(TypeError):
        op("1", value)


@pytest.mark.parametrize("value", [True, 1.0, Fraction(1), "1"], ids=repr)
@pytest.mark.parametrize("site", INTEGERS)
def test_integer_parameters_take_only_ints(site, value):
    bound = "" if site in UNBOUNDED else r" >= -?\d+"
    with pytest.raises(InvalidArgumentError, match=rf"must be an integer{bound}, got {re.escape(repr(value))}$"):
        INTEGERS[site](value)


@pytest.mark.parametrize("sample", [audit.circle_law_sample, audit.monomial_law_sample])
def test_law_samples_refuse_a_negative_pair_count(sample):
    with pytest.raises(InvalidArgumentError, match=r"^law pairs must be an integer >= 0, got -1$"):
        sample(random.Random(0), -1)


@pytest.mark.parametrize("raw", ["True", "1.0"])
def test_env_limit_takes_only_integer_text(raw, monkeypatch):
    monkeypatch.setenv(monomial.ENV_LIMIT, raw)
    with pytest.raises(InvalidArgumentError, match=monomial.ENV_LIMIT):
        monomial.element_limit()


@pytest.mark.parametrize("site", COERCIONS)
def test_coercion_sites_accept_ints_and_fractions(site):
    for value in (1, HALF):
        try:
            COERCIONS[site](value)
        except InvalidArgumentError as exc:
            # a value may lie outside the call's domain, but it is exact input
            assert "not an exact rational" not in str(exc)


def test_exact_returns_its_argument_unchanged():
    big = 10**30
    assert exact(big) is big
    assert exact(HALF) is HALF


def test_integer_names_the_parameter_and_its_minimum():
    assert integer(3, 3, "k") == 3
    with pytest.raises(InvalidArgumentError, match=r"^k must be an integer >= 3, got 2$"):
        integer(2, 3, "k")
    with pytest.raises(InvalidArgumentError, match=r"^k must be an integer >= 0, got True$"):
        integer(True, 0, "k")
    # no minimum: any int, and the message names no bound
    assert integer(-10**30, None, "seed") == -10**30
    with pytest.raises(InvalidArgumentError, match=r"^seed must be an integer, got 1.0$"):
        integer(1.0, None, "seed")


# the one diagnostic allowed a float: the law sample's seeded draw; no scope
# may read a clock
INEXACT_SCOPES = {"audit._random_pair"}
INEXACT_CALLS = {
    "float", "log", "log2", "log10", "sqrt", "exp",
    "perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns", "process_time",
    "now", "utcnow", "today",
}
CLOCK_MODULES = {"time", "datetime"}


def _package_trees():
    """(path, parsed module) for every module of the package."""
    for path in sorted(Path(fermatgroups.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _inexact_sites():
    """(top-level definition, line, what) for every float literal and float or clock call in the package."""
    for path, tree in _package_trees():
        for statement in tree.body:
            scope = f"{path.stem}.{getattr(statement, 'name', '<module>')}"
            for node in ast.walk(statement):
                if isinstance(node, ast.Constant) and type(node.value) is float:
                    yield scope, node.lineno, repr(node.value)
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in INEXACT_CALLS:
                        yield scope, node.lineno, f"{name}()"


def test_floats_and_clocks_stay_in_the_diagnostics():
    sites = list(_inexact_sites())
    assert [site for site in sites if site[0] not in INEXACT_SCOPES] == []
    # the scan sees the diagnostics themselves
    assert {scope for scope, _, _ in sites} == INEXACT_SCOPES


def _imported_modules():
    """(file, line, module) for every absolute import in the package."""
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_no_module_imports_a_clock():
    # a clock read through `datetime.now()` or `time.time()` would need one of these imports
    assert [site for site in _imported_modules() if site[2].partition(".")[0] in CLOCK_MODULES] == []


def test_only_rationals_reads_the_int_str_digit_limit():
    # the limit's reads, its bound and its messages live in one module, so they cannot disagree
    def reads(node):
        name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
        return isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name == "get_int_max_str_digits"

    readers = {path.stem for path, tree in _package_trees() for node in ast.walk(tree) if reads(node)}
    assert readers == {"rationals"}


def _output_sites():
    """(top-level definition, line, what) for every stdout reference, bare print and `_write_file` call in the package."""
    for path, tree in _package_trees():
        for statement in tree.body:
            scope = f"{path.stem}.{getattr(statement, 'name', '<module>')}"
            for node in ast.walk(statement):
                name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
                if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name in ("stdout", "__stdout__"):
                    yield scope, node.lineno, name
                elif isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called == "_write_file" or called == "print" and "file" not in {kw.arg for kw in node.keywords}:
                        yield scope, node.lineno, f"{called}()"


def test_only_emit_writes_stdout_or_a_side_file():
    # one writer keeps every payload one write, after its side file, so a failing call prints nothing
    sites = list(_output_sites())
    assert [site for site in sites if site[0] != "cli._emit"] == []
    # the scan sees the writer itself
    assert {what for _, _, what in sites} == {"stdout", "_write_file()"}
