"""Repository tooling: the benchmark tracer's targets and the README layout.

``perfbench/tracer.py`` wraps a few helpers by name (``"layer:qualname"``).
Its own tests live outside this suite, so a rename here would otherwise
break ``perfbench/run.py --trace 1`` unseen.  The tracer is loaded from its
file without writing bytecode next to it.  The README's Layout block must
name every module of the package, no more and no fewer, and no module may
import at its top level a name it never uses.  A function imports a sibling
module only where an import cycle forces it.  The rational kernel in
``fields.py`` builds ``Fraction``s from their two slots; that one interpreter
assumption is pinned here, and no other module may touch the slots.  The
normaliser's traffic is pinned too: a drawn series and a product each reach
``make_series`` once, with a list of plain pairs, and the field work the
tracer's ``fields.*`` counters see per step or per checked pair is fixed.
So is the interpreter work of a correction step, of a sampled term and of a
parsed or printed term, and the slotted layout of the values a step builds
without ``__init__``.
"""

import ast
import copy
import dataclasses
import functools
import gc
import importlib.util
import pickle
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hahnsolve  # noqa: F401  (the tracer resolves targets in sys.modules)
from hahnsolve import fields, series

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer_readonly", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_named_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    targets = [t for group in tracer.COUNT_ONLY.values() for t in group]
    targets += [*tracer.EXTRA_SPANS, tracer.GRID, *tracer._MEASURES]
    assert "pseudo_direct:_grid" in targets
    for target in targets:
        assert callable(tracer._resolve(target)[2]), target


def test_every_rational_field_operation_is_counted(monkeypatch):
    """An override of any of these would leave ``fields.op_calls`` or
    ``fields.is_zero_calls`` blind to the calls it takes over."""
    tracer = _load_tracer(monkeypatch)
    counted = {
        t for name, group in tracer.COUNT_ONLY.items() if name.startswith("fields.") for t in group
    }
    for op in ("add", "mul", "neg", "inv", "sub", "div", "is_zero"):
        owner = next(c for c in fields.RationalField.__mro__ if op in vars(c))
        assert f"fields:{owner.__name__}.{op}" in counted, op


def test_readme_layout_names_every_module():
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py)\b", layout, flags=re.MULTILINE)
    modules = sorted(p.name for p in (ROOT / "src" / "hahnsolve").glob("*.py"))
    assert sorted(listed) == [m for m in modules if m != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at its top level and never names again."""
    tree = ast.parse(source)
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in named]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src" / "hahnsolve").glob("*.py"))
    unused = {
        m.name: names
        for m in modules
        if m.name != "__init__.py" and (names := _unused_imports(m.read_text()))
    }
    assert unused == {}


def test_the_unused_import_finder_sees_one():
    source = "from typing import Any, Sequence\nimport os\n\nx: Sequence = os.sep\n"
    assert _unused_imports(source) == ["Any"]


def _sibling_imports_in_functions(source: str, module: str) -> list[str]:
    """``module.qualname -> sibling`` for each relative import in a function body."""
    found = []

    def visit(node: ast.AST, path: list[str], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.ImportFrom) and child.level:
                found.append(f"{'.'.join(path)} -> {child.module or child.names[0].name}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(child, [*path, child.name], in_function or is_function)
            else:
                visit(child, path, in_function)

    visit(ast.parse(source), [module], False)
    return found


# parsing imports series, so series can reach parsing only at call time
_CYCLE_FORCED = {"series.Series.__str__ -> parsing"}


def test_no_function_imports_a_sibling_unless_a_cycle_forces_it():
    modules = sorted((ROOT / "src" / "hahnsolve").glob("*.py"))
    found = [f for m in modules for f in _sibling_imports_in_functions(m.read_text(), m.stem)]
    assert set(found) - _CYCLE_FORCED == set()


def test_the_function_import_finder_sees_nested_ones():
    source = (
        "from . import top\n\ndef f():\n    from .a import x\n\n"
        "class K:\n    def g(self):\n        import os\n        from . import b\n"
    )
    assert _sibling_imports_in_functions(source, "m") == ["m.f -> a", "m.K.g -> b"]


def _is_object_new(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def _slot_access(source: str) -> list[str]:
    """``object.__new__(Fraction)`` calls, directly or through a name bound to
    ``object.__new__``, and reads or writes of ``Fraction``'s slots, by line."""
    tree = ast.parse(source)
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_object_new(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator"):
            found.append(f"{node.lineno}:{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and (_is_object_new(node.func) or getattr(node.func, "id", None) in aliases)
            and node.args[:1]
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "Fraction"
        ):
            found.append(f"{node.lineno}:new")
    return sorted(found)


def test_only_the_kernel_touches_fraction_slots():
    modules = sorted((ROOT / "src" / "hahnsolve").glob("*.py"))
    touching = {m.name for m in modules if _slot_access(m.read_text())}
    assert touching == {"fields.py"}


def test_the_slot_access_finder_sees_each_form():
    source = (
        "new = object.__new__\nq = new(Fraction)\nq._numerator = 1\nx = q.numerator\n"
        "s = object.__new__(Series)\nr = object.__new__(Fraction)\n"
    )
    assert _slot_access(source) == ["2:new", "3:_numerator", "6:new"]


@pytest.mark.parametrize(
    "n, d", [(0, 1), (1, 1), (-3, 4), (7, 2), (2**64 + 1, 3), (-(2**80), 2**70 + 1)]
)
def test_a_kernel_fraction_is_a_fraction(n, d):
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    built, reference = fields._q(n, d), Fraction(n, d)
    assert type(built) is Fraction and built == reference
    assert [f(built) for f in (hash, repr, str)] == [f(reference) for f in (hash, repr, str)]


def _count_field_calls(monkeypatch) -> dict:
    """Calls the tracer's ``fields.*`` counters see, by method name."""
    tracer = _load_tracer(monkeypatch)
    calls = {}
    for counter, targets in tracer.COUNT_ONLY.items():
        if not counter.startswith("fields."):
            continue
        for target in targets:
            owner, attr, original = tracer._resolve(target)

            def counted(*args, _original=original, _attr=attr):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _original(*args)

            monkeypatch.setattr(owner, attr, counted)
    return calls


# The field work of one integrate step, by counted target: the section's
# div (its mul and inv inside), the derivative's mul, the residual update's
# neg and add, and a zero test in each of the three.
STEP_FIELD_WORK = {"div": 1, "mul": 2, "inv": 1, "neg": 1, "add": 1, "is_zero": 3}


@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
@pytest.mark.parametrize("name", ["ddt", "euler"])
def test_field_work_per_correction_step_is_pinned(monkeypatch, field, name):
    """Counts the calls the tracer's ``fields.*`` counters see.  A ``sub`` in
    the residual update would add a counted call (``sub`` plus its inner
    ``add`` and ``neg``) to every step."""
    calls = _count_field_calls(monkeypatch)
    group = hahnsolve.INTEGERS
    dspec = hahnsolve.DifferentialFieldSpec(
        field, group, getattr(hahnsolve, name)(field, group)
    )
    # over GF(7) ddt has no preimage for 6 and euler none for 7
    exponents = [-3, -2, 1, 2, 3, 4, 5, 8, 9, 10]
    b = dspec.space.series([(g % 5 + 1, g) for g in exponents])
    n = len(exponents)
    calls.clear()
    assert hahnsolve.integrate(dspec, b).iterations == n
    assert calls == {op: n * k for op, k in STEP_FIELD_WORK.items()}


@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
def test_field_work_per_decompose_step_is_pinned(monkeypatch, field):
    """A residue-family step hands the leading term over as is, so its only
    field work is the residual update's neg, add and zero test."""
    calls = _count_field_calls(monkeypatch)
    group = hahnsolve.INTEGERS
    family = [hahnsolve.parse_subgroup(field, group, f"mod:3:{r}") for r in range(3)]
    exponents = [-3, -2, 1, 2, 3, 4, 5, 8, 9, 10]
    a = hahnsolve.SeriesSpace(field, group).series([(g % 5 + 1, g) for g in exponents])
    n = len(exponents)
    calls.clear()
    assert hahnsolve.decompose_solve(family, a).iterations == n
    assert calls == {"neg": n, "add": n, "is_zero": n}


def _record_make_series(monkeypatch) -> list:
    """The term lists ``series.make_series`` receives, rebound in every module
    that imported it, as the tracer rebinds it."""
    original = series.make_series
    seen = []

    def recording(field, group, terms, truncation=hahnsolve.INFINITY):
        seen.append(terms)
        return original(field, group, terms, truncation)

    for name, module in list(sys.modules.items()):
        if name == "hahnsolve" or name.startswith("hahnsolve."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return seen


def _plain_pairs(terms) -> bool:
    return type(terms) is list and all(type(t) is tuple and len(t) == 2 for t in terms)


def test_a_drawn_series_is_normalised_once_from_all_its_pairs(monkeypatch):
    """``series.terms_normalised`` reads the ``terms`` argument: a draw of
    ``count`` terms, repeats included, must hand over all of them at once."""
    seen = _record_make_series(monkeypatch)
    space = hahnsolve.SeriesSpace(hahnsolve.QQ, hahnsolve.INTEGERS)
    repeats = 0
    for seed in range(20):
        seen.clear()
        s = hahnsolve.random_series(random.Random(seed), space, -3, 3, 8)
        count = random.Random(seed).randint(0, 8)  # the draw's first number
        assert len(seen) == 1 and _plain_pairs(seen[0]) and len(seen[0]) == count
        repeats += count - len(s.terms)
    assert repeats > 0


def test_a_product_is_normalised_once_from_its_m_by_n_pairs(monkeypatch):
    seen = _record_make_series(monkeypatch)
    space = hahnsolve.SeriesSpace(hahnsolve.QQ, hahnsolve.INTEGERS)
    a = space.series([(1, 0), (2, 1), (3, 2)])
    b = space.series([(1, 0), (-1, 1)])
    product = space.series([(1, 0), (1, 1), (1, 2), (-3, 3)])
    seen.clear()
    assert a.mul(b) == product
    assert len(seen) == 1 and _plain_pairs(seen[0]) and len(seen[0]) == 3 * 2


# The field work of check_leibniz on one pair of 3- and 4-term series under
# d/dt, by counted target: a scale for each of the 8 + 4 + 3 terms it
# differentiates and 12 + 9 + 8 products in its three muls; the sums, negatives
# and zero tests come from normalising the products, the add and the eq.
LEIBNIZ_FIELD_WORK = {"mul": 44, "add": 21, "neg": 7, "is_zero": 49}


@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
def test_field_work_per_leibniz_pair_is_pinned(monkeypatch, field):
    calls = _count_field_calls(monkeypatch)
    group = hahnsolve.INTEGERS
    dspec = hahnsolve.DifferentialFieldSpec(field, group, hahnsolve.ddt(field, group))
    a = dspec.space.series([(1, 0), (2, 1), (3, 3)])
    b = dspec.space.series([(1, -2), (4, 0), (5, 1), (6, 2)])
    calls.clear()
    assert hahnsolve.check_leibniz(dspec, [(a, b)]).ok
    assert calls == LEIBNIZ_FIELD_WORK


def _python_calls(fn) -> int:
    """The ``"call"`` events ``sys.setprofile`` sees while ``fn`` runs: one
    per Python-level function entered, none for a builtin or a C method.
    The collector is paused, so no ``gc.callbacks`` entry (Hypothesis
    installs one) lands in the count."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return count


# Python-level calls per correction step on CPython 3.11, by case; the parent
# of this pin read QQ ddt 63, QQ euler 61, GF(7) ddt 47, GF(7) euler 45,
# QQ mod:3 43 and GF(7) mod:3 38 (30 and 26 before ``ProductGroup.total``
# lost its two per-part generators), QQ ddt and euler 41, GF(7) ddt and
# euler 36, QQ mod:3 28 and GF(7) mod:3 24 before a step's value and witness
# were built through their slots and GF(p)'s coerce left ``isinstance``, and
# QQ ddt and euler 40, GF(7) ddt and euler 32, QQ mod:3 26 and GF(7) mod:3 22
# before terms and trace steps were built by ``tuple.__new__``, the space's
# ``valuation`` became the series' own and ``SupportSubgroup.part`` read the
# leading term directly.
STEP_CALLS = {
    ("rationals", "ddt"): 36,
    ("rationals", "euler"): 36,
    ("gf(7)", "ddt"): 28,
    ("gf(7)", "euler"): 28,
    ("rationals", "mod:3"): 22,
    ("gf(7)", "mod:3"): 18,
}


@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
@pytest.mark.parametrize("name", ["ddt", "euler", "mod:3"])
def test_interpreter_work_per_step_is_pinned(field, name):
    """Python-level calls of one exact correction step, counted on CPython 3.11
    as the calls of a 10-term solve less those of a 4-term one (set-up and
    the final sum cancel), must not grow.  An interpreter that inlines more
    (comprehensions on 3.12) counts fewer."""
    group = hahnsolve.INTEGERS
    exponents = [-3, -2, 1, 2, 3, 4, 5, 8, 9, 10]
    space = hahnsolve.SeriesSpace(field, group)
    if name == "mod:3":
        family = [hahnsolve.parse_subgroup(field, group, f"mod:3:{r}") for r in range(3)]
        solve = functools.partial(hahnsolve.decompose_solve, family)
    else:
        derivation = getattr(hahnsolve, name)(field, group)
        dspec = hahnsolve.DifferentialFieldSpec(field, group, derivation)
        solve = functools.partial(hahnsolve.integrate, dspec)
    calls = {}
    for n in (10, 4):
        b = space.series([(g % 5 + 1, g) for g in exponents[:n]])
        assert solve(b).iterations == n  # also warms every path up
        calls[n] = _python_calls(functools.partial(solve, b))
    steps = calls[10] - calls[4]
    assert steps <= 6 * STEP_CALLS[(field.name, name)], steps / 6


# Python-level calls per drawn term of ``random_series`` on [-10, 10] with up
# to six terms on CPython 3.11, by (field, group), the series' fixed cost
# shared among its terms; the parent of this pin read QQ int 16.4, GF(7) int
# 12.1, QQ rat 34.6 and GF(7) rat 29.4, when each number took ``choice`` and
# ``_randbelow`` and each ``rat`` exponent a ``Fraction(n, d)``.
SAMPLE_CALLS = {
    ("rationals", "int"): 7.7,
    ("gf(7)", "int"): 8.4,
    ("rationals", "rat"): 22.9,
    ("gf(7)", "rat"): 22.5,
}


@pytest.mark.parametrize("group", [hahnsolve.INTEGERS, hahnsolve.RATIONALS], ids=str)
@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
def test_interpreter_work_per_sampled_term_is_pinned(field, group):
    """Python-level calls of 200 seeded draws less those of their first 100,
    over the terms the last 100 returned, must not grow."""
    space = hahnsolve.SeriesSpace(field, group)
    hahnsolve.random_series(random.Random(1), space, -10, 10, 6)  # warms every path up
    calls, terms = {}, {}
    for n in (200, 100):
        rng, drawn = random.Random(0), []
        draw = lambda: [hahnsolve.random_series(rng, space, -10, 10, 6) for _ in range(n)]
        calls[n] = _python_calls(lambda: drawn.extend(draw()))
        terms[n] = sum(len(s.terms) for s in drawn)
    per_term = (calls[200] - calls[100]) / (terms[200] - terms[100])
    assert per_term <= SAMPLE_CALLS[(field.name, group.name)], per_term


def _pinned_text(n: int, group) -> str:
    """``n`` terms with distinct exponents, the fourth at zero and the seventh
    with a unit coefficient; every other term has a ``/`` coefficient and,
    over ``rat``, a ``/`` exponent."""
    terms = []
    for i in range(n):
        coeff = "1" if i == 6 else f"{i + 1}/3" if i % 2 else f"-{i + 2}"
        exp = f"{2 * i - 5}/2" if group is hahnsolve.RATIONALS and i % 2 else str(i - 3)
        terms.append(f"{coeff}*t^{exp}")
    return " + ".join(terms)


# Python-level calls per term of the text layer on CPython 3.11, by
# (direction, field, group); the parent of this pin read print QQ int 8.75,
# QQ rat 12.75, GF(7) int 4.5, GF(7) rat 8.5 and parse QQ int 9.5, QQ rat
# 19, GF(7) int 13, GF(7) rat 22.5 on these texts (GF(7) int 12 and rat 21.5
# while GF(p)'s coerce still used ``isinstance``).
TEXT_CALLS = {
    ("print", "rationals", "int"): 2,
    ("print", "rationals", "rat"): 2,
    ("print", "gf(7)", "int"): 2,
    ("print", "gf(7)", "rat"): 2,
    ("parse", "rationals", "int"): 8.5,
    ("parse", "rationals", "rat"): 18,
    ("parse", "gf(7)", "int"): 11.5,
    ("parse", "gf(7)", "rat"): 21,
}


@pytest.mark.parametrize("group", [hahnsolve.INTEGERS, hahnsolve.RATIONALS], ids=str)
@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
@pytest.mark.parametrize("direction", ["parse", "print"])
def test_interpreter_work_per_text_term_is_pinned(direction, field, group):
    """Python-level calls per term of ``parse_series`` or ``series_to_text``,
    counted on CPython 3.11 as those of an 8-term text less those of a
    4-term one (the fixed cost cancels), must not grow."""
    calls = {}
    for n in (8, 4):
        text = _pinned_text(n, group)
        s = hahnsolve.parse_series(field, group, text)
        assert len(s.terms) == n
        if direction == "parse":
            run = functools.partial(hahnsolve.parse_series, field, group, text)
        else:
            assert hahnsolve.parse_series(field, group, hahnsolve.series_to_text(s)) == s
            run = functools.partial(hahnsolve.series_to_text, s)
        calls[n] = _python_calls(run)
    per_term = (calls[8] - calls[4]) / 4
    assert per_term <= TEXT_CALLS[(direction, field.name, group.name)], per_term


def _unchecked_and_checked(kind: str, field) -> tuple:
    """One object of ``kind`` built the way a correction step builds it (no
    ``__init__``), and its twin from the checked constructor."""
    group = hahnsolve.INTEGERS
    space = hahnsolve.SeriesSpace(field, group)
    cut = hahnsolve.OrderedValue(6)
    pairs = [(3, -2), (Fraction(1, 2), 1), (5, 4)]
    a = space.series([*pairs, (1, 9)], cut)  # the last term lies past the cut
    terms = tuple(hahnsolve.Term(field.coerce(c), g) for c, g in pairs)
    if kind == "Series":
        return a, hahnsolve.Series(field, group, terms, cut)
    if kind == "OrderedValue":
        return a.valuation(), hahnsolve.OrderedValue(-2)
    if kind == "OrderedValue bound":
        return a.valuation_lower_bound(), hahnsolve.OrderedValue(-2)
    family = [hahnsolve.parse_subgroup(field, group, f"mod:3:{r}") for r in range(3)]
    zero = hahnsolve.Series(field, group, ())
    lead = hahnsolve.Series(field, group, terms[:1])
    return hahnsolve.pseudo_direct_section(family, a), hahnsolve.ProductElement((zero, lead, zero))


@pytest.mark.parametrize("field", [hahnsolve.QQ, hahnsolve.PrimeField(7)], ids=str)
@pytest.mark.parametrize("kind", ["Series", "OrderedValue", "OrderedValue bound", "ProductElement"])
def test_step_values_are_slotted_frozen_and_equal_to_their_checked_twins(kind, field):
    """``Series``, ``OrderedValue`` and ``ProductElement`` keep no ``__dict__``
    (a step reads their fields through slots and builds them by setting the
    slots), refuse assignment, and an unchecked build is indistinguishable
    from the checked constructor's, through a deep copy and a pickle too."""
    built, twin = _unchecked_and_checked(kind, field)
    assert type(built) is type(twin)
    assert not hasattr(built, "__dict__") and not hasattr(twin, "__dict__")
    name = dataclasses.fields(built)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(twin, name))
    assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)
    for copied in (copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(copied) is type(twin) and copied == twin and hash(copied) == hash(twin)
