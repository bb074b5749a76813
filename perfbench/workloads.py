"""The four benchmark workloads: seeded inputs, the timed call, the oracle.

Inputs are generated here from ``random.Random`` seeded by the workload name
and ``--seed``, as plain data (ints, strings and tuples), so that the same
seed gives byte-identical inputs and no change to ``hahnsolve.sampling`` or
``hahnsolve.fixtures`` can change what is measured.  ``materialise`` turns the
plain data into hahnsolve objects during set-up.

Every materialised item has ``run()``, the timed call into hahnsolve, and
``check(out)``, the oracle applied to its result outside the timed interval.
``run`` looks hahnsolve functions up on their modules at call time, so the
traced pass sees the wrappers the tracer installs.  An expected refusal is
correct only when the expected typed error is raised.

Each workload groups its items into rounds of one fixed composition (the
same sizes and variants in every round and for every seed; only the content
is random), and the measured loop runs whole rounds, so every run measures
the same mix whatever its seed and wherever it stops.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

# -- plain-data helpers (benchmark's own; no hahnsolve) --------------------


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"hahnsolve-bench/{workload}/{seed}/{stream}")


def _coefficient(rng: random.Random, p: int) -> tuple[int, int]:
    """A nonzero coefficient as (numerator, denominator); p == 0 means QQ."""
    if p:
        return (rng.randint(1, p - 1), 1)
    return (rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 6))


def _value(p: int, c: tuple[int, int]):
    num, den = c
    return Fraction(num, den) if p == 0 else num * pow(den, -1, p) % p


def _exponent(group: str, e):
    if group == "rat":
        return Fraction(*e)
    if group == "lex2":
        return tuple(e)
    return e


def _plain_exponent(group: str, n: int):
    """The plain form of the integer ``n`` as an exponent of ``group``."""
    return (n, 1) if group == "rat" else n


def _exponent_text(group: str, e) -> str:
    if group == "rat":
        return str(Fraction(*e))
    if group == "lex2":
        return f"({e[0]},{e[1]})"
    return str(e)


def _is_zero_exponent(group: str, e) -> bool:
    return _exponent(group, e) == ((0, 0) if group == "lex2" else 0)


def _series_text(p: int, group: str, terms, bound=None) -> str:
    """Series grammar text for plain terms, written by the benchmark itself."""
    parts = []
    for c, e in terms:
        coeff = str(_value(p, c))
        if _is_zero_exponent(group, e):
            parts.append(coeff)
        elif coeff == "1":
            parts.append(f"t^{_exponent_text(group, e)}")
        else:
            parts.append(f"{coeff}*t^{_exponent_text(group, e)}")
    if not parts:
        parts = ["0"]
    if bound is not None:
        parts.append(f"O({_exponent_text(group, bound)})")
    return " + ".join(parts)


def _term_map(p: int, group: str, terms) -> dict:
    """Exponent -> field value with duplicates summed and zeros dropped."""
    acc: dict = {}
    for c, e in terms:
        g = _exponent(group, e)
        acc[g] = acc.get(g, 0) + _value(p, c)
        if p:
            acc[g] %= p
    return {g: c for g, c in acc.items() if c != 0}


def _map_of(series) -> dict:
    return {t.exponent: t.coefficient for t in series.terms}


def _combine(p: int, left: dict, right: dict, sign: int) -> dict:
    out = dict(left)
    for g, c in right.items():
        out[g] = out.get(g, 0) + sign * c
        if p:
            out[g] %= p
    return {g: c for g, c in out.items() if c != 0}


def _within(difference: dict, radius) -> bool:
    """Whether a difference of two series has valuation at least ``radius``."""
    return not difference or min(difference) >= radius


def _derivative_map(derivation: str, m: dict) -> dict:
    """ddt: c t^g -> c g t^(g-1); euler: c t^g -> c g t^g (rationals only)."""
    out = {}
    for g, c in m.items():
        if g != 0:
            out[g - 1 if derivation == "ddt" else g] = c * g
    return out


def _small_exponents(rng: random.Random, group: str, count: int, lo: int, hi: int, avoid=()):
    """``count`` distinct plain exponents in [lo, hi] (scaled for rat/lex2)."""
    seen, out = set(), []
    while len(out) < count:
        if group == "rat":
            den = rng.choice((1, 2, 3))
            e = (rng.randint(lo * den, hi * den), den)
        elif group == "lex2":
            e = (rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            e = rng.randint(lo, hi)
        value = _exponent(group, e)
        if value in seen or value in avoid:
            continue
        seen.add(value)
        out.append(e)
    return out


def _small_terms(rng, p, group, count=None, lo=-6, hi=8, max_terms=8, avoid=()):
    """``count`` terms (random in 1..max_terms when not given)."""
    exps = _small_exponents(rng, group, count or rng.randint(1, max_terms), lo, hi, avoid)
    return tuple((_coefficient(rng, p), e) for e in exps)


class Item:
    """A materialised request: ``run`` is timed, ``check`` is the oracle."""

    __slots__ = ("hs",)

    def run(self):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError


class Workload:
    """Plain inputs from a seed, materialised against one hahnsolve import."""

    name: str
    tail_pct: float  # latency_tail_ms percentile, with >= 10 samples beyond it
    trace_rounds: int  # rounds the traced pass runs (a fixed op list)
    pool_rounds_per_second: float = 0.0  # distinct rounds generated per --seconds

    def __init__(self, hs, seed: int, seconds: float):
        self.hs = hs
        plain = self.generate(seed, self.pool_rounds(seconds))
        self.rounds, self.warmup = self.materialise(plain)

    @classmethod
    def pool_rounds(cls, seconds: float) -> int:
        return max(4, int(cls.pool_rounds_per_second * seconds + 0.5))

    @classmethod
    def generate(cls, seed: int, n_rounds: int) -> dict:
        raise NotImplementedError

    def materialise(self, plain: dict):
        raise NotImplementedError


# -- integrate-long --------------------------------------------------------

_VARIANTS = (("ddt", "int"), ("euler", "int"), ("ddt", "rat"), ("euler", "rat"))
# one round: a geometric ladder of sizes, each with a fixed variant, plus two
# ddt targets that contain t^-1 and must be refused with Obstruction
_INTEGRATE_ROUND = tuple(
    (n, *_VARIANTS[j % 4], False) for j, n in enumerate((20, 28, 40, 56, 80, 113, 160, 226, 300))
) + ((80, "ddt", "int", True), (160, "ddt", "rat", True))


def _dense_target(rng, derivation, group, n, obstructed):
    """``n`` consecutive exponents k/den around zero with nonzero coefficients.

    Honest targets skip the exponent the derivation cannot reach (-1 for
    ddt, 0 for euler); obstructed ddt targets keep -1.
    """
    den = 1 if group == "int" else 2 if derivation == "ddt" else 3
    banned = -den if derivation == "ddt" else 0
    k = -(n // 3) + rng.randint(-3, 3)
    terms = []
    while len(terms) < n:
        if k != banned or obstructed:
            terms.append((_coefficient(rng, 0), k))
        k += 1
    return (derivation, group, den, tuple(terms), "obstruction" if obstructed else "ok")


class IntegrateItem(Item):
    __slots__ = ("dspec", "b", "expect")

    def run(self):
        return self.hs.integrate(self.dspec, self.b)

    def check(self, out):
        hs = self.hs
        if self.expect == "obstruction":
            return isinstance(out, hs.Obstruction) and out.exponent == -1
        return (
            isinstance(out, hs.SolveResult)
            and out.exact
            and hs.derive(self.dspec.derivation, out.solution) == self.b
            and out.solution == hs.termwise_integral_oracle(self.dspec, self.b)
        )


class IntegrateLong(Workload):
    name = "integrate-long"
    tail_pct = 90.0
    trace_rounds = 1
    pool_rounds_per_second = 3.0

    @classmethod
    def generate(cls, seed, n_rounds):
        rng = _rng(cls.name, seed)
        rounds = []
        for _ in range(n_rounds):
            items = [_dense_target(rng, d, g, n, bad) for n, d, g, bad in _INTEGRATE_ROUND]
            rng.shuffle(items)
            rounds.append(items)
        warmup = [_dense_target(rng, d, g, 20, False) for d, g in _VARIANTS]
        warmup.append(_dense_target(rng, "ddt", "int", 20, True))
        return {"rounds": rounds, "warmup": warmup}

    def materialise(self, plain):
        hs = self.hs
        dspecs = {}
        for derivation, group in _VARIANTS:
            g = hs.group_by_name(group)
            dspecs[derivation, group] = hs.DifferentialFieldSpec(
                hs.QQ, g, getattr(hs, derivation)(hs.QQ, g)
            )

        def build(spec):
            derivation, group, den, terms, expect = spec
            item = IntegrateItem()
            item.hs = hs
            item.dspec = dspecs[derivation, group]
            item.b = item.dspec.space.series(
                [
                    (Fraction(*c), k if group == "int" else Fraction(k, den))
                    for c, k in terms
                ]
            )
            item.expect = expect
            return item

        return [[build(s) for s in rnd] for rnd in plain["rounds"]], [
            build(s) for s in plain["warmup"]
        ]


# -- decompose-mixed -------------------------------------------------------

_PRIMES = (5, 7, 11, 101)
_SUPPORT_PRIME = {2: 5, 4: 7, 6: 101}


def _support_item(rng, k, p, n):
    """A long series over QQ or GF(p) against a full residue-class family."""
    selectors = ("even", "odd") if k == 2 else tuple(f"mod:{k}:{r}" for r in range(k))
    e = rng.randint(-30, 10)
    terms = []
    while len(terms) < n:
        terms.append((_coefficient(rng, p), e))
        e += 1 if rng.random() < 0.75 else 2
    return ("support", p, selectors, tuple(terms))


def _span_direct(rng, p):
    """Three span subgroups of 1, 1 and 2 four-term generators with pairwise
    distinct leading exponents; the target is a combination with every
    coefficient nonzero."""
    sizes = (1, 1, 2)
    leads = rng.sample(range(-6, 12), sum(sizes))
    groups, xs, i = [], [], 0
    for size in sizes:
        gens = []
        for lead in leads[i : i + size]:
            extra = rng.sample(range(lead + 1, lead + 13), 3)
            gens.append(tuple((_coefficient(rng, p), e) for e in [lead] + sorted(extra)))
            xs.append(_coefficient(rng, p))
        groups.append(tuple(gens))
        i += size
    return ("span", p, tuple(groups), tuple(xs), "ok")


def _cancelling_pair(rng, p):
    """span{c1 t^e + c2 t^(e+d)} and span{c3 t^e}: together they reach
    t^(e+d) only by cancelling at t^e, so no witness exists for it."""
    e, d = rng.randint(-5, 5), rng.randint(1, 4)
    c1, c2, c3 = (_coefficient(rng, p) for _ in range(3))
    return e, d, [((c1, e), (c2, e + d))], [((c3, e),)]


def _span_grid(rng, p):
    """The cancelling pair plus span{c7 t^(e+d)}; target k0*c7 t^(e+d).

    The particular solution of the cancellation system uses the first two
    subgroups and fails the witness test; the grid search finds offset k0,
    which moves the whole target into the third subgroup."""
    e, d, first, second = _cancelling_pair(rng, p)
    c7 = _coefficient(rng, p)
    k0 = rng.choice((-3, -2, -1, 1, 2, 3))
    target = ((c7[0] * k0, c7[1]), e + d)
    groups = (tuple(first), tuple(second), (((c7, e + d),),))
    return ("span", p, groups, (target,), "grid")


def _span_refused(rng, p, extra):
    """The cancelling pair, optionally with ``extra`` generators c t^e + c' t^(e+d')
    (d' > d) that add free directions; target t^(e+d) has no witness, so the
    section refuses after exhausting the grid."""
    e, d, first, second = _cancelling_pair(rng, p)
    groups = [tuple(first), tuple(second)]
    for shift in rng.sample(range(d + 1, d + 6), extra):
        groups.append((((_coefficient(rng, p), e), (_coefficient(rng, p), e + shift)),))
    target = ((_coefficient(rng, p), e + d),)
    return ("span", p, tuple(groups), target, "refuse")


class DecomposeItem(Item):
    __slots__ = ("subgroups", "a", "expect")

    def run(self):
        return self.hs.decompose_solve(self.subgroups, self.a)

    def check(self, out):
        hs = self.hs
        if self.expect == "refuse":
            return isinstance(out, hs.NotPseudoDirect)
        if not (isinstance(out, hs.SolveResult) and out.exact):
            return False
        parts = out.solution
        return (
            len(parts.components) == len(self.subgroups)
            and hs.sum_map(parts) == self.a
            and hs.check_pseudo_direct_witness(self.a, parts)
            and all(
                sub.contains_series(s) for sub, s in zip(self.subgroups, parts.components)
            )
        )


class DecomposeMixed(Workload):
    name = "decompose-mixed"
    tail_pct = 95.0
    trace_rounds = 2
    pool_rounds_per_second = 8.0

    @classmethod
    def generate(cls, seed, n_rounds):
        rng = _rng(cls.name, seed)
        rounds = []
        for _ in range(n_rounds):
            # k = 2..6 residue classes on 50..200 terms, over GF(p) for even k
            items = [
                _support_item(rng, k, _SUPPORT_PRIME.get(k, 0), n)
                for k, n in zip(range(2, 7), (50, 70, 100, 140, 200))
            ]
            items.append(_span_direct(rng, rng.choice((0,) + _PRIMES)))
            items.append(_span_grid(rng, rng.choice((0,) + _PRIMES)))
            # refusals with a unique solution, then with 1, 2 and 3 free directions
            items += [_span_refused(rng, rng.choice((0,) + _PRIMES), extra) for extra in range(4)]
            rng.shuffle(items)
            rounds.append(items)
        warmup = [
            _support_item(rng, 2, 0, 20),
            _support_item(rng, 3, 7, 20),
            _span_direct(rng, 0),
            _span_grid(rng, 5),
            _span_refused(rng, 0, 1),
        ]
        return {"rounds": rounds, "warmup": warmup}

    def materialise(self, plain):
        hs = self.hs
        spaces = {}

        def space(p):
            if p not in spaces:
                spaces[p] = hs.SeriesSpace(hs.PrimeField(p) if p else hs.QQ, hs.INTEGERS)
            return spaces[p]

        def series(p, terms):
            return space(p).series([(Fraction(*c), e) for c, e in terms])

        def build(spec):
            item = DecomposeItem()
            item.hs = hs
            kind, p = spec[0], spec[1]
            sp = space(p)
            if kind == "support":
                item.subgroups = [hs.parse_subgroup(sp.field, sp.group, s) for s in spec[2]]
                item.a = series(p, spec[3])
                item.expect = "ok"
                return item
            _, _, groups, target, expect = spec
            item.subgroups = [
                hs.SpanSubgroup(f"span{i}", tuple(series(p, g) for g in gens))
                for i, gens in enumerate(groups)
            ]
            if expect == "ok":
                # the target is sum x_j * u_j over all generators in order
                gens = [u for sub in item.subgroups for u in sub.generators]
                a = sp.zero
                for u, x in zip(gens, target):
                    a = a.add(u.scale(sp.field.coerce(Fraction(*x))))
                item.a = a
            else:
                item.a = series(p, target)
            item.expect = "refuse" if expect == "refuse" else "ok"
            return item

        return [[build(s) for s in rnd] for rnd in plain["rounds"]], [
            build(s) for s in plain["warmup"]
        ]


# -- interactive-small -----------------------------------------------------

_LIBRARY_KINDS = (
    "truncate", "quotient", "add", "sub", "mul", "contains", "pull_nest", "integrate",
)
_CLI_KINDS = ("cli-quotient", "cli-integrate", "cli-derive", "cli-decompose")
_POOL = 512
# requests of each kind in one round of 256: one in eight goes through cli.main
_PICKS = {**{kind: 28 for kind in _LIBRARY_KINDS}, **{kind: 8 for kind in _CLI_KINDS}}


def _request(rng, kind, variant):
    """Plain request: (kind, p, group, texts, term lists, params).

    ``variant`` fixes the request's shape (series of 1..8 terms, the field,
    exponent group, derivation and the like) so that every seed builds a pool
    of the same composition; only exponents and coefficients are random.
    """
    size, pick = 1 + variant % 8, variant // 8
    if kind in ("truncate", "quotient", "cli-quotient"):
        groups = ("int", "rat") if kind == "cli-quotient" else ("int", "rat", "lex2")
        group = groups[pick % len(groups)]
        terms = _small_terms(rng, 0, group, size)
        bound = None
        if variant % 3 == 0 and group != "lex2":
            top = max(_exponent(group, e) for _, e in terms)
            bound = _plain_exponent(group, int(top) + 1 + rng.randint(0, 2))
        if group == "lex2":
            alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            alpha = _plain_exponent(group, rng.randint(-6, 9))
        text = _series_text(0, group, terms, bound)
        return (kind, 0, group, (text,), (terms,), (bound, alpha))
    if kind in ("add", "sub", "mul"):
        options = ((0, "int"), (5, "int"), (0, "rat"))
        if kind != "mul":
            options += ((0, "lex2"),)
        p, group = options[pick % len(options)]
        left, right = _small_terms(rng, p, group, size), _small_terms(rng, p, group, size)
        texts = (_series_text(p, group, left), _series_text(p, group, right))
        return (kind, p, group, texts, (left, right), ())
    if kind == "contains":
        p = (0, 5)[pick % 2]
        center = _small_terms(rng, p, "int", size)
        radius = rng.randint(-4, 6)
        # half the points lie inside the ball, the rest anywhere nearby
        low = radius if variant % 2 else radius - 6
        point = center + ((_coefficient(rng, p), rng.randint(low, radius + 4)),)
        texts = (_series_text(p, "int", center), _series_text(p, "int", point))
        return (kind, p, "int", texts, (center, point), (radius,))
    if kind == "pull_nest":
        radii = []
        r = rng.randint(-4, 2)
        while len(radii) < 3:
            if r != 0:
                radii.append(r)
            r += rng.randint(1, 2)
        centers = [_small_terms(rng, 0, "int", min(size, 4), avoid=(0,))]
        for radius in radii[:2]:
            used = {e for _, e in centers[-1]}
            fresh = [e for e in range(radius, radius + 10) if e != 0 and e not in used]
            delta = tuple((_coefficient(rng, 0), e) for e in rng.sample(fresh, pick % 3))
            centers.append(centers[-1] + delta)
        texts = tuple(_series_text(0, "int", c) for c in centers)
        return (kind, 0, "int", texts, tuple(centers), tuple(radii))
    # integrate, cli-integrate, cli-derive, cli-decompose
    derivation = ("ddt", "euler")[pick % 2]
    avoid = () if kind in ("cli-derive", "cli-decompose") else ((-1,) if derivation == "ddt" else (0,))
    terms = _small_terms(rng, 0, "int", size, avoid=avoid)
    return (kind, 0, "int", (_series_text(0, "int", terms),), (terms,), (derivation,))


class SmallItem(Item):
    """One short request; verdicts are memoised per distinct output."""

    __slots__ = ("kind", "field", "group", "gname", "p", "texts", "maps", "params", "ctx", "memo")

    def _parse(self, text):
        return self.hs.parse_series(self.field, self.group, text)

    def run(self):
        hs, kind = self.hs, self.kind
        if kind.startswith("cli-"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hs.cli.main(self.ctx)
            return (code, out.getvalue(), err.getvalue())
        s = self._parse(self.texts[0])
        if kind == "truncate":
            return hs.series_to_text(s.truncate(self.ctx))
        if kind == "quotient":
            value = s.quotient_valuation(self.ctx)
            return (hs.series_to_text(s.truncate(self.ctx)), hs.ov_format(self.group, value))
        if kind in ("add", "sub", "mul"):
            return hs.series_to_text(getattr(s, kind)(self._parse(self.texts[1])))
        if kind == "contains":
            ball = hs.Ball(self.ctx, s, self.params[0])
            return "true" if ball.contains(self._parse(self.texts[1])) else "false"
        if kind == "pull_nest":
            spec, section, value_map, radii = self.ctx
            balls = [hs.Ball(spec.codomain, s, radii[0])] + [
                hs.Ball(spec.codomain, self._parse(t), r) for t, r in zip(self.texts[1:], radii[1:])
            ]
            _, point = hs.pull_nest(spec, section, value_map, balls)
            return hs.series_to_text(point)
        return hs.series_to_text(hs.integrate(self.ctx, s).solution)

    def check(self, out):
        if isinstance(out, BaseException):
            return False
        if out not in self.memo:
            self.memo[out] = self._verify(out)
        return self.memo[out]

    def _round_trip(self, text):
        """Parsed output, or None when printing it back changes the text."""
        s = self._parse(text)
        return s if self.hs.series_to_text(s) == text else None

    def _verify(self, out) -> bool:
        kind, p = self.kind, self.p
        if kind.startswith("cli-"):
            code, stdout, _ = out
            return code == 0 and self._verify_cli(stdout.splitlines())
        if kind == "contains":
            inside = _within(_combine(p, self.maps[0], self.maps[1], -1), self.params[0].finite)
            return out == ("true" if inside else "false")
        if kind == "quotient":
            return self._verify_class(out[0]) and self._definite(out[0], out[1])
        result = self._round_trip(out)
        if result is None:
            return False
        got = _map_of(result)
        if kind == "truncate":
            return self._verify_class(out)
        if kind in ("add", "sub"):
            return got == _combine(p, self.maps[0], self.maps[1], 1 if kind == "add" else -1)
        if kind == "mul":
            product: dict = {}
            for g1, c1 in self.maps[0].items():
                for g2, c2 in self.maps[1].items():
                    product = _combine(p, product, {g1 + g2: c1 * c2}, 1)
            return got == product
        if kind == "pull_nest":
            image = _derivative_map("euler", got)
            return all(_within(_combine(0, m, image, -1), r) for m, r in zip(self.maps, self.params))
        # integrate: the solution differentiates back to the input
        return _derivative_map(self.params[0], got) == self.maps[0] and 0 not in got

    def _verify_class(self, text) -> bool:
        """The class text keeps exactly the input terms below alpha."""
        s = self._round_trip(text)
        if s is None:
            return False
        bound, alpha = (_exponent(self.gname, e) if e is not None else None for e in self.params)
        cut = alpha if bound is None else min(alpha, bound)
        expected = {g: c for g, c in self.maps[0].items() if g < cut}
        return _map_of(s) == expected and s.truncation.finite == cut

    def _definite(self, class_text, value_text) -> bool:
        """Quotient definiteness: the value is inf exactly on the zero class."""
        s = self._parse(class_text)
        if not s.terms:
            return value_text == "inf"
        return value_text == self.group.format(s.terms[0].exponent)

    def _verify_cli(self, lines) -> bool:
        kind = self.kind
        if kind == "cli-quotient":
            return (
                len(lines) == 2
                and lines[0].startswith("class: ")
                and lines[1].startswith("value: ")
                and self._verify_class(lines[0][7:])
                and self._definite(lines[0][7:], lines[1][7:])
            )
        derivation = self.params[0]
        if kind == "cli-integrate":
            if not lines or not lines[0].startswith("solution: "):
                return False
            got = self._round_trip(lines[0][10:])
            return got is not None and _derivative_map(derivation, _map_of(got)) == self.maps[0]
        if kind == "cli-derive":
            got = self._round_trip(lines[0]) if len(lines) == 1 else None
            return got is not None and _map_of(got) == _derivative_map(derivation, self.maps[0])
        # cli-decompose over even,odd
        if len(lines) != 4 or lines[2] != "witness: pass":
            return False
        even = self._round_trip(lines[0].removeprefix("part even: "))
        odd = self._round_trip(lines[1].removeprefix("part odd: "))
        if even is None or odd is None:
            return False
        e, o = _map_of(even), _map_of(odd)
        return (
            all(g % 2 == 0 for g in e)
            and all(g % 2 == 1 for g in o)
            and _combine(0, e, o, 1) == self.maps[0]
        )


class InteractiveSmall(Workload):
    name = "interactive-small"
    tail_pct = 99.0
    trace_rounds = 8

    @classmethod
    def pool_rounds(cls, seconds):
        return 256  # a fixed request stream, cycled; requests repeat by design

    @classmethod
    def generate(cls, seed, n_rounds):
        rng = _rng(cls.name, seed)
        kinds = list(_PICKS)
        pool = [_request(rng, kinds[i % len(kinds)], i // len(kinds)) for i in range(_POOL)]
        by_kind = {kind: [i for i, req in enumerate(pool) if req[0] == kind] for kind in kinds}
        rounds = []
        for _ in range(n_rounds):
            picks = [rng.choice(by_kind[kind]) for kind, n in _PICKS.items() for _ in range(n)]
            rng.shuffle(picks)
            rounds.append(picks)
        return {"pool": pool, "rounds": rounds, "warmup": list(range(64))}

    def materialise(self, plain):
        hs = self.hs
        fields = {0: hs.QQ, 5: hs.PrimeField(5)}
        euler_dspec = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, hs.euler(hs.QQ, hs.INTEGERS))
        nest_instance = hs.integration_instance(euler_dspec)
        dspecs = {
            d: hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, getattr(hs, d)(hs.QQ, hs.INTEGERS))
            for d in ("ddt", "euler")
        }

        def build(spec):
            kind, p, gname, texts, term_lists, params = spec
            item = SmallItem()
            item.hs, item.kind, item.p, item.gname = hs, kind, p, gname
            item.field, item.group = fields[p], hs.group_by_name(gname)
            item.texts = texts
            item.maps = tuple(_term_map(p, gname, t) for t in term_lists)
            item.params = params
            item.memo = {}
            item.ctx = None
            if kind in ("truncate", "quotient"):
                item.ctx = hs.OrderedValue(_exponent(gname, params[1]))
            elif kind == "contains":
                item.ctx = hs.SeriesSpace(item.field, item.group)
                item.params = (hs.OrderedValue(params[0]),)
            elif kind == "pull_nest":
                item.ctx = nest_instance + (tuple(hs.OrderedValue(r) for r in params),)
            elif kind == "integrate":
                item.ctx = dspecs[params[0]]
            elif kind == "cli-quotient":
                alpha = _exponent_text(gname, params[1])
                item.ctx = ["quotient", "--group", gname, f"--alpha={alpha}", "--", texts[0]]
            elif kind in ("cli-integrate", "cli-derive"):
                item.ctx = [kind[4:], "--derivation", params[0], "--", texts[0]]
            elif kind == "cli-decompose":
                item.ctx = ["decompose", "--parts", "even,odd", "--", texts[0]]
            return item

        pool = [build(s) for s in plain["pool"]]
        return [[pool[i] for i in rnd] for rnd in plain["rounds"]], [
            pool[i] for i in plain["warmup"]
        ]


# -- check-suite -----------------------------------------------------------

_INSTANCES = ("euler", "ddt", "broken-order", "broken-monotone", "broken-progress")
_EXPECTED_FAILURE = {
    "broken-order": "value_map_order",
    "broken-monotone": "value_monotonicity",
    "broken-progress": "section_progress",
}
# broken-order relabels t^2 to t^3, so a pair sample whose section element has
# cancelling t^2 and t^3 coefficients collapses under the map and genuinely
# violates value transfer; at 60 samples 2 of 6000 seeds drew one
_MAY_ALSO_FAIL = {"broken-order": {"value_monotonicity"}}
_SPACES = ((0, "int"), (0, "rat"), (7, "int"), (0, "lex2"))
_SERIES_POOL = 400


class InstanceItem(Item):
    """An honest instance passes every check (seven of them); a broken one
    runs three and fails its target, and no other check outside
    ``_MAY_ALSO_FAIL``."""

    __slots__ = ("instance", "seed", "samples", "expected", "tolerated")

    def run(self):
        return self.hs.run_instance_checks(self.instance, self.seed, self.samples)

    def check(self, out):
        if not isinstance(out, list):
            return False
        failing = {r.name for r in out if not r.ok}
        return failing - self.tolerated == self.expected and len(out) == (
            3 if self.expected else 7
        )


class PairCheckItem(Item):
    """check_leibniz or check_ultrametric over index pairs into a series pool."""

    __slots__ = ("checker", "target", "pairs")

    def run(self):
        return getattr(self.hs, self.checker)(self.target, self.pairs)

    def check(self, out):
        return (
            isinstance(out, self.hs.CheckReport)
            and out.ok
            and out.checked == len(self.pairs)
        )


class CheckSuite(Workload):
    name = "check-suite"
    tail_pct = 95.0
    trace_rounds = 2
    pool_rounds_per_second = 12.0

    @classmethod
    def generate(cls, seed, n_rounds):
        rng = _rng(cls.name, seed)
        pools = {
            f"{p}/{g}": [
                _small_terms(rng, p, g, lo=-6, hi=6, max_terms=6) if rng.random() > 0.05 else ()
                for _ in range(_SERIES_POOL)
            ]
            for p, g in _SPACES
        }

        def index_pairs(count):
            return tuple(
                (rng.randrange(_SERIES_POOL), rng.randrange(_SERIES_POOL)) for _ in range(count)
            )

        rounds = []
        for _ in range(n_rounds):
            items = [("instance", name, rng.randrange(2**31), 60) for name in _INSTANCES]
            items += [("leibniz", d, g, index_pairs(30)) for d, g in _VARIANTS]
            items += [("ultrametric", p, g, index_pairs(120)) for p, g in _SPACES]
            rng.shuffle(items)
            rounds.append(items)
        warmup = [("instance", name, 0, 10) for name in _INSTANCES]
        warmup.append(("leibniz", "ddt", "int", index_pairs(5)))
        warmup.append(("ultrametric", 7, "int", index_pairs(5)))
        return {"pools": pools, "rounds": rounds, "warmup": warmup}

    def materialise(self, plain):
        hs = self.hs
        instances = {name: hs.build_instance(name) for name in _INSTANCES}
        spaces, series = {}, {}
        for p, g in _SPACES:
            sp = hs.SeriesSpace(hs.PrimeField(p) if p else hs.QQ, hs.group_by_name(g))
            spaces[p, g] = sp
            series[p, g] = [
                sp.series([(Fraction(*c), _exponent(g, e)) for c, e in terms])
                for terms in plain["pools"][f"{p}/{g}"]
            ]
        dspecs = {
            (d, g): hs.DifferentialFieldSpec(
                hs.QQ, hs.group_by_name(g), getattr(hs, d)(hs.QQ, hs.group_by_name(g))
            )
            for d, g in _VARIANTS
        }

        def build(spec):
            if spec[0] == "instance":
                _, name, seed, samples = spec
                item = InstanceItem()
                item.instance, item.seed, item.samples = instances[name], seed, samples
                failing = _EXPECTED_FAILURE.get(name)
                item.expected = {failing} if failing else set()
                item.tolerated = _MAY_ALSO_FAIL.get(name, set())
            else:
                kind, a, group, pairs = spec
                item = PairCheckItem()
                if kind == "leibniz":
                    item.checker, item.target = "check_leibniz", dspecs[a, group]
                    pool = series[0, group]
                else:
                    item.checker, item.target = "check_ultrametric", spaces[a, group]
                    pool = series[a, group]
                item.pairs = [(pool[i], pool[j]) for i, j in pairs]
            item.hs = hs
            return item

        return [[build(s) for s in rnd] for rnd in plain["rounds"]], [
            build(s) for s in plain["warmup"]
        ]


WORKLOADS = {
    cls.name: cls for cls in (IntegrateLong, DecomposeMixed, InteractiveSmall, CheckSuite)
}
