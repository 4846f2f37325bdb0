import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qknorm import knorm
from qknorm.cli import main
from qknorm.classgroup import abelian_closure, principal_generator
from qknorm.ideals import FracIdeal, primes_above, principal_ideal
from qknorm.knorm import (K0Elt, bass_sequence_report, k0_eq, k0_context,
                          k0_group, k0_identity, k0_key, k0_mul, k0_rep, sigma,
                          solve_norm_equation)
from qknorm.local import is_global_norm
from qknorm.quadfield import (QuadNum, fundamental_discriminants,
                              make_discriminant)

from helpers import is_integral_ideal
from oracle import invariant_factors_by_torsion

POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / \
    "pools.json"
K0_POOL = [d for stratum in json.loads(POOLS.read_text())["k0"]["strata"]
           for d, _ in stratum["fields"]]


def _random_elt(disc, rng):
    i = FracIdeal.unit(disc)
    for p in rng.sample([2, 3, 5, 7, 11], k=rng.randint(0, 2)):
        i = i * rng.choice(primes_above(disc, p).primes) ** rng.randint(-2, 2)
    return K0Elt(rng.choice([1, -1]), i)


def test_sign_other_than_one_or_minus_one_rejected():
    disc = make_discriminant(-15)
    ctx = k0_context(disc)
    for sign in (2, 0, -2, 1.0, True):
        with pytest.raises(ValueError):
            K0Elt(sign, FracIdeal.unit(disc))
        with pytest.raises(ValueError):
            sigma(ctx, sign)


def test_t_is_signed_norm_and_multiplicative():
    rng = random.Random(30)
    for delta in (-15, 12, -23, 229):
        disc = make_discriminant(delta)
        for _ in range(15):
            a, b = _random_elt(disc, rng), _random_elt(disc, rng)
            assert a.t == a.sign * a.ideal.norm()
            assert k0_mul(a, b).t == a.t * b.t


@pytest.mark.parametrize("delta,order", [(-15, 4), (8, 1), (-23, 6), (12, 2),
                                         (60, 4), (-4, 2), (229, 3),
                                         (40, 2), (-47, 10)])
def test_k0_orders(delta, order):
    rep = bass_sequence_report(make_discriminant(delta))
    assert rep.order == order
    assert rep.exact


def test_class_invariance_under_twist():
    rng = random.Random(31)
    for delta in (-15, 12, 60, -23, 316):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        for _ in range(15):
            e = _random_elt(disc, rng)
            z = QuadNum(rng.randint(-15, 15), rng.randint(-15, 15),
                        rng.randint(1, 5), disc)
            if not z:
                continue
            # the same class presented on the ideal z * I
            sign = e.sign if z.norm() > 0 else -e.sign
            twisted = K0Elt(sign, e.ideal * principal_ideal(z))
            assert twisted.t == e.t * z.norm()
            assert k0_eq(ctx, e, twisted)
            assert k0_key(ctx, e) == k0_key(ctx, twisted)


def _counting_k0_key(monkeypatch):
    calls = [0]
    key = knorm.k0_key

    def counted(ctx, e):
        calls[0] += 1
        return key(ctx, e)

    monkeypatch.setattr(knorm, "k0_key", counted)
    return calls


def test_k0_eq_on_equal_representatives_computes_no_key(monkeypatch):
    rng = random.Random(35)
    calls = _counting_k0_key(monkeypatch)
    for delta in (-23, 60, 229):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        for _ in range(10):
            e = _random_elt(disc, rng)
            # the same pair built again: an equal object, not the same one
            same = K0Elt(e.sign, e.ideal * FracIdeal.unit(disc))
            assert same == e and k0_eq(ctx, e, same)
    assert calls[0] == 0


def test_k0_eq_compares_classes_of_different_representatives(monkeypatch):
    calls = _counting_k0_key(monkeypatch)
    d23, d12 = make_discriminant(-23), make_discriminant(12)
    ctx23, ctx12 = k0_context(d23), k0_context(d12)
    p2 = primes_above(d23, 2).primes[0]
    p3 = primes_above(d12, 3).primes[0]
    # P against P * (z): one class on two ideals, N(z) = 6 > 0 keeps the sign
    z = QuadNum(1, 1, 1, d23)
    assert k0_eq(ctx23, K0Elt(1, p2), K0Elt(1, p2 * principal_ideal(z)))
    # N(sqrt 3) = -3 moves the sign, and 12 has no unit of norm -1
    s3 = QuadNum(0, 1, 1, d12)
    assert k0_eq(ctx12, K0Elt(1, p3), K0Elt(-1, p3 * principal_ideal(s3)))
    # a prime above 2 is not principal at -23 (h = 3)
    assert not k0_eq(ctx23, K0Elt(1, p2), k0_identity(d23))
    # one ideal with two signs: sigma(-1) is not trivial at 12
    assert not k0_eq(ctx12, sigma(ctx12, -1), k0_identity(d12))
    assert calls[0] == 8


def test_group_laws():
    rng = random.Random(32)
    for delta in (-15, 60, -23):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        one = k0_identity(disc)
        for _ in range(15):
            a, b = _random_elt(disc, rng), _random_elt(disc, rng)
            assert k0_eq(ctx, k0_mul(a, b), k0_mul(b, a))
            inverse = K0Elt(a.sign, a.ideal.inverse())
            assert inverse.t == 1 / a.t
            assert k0_eq(ctx, k0_mul(a, inverse), one)
            assert k0_eq(ctx, k0_mul(a, one), a)


def test_sigma_and_rho():
    for delta in (-15, 12, 8, 5):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        s = sigma(ctx, -1)
        # rho, K0 -> Cl, is the class of the ideal: sigma(-1) lies over 1
        assert ctx.cg.key_of_ideal(s.ideal) == \
            ctx.cg.key_of_ideal(FracIdeal.unit(disc))
        # sigma(-1) is trivial exactly when a unit of norm -1 exists
        trivial = k0_eq(ctx, s, k0_identity(disc))
        assert trivial == (ctx.units.h0_units_order == 1)


def test_structure_divisors():
    from math import prod

    for delta in (-15, -23, -47, 60, -120):
        ctx = k0_context(make_discriminant(delta))
        grp = k0_group(ctx)
        assert prod(grp.divisors, start=1) == grp.order
        assert grp.order == ctx.units.h0_units_order * ctx.cg.h


def _product_by_elements(ctx):
    """The K0 product with one k0_key per product of two representatives."""
    def mul(k1, k2):
        return k0_key(ctx, k0_mul(k0_rep(ctx, k1), k0_rep(ctx, k2)))
    return mul


def test_structure_matches_torsion_oracle():
    # at 136, Cl = Z/2 and K0 = Z/4: the extension does not split
    for delta in (136, 60, 316, -15, -84, -420, 12, 229):
        ctx = k0_context(make_discriminant(delta))
        grp = k0_group(ctx)
        assert grp.divisors == invariant_factors_by_torsion(
            grp.keys, _product_by_elements(ctx)), delta


def test_structure_keeps_the_sign_of_the_generator_norm():
    # N(eps) = +1 at 136 and 505, so the sign of N(z) in a product's key
    # decides whether the extension of Cl by the unit classes splits
    assert k0_group(k0_context(make_discriminant(136))).divisors == [4]
    assert k0_group(k0_context(make_discriminant(505))).divisors == [8]


def _sign_without_norm_sign(ctx, sign, z):
    return sign if ctx.sign_is_invariant else 1


def test_key_without_the_generator_norm_sign_moves_the_structure(
        monkeypatch):
    # k0_key and the power chains of k0_group share one sign rule
    monkeypatch.setattr(knorm, "k0_sign", _sign_without_norm_sign)
    grp = k0_group(k0_context(make_discriminant(136)))
    assert grp.order == 4 and grp.divisors == [2, 2]


def _two_rank_misses_genus_theory(disc):
    """Whether the 2-rank of K0 differs from what genus theory gives: t for
    Delta < 0 and t - 1 for Delta > 0, t the number of ramified primes."""
    grp = k0_group(k0_context(disc))
    rank2 = sum(1 for d in grp.divisors if d % 2 == 0)
    t = len(disc.ramified_primes)
    return rank2 != (t if disc.delta < 0 else t - 1)


def test_two_rank_matches_genus_theory():
    # independent of k0_group's sign rule: a rule without the sign of N(z)
    # moves the structure on 45 of these fields, and no k0 verdict sees it
    discs = list(fundamental_discriminants(-3000, 3000))
    discs += [make_discriminant(d) for d in K0_POOL]
    assert [d.delta for d in discs if _two_rank_misses_genus_theory(d)] == []


def test_two_rank_sees_the_sign_rule_without_the_norm_sign(monkeypatch):
    monkeypatch.setattr(knorm, "k0_sign", _sign_without_norm_sign)
    assert _two_rank_misses_genus_theory(make_discriminant(136))


def _closure_by_elements(ctx):
    """The K0 closure on ``_product_by_elements``."""
    gens = [k0_key(ctx, sigma(ctx, -1))]
    gens += [k0_key(ctx, K0Elt(1, g)) for g in ctx.cg.generators]
    elements, divisors, _ = abelian_closure(
        gens, _product_by_elements(ctx), k0_key(ctx, k0_identity(ctx.disc)))
    return sorted(elements), divisors


ORACLE_FIELDS = [-3, -4, -23, -84, -420, -5460, -85159,
                 12, 60, 136, 229, 316, 505]


@pytest.mark.parametrize("delta", ORACLE_FIELDS + [
    d for d in K0_POOL if d not in ORACLE_FIELDS])
def test_class_pair_table_matches_closure_by_elements(delta):
    ctx = k0_context(make_discriminant(delta))
    # the power chains of a real field's basis add at most d_i - 1 class
    # pairs each to class_group's table; an imaginary field multiplies none
    pairs = set(ctx.cg._products)
    grp = k0_group(ctx)
    new = len(set(ctx.cg._products) - pairs)
    if delta < 0:
        assert new == 0
    else:
        assert new <= sum(d - 1 for d in ctx.cg.divisors)
    keys, divisors = _closure_by_elements(ctx)
    assert grp.keys == keys and grp.order == len(keys)
    assert grp.divisors == divisors


def _quotient_key(ctx, e):
    """k0_key by the quotient route: the class of I, then a generator of
    I * rep^-1 by principal_generator."""
    key = ctx.cg.key_of_ideal(e.ideal)
    z = principal_generator(e.ideal * ctx.cg.rep_ideal(key).inverse())
    assert z is not None
    if not ctx.sign_is_invariant:
        return (1, key)
    return (e.sign if z.norm() > 0 else -e.sign, key)


@pytest.mark.parametrize("delta", [-3, -4, -23, -56, -420, -5460, -85159,
                                   12, 60, 136, 229])
def test_class_and_generator_matches_quotient_route(delta):
    disc = make_discriminant(delta)
    ctx = k0_context(disc)
    cg = ctx.cg
    rng = random.Random(delta)
    primes = [p for p in range(2, 40) if all(p % q for q in range(2, p))]
    for _ in range(40):
        i = FracIdeal.scaled(rng.randint(1, 30), rng.randint(1, 30), 1,
                             delta % 2, disc)
        for p in rng.sample(primes, k=rng.randint(0, 4)):
            i = i * rng.choice(primes_above(disc, p).primes) ** \
                rng.randint(-2, 2)
        key, z = cg.class_and_generator(i)
        assert key == cg.key_of_ideal(i)
        assert principal_ideal(z) * cg.rep_ideal(key) == i
        for sign in (1, -1):
            e = K0Elt(sign, i)
            assert k0_key(ctx, e) == _quotient_key(ctx, e), (delta, i)


def test_canonical_rep_roundtrip():
    rng = random.Random(33)
    for delta in (-15, 60, 316):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        for _ in range(10):
            e = _random_elt(disc, rng)
            key = k0_key(ctx, e)
            assert k0_key(ctx, k0_rep(ctx, key)) == key
            assert k0_eq(ctx, e, k0_rep(ctx, key))


def test_solve_norm_equation_exact():
    rng = random.Random(34)
    for delta in (-15, 12, 60, -23, 136, 40, -56):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        for _ in range(30):
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if not t:
                continue
            x = solve_norm_equation(t, ctx)
            if x is not None:
                assert x.norm() == t
            # the Hasse criterion agrees with constructive solvability
            assert (x is not None) == is_global_norm(t, disc), \
                (delta, t)


def test_solve_norm_equation_hard_cases():
    # -1 is a norm but not a unit norm over the field of discriminant 136
    x = solve_norm_equation(-1, k0_context(make_discriminant(136)))
    assert x is not None and x.norm() == -1
    # 2 is the norm of a non-integral element only, over discriminant -56
    x = solve_norm_equation(2, k0_context(make_discriminant(-56)))
    assert x is not None and x.norm() == 2
    assert not is_integral_ideal(principal_ideal(x))


# -1 over discriminant 5 is solved through the twist by the unit of norm -1;
# a unit data that reports N(eps) = -1 but holds eps^2 (norm +1) must not
# produce a solution of the wrong norm
BROKEN_UNIT = (
    "import dataclasses\n"
    "import qknorm.knorm as kn\n"
    "from qknorm.classgroup import GeneratorCheckError\n"
    "from qknorm.quadfield import make_discriminant\n"
    "unit = kn.fundamental_unit\n"
    "def squared(disc):\n"
    "    u = unit(disc)\n"
    "    return dataclasses.replace(u, eps=u.eps * u.eps)\n"
    "kn.fundamental_unit = squared\n"
    "try:\n"
    "    ctx = kn.k0_context(make_discriminant(5))\n"
    "    x = kn.solve_norm_equation(-1, ctx)\n"
    "except GeneratorCheckError as exc:\n"
    "    print(exc)\n"
    "else:\n"
    "    print('returned', x, 'of norm', x.norm())\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wrong_unit_fails_norm_equation(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_UNIT],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("solve_norm_equation: D = 5: "), proc.stdout


def test_norm_equation_checks_survive_optimize(src_env):
    # the three former asserts of the norm equation are explicit raises:
    # norm 0 for an integral ideal or for x, and an ideal built off its
    # norm (factorint patched to over-count every exponent)
    code = (
        "from qknorm import arith, knorm\n"
        "from qknorm.quadfield import make_discriminant\n"
        "D = make_discriminant(-15)\n"
        "def run(f, *args):\n"
        "    try:\n"
        "        f(*args)\n"
        "    except (ValueError, knorm.GeneratorCheckError) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('passed')\n"
        "run(lambda: list(knorm._integral_ideals_of_norm(D, 0)))\n"
        "run(knorm.solve_norm_equation, 0, knorm.k0_context(D))\n"
        "knorm.factorint = lambda m: {p: e + 1 for p, e in\n"
        "                             arith.factorint(m).items()}\n"
        "run(lambda: list(knorm._integral_ideals_of_norm(D, 5)))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == \
        ["ValueError", "ValueError", "GeneratorCheckError"], lines
    assert "m = 0" in lines[0] and "N(x) = 0" in lines[1]
    assert "norm 25, not 5" in lines[2]


# sha256 of the stdout of k0 and then classgroup on each fundamental
# |Delta| <= 1000 in increasing order, then on each field of the k0 pool in
# pool order
REPORTS_SHA256 = \
    "21e9d770a81833932efdf33c8a846f9a4ca0db2e73f54769a17a83409dc26d74"


def test_k0_and_classgroup_reports_are_pinned(capsys):
    deltas = [d.delta for d in fundamental_discriminants(-1000, 1000)]
    digest = hashlib.sha256()
    for delta in deltas + K0_POOL:
        for command in ("k0", "classgroup"):
            assert main([command, "--disc", str(delta)]) == 0, delta
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == REPORTS_SHA256
