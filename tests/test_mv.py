import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qknorm import mv
from qknorm.classgroup import ScanCountError
from qknorm.ideals import FracIdeal, ideal_valuation, primes_above, \
    principal_ideal
from qknorm.knorm import K0Elt, k0_context, k0_eq, k0_group, k0_identity, \
    k0_mul, k0_rep
from qknorm.mv import (FieldPrimes, IdeleFS, NormKernelViolation,
                       NotInNormKernel, boundary, boundary_preimage,
                       diagonal_idele, genus_engine, i_is_trivial, idele_norm,
                       map_i, mu, mu1, random_k0_elt, random_norm_kernel_idele,
                       random_norm_one_element, random_unit_idele,
                       sampled_exactness, split_pair_idele)
from qknorm.quadfield import QuadNum, make_discriminant

from helpers import is_unit_ideal, scan_row, support_primes, \
    verdicts_pass
from oracle import _prime_factors, hilbert2_oracle, hilbert_odd_oracle

D15 = make_discriminant(-15)
PRIMES15 = FieldPrimes(D15)


def test_idele_norm_trivial_cases():
    assert idele_norm(IdeleFS.one(D15)) == {}
    z = split_pair_idele(D15, 2, Fraction(2))
    assert all(v == 1 for v in idele_norm(z).values())
    # diagonal idele of x has norm N(x) at every supported prime
    x = QuadNum(3, 1, 1, D15)  # norm 6
    d = diagonal_idele(x, PRIMES15)
    n = idele_norm(d)
    for p in support_primes(d):
        assert n.get(p, 1) == x.norm()


# each check of the idele constructor and product, with an input that
# breaks it; it was an assert, and must now raise its named error also
# under -O
IDELE_CHECKS = {
    "component_of_another_field": (
        "IdeleFS({P15: QuadNum(2, 0, 1, D23)}, D23)", "DiscMismatch"),
    "zero_component": ("IdeleFS({P15: QuadNum(0, 0, 1, D15)}, D15)",
                       "ZeroComponent"),
    "product_across_fields": ("IdeleFS.one(D15) * IdeleFS.one(D23)",
                              "DiscMismatch"),
    "element_of_another_field": (
        "IdeleFS({P15: QuadNum(2, 2, 1, D23)}, D15)", "DiscMismatch"),
    "element_product_across_fields": (
        "QuadNum(2, 2, 1, D15) * QuadNum(2, 2, 1, D23)", "DiscMismatch"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("check", sorted(IDELE_CHECKS))
def test_idele_checks_raise_under_optimize(check, flags, src_env):
    expr, error = IDELE_CHECKS[check]
    code = ("from qknorm.ideals import primes_above\n"
            "from qknorm.mv import IdeleFS\n"
            "from qknorm.quadfield import QuadNum, make_discriminant\n"
            "D15, D23 = make_discriminant(-15), make_discriminant(-23)\n"
            "P15 = primes_above(D15, 2).primes[0]\n"
            "try:\n"
            f"    {expr}\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == error + "\n"


def test_idele_norm_at_nonsplit():
    disc = make_discriminant(12)
    p3 = primes_above(disc, 3).primes[0]
    z = IdeleFS({p3: QuadNum(0, 2, 1, disc)}, disc)  # sqrt(12), norm -12
    assert idele_norm(z).get(3, 1) == -12


def test_boundary_requires_norm_kernel():
    p3 = primes_above(D15, 3).primes[0]
    z = IdeleFS({p3: QuadNum(3, 1, 1, D15)}, D15)
    with pytest.raises(NotInNormKernel):
        boundary(z)


def test_boundary_of_split_pair():
    z = split_pair_idele(D15, 2, Fraction(2))
    e = boundary(z)
    assert e.t == 1 and e.ideal.norm() == 1
    pid, pbar = primes_above(D15, 2).primes
    assert e.ideal == pid * pbar.inverse()


def _full_diagonal_idele(z):
    """z at every prime of O_F where z is not a unit, both halves at a split
    p; the support comes from the primes dividing q and a of z*O."""
    i = principal_ideal(z)
    support = (_prime_factors(i.q.numerator) | _prime_factors(i.q.denominator)
               | _prime_factors(i.a))
    comps = {}
    for p in support:
        primes = primes_above(z.disc, p).primes
        if any(ideal_valuation(i, prime) for prime in primes):
            comps.update((prime, z) for prime in primes)
    return IdeleFS(comps, z.disc)


def test_boundary_of_hilbert90_diagonal_is_trivial():
    rng = random.Random(40)
    for delta in (-15, 12, 60, 229):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        nonempty = 0
        for _ in range(20):
            z = random_norm_one_element(disc, rng)
            d = _full_diagonal_idele(z)
            nonempty += bool(d.components)
            assert all(v == 1 for v in idele_norm(d).values())
            assert k0_eq(ctx, boundary(d), k0_identity(disc)), (delta, z)
        assert nonempty >= 15, (delta, nonempty)


def test_diagonal_idele_sees_z_O():
    # the support comes from z's own coordinates: the components are those
    # of the full diagonal, and the boundary of the diagonal is z*O
    rng = random.Random(44)
    for delta in (-15, 12, 60, 229, -85159):
        disc = make_discriminant(delta)
        primes = FieldPrimes(disc)
        nonempty = 0
        for _ in range(25):
            z = random_norm_one_element(disc, rng)
            d = diagonal_idele(z, primes)
            assert d.components == _full_diagonal_idele(z).components
            assert boundary(d).ideal == principal_ideal(z), (delta, z)
            assert bool(d.components) == \
                (not is_unit_ideal(principal_ideal(z))), (delta, z)
            nonempty += bool(d.components)
        assert nonempty >= 15, (delta, nonempty)


def _product_boundary_ideal(z):
    """I_z assembled as a product of prime powers, one per component."""
    ideal = FracIdeal.unit(z.disc)
    for prime, comp in z.components.items():
        ideal = ideal * prime ** ideal_valuation(principal_ideal(comp), prime)
    return ideal


def test_boundary_matches_product_assembly(monkeypatch):
    # boundary builds I_z without ideal products; the old assembly is the
    # oracle, run before the product counter goes in
    rng = random.Random(45)
    cases = []
    for delta in (-15, -23, 12, 60, 105, 229, -84):
        disc = make_discriminant(delta)
        primes = FieldPrimes(disc)
        for _ in range(30):
            z = random_norm_kernel_idele(disc, rng, primes) \
                * random_norm_kernel_idele(disc, rng, primes)
            cases.append((z, _product_boundary_ideal(z)))
    assert sum(not is_unit_ideal(i) for _, i in cases) >= 100
    products = [0]
    mul = FracIdeal.__mul__

    def counted(self, other):
        products[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FracIdeal, "__mul__", counted)
    for z, ideal in cases:
        e = boundary(z)
        assert e.sign == 1 and e.ideal == ideal, (z, ideal)
    assert products[0] == 0


def test_boundary_homomorphism():
    # v_P(z * z2) = v_P(z) + v_P(z2) at every P, so I_{z z2} = I_z * I_{z2}
    # as ideals and the two sides agree as (sign, ideal) pairs, which is
    # what lets k0_eq decide verify's homomorphism check without class keys
    rng = random.Random(41)
    for delta in (-23, -15, 12, 60, 229, -85159):
        disc = make_discriminant(delta)
        primes = FieldPrimes(disc)
        nontrivial = 0
        for _ in range(30):
            z1 = random_norm_kernel_idele(disc, rng, primes)
            z2 = random_norm_kernel_idele(disc, rng, primes)
            e12 = boundary(z1 * z2)
            assert e12 == k0_mul(boundary(z1), boundary(z2)), (delta, z1, z2)
            nontrivial += not is_unit_ideal(e12.ideal)
        assert nontrivial >= 10, (delta, nontrivial)


def test_map_i_well_defined_across_presentations():
    rng = random.Random(42)
    for delta in (-15, 12, 60, -56, 105):
        disc = make_discriminant(delta)
        primes = FieldPrimes(disc)
        for _ in range(20):
            e = random_k0_elt(disc, rng, primes)
            z = QuadNum(rng.randint(-10, 10), rng.randint(-10, 10),
                        rng.randint(1, 4), disc)
            if not z:
                continue
            t1, y1 = map_i(e)
            # the same class presented on the ideal z * I
            sign = e.sign if z.norm() > 0 else -e.sign
            t2, y2 = map_i(K0Elt(sign, e.ideal * principal_ideal(z)))
            assert y1 == y2
            # first components differ by the global norm of z
            assert t2 / t1 == z.norm()


def _oracle_symbol(q, delta, p):
    return hilbert2_oracle(q, delta) if p == 2 \
        else hilbert_odd_oracle(q, delta, p)


@pytest.mark.parametrize("delta", [-15, 12, 60, -120, 105, -56, -420])
def test_map_i_against_its_definition(delta):
    # the unit class at a ramified p is that of sign*a divided by a
    # uniformizer pi = n*p that is a local norm at p (a*pi is a/pi times a
    # square), all symbols from the exhaustive oracles; the ramified primes
    # stay <= 7, since the odd oracle holds p^6 entries
    disc = make_discriminant(delta)
    pis = {p: next(n * p for n in (1, -1, 3, -3, 5, -5, 7, -7, 11, -11)
                   if n % p and _oracle_symbol(n * p, delta, p) == 1)
           for p in disc.ramified_primes}
    # [+-1, P] for each ramified P = (p, ...) has p | a, where pi enters
    elts = [K0Elt(sign, primes_above(disc, p).primes[0])
            for p in pis for sign in (1, -1)]
    rng = random.Random(delta)
    elts += [random_k0_elt(disc, rng, FieldPrimes(disc))
             for _ in range(12)]
    for e in elts:
        a = e.sign * e.ideal.a
        want = frozenset(
            p for p, pi in pis.items()
            if _oracle_symbol(a * pi if a % p == 0 else a, delta, p) == -1)
        assert map_i(e)[1] == want, e


def test_map_i_on_sigma_minus_one():
    # over discriminant 12 the class [-1, O] is nontrivial on both counts
    disc = make_discriminant(12)
    from qknorm.ideals import FracIdeal

    t, y = map_i(K0Elt(-1, FracIdeal.unit(disc)))
    assert not i_is_trivial(disc, (t, y))
    assert y == frozenset({2, 3})
    # and [3, p3] presents the same class, with the same invariants
    p3 = primes_above(disc, 3).primes[0]
    t2, y2 = map_i(K0Elt(1, p3))
    assert t2 == 3
    assert y2 == y


def test_mu_of_five_over_minus_fifteen():
    v = mu(D15, Fraction(5), map_i(k0_identity(D15))[1])
    assert v == frozenset({3, 5})


def test_mu1_preconditions():
    with pytest.raises(NormKernelViolation):
        mu1(QuadNum(4, 0, 1, D15), IdeleFS.one(D15), PRIMES15)
    rng = random.Random(43)
    z = random_norm_one_element(D15, rng)
    u = random_unit_idele(D15, rng, PRIMES15)
    w = mu1(z, u, PRIMES15)
    assert all(v == 1 for v in idele_norm(w).values())


def test_composites_vanish_sampled():
    for delta in (-15, 12, 60):
        rep = sampled_exactness(make_discriminant(delta), 60, 99)
        assert rep.all_pass, rep


def test_seed_reproducibility():
    r1 = sampled_exactness(D15, 40, 7)
    r2 = sampled_exactness(D15, 40, 7)
    assert r1 == r2


def test_sampled_exactness_reports_kernel_failure(monkeypatch):
    # i with the first ramified prime flipped kills no class, the identity
    # included, so the kernel verdict fails and says why
    map_i = mv.map_i

    def flipped(e):
        t, y = map_i(e)
        return t, y ^ {e.disc.ramified_primes[0]}

    monkeypatch.setattr(mv, "map_i", flipped)
    rep = sampled_exactness(make_discriminant(-23), 20, 0)
    assert not rep.constructive_kernel and not rep.all_pass
    assert rep.kernel_failure == \
        "D = -23: the identity class has no boundary preimage"
    assert rep == sampled_exactness(make_discriminant(-23), 20, 0)


def test_constructive_kernel_preimages():
    for delta in (-15, 12, 60, -23, -56, 136, 316):
        disc = make_discriminant(delta)
        ctx = k0_context(disc)
        grp = k0_group(ctx)
        found_any = False
        for key in grp.keys:
            e = k0_rep(ctx, key)
            if i_is_trivial(disc, map_i(e)):
                found_any = True
                z = boundary_preimage(ctx, e)
                assert z is not None
                assert k0_eq(ctx, boundary(z), e)
        assert found_any  # the identity is always in the kernel


@pytest.mark.parametrize("delta,rank2,exc", [(60, 1, True), (-15, 1, False),
                                             (12, 0, True), (8, 0, False),
                                             (-120, 2, False),
                                             (105, 1, True)])
def test_genus_engine_spot_values(delta, rank2, exc):
    row = scan_row(delta)
    assert tuple(row) == mv.SCAN_COLUMNS
    assert row["rank2"] == str(rank2)
    assert row["exceptional"] == ("true" if exc else "false")
    assert verdicts_pass(row), row


@pytest.mark.parametrize("delta,counts,reason", [
    (-15, (3, 3, 1), "h = 3 is not divisible by 2^rank2 = 2"),
    (5, (1, 3, 0), "h_narrow = 3 is neither h = 1 nor 2h"),
    (-23, (3, 6, 0), "h_narrow = 6 is not h = 3 for D < 0"),
    (12, (1, 1, 0), "h_narrow = 1 is not 2h = 2 for an exceptional real D")])
def test_genus_engine_checks_its_counts(delta, counts, reason):
    with pytest.raises(ScanCountError) as info:
        genus_engine([make_discriminant(delta)], [counts])
    assert str(info.value) == f"D = {delta}: {reason}"


def test_genus_engine_small_range():
    from qknorm.quadfield import is_fundamental

    for delta in range(-150, 150):
        if is_fundamental(delta):
            assert verdicts_pass(scan_row(delta)), delta
