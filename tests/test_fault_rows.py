"""Fault rows: a minimal fault, patched in at start-up of a subprocess, must
turn the verdicts it breaks false and make the command exit 1, under
default Python and ``-O``.  Each row names its fault, the command, and the
number of rows (scan) or reports (verify, k0) in which each verdict reads
false; every other verdict must stay true.  A row may run its command more
than once, each run writing one JSON document, and the counts are summed
over them.  A row with no counts names a fault that a check catches before
any report: stdout stays empty and stderr names the check."""

import json
import subprocess
import sys

import pytest

from qknorm.cli import EXIT_VERDICT, SCAN_COLUMNS

VERIFY_VERDICTS = ("i_after_boundary_trivial", "mu_after_i_trivial",
                   "boundary_after_mu1_trivial", "boundary_is_homomorphism",
                   "constructive_kernel")
K0_VERDICTS = ("sigma_injective", "kernel_rho_is_image_sigma",
               "rho_surjective", "exact")
SCAN_VERDICTS = tuple(c for c in SCAN_COLUMNS if c.startswith("verdict_"))

# the scan's 2-ranks one too high: the first row whose h is not divisible
# by 2^(rank2 + 1), D = -199 with h = 9, fails the scan's own check
RANK2_OFF_BY_ONE = (
    "import sys\n"
    "from qknorm import cli\n"
    "counts = cli.block_counts\n"
    "cli.block_counts = lambda deltas: [(h, hn, r + 1)\n"
    "                                   for h, hn, r in counts(deltas)]\n"
    "sys.exit(cli.main(['scan', '--min', '-200', '--max', '200',\n"
    "                   '--json']))\n")

# the 2-ranks one too high only where 2^(rank2 + 1) divides h, so that the
# check above cannot see it: on those 12 rows verdict_69 (rank2 = t - 1 -
# exceptional) fails, verdict_67 (dim V = dim H + rank2) too, and
# verdict_68 (rank2 = t - 1, or <= t - 1 for real fields) as well, none of
# the 12 being real and exceptional
RANK2_OFF_BY_ONE_UNSEEN_IN_H = (
    "import sys\n"
    "from qknorm import cli\n"
    "counts = cli.block_counts\n"
    "cli.block_counts = lambda deltas: [(h, hn, r + (h % (2 << r) == 0))\n"
    "                                   for h, hn, r in counts(deltas)]\n"
    "sys.exit(cli.main(['scan', '--min', '-200', '--max', '200',\n"
    "                   '--json']))\n")

# mu with the first ramified prime flipped: mu(i(e)) is no longer 0
MU_FLIPS_A_RAMIFIED_PRIME = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "mu = mv.mu\n"
    "mv.mu = lambda disc, t, y: mu(disc, t, y) ^ {disc.ramified_primes[0]}\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '20']))\n")

# i with the first ramified prime flipped in the unit part: i kills no
# boundary, mu no longer kills the image of i, and the kernel of i is
# empty, so even the identity class has no boundary preimage
MAP_I_FLIPS_A_RAMIFIED_PRIME = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "map_i = mv.map_i\n"
    "def flipped(e):\n"
    "    t, y = map_i(e)\n"
    "    return t, y ^ {e.disc.ramified_primes[0]}\n"
    "mv.map_i = flipped\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '20']))\n")

# the constructive-kernel preimages are built from split-prime pairs; with
# every pair replaced by the identity idele, no preimage maps back
PREIMAGE_PAIRS_DROPPED = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "mv.split_pair_idele = lambda disc, p, u: mv.IdeleFS.one(disc)\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '5']))\n")

# boundary_after_mu1_trivial reads the boundary of the diagonal idele of a
# norm-one w over a unit idele, which is the class of w*O; a boundary that
# flips the sign of every class off O_F must turn it false, and with it i
# of the boundary, its multiplicativity, and at -23 the kernel's preimages
BOUNDARY_SIGN_FLIPPED = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from qknorm.knorm import K0Elt\n"
    "boundary = mv.boundary\n"
    "def flipped(z):\n"
    "    e = boundary(z)\n"
    "    i = e.ideal\n"
    "    return e if i.n == i.d == i.a == 1 else K0Elt(-1, i)\n"
    "mv.boundary = flipped\n"
    "sys.exit(max(main(['verify', '--disc', d, '--samples', '20'])\n"
    "             for d in ('-23', '60')))\n")

# boundary_is_homomorphism compares boundary(z * z2) with the product of
# the boundaries; a boundary that keeps norm one but drops every idele with
# components above two or more rational primes is not multiplicative, and
# the representatives it gives differ, so k0_eq must compare their classes
BOUNDARY_NOT_MULTIPLICATIVE = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from qknorm.knorm import k0_identity\n"
    "boundary = mv.boundary\n"
    "def local_only(z):\n"
    "    if len({mv.rational_prime_of(p) for p in z.components}) > 1:\n"
    "        return k0_identity(z.disc)\n"
    "    return boundary(z)\n"
    "mv.boundary = local_only\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '80']))\n")

# the split-pair sampler builds (u, u) rather than (u, 1/u): its ideles
# leave the norm kernel, which verify must report as a failed check, with
# no report on stdout and no traceback
PAIR_IDELE_NOT_NORM_ONE = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "def same(dec, u):\n"
    "    pid, pbar = dec.primes\n"
    "    z = mv.QuadNum(2 * u.numerator, 0, u.denominator, pid.disc)\n"
    "    return mv.IdeleFS({pid: z, pbar: z}, pid.disc)\n"
    "mv._pair_idele = same\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '20']))\n")

# the Hermite forms of ideal products with n and e tripled: the first
# product of two ideals, met in class_group's closure, is no longer an
# O_F-module, which k0 must report as a failed check under -O too, with no
# report on stdout and no traceback
HNF_PRODUCT_TRIPLED = (
    "import sys\n"
    "import qknorm.ideals as ideals\n"
    "from qknorm.cli import main\n"
    "hnf2 = ideals._hnf2\n"
    "def tripled(vectors):\n"
    "    n, c, e = hnf2(vectors)\n"
    "    return (3 * n, c, 3 * e) if len(vectors) == 4 else (n, c, e)\n"
    "ideals._hnf2 = tripled\n"
    "sys.exit(main(['k0', '--disc', '136']))\n")

# the transform of a reduction sheared, its first column (u, v) moved to
# (u + u', v + v'): the generator read off it is wrong, which the check of
# every read-off generator (``_checked_generator``) must catch, since
# nothing else checks the transform.  class_group multiplies its classes by
# checked products, so the first class pair of its closure fails, for
# classgroup as for k0
TRANSFORM_SHEARED = (
    "import sys\n"
    "import qknorm.classgroup as cg\n"
    "from qknorm.cli import main\n"
    "reduce = cg.{name}\n"
    "def sheared(*args):\n"
    "    g, (p, q, r, s) = reduce(*args)\n"
    "    return g, (p + q, q, r + s, s)\n"
    "cg.{name} = sheared\n"
    "sys.exit(main(['{command}', '--disc', '{disc}']))\n")

# K0 classes are keyed through checked generators; a read-off that returns
# 2z names an ideal of four times the norm, which the generator check
# catches.  Each command's exit code goes to stderr after its message
BROKEN_GENERATORS = (
    "import sys\n"
    "import qknorm.classgroup as cg\n"
    "from qknorm.cli import main\n"
    "read_off = cg._generator_from_transform\n"
    "cg._generator_from_transform = lambda *a: 2 * read_off(*a)\n"
    "codes = [main(['k0', '--disc', '-23']),\n"
    "         main(['verify', '--disc', '-23', '--samples', '5'])]\n"
    "print(*codes, file=sys.stderr)\n"
    "sys.exit(max(codes))\n")

# a conjugated read-off has the right norm but names the conjugate ideal,
# which only the membership half of the generator check catches
CONJUGATED_GENERATORS = (
    "import sys\n"
    "import qknorm.classgroup as cg\n"
    "from qknorm.cli import main\n"
    "read_off = cg._generator_from_transform\n"
    "cg._generator_from_transform = lambda *a: read_off(*a).conj()\n"
    "codes = [main(['k0', '--disc', '-23']),\n"
    "         main(['k0', '--disc', '-85159']),\n"
    "         main(['verify', '--disc', '-23', '--samples', '5'])]\n"
    "print(*codes, file=sys.stderr)\n"
    "sys.exit(max(codes))\n")

# the unit read-off times x/conj(x), x = (3+sqrt(229))/2 of norm -55: an
# element of norm one that is no unit, which the check eps*O_F = O_F
# catches.  Only generators of O_F itself are skewed, so the class group's
# products (none of which is O_F at 229) keep their read-offs and the unit
# check is the one that fails
SKEWED_UNIT = (
    "import sys\n"
    "import qknorm.classgroup as cg\n"
    "from qknorm.cli import main\n"
    "from qknorm.quadfield import QuadNum\n"
    "read_off = cg._generator_from_transform\n"
    "def skewed(i, m, g):\n"
    "    z = read_off(i, m, g)\n"
    "    if (i.n, i.d, i.a) != (1, 1, 1):\n"
    "        return z\n"
    "    x = QuadNum(3, 1, 1, i.disc)\n"
    "    return z * x / x.conj()\n"
    "cg._generator_from_transform = skewed\n"
    "sys.exit(main(['classgroup', '--disc', '229']))\n")

# every h one too high, with h_narrow following it (h + 1 or 2h + 2): only
# the 2^rank2 | h check can see it, at the first field with rank2 >= 1
H_PLUS_ONE = (
    "import sys\n"
    "from qknorm import cli\n"
    "counts = cli.block_counts\n"
    "cli.block_counts = lambda deltas: [(h + 1, hn // h * (h + 1), r)\n"
    "                                   for h, hn, r in counts(deltas)]\n"
    "sys.exit(cli.main(['scan', '--min', '-200', '--max', '200']))\n")

# every h_narrow flipped between h and 2h: the first imaginary field, or on
# a range of real fields the first exceptional one, fails its check
H_NARROW_FLIPPED = (
    "import sys\n"
    "from qknorm import cli\n"
    "counts = cli.block_counts\n"
    "cli.block_counts = lambda deltas: [(h, 3 * h - hn, r)\n"
    "                                   for h, hn, r in counts(deltas)]\n"
    "sys.exit(cli.main(['scan', '--min', '{lo}', '--max', '200']))\n")

# a genus space one dimension too large, patched into the block engine's
# kernel before the scan: it reaches the forked workers, so the first row
# of -1200..1200 fails the check dim V = t_all - 1 at one job and at two,
# with no rows on stdout
WIDE_GENUS_SPACE = (
    "import contextlib, io, os, sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "dims = mv.block_genus_dims\n"
    "def wide(discs):\n"
    "    dims_v, dims_h = dims(discs)\n"
    "    return [v + (v >= 0) for v in dims_v], dims_h\n"
    "mv.block_genus_dims = wide\n"
    "os.cpu_count = lambda: 2\n"
    "outs = []\n"
    "for jobs in ('1', '2'):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        code = main(['scan', '--min', '-1200', '--max', '1200',\n"
    "                     '--json', '--jobs', jobs])\n"
    "    outs.append((code, out.getvalue()))\n"
    "if outs[0] != outs[1]:\n"
    "    sys.exit('the scans at one and two jobs differ')\n"
    "sys.stdout.write(outs[0][1])\n"
    "sys.exit(outs[0][0])\n")

# the kernel's row of -1 flipped at every ramified p = 1 mod 4, as if
# (-1/p) were -1 there.  An imaginary field is untouched: dim H = 1 for
# D < 0, and a span short of its bound falls back to the per-field path.
# A real field with such a p reads dim H = 1, and on D = p the flipped row
# lifts dim V past t_all - 1 = 0, which verdict (67) alone would not see
# (dim V = 1 = dim H + rank2); the check dim V = t_all - 1 names D = 5.
# On D = 65 = 5 * 13 dim V stays at its bound 1, and the wrong dim H = 1
# alone turns verdict (67) false
MINUS_ONE_ROW_FLIPPED = (
    "import sys\n"
    "import qknorm.scancounts as sc\n"
    "from qknorm.cli import main\n"
    "rows = sc._genus_rows\n"
    "def flipped(discs, *args):\n"
    "    masks, far = rows(discs, *args)\n"
    "    for f, d in enumerate(discs):\n"
    "        masks[0, f] ^= sum(1 << i for i, p in\n"
    "                           enumerate(d.ramified_primes) if p % 4 == 1)\n"
    "    return masks, far\n"
    "sc._genus_rows = flipped\n"
    "sys.exit(main(['scan', '--min', '{lo}', '--max', '{hi}', '--json']))\n")

# a unit idele with a single irrational component above the split 2 of -15
# has no rational idele norm; the explicit check stops verify, under -O too
LOPSIDED_UNIT_IDELE = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from qknorm.quadfield import QuadNum\n"
    "def lopsided(disc, rng, primes):\n"
    "    pid = mv.primes_above(disc, 2).primes[0]\n"
    "    return mv.IdeleFS({pid: QuadNum(1, 1, 1, disc)}, disc)\n"
    "mv.random_unit_idele = lopsided\n"
    "sys.exit(main(['verify', '--disc', '-15', '--samples', '5']))\n")

# h rests on two checks of the class enumeration: the enumerated classes
# must be closed under products, and every rho-cycle must stay inside the
# enumerated forms; an enumerator that drops a form fails one of them
DROPPED_FORM = (
    "import sys\n"
    "import qknorm.classgroup as cg\n"
    "from qknorm.cli import main\n"
    "enum = cg.{name}\n"
    "cg.{name} = lambda D: enum(D)[:-1]\n"
    "sys.exit(main(['classgroup', '--disc', '{disc}']))\n")

# k0's exact compares the enumerated K0 with units-mod-norms times Cl; a
# context that drops the sign from every key at -23 (where it is part of
# the class) halves K0, which its verdicts must report without any check
# raising.  h and the order of K0 go to stderr after the report
SIGNLESS_KEYS = (
    "import contextlib, io, json, sys\n"
    "import qknorm.knorm as knorm\n"
    "from qknorm.cli import main\n"
    "knorm.K0Context.sign_is_invariant = False\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = main(['k0', '--disc', '-23'])\n"
    "doc = json.loads(out.getvalue())\n"
    "print(doc['h'], doc['k0_order'], file=sys.stderr)\n"
    "sys.stdout.write(out.getvalue())\n"
    "sys.exit(code)\n")

FAULT_ROWS = {
    "rank2_off_by_one": (RANK2_OFF_BY_ONE, None,
        "scan: inconclusive: D = -199: h = 9 is not divisible by 2^rank2 = "
        "2\n"),
    "rank2_off_by_one_unseen_in_h": (RANK2_OFF_BY_ONE_UNSEEN_IN_H, {
        "verdict_69": 12, "verdict_67": 12, "verdict_68": 12}, ""),
    "mu_flips_a_ramified_prime": (MU_FLIPS_A_RAMIFIED_PRIME, {
        "mu_after_i_trivial": 1}, ""),
    "map_i_flips_a_ramified_prime": (MAP_I_FLIPS_A_RAMIFIED_PRIME, {
        "i_after_boundary_trivial": 1, "mu_after_i_trivial": 1,
        "constructive_kernel": 1},
        "constructive_kernel: D = -23: the identity class has no boundary "
        "preimage\n"),
    "pair_idele_not_norm_one": (PAIR_IDELE_NOT_NORM_ONE, None,
        "verify: idele norm has nonzero valuation at [41, 47, 59]\n"),
    "preimage_pairs_dropped": (PREIMAGE_PAIRS_DROPPED, {
        "constructive_kernel": 1},
        "constructive_kernel: D = -23: the boundary of the constructed idele "
        "is not the class of (2, FracIdeal(1*[2, (-1+sqrt(-23))/2]))\n"),
    "boundary_sign_flipped": (BOUNDARY_SIGN_FLIPPED, {
        "i_after_boundary_trivial": 2, "boundary_after_mu1_trivial": 2,
        "boundary_is_homomorphism": 2, "constructive_kernel": 1},
        "constructive_kernel: D = -23: the boundary of the constructed idele "
        "is not the class of (2, FracIdeal(1*[2, (-1+sqrt(-23))/2]))\n"),
    "boundary_not_multiplicative": (BOUNDARY_NOT_MULTIPLICATIVE, {
        "boundary_is_homomorphism": 1}, ""),
    "hnf_product_tripled": (HNF_PRODUCT_TRIPLED, None,
        "k0: lattice_product: D = 136: [1, 0] * [3, 2] has Hermite form "
        "(9, 2, 3), not an O_F-module\n"),
    **{f"{kind}_transform_sheared{suffix}": (TRANSFORM_SHEARED.format(
        name=name, command=command, disc=disc), None,
        f"{command}: generator read-off: D = {disc}: {message}\n")
       for kind, name, disc, message in (
           ("definite", "reduce_definite_t", -84,
            "N(QuadNum((6+1*sqrt(-84))/2)) is not 2 * 2"),
           ("indefinite", "reduce_indef_t", 136,
            "N(QuadNum((14+1*sqrt(136))/2)) is not 3 * 3"))
       for command, suffix in (("k0", ""), ("classgroup", "_classgroup"))},
    "broken_generators": (BROKEN_GENERATORS, None,
        "k0: class_and_generator: D = -23: QuadNum((4+0*sqrt(-23))/2) times "
        "FracIdeal(1*[2, (1+sqrt(-23))/2]) is not "
        "FracIdeal(1*[2, (1+sqrt(-23))/2])\n"
        "verify: class_and_generator: D = -23: QuadNum((4+0*sqrt(-23))/2) "
        "times FracIdeal(1*[2, (1+sqrt(-23))/2]) is not "
        "FracIdeal(1*[2, (1+sqrt(-23))/2])\n"
        "1 1\n"),
    "conjugated_generators": (CONJUGATED_GENERATORS, None,
        "k0: class_and_generator: D = -23: QuadNum((-3+-1*sqrt(-23))/4) "
        "times FracIdeal(1*[2, (-1+sqrt(-23))/2]) is not "
        "FracIdeal(1*[4, (-3+sqrt(-23))/2])\n"
        "k0: class_and_generator: D = -85159: "
        "QuadNum((-219+-1*sqrt(-85159))/260) times "
        "FracIdeal(1*[130, (-41+sqrt(-85159))/2]) is not "
        "FracIdeal(1*[256, (-219+sqrt(-85159))/2])\n"
        "verify: class_and_generator: D = -23: QuadNum((-3+-1*sqrt(-23))/4) "
        "times FracIdeal(1*[2, (-1+sqrt(-23))/2]) is not "
        "FracIdeal(1*[4, (-3+sqrt(-23))/2])\n"
        "1 1 1\n"),
    "skewed_unit": (SKEWED_UNIT, None,
        "classgroup: fundamental_unit: D = 229: "
        "QuadNum((-1236+-82*sqrt(229))/110) times O_F is not "
        "FracIdeal(1*[1, (1+sqrt(229))/2])\n"),
    "h_plus_one": (H_PLUS_ONE, None,
        "scan: inconclusive: D = -195: h = 5 is not divisible by 2^rank2 = "
        "4\n"),
    "h_narrow_flipped_imaginary": (H_NARROW_FLIPPED.format(lo=-200), None,
        "scan: inconclusive: D = -199: h_narrow = 18 is not h = 9 for "
        "D < 0\n"),
    "h_narrow_flipped_real": (H_NARROW_FLIPPED.format(lo=1), None,
        "scan: inconclusive: D = 12: h_narrow = 1 is not 2h = 2 for an "
        "exceptional real D\n"),
    "wide_genus_space": (WIDE_GENUS_SPACE, None,
        "scan: inconclusive: D = -1199: dim V = 3 is not t_all - 1 = 2\n"
        * 2),
    "minus_one_row_flipped": (MINUS_ONE_ROW_FLIPPED.format(lo=-1000,
                                                           hi=1000), None,
        "scan: inconclusive: D = 5: dim V = 1 is not t_all - 1 = 0\n"),
    "minus_one_row_flipped_at_65": (MINUS_ONE_ROW_FLIPPED.format(lo=65,
                                                                 hi=65), {
        "verdict_67": 1}, ""),
    "lopsided_unit_idele": (LOPSIDED_UNIT_IDELE, None,
        "verify: idele_norm: D = -15: the components above the split prime "
        "2 have no rational joint image\n"),
    **{f"dropped_form_{kind}": (DROPPED_FORM.format(name=name, disc=disc),
        None, f"classgroup: class_group: D = {disc}: {message}\n")
       for kind, name, disc, message in (
           ("definite", "enumerate_reduced_definite", -23,
            "the 2 enumerated classes generate a group of order 3"),
           ("indefinite", "enumerate_reduced_indefinite", 60,
            "the cycle of (1, 6, -6) leaves the enumerated reduced forms"))},
    "signless_keys": (SIGNLESS_KEYS, {
        "sigma_injective": 1, "exact": 1}, "3 3\n"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("fault", sorted(FAULT_ROWS))
def test_fault_turns_its_verdicts_false(fault, flags, src_env):
    code, false_counts, stderr = FAULT_ROWS[fault]
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == stderr
    if false_counts is None:  # a failed check ends the run: no report
        assert proc.stdout == ""
        return
    decoder, docs, at = json.JSONDecoder(), [], 0
    while at < len(proc.stdout):  # one document per run, each ending a line
        doc, at = decoder.raw_decode(proc.stdout, at)
        docs.append(doc)
        at += 1
    verdicts = (SCAN_VERDICTS if "rows" in docs[0] else
                K0_VERDICTS if "k0_order" in docs[0] else VERIFY_VERDICTS)
    rows = [row for doc in docs for row in doc.get("rows", [doc])]
    got = {v: sum(row[v] == "false" for row in rows) for v in verdicts}
    assert got == {v: false_counts.get(v, 0) for v in verdicts}

