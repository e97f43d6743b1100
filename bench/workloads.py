"""Seeded input generators for the four benchmark workloads.

Every generator takes the seed as its argument and gives the same
inputs for the same seed.  The library workloads' generators are endless
streams, so that a run of any length draws fresh inputs.  Generated points keep at least ``MARGIN``
away from the singular strata z = 0, z = 1 and c in {0, -1, -2, ...},
and from the cut [1, oo), so that any error the program raises on them
is a failure of the program, not of the input.
"""

import cmath
import math
import random
from fractions import Fraction

MARGIN = 1e-6

# |z| bands of the `box` workload: equal shares of points per band
BOX_BANDS = ((0.0, 0.99), (0.99, 3.0), (3.0, 50.0))


def too_close(z, c):
    """True when (z, c) lies within MARGIN of a stratum or of the cut."""
    z, c = complex(z), complex(c)
    if abs(z) < MARGIN or abs(z - 1) < MARGIN:
        return True
    if z.real >= 1.0 - MARGIN and abs(z.imag) < MARGIN:
        return True
    n = min(0, round(c.real))
    return abs(c - n) < MARGIN


def _rng(seed, workload):
    return random.Random("%s:%d" % (workload, seed))


def _latin(rng, n, dims):
    """n points of [0, 1)^dims with one point in each of the n equal
    slices of every axis (a Latin hypercube)."""
    axes = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        axes.append([(k + rng.random()) / n for k in perm])
    return list(zip(*axes))


# points per `box` block: every block holds the same number of points per
# |z| band and per kind of s
BOX_BLOCK = 72


def box_points(seed):
    """The points of the full parameter box, an endless seeded stream.

    s in [-6, 8], one point in three with Im s in [-15, 15]; |z| uniform
    in one of the three bands, arg z uniform; c in [-4, 6] + i[-3, 3].
    Points come in blocks of BOX_BLOCK: the band cycles with the index
    and every third point of a band has complex s, and inside each
    (band, kind of s) cell the coordinates form a Latin hypercube.  The
    box is still sampled uniformly, but the mix of easy and failing
    points varies less from seed to seed.  Yields (s, z, c, band)
    tuples.
    """
    rng = _rng(seed, "box")
    while True:
        # per block and band: BOX_BLOCK/9 complex-s and 2 BOX_BLOCK/9 real-s
        cells = {(band, cplx): _latin(rng, (1 if cplx else 2) * BOX_BLOCK // 9, 6)
                 for band in range(3) for cplx in (False, True)}
        for i in range(BOX_BLOCK):
            band, cplx = i % 3, i % 9 in (0, 4, 8)
            u_re, u_im, u_r, u_arg, u_cre, u_cim = cells[band, cplx].pop()
            s = -6.0 + 14.0 * u_re
            if cplx:
                s = complex(s, -15.0 + 30.0 * u_im)
            lo, hi = BOX_BANDS[band]
            z = cmath.rect(lo + (hi - lo) * u_r, math.pi * (2.0 * u_arg - 1.0))
            c = complex(-4.0 + 10.0 * u_cre, -3.0 + 6.0 * u_cim)
            if not too_close(z, c):
                yield s, z, c, band


def disk_points(seed):
    """Points inside |z| <= 0.75 with Re c > 0 (the series region), an
    endless seeded stream.

    Every fifth point is exact: integer s in [-8, 0], rational z with
    0 < |z| <= 3/4 and rational c in (0, 6].  The others are float or
    complex: s in [-6, 8] (every other one complex), |z| <= 0.75 and
    c in (0, 6] + i[-3, 3].  Yields (s, z, c, exact) tuples.
    """
    rng = _rng(seed, "disk")
    i = 0
    while True:
        exact = i % 5 == 4
        if exact:
            s = -rng.randint(0, 8)
            q = rng.randint(2, 12)
            z = Fraction(rng.choice((-1, 1)) * rng.randint(1, (3 * q) // 4), q)
            c = Fraction(rng.randint(1, 6 * q), q)
        else:
            s = rng.uniform(-6.0, 8.0)
            if i % 2:
                s = complex(s, rng.uniform(-15.0, 15.0))
            z = cmath.rect(rng.uniform(0.0, 0.75),
                           rng.uniform(-math.pi, math.pi))
            c = complex(rng.uniform(MARGIN, 6.0), rng.uniform(-3.0, 3.0))
        i += 1
        if not too_close(z, c):
            yield s, z, c, exact


def transport_cases(seed, per_stratum=16):
    """The cases of the `transport` workload, an endless seeded stream
    made of rounds.

    For m in {1, 2, 3} and both loops, a round draws `per_stratum`
    values of c from each of four strata: regular complex (a Latin
    hypercube over [0.1, 0.9] + i[-0.5, 0.5]), rational (p/q, q cycling
    through 3..9), singular (c = 0) and removable (1, 2, 3 in turn).  A
    round visits the 24 (m, loop, stratum) groups once, in a seeded
    order, before it visits any group again, so every prefix holds the
    groups in equal shares.  Yields (m, c, generator) tuples.
    """
    rng = _rng(seed, "transport")
    while True:
        groups = []
        for m in (1, 2, 3):
            for gen in ("Z0", "Z1"):
                strata = ([], [], [], [])
                for k, (u, v) in enumerate(_latin(rng, per_stratum, 2)):
                    q = 3 + k % 7
                    strata[0].append(complex(0.1 + 0.8 * u, v - 0.5))
                    strata[1].append(Fraction(rng.randint(1, q - 1), q))
                    strata[2].append(0)
                    strata[3].append(1 + k % 3)
                for cs in strata:
                    rng.shuffle(cs)
                    groups.append([(m, c, gen) for c in cs])
        for k in range(per_stratum):
            rng.shuffle(groups)
            yield from (g[k] for g in groups)


def _num(x):
    """CLI text for a number: p/q for exact inputs, repr for floats,
    `re+im i` for complex."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    x = complex(x)
    if x.imag == 0.0:
        return repr(x.real)
    im = repr(x.imag)
    return "%r%s%si" % (x.real, "" if im.startswith("-") else "+", im)


def session_script(seed):
    """The fixed command script of the `session` workload.

    Returns a list of dicts: `argv` follows `lerch-kit`, `kind` names the
    subcommand and `point` holds the (s, z, c) evaluated, where there is
    one, for the output checks in run.py.  The eval points take the
    series, integral, c_shift, reflection and rational routes.  Options
    are written `--name=value` so that negative numbers parse.
    """
    rng = _rng(seed, "session")

    def inner(r_lo, r_hi):
        return cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(0.3, 2.8))

    s_pos = round(rng.uniform(0.6, 3.0), 3)
    s_neg = round(rng.uniform(-3.0, -0.2), 3)
    c_pos = round(rng.uniform(0.2, 0.8), 3)
    evals = [
        (s_pos, inner(0.1, 0.7), c_pos + 1),                    # series
        (s_pos, inner(0.8, 0.95), c_pos),                       # integral
        (s_pos, inner(0.1, 0.7), -c_pos - 1),                   # c_shift
        (s_neg, inner(0.8, 0.95), c_pos),                       # reflection
        (-rng.randint(1, 6), Fraction(rng.randint(1, 5), 7),
         Fraction(rng.randint(1, 9), 4)),                       # rational
    ]

    def opts(**kw):
        return ["--%s=%s" % (k, _num(v)) for k, v in kw.items()]

    script = [{"kind": "eval", "point": (s, z, c),
               "argv": ["eval"] + opts(s=s, z=z, c=c) + ["--json"]}
              for s, z, c in evals]
    point = (s_pos, inner(0.3, 0.7), c_pos)
    script.append({"kind": "monodromy", "point": point,
                   "argv": ["monodromy", "--word=Z0 Z1 Z0^-1 Y2"]
                   + opts(s=point[0], z=point[1], c=point[2]) + ["--json"]})
    point = (-12, Fraction(rng.randint(1, 5), 7), Fraction(rng.randint(1, 8), 3))
    script.append({"kind": "special", "point": point,
                   "argv": ["special", "--m=12"]
                   + opts(z=point[1], c=point[2]) + ["--json"]})
    m, c = rng.randint(2, 4), Fraction(rng.randint(1, 4), 5)
    script.append({"kind": "ode", "point": (m, c),
                   "argv": ["ode", "--m=%d" % m, "--c=%s" % c,
                            "--matrices", "--coeffs", "--class", "--json"]})
    script.append({"kind": "sweep", "point": (s_pos, None, c_pos),
                   "argv": ["sweep", "--expr=phi", "--grid=z=-0.6:0.6:40"]
                   + opts(s=s_pos, c=c_pos)})
    a = Fraction(rng.randint(1, 4), 5)
    script.append({"kind": "sweep", "point": (None, a, None),
                   "argv": ["sweep", "--expr=periodic_zeta",
                            "--grid=s=-2.5:1.5:20", "--a=%s" % a]})
    script.append({"kind": "verify", "point": None,
                   "argv": ["verify", "--suite=all"]})
    return script
