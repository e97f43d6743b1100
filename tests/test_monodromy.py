"""Homotopy words, Z-profiles, closed-form branch corrections.

The heavy validation here is structural: an independent step-by-step
composition engine (leftmost letter traversed first, eigenvalue action
per letter) must reproduce the profile-based closed form, and the
elementary branch terms must obey the index-translation law under a
tracked continuation around z = 0.
"""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from lerchkit.branch_numerics import (branched_power, principal_log,
                                      reciprocal_gamma, semi_principal_log)
from lerchkit.errors import (AccuracyError, DomainError, PoleError,
                             StratumError)
from lerchkit.deformed_polylog import li_star, rho, rho_word
from lerchkit.eval_core import phi
from lerchkit.monodromy import (GeneratorLetter, HomotopyWord, branch_value,
                                c_coeff, f_elementary, monodromy,
                                monodromy_Y, monodromy_Z_conj,
                                monodromy_space_basis, parse_word,
                                reduce_word, z_profile)

L = GeneratorLetter
SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# word syntax and reduction
# ---------------------------------------------------------------------------

def test_parse_word_expands_exponents():
    letters = parse_word("Z0^2 Z1^-1 Y-3")
    assert [str(x) for x in letters] == ["Z0", "Z0", "Z1^-1", "Y-3"]
    assert parse_word("") == []


def test_parse_word_rejects_garbage():
    for bad in ("Q7", "Z0^x", "Yx", "Z2"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_reduce_word_cancellation():
    w = reduce_word(parse_word("Z0 Z0^-1 Y3 Y3^-1 Z1"))
    assert [str(x) for x in w.z_part] == ["Z1"]
    assert w.y_map() == {}
    assert reduce_word(parse_word("Z1 Z1^-1")).is_identity()


def test_reduce_word_collects_y_exponents():
    w = reduce_word(parse_word("Y-2 Z0 Y-2^2 Y0^-1"))
    assert w.y_map() == {-2: 3, 0: -1}
    assert [str(x) for x in w.z_part] == ["Z0"]


def test_z_profile_examples():
    assert z_profile(parse_word("Z1")).h_map() == {0: 1}
    assert z_profile(parse_word("Z1")).t == 0
    p = z_profile(parse_word("Z0 Z1 Z0^-1"))
    assert p.h_map() == {1: 1} and p.t == 0
    p = z_profile(parse_word("Z1 Z0^2 Z1 Z0^-2"))
    assert p.h_map() == {0: 1, 2: 1} and p.t == 0
    p = z_profile(parse_word("Z0 Z1^-1 Z0^-1"))
    assert p.h_map() == {1: -1}
    p = z_profile(parse_word("Z1 Z0"))
    assert p.h_map() == {0: 1} and p.t == 1
    assert z_profile(parse_word("Z0^3")).h_map() == {}


# ---------------------------------------------------------------------------
# elementary terms and coefficients
# ---------------------------------------------------------------------------

def test_f0_at_minus_one():
    # f_0(1/2, -1, 1/2) = -i sqrt(2)
    got = f_elementary(0, 0.5, -1, 0.5)
    assert got == pytest.approx(-1j * SQ2, abs=1e-14)


def test_f_elementary_rejects_origin():
    # every closed form refuses z = 0, 1 and oo as phi does, not only f_n
    forms = ((f_elementary, (1, 0.5)), (monodromy_Z_conj, (1, 1, 0.5)),
             (monodromy_Y, (-1, 1, 0.5)))
    strata = ((0, "singular_z0"), (1 + 1e-9, "singular_z1"),
              (math.inf, "singular_zinf"),
              (complex(0, math.inf), "singular_zinf"))
    for (form, head), (z, tag) in itertools.product(forms, strata):
        with pytest.raises(StratumError) as exc:
            form(*head, z, 0.5)
        assert exc.value.stratum == tag and isinstance(exc.value, DomainError)


def test_c_coeff_value_and_poles():
    assert c_coeff(1, 0.5) == pytest.approx(0.5 - 0.5j, abs=1e-13)
    for s in (1, 2, 5):
        with pytest.raises(PoleError):
            c_coeff(1, s)


def test_single_loop_correction_at_half():
    got = monodromy_Z_conj(0, 1, 0.5, -1, 0.5)
    assert got == pytest.approx(-SQ2 + SQ2 * 1j, abs=1e-13)


def test_z1_correction_at_s_one_is_elementary():
    # z * M_[Z1](1, z, c) = -2 pi i z^{1-c}
    for z in (-1.0 + 0j, -0.6 + 0.3j, 1.8 + 0.9j):
        c = 0.7 - 0.2j
        got = z * monodromy_Z_conj(0, 1, 1, z, c)
        want = -2j * math.pi * cmath.exp((1 - c) * semi_principal_log(z))
        assert got == pytest.approx(want, abs=1e-12)


def test_y_correction_example():
    got = monodromy_Y(0, 1, 0.5, -1, 0.5)
    assert got == pytest.approx(-2 * SQ2, abs=1e-13)


def test_y_correction_trivial_cases():
    assert monodromy_Y(1, 3, 0.5, -1, 0.5) == 0j   # n >= 1 loops act trivially
    assert monodromy_Y(0, 0, 0.5, -1, 0.5) == 0j   # zero winding
    assert monodromy_Y(0, 2, 3, -1, 0.5) == 0j     # integer s: exact zero
    with pytest.raises(StratumError):
        monodromy_Y(0, 1, 0.5, -1, 1e-14)          # c at the puncture


def test_word_ledger_composite():
    total, ledger = monodromy(parse_word("Z1 Y0"), 0.5, -1, 0.5)
    assert total == pytest.approx(-3 * SQ2 + SQ2 * 1j, abs=1e-13)
    labels = [lab for lab, _ in ledger]
    assert any("Y0" in lab for lab in labels)
    assert any("Z1" in lab for lab in labels)
    # text is parsed and reduced first, as rho_word takes it
    assert monodromy("Z1 Y0", 0.5, -1, 0.5) == (total, ledger)
    assert branch_value("Z0 Z1 Z0^-1", 1.5, 0.3 + 0.2j, 0.4) == branch_value(
        parse_word("Z0 Z1 Z0^-1"), 1.5, 0.3 + 0.2j, 0.4)


def test_branch_value_totals():
    bv = branch_value(parse_word(""), 0.5, -1, 0.5)
    assert bv.total == bv.base
    assert bv.contributions == ()
    bv = branch_value(parse_word("Z0^3"), 0.5, -1, 0.5)
    assert bv.total == bv.base  # pure Z0 words are invisible
    bv = branch_value(parse_word("Z1"), 0.5, -1, 0.5)
    assert bv.total == pytest.approx(bv.base + (-SQ2 + SQ2 * 1j), abs=1e-12)


def test_integer_s_vanishing_is_exact():
    rng = random.Random(11)
    for _ in range(40):
        letters = _random_letters(rng, rng.randint(1, 12))
        for s in (0, -1, -2):
            total, _ = monodromy(letters, s, -0.8 + 0.5j, 0.7)
            assert total == 0j  # exact zero, not approximately zero


@pytest.mark.parametrize("fn,args", [
    (monodromy_Y, (-1, 3, 0.5 + 100j, 0.5 + 0.3j, 0.62)),
    (monodromy_Z_conj, (0, 1, 0.5 - 250j, 0.5 + 0.3j, 0.62)),
    # these raised a bare OverflowError, or returned oo or NaN entries
    (f_elementary, (1, 0.5, 0.5 + 0.3j, 0.62 - 200j)),
    (c_coeff, (0, 200.5)),
    (li_star, (2, 3000, 2 + 2j)),
    (rho, ("Z0", 1, 0.5 + 200j)),
    (rho, ("Z0", 2, 0.5 + 112.9j)),
    (rho_word, ("Z0 Z0 Z0 Z0", 1, 0.5 + 60j)),
])
def test_closed_form_overflow_is_an_accuracy_error(fn, args):
    with pytest.raises(AccuracyError, match="overflows double precision"):
        fn(*args)


def test_space_basis_cases():
    assert monodromy_space_basis(-3)["case"] == "nonpositive_integer"
    assert monodromy_space_basis(-3)["dimension"] == 1
    assert monodromy_space_basis(2)["case"] == "positive_integer"
    assert monodromy_space_basis(0.5 + 0.3j)["case"] == "generic"


def test_near_integer_s_is_generic_and_accurate():
    # off the integers by 1e-10 the space is generic and the Y loops act
    s = 2 + 1e-10
    assert monodromy_space_basis(s)["case"] == "generic"
    assert monodromy_Y(-1, 1, s, 0.5 + 0.3j, 0.62) != 0
    # three turns scale one turn by 1 + lam + lam^2 at full precision
    s = 2 + 1e-9
    lam = cmath.exp(2j * math.pi * s)
    one = monodromy_Z_conj(0, 1, s, 0.5 + 0.3j, 0.62)
    three = monodromy_Z_conj(0, 3, s, 0.5 + 0.3j, 0.62)
    assert three == pytest.approx((1 + lam + lam ** 2) * one, rel=1e-13)


# ---------------------------------------------------------------------------
# independent composition engine
# ---------------------------------------------------------------------------

def _random_letters(rng, nlen, y_ns=(-2, -1, 0)):
    base = [L("Z0", 1), L("Z0", -1), L("Z1", 1), L("Z1", -1)]
    out = []
    for _ in range(nlen):
        if rng.random() < 0.75:
            out.append(rng.choice(base))
        else:
            out.append(L("Y", rng.choice([1, -1]), rng.choice(y_ns)))
    return out


def _mono_by_composition(letters, s, z, c):
    """Continuation state machine: track the coefficients of each f_k
    and of each Y-term under one letter at a time (leftmost first)."""
    s = complex(s)
    amp = -cmath.exp(s * math.log(2 * math.pi)
                     + 1j * math.pi * s / 2.0) * reciprocal_gamma(s)
    lam = cmath.exp(2j * math.pi * s)
    mu = cmath.exp(-2j * math.pi * s)
    f, y = {}, {}
    for let in letters:
        if let.kind == "Z0":
            f = {k - let.exp: v for k, v in f.items()}
        elif let.kind == "Z1":
            if let.exp == 1:
                f[0] = lam * f.get(0, 0j) + amp
            else:
                f[0] = (f.get(0, 0j) - amp) / lam
        else:
            if let.exp == 1:
                y[let.n] = mu * y.get(let.n, 0j) + (mu - 1.0)
            else:
                y[let.n] = (y.get(let.n, 0j) - (mu - 1.0)) / mu
    tot = 0j
    for k, v in f.items():
        if v != 0:
            tot += v * f_elementary(k, s, z, c)
    for n, v in y.items():
        if v != 0 and n <= 0:
            tot += v * complex(z) ** (-n) * branched_power(complex(c) - n, -s)
    return tot


_POINTS = [(0.5 + 0.3j, -0.7 + 0.4j, 0.62),
           (-0.3 + 0.8j, 0.35 - 0.55j, 0.8 - 0.2j),
           (1.3 + 0.1j, -1.4 - 0.6j, 0.3 + 0.3j)]


def test_profile_formula_matches_composition_engine():
    # each word as drawn (net Z0 power t, mostly nonzero) and with Z0
    # letters appended to make t = 0
    rng = random.Random(7)
    worst = 0.0
    net_powers = set()
    for _ in range(40):
        letters = _random_letters(rng, rng.randint(1, 10))
        t = sum(x.exp for x in letters if x.kind == "Z0")
        net_powers.add(t)
        balanced = letters + [L("Z0", -1 if t > 0 else 1)] * abs(t)
        for word in (letters, balanced):
            for (s, z, c) in _POINTS:
                direct, _ = monodromy(word, s, z, c)
                comp = _mono_by_composition(word, s, z, c)
                worst = max(worst, abs(direct - comp) / max(1.0, abs(comp)))
    assert len(net_powers - {0}) >= 3
    assert worst < 1e-11


def test_ledger_matches_rho_word_at_integer_s():
    # At s = m, z Phi is Li_{m,c}, the lead entry of the basis of
    # D_{m+1}^c, and row 0 of rho_word holds its continuation along the
    # word: 1 times itself plus row[1 + i] times z^{1-c} (log z)^j / j!,
    # j = m-1-i.  So the ledger total is that tail of the row over z.
    # Base points lie in the closed upper half-plane, where the
    # principal and semi-principal Logs agree.
    rng = random.Random(23)
    letters_z = [L("Z0", 1), L("Z0", -1), L("Z1", 1), L("Z1", -1)]
    bases = (-1, -0.5 + 0.3j, 0.3 + 0.6j, 2 + 0.4j)
    worst = 0.0
    net_powers = set()
    for _ in range(60):
        word = [rng.choice(letters_z) for _ in range(rng.randint(1, 9))]
        net_powers.add(sum(x.exp for x in word if x.kind == "Z0"))
        m = rng.randint(1, 3)
        c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
        row = rho_word(word, m, c).entries[0]
        for z in bases:
            lg = principal_log(z)
            zpow = cmath.exp((1 - c) * lg)
            want = sum(row[1 + i] * zpow * lg ** (m - 1 - i)
                       / math.factorial(m - 1 - i) for i in range(m)) / z
            got, _ = monodromy(word, m, z, c)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert len(net_powers - {0}) >= 3
    assert worst < 1e-12


def test_profile_additivity_under_concatenation():
    # a Z1 met at Z0-offset k is booked at index j = k - t, so the booked
    # profiles g(j) = h(j + t) add as g_{sigma tau}(j) = g_sigma(j + t_tau)
    # + g_tau(j), and Y-maps add
    rng = random.Random(19)
    s, z, c = 0.4 + 0.2j, -0.8 + 0.5j, 0.7
    worst = 0.0
    for _ in range(80):
        sig = _random_letters(rng, rng.randint(1, 8))
        tau = _random_letters(rng, rng.randint(1, 8))
        m_cat, _ = monodromy(sig + tau, s, z, c)
        wsig, wtau = reduce_word(sig), reduce_word(tau)
        psig, ptau = z_profile(wsig.z_part), z_profile(wtau.z_part)
        h = {}
        for k, v in psig.h:
            j = k - psig.t - ptau.t
            h[j] = h.get(j, 0) + v
        for k, v in ptau.h:
            h[k - ptau.t] = h.get(k - ptau.t, 0) + v
        ymap = wsig.y_map()
        for n, k in wtau.y_exponents:
            ymap[n] = ymap.get(n, 0) + k
        pred = sum(monodromy_Z_conj(k, v, s, z, c) for k, v in h.items())
        pred += sum(monodromy_Y(n, k, s, z, c) for n, k in ymap.items())
        worst = max(worst, abs(m_cat - pred) / max(1.0, abs(pred)))
    assert worst < 1e-11


def test_commutators_of_conjugates_vanish_exactly():
    # the normal closure of Z1 is free on the conjugates; commutators of
    # its elements must produce exactly zero correction
    rng = random.Random(3)

    def conj_word(k, e):
        w = [L("Z0", 1 if k >= 0 else -1)] * abs(k)
        return w + [L("Z1", e)] + [x.inverse() for x in reversed(w)]

    def random_h0():
        out = []
        for _ in range(rng.randint(1, 3)):
            out += conj_word(rng.randint(-2, 2), rng.choice([1, -1]))
        return out

    pts = _POINTS + [(0.25 - 0.4j, -0.15 + 0.95j, 1.0),
                     (2.3 + 0.7j, 0.5 + 1.2j, 0.45 + 0.15j)]
    for _ in range(25):
        u, v = random_h0(), random_h0()
        comm = (u + v + [x.inverse() for x in reversed(u)]
                + [x.inverse() for x in reversed(v)])
        for (s, z, c) in pts:
            total, _ = monodromy(comm, s, z, c)
            assert total == 0j


# ---------------------------------------------------------------------------
# index translation under a tracked z0 loop
# ---------------------------------------------------------------------------

def _continue_f_z0_loop(p, s, z0, c, steps=1500):
    """Continue f_p along a dented loop winding once ccw about 0 and
    zero times about 1 (radial to radius 0.45, circle, radial back)."""
    s, c = complex(s), complex(c)
    path = []
    r0, th0 = abs(z0), cmath.phase(z0)
    for i in range(steps):
        path.append(cmath.rect(r0 + (0.45 - r0) * i / steps, th0))
    for i in range(4 * steps):
        path.append(cmath.rect(0.45, th0 + 2 * math.pi * i / (4 * steps)))
    for i in range(steps + 1):
        path.append(cmath.rect(0.45 + (r0 - 0.45) * i / steps, th0))
    lg = semi_principal_log(z0)
    a = lg / (2j * math.pi)
    w = (p - a) if p >= 1 else (a - p)
    lw = principal_log(w)
    zprev = path[0]
    for z in path[1:]:
        lg += principal_log(z / zprev)
        a = lg / (2j * math.pi)
        wn = (p - a) if p >= 1 else (a - p)
        lw += principal_log(wn / w)
        w, zprev = wn, z
    val = (cmath.exp(2j * math.pi * p * c) * cmath.exp(-c * lg)
           * cmath.exp((s - 1) * lw))
    if p >= 1:
        val *= cmath.exp(1j * math.pi * (s - 1))
    return val


def test_z0_loop_translates_f_index():
    s, c = 0.5 + 0.3j, 0.65 + 0.1j
    worst = 0.0
    for z0 in (-0.6 + 0.3j, 1.8 + 0.9j, 0.4 - 0.7j):
        for p in (-1, 0, 1):
            got = _continue_f_z0_loop(p, s, z0, c)
            want = f_elementary(p - 1, s, z0, c)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# linear independence of the branch family
# ---------------------------------------------------------------------------

def test_branch_family_linearly_independent():
    s, c = 0.5 + 1j / 3, 0.6
    zs = [cmath.rect(0.3 + 0.17 * i, 0.4 + 0.55 * i) for i in range(10)]
    zs = [z if abs(z.imag) > 1e-3 else z + 0.2j for z in zs]
    mat = np.zeros((10, 8), dtype=complex)
    for i, z in enumerate(zs):
        for j, k in enumerate(range(-3, 4)):
            mat[i, j] = f_elementary(k, s, z, c)
        mat[i, 7] = phi(s, z, c).value
    sv = np.linalg.svd(mat, compute_uv=False)
    assert int(np.sum(sv > sv[0] * 1e-10)) == 8


# ---------------------------------------------------------------------------
# letter / word objects
# ---------------------------------------------------------------------------

def test_letter_inverse_and_validation():
    assert str(L("Z0", 1).inverse()) == "Z0^-1"
    assert L("Y", -1, 2).inverse() == L("Y", 1, 2)
    with pytest.raises(ValueError):
        L("Z0", 2)       # exponents are +-1 after expansion
    with pytest.raises(ValueError, match="kind must be Z0, Z1 or Y"):
        L("Z2")
    with pytest.raises(ValueError):
        L("Y", 1)        # Y needs an index
    with pytest.raises(ValueError):
        L("Z1", 1, 3)    # Z letters carry no index
    with pytest.raises(ValueError):
        L("Y")
    with pytest.raises(ValueError):
        L("Z0", exp=2)
    with pytest.raises(ValueError):
        L("Z0")._replace(exp=2)  # the copy is checked like a new letter
    assert L("Z0")._replace(exp=-1) == L("Z0", -1)


def test_homotopy_word_is_hashable_and_ordered():
    w1 = reduce_word(parse_word("Y0 Y-2 Z1"))
    w2 = reduce_word(parse_word("Y-2 Y0 Z1"))
    assert w1 == w2  # y exponents stored sorted
    assert hash(w1) == hash(w2)
    w3 = reduce_word(parse_word("Z0 Z0^-1 Y-2 Y0 Y3 Z1 Y3^-1"))
    assert len({w1, w2, w3, reduce_word([])}) == 2


def test_homotopy_word_text():
    # Z letters in order, then each Y with its net exponent; e when empty
    assert str(reduce_word(parse_word("Z0 Z1^-1 Y-2^3 Y1 Z1 Z1^-1"))) \
        == "Z0 Z1^-1 Y-2^3 Y1^1"
    assert str(HomotopyWord()) == "e"
