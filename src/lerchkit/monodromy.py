"""Homotopy-word algebra and closed-form monodromy of the Lerch branch.

Words live in the direct product  F2<Z0, Z1>  x  F(..., Y_-1, Y_0, Y_1, ...):
Z0 and Z1 are loops around z = 0 and z = 1, Y_n a loop around c = n, and
the Y's commute with everything, so a word is stored as a freely reduced
Z-letter sequence plus a net-exponent map for the Y's.

The Z-side monodromy of the branch Z~ of Phi is carried entirely by the
conjugates  Z0^j Z1 Z0^{-j}: scanning the Z-part left to right and
logging each Z1^{+-1} at its current net Z0-offset k gives the profile
h(k) and the word's net Z0 power t.  The word is Z0^t times the
conjugates with j = k - t, since every later Z0 loop moves an
accumulated term f_j to f_{j-1}; the pure power Z0^t on its own
contributes nothing.  Each conjugate power contributes a closed form
built from the elementary functions f_n of ``f_elementary``, each a
residue of the Mellin kernel that ``phi_integral`` integrates.  Y_n
contributes only for n <= 0.  Everything vanishes *identically* at
s in {0, -1, -2, ...} (the reciprocal gamma factor and the unit phase
factors), and all Y-monodromy vanishes at every integer s.  The closed
forms pass ``phi``'s ``finite_entry``, its stratum test on z (z = 0,
within 1e-8 of 1, oo: its StratumError) and a ``finite_exit`` that
refuses one past double range, e.g. |k Im s| > ~113 in e^{2 pi i k s}.
"""

import cmath
import math
from collections import namedtuple

from .branch_numerics import (
    as_int,
    branched_power,
    finite_entry,
    finite_exit,
    principal_log,
    reciprocal_gamma,
    semi_principal_log,
)
from .errors import StratumError
from .eval_core import _refuse_singular, _stratum, c_coeff
from .eval_core import phi as _phi

__all__ = [
    "GeneratorLetter",
    "HomotopyWord",
    "ZProfile",
    "BranchValue",
    "parse_word",
    "reduce_word",
    "z_profile",
    "f_elementary",
    "c_coeff",
    "monodromy_Z_conj",
    "monodromy_Y",
    "monodromy",
    "branch_value",
    "monodromy_space_basis",
]

_2PI = 2.0 * math.pi
_2PI_I = 2j * math.pi


class GeneratorLetter(namedtuple("GeneratorLetter", "kind exp n")):
    """kind "Z0", "Z1" or "Y"; exp +1 or -1; n the puncture index, Y only."""

    __slots__ = ()

    def __new__(cls, kind, exp=1, n=None):
        if kind not in ("Z0", "Z1", "Y"):
            raise ValueError("letter kind must be Z0, Z1 or Y")
        if exp not in (1, -1):
            raise ValueError("letter exponent must be +1 or -1")
        if (kind == "Y") != (n is not None):
            raise ValueError("Y letters need an index n; Z letters must not")
        return super().__new__(cls, kind, exp, n)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that _replace checks the new fields too

    def inverse(self):
        return GeneratorLetter(self.kind, -self.exp, self.n)

    def __str__(self):
        base = self.kind if self.kind != "Y" else "Y%d" % self.n
        return base if self.exp == 1 else base + "^-1"


class HomotopyWord(namedtuple("HomotopyWord", "z_part y_exponents",
                              defaults=((), ()))):
    """z_part a tuple of Z letters; y_exponents sorted ((n, k(n)), ...),
    zeros dropped."""

    __slots__ = ()

    def y_map(self):
        return dict(self.y_exponents)

    def is_identity(self):
        return not self.z_part and not self.y_exponents

    def __str__(self):
        bits = [str(letter) for letter in self.z_part]
        bits += ["Y%d^%d" % (n, k) for n, k in self.y_exponents]
        return " ".join(bits) if bits else "e"


class ZProfile(namedtuple("ZProfile", "h t", defaults=((), 0))):
    """h sorted ((k, h(k)), ...), zeros dropped; t an integer."""

    __slots__ = ()

    def h_map(self):
        return dict(self.h)


BranchValue = namedtuple("BranchValue", "base contributions total")


def parse_word(text):
    """Parse CLI word syntax: whitespace-separated `Z0`, `Z1`, `Y<n>`
    tokens with an optional `^<int>` exponent, e.g. "Z0^2 Z1^-1 Y-3".

    Exponents are expanded into single +-1 letters.
    """
    letters = []
    for token in text.split():
        body, _, exp_text = token.partition("^")
        try:
            exp = int(exp_text) if exp_text else 1
        except ValueError:
            raise ValueError("bad exponent in token %r" % token) from None
        if body in ("Z0", "Z1"):
            letter = GeneratorLetter(body, 1)
        elif body.startswith("Y"):
            try:
                n = int(body[1:])
            except ValueError:
                raise ValueError("bad Y index in token %r" % token) from None
            letter = GeneratorLetter("Y", 1, n)
        else:
            raise ValueError("unknown generator %r (want Z0, Z1 or Y<n>)"
                             % token)
        if exp >= 0:
            letters.extend([letter] * exp)
        else:
            letters.extend([letter.inverse()] * (-exp))
    return letters


def reduce_word(raw):
    """Split off the (commuting) Y-letters into a net-exponent map and
    freely reduce the remaining Z-letter sequence."""
    y = {}
    stack = []
    for letter in raw:
        if letter.kind == "Y":
            y[letter.n] = y.get(letter.n, 0) + letter.exp
        else:
            if stack and stack[-1].kind == letter.kind \
                    and stack[-1].exp == -letter.exp:
                stack.pop()
            else:
                stack.append(letter)
    y_items = tuple(sorted((n, k) for n, k in y.items() if k != 0))
    return HomotopyWord(tuple(stack), y_items)


def z_profile(z_part):
    """Scan a freely reduced Z-letter sequence left to right, tracking
    the net Z0-offset; each Z1^{+-1} met at offset k adds its exponent
    to h(k).  The final offset is the residual t."""
    h = {}
    offset = 0
    for letter in z_part:
        if letter.kind == "Z0":
            offset += letter.exp
        else:
            h[offset] = h.get(offset, 0) + letter.exp
    h_items = tuple(sorted((k, v) for k, v in h.items() if v != 0))
    return ZProfile(h_items, offset)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _residue(n, sc, zc, cc):
    """t_n^{s-1} e^{-c t_n}: the residue of t^{s-1} e^{-ct} / (1 - z e^{-t})
    at its pole t_n = Log z - 2 pi i n, where (1 - z e^{-t})' = 1; Log and
    the power semi-principal, arg t in [0, 2 pi)."""
    lg = principal_log(zc)  # + 2 pi i when Im < 0: the semi-principal Log
    t = lg + _2PI_I * ((lg.imag < 0.0) - n)  # with no cancellation in Im t
    return cmath.exp((sc - 1.0) * semi_principal_log(t) - cc * t)


def f_elementary(n, s, z, c):
    """The elementary monodromy function on the cut domain,

        f_n(s,z,c) = e^{i pi (s-1)} e^{2 pi i n c} z^{-c} (n-a)^{s-1}  (n >= 1)
        f_n(s,z,c) =                e^{2 pi i n c} z^{-c} (a-n)^{s-1}  (n <= 0)

    a = Log z / 2 pi i and z^{-c} semi-principal (0 <= Re(a) < 1), the
    inner power principal, positive real z its upper-edge value.  Both are
    (2 pi i)^{1-s} ``_residue``, whose arg t_n in (pi, 2 pi) for n >= 1
    carries the phase e^{i pi (s-1)}."""
    sc, zc, cc = finite_entry("s z c", (s, z, c))
    _refuse_singular(z, None)
    return finite_exit("f_elementary", (n, s, z, c), lambda: branched_power(
        _2PI_I, 1.0 - sc) * _residue(n, sc, zc, cc))


def _expm1_2pi_i(k, s):
    """e^{2 pi i k s} - 1 for integer k, free of cancellation near
    integer s: it is evaluated at d = s - round(Re s), which is exact,
    and is an exact zero only when d or k is."""
    d = complex(s.real - round(s.real), s.imag)
    x, y = -_2PI * k * d.imag, _2PI * k * d.real
    em1 = math.expm1(x)
    return complex(em1 * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   (em1 + 1.0) * math.sin(y))


def _geom_ratio(s, j):
    """(lambda^j - 1)/(lambda - 1) with lambda = e^{2 pi i s}; the 0/0
    limit j is taken only at exactly integer s."""
    den = _expm1_2pi_i(1, s)
    if den == 0:
        return float(j)
    return _expm1_2pi_i(j, s) / den


def monodromy_Z_conj(k, j, s, z, c):
    """Monodromy of the branch along ([Z0]^k [Z1] [Z0]^{-k})^j.

    The single-turn value is -2 pi i Gamma(s)^{-1} ``_residue`` at t_k;
    further turns scale geometrically with ratio e^{2 pi i s}, and the
    reciprocal gamma factor kills everything identically at
    s in {0, -1, -2, ...} (exact complex zero, not rounding-level).
    """
    sc, zc, cc = finite_entry("s z c", (s, z, c))
    _refuse_singular(z, None)

    def route():
        rg = 0j if j == 0 else reciprocal_gamma(sc)
        if rg == 0:
            return 0j
        return -_2PI_I * rg * _residue(k, sc, zc, cc) * _geom_ratio(sc, j)
    return finite_exit("monodromy_Z_conj", (k, j, s, z, c), route)


def monodromy_Y(n, k, s, z, c):
    """Monodromy of the branch along [Y_n]^k.

    Zero for n >= 1 (those punctures do not see the principal branch)
    and exactly zero at every integer s; otherwise (e^{-2 pi i k s} - 1)
    z^{-n} (c-n)^{-s}, which folds the one-turn value and the geometric
    power scaling into a single factor (exact for negative k too).
    """
    sc, zc, cc = finite_entry("s z c", (s, z, c))
    _refuse_singular(z, None)
    if k == 0 or n >= 1:
        return 0j
    tag, puncture = _stratum(None, c)
    if puncture == n:
        raise StratumError("c = %s sits on the puncture of Y_%d" % (c, n),
                           stratum=tag)

    def route():
        factor = _expm1_2pi_i(-k, sc)
        if factor == 0:
            return 0j
        return factor * zc ** (-n) * branched_power(cc - n, -sc)
    return finite_exit("monodromy_Y", (n, k, s, z, c), route)


def _reduced(word):
    """``word`` as a HomotopyWord: text parsed, then letters reduced."""
    if isinstance(word, str):
        word = parse_word(word)
    return word if isinstance(word, HomotopyWord) else reduce_word(word)


def monodromy(word, s, z, c):
    """Total monodromy of the branch along a word (text, letters or a
    ``HomotopyWord``), with an itemized ledger.

    Returns (total, ledger) where ledger lists ("<term>", value) pairs:
    the Y-part summed over net exponents, the Z-part over the conjugate
    profile, each Z1 met at offset k booked as the conjugate of index
    k - t (t the net Z0 power, which on its own contributes nothing).
    Exact zeros stay exact, so the total is the exact complex 0 at
    s in Z_{<=0}.
    """
    word = _reduced(word)
    ledger = []
    total = 0j
    for n, k in word.y_exponents:
        v = monodromy_Y(n, k, s, z, c)
        ledger.append(("Y%d^%d" % (n, k), v))
        total += v
    profile = z_profile(word.z_part)
    for k, h in profile.h:
        j = k - profile.t
        v = monodromy_Z_conj(j, h, s, z, c)
        ledger.append(("(Z0^%d Z1 Z0^%d)^%d" % (j, -j, h), v))
        total += v
    return total, ledger


def branch_value(word, s, z, c, tol=1e-12):
    """Value of the branch reached by continuing along `word`, as
    principal value plus itemized monodromy contributions."""
    word = _reduced(word)
    base = _phi(s, z, c, tol=tol).value
    total, ledger = monodromy(word, s, z, c)
    return BranchValue(base, tuple(ledger), base + total)


def monodromy_space_basis(s):
    """Symbolic description of the space spanned by all branches at
    fixed s: the three regimes are non-positive integer s (single
    valued, the branch alone), positive integer s (conjugate family
    only), and generic s (conjugates plus the Y-family)."""
    is_int, n = as_int(s)
    if is_int and n <= 0:
        return {
            "case": "nonpositive_integer",
            "dimension": 1,
            "generators": ["Z~"],
            "note": "all monodromy vanishes identically; the branch is "
                    "a rational function of (z, c)",
        }
    if is_int:
        return {
            "case": "positive_integer",
            "dimension": "countably infinite",
            "generators": ["Z~", "f_k for all integer k"],
            "note": "Y-monodromy vanishes at integer s; conjugate terms "
                    "survive with ratio limits",
        }
    return {
        "case": "generic",
        "dimension": "countably infinite",
        "generators": ["Z~", "f_k for all integer k",
                       "z^{-n} (c-n)^{-s} for n <= 0"],
        "note": "full conjugate and Y families",
    }
