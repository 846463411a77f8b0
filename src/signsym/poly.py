"""Exact sparse polynomials in two variable families and the averaging operator.

Polynomials live in Q[x_1..x_n, y_1..y_n] with Fraction coefficients.  A
signed permutation acts diagonally, sending x_i and y_i to
sign(sigma(i)) * x_{|sigma(i)|} and sign(sigma(i)) * y_{|sigma(i)|}.
Invariance is decided by orbits, without acting on anything: the group
negates a term with an odd slot and otherwise only rearranges its
exponent pairs.  The averaging operator projects onto the invariant
ring by averaging the orbit of each monomial.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import accumulate

from .signed_perm import ASCII_FRACTION, Value, check_rank, check_scalar

Scalar = int | Fraction

#: Cap on the terms that ``rho`` and the products of ``straighten`` build: CLI
#: ``rho`` of 90,720 terms takes 1.9 s and 117 MB, and ``straighten`` of x1^30
#: y1^30 at rank 3 builds 69,121 in 1.25 s (2-vCPU Xeon).
TERM_GUARD = 100_000


def check_terms(count: int, what: str, *args: object) -> None:
    """Refuse ``count`` terms past ``TERM_GUARD``.  The message, built only then,
    is ``what`` formatted with ``args`` and with ``_count_text(count)`` as
    ``{count}``, followed by the cap."""
    if count > TERM_GUARD:
        raise ValueError(f"{what.format(*args, count=_count_text(count))} the cap of {TERM_GUARD}")


#: Cap on the exponent entries, 2n per term of rank n, that ``rho`` builds and
#: that ``Polynomial.from_json`` reads: CLI ``rho --format json`` of x1^2 at
#: n=1200 builds 2,880,000 in 0.65 s and 78 MB, at n=2400 11,520,000 in
#: 2.2-2.4 s and 260 MB, and at n=4800 would build 46,080,000 in about 12.7 s
#: and 988 MB (2-vCPU Xeon).
ENTRY_GUARD = 16_000_000


def check_entries(terms: int, n: int, what: str) -> None:
    """Refuse ``terms`` terms of rank n, 2n exponent entries each, past
    ``ENTRY_GUARD``; the message names ``what``."""
    entries = 2 * n * terms
    if entries > ENTRY_GUARD:
        raise ValueError(f"{what} has {_count_text(entries)} exponent entries, above the cap of {ENTRY_GUARD}")


def _count_text(count: int) -> str:
    """``count`` in digits up to 64 bits, else as its order of magnitude: Python
    refuses to print an int past 4,300 digits, and no reader needs one."""
    return str(count) if count.bit_length() <= 64 else f"about 10^{round(math.log10(count))}"


_ZERO = Fraction(0)


class Monomial(Value, namedtuple("Monomial", "p q")):
    """x^p y^q as a pair of dense exponent vectors of equal length."""

    __slots__ = ()

    def __new__(cls, p: tuple[int, ...], q: tuple[int, ...]) -> Monomial:
        p = tuple(p)
        q = tuple(q)
        if len(p) == 0 or len(p) != len(q):
            raise ValueError(
                f"exponent vectors must be nonempty and of equal length, got {len(p)} and {len(q)} entries"
            )
        # Exact type int refuses floats, bools and strings alike; ``min``
        # runs only once every entry is an int.
        if set(map(type, p + q)) != {int} or min(p + q) < 0:
            raise ValueError(f"exponents must be non-negative integers, got {p} and {q}")
        return tuple.__new__(cls, (p, q))

    @classmethod
    def _from_checked(cls, p: tuple[int, ...], q: tuple[int, ...]) -> Monomial:
        """x^p y^q with no check, for exponent tuples already known to be
        valid: nonempty, of equal length, non-negative ints.  Each caller
        says why its exponents are; anything from outside goes through
        ``Monomial(p, q)``."""
        return tuple.__new__(cls, (p, q))

    @property
    def n(self) -> int:
        return len(self.p)

    def odd_slot(self) -> int | None:
        """First slot k (from 1) with p_k + q_k odd, whose sign flip negates this monomial."""
        return next((k for k, (a, b) in enumerate(zip(self.p, self.q), start=1) if (a + b) % 2), None)

    def text(self) -> str:
        parts = []
        for name, exps in (("x", self.p), ("y", self.q)):
            for i, e in enumerate(exps, start=1):
                if e == 1:
                    parts.append(f"{name}{i}")
                elif e > 1:
                    parts.append(f"{name}{i}^{e}")
        return " ".join(parts) if parts else "1"


def json_object(data: object, what: str, key: str, fields: set[str]) -> tuple[int, list[dict]]:
    """The rank and the ``key`` list of a JSON object; bool and float ranks are refused.

    A missing ``key`` is refused, since a misspelt key would load as zero.
    So is a key other than "n" and ``key`` in the object, or other than
    ``fields`` in an entry of the list, since it would be dropped unread.
    """
    try:
        check_rank(data.get("n") if isinstance(data, dict) else None)
    except ValueError:
        raise ValueError(f'{what} must be a JSON object with a positive integer "n"') from None
    entries = data.get(key)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f'{what} needs "{key}", a list of objects')
    _known_keys([data], {"n", key}, what)
    _known_keys(entries, fields, f'an entry of "{key}"')
    return data["n"], entries


def _known_keys(objs: list[dict], known: set[str], what: str) -> None:
    # Refuses the first key of ``objs`` outside ``known``, named by its
    # repr, which keeps a key holding a newline on the one line of the
    # refusal.
    unknown = set().union(*objs) - known
    if unknown:
        key = next(k for obj in objs for k in obj if k in unknown)
        raise ValueError(f"{what} has an unknown key {key!r}")


class Polynomial:
    """Finite map from monomials to nonzero exact rational coefficients.

    Instances are immutable and zero coefficients are never stored.  A
    key that is not a ``Monomial`` of rank n, and a coefficient that is
    not an ``int`` or a ``Fraction``, are refused with ValueError.

    Each term is checked once, where it enters: by this constructor, or
    by ``from_json``, which checks what it reads and then builds through
    ``_from_checked``, as do ``rho`` and ``BasisExpansion.coefficient``,
    whose terms are made from checked ones.  The terms grouped by
    ``orbit_key`` are kept once made, since the terms never change, so
    each term's pairs are sorted once however many readers group them.
    """

    __slots__ = ("n", "_terms", "_groups")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        check_rank(n)
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if not isinstance(m, Monomial):
                raise ValueError(f"term key {m!r} is not a Monomial")
            if m.n != n:
                raise ValueError(f"monomial rank {m.n} does not match polynomial rank {n}")
            if type(c) is not Fraction:
                check_scalar(c)
                c = Fraction(c)
            if c:
                clean[m] = c
        self.n = n
        self._terms = clean
        self._groups = None

    @classmethod
    def _from_checked(cls, n: int, terms: dict[Monomial, Fraction]) -> Polynomial:
        """A polynomial that takes over ``terms`` with no check: every key a
        ``Monomial`` of rank n, every value a nonzero ``Fraction``.  Each
        caller says why its terms are."""
        f = cls.__new__(cls)
        f.n = n
        f._terms = terms
        f._groups = None
        return f

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls(m.n, {m: coeff})

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, _ZERO)

    def monomials(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical order, decreasing lexicographic on (p, q)."""
        return sorted(self._terms.items(), key=lambda mc: (mc[0].p, mc[0].q), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # mutable-looking container; expansions key on permutations instead

    def text(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for m, c in self.items():
            mono = m.text()
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)} {mono}"
            chunks.append((c < 0, body))
        out = ("-" if chunks[0][0] else "") + chunks[0][1]
        for negative, body in chunks[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {self.text()})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"p": list(m.p), "q": list(m.q), "coeff": str(c)}
                for m, c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        # Exponents are lists, whose entries ``Monomial`` checks;
        # coefficients may also be exact fraction strings.  The fraction
        # is built from the integers that ``ASCII_FRACTION`` matched, never
        # by ``Fraction`` parsing the string, which would expand a decimal
        # exponent such as "1e10000000" in full.  Each distinct string is
        # parsed once per call.  As in ``Polynomial(n, terms)``, a term of
        # another rank is refused only once every term has passed the
        # other checks, and a zero coefficient is dropped only then.  More
        # than ``ENTRY_GUARD`` exponent entries, 2n per listed term, are
        # refused before any ``Monomial`` is built.
        n, entries = json_object(data, "a polynomial", "terms", {"p", "q", "coeff"})
        check_entries(len(entries), n, "the polynomial")
        terms: dict[Monomial, Fraction] = {}
        parsed: dict[str, Fraction] = {}
        wrong_rank = None
        zero = False
        for entry in entries:
            p, q, c = entry.get("p"), entry.get("q"), entry.get("coeff")
            if not (isinstance(p, list) and isinstance(q, list)):
                raise ValueError(f"term exponents p and q must be lists of integers, got {entry!r}")
            if type(c) is int:
                coeff = Fraction(c)
                zero = zero or not c
            else:
                coeff = parsed.get(c) if isinstance(c, str) else None
                if coeff is None:
                    match = ASCII_FRACTION.fullmatch(c) if isinstance(c, str) else None
                    if match is None:
                        raise ValueError(f"a coefficient must be an integer or a fraction string, got {c!r}")
                    num, den = int(match[1]), int(match[2] or 1)
                    if not den:
                        raise ValueError(f"coefficient {c!r} has a zero denominator")
                    coeff = parsed[c] = Fraction(num, den)
                    zero = zero or not num
            m = Monomial(tuple(p), tuple(q))
            if m in terms:
                raise ValueError(f"monomial {m.text()} is listed twice")
            if wrong_rank is None and len(p) != n:
                wrong_rank = m
            terms[m] = coeff
        if wrong_rank is not None:
            raise ValueError(f"monomial rank {wrong_rank.n} does not match polynomial rank {n}")
        # every key passed ``Monomial`` and has rank n; every value is a Fraction
        return cls._from_checked(n, {m: c for m, c in terms.items() if c} if zero else terms)


def distinct_permutations(items: Iterable) -> Iterator[tuple]:
    """The distinct rearrangements of ``items``, in increasing lexicographic order.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) for multisets: from the
    sorted sequence, each step finds the last j with a[j] < a[j+1],
    swaps a[j] with the last entry above it and reverses the tail after
    j.  No duplicate is ever built, so the cost is the number of
    distinct rearrangements, not n!.
    """
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def rearrangements(m: Monomial) -> list[Monomial]:
    """The distinct monomials whose exponent pairs (p_k, q_k) rearrange those of ``m``."""
    # a rearrangement of a checked monomial's exponents is checked
    return [Monomial._from_checked(*zip(*pairs)) for pairs in distinct_permutations(zip(m.p, m.q))]


def orbit_key(m: Monomial) -> tuple[tuple[int, int], ...]:
    """The sorted exponent pairs (p_k, q_k) of ``m``.

    Two monomials with every slot total even share an averaging orbit
    exactly when their keys are equal.
    """
    return tuple(sorted(zip(m.p, m.q)))


def _orbit_groups(f: Polynomial) -> dict[tuple[tuple[int, int], ...], list[Monomial]]:
    # The terms of ``f`` grouped by ``orbit_key``, made on the first call
    # and kept on ``f``, whose terms never change.  Each public reader of
    # terms comes through here, so each refuses a non-polynomial with this
    # one TypeError, not with an AttributeError.
    if not isinstance(f, Polynomial):
        raise TypeError(f"expected a Polynomial, got {type(f).__name__}")
    if f._groups is None:
        groups: dict[tuple[tuple[int, int], ...], list[Monomial]] = {}
        for m in f._terms:
            groups.setdefault(orbit_key(m), []).append(m)
        f._groups = groups
    return f._groups


def rearrangement_count(items: Iterable) -> int:
    """Number of distinct rearrangements of a finite sequence, the multinomial
    of its multiplicities as a product of binomials."""
    counts = Counter(items).values()
    return math.prod(map(math.comb, accumulate(counts), counts))


def orbit_sums(f: Polynomial) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """The nonzero sums of the coefficients of ``f`` over its orbits, keyed by ``orbit_key``.

    An orbit whose monomials have an odd total exponent in some slot is
    left out, because flipping the sign of that slot negates it, so it
    averages to 0.  ``rho`` puts each sum over the orbit size on every
    member of its orbit, so two polynomials have equal sums exactly when
    ``rho`` maps them to the same polynomial.  On an invariant the sum at
    w is the orbit size times the coefficient at w, which is injective.
    No orbit is expanded, and the odd slots are looked for once per orbit.
    The orbits are those ``f`` keeps, so its terms are grouped once
    however often it is summed.  An orbit whose coefficients all equal
    the first, as on an invariant, sums as their count times it.
    """
    sums = {}
    for key, members in _orbit_groups(f).items():
        if any((p + q) % 2 for p, q in key):
            continue
        coeffs = list(map(f._terms.__getitem__, members))
        count = coeffs.count(coeffs[0])
        c = count * coeffs[0] if count == len(coeffs) else sum(coeffs)
        if c:
            sums[key] = c
    return sums


def rho(f: Polynomial) -> Polynomial:
    """Average of ``f`` over the whole signed permutation group.

    The result is invariant, the operator is linear and idempotent, and
    it fixes every invariant polynomial.  Coefficients stay exact.

    No group element is enumerated: each orbit sum of ``orbit_sums``,
    divided by the orbit size, goes to the distinct rearrangements of
    the orbit's (x, y) exponent pairs, so each orbit is walked once.
    The weight 1/|orbit| = |stabiliser|/n! is what averaging over all n!
    plain permutations gives.  More than ``TERM_GUARD`` orbit members,
    or more than ``ENTRY_GUARD`` exponent entries in them, are refused
    before any is built.  ``f``'s terms are grouped by orbit
    once, and kept on ``f``; the terms built are checked already, as
    rearrangements of the pairs of checked terms.
    """
    sums = orbit_sums(f)
    sizes = list(map(rearrangement_count, sums))
    terms = sum(sizes)
    check_terms(terms, "the average has {count} terms, above")
    check_entries(terms, f.n, "the average")
    acc: dict[Monomial, Fraction] = {}
    for (key, c), size in zip(sums.items(), sizes):
        # the pairs of a term of ``f`` and a nonzero Fraction over a count
        acc.update(dict.fromkeys(rearrangements(Monomial._from_checked(*zip(*key))), c / size))
    return Polynomial._from_checked(f.n, acc)


def _invariance_failure(f: Polynomial) -> str | None:
    # Why ``f`` is not invariant, naming a term of ``f``, or None when it
    # is.  Every member of an orbit has the odd slots of its key, so they
    # are looked for once per key; the first odd key holds the first odd
    # term.  Otherwise each orbit must be whole, with one coefficient.
    orbits = _orbit_groups(f)
    odd = next((ms[0] for key, ms in orbits.items() if any((p + q) % 2 for p, q in key)), None)
    if odd is not None:
        return f"the term {odd.text()} has an odd total exponent in slot {odd.odd_slot()}"
    for key, members in orbits.items():
        first = members[0]
        full = rearrangement_count(key)
        if len(members) != full:
            return f"the orbit of {first.text()} has {len(members)} of its {_count_text(full)} terms"
        # ``list.count`` compares in C, by identity first
        coeffs = list(map(f._terms.__getitem__, members))
        if coeffs.count(coeffs[0]) != full:
            return f"the orbit of {first.text()} has unequal coefficients"
    return None


def is_invariant(f: Polynomial) -> bool:
    """True when ``f`` is fixed by the diagonal action of the whole group.

    Decided by orbits, with no polynomial acted on.  A term with an odd
    total exponent in some slot is negated by that slot's sign flip.
    When every slot is even, the group only rearranges the exponent
    pairs, so each orbit must appear in full with one coefficient.
    """
    return _invariance_failure(f) is None
