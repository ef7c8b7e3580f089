"""Shared domain types and errors, and the certificate-checking kernel.

Everything downstream works over three small value types:

  SortedIntSet     -- sorted distinct nonnegative integers (the base set).
  ArithProgression -- (start, diff, length), denoting {start + j*diff : 0 <= j <= length}.
  CompactSolution  -- a multiset of (value, count) pairs certifying that a target
                      is a sum of base-set elements, either with a fold budget
                      (k-fold sumset mode) or with every count equal to 1 and all
                      values distinct (subset-sum mode, fold_budget == 0).

Every accept/reject decision on a certificate or a report is made here
(`check_solution`, `check_certificate`, `check_report`). The module imports
only the standard library, so the checks share no code with the builders
they check. `RandomSource` stays here because the benchmark wraps it and
`check_solution` under these names.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b
from itertools import chain, islice, pairwise
from math import gcd
from operator import lt
from typing import Iterable, Iterator, Optional, Sequence

MAX_ELEMENT = 2**62  # any sum of <= 2**32 elements stays well inside 128 bits


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ApcertError(Exception):
    """Base class for all library errors."""


class PreconditionViolated(ApcertError):
    """A documented precondition failed; `name` identifies the inequality."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(f"precondition violated: {name}" + (f" ({detail})" if detail else ""))


class NegativeInput(PreconditionViolated):
    def __init__(self, value: int):
        super().__init__("nonnegative-input", f"got {value}")


class OverflowRisk(PreconditionViolated):
    def __init__(self, value: int):
        super().__init__("element-cap", f"{value} > 2^62")


class EmptySet(PreconditionViolated):
    def __init__(self):
        super().__init__("nonempty-set")


class OutOfRange(PreconditionViolated):
    def __init__(self, detail: str = ""):
        super().__init__("query-out-of-range", detail)


class OutOfRegion(PreconditionViolated):
    def __init__(self, detail: str = ""):
        super().__init__("target-out-of-region", detail)


class MultiplicityExceeded(ApcertError):
    pass


class Exhausted(ApcertError):
    """Construction gave up without a certificate (tuned-profile outcome)."""

    def __init__(self, reason: str, partial=None):
        self.reason = reason
        self.partial = partial
        super().__init__(f"exhausted: {reason}")


class InternalContract(ApcertError):
    """An internal invariant failed; this always indicates a bug."""


def require(cond: bool, name: str, detail: str = "") -> None:
    if not cond:
        raise PreconditionViolated(name, detail)


def contract(cond: bool, msg: str) -> None:
    if not cond:
        raise InternalContract(msg)


# ---------------------------------------------------------------------------
# Small integer helpers
# ---------------------------------------------------------------------------

def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def ceil_log2(x: int) -> int:
    """Smallest t with 2**t >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


# ---------------------------------------------------------------------------
# SortedIntSet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SortedIntSet:
    """Strictly increasing nonnegative integers; the universal base set."""

    elems: tuple[int, ...]

    def __post_init__(self):
        # C-level passes; the loop names the first fault only when one fails
        e = self.elems
        if e and not (0 <= e[0] and e[-1] <= MAX_ELEMENT and all(map(lt, e, islice(e, 1, None)))):
            prev = -1
            for v in e:
                if v < 0:
                    raise NegativeInput(v)
                if v > MAX_ELEMENT:
                    raise OverflowRisk(v)
                if v <= prev:
                    raise PreconditionViolated("strictly-increasing", f"{v} after {prev}")
                prev = v

    @classmethod
    def _ordered(cls, elems: tuple[int, ...]) -> "SortedIntSet":
        """A set from a tuple its caller built strictly increasing, so only
        its two ends are checked, against the range and each other; when that
        fails, the full pass names the first fault. Each call states why its
        order holds."""
        if elems and not 0 <= elems[0] <= elems[-1] <= MAX_ELEMENT:
            return cls(elems)
        s = object.__new__(cls)
        object.__setattr__(s, "elems", elems)
        return s

    @staticmethod
    def from_iterable(values: Iterable[int]) -> "SortedIntSet":
        # sorted distinct values
        return SortedIntSet._ordered(tuple(sorted(set(values))))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elems, x)
        return i < len(self.elems) and self.elems[i] == x

    @property
    def min(self) -> int:
        if not self.elems:
            raise EmptySet()
        return self.elems[0]

    @property
    def max(self) -> int:
        if not self.elems:
            raise EmptySet()
        return self.elems[-1]

    def without(self, values: Iterable[int]) -> "SortedIntSet":
        """This set less `values`, each of which must be an element: one
        tuple joined from the slices between the removed positions."""
        elems = self.elems
        cuts = []
        for v in values:
            i = bisect_left(elems, v)
            contract(i < len(elems) and elems[i] == v, "removed value is not in the set")
            cuts.append(i)
        cuts.sort()
        bounds = pairwise([-1, *cuts, len(elems)])
        kept = tuple(chain.from_iterable(elems[i + 1 : j] for i, j in bounds))
        # slices of this set, joined in position order
        return SortedIntSet._ordered(kept)

    def count_range(self, lo: int, hi: int) -> int:
        """|A[lo, hi]| = number of elements in [lo, hi]."""
        if hi < lo:
            return 0
        return bisect_right(self.elems, hi) - bisect_left(self.elems, lo)

    @cached_property
    def members(self) -> frozenset[int]:
        """The elements as a frozenset, built on first use and kept; equality
        and hashing stay on `elems`. Only subset-mode checks and the coreset
        check of `check_report` read it, so a base checked in fold mode never
        pays its memory."""
        return frozenset(self.elems)


@dataclass(frozen=True)
class ArithProgression:
    """{start + j*diff : 0 <= j <= length}; diff >= 1, length >= 0."""

    start: int
    diff: int
    length: int

    def __post_init__(self):
        if self.diff < 1:
            raise PreconditionViolated("ap-diff-positive", f"diff={self.diff}")
        if self.length < 0:
            raise PreconditionViolated("ap-length-nonnegative", f"length={self.length}")

    def term(self, j: int) -> int:
        if not 0 <= j <= self.length:
            raise OutOfRange(f"term index {j} not in [0, {self.length}]")
        return self.start + j * self.diff

    @property
    def last(self) -> int:
        return self.start + self.length * self.diff

    def terms(self) -> Iterator[int]:
        return iter(range(self.start, self.last + 1, self.diff))

    def truncate(self, length: int) -> "ArithProgression":
        if length > self.length:
            raise OutOfRange(f"cannot extend length {self.length} to {length}")
        return ArithProgression(self.start, self.diff, length)


def normalize(raw: Sequence[int]) -> tuple[SortedIntSet, int]:
    """Sort and deduplicate; returns (set, number of duplicates dropped)."""
    elems = tuple(sorted(set(raw)))
    # the ends of the sorted values are the min and max; the loop names the
    # first value out of range in input order
    if elems and (elems[0] < 0 or elems[-1] > MAX_ELEMENT):
        for v in raw:
            if v < 0:
                raise NegativeInput(v)
            if v > MAX_ELEMENT:
                raise OverflowRisk(v)
    # sorted distinct values
    s = SortedIntSet._ordered(elems)
    return s, len(raw) - len(s)


def gcd_all(a: SortedIntSet) -> int:
    """gcd of all elements; gcd_all({0}) = 0 by convention."""
    if not len(a):
        raise EmptySet()
    g = 0
    for e in a:
        g = gcd(g, e)
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# Compact solutions and certificate checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompactSolution:
    """Certificate that `target` is a sum of base-set elements.

    parts holds (value, count) with values strictly increasing and counts
    positive. fold_budget > 0 caps the total multiplicity (k-fold sumset mode);
    fold_budget == 0 demands count == 1 everywhere (subset-sum mode).
    """

    parts: tuple[tuple[int, int], ...]
    target: int
    fold_budget: int

    @staticmethod
    def from_counts(counts: dict[int, int], target: int, fold_budget: int) -> "CompactSolution":
        items = counts.items()  # distinct keys: the sort compares no count
        if 0 in counts.values():
            items = [(v, c) for v, c in items if c]
        return CompactSolution._built(tuple(sorted(items)), target, fold_budget)

    @classmethod
    def _built(cls, parts: tuple[tuple[int, int], ...], target: int,
               fold_budget: int) -> "CompactSolution":
        """The instance the dataclass constructor makes, in one dict update."""
        s = object.__new__(cls)
        s.__dict__.update(parts=parts, target=target, fold_budget=fold_budget)
        return s


def check_solution(base: SortedIntSet, sol: CompactSolution) -> Optional[str]:
    """Return None if the certificate is valid against `base`, else a reason code.

    Subset mode accepts in C-level passes (counts, order, membership in
    `base.members`, sum). When one fails, the per-part loop runs and names
    the reason, so in both modes the code is that of the first fault in part
    order. A fold budget below 0 declares neither mode and fails before any
    part is read."""
    parts = sol.parts
    subset_mode = sol.fold_budget == 0
    if subset_mode and parts:
        values, counts = zip(*parts)
        if (counts.count(1) == len(counts) and all(map(lt, values, islice(values, 1, None)))
                and base.members.issuperset(values) and sum(values) == sol.target):
            return None
    if sol.fold_budget < 0:
        return "negative-fold-budget"
    elems = base.elems
    seen = parts[0][0] - 1 if parts else 0  # the first value is never out of order
    total = acc = i = 0
    for v, c in parts:
        if c <= 0:
            return "nonpositive-count"
        if v <= seen:
            return "parts-not-sorted-distinct"
        seen = v
        i = bisect_left(elems, v, i)  # v is above every earlier part
        if i == len(elems) or elems[i] != v:
            return "value-not-in-base"
        if subset_mode and c != 1:
            return "count-not-one"
        total += c
        acc += v * c
    if acc != sol.target:
        return "sum-mismatch"
    if sol.fold_budget > 0 and total > sol.fold_budget:
        return "budget-exceeded"
    return None


def check_certificate(base: SortedIntSet, sol: CompactSolution, budget: int,
                      target: int) -> Optional[str]:
    """The one per-certificate check, shared by the build commands and
    `verify`: the declared fold budget, check_solution against `base`, then
    the claimed term. None if all hold, else the reason code."""
    if sol.fold_budget != budget:
        return "fold-budget-mismatch"
    reason = check_solution(base, sol)
    if reason is None and sol.target != target:
        return "target-mismatch"
    return reason


def _report_int(value, what: str) -> int:
    if type(value) is not int:
        raise PreconditionViolated("malformed-report", f"{what} is not an integer: {value!r}")
    return value


def _report_certificate(cert) -> tuple[int, CompactSolution]:
    """(index, certificate) from one report entry; malformed entries raise
    the named precondition "malformed-report"."""
    try:
        parts = tuple(
            (_report_int(v, "part value"), _report_int(c, "part count")) for v, c in cert["parts"]
        )
        sol = CompactSolution(
            parts, _report_int(cert["target"], "target"),
            _report_int(cert["fold_budget"], "fold_budget"),
        )
        return _report_int(cert["index"], "index"), sol
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionViolated(
            "malformed-report", f"certificate {cert!r}: {type(exc).__name__} {exc}"
        ) from exc


def check_report(report, base: SortedIntSet) -> tuple[int, list[tuple[int, str]]]:
    """(certificates checked, [(index, reason), ...] of those that fail) for a
    decoded report against the input `base` and the report's own claims:
    ap-sumset certificates carry its fold budget, at most 332·k_eff, for an
    `ap` of diff 1 and length m, where k_eff is ceil((m+1)/|base|) and at
    most k; ap-subsetsum ones are subsets (budget 0) of its coreset, of
    coreset_size distinct values, which must lie inside the input, for an
    `ap` of length ell; each claims the term of its `ap` (diff >= 1, length
    >= 0) at its index, which must lie in [0, ap length]. A claim that fails
    every certificate with its reason; a report of the wrong shape, or with k
    or an ap-sumset fold budget below 1, raises the named precondition
    "malformed-report"."""
    if not isinstance(report, dict):
        raise PreconditionViolated("malformed-report", "report is not a JSON object")
    entries = report.get("certificates", [])
    if not isinstance(entries, list):
        raise PreconditionViolated("malformed-report", "certificates is not a list")
    certs = [_report_certificate(c) for c in entries]
    ap = report.get("ap")
    diff = length = None  # read below unless the report has neither an ap nor a certificate
    if certs or ap is not None:
        if not isinstance(ap, dict):
            raise PreconditionViolated("malformed-report", "ap is not a JSON object")
        start = _report_int(ap.get("start"), "ap start")
        diff = _report_int(ap.get("diff"), "ap diff")
        length = _report_int(ap.get("length"), "ap length")
        if diff < 1 or length < 0:
            raise PreconditionViolated(
                "malformed-report", f"ap diff {diff}, length {length}: need diff >= 1, length >= 0"
            )
    command = report.get("command")
    base_error = None
    if command == "ap-sumset":
        budget = _report_int(report.get("fold_budget"), "fold_budget")
        k = _report_int(report.get("k"), "k")
        k_eff = _report_int(report.get("k_eff"), "k_eff")
        if k < 1 or budget < 1:
            raise PreconditionViolated(
                "malformed-report", f"k {k}, fold_budget {budget}: need both >= 1"
            )
        if (diff, length) != (1, _report_int(report.get("m"), "m")):
            base_error = "ap-not-as-claimed"
        elif not base or k_eff != ceil_div(length + 1, len(base)) or k_eff > k:
            base_error = "k-eff-not-as-claimed"
        elif budget > 332 * k_eff:
            base_error = "fold-budget-above-claim"
    elif command == "ap-subsetsum":
        budget = 0
        coreset = report.get("coreset")
        if not isinstance(coreset, list):
            raise PreconditionViolated("malformed-report", "coreset is not a list")
        coreset = [_report_int(v, "coreset value") for v in coreset]
        if length != _report_int(report.get("ell"), "ell"):
            base_error = "ap-not-as-claimed"
        elif _report_int(report.get("coreset_size"), "coreset_size") != len(coreset):
            base_error = "coreset-size-not-as-claimed"
        elif len(set(coreset)) != len(coreset):
            base_error = "coreset-repeats-a-value"
        elif not base.members.issuperset(coreset):
            base_error = "coreset-not-in-input"
        else:
            base = SortedIntSet.from_iterable(coreset)
    elif certs:
        raise PreconditionViolated(
            "malformed-report", f"certificates in a report of command {command!r}"
        )
    failures = []
    for index, sol in certs:
        reason = ("index-out-of-range" if not 0 <= index <= length
                  else base_error or check_certificate(base, sol, budget, start + index * diff))
        if reason is not None:
            failures.append((index, reason))
    return len(certs), failures


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


class RandomSource:
    """Deterministic seeded RNG; one instance per query thread, never shared.

    splitmix64 core: cheap to construct (witness queries derive one stream
    per term) and reproducible across platforms. Uniform ranges use rejection
    sampling, so draws are exactly uniform.
    """

    __slots__ = ("seed", "_state", "draws")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed
        self.draws = 0

    def _next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        self.draws += 1
        span = hi - lo + 1
        if span > _MASK64:
            # spans beyond 64 bits never arise (elements are capped at 2^62),
            # but stay correct by chaining words
            width = span.bit_length()
            while True:
                x = 0
                for _ in range((width + 63) // 64):
                    x = (x << 64) | self._next64()
                x &= (1 << width) - 1
                if x < span:
                    return lo + x
        limit = ((_MASK64 + 1) // span) * span
        state = self._state
        while True:
            # _next64, inline
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            x ^= x >> 31
            if x < limit:
                self._state = state
                return lo + x % span

    def derive(self, *tags) -> "RandomSource":
        """Independent child stream, stable in (seed, tags)."""
        h = blake2b(repr((self.seed,) + tags).encode(), digest_size=8)
        return RandomSource(int.from_bytes(h.digest(), "big"))

    def __repr__(self):
        return f"RandomSource(seed={self.seed})"


# ---------------------------------------------------------------------------
# Integer-set file format
# ---------------------------------------------------------------------------

# the ASCII whitespace but the newline, each mapped to a space
_ASCII_BLANKS = str.maketrans("\t\r\x0b\x0c", "    ")


def parse_int_set_text(text: str) -> list[int]:
    """ASCII decimal integers [+-]?[0-9]+, separated by ASCII whitespace
    (space, tab, CR, VT, FF, LF); lines are counted by LF alone, and '#'
    starts a comment. Any other token, also one holding a Unicode space or
    an ASCII control character such as U+001C, raises the named
    precondition "malformed-input"."""
    values = []
    for lineno, line in enumerate(text.split("\n"), 1):
        for tok in filter(None, line.split("#", 1)[0].translate(_ASCII_BLANKS).split(" ")):
            try:
                # digits after at most one sign; int() also reads "_",
                # non-ASCII digits and surrounding whitespace
                if not (tok.isascii() and tok[tok[0] in "+-":].isdigit()):
                    raise ValueError(tok)
                values.append(int(tok))  # ValueError past int()'s digit limit too
            except ValueError:
                raise PreconditionViolated(
                    "malformed-input", f"line {lineno}: {tok!r} is not an integer"
                ) from None
    return values


def load_int_set(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PreconditionViolated("malformed-input", f"not UTF-8: {exc}") from None
    return parse_int_set_text(text)
