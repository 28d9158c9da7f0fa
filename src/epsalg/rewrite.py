"""Graded string rewriting: normal forms, confluence certification, bases.

Rules replace a word by a strictly smaller graded element under the
degree-lexicographic order induced by the generator list, so every
reduction terminates.  One reducer does all the reducing, in one pass over
the pending words, largest first, each rewritten once at its leftmost
redex: once per element for `normalize`, so words that share a rewrite
share it; once per word pair (w1, w2) for `mul_sum` (a sum of products
s*x*y, or its h^k part alone; `mul` is one product), whose memo keeps the
normal form of w1*w2 under the pair itself, so neither the free products
nor the concatenated words are formed; and once per ambiguity, overlap or
inclusion, on the difference of its two rewrites.
The child of a sign-only rule that would be popped next skips the heaps and
is reduced in place.
When none is unresolved the system is confluent (the diamond lemma), and
irreducible words form a basis of the quotient.

Inside a system a word is a code string, one character per letter: the
generator of precedence i is `chr(_BASE - i)`, so among strings of one
length the smallest is the largest word, and hashing, slicing,
concatenation and heap order all run on strings.  The reducer keeps one
heap of bare strings per length and drains the lengths longest first; no
rule lengthens a word, so a child never joins a drained length, and the
strings are popped in the order of one heap keyed by (-len(s), s), largest
word first.  Every left side is compiled into one
regular expression, an alternation sorted shortest first, whose `search`
returns the leftmost redex and, at that position, the shortest.  A rewrite
at position p leaves the letters before p alone, so a child word is
searched from p - (m - 1), m the longest left side.  Words are encoded on
entry and only irreducible ones are decoded.

A system is built in one pass over its rules: each rule word is encoded
once, and the checks the diamond lemma needs (every rule homogeneous and
decreasing) read the code strings.  Critical pairs come from an index of
the encoded left sides by their proper prefixes.

Redexes, irreducible words and their number depend on the left sides
alone; all three read the one pattern compiled from `left_sides`
(letters -> rule).

The product memo `_nf` maps a pair (w1, w2) of Words to the normal form of
w1*w2 as a tuple of (Word, HPoly) pairs, () for zero.  Only `mul_sum` fills
it; `normalize`, `iter_ambiguities` and the basis code neither read nor
write it.  Its words, coefficients and pairs go through `_shared`, a table
of one object per value, so each appears once per system however many
entries hold it.
"""
from __future__ import annotations

import re
from functools import cached_property
from heapq import heappop, heappush

from .freealg import EMPTY_WORD, Element, Generator, Word
from .grading import Grade
from .scalars import _SIGNS, H_ONE, HPoly, _Record, _Value


# The highest code point below the surrogates: precedences 0 .. _BASE map to
# distinct characters chr(_BASE) .. chr(0).
_BASE = 0xD7FF
MAX_GENERATORS = _BASE + 1
# With at most this many generators every code letter is above ASCII, and
# `re.escape` leaves a string without ASCII letters as it is.
_UNESCAPED = _BASE - 127


def require_h_free(*elements):
    """Refuse an element with h in a coefficient: an input of an h^k part."""
    for x in elements:
        if not all(map(HPoly.is_constant, x.terms.values())):
            raise ValueError(f"deformation inputs live over the base field, got h in {x}")


class RewriteError(Exception):
    pass


class StepBudgetExceeded(RewriteError):
    pass


class Rule(_Record):
    """Oriented graded relation lhs -> rhs.

    Soundness (rhs homogeneous of the lhs grade, rhs strictly smaller) is
    enforced by the owning ReductionSystem, which knows the generator order.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: Element):
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


class Ambiguity(_Value):
    """One critical pair: a word reducible in two ways at overlapping spots.

    Two are equal when word and kind are; the residual follows from them.
    """

    __slots__ = ("word", "kind", "residual")

    def __init__(self, word: Word, kind: str, residual: Element):
        self.word = word
        self.kind = kind
        self.residual = residual

    def _fields(self) -> tuple:
        return self.word, self.kind

    @property
    def resolvable(self) -> bool:
        return self.residual.is_zero()

    def __str__(self) -> str:
        status = "resolved" if self.resolvable else "UNRESOLVED"
        return f"{self.kind} at {self.word}: {status}, residual {self.residual}"


class ReductionSystem:
    """A finite graded rewriting system over a fixed generator list.

    The generator tuple fixes the precedence used by the termination order:
    earlier generators are smaller.  Words compare by length first, then
    letterwise by precedence.
    """

    def __init__(self, generators, rules, max_steps: int = 10**6):
        """Check the generators, then check and encode the rules in one pass.

        A rule is refused (ValueError) for an empty or duplicate left side, a
        foreign generator, a right side that is inhomogeneous or of another
        grade, or a right-side word not below the left side.  Every check runs
        on every construction; nothing is kept between systems.
        """
        self.generators = tuple(generators)
        if not self.generators:
            raise ValueError("a reduction system needs at least one generator")
        if len(self.generators) > MAX_GENERATORS:
            raise ValueError(f"a reduction system takes at most {MAX_GENERATORS} generators")
        dims = {(g.grade.dim, g.grade.moduli) for g in self.generators}
        if len(dims) != 1:
            raise ValueError("generators live in different grade groups")
        dim, moduli = next(iter(dims))
        self.zero_grade = Grade.zero(dim, moduli)
        self.max_steps = max_steps
        self._prec = {g: i for i, g in enumerate(self.generators)}
        if len(self._prec) != len(self.generators):
            raise ValueError("duplicate generator in precedence list")
        self.rules = tuple(rules)
        self._compile()
        self._nf = {}
        self._shared = {}

    def _compile(self):
        """Check every rule and encode it, in one pass over the rules.

        Each word of a rule is encoded once; a letter outside the system is
        refused.  The right side must be homogeneous of the left side's grade
        and every word of it smaller than the left side.  A word with the
        left side's letters, in any order, has its grade, so grades are
        summed only for the words whose letters differ.  On code strings the
        order is `len(s) < len(lhs)`, or equal lengths and `s > lhs`: the
        encoding reverses the precedence of the letters.  Then the redex
        pattern is compiled from the left sides.

        The checks are kept cheap without dropping one: a left side is hashed
        once, by `setdefault`, and is a duplicate when the dict did not grow,
        so one Rule object given twice is refused too; a sign-only rule is
        found from its coefficient's integers (`d == 1`, numerators +-1 over
        zeros), with no HPoly equality; a word that is the left side reversed
        has its letters, with no sort (other words are sorted); and the
        pattern escapes the left sides only when some code letter is ASCII,
        since `re.escape` leaves every other character alone.
        """
        self._code = code = {g: chr(_BASE - i) for g, i in self._prec.items()}
        self._letter = {c: g for g, c in code.items()}
        zero, moduli = self.zero_grade.coords, self.zero_grade.moduli
        coords = {c: g.grade.coords for g, c in code.items()}

        def grade(s):
            sums = map(sum, zip(zero, *[coords[c] for c in s]))
            return tuple(x % m if m else x for x, m in zip(sums, moduli))

        self.left_sides = left_sides = {}
        self._rewrites = rewrites = {}
        self._signed = signed = {}  # lhs -> (rhs, 1 or -1) of a sign-only rule
        one = _SIGNS[0]
        for rule in self.rules:
            letters = rule.lhs.letters
            if not letters:
                raise ValueError("rule with empty left side")
            size = len(left_sides)
            left_sides.setdefault(letters, rule)
            if len(left_sides) == size:  # letters was a left side already
                raise ValueError(f"duplicate rule left side {rule.lhs}")
            try:
                lhs = "".join([code[g] for g in letters])
                # A unit coefficient is H_ONE itself, so `_reduce` skips it.
                rhs = [("".join([code[g] for g in w.letters]),
                        c if c.n != one or c.d != 1 else H_ONE)
                       for w, c in rule.rhs.terms.items()]
            except KeyError as exc:
                raise ValueError(f"rule uses foreign generator {exc.args[0]}") from None
            rewrites[lhs] = rhs
            if len(rhs) == 1:
                w, c = rhs[0]
                if c.d == 1 and c.n in _SIGNS:
                    signed[lhs] = (w, c.n[0])
            rev = lhs[::-1]  # has the left side's letters, found with no sort
            other = [s for s, _ in rhs if s != rev
                     and (len(s) != len(lhs) or sorted(s) != sorted(lhs))]
            if other:
                want = grade(lhs)
                got = {grade(s) for s in other}
                if len(other) < len(rhs):
                    got.add(want)
                if len(got) > 1:
                    raise ValueError(f"rule {rule} has inhomogeneous right side")
                if want not in got:
                    raise ValueError(
                        f"rule {rule} changes grade: "
                        f"{Grade(want, moduli)} -> {Grade(got.pop(), moduli)}"
                    )
            for word, (s, _) in zip(rule.rhs.terms, rhs):
                if not (len(s) < len(lhs) or (len(s) == len(lhs) and s > lhs)):
                    raise ValueError(
                        f"rule {rule} does not decrease the termination order at {word}"
                    )
        lefts = sorted(rewrites, key=lambda s: (len(s), s))
        self._reach = len(lefts[-1]) - 1 if lefts else 0
        if len(self.generators) > _UNESCAPED:  # some code letter is ASCII
            lefts = map(re.escape, lefts)
        # "(?!)" never matches: without rules every word is irreducible.
        self._redex = re.compile("|".join(lefts) or "(?!)")

    def _encode(self, letters) -> str:
        try:
            return "".join([self._code[g] for g in letters])
        except KeyError as exc:
            raise ValueError(f"word uses foreign generator {exc.args[0]}") from None

    def _decode(self, s: str) -> Word:
        return Word([self._letter[c] for c in s])

    # ------------------------------------------------------------------ order

    def word_key(self, word: Word):
        return (len(word), tuple(self._prec[g] for g in word))

    # -------------------------------------------------------------- reduction

    def normalize(self, x) -> Element:
        """Canonical representative of x in the quotient; K[h]-linear.

        The words of x, with their coefficients, are reduced in one `_reduce`
        pass, so a string that several of them reach is rewritten once.
        `_nf` is neither read nor written.
        """
        if isinstance(x, (Word, Generator)):
            x = Element.from_word(x)
        terms = x.terms
        pending = {self._encode(w.letters): c for w, c in terms.items()}
        return self._reduce(pending, next(iter(terms)) if len(terms) == 1
                            else f"a sum of {len(terms)} words")

    def mul(self, x: Element, y: Element) -> Element:
        """Normal form of x*y: the one-term case of `mul_sum`."""
        return self.mul_sum(((H_ONE, x, y),))

    def mul_sum(self, terms, degree: int | None = None) -> Element:
        """Normal form of the sum of s*x*y over (s, x, y) in terms, or with
        `degree=k` its h^k part (zero for k < 0), with no free product: the
        normal form of each word pair is looked up in `_nf` under the pair
        (w1, w2), so a hit builds and hashes no concatenated word, and all
        terms go to one `Element` call.  The h^k part reads the h^k
        coefficient of each normal form alone, so every s*c1*c2 must be free
        of h (else ValueError).  This is the one method that fills `_nf`
        (through `_cached_nf`); its entries are tuples of (word,
        coefficient) pairs, iterated as they are."""
        memo, reduce_pair, out = self._nf, self._cached_nf, []
        for s, x, y in terms:
            s, ys = HPoly.of(s), y.terms.items()
            for w1, c1 in x.terms.items():
                if s is not H_ONE:
                    c1 = s * c1
                for w2, c2 in ys:
                    coeff = c1 * c2
                    if degree is not None and not coeff.is_constant():
                        require_h_free(x, y, Element.scalar(s))
                    nf = memo.get((w1, w2))
                    if nf is None:
                        nf = reduce_pair(w1, w2)
                    for w, c in nf:
                        if degree is None or (c := c.part(degree)):
                            out.append((w, c * coeff))
        return Element(out)

    def _cached_nf(self, w1: Word, w2: Word = EMPTY_WORD) -> tuple:
        """Normal form of the word w1*w2 as a tuple of (word, coefficient)
        pairs, memoized in `_nf` under the pair (w1, w2); a zero normal form
        is the empty tuple.

        On a miss the words of the key and every word, coefficient and
        (word, coefficient) pair of the entry become the one object
        `_shared` holds for that value, so a value that many entries reach
        is stored once per system.
        """
        nf = self._nf.get((w1, w2))
        if nf is None:
            share = self._shared.setdefault
            w1, w2 = share(w1, w1), share(w2, w2)
            terms = self._word_nf(Word(w1.letters + w2.letters)).terms
            pairs = [(share(w, w), share(c, c)) for w, c in terms.items()]
            nf = self._nf[w1, w2] = tuple([share(p, p) for p in pairs])
        return nf

    def _word_nf(self, word: Word) -> Element:
        return self._reduce({self._encode(word.letters): H_ONE}, word)

    def _reduce(self, pending: dict, word) -> Element:
        """Normal form of `pending` (code string -> coefficient, consumed) in
        one pass over the strings, largest first.

        Rewrites only make smaller words, so a string popped has its whole
        coefficient: it is rewritten once at its leftmost redex (one step of
        `max_steps`) or decoded into the output.  A child gets `coeff * c`,
        or `coeff` itself for c = 1.  Its search starts `_reach` letters
        before the rewrite, as no redex of its parent starts earlier (the
        smaller start, if two parents reach it).  The budget is per call:
        per element of `normalize`, per word of `mul_sum`, per critical pair
        of `iter_ambiguities`.

        The strings wait in one heap of bare strings per length, drained
        from the longest length to the shortest.  No rule lengthens a word
        (`_compile` refuses one), so a child lands in the heap being drained
        or in a shorter one, never in a drained one: the pops come in the
        order of one heap keyed by (-len(s), s).  A child of a sign-only rule
        (`_signed`) of the popped string's length and below the smallest
        string of its heap would be popped next, so it is reduced in place
        and its sign kept as an int; a shorter one goes through its heap.
        """
        search, rewrites, signed = self._redex.search, self._rewrites, self._signed
        reach = self._reach
        starts = dict.fromkeys(pending, 0)
        heaps = {}  # length -> heap of the pending strings of that length
        for s in sorted(pending):  # a sorted list is a heap
            heaps.setdefault(len(s), []).append(s)
        irreducible = []
        steps = self.max_steps
        while heaps:
            size = max(heaps)
            heap = heaps[size]
            while heap:
                top = heappop(heap)
                coeff = pending.pop(top)
                start = starts.pop(top)
                if not coeff.n:
                    continue
                sign = 1
                while (match := search(top, start)) is not None:
                    steps -= 1
                    if steps < 0:
                        raise StepBudgetExceeded(
                            f"step budget {self.max_steps} exhausted while reducing {word}"
                        )
                    pos, end = match.span()
                    head, tail = top[:pos], top[end:]
                    start = pos - reach if pos > reach else 0
                    lhs = match.group()
                    if lhs in signed:
                        w, flip = signed[lhs]
                        child = head + w + tail
                        if len(child) == size and (not heap or child < heap[0]):
                            top, sign = child, sign * flip
                            continue
                    if sign < 0:
                        coeff = -coeff
                    for w, c in rewrites[lhs]:
                        child = head + w + tail
                        prev = pending.get(child)
                        term = coeff if c is H_ONE else coeff * c
                        if prev is None:
                            heappush(heaps.setdefault(len(child), []), child)
                            pending[child] = term
                            starts[child] = start
                        else:
                            pending[child] = prev + term
                            starts[child] = min(starts[child], start)
                    break
                else:
                    irreducible.append((self._decode(top), -coeff if sign < 0 else coeff))
            del heaps[size]
        return Element(irreducible)

    # -------------------------------------------------------------- ambiguity

    def iter_ambiguities(self):
        """Every overlap and inclusion ambiguity among rule left sides.

        For each left side l1, in rule order: an overlap l1 + l2[k:] with each
        left side l2 indexed under l1's last k letters among the proper
        prefixes, and an inclusion with each shorter l2 = l1[p:p + len(l2)];
        by l2's rule, overlaps first, then by k or p.  The residual is one
        `_reduce` of l1's rewrite minus l2's: words both share cancel unreduced.
        """
        rewrites = self._rewrites
        rank = {s: i for i, s in enumerate(rewrites)}
        prefixes = {}
        for s in rewrites:
            for k in range(1, len(s)):
                prefixes.setdefault(s[:k], []).append(s)
        for s1, rhs1 in rewrites.items():
            n = len(s1)
            pairs = [(rank[s2], 0, k, n - k, s2, s1 + s2[k:])
                     for k in range(1, n) for s2 in prefixes.get(s1[-k:], ())]
            pairs += [(rank[s2], 1, p, p, s2, s1) for m in range(1, n)
                      for p in range(n - m + 1) if (s2 := s1[p:p + m]) in rank]
            for _, kind, _, p, s2, s in sorted(pairs):
                pending = {w + s[n:]: c for w, c in rhs1}
                for w, c in rewrites[s2]:
                    key = s[:p] + w + s[p + len(s2):]
                    pending[key] = pending[key] - c if key in pending else -c
                word = self._decode(s)
                yield Ambiguity(word, ("overlap", "inclusion")[kind], self._reduce(pending, word))

    def check_confluence(self) -> list:
        """Unresolved ambiguities; an empty list certifies confluence."""
        return [a for a in self.iter_ambiguities() if not a.resolvable]

    # ------------------------------------------------------------------ basis

    def enumerate_basis(self, max_len: int) -> list:
        """Irreducible words of length <= max_len in ascending deglex order.

        Grown length by length: a one-letter extension of an irreducible word
        is irreducible iff no rule left side is a suffix of it.
        """
        return [self._decode(s) for s in self._irreducible_codes(max_len)]

    def _irreducible_codes(self, max_len: int) -> list:
        search, codes = self._redex.search, list(self._code.values())
        basis = [""]
        frontier = [""]
        for length in range(1, max_len + 1):
            # The prefix is irreducible, so a redex must end at the new letter.
            start = max(0, length - 1 - self._reach)
            grown = []
            for word in frontier:
                for c in codes:
                    child = word + c
                    if search(child, start) is None:
                        grown.append(child)
            basis.extend(grown)
            frontier = grown
            if not frontier:
                break
        return basis

    def basis_is_complete(self, max_len: int) -> bool:
        """True when no irreducible words exist beyond max_len.

        An empty length level is conclusive: any longer word contains a
        reducible subword of that length.
        """
        return self.basis_counts(max_len + 1)[-1] == 0

    @cached_property
    def _window_graph(self):
        """The irreducible words of length <= m, m the longest left side (1
        without rules), and the graph on them that `basis_counts` walks, built once.

        A word of length >= m - 1 is irreducible iff each of its windows of
        length m is.  Those words are the walks in the graph whose vertices
        are the irreducible words of length m - 1 and whose edges are those
        of length m, each running from its prefix to its suffix: a word of
        length m - 1 + t is a walk of t edges.  Without rules the one vertex
        is the empty word and every letter is a loop on it.
        """
        m = self._reach + 1
        words = self._irreducible_codes(m)
        succ = {v: [] for v in words if len(v) == m - 1}
        for w in words:
            if len(w) == m:
                succ[w[:-1]].append(w[1:])
        return m, words, succ

    def basis_counts(self, max_len: int, limit: int | None = None) -> list:
        """Irreducible words of each length 0..max_len, without building them.

        The list stops after the first empty length, since every longer
        length is empty too, and once its sum passes `limit`.
        """
        counts, total = [], 0
        for count in self._walk_counts(max_len):
            counts.append(count)
            total += count
            if not count or (limit is not None and total > limit):
                break
        return counts

    def _walk_counts(self, max_len: int):
        m, words, succ = self._window_graph
        for t in range(min(max_len, m - 2) + 1):
            yield sum(len(w) == t for w in words)
        walks = dict.fromkeys(succ, 1)  # walks ending at each vertex
        for _ in range(m - 1, max_len + 1):
            yield sum(walks.values())
            grown = dict.fromkeys(succ, 0)
            for v, k in walks.items():
                if k:
                    for u in succ[v]:
                        grown[u] += k
            walks = grown

    def dimension(self):
        """Number of irreducible words, or None when there are infinitely many.

        With V the number of vertices of the graph of `_window_graph`, a
        walk of V edges repeats a vertex, so it runs round a cycle, and a
        cycle gives walks of every length; the basis is finite iff the graph
        has no cycle (Ufnarovskij, Math. Notes 31, 1982).  So it is finite
        iff no word has length m - 1 + V, and then the counts up to that
        length hold every word.
        """
        m, _, succ = self._window_graph
        counts = self.basis_counts(m - 1 + len(succ))
        return None if counts[-1] else sum(counts)
