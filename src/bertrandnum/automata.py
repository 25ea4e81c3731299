"""Deterministic finite automata for the factor languages of beta-shifts.

Automata are partial: a missing transition rejects.  The classical
construction for the canonical shift of a Parry base puts one state per
position of the quasi-greedy expansion of 1 (preperiod then period),
with the expansion digit advancing along that spine and every smaller
digit falling back to the start.  The non-canonical shift of a simple
Parry base adds one extra state reached by the last digit of the greedy
expansion, carrying a 0-loop.

These automata are minimal as built: from each state the greatest
accepted word of every length is a prefix of a different infinite word
(see build_shift_dfa), so no two states accept the same language.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import NumerationError
from .realbase import RealBase, generating_word, quasi_greedy_of
from .words import DigitWord, walk_step


@dataclass
class Dfa:
    num_states: int
    initial: int
    transitions: dict  # (state, digit) -> state
    finals: frozenset

    def __post_init__(self):
        self.finals = frozenset(self.finals)
        for (q, c), t in self.transitions.items():
            if not (0 <= q < self.num_states and 0 <= t < self.num_states):
                raise NumerationError(f"transition ({q},{c})->{t} out of range")
            if c < 0:
                raise NumerationError("digits must be nonnegative")

    def accepts(self, w: DigitWord) -> bool:
        q = self.initial
        for c in w:
            q = self.transitions.get((q, c))
            if q is None:
                return False
        return q in self.finals

    def count_accepted(self, length: int) -> int:
        """Number of accepted words of the given length (exact big ints)."""
        if length < 0:
            raise NumerationError("length must be nonnegative")
        vec = [0] * self.num_states
        vec[self.initial] = 1
        for _ in range(length):
            nxt = [0] * self.num_states
            for (q, _), t in self.transitions.items():
                if vec[q]:
                    nxt[t] += vec[q]
            vec = nxt
        return sum(vec[q] for q in self.finals)

    # -- normal forms -----------------------------------------------------------

    def canonical(self) -> "Dfa":
        """Relabel states in BFS order from the initial state (digit-ascending);
        unreachable states are dropped.  Two automata are isomorphic exactly
        when their canonical forms are equal."""
        order = {self.initial: 0}
        queue = deque([self.initial])
        out_edges: dict = {}
        while queue:
            q = queue.popleft()
            for c in sorted(c for (s, c) in self.transitions if s == q):
                t = self.transitions[(q, c)]
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
        trans = {
            (order[q], c): order[t]
            for (q, c), t in self.transitions.items()
            if q in order
        }
        finals = frozenset(order[q] for q in self.finals if q in order)
        return Dfa(len(order), 0, trans, finals)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "initial": self.initial,
            "finals": sorted(self.finals),
            "edges": sorted([q, c, t] for (q, c), t in self.transitions.items()),
        }

    def to_dot(self) -> str:
        """Graphviz source with a stable BFS state ordering."""
        d = self.canonical()
        lines = [
            "digraph {",
            "  rankdir=LR;",
            "  node [shape=doublecircle];",
            '  start [shape=point, label=""];',
        ]
        for q in range(d.num_states):
            if q not in d.finals:
                lines.append(f"  {q} [shape=circle];")
        lines.append(f"  start -> {d.initial};")
        grouped: dict = {}
        for (q, c), t in d.transitions.items():
            grouped.setdefault((q, t), []).append(c)
        for (q, t), digits in sorted(grouped.items()):
            label = ",".join(str(c) for c in sorted(digits))
            lines.append(f'  {q} -> {t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_shift_dfa(base: RealBase, variant: str) -> Dfa:
    """Minimal automaton accepting the factors of the base's shift.

    canonical: the classical construction over the quasi-greedy expansion
    of 1.  noncanonical: for a simple Parry base, the same automaton with
    one extra state; otherwise the shifts coincide and so do the
    automata.  All states are final, so the language is factorial.

    Minimality.  Write d* = u v v v ... for the quasi-greedy word in
    canonical form (v primitive, u as short as possible, m = |u|,
    n = |v|); spine state i < m + n is reached by d*_1..d*_i.
    (1) The shifts s^i(d*), i < m + n, are pairwise distinct: if
    s^i(d*) = s^j(d*) with i < j, then the tail of d* from index i is
    purely periodic, so it equals its own far tails and has period n;
    that forces i >= m (u is shortest) and j - i >= n (v is primitive),
    so j >= m + n.
    (2) From spine state i the greatest accepted word of each length k
    is the first k letters of s^i(d*): every state is final and has an
    edge, and the greatest edge out of a spine state is its spine digit.
    (3) The extra state accepts exactly 0*, and no spine state does,
    because a quasi-greedy word never ends in zeros.  Every state is
    reachable and accepts the empty word, so by (1)-(3) no two states
    are equivalent and none is dead: the automaton is minimal.

    Construction.  The spine edges are the steps of Parry's walk against
    d*_1..d*_{m+n} (words.walk_step), with the step off the end of the
    spine going to state m.  The extra state of the non-canonical shift
    hangs off the last spine state: a greedy word t_1..t_n has the
    quasi-greedy word (t_1..t_{n-1}(t_n - 1))^w with that period
    primitive, so m = 0, the spine has n states, the last one is reached
    by t_1..t_{n-1}, and its letter t_n = d*_n + 1 has no spine edge.
    """
    word = generating_word(base, variant)
    dstar = quasi_greedy_of(word)  # the identity on a quasi-greedy word
    m = len(dstar.pre)
    spine = dstar.pre + dstar.per
    size = len(spine)
    trans = {}
    for q in range(size):
        for c in itertools.count():
            t = walk_step(spine, q, c)
            if t is None:
                break
            trans[(q, c)] = m if t == size else t
    if variant == "noncanonical" and word.zero_tail:
        trans[(size - 1, word.support[-1])] = size
        trans[(size, 0)] = size
        size += 1
    return Dfa(size, 0, trans, frozenset(range(size)))
