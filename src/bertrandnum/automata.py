"""Deterministic finite automata for the factor languages of beta-shifts.

Automata are partial: a missing transition rejects.  The classical
construction for the canonical shift of a Parry base puts one state per
position of the quasi-greedy expansion of 1 (preperiod then period),
with the expansion digit advancing along that spine and every smaller
digit falling back to the start.  The non-canonical shift of a simple
Parry base adds one extra state reached by the last digit of the greedy
expansion, carrying a 0-loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import NumerationError
from .realbase import RealBase, generating_word, quasi_greedy_of
from .words import DigitWord


@dataclass
class Dfa:
    num_states: int
    initial: int
    transitions: dict  # (state, digit) -> state
    finals: frozenset
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.finals = frozenset(self.finals)
        for (q, c), t in self.transitions.items():
            if not (0 <= q < self.num_states and 0 <= t < self.num_states):
                raise NumerationError(f"transition ({q},{c})->{t} out of range")
            if c < 0:
                raise NumerationError("digits must be nonnegative")

    @property
    def alphabet(self) -> tuple:
        return tuple(sorted({c for (_, c) in self.transitions}))

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
        return Dfa(len(order), 0, trans, finals, dict(self.meta))

    def minimized(self) -> "Dfa":
        """Language-equivalent minimal DFA, keeping the partial-transition
        convention (no explicit sink in the result)."""
        alphabet = self.alphabet
        sink = self.num_states
        states = range(self.num_states + 1)

        def target(q, c):
            if q == sink:
                return sink
            return self.transitions.get((q, c), sink)

        color = {q: (1 if q in self.finals else 0) for q in states}
        while True:
            sig = {
                q: (color[q],) + tuple(color[target(q, c)] for c in alphabet)
                for q in states
            }
            palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            new_color = {q: palette[sig[q]] for q in states}
            if len(set(new_color.values())) == len(set(color.values())):
                color = new_color
                break
            color = new_color

        classes = sorted(set(color.values()))
        index = {c: i for i, c in enumerate(classes)}
        init = index[color[self.initial]]
        finals = frozenset(index[color[q]] for q in self.finals)
        trans = {}
        for (q, c), t in self.transitions.items():
            trans[(index[color[q]], c)] = index[color[t]]
        # drop classes whose language is empty (cannot reach a final class)
        n = len(classes)
        reach_final = set(finals)
        changed = True
        while changed:
            changed = False
            for (q, _), t in trans.items():
                if t in reach_final and q not in reach_final:
                    reach_final.add(q)
                    changed = True
        if init not in reach_final:
            return Dfa(1, 0, {}, frozenset(), dict(self.meta))
        trans = {
            (q, c): t
            for (q, c), t in trans.items()
            if q in reach_final and t in reach_final
        }
        return Dfa(n, init, trans, finals, dict(self.meta)).canonical()

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "initial": self.initial,
            "finals": sorted(self.finals),
            "edges": sorted([q, c, t] for (q, c), t in self.transitions.items()),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Dfa":
        try:
            initial = int(data["initial"])
            finals = frozenset(int(q) for q in data["finals"])
            edges = [(int(q), int(c), int(t)) for q, c, t in data["edges"]]
        except (KeyError, TypeError, ValueError):
            raise NumerationError(f"bad DFA JSON: {data!r}") from None
        num = max(
            [initial] + [q for q in finals] + [q for q, _, t in edges] + [t for _, _, t in edges],
            default=0,
        ) + 1
        return cls(num, initial, {(q, c): t for q, c, t in edges}, finals)

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
    """Automaton accepting the factors of the base's shift.

    canonical: the classical construction over the quasi-greedy expansion
    of 1.  noncanonical: for a simple Parry base, the same automaton with
    one extra state; otherwise the shifts coincide and the canonical
    automaton is returned with meta["coincides_with_canonical"] set.
    All states are final, so the language is factorial.
    """
    word = generating_word(base, variant)
    dstar = quasi_greedy_of(word)  # the identity on a quasi-greedy word
    m, n = len(dstar.pre), len(dstar.per)
    size = m + n
    digits = dstar.pre + dstar.per
    trans = {}
    for i in range(size):
        upper = i + 1 if i + 1 < size else m
        trans[(i, digits[i])] = upper
        for c in range(digits[i]):
            trans[(i, c)] = 0
    meta = {}
    if variant == "noncanonical":
        if word.zero_tail:
            t = word.support
            q = 0
            for c in t[:-1]:
                q = trans[(q, c)]
            if (q, t[-1]) in trans:
                raise NumerationError("construction clash; expansion is not greedy")
            trans[(q, t[-1])] = size
            trans[(size, 0)] = size
            size += 1
        else:
            meta["coincides_with_canonical"] = True
    return Dfa(size, 0, trans, frozenset(range(size)), meta)
