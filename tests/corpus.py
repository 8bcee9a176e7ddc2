"""Deterministic test corpus: small transition systems and formulas.

Everything here is reproducible without randomness or with fixed seeds, so
expected values frozen in the tests stay valid.
"""

from __future__ import annotations

import random
from itertools import product

from ensynth.ts import TransitionSystem

PHI6 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)]
PHI4 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
PHI1 = [(0, 1, 2)]  # a scaffolding formula: not cubic, build with check=False


def master() -> TransitionSystem:
    return TransitionSystem.chain(
        ["k", "z0", "o0", "k", "h", "z0", "v1", "k"], prefix="m"
    )


def linear3_corpus() -> list[TransitionSystem]:
    """All linear 3-fold words of length <= 3 over {a,b,c} plus all
    length-4 words over {a,b} (53 instances, <= 5 states each)."""
    out = []
    for length in (1, 2, 3):
        for word in product("abc", repeat=length):
            if max(word.count(x) for x in set(word)) <= 3:
                out.append(TransitionSystem.chain(list(word)))
    for word in product("ab", repeat=4):
        if max(word.count(x) for x in set(word)) <= 3:
            out.append(TransitionSystem.chain(list(word)))
    return out


def linear2_words(count: int, max_len: int, seed: int = 11) -> list[list[str]]:
    """Random words where no event occurs more than twice."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(1, max_len)
        word: list[str] = []
        counts: dict[str, int] = {}
        alphabet = [f"e{t}" for t in range(n)]
        for _ in range(n):
            choices = [e for e in alphabet if counts.get(e, 0) < 2]
            ev = rng.choice(choices)
            counts[ev] = counts.get(ev, 0) + 1
            word.append(ev)
        words.append(word)
    return words


def reversed_declaration(ts: TransitionSystem) -> TransitionSystem:
    """The same system with its states declared in reverse order."""
    return TransitionSystem(ts.states[::-1], ts.events, ts.initial, ts.edges)


def random_linear_ts(rng: random.Random, max_len: int, alphabet_size: int) -> TransitionSystem:
    n = rng.randint(1, max_len)
    word = [f"e{rng.randrange(alphabet_size)}" for _ in range(n)]
    return TransitionSystem.chain(word)


def random_deterministic_ts(rng: random.Random, n_states: int, n_events: int) -> TransitionSystem:
    """Reachable deterministic loop-free simple TS grown edge by edge."""
    states = [f"q{i}" for i in range(n_states)]
    events = [f"e{i}" for i in range(n_events)]
    edges = []
    used_pairs = set()
    used_ends = set()
    reached = [states[0]]
    for target in states[1:]:
        src = rng.choice(reached)
        free = [e for e in events if (src, e) not in used_pairs]
        if not free:
            continue
        ev = rng.choice(free)
        edges.append((src, ev, target))
        used_pairs.add((src, ev))
        used_ends.add((src, target))
        reached.append(target)
    extra = rng.randint(0, n_states)
    for _ in range(extra):
        src = rng.choice(reached)
        dst = rng.choice(reached)
        if src == dst or (src, dst) in used_ends:
            continue
        free = [e for e in events if (src, e) not in used_pairs]
        if not free:
            continue
        ev = rng.choice(free)
        edges.append((src, ev, dst))
        used_pairs.add((src, ev))
        used_ends.add((src, dst))
    used_events = {e for _, e, _ in edges}
    return TransitionSystem(
        reached, [e for e in events if e in used_events], states[0], edges
    )


def small_ts_corpus() -> list[TransitionSystem]:
    """Mixed shapes with <= 14 states: chains, cycles, diamonds, gadgets,
    and seeded random deterministic systems."""
    out = [
        TransitionSystem.chain(["a"]),
        TransitionSystem.chain(["a", "b"]),
        TransitionSystem.chain(["a", "a"]),
        TransitionSystem.chain(["a", "b", "a"]),
        TransitionSystem.chain(["a", "b", "a", "b"]),
        TransitionSystem.chain(["a", "b", "c", "a"]),
        master(),
        # cycle of length three
        TransitionSystem.from_edges(
            "c0", [("c0", "x", "c1"), ("c1", "y", "c2"), ("c2", "z", "c0")]
        ),
        # diamond
        TransitionSystem.from_edges(
            "q0",
            [("q0", "a", "q1"), ("q0", "b", "q2"), ("q1", "b", "q3"), ("q2", "a", "q3")],
        ),
        # the five-state cyclic duplicator shape used by the 2-fold gadgets
        TransitionSystem.from_edges(
            "d0",
            [
                ("d0", "k1", "d1"), ("d1", "v0", "d2"), ("d2", "k0", "d3"),
                ("d3", "v1", "d4"), ("d4", "w0", "d0"), ("d4", "k2", "d1"),
                ("d1", "a0", "d3"),
            ],
        ),
        # barter shape
        TransitionSystem.from_edges(
            "b0", [("b0", "k1", "b1"), ("b0", "c0", "b2"), ("b2", "k2", "b3")]
        ),
        # manifolder shape
        TransitionSystem.from_edges(
            "x0",
            [
                ("x0", "c0", "x1"), ("x1", "c1", "x2"), ("x0", "A", "x3"),
                ("x1", "B", "x4"), ("x2", "C", "x5"), ("x3", "c2", "x4"),
                ("x4", "c3", "x5"),
            ],
        ),
        # accordance duplicator shape
        TransitionSystem.from_edges(
            "u0",
            [
                ("u0", "e0", "u1"), ("u0", "a0", "u2"), ("u2", "e1", "u3"),
                ("u2", "a1", "u4"), ("u1", "a0", "u3"), ("u3", "a1", "u5"),
                ("u4", "e2", "u5"),
            ],
        ),
    ]
    rng = random.Random(2024)
    for _ in range(12):
        out.append(random_deterministic_ts(rng, rng.randint(3, 10), rng.randint(2, 5)))
    for length in (4, 5, 6):
        for word in (["a", "b"] * 3, ["a", "b", "c", "a", "c", "b"]):
            out.append(TransitionSystem.chain(word[:length]))
    return out
