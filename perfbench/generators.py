"""Seeded input generators and the exact oracles that classify their output.

Everything here is independent of the library's deciders: formulas are
classified by the one-in-three model oracle and chains by an exact
prefix-parity check, so a verdict from the code under test can be compared
against an answer it did not compute.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from ensynth import CubicMonotoneFormula, find_one_in_three_models


def cubic_formulas(rng: random.Random, m: int) -> Iterator[CubicMonotoneFormula]:
    """Endless stream of cubic monotone formulas with m clauses.

    A pool holding three copies of each variable is shuffled and cut into
    triples; draws with a repeated variable in a triple or a repeated
    clause are rejected.
    """
    pool = [v for v in range(m) for _ in range(3)]
    while True:
        rng.shuffle(pool)
        triples = [tuple(sorted(pool[3 * i:3 * i + 3])) for i in range(m)]
        if all(len(set(t)) == 3 for t in triples) and len(set(triples)) == m:
            yield CubicMonotoneFormula(triples)


def first_formulas(seed: int, m: int, want_positive: bool, want_negative: bool):
    """(positive, negative): the seed's first formula with a one-in-three
    model and the first without one; a model exists only when 3 divides m."""
    if want_positive and m % 3:
        raise ValueError(f"no cubic monotone formula with m={m} has a model")
    rng = random.Random(seed)
    positive = negative = None
    for formula in cubic_formulas(rng, m):
        if find_one_in_three_models(formula):
            positive = positive or formula
        else:
            negative = negative or formula
        if (positive or not want_positive) and (negative or not want_negative):
            return positive, negative


def two_fold_word(rng: random.Random, n: int, unique_share: float) -> list[str]:
    """A word of length n in which each event occurs at most twice.

    About ``unique_share`` of the positions carry an event that occurs
    once, one at a random offset in each stretch of 1/unique_share
    positions; paired events fill the other positions in shuffled order.
    Spreading the unique events evenly keeps the number of state pairs
    with no unique event between them, and so the separator work, nearly
    the same from seed to seed.
    """
    stride = round(1 / unique_share)
    unique_at = {b + rng.randrange(min(stride, n - b)) for b in range(0, n, stride)}
    if (n - len(unique_at)) % 2:
        unique_at.discard(max(unique_at))
    pairs = (n - len(unique_at)) // 2
    paired = [f"d{k}" for k in range(pairs) for _ in range(2)]
    rng.shuffle(paired)
    fill = iter(paired)
    unique = iter(range(n))
    return [f"u{next(unique)}" if p in unique_at else next(fill) for p in range(n)]


def exact_2fold_segment(word: list[str]) -> Optional[tuple[int, int]]:
    """Smallest (i, j) by i, then j, whose segment word[i:j] holds every
    occurring event exactly twice, or None when the chain has the SSP.

    In a 2-fold word a segment is exact exactly when every event occurs in
    it an even number of times, i.e. when the prefix parity vectors at i
    and j are equal.  Parity vectors are hashed with random 64-bit keys and
    every hash hit is confirmed by counting, so the answer is exact.
    """
    keys: dict[str, int] = {}
    key_rng = random.Random(0x2F01D)
    h = 0
    prefix = [0]
    for ev in word:
        if ev not in keys:
            keys[ev] = key_rng.getrandbits(64)
        h ^= keys[ev]
        prefix.append(h)
    first: dict[int, list[int]] = {}
    best: Optional[tuple[int, int]] = None
    for j, hj in enumerate(prefix):
        for i in first.get(hj, ()):
            if best is not None and (i, j) >= best:
                break
            if is_exact_2fold(word[i:j]):
                best = (i, j)
                break
        first.setdefault(hj, []).append(j)
    return best


def is_exact_2fold(segment: list[str]) -> bool:
    counts: dict[str, int] = {}
    for ev in segment:
        counts[ev] = counts.get(ev, 0) + 1
    return bool(segment) and all(c == 2 for c in counts.values())
