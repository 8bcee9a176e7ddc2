"""Generators for the four satisfiability reductions and their key regions.

The source problem is cubic monotone one-in-three 3-SAT: m clauses of
three positive variables, every variable in exactly three clauses.  Two
constructions target event/state separation (linear 3-fold and 2-grade
2-fold); two reduce separation problems between TS classes (linear 3-ESSP
to linear 3-SSP, and linear 3-fold SSP to 2-grade 2-fold SSP).  ESSP
queries follow the deciders' one rule, ``properties._queries``.

Generated identifiers follow a fixed scheme: master states m0..m8,
refresher states f_<j>_<n>, key copies k_<n>, zeros z<n>, opposites o<n>
(the second one is labeled v1 and is shared between the master and the
first refresher), headmaster states h_<j>_<n>, representer events
X.<clause>.<var>.  Identical input yields byte-identical serialized
output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .properties import _queries
from .regions import Region
from .ts import ParseError, TransitionSystem, _content_lines, _linear_chain, classify
from .unions import JoinPlan, TsUnion, default_join_plan, make_union, rectified_name, rectify

__all__ = [
    "CubicMonotoneFormula",
    "parse_cnf3",
    "serialize_cnf3",
    "is_one_in_three_model",
    "find_one_in_three_models",
    "GadgetInstance",
    "build_linear3_essp",
    "build_key_region_linear3",
    "build_linear3_ssp",
    "build_2grade2_essp",
    "build_key_region_2grade2",
    "build_2grade2_ssp",
]


class CubicMonotoneFormula:
    """m clauses of three variables each, every variable in exactly three.

    Clauses are normalized to sorted index triples.  ``check=False`` skips
    the cubic-monotone validity conditions so that scaffolding formulas
    (e.g. a single clause for basic-union tests) can be built.
    """

    __slots__ = ("clauses", "checked")

    def __init__(self, clauses: Iterable[Iterable[int]], check: bool = True):
        normalized = []
        for clause in clauses:
            triple = tuple(sorted(clause))
            if len(triple) != 3 or len(set(triple)) != 3:
                raise ValueError(f"clause {triple} is not a 3-element variable set")
            if any(not isinstance(v, int) or v < 0 for v in triple):
                raise ValueError(f"clause {triple} has invalid variable indices")
            normalized.append(triple)
        object.__setattr__(self, "clauses", tuple(normalized))
        object.__setattr__(self, "checked", check)
        if check:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("CubicMonotoneFormula is immutable")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def _validate(self) -> None:
        m = self.m
        occurrences = {}
        for clause in self.clauses:
            for v in clause:
                if v >= m:
                    raise ValueError(
                        f"variable X{v} out of range for {m} clauses (|V| must equal m)"
                    )
                occurrences[v] = occurrences.get(v, 0) + 1
        for v in range(m):
            if occurrences.get(v, 0) != 3:
                raise ValueError(
                    f"variable X{v} occurs {occurrences.get(v, 0)} times, expected 3"
                )
        if len(set(self.clauses)) != m:
            raise ValueError("clauses must be pairwise distinct")

    def clauses_of(self, variable: int) -> tuple[int, ...]:
        return tuple(i for i, cl in enumerate(self.clauses) if variable in cl)

    def __eq__(self, other):
        if not isinstance(other, CubicMonotoneFormula):
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self):
        return hash(self.clauses)

    def __repr__(self):
        return f"CubicMonotoneFormula({list(self.clauses)})"


def parse_cnf3(text: str, check: bool = True) -> CubicMonotoneFormula:
    """Parse the ``.cnf3`` format: one ``clause <v> <v> <v>`` line per clause."""
    clauses = []
    for number, line in _content_lines(text):
        fields = line.split()
        if fields[0] != "clause" or len(fields) != 4:
            raise ParseError("expected 'clause <v> <v> <v>'", number)
        try:
            clauses.append(tuple(int(f) for f in fields[1:]))
        except ValueError:
            raise ParseError("clause variables must be integers", number) from None
    return CubicMonotoneFormula(clauses, check=check)


def serialize_cnf3(formula: CubicMonotoneFormula) -> str:
    return "".join(f"clause {a} {b} {c}\n" for a, b, c in formula.clauses)


def is_one_in_three_model(formula: CubicMonotoneFormula, subset: Iterable[int]) -> bool:
    chosen = frozenset(subset)
    return all(len(chosen & set(cl)) == 1 for cl in formula.clauses)


def find_one_in_three_models(formula: CubicMonotoneFormula) -> list[frozenset[int]]:
    """All one-in-three models, by exhaustive enumeration of the subsets of
    the variables that occur, ordered by ``sum(1 << v)``.

    The desk-scale oracle; refuses more than 24 variables.
    """
    variables = sorted({v for clause in formula.clauses for v in clause})
    if len(variables) > 24:
        raise ValueError("exhaustive model search is capped at 24 variables")
    # Bit i of a candidate stands for variables[i], which keeps the order.
    bit = {v: 1 << i for i, v in enumerate(variables)}
    clause_masks = [bit[a] | bit[b] | bit[c] for a, b, c in formula.clauses]
    models = []
    for candidate in range(1 << len(variables)):
        for cm in clause_masks:
            hit = candidate & cm
            if hit == 0 or hit & (hit - 1):
                break
        else:
            models.append(frozenset(v for i, v in enumerate(variables) if candidate >> i & 1))
    return models


@dataclass(frozen=True)
class GadgetInstance:
    """A generated reduction instance.

    ``key_query`` carries the (event, state) pair whose inhibition encodes
    satisfiability (ESSP constructions); ``key_pairs`` carries the state
    pairs whose separation encodes the source property (SSP
    constructions).
    """

    union: TsUnion
    join_plan: JoinPlan
    key_query: Optional[tuple[str, str]] = None
    key_pairs: tuple[tuple[str, str], ...] = ()


def _instance(components: list[TransitionSystem], plan: JoinPlan | None = None,
              **keys) -> GadgetInstance:
    """The instance of the union of ``components``, joined by ``plan``, by
    default at the last states of its linear components."""
    union = make_union(components)
    return GadgetInstance(union, default_join_plan(union) if plan is None else plan, **keys)


def _clause_count(formula: CubicMonotoneFormula) -> int:
    if formula.m < 1:
        raise ValueError("the construction needs at least one clause")
    return formula.m


def _check_linear3(ts: TransitionSystem) -> None:
    cls = classify(ts)
    if not cls.linear or cls.manifoldness > 3:
        raise ValueError("the construction expects a linear 3-fold input")


# -- linear 3-fold ESSP construction --------------------------------------


def _opposite(n: int) -> str:
    # v1 is the name of the second opposite, shared between the master
    # chain and the first refresher.
    return "v1" if n == 1 else f"o{n}"


def _lin3_master() -> TransitionSystem:
    return TransitionSystem.chain(
        ["k", "z0", "o0", "k", "h", "z0", "v1", "k"], prefix="m"
    )


def _lin3_refresher(j: int) -> TransitionSystem:
    word = [
        _opposite(2 * j), f"k_{3 * j}", _opposite(2 * j + 1), f"k_{3 * j + 1}",
        _opposite(2 * j), f"k_{3 * j + 2}", _opposite(2 * j + 1),
    ]
    return TransitionSystem.chain(word, prefix=f"f_{j}_")


def _lin3_duplicator(j: int) -> TransitionSystem:
    word = [
        f"k_{3 * j}", f"z{2 * j}", f"h_{j}", f"k_{3 * j}", f"z{2 * j + 1}",
        f"h_{j}", f"z{2 * j + 2}", f"k_{3 * j + 1}", f"z{2 * j + 1}",
        _opposite(2 * j + 2), f"k_{3 * j + 1}", f"z{2 * j + 2}",
        _opposite(2 * j + 3), f"k_{3 * j + 2}",
    ]
    return TransitionSystem.chain(word, prefix=f"d_{j}_")


def _translator(
    i: int, clause: tuple[int, int, int], variable_event: str
) -> list[TransitionSystem]:
    """The three chains of clause i's translator; ``variable_event`` names
    the event of variable v, formatted with i and v."""
    a, b, c = (variable_event.format(i=i, v=v) for v in clause)
    tilde = f"Xt.{i}.{clause[1]}"
    return [
        TransitionSystem.chain(
            [f"k_{18 * i + 2}", a, tilde, c, f"k_{18 * i + 11}"],
            prefix=f"t_{i}_0_",
        ),
        TransitionSystem.chain(
            [f"k_{18 * i + 5}", b, f"p{i}", f"k_{18 * i + 14}"],
            prefix=f"t_{i}_1_",
        ),
        TransitionSystem.chain(
            [f"k_{18 * i + 8}", tilde, f"p{i}", f"k_{18 * i + 17}"],
            prefix=f"t_{i}_2_",
        ),
    ]


def build_linear3_essp(formula: CubicMonotoneFormula) -> GadgetInstance:
    """Union of master, 6m refreshers, 6m duplicators, m translators.

    The key event k is inhibitable at the key state m6 iff the formula has
    a one-in-three model; the joined TS is a linear 3-fold chain.
    """
    m = _clause_count(formula)
    components: list[TransitionSystem] = [_lin3_master()]
    components.extend(_lin3_refresher(j) for j in range(6 * m))
    components.extend(_lin3_duplicator(j) for j in range(6 * m))
    for i, clause in enumerate(formula.clauses):
        components.extend(_translator(i, clause, "X{v}"))
    return _instance(components, key_query=("k", "m6"))


def _translator_template(i: int, position: int) -> set[str]:
    """Key-region fragment of translator i selecting its 1st/2nd/3rd variable."""
    base = {
        f"t_{i}_0_0", f"t_{i}_0_4",
        f"t_{i}_1_0", f"t_{i}_1_3",
        f"t_{i}_2_0", f"t_{i}_2_3",
    }
    if position == 0:  # first clause variable enters
        return base | {f"t_{i}_0_2", f"t_{i}_0_3"}
    if position == 1:  # middle variable (and its copy) enter
        return base | {f"t_{i}_0_3", f"t_{i}_1_2", f"t_{i}_2_2"}
    return base  # third variable enters


def _key_region(formula, model, union, build, basic_members) -> Region:
    """``basic_members(m, model)`` plus each clause's translator template
    for its model variable, as a region of ``union`` (``build``'s if None)."""
    chosen = frozenset(model)
    if not is_one_in_three_model(formula, chosen):
        raise ValueError(f"{sorted(chosen)} is not a one-in-three model")
    if union is None:
        union = build(formula).union
    members = basic_members(formula.m, chosen)
    for i, clause in enumerate(formula.clauses):
        (variable,) = chosen & set(clause)
        members.extend(_translator_template(i, clause.index(variable)))
    return Region.from_members(union, members)


def _basic_key_members(m: int, model: frozenset[int]) -> list[str]:
    members = ["m0", "m3", "m7"]
    for j in range(6 * m):
        members.extend(f"f_{j}_{n}" for n in (1, 3, 5, 7))
        members.extend(f"d_{j}_{n}" for n in (0, 3, 6, 7, 10, 13))
    return members


def build_key_region_linear3(
    formula: CubicMonotoneFormula,
    model: Iterable[int],
    union: TsUnion | None = None,
) -> Region:
    """Witness region inhibiting k at m6 assembled from a model: the unique
    basic-union region (all key copies exiting) plus one translator
    template per clause.  Raises when the subset is not a one-in-three model.
    """
    return _key_region(formula, model, union, build_linear3_essp, _basic_key_members)


# -- linear 3-ESSP to linear 3-SSP ----------------------------------------


def _namer(ts: TransitionSystem):
    """A name source for gadgets built around ``ts``: each call returns its
    argument, suffixed with "+" until it clashes with no name of ``ts`` and
    no name returned before."""
    used = set(ts.states) | set(ts.events)

    def name(x: str) -> str:
        while x in used:
            x += "+"
        used.add(x)
        return x

    return name


def _chain_ts(word: Sequence[str], states: Sequence[str]) -> TransitionSystem:
    edges = [(states[n], ev, states[n + 1]) for n, ev in enumerate(word)]
    return TransitionSystem.from_edges(states[0], edges)


def _query_sub_union(
    ts: TransitionSystem, event: str, state: str
) -> tuple[TsUnion, tuple[str, str]]:
    """Mapper, five duplicators, provider, enhanced copy for one (e, s)
    query, and its key states, the mapper's initial state and e-successor.

    Every introduced state and event name is drawn through one freshness
    gate against the input's own names, so the copy component can carry
    the input verbatim.
    """
    name = _namer(ts)

    ecopy = [name(f"{event}.{n}") for n in range(10)]
    vice = [name(f"v{n}") for n in range(12)]
    h1, h2 = name("h1"), name("h2")
    b_events = [name(f"b{n}") for n in range(10)]
    b_free = name("b")

    mapper_states = [name(f"m{n}") for n in range(6)]
    sub = [_chain_ts([event, vice[0], event, vice[1], event], mapper_states)]
    for j in range(5):
        d_states = [name(f"d_{j}_{n}") for n in range(14)]
        word = [
            vice[2 * j], ecopy[2 * j], vice[2 * j + 1], b_events[2 * j],
            vice[2 * j], ecopy[2 * j + 1], vice[2 * j + 1],
            b_events[2 * j + 1], ecopy[2 * j], vice[2 * j + 2],
            ecopy[2 * j + 1], vice[2 * j + 3], ecopy[2 * j],
        ]
        sub.append(_chain_ts(word, d_states))
    p_states = [name(f"p{n}") for n in range(8)]
    sub.append(_chain_ts([ecopy[7], h1, ecopy[9], b_free, vice[10], h2, vice[11]], p_states))

    # Copy of the input: event occurrences become the free copies e1, e3,
    # e5 in chain order; the state grows s -h1-> p -h2-> s', with the
    # former outgoing edge of s leaving s'.
    states, word = _linear_chain(ts)
    free = iter([ecopy[1], ecopy[3], ecopy[5]])
    word = [next(free) if ev == event else ev for ev in word]
    k = states.index(state)
    sub.append(_chain_ts([*word[:k], h1, h2, *word[k:]],
                         [*states[:k + 1], name("p"), name(state + "+"), *states[k + 1:]]))
    return make_union(sub), (mapper_states[0], mapper_states[1])


def build_linear3_ssp(ts: TransitionSystem) -> GadgetInstance:
    """Aggregate union with two key states per (event, state) query.

    For every ESSP query (e, s) in sweep order, a sub-union of mapper,
    five duplicators, provider, and an enhanced copy of the input is
    rectified by (e, s) and emitted; its key states (e:s:m0, e:s:m1) are
    separable iff e is inhibitable at s.  The joined TS is linear 3-fold.
    """
    _check_linear3(ts)
    components: list[TransitionSystem] = []
    key_pairs: list[tuple[str, str]] = []
    for tag in ((q.a, q.b) for q in _queries(ts, "essp")):
        sub, pair = _query_sub_union(ts, *tag)
        components.extend(rectify(sub, tag).components)
        key_pairs.append(tuple(rectified_name(tag, x) for x in pair))
    if not components:
        raise ValueError("input admits no (event, state) separation queries")
    return _instance(components, key_pairs=tuple(key_pairs))


# -- 2-grade 2-fold ESSP construction --------------------------------------


def _headmaster(m: int) -> TransitionSystem:
    n = 14 * m
    edges = []
    for j in range(n):
        first = "k" if j == 0 else f"k_{3 * (j - 1)}"
        second = "k" if j == 0 else f"k_{3 * (j - 1) + 1}"
        s = lambda i: f"h_{j}_{i}"
        edges.extend([
            (s(0), first, s(1)),
            (s(1), f"z{2 * j}", s(2)),
            (s(1), f"z{2 * j + 1}", s(3)),
            (s(2), f"v{2 * j}", s(4)),
            (s(3), f"v{2 * j + 1}", s(4)),
            (s(4), second, s(5)),
            (s(5), f"w{2 * j}", s(6)),
            (s(5), f"w{2 * j + 1}", s(7)),
            (s(6), f"z{2 * j}", s(8)),
            (s(7), f"z{2 * j + 1}", s(8)),
        ])
        if j + 1 < n:
            edges.append((s(0), f"r{j}", f"h_{j + 1}_0"))
            edges.append((s(8), f"a{j}", f"h_{j + 1}_8"))
    return TransitionSystem.from_edges("h_0_0", edges)


def _grade2_duplicator(j: int) -> TransitionSystem:
    s = lambda i: f"d_{j}_{i}"
    edges = [
        (s(0), f"k_{3 * j + 1}", s(1)),
        (s(1), f"v{2 * j}", s(2)),
        (s(2), f"k_{3 * j}", s(3)),
        (s(3), f"v{2 * j + 1}", s(4)),
        (s(4), f"w{2 * j}", s(0)),
        (s(4), f"k_{3 * j + 2}", s(1)),
        (s(1), f"a{j}", s(3)),
    ]
    return TransitionSystem.from_edges(s(0), edges)


def _barter(q: int, m: int) -> TransitionSystem:
    q1 = 18 * m + 6 * q + 2
    q2 = q1 + 3
    s = lambda i: f"b_{q}_{i}"
    return TransitionSystem.from_edges(
        s(0),
        [(s(0), f"k_{q1}", s(1)), (s(0), f"c{q}", s(2)), (s(2), f"k_{q2}", s(3))],
    )


def _manifolder(i: int, clause_indices: tuple[int, ...]) -> TransitionSystem:
    alpha, beta, gamma = clause_indices
    s = lambda n: f"x_{i}_{n}"
    return TransitionSystem.from_edges(
        s(0),
        [
            (s(0), f"c{4 * i}", s(1)),
            (s(1), f"c{4 * i + 1}", s(2)),
            (s(0), f"X.{alpha}.{i}", s(3)),
            (s(1), f"X.{beta}.{i}", s(4)),
            (s(2), f"X.{gamma}.{i}", s(5)),
            (s(3), f"c{4 * i + 2}", s(4)),
            (s(4), f"c{4 * i + 3}", s(5)),
        ],
    )


def build_2grade2_essp(formula: CubicMonotoneFormula) -> GadgetInstance:
    """Headmaster, 14m duplicators, 4m barters, m manifolders, m translators.

    Every event occurs at most twice; the joined TS is 2-grade 2-fold.
    The key event k is inhibitable at h_0_8 iff the formula has a
    one-in-three model.  The barters consume the free key copies left
    after the translators (k with subscripts 18m+6q+2 and 18m+6q+5).
    """
    m = _clause_count(formula)
    for i in range(m):
        if (count := len(formula.clauses_of(i))) != 3:
            raise ValueError("2grade2-essp needs every variable in exactly three "
                             f"clauses; X{i} occurs in {count}")
    components: list[TransitionSystem] = [_headmaster(m)]
    terminals: list[str] = ["h_0_8"]
    for j in range(14 * m):
        components.append(_grade2_duplicator(j))
        terminals.append(f"d_{j}_0")
    for q in range(4 * m):
        components.append(_barter(q, m))
        terminals.append(f"b_{q}_1")
    for i in range(m):
        components.append(_manifolder(i, formula.clauses_of(i)))
        terminals.append(f"x_{i}_5")
    for i, clause in enumerate(formula.clauses):
        components.extend(_translator(i, clause, "X.{i}.{v}"))
        terminals.extend((f"t_{i}_0_5", f"t_{i}_1_4", f"t_{i}_2_4"))
    return _instance(components, JoinPlan(tuple(terminals)), key_query=("k", "h_0_8"))


def _grade2_key_members(m: int, model: frozenset[int]) -> list[str]:
    members: list[str] = []
    for j in range(14 * m):
        members.extend((f"h_{j}_0", f"h_{j}_4"))
        members.extend((f"d_{j}_0", f"d_{j}_2", f"d_{j}_4"))
    for q in range(4 * m):
        members.extend((f"b_{q}_0", f"b_{q}_2"))
    for i in range(m):
        members.extend(f"x_{i}_{n}" for n in (3, 4, 5))
        if i not in model:
            members.extend(f"x_{i}_{n}" for n in (0, 1, 2))
    return members


def build_key_region_2grade2(
    formula: CubicMonotoneFormula,
    model: Iterable[int],
    union: TsUnion | None = None,
) -> Region:
    """Witness region inhibiting k at h_0_8 assembled from a model."""
    return _key_region(formula, model, union, build_2grade2_essp, _grade2_key_members)


# -- linear 3-fold SSP to 2-grade 2-fold SSP --------------------------------


def build_2grade2_ssp(ts: TransitionSystem) -> GadgetInstance:
    """2-fold modification plus one accordance duplicator per 3-fold event.

    Each event occurring three times is replaced by three copies whose
    signatures every region must equate (via the accordance events), so the
    union has the SSP iff the input does.
    """
    _check_linear3(ts)
    counts = Counter(ev for _, ev, _ in ts.edges)
    name = _namer(ts)
    # per 3-fold event: its copies, its accordance events, its duplicator's states
    gadgets = {
        e: ([name(f"{e}.{n}") for n in range(3)],
            [name(f"a.{e}.{n}") for n in range(2)],
            [name(f"d_{e}_{n}") for n in range(6)])
        for e in ts.events if counts[e] == 3
    }
    copies = {e: iter(gadget[0]) for e, gadget in gadgets.items()}
    components = [TransitionSystem.from_edges(ts.initial, [
        (src, next(copies[ev]) if ev in copies else ev, dst) for src, ev, dst in ts.edges
    ])]
    # the join runs from the chain's last state, then from each duplicator's sink
    terminals = [_linear_chain(ts)[0][-1]]
    for (e0, e1, e2), (a0, a1), d in gadgets.values():
        components.append(
            TransitionSystem.from_edges(
                d[0],
                [
                    (d[0], e0, d[1]),
                    (d[0], a0, d[2]),
                    (d[2], e1, d[3]),
                    (d[2], a1, d[4]),
                    (d[1], a0, d[3]),
                    (d[3], a1, d[5]),
                    (d[4], e2, d[5]),
                ],
            )
        )
        terminals.append(d[5])
    key_pairs = tuple((d[n], d[n + 1]) for *_, d in gadgets.values() for n in (0, 2, 4))
    return _instance(components, JoinPlan(tuple(terminals)), key_pairs=key_pairs)
