"""The benchmark's workloads: set-up, timed operations, correctness gate.

A workload's ``setup`` builds its inputs from the seed alone; the library
only ever sees the generated inputs.  ``ops`` returns the operations of one
pass, run back to back by a single caller.  Each operation has a check that
runs after the pass, outside the timed section, and that does not call the
code under test: decider verdicts are compared with the model oracle or the
prefix-parity oracle, and every witness is re-checked from first
principles (see ``oracles``).  An output identical to one already verified
is accepted without re-checking it.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ensynth import (
    CubicMonotoneFormula, TransitionSystem, is_feasible, parse_ts, serialize_ts,
)
from ensynth.linear2 import second_occurrence_index

from generators import exact_2fold_segment, first_formulas, two_fold_word
from oracles import (
    chain_region_problem,
    mask_members,
    reachability_problem,
    witness_set_problem,
)


@dataclass
class Op:
    """One timed operation: ``run(results)`` sees the earlier results of the
    same pass; ``check(value, results)`` returns None or a reason."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], Optional[str]]


def run_cli(run, argv: list[str]) -> tuple[int, str]:
    """``ensynth.cli.run`` in-process with stdout captured in memory."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def chain_bits(mask: int, length: int) -> str:
    """Membership along a chain built by ``TransitionSystem.chain``, whose
    states are declared in chain order: character p is state s<p>."""
    return bin(mask)[:1:-1].ljust(length, "0")


# -- decide workloads: the CLI user's path from file to verdict -----------

@dataclass(frozen=True)
class Case:
    label: str
    command: str
    model: bool  # the formula has a one-in-three model
    exit_code: int
    essp: bool = False  # the witnesses must also inhibit every event
    counterexample: Optional[tuple[str, str, str]] = None


class Decide:
    def __init__(self, name: str, builder: str, m: int, cases: tuple[Case, ...]):
        self.name = name
        self.builder = builder
        self.m = m
        self.cases = cases
        self.witness_regions = 0
        self._verified: dict[str, tuple[int, str]] = {}

    def setup(self, seed: int, api, workdir: Path) -> None:
        positive, negative = first_formulas(
            seed, self.m,
            any(c.model for c in self.cases), any(not c.model for c in self.cases),
        )
        self.inputs = []
        for case in self.cases:
            instance = getattr(api, self.builder)(positive if case.model else negative)
            ts = api.join(instance.union, instance.join_plan)
            path = workdir / f"{self.name}-{case.label}.ts"
            path.write_text(serialize_ts(ts), encoding="utf-8")
            if parse_ts(path.read_text(encoding="utf-8")) != ts:
                raise RuntimeError(f"{path.name} does not read back as the built system")
            self.inputs.append((case, ts, str(path)))

    def ops(self, api) -> list[Op]:
        return [
            Op(case.label,
               lambda _, case=case, path=path: run_cli(
                   api.run, ["--format", "json", case.command, path]),
               lambda value, _, case=case, ts=ts: self._check(case, ts, value))
            for case, ts, path in self.inputs
        ]

    def _check(self, case: Case, ts, value) -> Optional[str]:
        if self._verified.get(case.label) == value:
            return None
        code, out = value
        if code != case.exit_code:
            return f"{case.label}: exit code {code}, expected {case.exit_code}"
        payload = json.loads(out)
        if payload["holds"] != (case.exit_code == 0):
            return f"{case.label}: verdict holds={payload['holds']}"
        if case.exit_code == 0:
            witnesses = [(w["members"], w["signature"]) for w in payload["witnesses"]]
            problem = witness_set_problem(ts, witnesses, case.essp)
            if problem:
                return f"{case.label}: {problem}"
            self.witness_regions = len(witnesses)
        else:
            found = [(c["kind"], c["a"], c["b"]) for c in payload["counterexamples"]]
            if found != [case.counterexample]:
                return f"{case.label}: counterexample {found}, expected {case.counterexample}"
        self._verified[case.label] = value
        return None


def lin3_decide(smoke: bool) -> Decide:
    # The negative instance passes the SSP sweep and fails at the key
    # inhibition query of the master gadget.
    return Decide("lin3-decide", "build_linear3_essp", 6, (
        Case("positive", "check-feasible", True, 0, essp=True),
        Case("negative", "check-feasible", False, 1,
             counterexample=("essp", "k", "m6")),
    ))


def g2_decide(smoke: bool) -> Decide:
    # A model makes the joined instance feasible, so it has the SSP.
    return Decide("g2-decide", "build_2grade2_essp", 6, (
        Case("positive", "check-ssp", True, 0),
    ))


# -- synth-verify: synthesis and the region-membership path ---------------

SCAFFOLD = ((0, 1, 2),)


class SynthVerify:
    name = "synth-verify"

    def __init__(self, smoke: bool):
        self.m = 1 if smoke else 6
        self.witness_regions = 0
        self._verified_graph = None

    def _instance(self, api, formula):
        instance = api.build_linear3_essp(formula)
        ts = api.join(instance.union, instance.join_plan)
        verdict = is_feasible(ts)
        if not verdict.holds:
            raise RuntimeError(f"{self.name}: set-up instance is not feasible")
        return ts, verdict.witnesses.regions

    def setup(self, seed: int, api, workdir: Path) -> None:
        self.small, self.small_regions = self._instance(
            api, CubicMonotoneFormula(SCAFFOLD, check=False))
        if self.m == 1:
            self.big, self.regions = self.small, self.small_regions
        else:
            positive, _ = first_formulas(seed, self.m, True, False)
            self.big, self.regions = self._instance(api, positive)

    def ops(self, api) -> list[Op]:
        big, regions = self.big, self.regions

        def ens_io(results):
            text = api.serialize_ens(results["synthesize"])
            return text, api.parse_ens(text)

        return [
            Op("synthesize", lambda r: api.synthesize(big, regions), self._check_net),
            Op("reachability_graph", lambda r: api.reachability_graph(r["synthesize"]),
               self._check_graph),
            Op("ts_isomorphic", lambda r: api.ts_isomorphic(big, r["reachability_graph"].ts),
               _expect_true),
            Op("language_equal", lambda r: api.language_equal(big, r["reachability_graph"].ts),
               _expect_true),
            Op("ens_round_trip", ens_io,
               lambda value, r: None if value[1] == r["synthesize"]
               else ".ens text does not parse back to the net"),
            Op("check_morphism",
               lambda r: api.check_morphism(self.small, self.small_regions), _expect_true),
        ]

    def _check_net(self, net, _) -> Optional[str]:
        if len(net.places) != len(self.regions) or tuple(net.transitions) != self.big.events:
            return "net has the wrong places or transitions"
        self.witness_regions = len(net.places)
        return None

    def _check_graph(self, rg, _) -> Optional[str]:
        key = (rg.markings, rg.ts.edges, rg.ts.initial)
        if key == self._verified_graph:
            return None
        if len(rg.markings) != len(self.big.states):
            return f"{len(rg.markings)} markings for {len(self.big.states)} states"
        members = [mask_members(self.big.states, r.mask) for r in self.regions]
        problem = reachability_problem(self.big, members, rg.markings, rg.ts)
        if problem:
            return problem
        self._verified_graph = key
        return None


def _expect_true(value, _) -> Optional[str]:
    return None if value is True else f"returned {value!r}"


# -- lin2-route: the polynomial linear 2-fold route ------------------------

UNIQUE_SHARE = 0.25


class Lin2Route:
    name = "lin2-route"

    def __init__(self, smoke: bool):
        # (SSP chain, failing chain, exact-segment scan chain, separator
        # chain) lengths, separator pairs per pass, sampled pairs checked.
        if smoke:
            self.sizes, self.batch, self.sample = (40, 40, 200, 2000), 2, 50
        else:
            self.sizes, self.batch, self.sample = (500, 400, 3000, 100_000), 2, 200
        self.witness_regions = 0

    def setup(self, seed: int, api, workdir: Path) -> None:
        rng = random.Random(seed)

        def first_chain(n: int, holds: bool):
            while True:
                word = two_fold_word(rng, n, UNIQUE_SHARE)
                segment = exact_2fold_segment(word)
                if (segment is None) == holds:
                    return word, segment

        ssp_n, fail_n, scan_n, big_n = self.sizes
        self.ssp_word, _ = first_chain(ssp_n, True)
        self.fail_word, self.fail_segment = first_chain(fail_n, False)
        self.scan_word, _ = first_chain(scan_n, True)
        self.big_word, _ = first_chain(big_n, True)
        self.ssp_ts = TransitionSystem.chain(self.ssp_word)
        self.fail_ts = TransitionSystem.chain(self.fail_word)
        self.scan_ts = TransitionSystem.chain(self.scan_word)
        self.big_ts = TransitionSystem.chain(self.big_word)
        self.big_index = second_occurrence_index(self.big_ts)
        self.pairs = [tuple(sorted(rng.sample(range(big_n + 1), 2)))
                      for _ in range(self.batch)]
        self.sampled = [tuple(sorted(rng.sample(range(ssp_n + 1), 2)))
                        for _ in range(self.sample)]

    def ops(self, api) -> list[Op]:
        ops = [
            Op("linear2_ssp", lambda r: api.linear2_ssp(self.ssp_ts), self._check_ssp),
            Op("find_exact", lambda r: api.find_exact_2fold_subsequence(self.scan_ts),
               lambda value, _: None if value is None else f"found segment {value}"),
            Op("linear2_ssp_failing", lambda r: api.linear2_ssp(self.fail_ts),
               self._check_failing),
        ]
        for k, (i, j) in enumerate(self.pairs):
            ops.append(Op(
                f"separator{k}",
                lambda r, i=i, j=j: api.separator(self.big_ts, i, j, self.big_index),
                lambda value, _, i=i, j=j: self._check_separator(value, i, j)))
        return ops

    def _check_ssp(self, verdict, _) -> Optional[str]:
        n = len(self.ssp_word)
        if not verdict.holds:
            return "linear2_ssp rejects a chain with the SSP"
        if len(verdict.separators) != n * (n + 1) // 2:
            return f"{len(verdict.separators)} pairs witnessed, expected {n * (n + 1) // 2}"
        for i, j in self.sampled:
            region = verdict.separators[(f"s{i}", f"s{j}")].region
            if region is None:
                return f"no region for pair ({i}, {j})"
            problem = chain_region_problem(
                self.ssp_word, chain_bits(region.mask, n + 1), i, j, 2)
            if problem:
                return f"pair ({i}, {j}): {problem}"
        self.witness_regions = len(verdict.witnesses.regions)
        return None

    def _check_failing(self, verdict, _) -> Optional[str]:
        i, j = self.fail_segment
        cx = verdict.counterexample
        if verdict.holds or cx is None:
            return "linear2_ssp accepts a chain with an exact 2-fold segment"
        if (cx.kind, cx.a, cx.b) != ("ssp", f"s{i}", f"s{j}"):
            return f"counterexample {cx}, expected states (s{i}, s{j})"
        return None

    def _check_separator(self, result, i: int, j: int) -> Optional[str]:
        if result.region is None:
            return f"no separator for ({i}, {j})"
        bits = chain_bits(result.region.mask, len(self.big_word) + 1)
        return chain_region_problem(self.big_word, bits, i, j, 2)


WORKLOADS = {
    "lin3-decide": lin3_decide,
    "g2-decide": g2_decide,
    "synth-verify": SynthVerify,
    "lin2-route": Lin2Route,
}
