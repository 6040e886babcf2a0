"""The benchmark's recorded answers, answered in process.

Every kummer-alpha key recorded in bench/expected/ is answered twice with
emptied memos: fixture by fixture in ascending N, where mq_order raises the
tower of (K, p) at nearly every query and builds most levels directly, and
in descending N, where each (K, p) builds its first level directly and
reads every other one as a quotient, and construct_alpha takes the entry
logs of each fixture once and reads every later query's by truncation.  The seed-1 batches of leopoldt-scan
and big-conductor are answered once.  Each answer must equal the recorded
one in the benchmark's own canonical form.  The modules of bench/ are
loaded with no bytecode written, so bench/ is only read.
"""

import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import iwasawalab
from iwasawalab import rayclass, residues
from iwasawalab.padic import vp
from iwasawalab.quadfield import rational_ideal
from oracles import empty_memos
from test_kummer import ALPHA_GRID

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


W, S = _load("workloads"), _load("session")


def _alpha_keys():
    """The recorded kummer-alpha queries, by fixture (d, p, q1, q2)."""
    with open(BENCH / "expected" / "kummer-alpha.jsonl") as f:
        next(f)
        keys = [json.loads(line)["key"] for line in f]
    by_fixture = defaultdict(list)
    for key in keys:
        _, d, p, q1, q2, N = key.split()
        by_fixture[(int(d), int(p), q1, q2)].append(int(N))
    return keys, by_fixture


def _count_builds(monkeypatch):
    """(direct, quotient, other): the (d, p, M) of the ray class groups
    built at p-power conductors (p^M), directly and as quotients, and the
    conductors of the others."""
    built = ([], [], [])
    build = rayclass.RayClassGroupData

    def record(K, modulus, p, top=None):
        M = vp(modulus.a, p)
        if modulus == rational_ideal(K, p**M):
            built[top is not None].append((K.d or 1, p, M))
        else:
            built[2].append(modulus)
        return build(K, modulus, p, top)
    monkeypatch.setattr(rayclass, "RayClassGroupData", record)
    return built


def test_the_kummer_grid_is_the_fixture_pairs():
    """test_kummer checks the truncated log reads and the answer in any
    order on ALPHA_GRID: that is every (d, p, q1, q2) of ALPHA_FIXTURES."""
    assert [f[:4] for f in W.ALPHA_FIXTURES] == ALPHA_GRID


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_every_recorded_alpha_key_in_both_orders(monkeypatch, order):
    keys, by_fixture = _alpha_keys()
    assert len(keys) == 190
    expected = S.load_expected("kummer-alpha", set(keys))
    empty_memos()
    direct, quotient, _ = _count_builds(monkeypatch)
    tops = []
    for (d, p, q1, q2), Ns in by_fixture.items():
        for N in sorted(Ns, reverse=order == "descending"):
            q = ("alpha", d, p, q1, q2, N)
            doc = W.answer(iwasawalab, q)
            assert S.canonical(doc) == expected[W.query_key(q)], q
            # mq_order reads level N + 2, conductor p^(N+3), first
            if not tops or tops[-1][:2] != (d, p) or tops[-1][2] < N + 3:
                tops.append((d, p, N + 3))
    empty_memos()
    assert direct == tops
    assert len(tops) == (190 if order == "ascending" else 12)
    # level N, conductor p^(N+1), is read as a quotient whenever it is not
    # the top: p^3 and p^4 always, and in descending order every conductor
    assert {(d, p, M) for d, p, M in quotient if M <= 4} == \
        {(d, p, M) for d, p, _, _ in by_fixture for M in (3, 4)}
    if order == "descending":
        assert len(quotient) == len(set(quotient)) == \
            sum(len(set(Ns) | {N + 2 for N in Ns}) for Ns in
                by_fixture.values()) - 12


@pytest.mark.parametrize("workload", ["leopoldt-scan", "big-conductor"])
def test_seed_one_batch(monkeypatch, workload):
    """Neither workload reads a p-power tower: big-conductor's conductors
    are single primes ell, built directly."""
    batch = W.batch(workload, 1)
    expected = S.load_expected(workload, {W.query_key(q) for q in batch})
    empty_memos()
    direct, quotient, other = _count_builds(monkeypatch)
    for q in batch:
        doc = W.answer(iwasawalab, q)
        assert S.canonical(doc) == expected[W.query_key(q)], q
    # the smoke query alone, construct_alpha(Q, 3, (2, 5), 3), reads a tower
    assert direct == [(1, 3, 6)] and quotient == [(1, 3, 4)]
    assert len(other) == (150 if workload == "big-conductor" else 0)


def test_seed_one_alpha_batch_builds_few_levels_directly(monkeypatch):
    """The seed-1 kummer-alpha batch reads 166 levels and builds at most 60
    of them directly; building a level as a quotient takes no unit group,
    class representative search, dlog or principal generator."""
    batch = W.batch("kummer-alpha", 1)
    expected = S.load_expected("kummer-alpha",
                               {W.query_key(q) for q in batch})
    empty_memos()
    cls = rayclass.RayClassGroupData
    direct, quotient, _ = _count_builds(monkeypatch)
    build = rayclass.RayClassGroupData
    in_quotient = []

    def quotient_build(K, modulus, p, top=None):
        in_quotient.append(top is not None)
        try:
            return build(K, modulus, p, top)
        finally:
            in_quotient.pop()
    monkeypatch.setattr(rayclass, "RayClassGroupData", quotient_build)

    def refused(name, fn):
        def call(*args, **kwargs):
            if in_quotient and in_quotient[-1]:
                raise RuntimeError(name + " inside a quotient build")
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(rayclass, "UnitGroupModM",
                        refused("UnitGroupModM", rayclass.UnitGroupModM))
    monkeypatch.setattr(rayclass, "_factor_ideal",
                        refused("_factor_ideal", rayclass._factor_ideal))
    monkeypatch.setattr(rayclass, "principal_generator",
                        refused("principal_generator",
                                rayclass.principal_generator))
    monkeypatch.setattr(cls, "_class_gen_reps",
                        refused("_class_gen_reps", cls._class_gen_reps))
    monkeypatch.setattr(residues.UnitGroupModM, "dlog",
                        refused("dlog", residues.UnitGroupModM.dlog))
    for q in batch:
        doc = W.answer(iwasawalab, q)
        assert S.canonical(doc) == expected[W.query_key(q)], q
    empty_memos()
    assert len(set(direct) | set(quotient)) == 166
    assert len(direct) <= 60 and len(set(direct)) == len(direct)
    assert not set(direct) & set(quotient)
