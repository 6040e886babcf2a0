"""The benchmark's recorded answers, answered in process.

Every kummer-alpha key recorded in bench/expected/ is answered twice with
emptied memos: fixture by fixture in ascending N, where mq_order regrows
the tower of (K, p) two levels above what it reads, about every other
query, and in descending N, where each (K, p) builds its first level
directly and reads every other one as a quotient, and construct_alpha
takes the entry logs of each fixture once and reads every later query's
by truncation.  The seed-1 batches of leopoldt-scan and big-conductor are
answered once.  Each answer must equal the recorded one in the
benchmark's own canonical form.  The modules of bench/ are loaded with no
bytecode written, so bench/ is only read.
"""

import hashlib
import json
import sys
from collections import defaultdict

import pytest

import iwasawalab
from iwasawalab import padic, quadfield, rayclass, residues
from iwasawalab.padic import PAdicNumber
from oracles import BENCH, answers_digest, count_builds, count_field_work, \
    empty_memos, load_bench
from test_kummer import ALPHA_GRID

W, S = load_bench("workloads"), load_bench("session")


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
    direct, levels = count_builds(monkeypatch)
    tops = []
    for (d, p, q1, q2), Ns in by_fixture.items():
        for N in sorted(Ns, reverse=order == "descending"):
            q = ("alpha", d, p, q1, q2, N)
            doc = W.answer(iwasawalab, q)
            assert S.canonical(doc) == expected[W.query_key(q)], q
            # mq_order reads level N + 2, conductor p^(N+3), first: a fresh
            # tower builds it, and a lower top regrows to p^(N+5)
            if not tops or tops[-1][:2] != (d, p):
                tops.append((d, p, N + 3))
            elif tops[-1][2] < N + 3:
                tops.append((d, p, N + 5))
    empty_memos()
    assert direct == tops
    assert len(tops) == (76 if order == "ascending" else 12)
    # level N, conductor p^(N+1), is read below the top already built: p^3
    # and p^4 always, and in descending order every conductor but the top
    assert {(d, p, M) for d, p, M, T in levels if M <= 4 and M < T} == \
        {(d, p, M) for d, p, _, _ in by_fixture for M in (3, 4)}
    if order == "descending":
        assert len(levels) == len(set(levels)) == \
            sum(len(set(Ns) | {N + 2 for N in Ns}) for Ns in
                by_fixture.values())
        assert sum(M < T for *_, M, T in levels) == len(levels) - 12


@pytest.mark.parametrize("workload", ["leopoldt-scan", "big-conductor"])
def test_seed_one_batch(monkeypatch, workload):
    """Neither workload reads a p-power tower: big-conductor's conductors
    are single primes ell, built directly.  A direct build reads its -1
    row from the unit group's components, so each batch answers while
    UnitGroupModM.dlog refuses -1: big-conductor takes 176 unit-group
    dlogs (327, 151 of them of -1, when the row was a dlog), leopoldt-scan
    the 2 of the smoke query's Frobenius classes."""
    batch = W.batch(workload, 1)
    expected = S.load_expected(workload, {W.query_key(q) for q in batch})
    empty_memos()
    direct, levels = count_builds(monkeypatch)
    dlog, taken = residues.UnitGroupModM.dlog, []

    def refuse_minus_one(units, x):
        if x.b == 0 and x.a == -x.den:
            raise RuntimeError("dlog of -1")
        taken.append(x)
        return dlog(units, x)
    monkeypatch.setattr(residues.UnitGroupModM, "dlog", refuse_minus_one)
    for q in batch:
        doc = W.answer(iwasawalab, q)
        assert S.canonical(doc) == expected[W.query_key(q)], q
    # the smoke query alone, construct_alpha(Q, 3, (2, 5), 3), reads a tower:
    # its top p^6, and p^4 below it with no ray class record
    other = [b for b in direct if isinstance(b[2], str)]
    assert [b for b in direct if b not in other] == [(1, 3, 6)]
    assert levels == [(1, 3, 6, 6), (1, 3, 4, 6)]
    assert len(other) == (150 if workload == "big-conductor" else 0)
    assert len(taken) == (176 if workload == "big-conductor" else 2)


def test_seed_one_big_batch_does_each_fields_work_once(monkeypatch):
    """The 150 ray class groups of the seed-1 big-conductor batch lie over
    14 fields, and each field's class group record keeps eps and the
    generators of its class representatives: the batch walks 14 units
    (150, one a build, when each build walked its own) and principalizes
    one representative of Q(sqrt 10) and one of Q(sqrt 26), h = 2 (24,
    one a build); the smoke query's generators over Q are the rest."""
    batch = W.batch("big-conductor", 1)
    expected = S.load_expected("big-conductor",
                               {W.query_key(q) for q in batch})
    empty_memos()
    direct, _ = count_builds(monkeypatch)
    walks, generators = count_field_work(monkeypatch)
    for q in batch:
        doc = W.answer(iwasawalab, q)
        assert S.canonical(doc) == expected[W.query_key(q)], q
    empty_memos()
    assert len(direct) == 151
    assert len(walks) == len(set(walks)) == 14
    assert sorted(g for g in generators if g[0] > 1) == [(10, 9), (26, 25)]


def test_seed_one_alpha_batch_builds_few_levels_directly(monkeypatch):
    """The seed-1 kummer-alpha batch reads 166 levels, each once, 145 of
    them below the top they are read off and 21 at it, through the one
    level reader.  It builds 31 tops directly and no other ray class
    record: 145 levels were records of their own, each with a Smith form
    of the whole ray class presentation.  Reading a level that does not
    grow the top takes no unit group, class representative search, dlog,
    principal generator or unit walk, from rayclass or from the class
    group record of quadfield: none of them is called inside
    RayClassTower.p_level but inside RayClassTower.grow."""
    batch = W.batch("kummer-alpha", 1)
    expected = S.load_expected("kummer-alpha",
                               {W.query_key(q) for q in batch})
    reader = rayclass.RayClassTower.p_level.__code__
    grower = rayclass.RayClassTower.grow.__code__
    empty_memos()
    direct, levels = count_builds(monkeypatch)

    def refused(name, fn):
        def call(*args, **kwargs):
            codes, frame = set(), sys._getframe(1)
            while frame is not None:
                codes.add(frame.f_code)
                frame = frame.f_back
            if reader in codes and grower not in codes:
                raise RuntimeError(name + " inside a level below the top")
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(rayclass, "UnitGroupModM",
                        refused("UnitGroupModM", rayclass.UnitGroupModM))
    monkeypatch.setattr(rayclass, "_factor_ideal",
                        refused("_factor_ideal", rayclass._factor_ideal))
    for module, name in ((rayclass, "principal_generator"),
                         (quadfield, "principal_generator"),
                         (quadfield, "fundamental_unit")):
        monkeypatch.setattr(module, name,
                            refused(name, getattr(module, name)))
    record = quadfield.ClassGroupData
    monkeypatch.setattr(record, "class_reps",
                        refused("class_reps", record.class_reps))
    monkeypatch.setattr(residues.UnitGroupModM, "dlog",
                        refused("dlog", residues.UnitGroupModM.dlog))
    for q in batch:
        doc = W.answer(iwasawalab, q)
        assert S.canonical(doc) == expected[W.query_key(q)], q
    empty_memos()
    assert len(levels) == len(set(levels)) == 166
    assert sum(M < T for *_, M, T in levels) == 145
    assert len(direct) == len(set(direct)) == 31
    # a regrowth builds p^(M+2) for a level M: 6 of the tops are replaced
    # before a query reads them
    assert len(set(direct) - {(d, p, M) for d, p, M, _ in levels}) == 6


# the log series and PAdicNumber objects of the seed-1 kummer-alpha batch
# from emptied memos, at most: 746 and 7,467 when each precision of the
# ladder took its own logs, and the entry-log table, the degrees of mq and
# the unit correction were PAdicNumber objects; 422 and 2,723 while the
# rounded degree-0 element divided two degree objects and the unit logs of
# the entries were objects turned back into rows; 1,697 objects while each
# valuation of alpha was one and the unit correction was negated
SEED_ONE_ALPHA_WORK = {"log_series": 413, "PAdicNumber": 1325}


def test_seed_one_alpha_batch_takes_few_logs_and_objects(monkeypatch):
    """Counting wrappers around padic.log_series, wherever an engine module
    binds it, and PAdicNumber.__init__ see the seed-1 kummer-alpha batch,
    answered as recorded, take no more than SEED_ONE_ALPHA_WORK: a return
    to logs taken per precision, or to objects read per coordinate, fails
    here."""
    batch = W.batch("kummer-alpha", 1)
    expected = S.load_expected("kummer-alpha",
                               {W.query_key(q) for q in batch})
    counts = dict.fromkeys(SEED_ONE_ALPHA_WORK, 0)
    series, init = padic.log_series, PAdicNumber.__init__

    def counted_series(*args):
        counts["log_series"] += 1
        return series(*args)

    def counted_init(x, *args):
        counts["PAdicNumber"] += 1
        init(x, *args)
    for name, module in list(sys.modules.items()):
        if name.startswith("iwasawalab") and \
                getattr(module, "log_series", None) is series:
            monkeypatch.setattr(module, "log_series", counted_series)
    monkeypatch.setattr(PAdicNumber, "__init__", counted_init)
    empty_memos()
    for q in batch:
        doc = W.answer(iwasawalab, q)
        assert S.canonical(doc) == expected[W.query_key(q)], q
    empty_memos()
    assert all(0 < counts[k] <= SEED_ONE_ALPHA_WORK[k] for k in counts), \
        counts


def test_answers_digest_hashes_the_recorded_answers():
    """oracles.answers_digest of the seed-1 big-conductor batch is the
    sha256 of its lines key, tab, canonical answer, as recorded."""
    batch = W.batch("big-conductor", 1)
    keys = [W.query_key(q) for q in batch]
    expected = S.load_expected("big-conductor", set(keys))
    lines = "".join(key + "\t" + expected[key] + "\n" for key in keys)
    assert answers_digest("big-conductor", [1]) == \
        hashlib.sha256(lines.encode()).hexdigest()


# oracles.answers_digest of seeds 1-5, as recorded since the digests were
# first given with the command that makes them: no change to the engine
# has moved an answer of any workload
RECORDED_DIGESTS = {
    "leopoldt-scan":
        "323facd3c1935b061d2a1c9cab16a643d6bd55e8d4b4305227b524676c9dce14",
    "kummer-alpha":
        "7a6c18766515c66f58486e48c9a7757fb729b85dddf1fe109c9117ed3c4caf71",
    "big-conductor":
        "f2bc4feeaa0fc7f2ab3bddb026a2be8f3413692cdb03cba44f7a428001feba01",
}


@pytest.mark.parametrize("workload", sorted(RECORDED_DIGESTS))
def test_answers_of_seeds_one_to_five_are_the_recorded_ones(workload):
    assert answers_digest(workload, range(1, 6)) == RECORDED_DIGESTS[workload]
