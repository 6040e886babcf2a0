"""Unit logs at places above p, against calls recorded from the benchmark
batches.

`data/unit_logs.jsonl` holds every distinct call of
`localize._element_unit_log` that the seed-1 `leopoldt-scan` and
`kummer-alpha` batches make, with the answer of the object path it had
when the file was recorded: x = (a + b*w)/den at a place of Q(sqrt d)
(d = 1 for Q) above p, to N digits, maps to its valuation and to
(v, m, digits) of each log coordinate.  A place is recorded as
(ell, kind, index): the prime ideal `completions_above_p(K, ell)[index]`,
of kind `prime_kind`.  Every recorded x is integral,
with v = 0; valuations and denominators divisible by p are the seeded
cases of `test_valuation.py`.

Do not re-record the file.  `leopoldt-scan` took its unit logs through
`_element_unit_log` when the file was recorded; `iwasawa.leopoldt_defect`
now reads one valuation of eps^k - 1 and makes none of those calls, so a
new recording would lose the Leopoldt calls the file holds.  The recorder
`_record` is kept to show how the file was made:

    PYTHONPATH=src python tests/test_unit_logs.py
"""

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from iwasawalab.localize import _element_unit_log, completions_above_p
from iwasawalab.quadfield import RealQuadraticField, prime_kind

RECORDED = Path(__file__).parent / "data" / "unit_logs.jsonl"
RECORDED_BATCHES = (("leopoldt-scan", 1), ("kummer-alpha", 1))


def _coords(lg):
    return [list(c) for c in lg]


def _place_key(q):
    """(ell, kind, index) of the prime ideal q above ell."""
    ell, kind = prime_kind(q)
    return ell, kind, completions_above_p(q.field, ell).index(q)


@functools.lru_cache(maxsize=None)
def _place(d, key):
    K = RealQuadraticField.rationals() if d == 1 else RealQuadraticField(d)
    ell, kind, index = key
    q = completions_above_p(K, ell)[index]
    assert prime_kind(q) == (ell, kind)
    return q


def _read():
    with RECORDED.open() as f:
        header = json.loads(next(f))
        return header, [json.loads(line) for line in f]


def test_recorded_calls_cover_every_kind():
    header, recs = _read()
    assert [tuple(b) for b in header["batches"]] == list(RECORDED_BATCHES)
    assert len(recs) == header["calls"] > 2500
    kinds = {rec["place"][1] for rec in recs}
    assert kinds == {"rational", "split", "inert"}


def test_element_unit_log_reproduces_recorded_calls():
    _, recs = _read()
    for rec in recs:
        q = _place(rec["d"], tuple(rec["place"]))
        assert _place_key(q) == tuple(rec["place"])      # as _record keys it
        a, b, den = rec["x"]
        x = q.field.element(Fraction(a, den), Fraction(b, den))
        v, lg = _element_unit_log(x, q, rec["N"])
        assert (v, _coords(lg)) == (rec["v"], rec["log"]), rec


def _record():
    """Answer the recorded batches and write every distinct unit-log call
    with its answer, one call a line."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "bench"))
    import iwasawalab as lib
    import iwasawalab.localize as localize
    import workloads

    seen = {}
    real = localize._element_unit_log

    def recording(x, q, N):
        out = real(x, q, N)
        key = (q.field.d or 1, _place_key(q), N, (x.a, x.b, x.den))
        seen.setdefault(key, out)
        return out
    localize._element_unit_log = recording
    for workload, seed in RECORDED_BATCHES:
        for query in workloads.batch(workload, seed):
            workloads.answer(lib, query)
    localize._element_unit_log = real
    lines = [json.dumps({"batches": RECORDED_BATCHES, "calls": len(seen)})]
    for key in sorted(seen):
        d, place, N, x = key
        v, lg = seen[key]
        lines.append(json.dumps(
            {"d": d, "place": place, "N": N, "x": x, "v": v,
             "log": _coords(lg)}, separators=(",", ":")))
    RECORDED.write_text("\n".join(lines) + "\n")
    print("%d calls -> %s" % (len(seen), RECORDED))


if __name__ == "__main__":
    _record()
