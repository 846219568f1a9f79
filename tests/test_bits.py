"""The bit contract: every evaluator cell and CLI output of ``data/bits.json``, and its report.

``make_bits.py`` regenerates the file and says what it holds.  A cell whose
bits change fails here until the rewrite is committed.
"""

import json

from make_bits import BITS, build, dump, report


def test_bits_file_matches():
    text = BITS.read_text(encoding="utf-8")
    recorded = json.loads(text)
    fresh = build()
    for section in ("values", "cli"):
        changed = [k for k, v in recorded[section].items() if fresh[section].get(k) != v]
        assert not changed, changed[:20]
        assert list(fresh[section]) == list(recorded[section])
    assert dump(fresh) == text


def test_report_tells_value_changes_from_bound_changes(capsys):
    old = {"values": {"zeta(3) @1": [[0, 3, 0, 2], [0, 1, -40, 1]], "zeta(3) @2": [[0, 3, 0, 2], [0, 1, -40, 1]],
                      "phi(1) @1": [[0, 1, 0, 1], [0, 3, -41, 2]]},
           "cli": {"zeta --prec 1 3": {"code": 0, "stdout": "1.2 ± 0.1\n"}}}
    new = {"values": {"zeta(3) @1": [[0, 3, 0, 2], [0, 3, -41, 2]], "zeta(3) @2": [[0, 5, 0, 3], [0, 1, -40, 1]],
                      "phi(1) @1": [[0, 1, 0, 1], [0, 1, -41, 1]]},
           "cli": {"zeta --prec 1 3": {"code": 0, "stdout": "1.2 ± 0.2\n"}}}
    report(old, new)
    assert capsys.readouterr().out.splitlines() == [
        "values: zeta(3) @1: bound: err 9.09e-13 -> 1.36e-12  GREW",
        "values: zeta(3) @2: VALUE: err 9.09e-13 -> 9.09e-13",
        "values: phi(1) @1: bound: err 1.36e-12 -> 4.55e-13",
        "summary values: zeta: 2 changed, 1 values, 1 bounds grew, largest growth 1 + 0.5",
        "summary values: phi: 1 changed, 0 values, 0 bounds grew, largest growth -",
        "cli: zeta --prec 1 3: bound: err 0.1 -> 0.2  GREW",
        "summary cli: zeta: 1 changed, 0 values, 1 bounds grew, largest growth 1 + 1",
    ]
