"""The bit contract: every evaluator cell and CLI output of ``data/bits.json``.

``make_bits.py`` regenerates the file and says what it holds.  A cell whose
bits change fails here until the rewrite is committed.
"""

import json

from make_bits import BITS, build, dump


def test_bits_file_matches():
    text = BITS.read_text(encoding="utf-8")
    recorded = json.loads(text)
    fresh = build()
    for section in ("values", "cli"):
        changed = [k for k, v in recorded[section].items() if fresh[section].get(k) != v]
        assert not changed, changed[:20]
        assert list(fresh[section]) == list(recorded[section])
    assert dump(fresh) == text
