"""Golden file for the symbol layer: every printed string and count, byte for byte.

``data/symbolic_golden.json`` holds seeded inputs and what the symbol layer
printed for them; ``make_symbolic_golden.py`` regenerates it.
"""

import json

from make_symbolic_golden import GOLDEN, build, dump, inputs_of


def test_symbolic_golden_file_matches():
    text = GOLDEN.read_text(encoding="utf-8")
    recorded = json.loads(text)
    fresh = build(inputs_of(recorded))
    for section in ("expressions", "unipotent", "families"):
        assert len(fresh[section]) == len(recorded[section])
        for got, want in zip(fresh[section], recorded[section]):
            assert got == want
    assert dump(fresh) == text
