"""Regenerate ``tests/data/symbolic_golden.json``, the symbol layer's golden file.

Run from the repository root::

    PYTHONPATH=src python3 tests/make_symbolic_golden.py

The file records a fixed, seeded set of inputs and what the symbol layer
prints for them: the parsed form, the coaction and its term count,
coassociativity, the conjugates and their span dimension, Hopf coproducts of
unipotent products, and stability reports.  ``test_symbolic_golden.py``
recomputes every output from the recorded inputs and compares the file byte
for byte, so a change to any printed string or count shows as a diff here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from euler_periods.symbolic import (
    UnipotentExpr,
    coact,
    coassoc_residual,
    galois_conjugates,
    hopf_coproduct,
    parse_expr,
    stability_report,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "symbolic_golden.json"
SEED = 20180
POINTS = ["1/2", "-1/3", "2/3", "-1", "1/5", "3", "x", "y0", "t"]
#: The two family shapes of the benchmark's stability cells.
FAMILY_SHAPES = [
    "Li_m(3; {p})*Li_m(3; {q})",
    "Li_m(2; {p})*Li_m(3; {q})*zeta_m(3)",
]
N_RANDOM = 184
N_SHAPE_PAIRS = 8
N_UNIPOTENT = 60
N_RANDOM_FAMILIES = 40
#: Random expressions with more conjugates than this give no family; the
#: shape families have 16 and 24.
MAX_FAMILY = 30


def _coeff(rng) -> str:
    c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
    return f"({c})" if c < 0 else str(c)


def _motivic_atom(rng) -> str:
    r = rng.random()
    if r < 0.3:
        return f"zeta_m({rng.randint(2, 7)})"
    if r < 0.4:
        return "twopi_i"
    return f"Li_m({rng.randint(1, 4)}; {rng.choice(POINTS)})"


def _random_text(rng) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        atoms = [_motivic_atom(rng) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.2:
            atoms.append(f"({rng.randint(0, 3)} + {_motivic_atom(rng)})")
        terms.append("*".join([_coeff(rng)] + atoms))
    return " + ".join(terms)


def _unipotent_atom(rng) -> list:
    r = rng.random()
    if r < 0.3:
        return ["zu", rng.choice((3, 5, 7))]
    if r < 0.55:
        return ["lnu", rng.choice(POINTS)]
    return ["liu", rng.randint(1, 4), rng.choice(POINTS)]


def make_inputs(seed: int = SEED) -> dict:
    """The seeded inputs: expression texts, unipotent terms, families."""
    rng = random.Random(seed)
    texts = [_random_text(rng) for _ in range(N_RANDOM)]
    for shape in FAMILY_SHAPES:
        for _ in range(N_SHAPE_PAIRS):
            p, q = rng.sample(POINTS, 2)
            texts.append(shape.format(p=p, q=q))
    unipotent = [
        [[str(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))),
          [_unipotent_atom(rng) for _ in range(rng.randint(1, 3))]]
         for _ in range(rng.randint(1, 2))]
        for _ in range(N_UNIPOTENT)]
    families = []
    for text in texts[:N_RANDOM_FAMILIES] + texts[N_RANDOM:]:
        conj = [str(c) for c in galois_conjugates(parse_expr(text))[0]]
        if len(conj) <= MAX_FAMILY:
            families.append(conj)
            if len(conj) > 1:
                families.append(conj[:-1])
                families.append(conj[1:])
        families.append([text])
    return {"seed": seed, "expressions": texts, "unipotent": unipotent, "families": families}


def _unipotent(terms: list) -> UnipotentExpr:
    ctor = {"zu": UnipotentExpr.zu, "lnu": UnipotentExpr.lnu, "liu": UnipotentExpr.liu}
    total = UnipotentExpr.zero()
    for coeff, atoms in terms:
        term = UnipotentExpr.from_rational(Fraction(coeff))
        for kind, *args in atoms:
            term = term * ctor[kind](*args)
        total = total + term
    return total


def build(inputs: dict) -> dict:
    """Every recorded output, computed from ``inputs``."""
    expressions = []
    for text in inputs["expressions"]:
        e = parse_expr(text)
        tensor = coact(e)
        conj, dim = galois_conjugates(e)
        expressions.append({
            "text": text,
            "str": str(e),
            "coact": str(tensor),
            "coact_terms": len(tensor.terms),
            "coassoc": coassoc_residual(e),
            "conjugates": [str(c) for c in conj],
            "dimension": dim,
        })
    unipotent = []
    for terms in inputs["unipotent"]:
        u = _unipotent(terms)
        unipotent.append({"terms": terms, "str": str(u), "hopf": str(hopf_coproduct(u))})
    families = [
        {"members": members,
         "report": str(stability_report([parse_expr(m) for m in members]))}
        for members in inputs["families"]]
    return {"seed": inputs["seed"], "expressions": expressions,
            "unipotent": unipotent, "families": families}


def inputs_of(doc: dict) -> dict:
    """The inputs recorded in a golden document."""
    return {
        "seed": doc["seed"],
        "expressions": [r["text"] for r in doc["expressions"]],
        "unipotent": [r["terms"] for r in doc["unipotent"]],
        "families": [r["members"] for r in doc["families"]],
    }


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def main() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(dump(build(make_inputs())), encoding="utf-8", newline="\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
