"""Census of the colimit engine's certified class: classify seeded random
symbolic systems and print what each one gets, so that two checkouts can be
compared line by line with ``diff``.

Each system has dimension 1..4 on the canonical chain d = 2, 3, 4, ....  Its
diagonal laws, and the laws of up to 3 distinct offdiag cells, are drawn
from ``mult_d``, ``identity``, ``zero``, ``poly`` (degree <= 2, coefficients
in +-4) and ``diag_power`` (exponent <= 3).  One line per system gives a
short sha256 of its canonical JSON (``to_json``, sorted keys), then the
colimit's invariants or ``refused:`` and the refusal text.  A summary ends
the output: the number answered, then the refusals by reason, most first.
Run from the repository root::

    python tools/colim_census.py [--seed N] [--count K] > census.txt
"""

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ringkt.abgrp import DirectedSystem, colimit  # noqa: E402
from ringkt.errors import UnsupportedSystemError  # noqa: E402

# A refusal's reason is the first of these phrases its text holds (the
# texts name coordinates and ranks), or else the whole text.
REASONS = (
    "fits no monomial",
    "cannot certify a split filtration",
    "structure maps do not commute",
    "window rank depends on the starting level",
    "irrational eigenvalue",
    "odd-step scaling",
    "the flag keeps",
)


def _law(rng):
    kind = rng.choice(("mult_d", "identity", "zero", "poly", "diag_power"))
    if kind == "poly":
        return {"kind": kind, "coeffs": [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]}
    if kind == "diag_power":
        return {"kind": kind, "exp": rng.randint(0, 3)}
    return {"kind": kind}


def systems(seed, count):
    """``count`` symbolic system JSON objects, fixed by ``seed``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        cells = [(r, c) for r in range(dim) for c in range(dim) if r != c]
        offdiag = [{"row": r, "col": c, **_law(rng)}
                   for r, c in rng.sample(cells, rng.randint(0, min(3, len(cells))))]
        out.append({"mode": "symbolic", "dim": dim,
                    "law": [_law(rng) for _ in range(dim)], "offdiag": offdiag})
    return out


def classify(obj):
    """``(line, reason)``: the census line of the system ``obj``, and the
    refusal's reason, or None for an answer."""
    system = DirectedSystem.from_json(obj)
    canonical = json.dumps(system.to_json(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    try:
        return f"{digest} {colimit(system).invariants}", None
    except UnsupportedSystemError as exc:
        text = str(exc)
        reason = next((phrase for phrase in REASONS if phrase in text), text)
        return f"{digest} refused: {text}", reason


def main(argv=None, out=sys.stdout):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="the census seed (default 1)")
    parser.add_argument("--count", type=int, default=2000,
                        help="the number of systems (default 2000)")
    args = parser.parse_args(argv)
    refused = Counter()
    for obj in systems(args.seed, args.count):
        line, reason = classify(obj)
        print(line, file=out)
        if reason is not None:
            refused[reason] += 1
    print(f"answered {args.count - sum(refused.values())}", file=out)
    for reason, n in sorted(refused.items(), key=lambda item: (-item[1], item[0])):
        print(f"refused {n} {reason}", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
