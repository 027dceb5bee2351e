"""Smoke test of ``tools/sieve_trace.py``, the certificate trace that two
checkouts are compared by: the corpus is fixed by its seed, and the trace of
a polynomial gives its answer, its rows, its lifts and its read-backs."""

import importlib.util
import io
from pathlib import Path

from ringkt.numfield import parse_polynomial

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sieve_trace.py"
_spec = importlib.util.spec_from_file_location("sieve_trace", TOOL)
sieve_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sieve_trace)


def test_the_corpus_is_fixed_by_its_seed():
    corpus = sieve_trace.corpus(20121)
    assert len(corpus) == len(sieve_trace.NAMED) + 1500 + 500
    assert corpus == sieve_trace.corpus(20121) != sieve_trace.corpus(1)
    assert corpus[2] == parse_polynomial("x^4 + 1")
    assert all(c[-1] == 1 and 2 <= len(c) <= 10 for c in corpus[len(sieve_trace.NAMED):])


def test_the_trace_of_a_field_and_of_a_refusal():
    accepted, lines = sieve_trace.trace(parse_polynomial("x^4 + 1"))
    assert accepted and lines[0] == "field (0, 2) 256 8"
    assert [line for line in lines if line.startswith("row ")] == [
        f"row {p}" for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)]
    assert lines[-3:] == ["lift 8 3", "setup 3",
                          "read 6561 [0, 1, 0, 0] ([0, 256, 0, 0], [0, 0, 0, -4])"]
    accepted, lines = sieve_trace.trace(parse_polynomial("x^2 - 4"))
    assert not accepted
    assert lines[0] == "refused the defining polynomial must be irreducible over Q"
    assert lines[-1] == "read 243 [122, 61] ([8, 4], [1, 2])"


def test_the_printed_trace_opens_each_polynomial_with_its_coefficients():
    out = io.StringIO()
    assert sieve_trace.main(["--limit", "2"], out=out) == 0
    text = out.getvalue().splitlines()
    assert text[:2] == ["poly [1, 0, 1]", "  field (0, 1) -4 4"]
    assert text.count("poly [1, 1, 1]") == 1
    assert all(line.startswith(("poly ", "  ")) for line in text)
