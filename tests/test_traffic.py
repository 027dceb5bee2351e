"""Smoke test of ``tools/traffic.py``, the call counter behind the traffic
tables in ``CHANGES.md``: it names every function of the package, the
methods ``dataclass`` generates included, tells those apart, and counts
each call once."""

import importlib.util
from pathlib import Path

import ringkt
from ringkt.abgrp import DirectedSystem, GroupDescriptor

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
_spec = importlib.util.spec_from_file_location("traffic", TOOL)
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)


def test_the_counter_on_a_small_callable():
    names = traffic.inventory(ringkt)
    listed = set(names.values())
    assert {"abgrp.GroupDescriptor.__eq__", "abgrp.GroupDescriptor.__init__",
            "numfield.NumberField.roots_of_unity_order", "abgrp.DirectedSystem.symbolic",
            "abgrp.DirectedSystem._from_checked_laws.<locals>.family", "cli.colim"} <= listed
    same, calls = traffic.count_calls(
        lambda: GroupDescriptor.free(2) == GroupDescriptor(free_rank=2), names)
    assert same is True
    assert calls["abgrp.GroupDescriptor.free"] == 1
    assert calls["abgrp.GroupDescriptor.__init__"] == 2
    assert calls["abgrp.GroupDescriptor.__eq__"] == 1
    assert set(calls) <= listed
    # the generated repr is wrapped, and counted under the wrapper's name
    text, calls = traffic.count_calls(lambda: repr(GroupDescriptor.zero()), names)
    assert text.startswith("GroupDescriptor(") and calls["abgrp.GroupDescriptor.__repr__"] == 1
    system = DirectedSystem.symbolic(1, [{"kind": "mult_d"}])
    matrix, calls = traffic.count_calls(lambda: system.matrix(3), names)
    assert matrix == [[4]]
    assert calls["abgrp.DirectedSystem._from_checked_laws.<locals>.family"] == 1


def test_generated_methods_are_told_apart():
    names = traffic.inventory(ringkt)
    made = traffic.generated(names, ringkt)
    assert "abgrp.GroupDescriptor.__eq__" in made
    assert "abgrp.GroupDescriptor.__init__" not in made  # written in abgrp
    assert "abgrp.DirectedSystem.symbolic" not in made
