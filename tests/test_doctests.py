"""Run the docstring examples of the library modules."""

import doctest

import pytest

from ringkt import abgrp, ktheory, numfield


@pytest.mark.parametrize("module", [abgrp, ktheory, numfield], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
