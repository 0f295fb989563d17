"""The >>> examples in the module docstrings are checks too."""

import doctest

import pytest

from roundsched import model, stepfuncs, synthesis, timing


@pytest.mark.parametrize("module", [model, stepfuncs, synthesis, timing], ids=lambda m: m.__name__)
def test_docstring_examples_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
