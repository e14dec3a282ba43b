"""The exception hierarchy: every error carries the CLI exit code of its kind."""

import pytest

from subord import errors

#: the errors that report a structurally impossible comparison (exit code 1)
HYPOTHESIS_ERRORS = {"InvalidParameterError", "NestedZerosViolatedError",
                     "HypothesesViolatedError", "InadmissibleExponentsError"}
BASES = ("SubordinationError", "HypothesisError", "NumericalError")


@pytest.mark.parametrize("name", [n for n in errors.__all__ if n not in BASES])
def test_each_error_has_exactly_one_exit_code_base(name):
    cls = getattr(errors, name)
    kinds = [base for base in (errors.HypothesisError, errors.NumericalError)
             if issubclass(cls, base)]
    assert len(kinds) == 1
    assert cls.exit_code == (1 if name in HYPOTHESIS_ERRORS else 2)
