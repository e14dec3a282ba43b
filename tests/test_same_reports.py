"""The report comparison tool names the JSON fields in which two reports differ, says
how far each number moved and which modules changed size."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_reports.py"
_SPEC = importlib.util.spec_from_file_location("same_reports", _PATH)
same_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_reports)
changed_fields = same_reports.changed_fields
moved_fields = same_reports.moved_fields
size_line = same_reports.size_line
summary = same_reports.summary


def test_equal_reports_have_no_changed_field():
    report = {"estimate": {"total": 1.5, "converged": True}, "cases": [{"ratio": math.nan}]}
    assert changed_fields(report, report) == []


def test_changed_fields_are_dotted_paths_with_list_indices():
    old = {"estimate": {"total": 1.5, "refined_total": 1.0000000000000002},
           "cases": [{"ratio": 0.5}, {"ratio": 0.25}], "passed": True}
    new = {"estimate": {"total": 1.5, "refined_total": 1.0000000000000004},
           "cases": [{"ratio": 0.5}, {"ratio": 0.125}], "passed": True}
    assert changed_fields(old, new) == ["estimate.refined_total", "cases.1.ratio"]


def test_added_removed_and_retyped_values_are_changed_where_they_stand():
    old = {"a": 1, "b": [1, 2], "gone": 0, "kept": {"x": None}}
    new = {"a": 1.0, "b": [1, 2, 3], "kept": {"x": None}, "new": "s"}
    assert changed_fields(old, new) == ["a", "b", "gone", "new"]
    assert changed_fields(1, 2) == ["."]


def test_moved_numbers_show_both_values_and_their_relative_difference():
    old = {"estimate": {"refined_total": 2.0, "converged": True}, "n": 0, "m": 4, "x": -0.0,
           "cases": [{"ratio": 0.5}], "gone": 1.5}
    new = {"estimate": {"refined_total": 2.5, "converged": False}, "n": 3, "m": 4.0, "x": 0.0,
           "cases": [{"ratio": "nan"}], "added": 2}
    assert moved_fields(old, new) == [
        "estimate.refined_total 2.0 -> 2.5 (2.0e-01)",
        "estimate.converged",
        "n 0 -> 3 (1.0e+00)",
        "m 4 -> 4.0 (0.0e+00)",
        "x -0.0 -> 0.0 (0.0e+00)",
        "cases.0.ratio",
        "gone",
        "added",
    ]
    assert [field.split()[0] for field in moved_fields(old, new)] == changed_fields(old, new)


def test_the_size_line_names_each_module_whose_count_changed():
    old = {"cli.py": 478, "diffops.py": 566, "measures.py": 229, "gone.py": 7}
    new = {"cli.py": 478, "diffops.py": 520, "measures.py": 270, "new.py": 3}
    assert size_line(old, new) == ("src/subord/*.py: 1280 -> 1271 lines (diffops.py 566 -> 520, "
                                   "gone.py 7 -> 0, measures.py 229 -> 270, new.py 0 -> 3)")
    assert size_line(old, old) == "src/subord/*.py: 1280 -> 1280 lines"


def test_the_summary_counts_non_numbers_and_names_each_fields_largest_move():
    # by the last key that is not a list index, the largest relative move and its command line
    # (the first on a tie); a key on one side only, a string and a bool are not numbers
    a, b = ("wiener-norm", "--multiplier", "exp_abs_ft"), ("diffop-verify", "--q", "2")
    leaves = [
        (a, "estimate.total", 2.0, 2.5),
        (b, "estimate.total", 1.0, 1.25),
        (b, "cases.0.ratio", 0.5, 0.75),
        (b, "cases.3.ratio", 0.25, 0.5),
        (a, "cases.4.ratio", 1.0, 0.5),
        (a, "estimate.converged", True, False),
        (b, "label", "y", "y^2"),
        (b, "gone", 1.5, None),
    ]
    assert summary(leaves) == [
        "3 differing fields are not numbers on both sides",
        "largest move of ratio: 0.25 -> 0.5 (5.0e-01) in diffop-verify --q 2",
        "largest move of total: 2.0 -> 2.5 (2.0e-01) in wiener-norm --multiplier exp_abs_ft",
    ]
    assert summary([]) == ["0 differing fields are not numbers on both sides"]
