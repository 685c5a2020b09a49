"""The package raises input errors only.

A mathematical failure is a ``Check`` or a report entry with its witness,
never an exception; so every exception supext raises is a broken
precondition, and the CLI exits 2 on it.  An invariant that no input can
break is an ``assert``: a failure there is a defect of the program.  These tests read the source, so a
new per-case exception class or a raise of some other type fails here.
The mask reader accepts exactly the hex digits supext writes.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import supext
from supext import errors

SOURCES = sorted(Path(supext.__file__).parent.glob("*.py"))

# argparse reports an ArgumentTypeError from a ``type=`` converter as its
# own usage error, exit 2, so that one raise never leaves the parser
RAISABLE = {"InputError", "TooLarge", "ArgumentTypeError"}


def _raised_name(node: ast.Raise) -> str | None:
    """The class a raise names, or None for a bare re-raise."""
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return ast.unparse(exc)


def test_every_raise_is_an_input_error():
    assert len(SOURCES) >= 10
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                name = _raised_name(node)
                if name is not None and name not in RAISABLE:
                    offenders.append(f"{path.name}:{node.lineno} raises {name}")
                if name == "ArgumentTypeError" and path.name != "cli.py":
                    offenders.append(f"{path.name}:{node.lineno} raises {name} outside the CLI")
    assert offenders == []


def test_errors_defines_only_the_input_errors():
    classes = {
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if obj.__module__ == errors.__name__ and issubclass(obj, BaseException)
    }
    assert classes == {"InputError", "TooLarge"}
    assert errors.InputError.__bases__ == (Exception,)
    assert errors.TooLarge.__bases__ == (errors.InputError,)


_HEX_DIGITS = frozenset("0123456789abcdef")


@settings(max_examples=300)
@given(st.text(alphabet=st.sampled_from("0123456789abcdefABCDEFxX_+- \n３٣"), max_size=6) | st.text(max_size=4))
def test_json_mask_reads_only_lower_case_hex_digits(text):
    """A mask is accepted iff it is a nonempty string of the digits 0-9a-f."""
    if text and set(text) <= _HEX_DIGITS:
        assert errors.json_mask(text, "F") == int(text, 16)
        assert errors.json_masks([text, text], "F") == (int(text, 16),) * 2
    else:
        with pytest.raises(errors.InputError, match="a mask in F must be hex digits 0-9a-f"):
            errors.json_mask(text, "F")
        with pytest.raises(errors.InputError, match="a mask in F must be hex digits 0-9a-f"):
            errors.json_masks(["1", text], "F")


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_json_mask_reads_back_what_supext_writes(m):
    assert errors.json_mask(format(m, "x"), "F") == m


@pytest.mark.parametrize("value", [3, 3.0, None, True, ["3"]])
def test_json_mask_is_a_string(value):
    with pytest.raises(errors.InputError, match="a mask in F must be hex digits"):
        errors.json_mask(value, "F")
