import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopd.core import (
    atom,
    diagram,
    empty_diagram,
    ground,
    interval,
    linear_diagram,
    virtual_diagram,
)
from hopd.serialize import from_text, to_text


def test_ground_point_round_trip():
    p = ground(0.1, math.inf)
    text = to_text(p)
    assert text == "(p 0.1 inf)"
    assert from_text(text) is p


def test_atom_round_trip():
    a = interval(0.25, 0.875)
    assert from_text(to_text(a)) is a


def test_diagram_round_trip_with_multiplicities():
    d = diagram({interval(0, 1): 2, interval(0.5, 2): 1})
    text = to_text(d)
    assert "*2" in text
    assert from_text(text) is d


def test_empty_diagram_keeps_level():
    d = empty_diagram(3)
    assert from_text(to_text(d)) is d


def test_virtual_signed_round_trip():
    xi = virtual_diagram({interval(0, 1): -3, interval(0.2, 0.9): 5})
    assert from_text(to_text(xi)) == xi


def test_linear_fraction_round_trip():
    xi = linear_diagram({interval(0, 1): Fraction(5, 3), interval(0.2, 0.4): Fraction(-1, 30)})
    text = to_text(xi)
    assert "5/3" in text
    assert from_text(text) == xi


@pytest.mark.parametrize(
    "c, token",
    [
        (0.5, "*0.5"),
        (2.0, "*2.0"),
        (1e-05, "*1e-05"),
        (math.inf, "*inf"),
        (-math.inf, "*-inf"),
        (Fraction(3), "*3"),
        (3, "*3"),
    ],
)
def test_linear_float_and_integer_round_trip(c, token):
    xi = linear_diagram({interval(0, 1): c, interval(0.2, 0.4): Fraction(1, 3)})
    text = to_text(xi)
    assert token + " " in text
    back = from_text(text)
    assert back == xi
    # a float keeps its type and sign; an integer reads back as a Fraction
    got = dict(back.entries)[interval(0, 1)]
    assert type(got) is (float if isinstance(c, float) else Fraction)
    assert got == c


def test_nested_level2_round_trip():
    inner1 = diagram({interval(0.1, 0.9): 1, interval(0.3, 0.5): 2})
    inner2 = diagram({interval(0.2, 0.8): 1})
    xi = virtual_diagram({atom(inner1, inner2): -7})
    assert from_text(to_text(xi)) == xi


def test_serialization_is_bit_stable(rng):
    from conftest import rand_virtual

    xi = rand_virtual(rng, 40)
    assert to_text(xi) == to_text(virtual_diagram(dict(reversed(xi.entries))))


def test_parse_errors():
    with pytest.raises(ValueError):
        from_text("(q 1)")
    with pytest.raises(ValueError):
        from_text("(p 1.0) trailing")
    with pytest.raises(ValueError):
        from_text("(d 1 (a (p 0) (p 1))")


@pytest.mark.parametrize("tok", ["nan", "1/0", "1/2/3", "x", ""])
def test_unreadable_coefficient_names_its_token(tok):
    with pytest.raises(ValueError, match=f"cannot read coefficient '{tok}'"):
        from_text(f"(l 1 (a (p 0.0) (p 1.0))*{tok})")
    with pytest.raises(ValueError, match=f"cannot read coefficient '{tok}'"):
        from_text(f"(v 1 (a (p 0.0) (p 1.0))*{tok})")


# Text of a 1-d and a 2-d atom with a 0.0 coordinate, in a fresh process
# that first interns the same points spelled `argv[1]` (0.0 or -0.0).
_ZERO_SNIPPET = """
import sys
from hopd.core import atom, ground, interval
from hopd.serialize import to_text
z = float(sys.argv[1])
interval(z, 1.0)
atom(ground(z, 1.0), ground(2.0, z))
print(to_text(interval(0.0, 2.0)), to_text(atom(ground(0.0, 1.0), ground(2.0, 0.0))))
"""


def _zero_text_in_fresh_process(zero: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _ZERO_SNIPPET, zero],
        capture_output=True, text=True, check=True, env=env,
    ).stdout


def test_negative_zero_interned_first_serializes_as_zero():
    # ground keys compare -0.0 == 0.0, so the text must not depend on
    # which zero was interned first
    text = _zero_text_in_fresh_process("-0.0")
    assert text == _zero_text_in_fresh_process("0.0")
    assert "-0.0" not in text
