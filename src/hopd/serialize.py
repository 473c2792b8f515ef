"""Canonical s-expression text form for atoms and diagrams.

The grammar is documented in docs/formats.md.  Entries are emitted in the
structural canonical order, floats use shortest round-trip repr (``inf``
and ``-inf`` for the infinities), and multiplicities append as ``*k``, so
equal values always serialize to identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Atom,
    Diagram,
    GroundPoint,
    LinearDiagram,
    VirtualDiagram,
    atom,
    diagram,
    ground,
    linear_diagram,
    virtual_diagram,
)


def _num(x: float) -> str:
    return repr(float(x))  # 'inf' and '-inf' for the infinities


def _coeff(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    if isinstance(c, int):
        return str(c)
    return _num(c)


def to_text(obj) -> str:
    if isinstance(obj, GroundPoint):
        return "(p " + " ".join(_num(c) for c in obj.coords) + ")"
    if isinstance(obj, Atom):
        return f"(a {to_text(obj.minus)} {to_text(obj.plus)})"
    if isinstance(obj, Diagram):
        body = "".join(f" {to_text(a)}*{m}" for a, m in obj.entries)
        return f"(d {obj.level}{body})"
    if isinstance(obj, VirtualDiagram):
        body = "".join(f" {to_text(a)}*{c}" for a, c in obj.entries)
        return f"(v {obj.level}{body})"
    if isinstance(obj, LinearDiagram):
        body = "".join(f" {to_text(a)}*{_coeff(c)}" for a, c in obj.entries)
        return f"(l {obj.level}{body})"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _tokenize(text: str):
    out = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def value(self):
        self.expect("(")
        tag = self.take()
        if tag == "p":
            coords = []
            while self.peek() != ")":
                coords.append(float(self.take()))
            self.expect(")")
            return ground(*coords)
        if tag == "a":
            minus = self.value()
            plus = self.value()
            self.expect(")")
            return atom(minus, plus)
        if tag in ("d", "v", "l"):
            level = int(self.take())
            entries = []
            while self.peek() != ")":
                a = self.value()
                star = self.take()
                if not star.startswith("*"):
                    raise ValueError(f"expected multiplicity, got {star!r}")
                entries.append((a, self._coeff(star[1:], tag)))
            self.expect(")")
            if tag == "d":
                return diagram(entries, level=level)
            if tag == "v":
                return virtual_diagram(entries, level=level)
            return linear_diagram(entries, level=level)
        raise ValueError(f"unknown tag {tag!r}")

    @staticmethod
    def _coeff(tok: str, tag: str):
        try:
            if tag == "d" or tag == "v":
                return int(tok)
            if "/" in tok:
                num, den = tok.split("/")
                return Fraction(int(num), int(den))
            if "." in tok or "e" in tok or tok in ("inf", "-inf"):
                return float(tok)
            return Fraction(int(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot read coefficient {tok!r}") from None


def from_text(text: str):
    parser = _Parser(_tokenize(text))
    obj = parser.value()
    if parser.peek() is not None:
        raise ValueError("trailing tokens after value")
    return obj


__all__ = ["from_text", "to_text"]
