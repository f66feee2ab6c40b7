"""Canonical value universe: atoms, tuples, and finite sets.

Terms name nodes and actions everywhere in the library. The three
constructors are enough to express pair-valued actions, sequence-valued
nodes, and set-valued nodes, so every converter stays inside one universe.
A strict total order (atoms < tuples < sets) makes printing and enumeration
deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cmp_to_key

from .errors import ParseError


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be nonempty")

    def __repr__(self):
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Tup:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self):
        return f"Tup({list(self.items)!r})"


@dataclass(frozen=True)
class FinSet:
    items: tuple  # held sorted and deduplicated, so equality ignores input order

    def __post_init__(self):
        items = sorted(self.items, key=term_key)
        deduped = []
        for t in items:
            if not deduped or deduped[-1] != t:
                deduped.append(t)
        object.__setattr__(self, "items", tuple(deduped))

    def __repr__(self):
        return f"FinSet({list(self.items)!r})"


Term = Atom | Tup | FinSet

_KIND_RANK = {Atom: 0, Tup: 1, FinSet: 2}


def term_cmp(a: Term, b: Term) -> int:
    """Strict total order: -1, 0, or 1. Atom < Tup < FinSet across kinds."""
    ka, kb = _KIND_RANK[type(a)], _KIND_RANK[type(b)]
    if ka != kb:
        return -1 if ka < kb else 1
    if isinstance(a, Atom):
        na, nb = a.name.encode("utf-8"), b.name.encode("utf-8")
        return -1 if na < nb else (0 if na == nb else 1)
    # Tup and FinSet both compare as their item lists, lexicographically.
    for x, y in zip(a.items, b.items):
        c = term_cmp(x, y)
        if c != 0:
            return c
    la, lb = len(a.items), len(b.items)
    return -1 if la < lb else (0 if la == lb else 1)


term_key = cmp_to_key(term_cmp)

_BARE_ATOM = re.compile(r"[A-Za-z0-9_.+-]+\Z")
# What str.splitlines breaks on; quoted atoms write these as \uXXXX.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def encode(t: Term) -> str:
    """Unique printable encoding; round-trips through parse_term."""
    if isinstance(t, Atom):
        if _BARE_ATOM.match(t.name):
            return t.name
        escaped = t.name.replace("\\", "\\\\").replace('"', '\\"')
        escaped = _LINE_BREAK.sub(lambda m: f"\\u{ord(m.group()):04x}", escaped)
        return '"' + escaped + '"'
    if isinstance(t, Tup):
        return "(" + ",".join(encode(x) for x in t.items) + ")"
    return "{" + ",".join(encode(x) for x in t.items) + "}"


class TermReader:
    """Cursor-based reader so the file formats can embed terms in lines."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, msg: str):
        raise ParseError(msg, col=self.pos + 1)

    def read_term(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            return self._read_seq(")", Tup)
        if ch == "{":
            return self._read_seq("}", FinSet)
        if ch == '"':
            return self._read_quoted()
        m = re.match(r"[A-Za-z0-9_.+-]+", self.text[self.pos:])
        if not m:
            self._fail(f"expected a term, found {ch!r}" if ch else "expected a term")
        self.pos += m.end()
        return Atom(m.group(0))

    def _read_seq(self, closer: str, ctor):
        self.pos += 1
        items = []
        self.skip_ws()
        if self.peek() == closer:
            self.pos += 1
            return ctor(())
        while True:
            items.append(self.read_term())
            self.skip_ws()
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == closer:
                self.pos += 1
                return ctor(tuple(items))
            self._fail(f"expected ',' or '{closer}'")

    def _read_quoted(self) -> Atom:
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                self._fail("unterminated quoted atom")
            ch = self.text[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    self._fail("dangling escape in quoted atom")
                if self.text[self.pos + 1] == "u":
                    digits = self.text[self.pos + 2:self.pos + 6]
                    # Four hex digits, not a surrogate (D800-DFFF): a lone
                    # surrogate could not be encoded for comparison.
                    if not re.fullmatch("(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}", digits):
                        self._fail("bad \\u escape in quoted atom")
                    out.append(chr(int(digits, 16)))
                    self.pos += 6
                    continue
                out.append(self.text[self.pos + 1])
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                if not out:
                    self._fail("empty quoted atom")
                return Atom("".join(out))
            out.append(ch)
            self.pos += 1


def parse_term(s: str) -> Term:
    """Parse a single term occupying the whole string."""
    r = TermReader(s)
    t = r.read_term()
    if not r.at_end():
        raise ParseError("trailing input after term", col=r.pos + 1)
    return t


def encode_set(nodes) -> str:
    """Canonical encoding of a collection of terms as a set."""
    return encode(FinSet(tuple(nodes)))
