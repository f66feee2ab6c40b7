"""Canonical value universe: atoms, tuples, and finite sets.

Terms name nodes and actions everywhere in the library. The three
constructors are enough to express pair-valued actions, sequence-valued
nodes, and set-valued nodes, so every converter stays inside one universe.
A strict total order (atoms < tuples < sets) makes printing and enumeration
deterministic.
"""

from __future__ import annotations

import re

from .errors import ParseError

_set = object.__setattr__


class _Term:
    """Equality, order and hash from values cached at construction: the key
    (0, name), or the rank (1 tuple, 2 set) then the items' keys, compares
    names by code point (UTF-8 byte order); the hash uses the items' hashes."""

    __slots__ = ("_key", "_hash")

    def _cache(self, rank, items):
        _set(self, "_key", (rank, *[x._key for x in items]))
        _set(self, "_hash", hash((rank, items)))

    def __eq__(self, other):
        return isinstance(other, _Term) and self._hash == other._hash and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key if isinstance(other, _Term) else NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # copies and pickles rebuild the cache by constructor
        return type(self), (self.name if isinstance(self, Atom) else self.items,)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Atom(_Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("atom name must be nonempty")
        _set(self, "name", name)
        _set(self, "_key", (0, name))
        _set(self, "_hash", hash(self._key))

    def __repr__(self):
        return f"Atom({self.name!r})"


class Tup(_Term):
    __slots__ = ("items",)

    def __init__(self, items):
        _set(self, "items", tuple(items))
        self._cache(1, self.items)

    def __repr__(self):
        return f"Tup({list(self.items)!r})"


class FinSet(_Term):
    __slots__ = ("items",)  # sorted and deduplicated, so equality ignores input order

    def __init__(self, items):
        _set(self, "items", tuple(sorted(set(items))))
        self._cache(2, self.items)

    def __repr__(self):
        return f"FinSet({list(self.items)!r})"


Term = Atom | Tup | FinSet


def term_key(t: Term) -> tuple:
    """The structural key that orders terms: atoms < tuples < sets."""
    return t._key


def term_cmp(a: Term, b: Term) -> int:
    """Strict total order: -1, 0, or 1. Atom < Tup < FinSet across kinds."""
    return (a._key > b._key) - (a._key < b._key)


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
    return encode(FinSet(nodes))
