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
    names by code point (UTF-8 byte order); the hash uses the items' hashes.
    _enc holds the encoding once encode has computed it for this term."""

    __slots__ = ("_key", "_hash", "_enc")

    def _cache(self, rank, items):
        _set(self, "_key", (rank, *[x._key for x in items]))
        _set(self, "_hash", hash((rank, items)))
        _set(self, "_enc", None)

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
        _set(self, "_enc", None)

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


_BARE_ATOM = re.compile(r"[A-Za-z0-9_.+-]+")
# What str.splitlines breaks on; quoted atoms write these as \uXXXX.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# Four hex digits, not a surrogate (D800-DFFF): a lone surrogate could not
# be encoded for comparison.
_U_DIGITS = re.compile("(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}")


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + _LINE_BREAK.sub(lambda m: f"\\u{ord(m.group()):04x}", escaped) + '"'


def encode(t: Term) -> str:
    """Unique printable encoding; round-trips through parse_term.

    One walk over t that reuses any encoding already stored on a subterm.
    The result is stored on t and on every atom met, but not on compound
    subterms, so a term nested d deep holds O(d) characters, not O(d^2)."""
    if t._enc is not None:
        return t._enc
    out = []
    todo = [t]  # terms still to write, and the brackets and commas between them
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
        elif x._enc is not None:
            out.append(x._enc)
        elif type(x) is Atom:
            _set(x, "_enc", x.name if _BARE_ATOM.fullmatch(x.name) else _quote(x.name))
            out.append(x._enc)
        else:
            todo.append(")" if type(x) is Tup else "}")
            for y in reversed(x.items):
                todo += (y, ",")
            if x.items:
                todo.pop()
            todo.append("(" if type(x) is Tup else "{")
    _set(t, "_enc", "".join(out))
    return t._enc


class TermReader:
    """Cursor-based reader so the file formats can embed terms in lines.

    atoms maps each atom name read to one Atom, so readers that share the
    dict return one object per name."""

    def __init__(self, text: str, pos: int = 0, atoms: dict | None = None):
        self.text = text
        self.pos = pos
        self.atoms = {} if atoms is None else atoms

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, msg: str, pos: int):
        self.pos = pos
        raise ParseError(msg, col=pos + 1)

    def _atom(self, name: str) -> Atom:
        return self.atoms.get(name) or self.atoms.setdefault(name, Atom(name))

    def read_term(self) -> Term:
        """Read one term at the cursor with an explicit stack of the open
        brackets, so nesting depth is bounded by memory, not recursion."""
        text, n = self.text, len(self.text)
        pos = self.pos
        open_seqs = []  # (closer, constructor, items read so far)
        while True:
            while pos < n and text[pos] in " \t":
                pos += 1
            ch = text[pos:pos + 1]
            if ch == "(" or ch == "{":
                closer, ctor = (")", Tup) if ch == "(" else ("}", FinSet)
                pos += 1
                while pos < n and text[pos] in " \t":
                    pos += 1
                if text[pos:pos + 1] != closer:
                    open_seqs.append((closer, ctor, []))
                    continue
                pos += 1
                t = ctor(())
            elif ch == '"':
                t, pos = self._read_quoted(pos)
            else:
                m = _BARE_ATOM.match(text, pos)
                if not m:
                    self._fail(f"expected a term, found {ch!r}" if ch else "expected a term", pos)
                pos = m.end()
                t = self._atom(m.group())
            # t is complete: add it to the innermost open bracket, closing
            # every bracket that ends right after it.
            while open_seqs:
                closer, ctor, items = open_seqs[-1]
                items.append(t)
                while pos < n and text[pos] in " \t":
                    pos += 1
                ch = text[pos:pos + 1]
                if ch == ",":
                    pos += 1
                    break
                if ch != closer:
                    self._fail(f"expected ',' or '{closer}'", pos)
                pos += 1
                open_seqs.pop()
                t = ctor(items)
            if not open_seqs:
                self.pos = pos
                return t

    def _read_quoted(self, pos: int):
        """The quoted atom at pos, with escapes, and the position after it."""
        text = self.text
        pos += 1
        out = []
        while True:
            if pos >= len(text):
                self._fail("unterminated quoted atom", pos)
            ch = text[pos]
            if ch == "\\":
                if pos + 1 >= len(text):
                    self._fail("dangling escape in quoted atom", pos)
                if text[pos + 1] == "u":
                    digits = text[pos + 2:pos + 6]
                    if not _U_DIGITS.fullmatch(digits):
                        self._fail("bad \\u escape in quoted atom", pos)
                    out.append(chr(int(digits, 16)))
                    pos += 6
                    continue
                out.append(text[pos + 1])
                pos += 2
                continue
            if ch == '"':
                pos += 1
                if not out:
                    self._fail("empty quoted atom", pos)
                return self._atom("".join(out)), pos
            out.append(ch)
            pos += 1


def parse_term(s: str) -> Term:
    """Parse a single term occupying the whole string."""
    r = TermReader(s)
    t = r.read_term()
    if not r.at_end():
        raise ParseError("trailing input after term", col=r.pos + 1)
    return t


def encode_set(nodes) -> str:
    """Canonical encoding of a collection of terms as a set; each member's
    encoding is stored on the member."""
    return "{" + ",".join([encode(x) for x in sorted(set(nodes))]) + "}"
