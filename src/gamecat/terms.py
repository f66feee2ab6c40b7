"""Canonical value universe: atoms, tuples, and finite sets.

Terms name nodes and actions everywhere in the library. The three
constructors are enough to express pair-valued actions, sequence-valued
nodes, and set-valued nodes, so every converter stays inside one universe.
A strict total order (atoms < tuples < sets) makes printing and enumeration
deterministic. Terms are interned: equal terms are one object.
"""

from __future__ import annotations

import re
from operator import attrgetter

from .errors import ParseError

_set = object.__setattr__
_ATOMS: dict = {}  # the intern tables: every term built, by name or by items
_TUPS: dict = {}
_SETS: dict = {}
# Terms this deep or deeper have no native key: comparing nested key tuples
# recurses in C once per level, up to the interpreter's recursion limit.
_DEEP = 400
_KEY = attrgetter("_key")
_DEPTH = attrgetter("_depth")


class _Term:
    """Built through its constructor's intern table, so equal terms are one
    object: equality is identity and the hash is object's. The order
    compares _key, (0, name) or the rank (1 tuple, 2 set) then the items'
    keys, so names by code point (UTF-8 byte order); a term _DEEP or more
    levels deep (_depth) has no _key and is ordered by _cmp. _enc holds the
    encoding once encode has computed it."""

    __slots__ = ("_key", "_depth", "_enc")

    # Equality is identity, written out: with __lt__ defined, every
    # comparison operator looks its method up, and object's __eq__ answers
    # NotImplemented for two distinct terms, so == would try both sides and
    # != four methods. The hash stays object's C function.
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__

    def __lt__(self, other):
        try:
            return self._key < other._key
        except AttributeError:  # too deep for a native key, or not a term
            if not isinstance(other, _Term):
                return NotImplemented
            return self is not other and _cmp(self, other) < 0

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):  # iterative both ways, and back to this object
        return parse_term, (encode(self),)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        """Tup([...]) or FinSet([...]), by a walk with an explicit stack."""
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is str or type(x) is Atom:
                out.append(x if type(x) is str else repr(x))
            else:
                todo.append("])")
                for k, y in enumerate(reversed(x.items)):
                    todo += (", ", y) if k else (y,)
                todo.append(f"{type(x).__name__}([")
        return "".join(out)


class Atom(_Term):
    __slots__ = ("name",)
    _rank = 0

    def __new__(cls, name: str):
        t = _ATOMS.get(name)
        if t is None:
            if not isinstance(name, str):
                raise TypeError(f"atom name must be a str, not {type(name).__name__}")
            if not name:
                raise ValueError("atom name must be nonempty")
            t = object.__new__(cls)
            _set(t, "name", name)
            _set(t, "_key", (0, name))
            _set(t, "_depth", 0)
            _set(t, "_enc", None)
            t = _ATOMS.setdefault(name, t)
        return t

    def __repr__(self):
        return f"Atom({self.name!r})"


def _compound(cls, table: dict, items: tuple):
    """The cls term with these items, which are terms: the one in table, or
    a new one put there."""
    t = table.get(items)
    if t is None:
        t = object.__new__(cls)
        depth = 1 + max(map(_DEPTH, items), default=0)
        _set(t, "items", items)
        _set(t, "_depth", depth)
        _set(t, "_enc", None)
        if depth < _DEEP:
            _set(t, "_key", (cls._rank, *map(_KEY, items)))
        t = table.setdefault(items, t)
    return t


class Tup(_Term):
    __slots__ = ("items",)
    _rank = 1

    def __new__(cls, items):
        return _compound(cls, _TUPS, tuple(items))


class FinSet(_Term):
    __slots__ = ("items",)  # sorted and deduplicated, so equality ignores input order
    _rank = 2

    def __new__(cls, items):
        # dict.fromkeys keeps the input order, whose runs the sort reuses.
        return _compound(cls, _SETS, tuple(_sorted(dict.fromkeys(items))))


Term = Atom | Tup | FinSet


class _Record:
    """An immutable record of the fields its subclass annotates (_fields), given by
    position or keyword; == and hash read compare (default all), repr shown (default compare)."""

    def __init_subclass__(cls, compare=None, shown=None):
        cls._fields = tuple(cls.__annotations__)
        cls._compare = compare or cls._fields
        cls._shown = shown or cls._compare

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs) if args else kwargs
        if values.keys() != self.__annotations__.keys() or len(args) + len(kwargs) != len(values):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(self._fields)}, each once")
        self.__dict__.update(values)

    __setattr__ = __delattr__ = _Term.__setattr__  # views, copy and pickle write __dict__

    _key = property(lambda self: tuple(map(self.__dict__.__getitem__, self._compare)))

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"


def term_key(t: Term) -> tuple:
    """The structural key that orders terms: atoms < tuples < sets. A term
    _DEEP or more levels deep has none (ValueError); < orders any terms."""
    if t._depth >= _DEEP:
        raise ValueError(f"a term nested {t._depth} deep has no native key")
    return t._key


def term_cmp(a: Term, b: Term) -> int:
    """Strict total order: -1, 0, or 1. Atom < Tup < FinSet across kinds."""
    return 0 if a is b else -1 if a < b else 1


def _cmp(a: Term, b: Term) -> int:
    """-1 or 1 for distinct terms a and b, in key order, without recursion:
    by rank, by name, then by the first pair of items that are not one
    object, which decides since equal terms are one object; with none, the
    shorter goes first."""
    while a._rank == b._rank:
        if not a._rank:
            return -1 if a.name < b.name else 1
        for x, y in zip(a.items, b.items):
            if x is not y:
                break
        else:
            return -1 if len(a.items) < len(b.items) else 1
        a, b = x, y
    return -1 if a._rank < b._rank else 1


def _sorted(xs) -> list:
    """Terms in term order: the list sorted() gives, but compared natively
    by the terms' keys rather than through __lt__, unless a term is too
    deep to have one (then xs is read twice, so it is a collection). The
    one sort of terms in the library."""
    try:
        return sorted(xs, key=_KEY)
    except AttributeError:  # a term too deep for a native key
        return sorted(xs)


_BARE_ATOM = re.compile(r"[A-Za-z0-9_.+-]+")
# What str.splitlines breaks on; quoted atoms write these as \uXXXX.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# A quoted atom up to its closing quote, which _QUOTED adds; a _TOKENS
# token may end at the text's end instead, or at a last backslash.
_OPEN_QUOTED = r'"(?:[^"\\]|\\.)*'
_QUOTED = re.compile(_OPEN_QUOTED + '"', re.S)
# An escape: \u and four hex digits, not a surrogate (D800-DFFF), which could
# not be encoded for comparison; \ and any other character; or, empty, neither.
_ESCAPE = re.compile(r"\\(u(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}|[^u]|)")


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + _LINE_BREAK.sub(lambda m: f"\\u{ord(m.group()):04x}", escaped) + '"'


def encode(t: Term) -> str:
    """Unique printable encoding; round-trips through parse_term.

    A compound term whose items all carry an encoding is written with one
    join; any other term with one walk over it that reuses any encoding
    already stored on a subterm. The result is stored on t and on every
    atom met, but not on compound subterms, so a term nested d deep holds
    O(d) characters, not O(d^2)."""
    if t._enc is not None:
        return t._enc
    if type(t) is not Atom:
        encs = [x._enc for x in t.items]
        if None not in encs:
            joined = ",".join(encs)
            _set(t, "_enc", f"({joined})" if type(t) is Tup else f"{{{joined}}}")
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


# One token after any blanks: a bare atom (group 2), or (group 3) a quoted
# atom up to its closing quote or the end of the text, or one other
# character. findall over a text gives its tokens as (blanks, bare, other)
# triples; a triple with no token (_END, or the blanks that end the text)
# is appended to mark the end.
_TOKENS = re.compile(rf'([ \t]*)(?:({_BARE_ATOM.pattern})|({_OPEN_QUOTED}["\\]?|[^ \t]))', re.S)
_END = ("", "", "")


def _span(toks, k: int) -> int:
    """The length of the text that toks[:k] were found in."""
    return len("".join(["".join(t) for t in toks[:k]]))


def _fail(msg: str, toks, k: int, off: int = 0):
    """ParseError at offset off into token k, after its blanks."""
    raise ParseError(msg, col=_span(toks, k) + len(toks[k][0]) + off + 1)


def _read_tokens(toks, k: int):
    """The term that begins at token k of toks (_TOKENS.findall output) and
    the index of the token after it.

    Open brackets wait on an explicit stack, so nesting depth is bounded by
    memory, not recursion. ParseError columns count from where findall
    began."""
    open_seqs = []  # (closer, constructor, items read so far)
    while True:
        _, w, o = toks[k]
        k += 1
        if w:
            t = _ATOMS.get(w) or Atom(w)  # most names are met before: no call
            if not open_seqs:
                return t, k
        elif o == "(" or o == "{":
            closer, ctor = (")", Tup) if o == "(" else ("}", FinSet)
            if toks[k][2] != closer:
                open_seqs.append((closer, ctor, []))
                continue
            k += 1
            t = ctor(())
        elif o[:1] == '"':
            name, bad = _unquote(o)
            if bad is not None:
                _fail(name, toks, k - 1, bad)
            t = Atom(name)
        else:
            _fail(f"expected a term, found {o[0]!r}" if o else "expected a term", toks, k - 1)
        # t is complete: add it to the innermost open bracket, closing
        # every bracket that ends right after it.
        while open_seqs:
            closer, ctor, items = open_seqs[-1]
            items.append(t)
            o = toks[k][2]
            k += 1
            if o == ",":
                break
            if o != closer:
                _fail(f"expected ',' or '{closer}'", toks, k - 1)
            open_seqs.pop()
            t = ctor(items)
        if not open_seqs:
            return t, k


def _unquote(tok: str):
    """(name, None) for a quoted-atom token, or (error message, offset of
    the error in tok). The token ends at the closing quote or at the end of
    the text, so an error found in it is the one the whole text has."""
    for m in _ESCAPE.finditer(tok):
        if not m[1]:  # neither: dangling at the token's end, else a bad \u
            what = "dangling" if m.end() == len(tok) else "bad \\u"
            return what + " escape in quoted atom", m.start()
    if not _QUOTED.fullmatch(tok):
        return "unterminated quoted atom", len(tok)
    if tok == '""':
        return "empty quoted atom", 2
    return _ESCAPE.sub(lambda m: chr(int(m[1][1:], 16)) if m[1][0] == "u" else m[1],
                       tok[1:-1]), None


def parse_term(s: str) -> Term:
    """Parse a single term occupying the whole string."""
    toks = _TOKENS.findall(s)
    toks.append((s[_span(toks, len(toks)):], "", ""))
    t, k = _read_tokens(toks, 0)
    if k + 1 < len(toks):
        _fail("trailing input after term", toks, k)
    return t


def encode_set(nodes) -> str:
    """Canonical encoding of a collection of terms as a set; each member's
    encoding is stored on the member. One member needs no copy or sort."""
    if len(nodes) == 1:
        (x,) = nodes
        return "{" + encode(x) + "}"
    return "{" + ",".join([encode(x) for x in _sorted(set(nodes))]) + "}"
