"""Error types shared by all modules.

Every failure carries a short machine-readable code (the taxonomy used by the
validators) and an optional witness: a Term, a node set, or a tuple of those.
"""

from __future__ import annotations


def witness_str(w) -> str:
    from .terms import encode, encode_set, Atom, Tup, FinSet

    if w is None:
        return ""
    if isinstance(w, (Atom, Tup, FinSet)):
        return encode(w)
    if isinstance(w, (frozenset, set)):
        return encode_set(w)
    if isinstance(w, tuple):
        return " ".join(witness_str(part) for part in w)
    return str(w)


class GameError(Exception):
    """Base error: a code plus an optional witness."""

    def __init__(self, code: str, witness=None, detail: str = ""):
        self.code = code
        self.witness = witness
        self.detail = detail
        parts = [code]
        ws = witness_str(witness)
        if ws:
            parts.append(ws)
        if detail:
            parts.append("(" + detail + ")")
        super().__init__(" ".join(parts))


class ValidationError(GameError):
    """A structure failed one of its defining conditions."""


class OperationError(GameError):
    """An operation was called outside its precondition."""


class ParseError(GameError):
    """A file or term failed to parse."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__("SyntaxError", detail=message + where)
