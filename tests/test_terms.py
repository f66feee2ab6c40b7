import copy
import pickle
import random
import re
import sys
import threading
import time
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from gamecat import (Atom, FinSet, ParseError, Tup, encode, encode_set,
                     parse_term, term_cmp, term_key)
from gamecat.terms import _ATOMS, _cmp, _sorted


def test_atom_order_is_bytewise():
    assert term_cmp(Atom("a"), Atom("b")) == -1
    assert term_cmp(Atom("b"), Atom("a")) == 1
    assert term_cmp(Atom("a"), Atom("a")) == 0
    # digits compare as strings, not numbers
    assert term_cmp(Atom("10"), Atom("2")) == -1


def test_kinds_are_ordered_atom_tup_finset():
    a, t, s = Atom("z"), Tup(()), FinSet(())
    assert term_cmp(a, t) == -1
    assert term_cmp(t, s) == -1
    assert term_cmp(a, s) == -1


def test_tuples_compare_lexicographically():
    assert term_cmp(Tup((Atom("a"),)), Tup((Atom("a"), Atom("b")))) == -1
    assert term_cmp(Tup((Atom("b"),)), Tup((Atom("a"), Atom("b")))) == 1


def test_finset_normalizes_order_and_duplicates():
    s1 = FinSet((Atom("b"), Atom("a"), Atom("b")))
    s2 = FinSet((Atom("a"), Atom("b")))
    assert s1 == s2
    assert s1.items == (Atom("a"), Atom("b"))


def test_encode_examples():
    assert encode(Atom("n1")) == "n1"
    assert encode(Atom("a b")) == '"a b"'
    assert encode(Tup((Atom("b"), Atom("e")))) == "(b,e)"
    assert encode(FinSet((Atom("2"), Atom("0")))) == "{0,2}"
    assert encode(Tup(())) == "()"
    assert encode(FinSet(())) == "{}"


def test_encode_set_sorts():
    assert encode_set([Atom("50"), Atom("10"), Atom("12")]) == "{10,12,50}"


def test_parse_examples():
    assert parse_term("n1") == Atom("n1")
    assert parse_term("(b,e)") == Tup((Atom("b"), Atom("e")))
    assert parse_term("{0, 2}") == FinSet((Atom("0"), Atom("2")))
    assert parse_term('"a b"') == Atom("a b")
    assert parse_term('"a\\"b"') == Atom('a"b')
    assert parse_term("((),{})") == Tup((Tup(()), FinSet(())))


def test_parse_errors():
    for bad in ["", "(a", "{a,", "(a b)", '"x', "a)", "a b"]:
        with pytest.raises(ParseError):
            parse_term(bad)


_atoms = st.one_of(
    st.text(alphabet="abcXYZ019_.+-", min_size=1, max_size=6),
    st.text(min_size=1, max_size=4),
).map(Atom)

_terms = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda xs: Tup(tuple(xs))),
        st.lists(kids, max_size=3).map(lambda xs: FinSet(tuple(xs))),
    ),
    max_leaves=10,
)


@given(_terms)
def test_encode_round_trips(t):
    assert parse_term(encode(t)) == t


@given(_terms, _terms)
def test_cmp_agrees_with_equality(a, b):
    assert (term_cmp(a, b) == 0) == (a == b)
    assert term_cmp(a, b) == -term_cmp(b, a)


@given(_terms, _terms, _terms)
def test_cmp_is_transitive_via_sorting(a, b, c):
    xs = sorted([a, b, c], key=term_key)
    for i in range(len(xs) - 1):
        assert term_cmp(xs[i], xs[i + 1]) <= 0


def _ref_cmp(a, b):
    """The order as first defined, recursively: atoms < tuples < sets, atoms
    by the bytes of their UTF-8 names, tuples and sets item by item."""
    rank = {Atom: 0, Tup: 1, FinSet: 2}
    ka, kb = rank[type(a)], rank[type(b)]
    if ka != kb:
        return -1 if ka < kb else 1
    if isinstance(a, Atom):
        na, nb = a.name.encode("utf-8"), b.name.encode("utf-8")
        return (na > nb) - (na < nb)
    for x, y in zip(a.items, b.items):
        c = _ref_cmp(x, y)
        if c:
            return c
    return (len(a.items) > len(b.items)) - (len(a.items) < len(b.items))


@given(_terms, _terms)
def test_order_and_equality_agree_with_the_reference(a, b):
    ref = _ref_cmp(a, b)
    assert term_cmp(a, b) == ref
    assert (a < b) == (ref < 0) and (b < a) == (ref > 0)
    assert (a == b) == (ref == 0) and (a != b) == (ref != 0)


@given(st.lists(_terms, max_size=8))
def test_sorted_agrees_with_the_reference(xs):
    assert sorted(xs) == sorted(xs, key=cmp_to_key(_ref_cmp))


@given(_terms)
def test_equal_terms_built_apart_hash_equal(t):
    copy = parse_term(encode(t))
    assert copy is t
    assert copy == t and hash(copy) == hash(t) and term_cmp(copy, t) == 0


def test_explicit_orders():
    # Code point order, not UTF-16 order, which puts U+FFFF after U+10000.
    assert Atom("\uffff") < Atom("\U00010000")
    assert _ref_cmp(Atom("\uffff"), Atom("\U00010000")) == -1
    assert Atom("z") < Atom("é") and not Atom("é") < Atom("z")
    assert term_cmp(Atom("é"), Atom("z")) == _ref_cmp(Atom("é"), Atom("z")) == 1
    a, b, c = Atom("a"), Tup((Atom("b"),)), FinSet((Atom("c"),))
    s = FinSet((c, a, b, a, c))
    assert s == FinSet((b, c, a)) and hash(s) == hash(FinSet((b, c, a)))
    assert s.items == (a, b, c)


def test_edges_sort_natively_as_by_pair_keys():
    rng = random.Random(5)
    names = ["a", "b", "é", "z", "\uffff", "\U00010000", "a b", "10", "2"]
    pool = [Atom(n) for n in names] + [Tup((Atom(n),)) for n in names[:4]]
    pool += [FinSet((Atom(n), Atom("a"))) for n in names[:4]]
    edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
    assert sorted(edges) == sorted(edges, key=lambda e: (term_key(e[0]), term_key(e[1])))
    assert sorted(edges) == sorted(edges, key=cmp_to_key(
        lambda e, f: _ref_cmp(e[0], f[0]) or _ref_cmp(e[1], f[1])))


def test_deeply_nested_term_hashes_in_linear_time():
    start = time.perf_counter()
    t = Atom("x")
    for _ in range(100_000):
        t = Tup((t,))
    assert t in {t, Atom("x")} and hash(t) == hash(t)
    assert time.perf_counter() - start < 10


def _chain(name, depth):
    """The atom name inside depth one-item tuples."""
    t = Atom(name)
    for _ in range(depth):
        t = Tup((t,))
    return t


def test_repr_of_a_shallow_term_is_its_constructor_call():
    assert repr(Tup([Atom("a"), FinSet([])])) == "Tup([Atom('a'), FinSet([])])"
    assert repr(FinSet([Atom("b c"), Tup([])])) == "FinSet([Atom('b c'), Tup([])])"


@given(_terms)
def test_repr_agrees_with_the_recursive_reference(t):
    if isinstance(t, Atom):
        assert repr(t) == f"Atom({t.name!r})"
    else:
        assert repr(t) == f"{type(t).__name__}({list(t.items)!r})"


@pytest.mark.parametrize("depth", [2000, 100_000])
def test_repr_works_at_any_depth(depth):
    t = FinSet((_chain("a", depth), Atom("b")))
    assert repr(t) == "FinSet([Atom('b'), " + "Tup([" * depth + "Atom('a')" + "])" * depth + "])"


def test_copies_and_pickles_of_a_deep_term_are_the_term():
    t = FinSet((_chain("a", 2000), _chain("b", 1999)))
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin is t


def test_order_works_at_any_depth():
    start = time.perf_counter()
    a, b = _chain("a", 100_000), _chain("b", 100_000)
    shallow = Tup((Atom("a"),))  # a tuple whose first item is an atom
    assert a < b and not b < a and not a < a
    assert (term_cmp(a, b), term_cmp(b, a), term_cmp(a, a)) == (-1, 1, 0)
    assert shallow < a and not a < shallow and term_cmp(a, shallow) == 1
    assert min(b, a) is a and min(a, b) is a
    ordered = [Atom("z"), shallow, a, b]
    for xs in ([b, a, shallow, Atom("z")], [a, Atom("z"), b, shallow]):
        assert _sorted(xs) == sorted(xs) == ordered
    assert FinSet((b, shallow, a, b)).items == (shallow, a, b)
    pairs = [(b, a), (a, b), (a, shallow)]
    assert sorted(pairs) == [(a, shallow), (a, b), (b, a)] and min(pairs) == (a, shallow)
    with pytest.raises(ValueError):
        term_key(a)
    assert time.perf_counter() - start < 10
    # Either side of the depth where terms stop having a native key.
    for depth in (398, 399, 400, 401):
        x, y = _chain("a", depth), _chain("b", depth)
        u, v = _chain("a", depth + 1), Tup((x, Atom("a")))
        assert _sorted([y, v, x, u]) == sorted([y, v, x, u]) == [x, y, u, v]
        assert FinSet((v, u, y, x)).items == (x, y, u, v)
        assert (term_cmp(x, y), term_cmp(u, v), term_cmp(v, v)) == (-1, -1, 0)


_order_atoms = st.one_of(
    st.sampled_from(["a", "ab", "b", "a b", 'x"y', "\\", "\uffff", "\U00010000", "é", "10", "2"]),
    st.text(min_size=1, max_size=3),
).map(Atom)

_order_terms = st.recursive(
    _order_atoms,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4).map(Tup),
        st.lists(kids, max_size=4).map(FinSet),
    ),
    max_leaves=16,
)


@given(_order_terms, _order_terms, st.integers(0, 3))
def test_loop_comparator_gives_the_key_order(a, b, k):
    pairs = [(a, b)]
    for t in (a, b):  # a prefix of a compound term against the term
        if not isinstance(t, Atom):
            pairs.append((type(t)(t.items[:k]), t))
    for x, y in pairs:
        if x is not y:
            assert _cmp(x, y) == (-1 if x._key < y._key else 1) == -_cmp(y, x)


def test_threads_building_the_same_terms_get_one_object_each():
    barrier = threading.Barrier(4)
    names = [f"thread{id(barrier)}.{k}" for k in range(300)]  # new to the tables
    built = [None] * 4

    def build(i):
        barrier.wait(timeout=10)
        out = []
        for n in names:
            a = Atom(n)
            out += [a, Tup((a, Atom("x"))), FinSet((Tup((a,)), a))]
        built[i] = out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and None not in built
    for objs in zip(*built):
        assert all(x is objs[0] for x in objs)


def test_equality_is_identity_and_the_hash_is_objects():
    a, t = Atom("a"), Tup((Atom("a"),))
    assert a == Atom("a") and not a != Atom("a") and a != t and not a == t
    assert a != "a" and not a == "a" and t != (a,) and not t == (a,)
    assert hash(t) == object.__hash__(t) and type(t).__hash__ is object.__hash__


def test_terms_are_immutable_and_order_only_among_terms():
    a = Atom("a")
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(TypeError):
        a < 3


def test_atom_name_must_be_a_nonempty_str():
    for bad in (5, b"a", None, ("a",)):
        with pytest.raises(TypeError):
            Atom(bad)
        assert bad not in _ATOMS
    with pytest.raises(ValueError):
        Atom("")


@given(_terms)
def test_copies_and_pickles_equal_the_original(t):
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin is t and hash(twin) == hash(t) and repr(twin) == repr(t)


class _RefReader:
    """The reader as first written, recursing once per nesting level; kept
    as the reference for terms, error messages and columns."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, msg):
        raise ParseError(msg, col=self.pos + 1)

    def read_term(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            return self.read_seq(")", Tup)
        if ch == "{":
            return self.read_seq("}", FinSet)
        if ch == '"':
            return self.read_quoted()
        m = re.match(r"[A-Za-z0-9_.+-]+", self.text[self.pos:])
        if not m:
            self.fail(f"expected a term, found {ch!r}" if ch else "expected a term")
        self.pos += m.end()
        return Atom(m.group(0))

    def read_seq(self, closer, ctor):
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
            self.fail(f"expected ',' or '{closer}'")

    def read_quoted(self):
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated quoted atom")
            ch = self.text[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    self.fail("dangling escape in quoted atom")
                if self.text[self.pos + 1] == "u":
                    digits = self.text[self.pos + 2:self.pos + 6]
                    if not re.fullmatch("(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}", digits):
                        self.fail("bad \\u escape in quoted atom")
                    out.append(chr(int(digits, 16)))
                    self.pos += 6
                    continue
                out.append(self.text[self.pos + 1])
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                if not out:
                    self.fail("empty quoted atom")
                return Atom("".join(out))
            out.append(ch)
            self.pos += 1


def _ref_parse(s):
    r = _RefReader(s)
    t = r.read_term()
    r.skip_ws()
    if r.pos < len(r.text):
        raise ParseError("trailing input after term", col=r.pos + 1)
    return t


def _outcome(parse, s):
    try:
        return "term", parse(s)
    except ParseError as e:
        return "error", e.detail, e.col


_PIECES = ["(", ")", "{", "}", ",", '"', " ", "\t", "\\", "a", "Z9", "_.+-", "u",
           "\\u0041", "\\u00e9", "\\uD800", "\\udfff", "\\u12", "\\u2028", "é", "#", "\n"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_reader_agrees_with_the_recursive_reference(s):
    assert _outcome(parse_term, s) == _outcome(_ref_parse, s)


def test_reader_agrees_with_the_reference_on_fuzzed_strings():
    rng = random.Random(7)
    for _ in range(5000):
        s = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 30)))
        assert _outcome(parse_term, s) == _outcome(_ref_parse, s), s


def test_reader_reports_the_column_of_a_missing_separator():
    with pytest.raises(ParseError) as e:
        parse_term("(a, b c)")
    assert (e.value.detail, e.value.col) == ("expected ',' or ')'", 7)
    with pytest.raises(ParseError) as e:
        parse_term(" (a, b) {c} ")
    assert (e.value.detail, e.value.col) == ("trailing input after term", 9)


def test_readers_return_one_object_per_name():
    t1 = parse_term('(a, "b", a)')
    t2 = parse_term('{b, "a"}')
    a, b = parse_term('"a"'), parse_term("b")
    assert t1.items[0] is t1.items[2] is t2.items[0] is a is Atom("a")
    assert t1.items[1] is t2.items[1] is b is Atom("b")


def test_deeply_nested_term_parses_and_encodes_in_linear_time():
    start = time.perf_counter()
    s = "(" * 100_000 + ")" * 100_000
    t = parse_term(s)
    assert encode(t) == s and encode(t) == s
    assert time.perf_counter() - start < 10


def _ref_encode(t):
    """The encoding as first written, recursively and with nothing stored."""
    if isinstance(t, Atom):
        if re.fullmatch(r"[A-Za-z0-9_.+-]+", t.name):
            return t.name
        escaped = t.name.replace("\\", "\\\\").replace('"', '\\"')
        escaped = re.sub("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]",
                         lambda m: f"\\u{ord(m.group()):04x}", escaped)
        return '"' + escaped + '"'
    if isinstance(t, Tup):
        return "(" + ",".join(_ref_encode(x) for x in t.items) + ")"
    return "{" + ",".join(_ref_encode(x) for x in t.items) + "}"


def _subterms(t):
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        out.append(x)
        if not isinstance(x, Atom):
            todo.extend(x.items)
    return out


@given(_terms, st.randoms(use_true_random=False))
def test_encode_agrees_with_the_recursive_reference(t, rng):
    ref = _ref_encode(t)
    fresh = parse_term(ref)
    assert encode(fresh) == ref and encode(fresh) == ref
    # Encoding the subterms first, in any order, leaves the result unchanged.
    inner = _subterms(parse_term(ref))
    for x in rng.sample(inner, len(inner)):
        assert encode(x) == _ref_encode(x)
    assert encode(inner[0]) == ref


@given(_terms)
def test_copies_and_pickles_of_an_encoded_term_encode_the_same(t):
    enc = encode(t)
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and hash(twin) == hash(t)
        assert encode(twin) == enc == _ref_encode(twin)


def test_encoding_is_stored_on_the_term_and_its_atoms_only():
    a, b = Atom("a"), Atom("b c")
    inner = Tup((a, b))
    t = FinSet((inner, Tup((inner,))))
    assert encode(t) == '{(a,"b c"),((a,"b c"))}'
    assert (t._enc, a._enc, b._enc) == (encode(t), "a", '"b c"')
    assert inner._enc is None
    assert encode_set([inner, a, inner]) == '{a,(a,"b c")}'
    assert inner._enc == '(a,"b c")'


# Quoted names, non-BMP names (U+FFFF sorts before U+10000 by code point,
# after it in UTF-16), digits that sort as text, and bare names.
_SORT_NAMES = ["a", "b", "a b", 'x"y', "q\nr", "\\", "é", "z", "\uffff", "\U00010000",
               "\U0001f600", "10", "2", "-", "."]


def _nested_term(rng, depth):
    """A random term nested up to depth levels of tuples and sets."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        return Atom(rng.choice(_SORT_NAMES))
    items = [_nested_term(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return Tup(items) if r < 0.7 else FinSet(items)


def test_key_sort_equals_sorted_through_lt():
    rng = random.Random(17)
    for _ in range(300):
        xs = [_nested_term(rng, rng.randint(0, 4)) for _ in range(rng.randint(0, 12))]
        # Equal terms built apart, so the sort's stability shows.
        xs += [parse_term(encode(x)) for x in rng.sample(xs, len(xs) // 3)]
        rng.shuffle(xs)
        assert [id(x) for x in _sorted(xs)] == [id(x) for x in sorted(xs)]
        # Pairs sort with plain sorted() as the term order of their items.
        rank = {x: k for k, x in enumerate(_sorted(set(xs)))}
        pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(len(xs))]
        assert [tuple(map(id, p)) for p in sorted(pairs)] == \
            [tuple(map(id, p)) for p in sorted(pairs, key=lambda p: (rank[p[0]], rank[p[1]]))]
        # Sets and their encodings as when sorted through __lt__.
        ref = tuple(sorted(set(xs)))
        assert FinSet(xs).items == ref and FinSet(reversed(xs)).items == ref
        assert encode_set(xs) == "{" + ",".join(_ref_encode(x) for x in ref) + "}"


def _ref_walk(t):
    """The iterative walk encode was before its one-join case: every term
    is written from its items, and nothing is read from or stored on the
    terms."""
    out = []
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
        elif type(x) is Atom:
            out.append(_ref_encode(x))
        else:
            todo.append(")" if type(x) is Tup else "}")
            for y in reversed(x.items):
                todo += (y, ",")
            if x.items:
                todo.pop()
            todo.append("(" if type(x) is Tup else "{")
    return "".join(out)


def test_encode_agrees_with_the_walk_on_partly_encoded_shared_terms():
    rng = random.Random(29)
    for _ in range(200):
        # Subterms shared by object between places and between terms.
        pool = [_nested_term(rng, 2) for _ in range(6)]
        for _ in range(12):
            items = rng.sample(pool, rng.randint(0, 3))
            pool.append(Tup(items) if rng.random() < 0.5 else FinSet(items))
        t = pool[-1]
        subterms = _subterms(t)
        for x in rng.sample(subterms, rng.randint(0, len(subterms))):
            assert encode(x) == _ref_walk(x)
        encoded = {id(x) for x in subterms if x._enc is not None}
        assert encode(t) == _ref_walk(t) == _ref_encode(t)
        for x in subterms:
            if x._enc is not None:
                assert x._enc == _ref_walk(x)
            # Storing is on t, the atoms and what was encoded before only.
            stored = x is t or isinstance(x, Atom) or id(x) in encoded
            assert (x._enc is not None) == stored, x

