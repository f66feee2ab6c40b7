import copy
import pickle
import random
import time
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from gamecat import (Atom, FinSet, ParseError, Tup, encode, encode_set,
                     parse_term, term_cmp, term_key)


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
    assert copy is not t
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


@given(_terms)
def test_copies_and_pickles_equal_the_original(t):
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
