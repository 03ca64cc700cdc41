"""Property tests over generated labelled trees (derandomized, so every
run draws the same examples)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtree import (
    Forest,
    NewickParseError,
    PhyloTree,
    canonical_form,
    displays,
    isomorphic,
    leaf,
    leaf_labels,
    parse_newick,
    parse_newick_many,
    perfectly_displays,
    restrict_and_suppress,
    serialize_newick,
)

from oracles import (
    parse_newick_by_closures,
    parse_newick_many_by_closures,
    perfectly_displays_by_pairs,
    taxon_index,
)

_settings = settings(derandomize=True, max_examples=80, deadline=None, database=None)

_shapes = st.recursive(
    st.just(()), lambda kids: st.lists(kids, min_size=2, max_size=4).map(tuple), max_leaves=12
)
_lengths = st.sampled_from(["", ":1", " :0.25", ": 2e-3", ":-1.5E+2"])


@st.composite
def labelled_trees(draw):
    """(tree, its Newick text with branch lengths, the same text without).

    Leaves are s0, s1, ...; internal nodes may carry a taxon label T<k>
    and a rank.
    """
    shape = draw(_shapes)
    ids = itertools.count()

    def build(sh):
        length = draw(_lengths)
        k = next(ids)
        if not sh:
            return leaf(f"s{k}"), f"s{k}{length}", f"s{k}"
        parts = [build(c) for c in sh]
        label = draw(st.sampled_from([None, f"T{k}"]))
        rank = draw(st.none() | st.integers(1, 50))
        suffix = (label or "") + ("" if rank is None else f"#{rank}")
        tree = PhyloTree(children=tuple(t for t, _, _ in parts), label=label, rank=rank)
        text = "(" + ",".join(x for _, x, _ in parts) + ")" + suffix + length
        plain = "(" + ",".join(p for _, _, p in parts) + ")" + suffix
        return tree, text, plain

    tree, text, plain = build(shape)
    return tree, text + ";", plain + ";"


def _relabel(tree, rng, mode):
    """Copy of the tree whose internal labels are kept, partly dropped, or
    dealt out again to random internal nodes."""
    internal = [nd for nd in _preorder(tree) if nd.children]
    labels = [nd.label for nd in internal if nd.label is not None]
    if mode == "keep":
        new = {id(nd): nd.label for nd in internal}
    elif mode == "drop":
        new = {id(nd): nd.label if rng.random() < 0.5 else None for nd in internal}
    else:
        new = dict.fromkeys(map(id, internal))
        new.update(zip(map(id, rng.sample(internal, len(labels))), labels))

    def copy(nd):
        if not nd.children:
            return nd
        return PhyloTree(children=tuple(map(copy, nd.children)), label=new[id(nd)], rank=nd.rank)

    return copy(tree)


def _preorder(tree):
    yield tree
    for c in tree.children:
        yield from _preorder(c)


def _shuffled(tree, rng):
    if not tree.children:
        return tree
    kids = [_shuffled(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return PhyloTree(children=tuple(kids), label=tree.label, rank=tree.rank)


@_settings
@given(labelled_trees())
def test_newick_round_trip_drops_only_branch_lengths(case):
    tree, text, plain = case
    parsed = parse_newick(text)
    assert serialize_newick(parsed) == plain
    assert serialize_newick(tree) == plain
    assert canonical_form(parsed) == canonical_form(tree)


@_settings
@given(labelled_trees(), st.randoms(use_true_random=False))
def test_canonical_form_ignores_child_order(case, rng):
    tree, _, _ = case
    shuffled = _shuffled(tree, rng)
    assert canonical_form(shuffled) == canonical_form(tree)
    assert canonical_form(shuffled, False) == canonical_form(tree, False)
    assert isomorphic(shuffled, tree)


@_settings
@given(labelled_trees(), st.data())
def test_tree_displays_its_restrictions(case, data):
    tree, _, _ = case
    keep = data.draw(st.sets(st.sampled_from(sorted(leaf_labels(tree))), min_size=1))
    restricted = restrict_and_suppress(tree, keep)
    assert leaf_labels(restricted) == keep
    assert displays(tree, restricted)


@_settings
@given(labelled_trees(), st.data(), st.sampled_from(["keep", "drop", "deal"]))
def test_perfectly_displays_matches_the_pairwise_reference(case, data, mode):
    tree, _, _ = case
    keep = data.draw(st.sets(st.sampled_from(sorted(leaf_labels(tree))), min_size=1))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    t_prime = _relabel(restrict_and_suppress(tree, keep), rng, mode)
    want = perfectly_displays_by_pairs(tree, t_prime)
    assert perfectly_displays(tree, t_prime) == want
    # and the other way round, where the leaf sets usually differ
    assert perfectly_displays(t_prime, tree) == perfectly_displays_by_pairs(t_prime, tree)


@_settings
@given(st.lists(labelled_trees(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_forest_reads_species_and_taxa_from_one_walk(drawn, rng):
    # every tree draws its labels s<k>/T<k> from its own counter, so the
    # same taxa recur across trees; shuffling puts them out of preorder
    trees = [_shuffled(t, rng) for t, _, _ in drawn]
    forest = Forest.from_trees(trees)
    assert forest.species == tuple(sorted(set().union(*map(leaf_labels, trees))))
    assert list(forest.taxa.items()) == list(taxon_index(trees).items())
    for t, state in zip(trees, forest.rank_states):
        ranked = [nd.rank is not None for nd in _preorder(t) if nd.children]
        assert state == ("ranked" if ranked and all(ranked) else "partly ranked" if any(ranked) else "unranked")


# -- the token reader against the closure reader ---------------------------------------

_spaces = st.sampled_from(["", "", "", " ", "\n", "\t ", " \r\n "])
_edit_chars = st.sampled_from(list("(),;:#.") + list("asZ_-") + list("0195") + [" ", "\n", "\t"])


@st.composite
def newick_files(draw):
    """The text of one to three labelled trees with branch lengths, taxon
    labels and ranks, with whitespace drawn around every bracket, comma,
    ';' and ':' and at the ends."""
    trees = draw(st.lists(labelled_trees(), min_size=1, max_size=3))
    text = "".join(draw(_spaces) + t + draw(_spaces) for _, t, _ in trees)
    return "".join(c + draw(_spaces) if c in "(),;:" else c for c in text)


def _outcome(read, text):
    """The trees `read` makes of the text, as exact Newick (labels, ranks
    and child order), or its error message and position."""
    try:
        trees = read(text)
    except NewickParseError as e:
        return str(e), e.pos
    return [serialize_newick(t) for t in (trees if isinstance(trees, list) else [trees])]


def _assert_readers_agree(text):
    assert _outcome(parse_newick, text) == _outcome(parse_newick_by_closures, text)
    assert _outcome(parse_newick_many, text) == _outcome(parse_newick_many_by_closures, text)


@_settings
@given(newick_files())
def test_reader_matches_the_closure_reader(text):
    _assert_readers_agree(text)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(
    newick_files(),
    st.lists(
        st.tuples(st.sampled_from("idr"), st.integers(0, 2**16), _edit_chars), min_size=1, max_size=4
    ),
)
def test_reader_matches_the_closure_reader_on_mutated_text(text, edits):
    # insert, delete or replace characters: the two readers must agree on
    # every tree, or on the message and position of the first error
    chars = list(text)
    for op, at, ch in edits:
        at %= len(chars) + 1
        if op == "i":
            chars.insert(at, ch)
        elif at < len(chars):
            chars[at:at + 1] = [] if op == "d" else [ch]
    _assert_readers_agree("".join(chars))


@pytest.mark.parametrize(
    "text",
    [
        "", " ", ";", "a;", "a#2;", "(a#2,b);", "(a,b) ;\n", "(a,b);(c,d);", "(a,b); x",
        "((a,b)P#2,c);", "((a,b)P #2,c);", "((a,b) #2,c);", "((a,b)# 2,c);", "((a,b) P,c);",
        "((a,b)#0,c);", "((a,b)P#00,c);", "((a,b)#,c);", "((a,b)P#,c);", "((a,b)P#2x,c);",
        "((a,b)#\u0663,c);", "((a,b)P:1#2,c);", "((a,b):1P,c);", "(a:,b);", "(a: -1.5E+2 ,b);",
        "(a:1.,b);", "(a:1e,b);", "(a:1:2,b);", "(a,b)\u00a0;\u2003", "(a);", "(a,,b);",
        "((a,b),a);", "((a,b),\n a);", "(a,b);;", "(a,(b,c)", "(a,b  \n", "(a,b)];", "(a,b)c)d;",
    ],
)
def test_reader_matches_the_closure_reader_on_edge_cases(text):
    # ranks, labels, branch lengths and whitespace where the grammar
    # allows them and just where it does not
    _assert_readers_agree(text)


def test_reader_matches_the_closure_reader_on_a_deep_caterpillar():
    n = 300
    plain = "(" * (n - 1) + "s000," + ",".join(f"s{i:03d})" for i in range(1, n)) + ";"
    ranked = "(" * (n - 1) + "s000:1," + ",".join(f"s{i:03d}) T{i}#{n - i} :0.5" for i in range(1, n))
    ranked += ";"
    for text in (plain, ranked, plain + "\n" + plain.replace("s", "t"), ranked[:-1], plain[1:]):
        _assert_readers_agree(text)
    assert serialize_newick(parse_newick(plain)) == plain
