import itertools
import random

import pytest

from umtree import (
    Fan,
    NewickParseError,
    NotUltrametricError,
    PhyloTree,
    Triple,
    UltrametricIntMatrix,
    all_rooted_trees,
    atom_holds,
    canonical_form,
    depth_labels,
    displays,
    hard_breakup,
    isomorphic,
    leaf,
    leaf_labels,
    matrix_to_tree,
    parse_atom,
    parse_newick,
    parse_newick_many,
    perfectly_displays,
    restrict_and_suppress,
    serialize_newick,
    soft_breakup,
    tree_to_matrix,
)
from umtree.generate import random_tree
import numpy as np

from oracles import triple_codes, displays_by_codes, candidates_with_codes


# -- Newick -------------------------------------------------------------------


def test_parse_caterpillar():
    t = parse_newick("((a,b),c);")
    assert leaf_labels(t) == {"a", "b", "c"}
    assert len(t.children) == 2
    inner = t.children[0]
    assert {c.label for c in inner.children} == {"a", "b"}


def test_parse_internal_label_and_rank():
    t = parse_newick("((a,b)P#2,c);")
    inner = t.children[0]
    assert inner.label == "P" and inner.rank == 2
    t2 = parse_newick("((a,b)#3,c);")
    assert t2.children[0].label is None and t2.children[0].rank == 3
    t3 = parse_newick("((a,b)P,c);")
    assert t3.children[0].label == "P" and t3.children[0].rank is None


def test_parse_duplicate_leaf_label_rejected():
    with pytest.raises(NewickParseError):
        parse_newick("((a,a),b);")
    with pytest.raises(NewickParseError) as exc:
        parse_newick("((a,b),a);")
    assert exc.value.pos == 7  # the repeated label, not the start of the text
    assert "duplicate leaf label 'a'" in str(exc.value)


def test_parse_branch_lengths_ignored_and_whitespace():
    t = parse_newick(" ( ( a:0.5 , b:1e-3 ) : 2.0 , c ) ;")
    assert isomorphic(t, parse_newick("((a,b),c);"))


@pytest.mark.parametrize(
    "bad",
    ["", "(a);", "((a,b),c)", "(a,,b);", "(a,b)];", "(a,b); x", "(a,#b);", "(a,b)#0;"],
)
def test_parse_errors_carry_position(bad):
    with pytest.raises(NewickParseError) as exc:
        parse_newick(bad)
    assert "position" in str(exc.value)


def test_parse_serialize_round_trip():
    texts = ["((a,b),c);", "(a,b,c,d);", "((a,b)P#2,(c,d)#1);", "a;", "(x_1,y.2,z-3);"]
    for text in texts:
        assert serialize_newick(parse_newick(text)) == text.replace(" ", "")


def test_parse_newick_many():
    trees = parse_newick_many("((a,b),c);\n(d,e);\n")
    assert len(trees) == 2
    with pytest.raises(NewickParseError):
        parse_newick_many("   ")


def test_parse_atom():
    assert parse_atom("(b,a)c") == Triple.of("a", "b", "c")
    assert parse_atom("(c,a,b)") == Fan.of("a", "b", "c")
    with pytest.raises(ValueError):
        parse_atom("(a,b")


# -- depths -------------------------------------------------------------------


def test_depth_labels_examples():
    t = parse_newick("((a,b),c);")
    d = depth_labels(t)
    assert d[t] == 1
    assert d[t.children[0]] == 2

    fan = parse_newick("(a,b,c);")
    assert depth_labels(fan)[fan] == 1

    cat = parse_newick("((((a,b),c),d),e);")
    assert max(depth_labels(cat)[n] for n in depth_labels(cat) if not n.is_leaf) == 4


# -- tree <-> matrix ------------------------------------------------------------


def test_tree_to_matrix_examples():
    m = tree_to_matrix(parse_newick("((a,b),c);"))
    assert m.value("a", "b") == 2
    assert m.value("a", "c") == 1 and m.value("b", "c") == 1

    m = tree_to_matrix(parse_newick("(a,b,c);"))
    assert all(m.value(x, y) == 1 for x, y in itertools.combinations("abc", 2))

    m = tree_to_matrix(parse_newick("((a,b),(c,d));"))
    assert m.value("a", "b") == 2 and m.value("c", "d") == 2
    assert m.value("a", "c") == m.value("b", "d") == 1


def test_tree_to_matrix_deep_caterpillar_is_iterative():
    # built from nodes, not parsed: parse_newick still recurses
    n = 1500
    t = leaf("s0000")
    for i in range(1, n):
        t = PhyloTree(children=(t, leaf(f"s{i:04d}")))
    m = tree_to_matrix(t)
    assert m.value("s0000", "s0001") == n - 1  # the deepest cherry
    # leaf i > 0 joins the caterpillar at depth n - i
    idx = np.arange(n)
    want = n - np.maximum.outer(idx, idx)
    np.fill_diagonal(want, 0)
    assert (m.values == want).all()


def test_matrix_to_tree_examples():
    m = UltrametricIntMatrix(("a", "b", "c"), np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]]))
    assert isomorphic(matrix_to_tree(m), parse_newick("((a,b),c);"))

    m = UltrametricIntMatrix(("a", "b", "c"), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    assert isomorphic(matrix_to_tree(m), parse_newick("(a,b,c);"))

    bad = UltrametricIntMatrix(("a", "b", "c"), np.array([[0, 2, 1], [2, 0, 3], [1, 3, 0]]))
    with pytest.raises(NotUltrametricError) as exc:
        matrix_to_tree(bad)
    assert exc.value.triple == (0, 1, 2)


def test_matrix_to_tree_invariant_under_relabelling():
    m1 = UltrametricIntMatrix(("a", "b", "c"), np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]]))
    m2 = UltrametricIntMatrix(("a", "b", "c"), np.array([[0, 9, 4], [9, 0, 4], [4, 4, 0]]))
    assert isomorphic(matrix_to_tree(m1), matrix_to_tree(m2))


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    t = random_tree([f"s{i}" for i in range(n)], rng)
    assert isomorphic(matrix_to_tree(tree_to_matrix(t)), t)


def _no_tie(values, triple):
    a, b, c = (values[i][j] for i, j in itertools.combinations(triple, 2))
    lo = min(a, b, c)
    return [a, b, c].count(lo) < 2


def _first_violating_triple(values):
    n = len(values)
    return next(t for t in itertools.combinations(range(n), 3) if _no_tie(values, t))


def _readoff_error(values, monkeypatch):
    """The read-off's violating triple, and whether it needed the full scan."""
    from umtree import phylo

    full_scans = []
    scan = phylo._find_violating_triple
    monkeypatch.setattr(phylo, "_find_violating_triple", lambda rows: full_scans.append(1) or scan(rows))
    labels = tuple(f"s{i}" for i in range(len(values)))
    with pytest.raises(NotUltrametricError) as exc:
        matrix_to_tree(UltrametricIntMatrix(labels, np.array(values)))
    monkeypatch.undo()
    return exc.value.triple, bool(full_scans)


def test_violating_triple_comes_from_the_failing_pair(monkeypatch):
    # perturbed tree matrices: one scan over the third leaf of the pair
    # the read-off rejected finds a violating triple, with no full scan
    rng = random.Random(5)
    found = 0
    while found < 300:
        n = rng.randint(3, 12)
        values = tree_to_matrix(random_tree([f"s{i}" for i in range(n)], rng)).values.tolist()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            values[i][j] = values[j][i] = rng.randint(1, n)
        try:
            matrix_to_tree(UltrametricIntMatrix(tuple(f"s{i}" for i in range(n)), np.array(values)))
            continue
        except NotUltrametricError:
            pass
        triple, full_scan = _readoff_error(values, monkeypatch)
        if full_scan:
            continue
        found += 1
        assert list(triple) == sorted(set(triple)) and _no_tie(values, triple)


def test_violating_triple_falls_back_to_the_full_scan(monkeypatch):
    # the rejected pair lies in no violating triple here: the full scan
    # reports the first violating triple of the matrix
    values = [
        [0, 3, 2, 3, 4, 3, 3],
        [3, 0, 2, 2, 1, 3, 3],
        [2, 2, 0, 2, 1, 2, 2],
        [3, 2, 2, 0, 3, 2, 2],
        [4, 1, 1, 3, 0, 1, 1],
        [3, 3, 2, 2, 1, 0, 3],
        [3, 3, 2, 2, 1, 3, 0],
    ]
    triple, full_scan = _readoff_error(values, monkeypatch)
    assert full_scan and triple == _first_violating_triple(values) == (0, 1, 3)


def _caterpillar(n, labels=None):
    """((..((s0000,s0001),s0002)..),s<n-1>), built from nodes; labels maps
    an internal node's leaf count to its taxon label."""
    labels = labels or {}
    t = leaf("s0000")
    for i in range(1, n):
        t = PhyloTree(children=(t, leaf(f"s{i:04d}")), label=labels.get(i + 1))
    return t


def _caterpillar_newick(n):
    text = "s0000"
    for i in range(1, n):
        text = f"({text},s{i:04d})"
    return text + ";"


def test_matrix_to_tree_deep_caterpillar_is_iterative():
    n = 1200
    t = matrix_to_tree(tree_to_matrix(_caterpillar(n)))
    # the read-off is the caterpillar itself, children in the same order
    for i in range(n - 1, 0, -1):
        t, last = t.children
        assert last.label == f"s{i:04d}"
    assert t.label == "s0000"


def test_hard_breakup_deep_caterpillar_is_iterative():
    n = 1200
    cat = _caterpillar(n)
    atoms = hard_breakup(cat)
    assert len(atoms) == n - 2  # one triple per non-root interior node
    m = tree_to_matrix(cat)
    assert all(atom_holds(m, a) for a in atoms)


def test_newick_round_trip_deep_caterpillar():
    text = _caterpillar_newick(1200)
    tree = parse_newick(text)
    assert serialize_newick(tree) == text
    assert isomorphic(tree, _caterpillar(1200))


def test_canonical_form_deep_caterpillar():
    cat = _caterpillar(1200)
    # "(" sorts before "s", so the canonical form keeps every child order
    assert canonical_form(cat) == _caterpillar_newick(1200)[:-1]
    mirrored = leaf("s0000")
    for i in range(1, 1200):
        mirrored = PhyloTree(children=(leaf(f"s{i:04d}"), mirrored))
    assert isomorphic(cat, mirrored)
    assert not isomorphic(cat, _caterpillar(1200, {600: "P"}))


def test_restrict_and_display_deep_caterpillar():
    cat = _caterpillar(1200)
    evens = [f"s{i:04d}" for i in range(0, 1200, 2)]
    restricted = restrict_and_suppress(cat, evens)
    want = leaf("s0000")
    for lab in evens[1:]:
        want = PhyloTree(children=(want, leaf(lab)))
    assert canonical_form(restricted) == canonical_form(want)
    assert displays(cat, restricted)
    swapped = PhyloTree(children=(PhyloTree(children=(leaf("s0000"), leaf("s0002"))), leaf("s0001")))
    assert not displays(cat, swapped)


def test_perfectly_displays_deep_caterpillar():
    labelled = _caterpillar(1200, {k: f"T{k}" for k in range(2, 1201, 7)})
    assert perfectly_displays(labelled, labelled)
    assert not perfectly_displays(labelled, _caterpillar(1200, {2: "T9"}))


# -- breakup ------------------------------------------------------------------


def test_hard_breakup_examples():
    assert hard_breakup(parse_newick("((a,b),c);")) == [Triple.of("a", "b", "c")]
    assert hard_breakup(parse_newick("(a,b,c);")) == [Fan.of("a", "b", "c")]
    fans = hard_breakup(parse_newick("(a,b,c,d);"))
    assert set(fans) == {
        Fan.of("a", "b", "c"),
        Fan.of("a", "b", "d"),
        Fan.of("a", "c", "d"),
        Fan.of("b", "c", "d"),
    }
    assert len(fans) == 4


def test_soft_breakup_examples():
    assert soft_breakup(parse_newick("((a,b),c);")) == [Triple.of("a", "b", "c")]
    assert soft_breakup(parse_newick("(a,b,c);")) == []
    # the interior fan sheds its first child after each emitted triple
    assert soft_breakup(parse_newick("((a,b,c),d);")) == [
        Triple.of("a", "b", "d"),
        Triple.of("b", "c", "d"),
    ]


# The outsider is the smallest current leaf under the siblings: a collapsed
# sibling shows only the leaf it stands for (its second-to-last child's).
@pytest.mark.parametrize(
    "newick, hard, soft",
    [
        ("((c,b),(a,d));", ["(b,c)a", "(a,d)c"], ["(b,c)a", "(a,d)c"]),
        ("((a,d),(c,b));", ["(a,d)b", "(b,c)a"], ["(a,d)b", "(b,c)a"]),
        ("(((c,b,a),d),e);", ["(a,b,c)", "(a,b)d", "(b,d)e"], ["(b,c)d", "(a,b)d", "(b,d)e"]),
    ],
)
def test_breakup_outsider_is_the_collapsed_siblings_leaf(newick, hard, soft):
    tree = parse_newick(newick)
    assert [str(a) for a in hard_breakup(tree)] == hard
    assert [str(a) for a in soft_breakup(tree)] == soft


def test_breakup_small_trees_empty():
    assert hard_breakup(parse_newick("(a,b);")) == []
    assert soft_breakup(parse_newick("(a,b);")) == []
    assert hard_breakup(parse_newick("a;")) == []


def test_hard_breakup_fan_count_single_node():
    for d in range(3, 8):
        tree = parse_newick("(" + ",".join(f"l{i}" for i in range(d)) + ");")
        atoms = hard_breakup(tree)
        assert all(isinstance(a, Fan) for a in atoms)
        assert len(atoms) == d * (d - 1) * (d - 2) // 6


def test_soft_breakup_binary_tree_no_fans():
    rng = random.Random(5)
    for _ in range(20):
        t = random_tree([f"s{i}" for i in range(rng.randint(3, 12))], rng, binary=True)
        atoms = soft_breakup(t)
        assert atoms and all(isinstance(a, Triple) for a in atoms)
        assert hard_breakup(t) == atoms  # no multifurcation: both agree


@pytest.mark.parametrize("seed", range(30))
def test_breakup_soundness_atoms_displayed_by_source(seed):
    rng = random.Random(seed)
    t = random_tree([f"s{i}" for i in range(rng.randint(3, 12))], rng)
    m = tree_to_matrix(t)
    for atom in hard_breakup(t) + soft_breakup(t):
        assert atom_holds(m, atom), (serialize_newick(t), str(atom))


def test_soft_breakup_sufficient_for_binary_trees():
    # a binary tree is the only tree on its leaves displaying all its triples
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(3, 6)
        labels = tuple(sorted(f"s{i}" for i in range(n)))
        t = random_tree(labels, rng, binary=True)
        atom_codes = {tuple(sorted(a.species)): _atom_code(a) for a in soft_breakup(t)}
        matches = [
            cand
            for cand, codes in candidates_with_codes(labels)
            if all(codes[k] == c for k, c in atom_codes.items())
        ]
        assert len(matches) == 1 and isomorphic(matches[0], t)


def _atom_code(atom):
    x, y, z = sorted(atom.species)
    if isinstance(atom, Fan):
        return 0
    pair = {atom.x, atom.y}
    return 1 if pair == {x, y} else 2 if pair == {x, z} else 3


# -- restriction and display ------------------------------------------------------


def test_restrict_examples():
    t = parse_newick("((a,b),c);")
    assert isomorphic(restrict_and_suppress(t, {"a", "c"}), parse_newick("(a,c);"))

    t = parse_newick("((a,(b,d)),c);")
    assert isomorphic(restrict_and_suppress(t, {"a", "b", "c"}), parse_newick("((a,b),c);"))

    t = parse_newick("((a,b),(c,d));")
    assert isomorphic(restrict_and_suppress(t, leaf_labels(t)), t)


def test_restrict_validates_labels():
    t = parse_newick("(a,b);")
    with pytest.raises(ValueError):
        restrict_and_suppress(t, {"a", "z"})
    with pytest.raises(ValueError):
        restrict_and_suppress(t, set())


def test_displays_examples():
    t1 = parse_newick("((a,b),c);")
    assert displays(t1, parse_newick("(a,b);"))
    assert not displays(t1, parse_newick("((a,c),b);"))
    assert displays(t1, t1)


def test_displays_leaf_subset_precondition():
    with pytest.raises(ValueError):
        displays(parse_newick("(a,b);"), parse_newick("(a,z);"))


def test_displays_reflexive_transitive_spotcheck():
    rng = random.Random(11)
    for _ in range(15):
        labels = [f"s{i}" for i in range(5)]
        t = random_tree(labels, rng)
        assert displays(t, t)
        mid = restrict_and_suppress(t, labels[:4])
        small = restrict_and_suppress(t, labels[:3])
        assert displays(t, mid) and displays(mid, small)
        assert displays(t, small)


def test_displays_matches_triple_code_oracle():
    rng = random.Random(13)
    for _ in range(40):
        labels = [f"s{i}" for i in range(6)]
        t_sup = random_tree(labels, rng)
        sub = rng.sample(labels, rng.randint(2, 6))
        t_in = random_tree(sub, rng)
        got = displays(t_sup, t_in)
        want = displays_by_codes(triple_codes(t_sup), triple_codes(t_in))
        assert got == want


# -- perfect display -----------------------------------------------------------


def test_perfectly_displays_positive():
    out = parse_newick("(((a,b)P,g),c,(d,e));")
    t1 = parse_newick("((a,b)P,c);")
    assert perfectly_displays(out, t1)


def test_perfectly_displays_gained_descendant():
    # c slipped under P in the output: ancestor structure broken
    out = parse_newick("((a,b,c)P,d);")
    t1 = parse_newick("((a,b)P,c);")
    assert not perfectly_displays(out, t1)


def test_perfectly_displays_missing_label():
    out = parse_newick("((a,b),c);")  # no P anywhere
    t1 = parse_newick("((a,b)P,c);")
    assert not perfectly_displays(out, t1)


# -- isomorphism ----------------------------------------------------------------


def test_isomorphic_examples():
    assert isomorphic(parse_newick("((a,b),c);"), parse_newick("((b,a),c);"))
    assert not isomorphic(parse_newick("((a,b),c);"), parse_newick("((a,c),b);"))
    assert not isomorphic(parse_newick("(a,b,c);"), parse_newick("((a,b),c);"))


def test_isomorphic_respects_internal_labels():
    assert not isomorphic(parse_newick("((a,b)P,c);"), parse_newick("((a,b)Q,c);"))
    assert isomorphic(parse_newick("((a,b)P#1,c);"), parse_newick("((b,a)P#1,c);"))


# -- exhaustive enumeration -------------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 26), (5, 236)])
def test_all_rooted_trees_counts(n, count):
    labels = [f"s{i}" for i in range(n)]
    trees = list(all_rooted_trees(labels))
    assert len(trees) == count
    forms = {canonical_form(t) for t in trees}
    assert len(forms) == count  # pairwise non-isomorphic


def test_all_rooted_trees_three_leaves_shapes():
    trees = list(all_rooted_trees(["a", "b", "c"]))
    forms = {canonical_form(t) for t in trees}
    assert forms == {
        canonical_form(parse_newick(s))
        for s in ["((a,b),c);", "((a,c),b);", "((b,c),a);", "(a,b,c);"]
    }


def test_all_rooted_trees_guard():
    with pytest.raises(ValueError):
        list(all_rooted_trees([f"s{i}" for i in range(9)]))
