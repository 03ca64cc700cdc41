import pytest

from umtree import (
    Event,
    Forest,
    IncompatibleNestedError,
    NestedContradictionError,
    PhyloTree,
    apply_nested_taxa,
    attach_labels,
    build_model,
    build_supertree,
    cp_build,
    isomorphic,
    leaf,
    nested_preprocess,
    parse_newick,
    perfectly_displays,
    serialize_newick,
    taxa_descendants,
)

from oracles import nested_rows


def _forest(*newicks):
    return Forest.from_trees([parse_newick(t) for t in newicks])


# -- preprocessing ---------------------------------------------------------------


def test_substitution_replaces_leaf_occurrence():
    f = _forest("((a,b)P,c);", "((P,e),f);")
    out = nested_preprocess(f)
    assert isomorphic(out.trees[0], f.trees[0])
    assert isomorphic(out.trees[1], parse_newick("(((a,b)P,e),f);"))


def test_preprocess_noop_without_leaf_occurrences():
    f = _forest("((a,b)P,c);", "((a,b),d);")
    out = nested_preprocess(f)
    assert [serialize_newick(t) for t in out.trees] == [
        serialize_newick(t) for t in f.trees
    ]


def test_leaf_only_label_is_ordinary_species():
    f = _forest("((P,b),c);", "(P,d);")
    out = nested_preprocess(f)
    assert [serialize_newick(t) for t in out.trees] == [
        serialize_newick(t) for t in f.trees
    ]


def test_mutually_containing_taxa_contradict():
    f = _forest("(x,(b,Q)P);", "(y,(d,P)Q);")
    with pytest.raises(NestedContradictionError):
        nested_preprocess(f)


# -- constraint generation ---------------------------------------------------------


def _fig20_forest():
    # T1 over {a..e}: P encloses {a,b}, Q encloses {d,e}
    # T2 over {b,g,d,e,f}: P encloses {b,g}, Q encloses {d,e,f}
    return _forest("(((a,b)P,c),(d,e)Q);", "((b,g)P,(d,e,f)Q);")


def test_taxa_descendants_unions_across_trees():
    desc = taxa_descendants(_fig20_forest())
    assert desc["P"] == {"a", "b", "g"}
    assert desc["Q"] == {"d", "e", "f"}


def test_generated_constraint_shapes():
    f = _fig20_forest()
    model = build_model(f, "soft")
    apply_nested_taxa(model, f)
    rows = nested_rows(model)

    le_p = {pair for kind, lab, pair in rows if kind == "le" and lab == "P"}
    assert le_p == {("a", "b"), ("a", "g"), ("b", "g")}  # all pairs of the union

    le_q = {pair for kind, lab, pair in rows if kind == "le" and lab == "Q"}
    assert le_q == {("d", "e"), ("d", "f"), ("e", "f")}

    lt_p = {pair for kind, lab, pair in rows if kind == "lt" and lab == "P"}
    assert lt_p == {
        ("a", "c"), ("a", "d"), ("a", "e"),
        ("b", "c"), ("b", "d"), ("b", "e"),
        ("b", "f"), ("d", "g"), ("e", "g"), ("f", "g"),
    }

    lt_q = {pair for kind, lab, pair in rows if kind == "lt" and lab == "Q"}
    assert lt_q == {
        ("a", "d"), ("a", "e"), ("b", "d"), ("b", "e"), ("c", "d"), ("c", "e"),
        ("b", "f"), ("d", "g"), ("e", "g"), ("f", "g"),
    }


def test_taxon_defined_twice_and_used_as_leaf():
    # the leaf P in tree 0 takes the first definition in another tree
    f = _forest("((P,e),f);", "((a,b)P,c);", "((b,g)P,d);")
    pre = nested_preprocess(f)
    assert [serialize_newick(t) for t in pre.trees] == [
        "(((a,b)P,e),f);", "((a,b)P,c);", "((b,g)P,d);",
    ]
    assert taxa_descendants(pre) == {"P": {"a", "b", "g"}}
    model = build_model(pre, "soft")
    apply_nested_taxa(model, pre)
    assert nested_rows(model) == [
        ("le", "P", ("a", "b")), ("le", "P", ("a", "g")), ("le", "P", ("b", "g")),
        ("lt", "P", ("a", "e")), ("lt", "P", ("a", "f")),
        ("lt", "P", ("b", "e")), ("lt", "P", ("b", "f")),
        ("lt", "P", ("a", "c")), ("lt", "P", ("b", "c")),
        ("lt", "P", ("b", "d")), ("lt", "P", ("d", "g")),
    ]
    outcome = build_supertree(f, "soft")
    assert outcome.status == "compatible"
    for t in pre.trees:
        assert perfectly_displays(outcome.tree, t)


def _deep_tree(depth, bottom):
    """A caterpillar of `depth` levels over s1..s<depth> around `bottom`."""
    t = bottom
    for i in range(1, depth + 1):
        t = PhyloTree(children=(t, leaf(f"s{i}")))
    return t


def test_preprocess_substitutes_deep_inside_a_tree():
    deep = _deep_tree(1200, PhyloTree(children=(leaf("P"), leaf("c"))))
    f = Forest.from_trees([deep, parse_newick("((a,b)P,d);")])
    out = nested_preprocess(f).trees[0]
    for _ in range(1200):
        out = out.children[0]
    assert serialize_newick(out) == "((a,b)P,c);"


def test_taxa_vars_have_full_domains():
    f = _fig20_forest()
    model = build_model(f, "soft")
    apply_nested_taxa(model, f)
    n = f.n
    assert set(model.taxa_vars) == {"P", "Q"}
    # rows narrow a taxon variable as soon as they are posted, so its
    # created domain is the old value of its first record of each kind
    trail = model.store.trail
    for v in model.taxa_vars.values():
        created = [
            next((old for u, ev, old in trail if u == v and ev == kind), bound)
            for kind, bound in ((Event.MIN, model.store.lb(v)), (Event.MAX, model.store.ub(v)))
        ]
        assert created == [1, n - 1]


# -- attachment and verification ------------------------------------------------------


def test_attach_labels_single_tree_round_trip():
    f = _forest("((a,b)P,c);")
    model = build_model(f, "soft")
    apply_nested_taxa(model, f)
    tree = cp_build(model)
    assert tree is not None
    labelled = attach_labels(tree, taxa_descendants(f), f.trees)
    assert perfectly_displays(labelled, f.trees[0])
    assert "P" in serialize_newick(labelled)


def test_attach_labels_two_trees_sharing_taxon():
    f = _forest("((a,b)P,c);", "((b,g)P,f);")
    pre = nested_preprocess(f)
    model = build_model(pre, "soft")
    apply_nested_taxa(model, pre)
    tree = cp_build(model)
    assert tree is not None
    labelled = attach_labels(tree, taxa_descendants(pre), pre.trees)
    for t in pre.trees:
        assert perfectly_displays(labelled, t)


def test_attach_labels_on_a_deep_tree():
    tree = _deep_tree(1200, PhyloTree(children=(leaf("a"), leaf("b"))))
    labelled = attach_labels(tree, {"P": frozenset({"a", "b"})}, [parse_newick("((a,b)P,s1);")])
    bottom = labelled
    for _ in range(1200):
        bottom = bottom.children[0]
    assert serialize_newick(bottom) == "(a,b)P;"
    assert perfectly_displays(labelled, labelled)


def test_attach_labels_errors_name_the_taxa():
    tree = parse_newick("((a,b),(c,d));")
    with pytest.raises(IncompatibleNestedError, match="taxon 'P' collapses onto a single species"):
        attach_labels(tree, {"P": frozenset({"c"})}, [])
    with pytest.raises(IncompatibleNestedError, match="taxa 'P' and 'Q' need the same node"):
        attach_labels(tree, {"P": frozenset({"a", "b"}), "Q": frozenset({"b", "a"})}, [])
    labelled = attach_labels(tree, {"P": frozenset({"a", "b"}), "Q": frozenset({"a", "d"})}, [])
    assert serialize_newick(labelled) == "((a,b)P,(c,d))Q;"


def test_attach_labels_collision_reports_incompatible():
    f = _forest("((a,b)P,c);", "((a,b)Q,c);")
    model = build_model(f, "soft")
    apply_nested_taxa(model, f)
    tree = cp_build(model)
    assert tree is not None
    with pytest.raises(IncompatibleNestedError):
        attach_labels(tree, taxa_descendants(f), f.trees)


# -- full pipeline -----------------------------------------------------------------------


def test_build_supertree_fig20_family():
    f = _fig20_forest()
    outcome = build_supertree(f, "soft")
    assert outcome.status == "compatible"
    for t in nested_preprocess(f).trees:
        assert perfectly_displays(outcome.tree, t)


def test_build_supertree_with_substitution():
    f = _forest("((a,b)P,c);", "((P,e),f);")
    outcome = build_supertree(f, "soft")
    assert outcome.status == "compatible"
    for t in nested_preprocess(f).trees:
        assert perfectly_displays(outcome.tree, t)


def test_build_supertree_reports_nested_incompatibility():
    f = _forest("((a,b)P,c);", "((a,b)Q,c);")
    outcome = build_supertree(f, "soft")
    assert outcome.status == "incompatible-nested"
    assert outcome.tree is None


def test_build_supertree_plain_forest_unaffected():
    f = _forest("((a,b),c);", "((a,b),d);")
    outcome = build_supertree(f, "soft")
    assert outcome.status == "compatible"
    assert outcome.model.taxa_vars == {}
