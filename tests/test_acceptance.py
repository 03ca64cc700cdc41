"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its measured runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from functools import lru_cache

from umtree import (
    Engine,
    Fan,
    Forest,
    PropagateResult,
    Store,
    Triple,
    apply_nested_taxa,
    attach_labels,
    build_model,
    build_supertree,
    canonical_form,
    cp_build,
    displays,
    enumerate_supertrees,
    explain_conflict,
    greedy_build,
    isomorphic,
    nested_preprocess,
    parse_newick,
    perfectly_displays,
    post_um_matrix,
    taxa_descendants,
    tree_to_matrix,
)
from umtree.generate import random_forest, random_tree
from umtree.relations import post_atom
from umtree.ultrametric import MrcaMatrix, UltrametricMatrix

from oracles import (
    all_boxes,
    atom_code,
    bcz_box_oracle,
    candidates_with_codes,
    displays_by_codes,
    matrix_to_tree,
    nested_rows,
    post_delayed_disjunction_um3,
    post_um3,
    post_um3 as _post_um3,
    triple_codes,
    ultrametric_tuples,
    um3_fixpoint,
)


@contextmanager
def criterion(num: int, desc: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    shown = f"{elapsed:.3f}s" + (f" <= {budget_s}s" if budget_s else "")
    if budget_s is not None and elapsed > budget_s:
        print(f"criterion {num:02d} FAIL (over budget, {shown}): {desc}")
        raise AssertionError(f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.3f}s")
    print(f"criterion {num:02d} PASS ({shown}): {desc}")


def _atom_forest(atoms):
    trees = []
    for a in atoms:
        if isinstance(a, Triple):
            trees.append(parse_newick(f"(({a.x},{a.y}),{a.z});"))
        else:
            trees.append(parse_newick(f"({a.x},{a.y},{a.z});"))
    return Forest.from_trees(trees)


def _random_atoms(species, count, rng):
    atoms = []
    for _ in range(count):
        a, b, c = rng.sample(species, 3)
        atoms.append(Triple.of(a, b, c) if rng.random() < 0.7 else Fan.of(a, b, c))
    return atoms


def test_criterion_01_specialised_propagator_prunes_weak_encoding_does_not():
    # warm-up so the timed section measures steady-state work only
    um3_fixpoint(((1, 3), (2, 3), (3, 3)))
    with criterion(1, "specialised triple propagator prunes where the weak one cannot", 0.001):
        s = Store()
        e = Engine(s)
        x, y, z = s.new_var(1, 3), s.new_var(2, 3), s.new_var(3, 3)
        post_um3(e, x, y, z)
        assert e.propagate() is PropagateResult.FIXPOINT
        assert s.domain(x) == (2, 3)
        assert s.domain(y) == (2, 3) and s.domain(z) == (3, 3)

        s2 = Store()
        e2 = Engine(s2)
        x2, y2, z2 = s2.new_var(1, 3), s2.new_var(2, 3), s2.new_var(3, 3)
        post_delayed_disjunction_um3(e2, x2, y2, z2)
        assert e2.propagate() is PropagateResult.FIXPOINT
        assert s2.domain(x2) == (1, 3)
        assert s2.domain(y2) == (2, 3) and s2.domain(z2) == (3, 3)


@lru_cache(maxsize=1)
def _bcz_sweep():
    """Fixpoints and oracle answers for all interval triples within [0, 5]."""
    tuples = ultrametric_tuples(5)
    boxes = all_boxes(5)
    results = []
    for triple in itertools.product(boxes, repeat=3):
        results.append((triple, um3_fixpoint(triple), bcz_box_oracle(triple, tuples)))
    return results


def test_criterion_02_bcz_oracle_equivalence_exhaustive():
    with criterion(2, "9261 interval triples match the brute-force closure exactly", 5.0):
        sweep = _bcz_sweep()
        assert len(sweep) == 21**3
        for boxes, got, want in sweep:
            assert got == want, boxes


def test_criterion_03_lower_bounds_mutually_supportive():
    with criterion(3, "lower-bound tuples tie for the minimum at every fixpoint"):
        checked = 0
        for boxes, got, _ in _bcz_sweep():
            if got is None:
                continue
            lbs = [lo for lo, _ in got]
            assert lbs.count(min(lbs)) >= 2, boxes
            checked += 1
        assert checked > 1000


def test_criterion_04_matrix_equals_decomposition_500():
    with criterion(4, "matrix propagator equals triple decomposition on 500 instances", 30.0):
        rng = random.Random(404)
        for _ in range(500):
            n = rng.randint(3, 8)
            labels = [f"s{i}" for i in range(n)]
            atoms = _random_atoms(labels, rng.randint(0, 10), rng)

            def run(decomposed):
                s = Store()
                e = Engine(s)
                m = MrcaMatrix(s, labels)
                if decomposed:
                    for i, j, k in itertools.combinations(range(n), 3):
                        _post_um3(e, m.cell(i, j), m.cell(i, k), m.cell(j, k))
                else:
                    post_um_matrix(e, m)
                for a in atoms:
                    post_atom(e, m, a)
                if e.propagate() is PropagateResult.FAILURE:
                    return None
                return [s.domain(v) for v in m.cell_vars]

            assert run(True) == run(False)


def test_criterion_05_round_trip_1000_trees():
    with criterion(5, "matrix->tree inverts tree->matrix on 1000 random trees", 30.0):
        rng = random.Random(505)
        for _ in range(1000):
            n = rng.randint(2, 64)
            t = random_tree([f"s{i:03d}" for i in range(n)], rng)
            assert isomorphic(matrix_to_tree(tree_to_matrix(t)), t)


@lru_cache(maxsize=1)
def _compatible_forests_500():
    rng = random.Random(606)
    out = []
    for _ in range(500):
        n = rng.randint(3, 40)
        k = rng.randint(2, 4)
        out.append(Forest.from_trees(random_forest(n, k, 0.25, rng)))
    return out


def test_criterion_06_rebuild_displays_every_input():
    with criterion(6, "500 generated forests rebuild with no search, displaying all inputs", 60.0):
        for forest in _compatible_forests_500():
            model = build_model(forest, "hard")
            tree = cp_build(model)
            assert tree is not None
            assert model.engine.stats.search_nodes == 0
            for t in forest.trees:
                assert displays(tree, t)


def test_criterion_07_binary_tree_exact_recovery():
    with criterion(7, "200 binary trees recovered exactly from their soft breakup", 30.0):
        rng = random.Random(707)
        for _ in range(200):
            n = rng.randint(3, 20)
            t = random_tree([f"s{i}" for i in range(n)], rng, binary=True)
            forest = Forest.from_trees([t])
            rebuilt = cp_build(build_model(forest, "soft"))
            assert rebuilt is not None and isomorphic(rebuilt, t)


def _oracle_compatible(forest):
    wanted = [triple_codes(t) for t in forest.trees]
    return any(
        all(displays_by_codes(codes, w) for w in wanted)
        for _, codes in candidates_with_codes(tuple(forest.species))
    )


def test_criterion_08_compatibility_verdict_vs_oracle():
    with criterion(8, "compatibility verdict matches exhaustive enumeration", 60.0):
        all_four = [
            Triple.of("a", "b", "c"),
            Triple.of("a", "c", "b"),
            Triple.of("b", "c", "a"),
            Fan.of("a", "b", "c"),
        ]
        for atom in all_four:
            forest = _atom_forest([atom])
            got = cp_build(build_model(forest, "hard")) is not None
            assert got == _oracle_compatible(forest)

        rng = random.Random(808)
        for _ in range(300):
            species = [f"s{i}" for i in range(rng.randint(3, 6))]
            atoms = _random_atoms(species, rng.randint(1, 8), rng)
            forest = _atom_forest(atoms)
            got = cp_build(build_model(forest, "hard")) is not None
            assert got == _oracle_compatible(forest)


def test_criterion_09_necessity_vs_oracle():
    with criterion(9, "necessity matches 'displayed by every supertree' on 200 forests", 120.0):
        from umtree import necessity

        rng = random.Random(909)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 6)
            forest = Forest.from_trees(random_forest(n, rng.randint(1, 3), 0.3, rng))
            if forest.n < 3:
                continue
            x, y, z = rng.sample(forest.species, 3)
            atom = Triple.of(x, y, z) if rng.random() < 0.7 else Fan.of(x, y, z)
            got = necessity(forest, atom, "hard")
            key, code = atom_code(atom)
            wanted = [triple_codes(t) for t in forest.trees]
            sups = [
                codes
                for _, codes in candidates_with_codes(tuple(forest.species))
                if all(displays_by_codes(codes, w) for w in wanted)
            ]
            assert sups, "generated forest must be compatible"
            want = all(codes[key] == code for codes in sups)
            assert got == want
            checked += 1


def test_criterion_10_greedy_first_kept_and_matches_cp_build():
    with criterion(10, "greedy keeps the first of a clash and equals cp_build when compatible"):
        forest = _atom_forest([Triple.of("a", "b", "c"), Triple.of("a", "c", "b")])
        tree, report = greedy_build(forest, "soft")
        assert report.accepted == (Triple.of("a", "b", "c"),)
        assert report.rejected == (Triple.of("a", "c", "b"),)
        assert isomorphic(tree, parse_newick("((a,b),c);"))

        for forest in _compatible_forests_500():
            tree, report = greedy_build(forest, "hard")
            assert report.rejected == ()
            reference = cp_build(build_model(forest, "hard"))
            assert isomorphic(tree, reference)


def test_criterion_11_quickxplain_minimal_cores():
    with criterion(11, "100 incompatible forests yield minimal conflicting cores", 60.0):
        rng = random.Random(111)
        found = 0
        while found < 100:
            species = [f"s{i}" for i in range(rng.randint(4, 8))]
            atoms = _random_atoms(species, rng.randint(3, 12), rng)
            forest = _atom_forest(atoms)
            if cp_build(build_model(forest, "hard")) is not None:
                continue
            found += 1
            core = explain_conflict(forest, "hard")
            assert cp_build(build_model(_atom_forest(list(core.atoms)), "hard")) is None
            for drop in core.atoms:
                rest = [a for a in core.atoms if a != drop]
                if rest:
                    sub = cp_build(build_model(_atom_forest(rest), "hard"))
                    assert sub is not None


def test_criterion_12_space_is_quadratic_with_one_matrix_propagator():
    with criterion(12, "variable and propagator counts are quadratic, one matrix propagator"):
        rng = random.Random(121)
        for n in (20, 40, 80):
            forest = Forest.from_trees(random_forest(n, 3, 0.25, rng))
            assert forest.n == n
            model = build_model(forest, "hard")
            cp_build(model)
            stats = model.engine.stats
            assert model.store.num_vars == n * (n - 1) // 2
            triples = sum(isinstance(a, Triple) for a in model.atoms)
            fans = len(model.atoms) - triples
            # one table per relation kind: a triple is a Less row and an Equal
            # row, a fan an Equal row
            assert stats.peak_propagators <= 4
            rows = {type(p).__name__: p.size() for p in model.engine.propagators}
            # the matrix's undo log: one entry per cell whose ub fell below n - 1,
            # plus at most n - 1 merges per depth 2..n-1
            lowered = sum(model.store.ubs[v] < n - 1 for v in model.matrix.cell_vars)
            assert lowered <= rows.pop("UltrametricMatrix") <= lowered + (n - 1) * (n - 2)
            assert rows == {"Less": triples, "Equal": triples + fans}
            matrix_props = [
                p for p in model.engine.propagators if isinstance(p, UltrametricMatrix)
            ]
            assert len(matrix_props) == 1


def test_criterion_13_hundred_species_under_ten_seconds():
    rng = random.Random(131)
    forest = Forest.from_trees(random_forest(100, 3, 0.25, rng))
    assert forest.n == 100
    with criterion(13, "100-species forest builds in bounded time with no search", 10.0):
        model = build_model(forest, "hard")
        tree = cp_build(model)
        assert tree is not None
        assert model.engine.stats.search_nodes == 0
    for t in forest.trees:
        assert displays(tree, t)


def test_criterion_14_predates_side_constraint(tmp_path):
    with criterion(14, "predates sidecar forces the stated divergence order", 1.0):
        import contextlib
        import io

        from umtree.cli import main

        t1 = tmp_path / "t1.nwk"
        t1.write_text("((a,c),x);\n")
        t2 = tmp_path / "t2.nwk"
        t2.write_text("(b,x);\n")
        cons = tmp_path / "cons.txt"
        cons.write_text("predates a c a b\n")
        out = tmp_path / "super.nwk"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["build", str(t1), str(t2), "--constraints", str(cons),
                         "--out", str(out)]) == 0

        from umtree import Predates

        forest = Forest.from_trees([parse_newick("((a,c),x);"), parse_newick("(b,x);")])
        model = build_model(forest, "hard", sides=[Predates("a", "c", "a", "b")])
        tree = cp_build(model)
        assert tree is not None
        lbs = model.store.lbs
        assert lbs[model.cell("a", "c")] < lbs[model.cell("a", "b")]
        assert displays(tree, forest.trees[0]) and displays(tree, forest.trees[1])
        written = parse_newick(out.read_text().strip())
        assert displays(written, forest.trees[0]) and displays(written, forest.trees[1])


def test_criterion_15_nested_taxa_shapes_and_perfect_display():
    with criterion(15, "nested-taxa constraint shapes and verified reattachment", 5.0):
        forest = Forest.from_trees(
            [parse_newick("(((a,b)P,c),(d,e)Q);"), parse_newick("((b,g)P,(d,e,f)Q);")]
        )
        pre = nested_preprocess(forest)
        model = build_model(pre, "soft")
        apply_nested_taxa(model, pre)
        rows = nested_rows(model)

        le_p = {pair for kind, lab, pair in rows if kind == "le" and lab == "P"}
        assert le_p == {("a", "b"), ("a", "g"), ("b", "g")}  # all pairs of the union
        le_q = {pair for kind, lab, pair in rows if kind == "le" and lab == "Q"}
        assert le_q == {("d", "e"), ("d", "f"), ("e", "f")}
        # cross-tree pairs present: (a,g) spans T1's and T2's descendant sets
        assert ("a", "g") in le_p

        tree = cp_build(model)
        assert tree is not None
        labelled = attach_labels(tree, taxa_descendants(pre), pre.trees)
        for t in pre.trees:
            assert perfectly_displays(labelled, t)

        # leaf-substitution variant (shared enclosing taxon via substitution)
        f2 = Forest.from_trees([parse_newick("((a,b)P,c);"), parse_newick("((P,e),f);")])
        outcome = build_supertree(f2, "soft")
        assert outcome.status == "compatible"
        for t in nested_preprocess(f2).trees:
            assert perfectly_displays(outcome.tree, t)


def test_criterion_16_enumeration_counts():
    with criterion(16, "enumeration: 4 free topologies on 3 species, 1 under a triple", 1.0):
        free = Forest.from_trees([parse_newick("(a,b,c);")])
        trees = enumerate_supertrees(build_model(free, "soft"), 100)
        assert len(trees) == 4
        forms = {canonical_form(t, with_internal_labels=False) for t in trees}
        assert len(forms) == 4

        single = Forest.from_trees([parse_newick("((a,b),c);")])
        trees = enumerate_supertrees(build_model(single, "soft"), 100)
        assert len(trees) == 1
        assert isomorphic(trees[0], parse_newick("((a,b),c);"))
