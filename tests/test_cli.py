import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import umtree
from umtree import cli, displays, isomorphic, parse_newick, parse_newick_many
from umtree.cli import main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_build_compatible_exit_0(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "((a,b),c);\n")
    f2 = _write(tmp_path, "t2.nwk", "((a,b),d);\n")
    assert main(["build", f1, f2, "--mode", "soft"]) == 0
    out, err = capsys.readouterr()
    tree = parse_newick(out.strip())
    stats = json.loads(err.strip())
    assert stats["result"] == "compatible"
    assert stats["n"] == 4 and stats["search_nodes"] == 0
    assert displays(tree, parse_newick("((a,b),c);"))
    assert displays(tree, parse_newick("((a,b),d);"))


def test_build_incompatible_exit_1(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "((a,b),c);\n")
    f2 = _write(tmp_path, "t2.nwk", "((a,c),b);\n")
    assert main(["build", f1, f2]) == 1
    _, err = capsys.readouterr()
    assert json.loads(err.strip())["result"] == "incompatible"


def test_build_parse_error_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.nwk", "((a,b),c;\n")
    assert main(["build", bad]) == 2
    _, err = capsys.readouterr()
    assert "position" in err


def test_build_writes_output_file(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    out = str(tmp_path / "super.nwk")
    assert main(["build", f1, "--out", out]) == 0
    capsys.readouterr()
    assert isomorphic(parse_newick(open(out).read().strip()), parse_newick("((a,b),c);"))


def test_build_stats_only_on_stderr(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["build", f1]) == 0
    out, err = capsys.readouterr()
    parse_newick(out.strip())  # stdout is exactly one Newick payload
    json.loads(err.strip())  # stderr is exactly one JSON object


def test_greedy_reports_rejected(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "((a,b),c);\n((a,c),b);\n")
    assert main(["greedy", f1, "--mode", "soft"]) == 0
    out, err = capsys.readouterr()
    assert isomorphic(parse_newick(out.strip()), parse_newick("((a,b),c);"))
    stats = json.loads(err.strip())
    assert stats["report"]["accepted"] == ["(a,b)c"]
    assert stats["report"]["rejected"] == ["(a,c)b"]


def test_necessity_outputs(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["necessity", f1, "--atom", "(a,b)c", "--mode", "soft"]) == 0
    assert capsys.readouterr().out.strip() == "necessary"
    assert main(["necessity", f1, "--atom", "(a,c)b", "--mode", "soft"]) == 0
    assert capsys.readouterr().out.strip() == "not-necessary"


def test_necessity_precondition_exit_3(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n((a,c),b);\n")
    assert main(["necessity", f1, "--atom", "(a,b)c", "--mode", "soft"]) == 3
    capsys.readouterr()


def test_necessity_unknown_species_exit_2(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["necessity", f1, "--atom", "(a,z)c"]) == 2
    capsys.readouterr()


def test_explain_prints_core(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n((a,c),b);\n((c,d),a);\n")
    assert main(["explain", f1, "--mode", "soft"]) == 0
    out, _ = capsys.readouterr()
    assert set(json.loads(out)) == {"(a,b)c", "(a,c)b"}


def test_explain_compatible_exit_3(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["explain", f1]) == 3
    capsys.readouterr()


def test_breakup_soft_prints_atom(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["breakup", f1, "--mode", "soft"]) == 0
    assert capsys.readouterr().out.strip() == "(a,b)c"


def test_breakup_hard_fan(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "(a,b,c,d);\n")
    assert main(["breakup", f1]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4 and all(line.startswith("(") for line in lines)


def test_check_tree_against_itself(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["check", f1, f1]) == 0


def test_check_deep_caterpillar(tmp_path, capsys):
    newick = "s0"
    for i in range(1, 1201):
        newick = f"({newick},s{i})"
    cat = _write(tmp_path, "cat.nwk", newick + ";\n")
    assert main(["check", cat, cat]) == 0


def test_check_crash_is_internal_error_not_a_verdict(tmp_path, capsys, monkeypatch):
    # a crash must not exit 1, which means "does not display"
    def boom(t1, t2):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "displays", boom)
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    assert main(["check", f1, f1]) == 4
    _, err = capsys.readouterr()
    assert err == "error: RuntimeError: boom\n"


def test_check_detects_non_display(tmp_path, capsys):
    sup = _write(tmp_path, "s.nwk", "((a,b),c);\n")
    inp = _write(tmp_path, "i.nwk", "((a,c),b);\n")
    assert main(["check", sup, inp]) == 1
    missing = _write(tmp_path, "m.nwk", "((a,z),b);\n")
    assert main(["check", sup, missing]) == 1


def test_check_needs_exactly_one_supertree(tmp_path, capsys):
    # the second tree displays the input, but check reads one supertree
    sup = _write(tmp_path, "s.nwk", "((a,b),c);\n((a,c),b);\n")
    inp = _write(tmp_path, "i.nwk", "((a,c),b);\n")
    assert main(["check", sup, inp]) == 2
    _, err = capsys.readouterr()
    assert err == f"error: {sup}: expected exactly one supertree, found 2\n"


def test_enumerate_limit_and_payload(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "(a,b,c);\n")
    assert main(["enumerate", f1, "--mode", "soft"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert main(["enumerate", f1, "--mode", "soft", "--limit", "2"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_enumerate_wide_star_is_iterative(tmp_path, capsys):
    # no atoms and 1,770 open cells: the search fixes them one at a time
    star = "(" + ",".join(f"s{i:02d}" for i in range(60)) + ");"
    f1 = _write(tmp_path, "star.nwk", star + "\n")
    assert main(["enumerate", f1, "--soft", "--limit", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and isomorphic(parse_newick(out[0]), parse_newick(star))


def test_enumerate_incompatible_exit_1(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n((a,c),b);\n")
    assert main(["enumerate", f1]) == 1
    assert capsys.readouterr().out == ""


def test_gen_one_leaf_terminates(tmp_path, capsys):
    # run in a child process so that a generator that never returns fails on the timeout
    src = str(Path(umtree.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "umtree.cli", "gen", "--leaves", "1", "--trees", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout == "s000;\ns000;\n"
    forest = _write(tmp_path, "one.nwk", proc.stdout)
    assert main(["build", forest]) == 0
    assert capsys.readouterr().out == "s000;\n"


def test_gen_without_trees_is_usage_error(capsys):
    assert main(["gen", "--leaves", "5", "--trees", "0"]) == 2
    assert "n_trees must be at least 1" in capsys.readouterr().err


def test_gen_deterministic(tmp_path, capsys):
    assert main(["gen", "--leaves", "6", "--trees", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--leaves", "6", "--trees", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert len(parse_newick_many(first)) == 3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pipeline_gen_build_check(tmp_path, capsys, seed):
    forest_file = str(tmp_path / "forest.nwk")
    assert main(["gen", "--leaves", "12", "--trees", "4", "--seed", str(seed),
                 "--out", forest_file]) == 0
    super_file = str(tmp_path / "super.nwk")
    assert main(["build", forest_file, "--out", super_file]) == 0
    capsys.readouterr()
    assert main(["check", super_file, forest_file]) == 0


def test_build_with_predates_constraint(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "((a,c),x);\n")
    f2 = _write(tmp_path, "t2.nwk", "(b,x);\n")
    cons = _write(tmp_path, "c.txt", "# div(a,c) before div(a,b)\npredates a c a b\n")
    assert main(["build", f1, f2, "--constraints", cons]) == 0
    out, _ = capsys.readouterr()
    tree = parse_newick(out.strip())
    assert displays(tree, parse_newick("((a,c),x);"))


def test_build_with_bounds_constraint(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    cons = _write(tmp_path, "c.txt", "bounds a b 2 2\n")
    assert main(["build", f1, "--constraints", cons]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("newick", ["a;", "(a,b);"])
def test_build_one_and_two_species_use_the_matrix_model(tmp_path, capsys, newick):
    f1 = _write(tmp_path, "t.nwk", newick + "\n")
    assert main(["build", f1]) == 0
    out, err = capsys.readouterr()
    assert out == newick + "\n"
    assert json.loads(err)["propagators"] == 1  # the matrix propagator


def test_bounds_apply_to_two_species_forests(tmp_path, capsys):
    # the one cell of a 2-species matrix has the domain [1, 1]
    f1 = _write(tmp_path, "t.nwk", "(a,b);\n")
    ok = _write(tmp_path, "ok.txt", "bounds a b 1 5\n")
    assert main(["build", f1, "--constraints", ok]) == 0
    out_of_range = _write(tmp_path, "far.txt", "bounds a b 2 5\n")
    assert main(["build", f1, "--constraints", out_of_range]) == 1
    unknown = _write(tmp_path, "unknown.txt", "bounds a z 1 1\n")
    assert main(["build", f1, "--constraints", unknown]) == 2
    _, err = capsys.readouterr()
    assert "unknown species 'z'" in err


def test_constraints_unknown_keyword_exit_2(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    cons = _write(tmp_path, "c.txt", "frobnicate a b\n")
    assert main(["build", f1, "--constraints", cons]) == 2
    capsys.readouterr()


def test_constraints_non_integer_bound_names_its_line(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    cons = _write(tmp_path, "c.txt", "# a b from 1 to 3\nbounds a b x 3\n")
    assert main(["build", f1, "--constraints", cons]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cons}:2: ")


@pytest.mark.parametrize(
    "line, message",
    [
        ("bounds a zz 1 3", "unknown species 'zz'"),
        ("predates a zz b c", "unknown species 'zz'"),
        ("bounds a a 1 2", "diagonal cell"),
        ("bounds a b 5 3", "empty range"),  # a usage error, not an incompatible forest
    ],
)
def test_constraints_bad_line_names_its_line(tmp_path, capsys, line, message):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    cons = _write(tmp_path, "c.txt", f"# checked before the model is built\n{line}\n")
    assert main(["build", f1, "--constraints", cons]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cons}:2: ") and message in err


def test_build_ranked_trees_applies_ranks(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "((a,b)#2,c)#1;\n")
    f2 = _write(tmp_path, "t2.nwk", "((a,b)#3,d)#1;\n")  # conflicting rank for {a,b}
    assert main(["build", f1, f2]) == 1
    capsys.readouterr()
    f3 = _write(tmp_path, "t3.nwk", "((a,b)#2,d)#1;\n")
    assert main(["build", f1, f3]) == 0
    capsys.readouterr()


def test_build_partially_ranked_tree_is_usage_error(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "(((a,b)#2,c),d)#1;\n")  # middle node unranked
    assert main(["build", f1]) == 2
    capsys.readouterr()


def test_build_nested_taxa_end_to_end(tmp_path, capsys):
    f1 = _write(tmp_path, "t1.nwk", "((a,b)P,c);\n")
    f2 = _write(tmp_path, "t2.nwk", "((P,e),f);\n")
    assert main(["build", f1, f2, "--mode", "soft"]) == 0
    out, _ = capsys.readouterr()
    assert "P" in out
    f3 = _write(tmp_path, "t3.nwk", "((a,b)Q,c);\n")
    assert main(["build", f1, f3, "--mode", "soft"]) == 1
    _, err = capsys.readouterr()
    assert json.loads(err.strip())["result"] == "incompatible-nested"
