import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_build_parse_error_names_the_file_and_its_offset(tmp_path, capsys):
    nosemi = _write(tmp_path, "nosemi.nwk", "((a,b),c)")
    assert main(["build", nosemi]) == 2
    assert f"{nosemi}: parse error at position 9" in capsys.readouterr().err
    two = _write(tmp_path, "two.nwk", "((a,b),c);\n((a,b),,c);\n")
    assert main(["build", two]) == 2
    assert f"{two}: parse error at position 18" in capsys.readouterr().err


def test_build_writes_output_file(tmp_path, capsys):
    f1 = _write(tmp_path, "t.nwk", "((a,b),c);\n")
    out = tmp_path / "super.nwk"
    assert main(["build", f1, "--out", str(out)]) == 0
    capsys.readouterr()
    assert isomorphic(parse_newick(out.read_text().strip()), parse_newick("((a,b),c);"))


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


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_greedy_result_says_whether_it_dropped_an_atom(tmp_path, capsys, mode):
    # `result` is the verdict on the input; greedy exits 0 either way
    inc = _write(tmp_path, "inc.nwk", "((a,b),c);\n((a,c),b);\n")
    assert main(["greedy", inc, "--mode", mode]) == 0
    out, err = capsys.readouterr()
    stats = json.loads(err.strip())
    assert stats["result"] == "incompatible" and stats["report"]["rejected"] == ["(a,c)b"]
    assert len(out.splitlines()) == 1
    comp = _write(tmp_path, "comp.nwk", "((a,b),c);\n((a,b),d);\n")
    assert main(["greedy", comp, "--mode", mode]) == 0
    out, err = capsys.readouterr()
    stats = json.loads(err.strip())
    assert stats["result"] == "compatible" and stats["report"]["rejected"] == []
    assert displays(parse_newick(out.strip()), parse_newick("((a,b),d);"))


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


_WITHOUT_NUMPY = """
import json
import sys
import umtree.cli
assert "numpy" not in sys.modules, "import umtree.cli loaded numpy"
sys.modules["numpy"] = None  # any later numpy import raises ImportError
from umtree.cli import main
codes = {}
for name, args in CASES:
    try:
        codes[name] = main(args)
    except SystemExit as e:
        codes[name] = e.code
print(json.dumps(codes))
"""


def test_every_command_runs_without_numpy(tmp_path):
    # numpy is a test dependency only: every subcommand must run with it unimportable
    files = {
        "ok.nwk": "((a,b),c);\n((a,b),d);\n",
        "inc.nwk": "((a,b),c);\n((a,c),b);\n",
        "nest.nwk": "((a,b)T,c);\n(T,d);\n",
        "rank.nwk": "((a,b)#3,(c,d)#2)#1;\n",
        "side.txt": "predates a c a b\nbounds a c 1 2\n",
        "super.nwk": "((a,b),(c,d));\n",
        "one.nwk": "a;\n",
    }
    f = {name: _write(tmp_path, name, text) for name, text in files.items()}
    cases = [
        ("gen", ["gen", "--leaves", "8", "--trees", "2", "--out", str(tmp_path / "g.nwk")], 0),
        ("build", ["build", f["ok.nwk"]], 0),
        ("build soft", ["build", f["ok.nwk"], "--soft"], 0),
        ("build incompatible", ["build", f["inc.nwk"]], 1),
        ("build nested", ["build", f["nest.nwk"]], 0),
        ("build ranked", ["build", f["rank.nwk"]], 0),
        ("build constraints", ["build", f["ok.nwk"], "--constraints", f["side.txt"]], 0),
        ("build one species", ["build", f["one.nwk"]], 0),
        ("greedy", ["greedy", f["inc.nwk"]], 0),
        ("necessity", ["necessity", f["ok.nwk"], "--atom", "(a,b)c"], 0),
        ("explain", ["explain", f["inc.nwk"]], 0),
        ("enumerate", ["enumerate", f["ok.nwk"], "--limit", "3"], 0),
        ("breakup", ["breakup", f["ok.nwk"]], 0),
        ("check", ["check", f["super.nwk"], f["ok.nwk"]], 0),
    ]
    src = str(Path(umtree.__file__).resolve().parents[1])
    script = f"CASES = {[(name, args) for name, args, _ in cases]!r}\n" + _WITHOUT_NUMPY
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {name: want for name, _, want in cases}


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


@pytest.mark.parametrize(
    "argv",
    [["greedy"], ["necessity", "--atom", "(a,b)T"], ["explain"], ["enumerate"]],
    ids=["greedy", "necessity", "explain", "enumerate"],
)
def test_enclosing_taxon_leaf_is_an_error_outside_build(tmp_path, capsys, argv):
    # T names an internal node and a leaf: build resolves it, the other
    # commands would read it as one more species
    nest = _write(tmp_path, "nest.nwk", "((a,b)T,c);\n(T,d);\n")
    assert main(["build", nest]) == 0
    assert capsys.readouterr().out == "((a,b)T,c,d);\n"
    assert main([argv[0], nest, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'T'" in err
    assert main(["breakup", nest]) == 0
    assert capsys.readouterr().out == "(a,b)c\n"


@pytest.mark.parametrize(
    "argv",
    [["greedy"], ["necessity", "--atom", "(a,b)c"], ["explain"], ["enumerate"]],
    ids=["greedy", "necessity", "explain", "enumerate"],
)
def test_ranked_forest_is_an_error_outside_build(tmp_path, capsys, argv):
    # only build applies ranks: on this forest it exits 1, and the other
    # commands, which would ignore the ranks, must not answer as if it
    # were compatible
    ranked = _write(tmp_path, "ranked.nwk", "((a,b)#2,c)#1;\n((a,b)#3,d)#1;\n")
    assert main(["build", ranked]) == 1
    capsys.readouterr()
    assert main([argv[0], ranked, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "ranked" in err and "build" in err


# -- fuzzed inputs never crash ------------------------------------------------------

_FORESTS = [
    "((a,b),c);\n((a,c),b);\n",
    "(((a,b),c),(d,e));\n((a,b),(f,c));\n",
    "((a,b,c),d);\n((a,b),e);\n",
    "((a,b)#3,(c,d)#2)#1;\n((a,e),c);\n",
    "((a,b)T,c);\n(T,d);\n",
]
_SIDECARS = ["predates a b c d\nbounds a c 1 3\n", "bounds a b 2 2\n# note\npredates a c a b\n"]
_ATOMS = ["(a,b)c", "(a,b,c)", "(a,b)z"]
_LETTERS = "abcdefT"


def _mutate(text, ops):
    """Apply fuzz edits: drop or duplicate a character, swap two labels,
    or set a rank ("#k") or a bounds number to a new value."""
    for kind, p, q in ops:
        if kind == "drop" and text:
            p %= len(text)
            text = text[:p] + text[p + 1 :]
        elif kind == "dup" and text:
            p %= len(text)
            text = text[:p] + text[p] + text[p:]
        elif kind == "swap":
            x, y = _LETTERS[p % len(_LETTERS)], _LETTERS[q % len(_LETTERS)]
            text = text.translate(str.maketrans({x: y, y: x}))
        else:  # "number": the p-th rank or integer, counted over the text
            spans = [m.span() for m in re.finditer(r"-?\d+", text)]
            if spans:
                lo, hi = spans[p % len(spans)]
                text = text[:lo] + str(q - 3) + text[hi:]
    return text


_edits = st.lists(
    st.tuples(st.sampled_from(["drop", "dup", "swap", "number"]), st.integers(0, 99), st.integers(0, 99)),
    max_size=4,
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    forest=st.sampled_from(_FORESTS),
    sidecar=st.sampled_from(_SIDECARS),
    atom=st.sampled_from(_ATOMS),
    forest_edits=_edits,
    sidecar_edits=_edits,
)
def test_mutated_inputs_never_exit_4(tmp_path_factory, forest, sidecar, atom, forest_edits, sidecar_edits):
    # exit 4 means an unexpected exception: every malformed, incompatible
    # or degenerate input must get a verdict or a usage error instead
    d = tmp_path_factory.mktemp("fuzz")
    texts = _mutate(forest, forest_edits), _mutate(sidecar, sidecar_edits)
    f, s = str(d / "f.nwk"), str(d / "s.txt")
    for path, text in zip((f, s), texts):
        Path(path).write_text(text)
    runs = [["check", f, f]]
    for mode in ("--hard", "--soft"):
        runs += [
            ["build", f, "--constraints", s, mode],
            ["build", f, mode],
            ["greedy", f, mode],
            ["necessity", f, "--atom", atom, mode],
            ["explain", f, mode],
            ["breakup", f, mode],
            ["enumerate", f, "--limit", "3", mode],
        ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, *texts, err.getvalue())
