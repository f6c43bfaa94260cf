import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from kshape import cli
from kshape.cli import main
from kshape.errors import IntegrityError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poset_command(tmp_path, capsys):
    dot = tmp_path / "poset.dot"
    code, out, _ = run(capsys, "poset", "--k", "2", "--size", "4", "--dot", str(dot))
    assert code == 0
    assert "vertices: 6  edges: 6" in out
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"4,2,1" -> "4,3,2,1" [label="c (1,3)"];' in text


def test_poset_unwritable_dot_fails_before_any_output(tmp_path, capsys):
    dot = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "poset", "--k", "3", "--size", "3", "--dot", str(dot))
    assert code == 2
    assert "poset of" not in out and out == ""
    assert "error:" in err and not dot.exists()


@pytest.mark.parametrize("where", ["empty", "directory"])
def test_poset_dot_that_is_no_file_path_fails_before_any_output(where, tmp_path, capsys):
    dot = "" if where == "empty" else str(tmp_path)
    code, out, err = run(capsys, "poset", "--k", "2", "--size", "2", "--dot", dot)
    assert code == 2
    assert "vertices:" not in out and out == ""
    assert "error:" in err and list(tmp_path.iterdir()) == []


def test_poset_failed_run_keeps_an_existing_dot_file(tmp_path, capsys):
    dot = tmp_path / "existing.dot"
    dot.write_text("keep\n")
    code, out, err = run(capsys, "poset", "--k", "1", "--size", "3", "--dot", str(dot))
    assert code == 2 and out == "" and "error:" in err
    assert dot.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [dot]  # no temporary file is left
    code, out, _ = run(capsys, "poset", "--k", "2", "--size", "4", "--dot", str(dot))
    assert code == 0 and f"dot written to {dot}" in out
    assert dot.read_text().startswith("digraph")
    assert list(tmp_path.iterdir()) == [dot]


def test_poset_negative_size(capsys):
    code, out, err = run(capsys, "poset", "--k", "2", "--size", "-1")
    assert code == 2
    assert "vertices" not in out
    assert "size must be nonnegative" in err


def test_paths_command(capsys):
    code, out, _ = run(
        capsys, "paths", "--k", "2", "--from", "3,1,1", "--to", "4,3,2,1", "--classes"
    )
    assert code == 0
    assert "2 paths" in out
    assert "2 equivalence classes" in out


@pytest.mark.parametrize(
    "k, src, dst, classes",
    [
        # one class: a composite move and its factorization
        (
            "3", "3,1,1,1", "4,2,1,1",
            "1 equivalence classes\n"
            "  [2 paths, charge 0] rep 3,1,1,1; r:1:1@(2,2); r:1:1@(1,4)\n",
        ),
        (
            "2", "3,1,1", "4,3,2,1",
            "2 equivalence classes\n"
            "  [1 paths, charge 3] rep 3,1,1; r:1:2@(2,2); c:1:3@(4,1)\n"
            "  [1 paths, charge 2] rep 3,1,1; c:1:2@(4,1); r:1:3@(3,2)\n",
        ),
        # no path between the two shapes: no class
        ("2", "4,2", "2,2,1,1", "0 equivalence classes\n"),
        # a shape to itself: one class, holding the empty path
        (
            "2", "3,1,1", "3,1,1",
            "1 equivalence classes\n"
            "  [1 paths, charge 0] rep 3,1,1\n",
        ),
    ],
)
def test_paths_classes_text(capsys, k, src, dst, classes):
    code, out, _ = run(capsys, "paths", "--k", k, "--from", src, "--to", dst, "--classes")
    assert code == 0
    assert out.endswith("\n" + classes)
    assert out.count("equivalence classes") == 1


def test_paths_domain_error(capsys):
    code, _, err = run(capsys, "paths", "--k", "3", "--from", "3,1,1", "--to", "4,3,2,1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "k, src, dst, message",
    [
        ("2", "2", "3", "(3,) is not a 2-shape"),
        ("2", "2,2", "2,2", "(2, 2) is not a 2-shape"),
        ("1", "1", "1", "k must be at least 2: 1"),
    ],
)
def test_paths_rejects_endpoints_that_are_not_k_shapes(capsys, k, src, dst, message):
    code, out, err = run(capsys, "paths", "--k", k, "--from", src, "--to", dst)
    assert code == 2
    assert out == ""
    assert message in err


def test_charge_command(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("1 2 3 5 7 9 10 / 4 6 10 / 5 7 / 8 / 10\n")
    code, out, _ = run(capsys, "charge", "--k", "4", "--tableau", str(f))
    assert code == 0 and out.strip() == "25"
    code, out, _ = run(capsys, "charge", "--k", "4", "--tableau", str(f), "--cocharge")
    assert code == 0 and out.strip() == "16"


def test_charge_kshape_command(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("1 2 4 6 8 9 / 3 5 7 / 4 6 9 / 7 / 9\n")
    code, out, _ = run(capsys, "charge", "--k", "4", "--tableau", str(f), "--kshape")
    assert code == 0 and out.strip() == "16"
    code, out, _ = run(
        capsys, "charge", "--k", "4", "--tableau", str(f), "--kshape", "--cocharge"
    )
    assert code == 0 and out.strip() == "15"


def test_charge_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1 2 3 4 4 5 5 6 / 2 3 5 5 6 / 3 4 7 / 5 6 / 6 / 7\n"))
    code, out, _ = run(capsys, "charge", "--k", "4", "--tableau", "-")
    assert code == 0 and out.strip() == "12"


def test_bijection_command(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("1 2 3 / 3\n")
    code, out, _ = run(capsys, "bijection", "--k", "2", "--tableau", str(f))
    assert code == 0
    assert "path charge 2" in out
    assert "charges: 2 = 0 + 2" in out


def test_bijection_descend_json(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("1 2 / 3\n")
    code, out, _ = run(
        capsys, "bijection", "--k", "3", "--tableau", str(f), "--descend", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [lv["k"] for lv in payload["levels"]] == [3, 2]
    assert payload["total_charge"] == 2


# whole outputs, byte for byte: every level's k, path, target chain and
# charges, and the plain bijection's target, path and charge split
DESCENT_JSON_3 = """\
{
  "source": "1 2 / 3",
  "levels": [
    {
      "k": 3,
      "path": "2,1; r:1:1@(1,3)",
      "chain": [
        "-",
        "1",
        "2",
        "3,1"
      ],
      "charge": 0,
      "cocharge": 1
    },
    {
      "k": 2,
      "path": "3,1; c:1:2@(3,1)",
      "chain": [
        "-",
        "1",
        "2,1",
        "3,2,1"
      ],
      "charge": 2,
      "cocharge": 0
    }
  ],
  "total_charge": 2,
  "total_cocharge": 1
}
"""

DESCENT_TEXT_3 = """\
source: 1 2 / 3
k=3: path 2,1; r:1:1@(1,3) | charge 0 cocharge 1
k=2: path 3,1; c:1:2@(3,1) | charge 2 cocharge 0
total charge 2 cocharge 1
"""

DESCENT_JSON_5 = """\
{
  "source": "1 2 4 / 3 5",
  "levels": [
    {
      "k": 5,
      "path": "3,2",
      "chain": [
        "-",
        "1",
        "2",
        "2,1",
        "3,1",
        "3,2"
      ],
      "charge": 0,
      "cocharge": 0
    },
    {
      "k": 4,
      "path": "3,2; c:1:1@(3,1)",
      "chain": [
        "-",
        "1",
        "2",
        "2,1",
        "3,1,1",
        "3,2,1"
      ],
      "charge": 1,
      "cocharge": 0
    },
    {
      "k": 3,
      "path": "3,2,1; r:1:1@(1,4); c:1:1@(4,1)",
      "chain": [
        "-",
        "1",
        "2",
        "3,1",
        "3,1,1",
        "4,2,1,1"
      ],
      "charge": 1,
      "cocharge": 1
    },
    {
      "k": 2,
      "path": "4,2,1,1; r:1:3@(3,2); c:1:4@(5,1)",
      "chain": [
        "-",
        "1",
        "2,1",
        "3,2,1",
        "4,3,2,1",
        "5,4,3,2,1"
      ],
      "charge": 4,
      "cocharge": 3
    }
  ],
  "total_charge": 6,
  "total_cocharge": 4
}
"""

DESCENT_TEXT_5 = """\
source: 1 2 4 / 3 5
k=5: path 3,2 | charge 0 cocharge 0
k=4: path 3,2; c:1:1@(3,1) | charge 1 cocharge 0
k=3: path 3,2,1; r:1:1@(1,4); c:1:1@(4,1) | charge 1 cocharge 1
k=2: path 4,2,1,1; r:1:3@(3,2); c:1:4@(5,1) | charge 4 cocharge 3
total charge 6 cocharge 4
"""

BIJECTION_TEXT_2 = """\
target (1-tableau): 1 2 3 / 2 3 / 3
path: 3,1; c:1:2@(3,1)
path charge 2 cocharge 0
charges: 2 = 0 + 2
"""


@pytest.mark.parametrize(
    "k, tableau, flags, expected",
    [
        (3, "1 2 / 3", ["--descend", "--json"], DESCENT_JSON_3),
        (3, "1 2 / 3", ["--descend"], DESCENT_TEXT_3),
        (5, "1 2 4 / 3 5", ["--descend", "--json"], DESCENT_JSON_5),
        (5, "1 2 4 / 3 5", ["--descend"], DESCENT_TEXT_5),
        (2, "1 2 3 / 3", [], BIJECTION_TEXT_2),
    ],
    ids=["descend-json-3", "descend-text-3", "descend-json-5", "descend-text-5", "bijection-2"],
)
def test_bijection_output_is_pinned(k, tableau, flags, expected, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(tableau + "\n"))
    code, out, err = run(capsys, "bijection", "--k", str(k), "--tableau", "-", *flags)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("k", [1, 2])
def test_bijection_descend_rejects_a_nonstandard_tableau(k, capsys, monkeypatch):
    """In the tableau "2" letter 1 has no cell; at k = 1 no level runs."""
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n"))
    code, out, err = run(capsys, "bijection", "--k", str(k), "--descend", "--tableau", "-")
    assert (code, out) == (2, "")
    assert err == "error: the weak bijection requires a standard tableau\n"


def test_integrity_error_exits_1(capsys, monkeypatch):
    def broken(t):
        raise IntegrityError("square does not commute")

    monkeypatch.setattr(cli, "descend", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 / 3\n"))
    code, out, err = run(capsys, "bijection", "--k", "3", "--descend", "--tableau", "-")
    assert (code, out, err) == (1, "", "integrity error: square does not commute\n")


def test_bijection_json_without_descend_is_rejected_before_reading(capsys, monkeypatch):
    class Unread:
        def read(self):
            pytest.fail("the tableau was read")

    monkeypatch.setattr("sys.stdin", Unread())
    code, out, err = run(capsys, "bijection", "--k", "3", "--tableau", "-", "--json")
    assert code == 2 and out == ""
    assert err == "error: --json requires --descend\n"


def test_verify_command(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--check", "paths-fixture", "--report", str(report),
    )
    assert code == 0
    assert "PASS paths-fixture" in out
    payload = json.loads(report.read_text())
    assert payload[0]["check"] == "paths-fixture"
    assert payload[0]["passed"] is True


def test_verify_unwritable_report_fails_before_any_sweep(tmp_path, capsys):
    report = tmp_path / "missing" / "r.json"
    code, out, err = run(
        capsys,
        "verify", "--check", "theorem-additivity", "--n-max", "8", "--report", str(report),
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and not report.exists()


@pytest.mark.parametrize("where", ["empty", "directory"])
def test_verify_report_that_is_no_file_path_fails_before_any_sweep(where, tmp_path, capsys):
    report = "" if where == "empty" else str(tmp_path)
    code, out, err = run(capsys, "verify", "--check", "kshape-fixture", "--report", report)
    assert code == 2
    assert "PASS" not in out and out == ""
    assert "error:" in err and list(tmp_path.iterdir()) == []


def test_verify_failed_run_keeps_an_existing_report(tmp_path, capsys, monkeypatch):
    """A check that raises after another has run exits 2 and leaves the
    report file as it was."""
    report = tmp_path / "r.json"
    report.write_text("keep\n")
    real = cli.run_check
    calls = []

    def raise_on_second(name, **params):
        calls.append(name)
        if len(calls) == 2:
            raise ValueError("a check raised mid-run")
        return real(name, **params)

    monkeypatch.setattr(cli, "run_check", raise_on_second)
    code, out, err = run(capsys, "verify", "--check", "gating", "--report", str(report))
    assert code == 2 and "a check raised mid-run" in err
    assert "PASS kshape-fixture" in out and "report written" not in out
    assert report.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [report]


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "no-such-check")
    assert code == 2
    assert "unknown check" in err
    # the message itself, not the repr that str() of a KeyError gives
    code, _, err = run(capsys, "verify", "--check", "nope")
    assert code == 2
    assert err.startswith("error: unknown check 'nope'")


def test_verify_zero_instances_fails(capsys, monkeypatch):
    # every parameter set the CLI accepts has items, so the gate's own
    # check is reached with an instance function that counts none of them
    from kshape import verify

    monkeypatch.setenv("KSHAPE_WORKERS", "1")
    none = replace(verify.CHECKS["theorem-additivity"], instance=lambda item: (0, []))
    monkeypatch.setitem(verify.CHECKS, "theorem-additivity", none)
    code, out, _ = run(capsys, "verify", "--check", "theorem-additivity")
    assert code == 1
    assert "FAIL theorem-additivity instances=0" in out
    assert "no instances ran" in out


def _options(params):
    return [x for key, value in params.items() for x in (f"--{key.replace('_', '-')}", str(value))]


# the least value of each parameter at which each check's sweep still has
# an item; the fixture checks take no parameters
LEAST = {
    "theorem-additivity": {"n_max": 2},
    "descent-classical": {"n_max": 1},
    "charge-cocharge-duality": {"n_max": 1, "k_max": 2},
    "charge-k-stability": {"n_max": 1, "k_max": 2},
    "cover-characterization": {"n_max": 0, "k_max": 2},
    "classical-agreement": {"n_max": 1},
    "bijection-counting": {"n_max": 1, "k_max": 2},
    "bijection-injectivity": {"n_max": 2},
    "t1-branching": {"n_max": 0, "k_max": 2},
    "sigma-involution": {"n_max": 2, "k_max": 2},
    "generic-t-branching": {"n_max": 0, "k_max": 2},
}


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_verify_least_values_run_an_instance(capsys, name):
    # each check's least values run an instance; one below any of them is
    # rejected with exit 2 before any sweep, as no instance could run
    least = LEAST.get(name, {})
    assert set(least) == set(cli.CHECKS[name].defaults)
    code, out, _ = run(capsys, "verify", "--check", name, *_options(least))
    assert code == 0
    assert int(re.search(r" instances=(\d+) ", out).group(1)) > 0
    for key in least:
        below = {p: v - (p == key) for p, v in least.items()}
        code, out, err = run(capsys, "verify", "--check", name, *_options(below))
        assert code == 2
        at = ", ".join(f"{p}={v}" for p, v in below.items())
        assert f"{name} has no instance at {at}" in err
        assert out == ""


@pytest.mark.parametrize("group", ["gating", "all"])
def test_verify_group_below_a_least_value_runs_nothing(capsys, group):
    # n_max 1 is the least value of some checks and below that of others
    code, out, err = run(capsys, "verify", "--check", group, "--n-max", "1")
    assert code == 2
    assert "theorem-additivity has no instance at n_max=1" in err
    assert out == ""


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_verify_bad_worker_count(capsys, monkeypatch, value):
    monkeypatch.setenv("KSHAPE_WORKERS", value)
    code, out, err = run(capsys, "verify", "--check", "paths-fixture")
    assert code == 2
    assert "KSHAPE_WORKERS" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "theorem-additivity", "--k-max", "3"], "k_max"),
        (["--check", "t1-branching", "--k-max", "1"], "k_max"),
        (["--check", "generic-t-branching", "--n-max", "-1"], "n_max"),
        (["--check", "bijection-counting", "--k-max", "1"], "k_max"),
        (["--check", "theorem-additivity", "--n-max", "-1"], "n_max"),
        (["--check", "classical-agreement", "--n-max", "-2"], "n_max"),
    ],
)
def test_verify_bad_parameters(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert message in err
    assert out == ""  # rejected before any sweep ran


def test_verify_has_no_vars_flag(capsys, monkeypatch):
    import kshape.cli as cli

    monkeypatch.setattr(cli, "run_check", lambda name, **params: pytest.fail("a sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "t1-branching", "--vars", "4"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --vars 4" in out.err
    assert out.out == ""


def test_verify_has_no_size_max_flag(capsys):
    # classical-agreement takes n_max, as descent-classical does
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "classical-agreement", "--size-max", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --size-max 4" in capsys.readouterr().err


def test_verify_group_rejects_parameter_no_check_takes(capsys, monkeypatch):
    import kshape.cli as cli

    fixtures = {n: c for n, c in cli.CHECKS.items() if not c.defaults}
    monkeypatch.setattr(cli, "CHECKS", fixtures)
    code, out, err = run(capsys, "verify", "--check", "gating", "--n-max", "3")
    assert code == 2
    assert "n_max" in err
    assert out == ""


def test_verify_group_passes_only_declared_parameters(capsys, monkeypatch):
    import kshape.cli as cli

    calls = []
    real = cli.run_check

    def spy(name, **params):
        calls.append((name, params))
        return real(name, **params)

    monkeypatch.setattr(cli, "run_check", spy)
    code, out, _ = run(capsys, "verify", "--check", "all", "--n-max", "2", "--k-max", "2")
    assert code == 0
    given = {"n_max": 2, "k_max": 2}
    assert [name for name, _ in calls] == list(cli.CHECKS)
    for name, params in calls:
        declared = cli.CHECKS[name].defaults
        assert params == {p: v for p, v in given.items() if p in declared}, name
    assert out.count("PASS") == len(cli.CHECKS)


@pytest.mark.parametrize("kshape", [False, True])
@pytest.mark.parametrize("grid", ["2 / 1", "2 1", "0 1", "1 2 / / 3", "/ 1 2 /"])
def test_charge_rejects_bad_grid(tmp_path, capsys, grid, kshape):
    f = tmp_path / "t.txt"
    f.write_text(grid + "\n")
    argv = ["charge", "--k", "3", "--tableau", str(f)] + (["--kshape"] if kshape else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("command", ["charge", "bijection"])
def test_k_below_one_is_named(tmp_path, capsys, command):
    f = tmp_path / "t.txt"
    f.write_text("1 2\n")
    code, out, err = run(capsys, command, "--k", "0", "--tableau", str(f))
    assert code == 2
    assert out == ""
    assert "k must be at least 1: 0" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), KSHAPE_WORKERS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "kshape", "verify", "--check", "kshape-fixture"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS kshape-fixture instances=")
