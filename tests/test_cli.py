import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import ALL_CULLED_CONICS, HUGE_ROOT_CONICS, INFINITE_SCHUR_CONICS, NON_FINITE_CONICS

import polyres.cli
from polyres.cli import main
from polyres.plan import plan_to_json
from polyres.poly import dump_system
from polyres.problems import get

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def write_problem(tmp_path, name, instance=None):
    entry = get(name)
    sys_path = tmp_path / f"{name}.sys"
    sys_path.write_text(dump_system(entry.system))
    inst_path = None
    inst = instance if instance is not None else entry.canonical_instance
    if inst is not None:
        inst_path = tmp_path / f"{name}.inst"
        inst_path.write_text(json.dumps(inst))
    return sys_path, inst_path


def _set_blocks(doc, n_upper, n_b1):
    doc["blocks"]["n_upper"] = n_upper
    doc["monomials"]["n_b1"] = doc["meta"]["n_solutions"] = n_b1


class TestGenerate:
    def test_univariate_size_report(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_linear")
        out = tmp_path / "lin.plan"
        code = main(["generate", "--system", str(sys_path), "--out", str(out), "--seed", "1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "solver size: 1x2" in text
        assert "eigenproblem 1" in text
        assert out.exists()

    def test_two_conics_eig_size(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "two_conics")
        out = tmp_path / "c.plan"
        code = main(["generate", "--system", str(sys_path), "--out", str(out), "--seed", "1"])
        assert code == 0
        text = capsys.readouterr().out
        eig_size = int(text.split("eigenproblem ")[1].split(")")[0])
        assert eig_size >= 4

    def test_negative_seed_accepted(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_linear")
        out = tmp_path / "lin.plan"
        assert main(["generate", "--system", str(sys_path), "--out", str(out), "--seed", "-1"]) == 0
        assert out.exists()

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", str(tmp_path / "nope.sys"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["abc", "1/0", "0.1,"])
    def test_malformed_delta_exits_2(self, tmp_path, capsys, delta):
        sys_path, _ = write_problem(tmp_path, "univariate_linear")
        out = tmp_path / "lin.plan"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", str(sys_path), "--out", str(out), "--delta", delta])
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_max_subset_below_one_exits_2(self, tmp_path, capsys, size):
        sys_path, _ = write_problem(tmp_path, "univariate_linear")
        out = tmp_path / "lin.plan"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", str(sys_path), "--out", str(out), "--max-subset", size])
        assert exc.value.code == 2
        assert "--max-subset" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_exponents_exit_2(self, tmp_path, capsys):
        sys_path = tmp_path / "b.sys"
        terms = [{"coeff": "a", "exps": [True]}, {"coeff": "b", "exps": [False]}]
        sys_path.write_text(json.dumps({"variables": ["x"], "polynomials": [terms]}))
        out = tmp_path / "b.plan"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", str(sys_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "list of ints" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_variable_exits_2(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "two_conics")
        doc = json.loads(sys_path.read_text())
        doc["variables"] = ["x", "x"]
        sys_path.write_text(json.dumps(doc))
        out = tmp_path / "c.plan"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", str(sys_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "'x' is named more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["delta", "exponent"])
    def test_lattice_beyond_int64_exits_2(self, tmp_path, capsys, source):
        sys_path, _ = write_problem(tmp_path, "two_conics")
        argv = ["generate", "--system", str(sys_path), "--out", str(tmp_path / "c.plan")]
        if source == "delta":
            argv += ["--delta", "1e30"]
        else:
            doc = json.loads(sys_path.read_text())
            doc["polynomials"][0][0]["exps"] = [10**19, 0]
            sys_path.write_text(json.dumps(doc))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large" in err and "int64" in err
        assert not (tmp_path / "c.plan").exists()


class TestSolve:
    def test_univariate_roots(self, tmp_path, capsys):
        sys_path, inst_path = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        capsys.readouterr()
        code = main(["solve", "--plan", str(plan_path), "--instance", str(inst_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "x1=+3" in out and "x1=+2" in out
        assert "real=True" in out

    def test_conics_residuals(self, tmp_path, capsys):
        sys_path, inst_path = write_problem(tmp_path, "two_conics")
        plan_path = tmp_path / "c.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        capsys.readouterr()
        code = main(["solve", "--plan", str(plan_path), "--instance", str(inst_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("root ") == 4
        for line in out.strip().splitlines():
            assert float(line.split("residual=")[1].split()[0]) < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_non_finite_root_exits_4(self, tmp_path, capsys):
        # NaN roots are a numeric failure, not roots with a NaN residual
        _, inst_path = write_problem(tmp_path, "two_conics", NON_FINITE_CONICS)
        code = main(["solve", "--plan", str(GOLDEN / "two_conics.plan"), "--instance", str(inst_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert "not finite" in captured.err
        assert "root" not in captured.out

    @staticmethod
    def _solve_conics_fresh(tmp_path, instance, plan_path=GOLDEN / "two_conics.plan"):
        """``polyres solve`` on a two_conics plan, the golden one by default,
        in a fresh process, where numpy warnings would reach stderr."""
        _, inst_path = write_problem(tmp_path, "two_conics", instance)
        src = Path(polyres.cli.__file__).resolve().parents[1]
        argv = ["solve", "--plan", str(plan_path), "--instance", str(inst_path)]
        script = f"import sys\nfrom polyres.cli import main\nsys.exit(main({argv!r}))\n"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)

    def test_non_finite_root_stderr_is_the_message(self, tmp_path):
        proc = self._solve_conics_fresh(tmp_path, NON_FINITE_CONICS)
        assert proc.returncode == 4
        assert proc.stderr == "numeric failure: a recovered point or its residual is not finite\n"
        assert proc.stdout == ""

    def test_infinite_schur_complement_exits_4(self, tmp_path):
        proc = self._solve_conics_fresh(tmp_path, INFINITE_SCHUR_CONICS)
        assert proc.returncode == 4
        assert proc.stderr == "numeric failure: the eigenproblem matrix is not finite\n"
        assert proc.stdout == ""

    def test_every_eigenvalue_culled_exits_4(self, tmp_path, two_conics_plan_v2):
        plan_path = tmp_path / "v2.plan"
        plan_path.write_text(plan_to_json(two_conics_plan_v2))
        proc = self._solve_conics_fresh(tmp_path, ALL_CULLED_CONICS, plan_path)
        assert proc.returncode == 4
        assert proc.stderr == "numeric failure: every eigenvalue lies below the v2 cull bound\n"
        assert proc.stdout == ""

    def test_overflow_on_the_way_prints_no_warning(self, tmp_path):
        proc = self._solve_conics_fresh(tmp_path, HUGE_ROOT_CONICS)
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 4
        assert all(float(line.split("residual=")[1].split()[0]) < 1e-14 for line in lines)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["rows"][0].__setitem__(0, 9),  # no such polynomial
            lambda doc: doc.__setitem__("blocks", 7),
            lambda doc: doc["meta"].__setitem__("seed", float("inf")),
            lambda doc: doc["meta"]["delta"].__setitem__(0, "1/0"),
            # block sizes that agree with each other: a negative upper block,
            # and no eigenvalue block at all
            lambda doc: _set_blocks(doc, -4, 13),
            lambda doc: _set_blocks(doc, 9, 0),
        ],
        ids=["row-poly-index", "blocks-not-object", "infinite-seed", "zero-denominator-delta",
             "negative-upper-block", "empty-b1"],
    )
    def test_corrupt_plan_exits_2(self, tmp_path, capsys, two_conics_plan, corrupt):
        _, inst_path = write_problem(tmp_path, "two_conics")
        doc = json.loads(plan_to_json(two_conics_plan))
        corrupt(doc)
        plan_path = tmp_path / "bad.plan"
        plan_path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--plan", str(plan_path), "--instance", str(inst_path)])
        assert exc.value.code == 2
        assert "bad plan file" in capsys.readouterr().err

    def test_missing_slot_named(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        bad = tmp_path / "bad.inst"
        bad.write_text('{"a": 1.0, "b": -5.0}')
        capsys.readouterr()
        code = main(["solve", "--plan", str(plan_path), "--instance", str(bad)])
        err = capsys.readouterr().err
        assert code != 0
        assert "'c'" in err


    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_instance_rejected(self, tmp_path, capsys, value):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        bad = tmp_path / "bad.inst"
        bad.write_text('{"a": 1.0, "b": %s, "c": 6.0}' % value)
        capsys.readouterr()
        code = main(["solve", "--plan", str(plan_path), "--instance", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'b'" in err and "not a finite number" in err


    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        # a NaN bound passes every eigenpair unchecked, and a negative one
        # fails every pair as if the solve had broken down numerically
        sys_path, inst_path = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        capsys.readouterr()
        code = main(["solve", "--plan", str(plan_path), "--instance", str(inst_path), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert "--tol" in captured.err
        assert "root" not in captured.out


class TestBench:
    def test_report_fields_and_determinism(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "two_conics")
        plan_path = tmp_path / "c.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            code = main(
                ["bench", "--plan", str(plan_path), "--trials", "50", "--seed", "7", "--report", str(r)]
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
        rep = json.loads(r1.read_text())
        assert rep["trials"] == 50
        assert rep["fail_pct"] is not None
        assert rep["n_solutions_histogram"]

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        capsys.readouterr()
        code = main(["bench", "--plan", str(plan_path), "--trials", "0", "--seed", "1", "--report", str(tmp_path / "r")])
        assert code == 2

    # polyres bench --trials 500 --seed 1 on the golden plans: the exact report bytes
    PINNED_REPORTS = {
        "two_conics": '{"fail_pct":0.0,"mean_log10":-16.65517068986041,"median_log10":-15.395855502171894,'
        '"n_solutions_histogram":{"4":500},"timing_us":null,"trials":500}\n',
        "three_quadrics": '{"fail_pct":0.0,"mean_log10":-13.751453041766915,"median_log10":-14.006713956343429,'
        '"n_solutions_histogram":{"8":500},"timing_us":null,"trials":500}\n',
        "rel_pose_f_lambda_8pt": '{"fail_pct":0.0,"mean_log10":-13.50028925672656,"median_log10":-13.714237644799013,'
        '"n_solutions_histogram":{"9":500},"timing_us":null,"trials":500}\n',
    }

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_golden_reports_pinned(self, tmp_path, name):
        report = tmp_path / "r.json"
        argv = ["bench", "--plan", str(GOLDEN / f"{name}.plan"), "--trials", "500", "--seed", "1"]
        assert main([*argv, "--report", str(report)]) == 0
        assert report.read_text(encoding="utf-8") == self.PINNED_REPORTS[name]

    def test_single_trial(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        report = tmp_path / "r.json"
        main(["bench", "--plan", str(plan_path), "--trials", "1", "--seed", "7", "--report", str(report)])
        rep = json.loads(report.read_text())
        assert rep["median_log10"] == pytest.approx(rep["mean_log10"])


class TestCompare:
    def test_univariate_am2res(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        code = main(
            ["compare", "--system", str(sys_path), "--direction", "am2res", "--trials", "20", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "equivalent" in out and "NOT" not in out
        dev = float(out.split("= ")[1].split(" over")[0])
        assert dev <= 1e-12

    def test_conics_res2am(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "two_conics")
        code = main(
            ["compare", "--system", str(sys_path), "--direction", "res2am", "--trials", "20", "--seed", "3"]
        )
        assert code == 0

    def test_conics_resalt2am(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "two_conics")
        code = main(
            ["compare", "--system", str(sys_path), "--direction", "resalt2am", "--trials", "20", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "equivalent" in out and "NOT" not in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_usage_error(self, tmp_path, capsys, monkeypatch, trials):
        sys_path, _ = write_problem(tmp_path, "two_conics")

        def no_search(*args, **kwargs):
            raise AssertionError("generated a plan for a check that has no trials")

        monkeypatch.setattr("polyres.cli.generate_plan", no_search)
        code = main(["compare", "--system", str(sys_path), "--direction", "res2am", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: --trials must be at least 1" in captured.err
        assert "equivalent" not in captured.out

    @pytest.mark.parametrize("roots", ["0", "-1"])
    def test_no_roots_usage_error(self, tmp_path, capsys, monkeypatch, roots):
        sys_path, _ = write_problem(tmp_path, "two_conics")

        def no_search(*args, **kwargs):
            raise AssertionError("generated a plan for a bridge with no roots")

        monkeypatch.setattr("polyres.cli.generate_plan", no_search)
        code = main(["compare", "--system", str(sys_path), "--direction", "res2am", "--roots", roots])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: --roots must be at least 1" in captured.err
        assert "equivalent" not in captured.out

    def test_root_count_mismatch_named(self, tmp_path, capsys):
        # the two_conics plan has N = 4; a larger root count is a mismatch too
        sys_path, _ = write_problem(tmp_path, "two_conics")
        code = main(["compare", "--system", str(sys_path), "--direction", "res2am", "--roots", "100"])
        assert code == 3
        assert "unsupported: eigenproblem size 4 differs from root count 100" in capsys.readouterr().err

    def test_zero_root_resalt_rejected(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "zero_coordinate_pair")
        code = main(
            ["compare", "--system", str(sys_path), "--direction", "resalt2am", "--trials", "5", "--seed", "3"]
        )
        err = capsys.readouterr().err
        # rejected either while bridging (roots with x_k = 0 or N > r) or
        # already at generation (no usable alternate-form plan exists)
        assert code == 3
        assert "unsupported" in err or "no solver" in err


@pytest.mark.parametrize("command", ["bench", "compare"])
def test_negative_seed_usage_error(tmp_path, capsys, monkeypatch, command):
    # numpy's SeedSequence rejects a negative seed; the command must stop first
    sys_path, _ = write_problem(tmp_path, "two_conics")

    def no_work(*args, **kwargs):
        raise AssertionError("started work for a negative seed")

    monkeypatch.setattr("polyres.cli._load_plan", no_work)
    monkeypatch.setattr("polyres.cli.generate_plan", no_work)
    argv = {
        "bench": ["bench", "--plan", str(tmp_path / "c.plan"), "--trials", "5", "--report", str(tmp_path / "r")],
        "compare": ["compare", "--system", str(sys_path), "--direction", "res2am"],
    }[command]
    code = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: --seed must be at least 0" in captured.err


@pytest.mark.parametrize("command", ["generate", "solve", "bench", "problems"])
def test_unwritable_output_exits_2(tmp_path, capsys, univariate_quadratic_plan, command):
    sys_path, inst_path = write_problem(tmp_path, "univariate_quadratic")
    plan_path = tmp_path / "q.plan"
    plan_path.write_text(plan_to_json(univariate_quadratic_plan))
    missing = tmp_path / "no" / "such" / "dir" / "out"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv, target = {
        "generate": (["generate", "--system", str(sys_path), "--out", str(missing)], missing),
        "solve": (["solve", "--plan", str(plan_path), "--instance", str(inst_path), "--out", str(missing)], missing),
        "bench": (["bench", "--plan", str(plan_path), "--trials", "3", "--report", str(missing)], missing),
        # --dir names an existing file, so no directory can be made there
        "problems": (["problems", "write", "univariate_quadratic", "--dir", str(a_file)],
                     a_file / "univariate_quadratic.sys"),
    }[command]
    assert main(argv) == 2
    assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert not missing.parent.exists() and a_file.read_text() == ""


@pytest.mark.parametrize(
    "target, reason",
    [("no/such/dir/out", "No such file or directory"), ("a_file/out", "Not a directory"), (".", "Is a directory")],
    ids=["missing-parent", "parent-is-file", "is-directory"],
)
def test_unwritable_generate_output_fails_before_search(tmp_path, capsys, monkeypatch, target, reason):
    def refuse(*args):
        raise AssertionError("generate searched for a plan it cannot write")

    monkeypatch.setattr(polyres.cli, "generate_plan", refuse)
    sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
    (tmp_path / "a_file").write_text("")
    out = tmp_path / target
    assert main(["generate", "--system", str(sys_path), "--out", str(out)]) == 2
    assert f"error: cannot write {out}: {reason}" in capsys.readouterr().err
    assert (tmp_path / "a_file").read_text() == ""


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_unwritable_output_fails_before_work(tmp_path, capsys, monkeypatch, univariate_quadratic_plan, command):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did work it cannot write")

    monkeypatch.setattr(polyres.cli, "solve_instance", refuse)
    monkeypatch.setattr(polyres.cli, "benchmark", refuse)
    _, inst_path = write_problem(tmp_path, "univariate_quadratic")
    plan_path = tmp_path / "q.plan"
    plan_path.write_text(plan_to_json(univariate_quadratic_plan))
    out = tmp_path / "no" / "such" / "dir" / "out"
    argv = {
        "solve": ["solve", "--plan", str(plan_path), "--instance", str(inst_path), "--out", str(out)],
        "bench": ["bench", "--plan", str(plan_path), "--trials", "3", "--report", str(out)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}: No such file or directory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bad, reason", [("directory", "Is a directory"), ("not-utf8", "not UTF-8")],
                         ids=["directory", "not-utf8"])
@pytest.mark.parametrize("command", ["generate-system", "solve-plan", "solve-instance", "bench-plan"])
def test_unreadable_input_exits_2(tmp_path, capsys, univariate_quadratic_plan, command, bad, reason):
    sys_path, inst_path = write_problem(tmp_path, "univariate_quadratic")
    plan_path = tmp_path / "q.plan"
    plan_path.write_text(plan_to_json(univariate_quadratic_plan))
    if bad == "directory":
        target = tmp_path / "a_dir"
        target.mkdir()
    else:
        target = tmp_path / "latin1"
        target.write_bytes(b"\xff" + sys_path.read_bytes())
    out = tmp_path / "out"
    argv = {
        "generate-system": ["generate", "--system", str(target), "--out", str(out)],
        "solve-plan": ["solve", "--plan", str(target), "--instance", str(inst_path)],
        "solve-instance": ["solve", "--plan", str(plan_path), "--instance", str(target)],
        "bench-plan": ["bench", "--plan", str(target), "--trials", "3", "--report", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {target}: {reason}") and err.count("\n") == 1
    assert not out.exists()


class TestProblemsCommand:
    def test_list(self, capsys):
        assert main(["problems", "list"]) == 0
        out = capsys.readouterr().out
        assert "two_conics" in out

    def test_write(self, tmp_path, capsys):
        assert main(["problems", "write", "two_conics", "--dir", str(tmp_path)]) == 0
        assert (tmp_path / "two_conics.sys").exists()
        assert (tmp_path / "two_conics.inst").exists()


class TestDeterminism:
    def test_plan_bytes_stable(self, tmp_path):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        p1, p2 = tmp_path / "a.plan", tmp_path / "b.plan"
        main(["generate", "--system", str(sys_path), "--out", str(p1), "--seed", "5"])
        main(["generate", "--system", str(sys_path), "--out", str(p2), "--seed", "5"])
        assert p1.read_bytes() == p2.read_bytes()


class TestImportFootprint:
    def test_no_numpy_ma(self):
        # numpy.ma adds about 1 MB of resident memory, and neither stage
        # needs it; helpers such as np.setdiff1d import it on first call
        src = Path(polyres.cli.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "import polyres.cli\n"
            "from polyres.generate import generate_plan\n"
            "from polyres.problems import get\n"
            "from polyres.solve import solve_instance\n"
            "entry = get('two_conics')\n"
            "solve_instance(generate_plan(entry.system).plan, entry.canonical_instance)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
