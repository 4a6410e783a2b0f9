import json

import pytest

from polyres.cli import main
from polyres.poly import dump_system
from polyres.problems import get
from polyres.solve import BenchReport


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

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--system", str(tmp_path / "nope.sys"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "not found" in capsys.readouterr().err


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
        rep = BenchReport.from_json(r1.read_text())
        assert rep.trials == 50
        assert rep.fail_pct is not None
        assert rep.n_solutions_histogram

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        capsys.readouterr()
        code = main(["bench", "--plan", str(plan_path), "--trials", "0", "--seed", "1", "--report", str(tmp_path / "r")])
        assert code == 2

    def test_single_trial(self, tmp_path, capsys):
        sys_path, _ = write_problem(tmp_path, "univariate_quadratic")
        plan_path = tmp_path / "q.plan"
        main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "1"])
        report = tmp_path / "r.json"
        main(["bench", "--plan", str(plan_path), "--trials", "1", "--seed", "7", "--report", str(report)])
        rep = BenchReport.from_json(report.read_text())
        assert rep.median_log10 == pytest.approx(rep.mean_log10)


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
