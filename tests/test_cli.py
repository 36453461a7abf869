import json
import shutil
import time

import pytest

from weightone import dimension
from weightone.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_qexp_xi18(capsys):
    code, out = run(capsys, "qexp", "xi_1_8", "--order", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["denominator"] == 96
    assert [96, -8, "1/1"] in obj["terms"] and [96, 8, "-1/1"] in obj["terms"]


def test_qexp_theta(capsys):
    code, out = run(capsys, "qexp", "theta", "--m", "9", "--r", "6", "--order", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [[72, 12, "1/1"]]


def test_qexp_quark(capsys):
    code, out = run(capsys, "qexp", "quark", "--a", "1", "--b", "1", "--order", "2")
    assert code == 0
    obj = json.loads(out)
    first = [t for t in obj["terms"] if t[0] == obj["denominator"] // 3]
    assert sorted(first) == [[8, -4, "1/1"], [8, -2, "-2/1"], [8, 2, "2/1"], [8, 4, "-1/1"]]


def test_qexp_fractional_order(capsys):
    code, out = run(capsys, "qexp", "eta", "--order", "25/24")
    assert code == 0
    assert json.loads(out)["terms"] == [[1, 0, "1/1"]]


def test_dim_command(capsys):
    code, out = run(capsys, "dim", "--m", "3", "--N", "144", "--backend", "crt-float")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 0 and obj["M"] == 36


def test_dim_default_aux(capsys):
    code, out = run(capsys, "dim", "--m", "9", "--N", "9")
    assert code == 0
    obj = json.loads(out)
    assert obj["M"] == 9 and obj["value"] == 1


def test_vanish_command(capsys):
    code, out = run(capsys, "vanish", "--m", "2", "--M", "16")
    assert code == 0
    assert json.loads(out)["result"] == "vanishes"
    code, out = run(capsys, "vanish", "--m", "8", "--M", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == "inconclusive"
    assert obj["witness"] == {"r": 4, "s": 2, "t": 4}


def test_verify_tables(capsys):
    code, out = run(capsys, "verify-tables")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["decomposition_mismatches"] == []


def test_rademacher_command(capsys):
    code, out = run(capsys, "rademacher", "--n", "3", "--m", "9", "--K", "1",
                    "--depth", "10")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["components"]) == 18
    assert obj["components"][0] == [0.0, 0.0]


def test_exit_code_usage_error(capsys):
    code, _ = run(capsys, "qexp", "unknown_form", "--order", "3")
    assert code == 2
    code, _ = run(capsys, "dim", "--m", "2", "--N", "8", "--M", "3")
    assert code == 2
    for argv in (("qexp", "theta", "--m", "0", "--r", "1", "--order", "2"),
                 ("qexp", "theta_pm", "--m", "-1", "--r", "1", "--order", "2"),
                 ("qexp", "S_unary(0,1)", "--order", "2"),
                 ("qexp", "xi_1_8", "--order", "1/0"),
                 ("qexp", "eta", "--order", "-1"),
                 ("qexp", "eta", "--order", "0")):
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_non_positive_budget_is_a_usage_error(capsys):
    for budget in ("0", "-5"):
        code, _ = run(capsys, "--budget", budget, "dim", "--m", "2", "--N", "8")
        assert code == 2, budget


def test_exit_code_budget(capsys):
    code, _ = run(capsys, "--budget", "5", "dim", "--m", "3", "--N", "144")
    assert code == 3
    # the default budget stops an oversized query before any table is built
    t0 = time.time()
    code, _ = run(capsys, "dim", "--m", "64", "--N", "1")
    assert code == 3
    assert time.time() - t0 < 5
    # qexp eta estimates (order + 1)^2 term products against the same budget
    t0 = time.time()
    code, _ = run(capsys, "qexp", "eta", "--order", "20000")
    assert code == 3
    assert time.time() - t0 < 5
    code, _ = run(capsys, "--budget", "120", "qexp", "eta", "--order", "10")
    assert code == 3
    code, _ = run(capsys, "--budget", "121", "qexp", "eta", "--order", "10")
    assert code == 0


def test_exit_code_digest(tmp_path, capsys):
    import importlib.resources as res
    data = res.files("weightone").joinpath("data")
    for name in ("levels.csv", "character_table.csv", "mckay_thompson.csv",
                 "decompositions.csv", "manifest.json"):
        shutil.copy(str(data.joinpath(name)), tmp_path / name)
    (tmp_path / "levels.csv").write_text(
        (tmp_path / "levels.csv").read_text().replace("A8^3,3A,3,3,9,1",
                                                      "A8^3,3A,3,3,10,1"))
    code, _ = run(capsys, "--data-dir", str(tmp_path), "verify-tables")
    assert code == 4


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "dim", "--m", "2", "--N", "8", "--backend", "exact")
    _, out2 = run(capsys, "dim", "--m", "2", "--N", "8", "--backend", "exact")
    assert out1 == out2
    assert "elapsed" not in json.loads(out1)
    _, q1 = run(capsys, "qexp", "xi_1_12", "--order", "8")
    _, q2 = run(capsys, "qexp", "xi_1_12", "--order", "8")
    assert q1 == q2


def test_csv_format(capsys):
    code, out = run(capsys, "--format", "csv", "vanish", "--m", "2", "--M", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == sorted(["m", "M", "result"])


def test_rademacher_cauchy_table(capsys):
    code, out = run(capsys, "rademacher", "--n", "1", "--m", "2", "--K", "2",
                    "--depth", "10", "--cauchy")
    assert code == 0
    rows = json.loads(out)
    assert {r["K"] for r in rows} == {1, 2}
    assert all(r["cauchy_delta"] is None for r in rows if r["K"] == 1)
    assert any(r["cauchy_delta"] not in (None, 0) for r in rows if r["K"] == 2)


@pytest.mark.parametrize("exc", [
    dimension.IntegralityError("value 0.5 is not a nonnegative integer"),
    OverflowError("exact trace reduction would overflow int64"),
    ArithmeticError("certified integer snap failed; table value rejected"),
    AssertionError("trace value is not an algebraic integer"),
])
def test_exit_code_verification_failure(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(dimension, "dim_j1", fail)
    code = main(["dim", "--m", "2", "--N", "8"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(exc) in err

