"""Experiment harness unit tests (formatting and check bookkeeping)."""

from __future__ import annotations

from repro.experiments.harness import Experiment, Row, format_table


def make_exp() -> Experiment:
    exp = Experiment("T-1", "A demo", "Sec. X")
    exp.rows.append(Row("baseline", 1000, 1.0, "100%"))
    exp.rows.append(Row("variant", 400, 0.4, "37%", note="neat"))
    exp.rows.append(Row("unitless", 3.25))
    exp.check("variant faster", True)
    return exp


def test_format_table_contents():
    table = format_table(make_exp())
    assert "== T-1: A demo" in table
    assert "(paper: Sec. X)" in table
    assert "1,000" in table and "100.0%" in table
    assert "40.0%" in table and "37%" in table and "neat" in table
    assert "3.250" in table          # float rows keep precision
    assert "[ok] variant faster" in table


def test_checks_and_failure_rendering():
    exp = make_exp()
    exp.check("this one fails", False)
    assert not exp.all_checks_hold
    assert "[FAIL] this one fails" in format_table(exp)


def test_listing_rendering():
    exp = Experiment("T-2", "Listing", "Fig. Y", listing="i-01: ret")
    table = format_table(exp)
    assert "i-01: ret" in table


def test_empty_ratio_and_cycles_render_as_dash():
    exp = Experiment("T-3", "Sparse", "-")
    exp.rows.append(Row("row", None, None))
    table = format_table(exp)
    assert " - " in table or "-  " in table


def test_all_registered_experiments_are_callable():
    from repro.experiments import ALL_EXPERIMENTS

    names = [fn.__name__ for fn in ALL_EXPERIMENTS]
    assert len(names) == len(set(names))
    assert any(n.startswith("exp1") for n in names)
    assert any(n.startswith("ext2") for n in names)
    assert sum(1 for n in names if n.startswith("abl")) == 5


def test_experiment_ids_derive_from_function_names():
    import inspect

    from repro.experiments import ALL_EXPERIMENTS, ext10_tracejit
    from repro.experiments.__main__ import experiment_id

    ids = [experiment_id(fn) for fn in ALL_EXPERIMENTS]
    assert len(ids) == len(set(ids))
    assert experiment_id(ext10_tracejit) == "EXT-10"
    for fn, exp_id in zip(ALL_EXPERIMENTS, ids):
        # every experiment builds its table under that id literal
        assert f'"{exp_id}"' in inspect.getsource(fn), fn.__name__


def test_cli_runs_only_the_requested_experiment(monkeypatch, capsys):
    import repro.experiments.__main__ as cli

    ran = []

    def ext2_demo():
        ran.append("EXT-2")
        return Experiment("EXT-2", "demo", "-")

    def ext20_other():
        ran.append("EXT-20")
        return Experiment("EXT-20", "other", "-")

    monkeypatch.setattr(cli, "ALL_EXPERIMENTS", (ext2_demo, ext20_other))
    assert cli.main(["ext-2"]) == 0
    assert ran == ["EXT-2"]
    assert "== EXT-2: demo" in capsys.readouterr().out
