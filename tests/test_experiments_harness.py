"""Experiment harness unit tests (formatting, check bookkeeping, and the
CLI with its ``--write`` record writer)."""

from __future__ import annotations

import json

import pytest

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


@pytest.fixture()
def fake_cli(monkeypatch, tmp_path):
    """The CLI with two fake experiments, working in ``tmp_path``: EXT-2
    passes and carries a metrics listing, EXP-2 fails its check and
    carries a Figure-6-style listing.  Returns the CLI module and the
    ids of the fakes that ran."""
    import repro.experiments.__main__ as cli

    ran = []

    def ext2_metrics():
        ran.append("EXT-2")
        exp = Experiment("EXT-2", "metrics", "-",
                         listing='metrics {"counters": {"b": 2, "a": 1}}')
        exp.rows.append(Row("host ms", 1.5, 1.0, note="host time"))
        exp.check("holds", True)
        exp.health = {"rewrites": 3}
        return exp

    def exp2_figure():
        ran.append("EXP-2")
        exp = Experiment("EXP-2", "figure", "Fig. 6", listing="i-01: ret")
        exp.check("fails", False)
        return exp

    monkeypatch.setattr(cli, "ALL_EXPERIMENTS", (ext2_metrics, exp2_figure))
    monkeypatch.chdir(tmp_path)
    return cli, ran


def test_write_saves_canonical_records(fake_cli, tmp_path, capsys):
    cli, ran = fake_cli
    # the failing check still gets its record written, then exits 1
    assert cli.main(["--write"]) == 1
    assert ran == ["EXT-2", "EXP-2"]
    assert "== EXP-2: figure" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_exp2.json", "BENCH_ext2.json"]

    ext2 = (tmp_path / "BENCH_ext2.json").read_text()
    doc = json.loads(ext2)
    assert ext2 == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc == {
        "id": "EXT-2", "title": "metrics", "paper_locus": "-",
        "rows": [{"label": "host ms", "cycles": 1.5, "ratio": 1.0,
                  "paper": "", "note": "host time"}],
        "checks": [{"description": "holds", "holds": True}],
        "health": {"rewrites": 3},
        "metrics": {"counters": {"a": 1, "b": 2}},
    }
    exp2 = json.loads((tmp_path / "BENCH_exp2.json").read_text())
    assert exp2["listing"] == "i-01: ret" and "metrics" not in exp2
    assert exp2["checks"] == [{"description": "fails", "holds": False}]


def test_without_write_nothing_is_saved(fake_cli, tmp_path):
    cli, ran = fake_cli
    assert cli.main(["ext-2"]) == 0
    assert ran == ["EXT-2"]
    assert list(tmp_path.iterdir()) == []


def test_unknown_id_runs_nothing(fake_cli, tmp_path, capsys):
    cli, ran = fake_cli
    assert cli.main(["--write", "ext-2", "ext-6", "--wirte"]) == 2
    assert ran == [] and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "ext-6 --wirte" in err and "EXT-2" in err
