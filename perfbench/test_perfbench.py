"""Tests of the benchmark itself: generator, tracer, yardstick and checker.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from pcclone import NoiseConfig, Qubit, average_over_jitter, cli  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = workloads.deck(workload, 5)
    assert first == workloads.deck(workload, 5)
    assert json.dumps([c.config for c in first]) == \
        json.dumps([c.config for c in workloads.deck(workload, 5)])
    assert first != workloads.deck(workload, 6)
    assert len(first) == workloads.DECK_SIZE


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_deck_shape_does_not_depend_on_the_seed(workload):
    def shape(deck):
        return [(c.subcommand, c.fmt, c.rows, c.counted, c.config.get("model", {}).get("variant"))
                for c in deck]
    assert shape(workloads.deck(workload, 1)) == shape(workloads.deck(workload, 2))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.inner defines leaf(); fakepkg.outer imports it and calls it twice."""
    clock = FakeClock()
    inner = types.ModuleType("fakepkg.inner")

    def leaf():
        clock.now += 2.0
        return np.zeros(3)

    class Box:
        def __init__(self, x):
            clock.now += 0.5
            self.x = x

        @classmethod
        def make(cls, x):
            return cls(x)

    inner.leaf, inner.Box = leaf, Box
    outer = types.ModuleType("fakepkg.outer")

    def top():
        clock.now += 1.0
        outer.leaf()
        outer.leaf()
        outer.Box.make(1)
        clock.now += 3.0
        return 7

    outer.leaf, outer.Box, outer.top = leaf, Box, top
    package = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", package), ("fakepkg.inner", inner),
                         ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, inner, outer


def test_self_time_on_a_synthetic_nested_call(fake_package):
    clock, inner, outer = fake_package
    targets = ("outer.top", "inner.leaf", "inner.Box", "inner.Box.make", "inner.gone")
    tracer = Tracer("fakepkg", targets, {"inner.leaf": lambda a: a.nbytes}, clock=clock)
    tracer.install()
    try:
        tracer.call_id = 0
        assert outer.top() == 7
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert stats["outer.top"].calls == 1
    assert stats["outer.top"].total_s == pytest.approx(8.5)
    assert stats["outer.top"].self_s == pytest.approx(4.0)
    assert stats["inner.leaf"].calls == 2
    assert stats["inner.leaf"].self_s == pytest.approx(4.0)
    assert stats["inner.leaf"].value == 48.0
    assert stats["inner.Box.make"].total_s == pytest.approx(0.5)
    assert stats["inner.Box.make"].self_s == pytest.approx(0.0)
    assert stats["inner.Box"].calls == 1
    assert stats["inner.Box"].self_s == pytest.approx(0.5)
    assert tracer.missing == ["inner.gone"]
    assert stats["inner.gone"].calls == 0


def test_tracer_wraps_every_binding_site_and_uninstalls(fake_package):
    _, inner, outer = fake_package
    leaf, init, make = inner.leaf, inner.Box.__init__, inner.Box.__dict__["make"]
    tracer = Tracer("fakepkg", ("inner.leaf", "inner.Box", "inner.Box.make"))
    tracer.install()
    assert outer.leaf is inner.leaf and outer.leaf is not leaf
    tracer.uninstall()
    assert inner.leaf is leaf and outer.leaf is leaf
    assert inner.Box.__init__ is init and inner.Box.__dict__["make"] is make


@pytest.mark.parametrize("kind", sorted(yardstick.YARDSTICK_MS))
def test_yardstick_work_is_fixed(kind):
    assert yardstick.Yardstick(kind).work() == yardstick.Yardstick(kind).work()


def test_every_workload_names_a_yardstick():
    assert sorted(workloads.YARDSTICK) == sorted(workloads.WORKLOADS)
    assert set(workloads.YARDSTICK.values()) <= set(yardstick.YARDSTICK_MS)


def test_normalise_cancels_host_phases_but_not_program_speed():
    scale = yardstick.YARDSTICK_MS["array"] * 1e-3
    host = [1.0] * 20 + [1.5] * 20  # a slow phase of the host from call 20 on
    gauges = [scale * h for h in host]
    times = [0.040 * h for h in host]
    assert yardstick.normalise(times, gauges, "array") == pytest.approx([0.040] * 40)
    faster = [0.030 * h for h in host]
    assert yardstick.normalise(faster, gauges, "array") == pytest.approx([0.030] * 40)


def test_normalise_ignores_one_disturbed_gauge():
    scale = yardstick.YARDSTICK_MS["python"] * 1e-3
    gauges = [scale] * 30
    gauges[15] = 5 * scale
    assert yardstick.normalise([0.01] * 30, gauges, "python") == pytest.approx([0.01] * 30)


def _cli_output(tmp_path, call) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(call.config))
    out = tmp_path / f"out.{call.fmt}"
    argv = [call.subcommand, "--config", str(config), "--out", str(out), "--format", call.fmt]
    assert cli.main(argv) == 0
    return out.read_text()


def _counted_csv_call():
    return next(c for c in workloads.deck("sweep_hom", 0) if c.counted and c.fmt == "csv")


def _replace_cell(text: str, row: int, column: str, edit) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    k = header.index(column)
    cells[k] = edit(cells[k])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_accepts_a_correct_output(tmp_path):
    call = _counted_csv_call()
    assert check.check_output(call, _cli_output(tmp_path, call)) == []


def test_checker_flags_a_changed_tenth_digit(tmp_path):
    call = _counted_csv_call()
    text = _cli_output(tmp_path, call)

    def bump_last_digit(cell):
        assert len(cell.replace("0.", "", 1).lstrip("0")) == 10
        return cell[:-1] + str((int(cell[-1]) + 1) % 10)

    changed = _replace_cell(text, 0, "F1", bump_last_digit)
    assert changed != text
    problems = check.check_output(call, changed)
    assert problems and "F1" in problems[0]


def test_checker_flags_a_changed_count(tmp_path):
    call = _counted_csv_call()
    text = _cli_output(tmp_path, call)
    changed = _replace_cell(text, 3, "C_pm", lambda cell: str(int(cell) + 1))
    problems = check.check_output(call, changed)
    assert problems and all("row 3" in p for p in problems)


def test_checker_flags_counts_moved_between_patterns(tmp_path):
    call = _counted_csv_call()
    text = _cli_output(tmp_path, call)
    row = check.parse_output(text, "csv")[3]
    assert row["C_pm"] != row["C_mp"]
    changed = _replace_cell(text, 3, "C_pm", lambda cell: str(row["C_mp"]))
    changed = _replace_cell(changed, 3, "C_mp", lambda cell: str(row["C_pm"]))
    problems = check.check_output(call, changed)
    assert problems and all("row 3" in p and "count ratio" in p for p in problems)


def test_chunked_jitter_report_matches_average_over_jitter(monkeypatch):
    monkeypatch.setattr(check, "JITTER_CHUNK", 1000)
    call = workloads.deck("mc_jitter", 0)[workloads.JITTER_MIXED[0]]
    model = check.build_model(call.config["model"])
    noise = NoiseConfig(**call.config["noise"])
    assert 0.0 < noise.overlap_M < 1.0
    qubit = Qubit(**call.config["input"])
    row_seed = 12345
    pooled = check.jitter_report(model, noise, qubit, row_seed, 4500)
    seq = np.random.SeedSequence(row_seed).spawn(2)[0]
    direct = average_over_jitter(model, noise, qubit, seq, 4500)
    assert pooled.P_succ == pytest.approx(direct.P_succ, abs=1e-12)
    assert np.allclose(pooled.joint.rho, direct.joint.rho, atol=1e-12)
