"""The bench-trajectory CI gate: within-file and cross-file checks."""

import json

import pytest

from repro.bench.trajectory import (
    check_warm_hit_rate,
    compare_trajectories,
    main,
    newest_by_label,
    record_hit_rate,
    record_wall_seconds,
)
from repro.trace.metrics import MetricsRegistry


def rec(label, wall, hit_rate=None, via_snapshot=False):
    """One bench record, metrics either flat (legacy) or snapshot-shaped."""
    if via_snapshot:
        reg = MetricsRegistry()
        reg.observe("farm.wall_seconds", wall)
        if hit_rate is not None:
            reg.gauge("farm.hit_rate", hit_rate)
        return {"label": label, "metrics": reg.snapshot()}
    out = {"label": label, "wall_seconds": wall}
    if hit_rate is not None:
        out["hit_rate"] = hit_rate
    return out


def write_traj(path, records):
    path.write_text(json.dumps({"records": records}))
    return str(path)


def test_record_readers_prefer_snapshot_over_flat():
    snap = rec("warm", 2.5, hit_rate=0.95, via_snapshot=True)
    snap["wall_seconds"] = 99.0  # stale flat key must lose to the snapshot
    assert record_wall_seconds(snap) == 2.5
    assert record_hit_rate(snap) == 0.95
    flat = rec("cold", 4.0, hit_rate=0.0)
    assert record_wall_seconds(flat) == 4.0


def test_newest_by_label_keeps_last():
    records = [rec("cold", 1.0), rec("warm", 2.0), rec("cold", 3.0)]
    newest = newest_by_label(records)
    assert record_wall_seconds(newest["cold"]) == 3.0


def test_warm_hit_rate_check():
    ok = [rec("warm", 1.0, hit_rate=1.0, via_snapshot=True)]
    assert check_warm_hit_rate(ok) == []
    bad = [rec("warm", 1.0, hit_rate=0.4)]
    assert any("regressed" in p for p in check_warm_hit_rate(bad))
    assert any("no record" in p for p in check_warm_hit_rate([rec("cold", 1.0)]))


def test_compare_trajectories_flags_only_real_regressions():
    baseline = [rec("cold", 10.0), rec("warm", 1.0), rec("retired", 5.0)]
    current = [rec("cold", 12.0), rec("warm", 3.5), rec("brand_new", 1.0)]
    problems = compare_trajectories(current, baseline, max_wall_regression=1.0)
    # warm grew 250% (> 100% allowed); cold grew 20% (fine); labels present
    # on only one side are ignored.
    assert len(problems) == 1 and "'warm'" in problems[0]


def test_main_pass_and_regression_exit_codes(tmp_path, capsys):
    baseline = write_traj(
        tmp_path / "base.json",
        [rec("cold", 10.0), rec("warm", 1.0, hit_rate=1.0)],
    )
    good = write_traj(
        tmp_path / "good.json",
        [rec("cold", 11.0), rec("warm", 1.1, hit_rate=1.0)],
    )
    assert main([good, "--against", baseline]) == 0
    bad = write_traj(
        tmp_path / "bad.json",
        [rec("cold", 11.0), rec("warm", 50.0, hit_rate=0.2)],
    )
    assert main([bad, "--against", baseline]) == 1
    err = capsys.readouterr().err
    assert "BENCH REGRESSION" in err


def test_main_missing_baseline(tmp_path, capsys):
    good = write_traj(
        tmp_path / "good.json", [rec("warm", 1.0, hit_rate=1.0)]
    )
    missing = str(tmp_path / "nope.json")
    assert main([good, "--against", missing]) == 2
    assert main([good, "--against", missing, "--allow-missing-baseline"]) == 0
    assert "skipping cross-file diff" in capsys.readouterr().out


def test_main_unusable_input(tmp_path, capsys):
    assert main([str(tmp_path / "absent.json")]) == 2
    empty = write_traj(tmp_path / "empty.json", [])
    assert main([empty]) == 2


def test_records_carrying_stage_seconds_still_pass_the_gate(tmp_path):
    # Trajectories written while per-stage wall timing existed carry
    # proto.stage_seconds.* histograms and a flat stage_seconds dict; the
    # gate reads the same wall/hit-rate metrics from them and ignores both.
    reg = MetricsRegistry()
    reg.observe("farm.wall_seconds", 1.0)
    reg.gauge("farm.hit_rate", 1.0)
    reg.observe("proto.stage_seconds.checkpoint", 3.24)
    old_warm = {"label": "warm", "metrics": reg.snapshot()}
    old_smoke = {"label": "smoke", "wall_seconds": 2.0,
                 "stage_seconds": {"checkpoint": 50.0}}
    assert record_wall_seconds(old_warm) == 1.0
    assert record_hit_rate(old_warm) == 1.0
    assert check_warm_hit_rate([old_warm, old_smoke]) == []
    baseline = write_traj(tmp_path / "base.json", [old_warm, old_smoke])
    current = write_traj(
        tmp_path / "cur.json", [rec("warm", 1.1, hit_rate=1.0), rec("smoke", 2.1)]
    )
    assert main([current, "--against", baseline]) == 0


def test_main_rejects_the_deleted_stage_budget_flag(tmp_path, capsys):
    # A caller still passing --stage-budget must fail loudly, not have its
    # budget silently ignored.
    current = write_traj(tmp_path / "cur.json", [rec("warm", 1.0, hit_rate=1.0)])
    with pytest.raises(SystemExit) as exc:
        main([current, "--stage-budget", "checkpoint=1.0"])
    assert exc.value.code == 2
    assert "--stage-budget" in capsys.readouterr().err
