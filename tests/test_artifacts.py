import artifacts


def _tree(root, files):
    root.mkdir()
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def test_compare_trees_reports_every_file_but_timings(tmp_path):
    """Every file is compared by its bytes but timings.json, by its keys."""
    base = {
        "plan_report.json": b"{}\n",
        "timings.json": b'{"plan_s": 1.0, "sweep_s": 2.0}',
        "sv_on/trace.csv": b"t\n0.0\n",
        "sv_off/qp_log.csv": b"step\n",
    }
    a = _tree(tmp_path / "a", base)
    b = _tree(tmp_path / "b", dict(base, **{"timings.json": b'{"sweep_s": 3.5, "plan_s": 0.25}'}))
    files = ["plan_report.json", "sv_off/qp_log.csv", "sv_on/trace.csv", "timings.json"]
    assert artifacts.compare_trees(a, b) == dict.fromkeys(files, True)
    assert artifacts.main([a, b]) == 0


def test_compare_trees_flags_a_timings_key_missing_on_one_side(tmp_path):
    a = _tree(tmp_path / "a", {"metrics.json": b"1\n", "sv_on/timings.json": b'{"plan_s": 1.0, "plan_stage2_s": 0.5}'})
    b = _tree(tmp_path / "b", {"metrics.json": b"1\n", "sv_on/timings.json": b'{"plan_s": 1.0}'})
    assert artifacts.compare_trees(a, b) == {"metrics.json": True, "sv_on/timings.json": False}
    assert artifacts.main([a, b]) == 1


def test_compare_trees_flags_changed_and_one_sided_files(tmp_path):
    a = _tree(tmp_path / "a", {"metrics.json": b"1\n", "sv_on/trace.csv": b"-0.0\n", "error.json": b"{}"})
    b = _tree(tmp_path / "b", {"metrics.json": b"1\n", "sv_on/trace.csv": b"0.0\n", "sv_off/trace.csv": b"0.0\n"})
    assert artifacts.compare_trees(a, b) == {
        "error.json": False,
        "metrics.json": True,
        "sv_off/trace.csv": False,
        "sv_on/trace.csv": False,
    }
    assert artifacts.main([a, b]) == 1


def test_compare_trees_of_empty_trees_is_not_a_pass(tmp_path):
    assert artifacts.main([_tree(tmp_path / "a", {}), _tree(tmp_path / "b", {"timings.json": b"1"})]) == 1
