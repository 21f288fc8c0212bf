"""tools/bench_snapshot.py writes a BENCH_<PR>.json of the documented shape,
and every function it names exists in src/hqec; with --base, both trees'
workers ran.  Times are not checked."""

import functools
import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNNERS = {"transversal_t", "logical_t", "demo", "storage_bit_flip", "storage_shor", "storage_rm15",
           "codes_analysis"}


def _is_function(dotted: str) -> bool:
    """Whether module.Class.function names a function under hqec, the getter
    of a property or functools.cached_property, or a def nested in a
    function's body (a code object among its constants)."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hqec.{module}")
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            consts = inspect.unwrap(obj).__code__.co_consts
            obj = next(c for c in consts if isinstance(c, types.CodeType) and c.co_name == attr)
        if isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, functools.cached_property):
            obj = obj.func
    return callable(obj) or isinstance(obj, types.CodeType)


def test_is_function_reads_getters():
    assert _is_function("codes.CodeSpace.plan")  # a functools.cached_property
    assert _is_function("codes.CodeSpace.zero")  # a property
    assert _is_function("compat.DiagonalAction.preserves_code_space")
    assert _is_function("compat._diagonal_action")  # an lru_cache wrapper
    assert not _is_function("states.TOL")


def test_snapshot_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_snapshot.py", "--pr", "0", "--label", "schema test", "--out", str(out),
         "--repeat", "1", "--number", "1", "--cli-runs", "1", "--profile-calls", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    snap = json.loads(out.read_text())
    assert {"pr", "label", "commit", "host", "runners", "cli", "profile"} <= set(snap)
    assert (snap["pr"], snap["label"]) == (0, "schema test")

    timed = snap["runners"]
    assert (timed["repeat"], timed["number"]) == (1, 1)
    assert set(timed["us_per_run"]) == RUNNERS
    for entry in timed["us_per_run"].values():
        assert entry["best_us"] > 0 and len(entry["all_us"]) == 1
        assert entry["yardstick_us"] > 0

    cli = snap["cli"]
    assert cli["runs"] == 1
    assert {"python -c pass", "codes list", "run a1", "frobnicate", "run storage --keys 2,0"} <= set(cli["median_ms"])
    assert all(ms > 0 for ms in cli["median_ms"].values())

    profiled = snap["profile"]
    assert profiled["runs"] == 1 and set(profiled["runners"]) == RUNNERS
    for name, entry in profiled["runners"].items():
        assert 0 < entry["src_share"] <= 1 and entry["profiled_ms_per_run"] > 0
        funcs = entry["functions"]
        assert funcs, name
        assert sum(f["self_share"] for f in funcs.values()) <= entry["src_share"] + 1e-9
        for dotted, f in funcs.items():
            assert "<" not in dotted, dotted  # comprehension frames are folded
            assert _is_function(dotted), dotted
            assert f["self_share"] >= 0 and f["calls_per_run"] >= 0
    # the runner itself shows up in its own profile
    assert "protocol.run_transversal_t_protocol" in profiled["runners"]["transversal_t"]["functions"]
    assert "protocol.run_circuit" in profiled["runners"]["transversal_t"]["functions"]
    # the cold analysis rebuilds the codewords every call, and reads their
    # diagonal-gate action without combining or bracketing states
    cold = profiled["runners"]["codes_analysis"]["functions"]
    assert cold["codes._zero_codeword"]["calls_per_run"] == 3
    unused = {"codes.CodeSpace.state", "states.inner", "states._coalesce"}
    assert all(map(_is_function, unused)) and not unused & set(cold)  # live names, so the guard can fail
    # storage applies its mask, error and unmask times correction in one sweep
    rm15 = profiled["runners"]["storage_rm15"]["functions"]
    assert "states.apply_paulis" in rm15
    assert not {"protocol.encrypt", "states._pauli_image"} & set(rm15)
    # and reads its fidelity with states.inner
    assert "states.inner" in rm15


def _git(*args) -> str | None:
    """git's stdout in the repository root, or None where git fails."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _in_checkout() -> bool:
    top = shutil.which("git") and _git("rev-parse", "--show-toplevel")
    return bool(top) and Path(top).resolve() == ROOT.resolve()


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "tools" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not shutil.which("git"), reason="needs git")
def test_commit_is_dirty_only_where_src_or_tools_differ(tmp_path, monkeypatch):
    # a throwaway repository shaped like this one: a note at the root, src/, tools/
    tool = _load_tool()
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    files = {name: tmp_path / name for name in ("NOTES.md", "src/mod.py", "tools/tool.py")}
    for path in files.values():
        path.parent.mkdir(exist_ok=True)
        path.write_text("one\n")
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t", GIT_COMMITTER_NAME="t",
               GIT_COMMITTER_EMAIL="t@t")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(["git", *args], cwd=tmp_path, env=env, check=True)
    head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=tmp_path, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert tool.git_commit() == head
    files["NOTES.md"].write_text("two\n")  # a change outside src/ and tools/
    assert tool.git_commit() == head
    for name in ("src/mod.py", "tools/tool.py"):
        files[name].write_text("two\n")
        assert tool.git_commit() == head + "-dirty", name
        files[name].write_text("one\n")
    assert tool.git_commit() == head


@pytest.mark.skipif(not _in_checkout(), reason="needs a git checkout of this repository")
def test_base_ab_schema(tmp_path):
    # HEAD against this checkout: one commit, so no history is needed
    worktrees = _git("worktree", "list", "--porcelain")
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_snapshot.py", "--pr", "0", "--out", str(out), "--repeat", "1",
         "--number", "2", "--cli-runs", "1", "--profile-calls", "1", "--base", "HEAD"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert _git("worktree", "list", "--porcelain") == worktrees  # the base worktree is gone

    ab = json.loads(out.read_text())["base"]
    assert (ab["rev"], ab["rounds"], ab["number"]) == ("HEAD", 20, 2)
    assert ab["commit"] == _git("rev-parse", "HEAD")
    base, change = ab["workers"]["base"], ab["workers"]["change"]
    assert base["pid"] != change["pid"] and os.getpid() not in (base["pid"], change["pid"])
    assert Path(change["hqec"]).resolve() == (ROOT / "src" / "hqec" / "__init__.py").resolve()
    assert Path(base["hqec"]).parts[-3:] == ("src", "hqec", "__init__.py")
    assert not Path(base["hqec"]).resolve().is_relative_to(ROOT.resolve())
    assert not Path(base["hqec"]).exists()  # the temporary tree is removed
    assert set(ab["runners"]) == RUNNERS
    for name, r in ab["runners"].items():
        assert len(r["base_us"]) == len(r["change_us"]) == 20
        assert all(us > 0 for us in r["base_us"] + r["change_us"])
        assert r["ratio_q1"] <= r["ratio_median"] <= r["ratio_q3"]
        assert 0 <= r["won"] <= 20
        assert f"  {name} " in proc.stdout  # one printed line per runner
