"""``cli.main`` raises glibc's heap thresholds, and does nothing where it
cannot: off glibc or without ``mallopt``. A value ``mallopt`` rejects leaves
the other in force. A fake libc stands in for the process's C library,
except in the last test, which asks this process's glibc."""

import ctypes
import types

import pytest

from drsynth import cli


def _fake_libc(returns: int = 1, with_mallopt: bool = True):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return returns

    return (types.SimpleNamespace(mallopt=mallopt) if with_mallopt else types.SimpleNamespace()), calls


def _dry_run(tmp_path) -> int:
    return cli.main(["run", "--dry-run", "--workdir", str(tmp_path / "work")])


def test_main_sets_both_thresholds(monkeypatch, tmp_path, capsys):
    libc, calls = _fake_libc()
    monkeypatch.setattr(cli, "_glibc", lambda: libc)
    assert _dry_run(tmp_path) == 0
    assert calls == [(-3, 32 << 20), (-1, 256 << 20)]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert libc.mallopt.restype is ctypes.c_int


@pytest.mark.parametrize("libc, returns, expected", [
    ("another libc", 1, []),
    ("no mallopt", 1, []),
    ("glibc", 0, [(-3, 32 << 20), (-1, 256 << 20)]),  # a rejected value does not stop the other
])
def test_nothing_breaks_where_mallopt_cannot_run(
    monkeypatch, tmp_path, capsys, libc, returns, expected
):
    fake, calls = _fake_libc(returns, with_mallopt=libc != "no mallopt")
    monkeypatch.setattr(cli, "_glibc", lambda: None if libc == "another libc" else fake)
    assert _dry_run(tmp_path) == 0
    assert calls == expected
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("confstr", ["missing", "unknown name", "undefined", "musl"])
def test_only_glibc_is_loaded(monkeypatch, tmp_path, capsys, confstr):
    def unknown_name(name):
        raise ValueError(f"unrecognized configuration name: {name}")

    if confstr == "missing":  # a platform without confstr
        monkeypatch.delattr(cli.os, "confstr")
    else:
        value = {"undefined": lambda name: None, "musl": lambda name: "musl 1.2"}.get(confstr, unknown_name)
        monkeypatch.setattr(cli.os, "confstr", value)
    assert cli._glibc() is None
    assert _dry_run(tmp_path) == 0


def test_this_glibc_accepts_every_threshold():
    """The real ``mallopt`` takes each value ``main`` sets (it returns 0 for one it rejects)."""
    libc = cli._glibc()
    if libc is None:
        pytest.skip("not a glibc process")
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in cli.HEAP_THRESHOLDS:
        assert mallopt(param, value) == 1, (param, value)
