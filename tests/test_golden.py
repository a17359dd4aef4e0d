"""Golden CLI corpus: every command in tests/golden/commands.txt must print
exactly the exit code, stdout and stderr stored beside it.

The stored outputs drop the only nondeterministic field, the elapsed time:
the "timing_seconds" line of JSON reports and the "[x.xxxs]" footer of human
reports.  The test compares and never rewrites.  After a deliberate change
in output, re-record with ``PYTHONPATH=src python tests/test_golden.py
record`` and review the diff of tests/golden/ line by line.
"""

import io
import os
import re
import shlex
import sys
import time
import tracemalloc
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gclose import cli, torsion
from gclose.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_TIMING = re.compile(r'^  "timing_seconds": [^\n]*\n|^\[\d+\.\d{3}s\] [^\n]*\n', re.M)


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for line in (GOLDEN_DIR / "commands.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            cases.append((name, argv))
    return cases


def render(argv: list[str]) -> str:
    """Exit code, stdout and stderr of main(argv), with timings removed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return _TIMING.sub("", text)


CASES = _cases()


def test_corpus_covers_every_verb_format_and_exit_code():
    texts = {name: (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8") for name, _ in CASES}
    verbs = {argv[0] for _, argv in CASES}
    assert set(cli._VERBS) <= verbs
    formats = {
        argv[argv.index("--format") + 1] if "--format" in argv else "human"
        for _, argv in CASES
    }
    assert formats == {"json", "csv", "human"}
    assert {t.split("\n", 1)[0] for t in texts.values()} == {"exit 0", "exit 1", "exit 2"}


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, monkeypatch):
    for key in list(os.environ):
        if key.startswith("GCLOSE_"):
            monkeypatch.delenv(key)
    expected = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert render(argv) == expected


@pytest.mark.parametrize(
    "name",
    [
        "tmem-geom-state-cap",
        "tmem-geom-state-cap-m61",
        "tmem-interleave-strided-state-cap",
        "tmem-cfden-state-cap",
        "tmem-cfden-strided-state-cap",
        "tmem-cfden-strided-scan",
    ],
)
def test_state_cap_queries_are_fast_and_small(name, monkeypatch):
    # orbits of more than 10^6 states: the period search stores O(sqrt) states,
    # and an interleave's period is known before any residue is read; a scan
    # walks its terms and keeps none of the q_n it steps over (the strided
    # cfden scan reads q_0, q_20000 and q_40000).  An empty expansion cache
    # keeps the golden run of the same command from doing the work first.
    for key in list(os.environ):
        if key.startswith("GCLOSE_"):
            monkeypatch.delenv(key)
    monkeypatch.setattr(torsion, "_CF_CACHE", OrderedDict())
    argv = dict(CASES)[name]
    tracemalloc.start()
    try:
        started = time.perf_counter()
        text = render(argv)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert text.startswith("exit 2\n")
    assert elapsed < 0.5, elapsed
    assert peak < 5 * 2**20, peak


@pytest.mark.parametrize(
    "name",
    [
        "tmem-cfden-long-period-stride",
        "tmem-cfden-long-period-pair-stride",
        "tmem-cfden-long-period-interleave",
    ],
)
def test_long_period_strided_cfden_queries_are_fast(name, monkeypatch):
    # strides and blocks of about one CF period (21032 quotients): a strided
    # cfden residue is read through one product row, not stepped quotient by
    # quotient, so these take well under a second instead of hours
    for key in list(os.environ):
        if key.startswith("GCLOSE_"):
            monkeypatch.delenv(key)
    started = time.perf_counter()
    text = render(dict(CASES)[name])
    elapsed = time.perf_counter() - started
    assert text == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert elapsed < 2.0, elapsed


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py record")
    for key in [k for k in os.environ if k.startswith("GCLOSE_")]:
        del os.environ[key]
    for name, argv in CASES:
        (GOLDEN_DIR / f"{name}.out").write_text(render(argv), encoding="utf-8")
