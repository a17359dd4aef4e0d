"""Command-line layer: literal parsers, report round-trips, exit codes,
and configuration precedence.  Parser totality is fuzzed: arbitrary text
must either parse or raise a structured ParseError, never anything else.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclose import cli
from gclose.circle import CirclePoint
from gclose.cli import (
    MAX_BUDGET,
    MAX_DEN,
    MAX_HORIZON,
    MAX_RADICAND,
    MAX_SEQ_DEPTH,
    CliError,
    Command,
    ParseError,
    Report,
    main,
    parse_char_list,
    parse_fraction,
    parse_group,
    parse_int_matrix,
    parse_point,
    parse_point_vector,
    parse_seq,
    report_from_json,
    report_to_json,
    run,
    witness_from_result,
)
from gclose.duality import FgAbelianGroup
from gclose.torsion import (
    CFDenominators,
    Constant,
    Explicit,
    Factorial,
    Geometric,
    Interleave,
    Subsequence,
)
from gclose.witness import check_witness

GOLDEN = CirclePoint.quadratic(-1, 1, 2, 5)


# point literals -----------------------------------------------------------------


def test_parse_point_rational():
    assert parse_point("7/16") == CirclePoint.rational(7, 16)


def test_parse_point_reduces():
    assert parse_point("10/8") == CirclePoint.rational(1, 4)


def test_parse_point_quadratic():
    p = parse_point("quad:(-1+1*sqrt(5))/2")
    assert p == GOLDEN
    assert p.value_cmp(Fraction(0)) >= 0 and p.value_cmp(Fraction(1)) < 0


def test_parse_point_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_point("1/0")
    assert e.value.position == 2
    with pytest.raises(ParseError) as e:
        parse_point("quad:(1+1*sqrt(4))/3")
    assert e.value.position == 15
    with pytest.raises(ParseError):
        parse_point("quad:(1+1*sqrt(-3))/2")
    with pytest.raises(ParseError):
        parse_point("")
    with pytest.raises(ParseError):
        parse_point("one half")


def test_large_square_radicand_is_rejected_at_once(capsys):
    # the square test is isqrt, not a walk up to sqrt(d)
    d = 10**16
    point = f"quad:(1+1*sqrt({d}))/3"
    with pytest.raises(ParseError, match=f"radicand {d} is a perfect square") as e:
        parse_point(point)
    assert e.value.position == 15
    assert main(["tmem", "--seq", "geom:2", "--point", point]) == 1
    assert capsys.readouterr().err == (
        f"gclose: error: at position 15: radicand {d} is a perfect square\n"
    )


def test_radicand_above_bound_is_rejected_at_once(capsys):
    d = 10**17 + 3  # not a square; trial division to sqrt(d) would not finish
    point = f"quad:(1+1*sqrt({d}))/3"
    started = time.perf_counter()
    with pytest.raises(ParseError, match=f"radicand {d} exceeds {MAX_RADICAND}") as e:
        parse_point(point)
    assert e.value.position == 15
    assert main(["tmem", "--seq", "geom:2", "--point", point]) == 1
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        f"gclose: error: at position 15: radicand {d} exceeds {MAX_RADICAND}\n"
    )


def test_radicand_just_under_bound_parses():
    d = MAX_RADICAND - 11
    assert parse_point(f"quad:(1+1*sqrt({d}))/3").den == 3


def test_parse_fraction_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("5") == Fraction(5)
    assert parse_fraction("2^-20") == Fraction(1, 2**20)
    with pytest.raises(ParseError):
        parse_fraction("x/y")


def test_parse_point_vector_and_char_list():
    vec = parse_point_vector("1/2,quad:(-1+1*sqrt(5))/2")
    assert vec == (CirclePoint.rational(1, 2), GOLDEN)
    chars = parse_char_list("1/2,0;0,1/3")
    assert len(chars) == 2 and chars[0][1] == CirclePoint.zero()
    assert parse_char_list("") == ()


# matrices and groups -------------------------------------------------------------


def test_parse_matrix():
    m = parse_int_matrix("2,4;6,8")
    assert m.entries == ((2, 4), (6, 8))
    with pytest.raises(ParseError):
        parse_int_matrix("1,2;3")
    with pytest.raises(ParseError):
        parse_int_matrix("1,x")


def test_parse_group():
    assert parse_group("Z^2+Z/2+Z/4") == FgAbelianGroup(2, (2, 4))
    assert parse_group("Z") == FgAbelianGroup(1, ())
    assert parse_group("0") == FgAbelianGroup(0, ())
    assert parse_group(str(FgAbelianGroup(1, (3, 6)))) == FgAbelianGroup(1, (3, 6))
    with pytest.raises(ParseError):
        parse_group("Z/4+Z/6")  # not a divisibility chain
    with pytest.raises(ParseError):
        parse_group("Q")


# sequence mini-language -----------------------------------------------------------


def test_parse_seq_forms():
    assert parse_seq("geom:2") == Geometric(2)
    assert parse_seq("geom:3*(1,-2)") == Geometric(3, (1, -2))
    assert parse_seq("fact") == Factorial()
    assert parse_seq("const:4,0") == Constant((4, 0))
    assert parse_seq("list:1,2;3,4") == Explicit(((1, 2), (3, 4)))
    u = parse_seq("cfden:quad:(-1+1*sqrt(5))/2")
    assert isinstance(u, CFDenominators)
    assert [u.term(n)[0] for n in range(5)] == [1, 1, 2, 3, 5]
    sub = parse_seq("sub(3,1):cfden:quad:(-1+1*sqrt(5))/2")
    assert isinstance(sub, Subsequence) and (sub.stride, sub.offset) == (3, 1)
    assert [sub.term(n)[0] for n in range(4)] == [1, 5, 21, 89]
    inter = parse_seq("interleave(geom:2@2;fact@1)")
    assert isinstance(inter, Interleave) and inter.blocks == (2, 1)


def test_parse_seq_errors():
    for bad in ("geom:1", "geom:", "walk:3", "sub(1):fact", "interleave(geom:2)",
                "list:", "const:", "sub(2,0):nope", ""):
        with pytest.raises(ParseError):
            parse_seq(bad)


@pytest.mark.parametrize(
    "seq,position",
    [("geom:x", 5), ("sub(2,0):geom:x", 14), ("geom:x*(1,2)", 5), ("sub(3,1):geom:y*(1)", 14)],
)
def test_bad_geometric_base_is_reported_where_it_sits(seq, position, capsys):
    bad = seq.split("geom:")[1].split("*")[0]
    with pytest.raises(ParseError, match=f"bad geometric base '{bad}'") as e:
        parse_seq(seq)
    assert e.value.position == position
    assert main(["tmem", "--seq", seq, "--point", "1/3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gclose: error: at position {position}: bad geometric base '{bad}'\n"


def _nested_sub(levels):
    return "sub(1,0):" * levels + "geom:2"


def _nested_interleave(levels):
    text = "geom:2"
    for _ in range(levels):
        text = f"interleave({text}@1)"
    return text


@pytest.mark.parametrize(
    "nest,step", [(_nested_sub, len("sub(1,0):")), (_nested_interleave, len("interleave("))]
)
def test_sequence_nesting_is_capped(nest, step, capsys):
    assert parse_seq(nest(MAX_SEQ_DEPTH)).describe() == nest(MAX_SEQ_DEPTH)
    message = f"sequence nests deeper than {MAX_SEQ_DEPTH} levels"
    for levels in (MAX_SEQ_DEPTH + 1, 2000 if nest is _nested_sub else 400):
        with pytest.raises(ParseError, match=message) as e:
            parse_seq(nest(levels))
        assert e.value.position == MAX_SEQ_DEPTH * step
        assert main(["smem", "--seq", nest(levels), "--point", "1/3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gclose: error: at position {MAX_SEQ_DEPTH * step}: {message}\n"
        )


@given(
    st.recursive(
        st.one_of(
            st.builds(Geometric, st.integers(min_value=2, max_value=9)),
            st.just(Factorial()),
            st.just(CFDenominators(GOLDEN)),
            st.builds(
                Constant,
                st.tuples(st.integers(min_value=-9, max_value=9).filter(bool)),
            ),
        ),
        lambda leaf: st.one_of(
            st.builds(
                Subsequence,
                leaf,
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=3),
            ),
            st.builds(
                lambda children: Interleave(children, tuple(1 for _ in children)),
                st.lists(leaf, min_size=2, max_size=3).map(tuple),
            ),
        ),
        max_leaves=4,
    )
)
@settings(max_examples=80)
def test_describe_parse_round_trip(u):
    again = parse_seq(u.describe())
    assert again == u
    assert again.describe() == u.describe()


@given(st.text(max_size=40))
@settings(max_examples=200)
def test_parser_totality(text):
    for parser in (parse_point, parse_seq, parse_int_matrix, parse_group):
        try:
            parser(text)
        except ParseError:
            pass


# reports and exit codes ------------------------------------------------------------


def test_run_tmem_exit_zero():
    report, code = run(Command("tmem", {"seq": "geom:2", "point": "1/3"}, {}))
    assert code == 0
    assert report.result["verdict"]["status"] == "exact"
    assert report.result["verdict"]["member"] is False


def test_run_undecided_exit_two():
    report, code = run(
        Command("tmem", {"seq": "geom:2", "point": "quad:(-1+1*sqrt(5))/2"}, {})
    )
    assert code == 2
    assert report.result["verdict"]["status"] == "undecided"


def test_run_snf_payload_decimal_strings():
    big = str(2**70)
    report, code = run(Command("snf", {"matrix": f"{big},0;0,3"}, {}))
    assert code == 0
    assert report.result["diagonal"] == ["1", str(3 * 2**70)]
    assert all(isinstance(x, str) for row in report.result["D"] for x in row)
    flat = report_to_json(report)
    assert f'"{3 * 2**70}"' in flat


def test_report_round_trip_equality():
    for cmd in (
        Command("snf", {"matrix": "2,4;6,8"}, {}),
        Command("tmem", {"seq": "fact", "point": "22/7"}, {}),
        Command("profile", {"seq": "geom:2", "max_den": "6"}, {}),
        Command("radical", {"chars": "1/2,0;0,1/3"}, {}),
    ):
        report, _ = run(cmd)
        assert report_from_json(report_to_json(report)) == report


def test_witness_report_self_contained():
    report, code = run(
        Command(
            "witness",
            {"gens": "quad:(-1+1*sqrt(5))/2", "chi": "1/2", "delta": "1/2"},
            {},
        )
    )
    assert code == 0
    blob = report_from_json(report_to_json(report))
    w, topology, chi = witness_from_result(blob.result)
    assert check_witness(w, topology, chi)


def test_gmem_report_witness_reverifies():
    report, code = run(
        Command("gmem", {"gens": "1/2;1/3", "chi": "1/5"}, {})
    )
    assert code == 0
    w, topology, chi = witness_from_result(report.result["witness"])
    assert check_witness(w, topology, chi)


def test_bds_report_probe_witnesses_reverify():
    report, code = run(
        Command(
            "bds",
            {"alpha": "quad:(-1+1*sqrt(5))/2", "probes": "1/2", "multiple_bound": "3"},
            {},
        )
    )
    assert code == 0
    for row in report.result["probes"]:
        w, topology, chi = witness_from_result(row["witness"])
        assert check_witness(w, topology, chi)


def test_closure_verb_full_torus():
    report, code = run(
        Command("closure", {"group": "Z", "gens": "quad:(-1+1*sqrt(5))/2"}, {})
    )
    assert code == 0
    assert report.result["closed"] is False
    assert report.result["torus_directions"] == [["1"]]


def test_dual_verb():
    report, code = run(Command("dual", {"relations": "2,0;0,3", "generators": "2"}, {}))
    assert code == 0
    assert report.result["group"] == "Z/6"


def test_unknown_verb_rejected():
    with pytest.raises(CliError):
        run(Command("frob", {}, {}))


# configuration precedence ------------------------------------------------------------


def test_env_config(monkeypatch):
    monkeypatch.setenv("GCLOSE_HORIZON", "64")
    report, _ = run(Command("tmem", {"seq": "geom:2", "point": "1/3"}, {}))
    assert report.config["horizon"] == "64"
    assert report.config["sources"]["horizon"] == "env"


def test_flag_beats_env(monkeypatch):
    monkeypatch.setenv("GCLOSE_HORIZON", "64")
    report, _ = run(
        Command("tmem", {"seq": "geom:2", "point": "1/3"}, {"horizon": "128"})
    )
    assert report.config["horizon"] == "128"
    assert report.config["sources"]["horizon"] == "flag"


def test_default_config_echoed():
    report, _ = run(Command("tmem", {"seq": "geom:2", "point": "1/3"}, {}))
    assert report.config["horizon"] == "512"
    assert report.config["tolerance"] == "1/1048576"
    assert report.config["budget"] == "48,512"


def test_horizon_above_bound_is_an_error(monkeypatch, capsys):
    argv = ["tmem", "--seq", "fact", "--point", "quad:(0+1*sqrt(2))/2"]
    started = time.perf_counter()
    assert main(argv + ["--horizon", "100000000"]) == 1
    assert capsys.readouterr().err == f"gclose: error: horizon 100000000 exceeds {MAX_HORIZON}\n"
    monkeypatch.setenv("GCLOSE_HORIZON", str(MAX_HORIZON + 1))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"gclose: error: horizon {MAX_HORIZON + 1} exceeds {MAX_HORIZON}\n"
    assert time.perf_counter() - started < 1
    report, _ = run(Command("tmem", {"seq": "geom:2", "point": "1/3"}, {"horizon": str(MAX_HORIZON)}))
    assert MAX_HORIZON == 4096 and report.config["horizon"] == "4096"


def test_max_den_and_budget_above_bound_are_errors(monkeypatch, capsys):
    started = time.perf_counter()
    assert main(["profile", "--seq", "geom:2", "--max-den", str(MAX_DEN + 1)]) == 1
    assert capsys.readouterr().err == f"gclose: error: max-den {MAX_DEN + 1} exceeds {MAX_DEN}\n"
    cap = f"{MAX_BUDGET[0]},{MAX_BUDGET[1]}"
    gmem = ["gmem", "--gens", "1/3", "--chi", "1/5"]
    for over in (f"{MAX_BUDGET[0] + 1},8", f"8,{MAX_BUDGET[1] + 1}"):
        assert main([*gmem, "--budget", over]) == 1
        assert capsys.readouterr().err == f"gclose: error: budget {over} exceeds {cap}\n"
    monkeypatch.setenv("GCLOSE_BUDGET", f"{MAX_BUDGET[0] + 1},8")
    assert main(gmem) == 1
    assert capsys.readouterr().err.endswith(f"exceeds {cap}\n")
    assert time.perf_counter() - started < 1
    monkeypatch.delenv("GCLOSE_BUDGET")
    report, _ = run(Command("gmem", {"gens": "1/3", "chi": "1/5"}, {"budget": cap}))
    assert MAX_BUDGET == (512, 16384) and report.config["budget"] == cap
    assert MAX_DEN == 2048


def test_bad_env_is_an_error(monkeypatch):
    monkeypatch.setenv("GCLOSE_BUDGET", "lots")
    assert main(["tmem", "--seq", "geom:2", "--point", "1/3"]) == 1


# the main() driver ---------------------------------------------------------------------


def test_main_spec_examples(capsys):
    assert main(["tmem", "--seq", "geom:2", "--point", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "Exact Out" in out

    assert (
        main(
            [
                "witness",
                "--gens",
                "quad:(-1+1*sqrt(5))/2",
                "--chi",
                "1/2",
                "--delta",
                "1/2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sub(3,0):cfden" in out

    assert main(["snf", "--matrix", "2,4;6,8"]) == 0
    out = capsys.readouterr().out
    assert "(2, 4)" in out


def test_main_error_paths(capsys):
    assert main(["tmem", "--seq", "geom:2", "--point", "1/0"]) == 1
    assert "position" in capsys.readouterr().err
    assert main(["tmem", "--seq", "geom:2", "--point", "1/3", "--bogus"]) == 1
    capsys.readouterr()
    assert main(["snf", "--matrix", "2,4;6,8", "--format", "csv"]) == 1
    capsys.readouterr()
    assert main(["nope"]) == 1
    capsys.readouterr()


def test_main_exit_two_for_inconclusive(capsys):
    code = main(
        ["tmem", "--seq", "geom:2", "--point", "quad:(-1+1*sqrt(5))/2"]
    )
    capsys.readouterr()
    assert code == 2


def test_long_irrational_scan_reports_a_short_bound(capsys):
    # the 2048th term is near 2047! * sqrt(7)/3; its bound is reported on the
    # tol/8 grid, not as a Fraction of about 6000 digits
    started = time.perf_counter()
    code = main(
        ["tmem", "--seq", "fact", "--point", "quad:(-2+1*sqrt(7))/3", "--horizon", "2048"]
    )
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    reason = next(line for line in out.splitlines() if line.startswith("Undecided:"))
    assert "at index 2047 (horizon 2048)" in reason and len(reason) < 120
    assert time.perf_counter() - started < 60


def test_main_json_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "profile",
            "--seq",
            "geom:2",
            "--max-den",
            "8",
            "--format",
            "json",
            "--output",
            str(target),
        ]
    )
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["result"]["admitted"] == ["1", "2", "4", "8"]
    assert data["schema_version"] == "1"


def test_main_profile_csv(capsys):
    assert main(["profile", "--seq", "geom:2", "--max-den", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,status,member,reason"
    assert len(lines) == 5


def test_human_format_certified_horizon(capsys):
    dens = "1;2;5;13"  # too short to certify: undecided at default tolerance
    code = main(["tmem", "--seq", f"list:{dens}", "--point", "quad:(-1+1*sqrt(5))/2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "Undecided" in out or "CERTIFIED UP TO HORIZON" in out


# the verb table ------------------------------------------------------------------

# one cheap, well-formed invocation of every verb
SAMPLE_ARGV = {
    "dual": ["--generators", "1"],
    "closure": ["--group", "Z"],
    "radical": ["--k", "1"],
    "snf": ["--matrix", "1"],
    "tmem": ["--seq", "geom:2", "--point", "1/2"],
    "smem": ["--seq", "geom:2*(1,1)", "--point", "1/2,1/4"],
    "profile": ["--seq", "geom:2", "--max-den", "4"],
    "nullseq": ["--k", "1", "--budget", "3,8"],
    "witness": ["--chi", "1/2", "--delta", "1/2", "--budget", "3,8"],
    "gmem": ["--chi", "1/2", "--budget", "3,8"],
    "bds": ["--alpha", "quad:(-1+1*sqrt(5))/2", "--probes", "1/2", "--multiple-bound", "1",
            "--budget", "3,8"],
}


def test_every_verb_has_parser_handler_and_human_formatter():
    parser = cli._build_parser()
    assert parser is cli._build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "verb").choices
    assert list(subparsers) == list(cli._VERBS) == list(SAMPLE_ARGV)
    for name, verb in cli._VERBS.items():
        assert callable(verb.handler) and callable(verb.human)
        dests = {a.dest for a in subparsers[name]._actions}
        assert set(verb.keys) <= dests
        assert ("budget" in dests) == verb.budgeted


@pytest.mark.parametrize("verb", list(SAMPLE_ARGV))
def test_csv_format_exactly_for_profile_and_bds(verb, capsys):
    human = main([verb, *SAMPLE_ARGV[verb]])
    capsys.readouterr()
    assert human in (0, 2)
    code = main([verb, *SAMPLE_ARGV[verb], "--format", "csv"])
    captured = capsys.readouterr()
    if verb in ("profile", "bds"):
        assert code == human and captured.out and not captured.err
    else:
        assert code == 1 and not captured.out
        assert captured.err == (
            f"gclose: error: csv format is not available for verb {verb!r}\n"
        )


def test_successive_main_calls_share_no_state(capsys):
    bds = ["bds", "--alpha", "quad:(-1+1*sqrt(5))/2", "--probes", "1/2"]
    bds += ["--multiple-bound", "3"]
    main([*bds, "--budget", "3,8", "--format", "json"])
    assert json.loads(capsys.readouterr().out)["arguments"]["multiple_bound"] == "3"
    assert main(["tmem", "--seq", "geom:2", "--point", "5/8", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["arguments"] == {"seq": "geom:2", "point": "5/8"}
    assert report["config"]["sources"]["budget"] == "default"
    for bad in (["tmem", "--seq", "geom:2"], ["tmem", "--seq", "geom:2", "--bogus", "1"]):
        assert main(bad) == 1
        assert capsys.readouterr().err.startswith("gclose: error: ")
        assert main(["tmem", "--seq", "geom:2", "--point", "5/8"]) == 0
        assert capsys.readouterr().out.startswith("gclose tmem")


def test_closed_pipe_ends_quietly_with_the_report_code():
    """A reader that leaves early (``| head -c 50``) gets no traceback and
    no 'Exception ignored' line; the exit code is the report's own."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    argv = [sys.executable, "-m", "gclose.cli", "profile", "--seq", "geom:2"]
    argv += ["--max-den", "2000", "--format", "json"]  # about 900 KB of output
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert err == b""
    assert code == 0
