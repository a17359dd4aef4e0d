"""Command-line layer: literal parsers, report round-trips, exit codes,
and configuration precedence.  Parser totality is fuzzed: arbitrary text
must either parse or raise a structured ParseError, never anything else.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclose.circle import CirclePoint
from gclose.cli import (
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
