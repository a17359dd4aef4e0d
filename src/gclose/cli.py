"""Command-line front end: parsing, configuration, report emission.

Verbs map one-to-one onto kernel operations.  Reports are self-contained:
a serialized witness carries its generators, candidate, and certificates,
so it can be re-verified without any state beyond the report itself.

Exit codes: 0 for decided or computed outcomes, 2 for inconclusive ones
(Undecided or CertifiedUpTo verdicts, Exhausted searches, NotFound, probes
consistent with membership), 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from math import isqrt

from . import __version__
from .circle import CirclePoint
from .duality import (
    Character,
    DualSubgroup,
    FgAbelianGroup,
    IntMatrix,
    PrecompactTopology,
    closure_in_dual,
    group_from_presentation,
    smith_normal_form,
    von_neumann_radical,
)
from .torsion import (
    Budget,
    CFDenominators,
    Constant,
    Explicit,
    Factorial,
    Geometric,
    Interleave,
    IntVecSeq,
    NotFound,
    NullTermCert,
    Policy,
    Subsequence,
    Verdict,
    null_sequence,
    rational_torsion_profile,
    s_membership,
    t_membership,
)
from .witness import (
    EscapeTermCert,
    Exhausted,
    NotInGClosure,
    Witness,
    bds_experiment,
    find_witness,
    g_membership_experiment,
)

__all__ = [
    "ParseError",
    "CliError",
    "parse_fraction",
    "parse_point",
    "parse_point_vector",
    "parse_char_list",
    "parse_int_matrix",
    "parse_group",
    "parse_seq",
    "Command",
    "Report",
    "report_to_json",
    "report_from_json",
    "witness_from_result",
    "run",
    "main",
    "SCHEMA_VERSION",
    "MAX_RADICAND",
    "MAX_SEQ_DEPTH",
    "MAX_HORIZON",
    "MAX_DEN",
    "MAX_BUDGET",
    "MAX_MULTIPLE",
]

SCHEMA_VERSION = "1"

class ParseError(ValueError):
    """Malformed literal; carries the offending position in the input."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class CliError(ValueError):
    """Bad flags or unusable configuration."""


# ---------------------------------------------------------------------------
# literal parsers

# Largest radicand d a quadratic literal may carry: reducing d to its
# squarefree part trial-divides up to sqrt(d), about 0.1 s at this bound.
MAX_RADICAND = 10**12

# Most sub(...) and interleave(...) forms a sequence literal may nest.
MAX_SEQ_DEPTH = 64

# Largest --horizon / GCLOSE_HORIZON: a scan of n! at an irrational point
# takes about 0.2 s at this bound (shared 2-core host, CPython 3.11.7), and
# the terms' bit length grows as n log n.
MAX_HORIZON = 4096

# Largest --max-den: a profile decides every denominator up to it.  A cfden
# profile at this bound takes 1.4-1.6 s in-process (same host), about three
# times as long as at half the bound; geom and fact profiles take under 0.1 s.
MAX_DEN = 2048

# Largest --budget / GCLOSE_BUDGET, as (max_terms, max_candidates).  Every
# search measured at this bound ends within 0.03 s in-process (same host):
# nullseq over three characters of Z^2, the slowest, gives NOT FOUND at
# term 80 in 0.02 s.  Certificates list max_terms terms, and at 1024 terms
# bds builds integers too long to print.
MAX_BUDGET = (512, 16384)

# Largest bds --multiple-bound: bds checks 2N + 1 multiples of alpha, one
# exact verdict each.  At this bound a bds run takes 0.3-0.5 s (same host).
MAX_MULTIPLE = 4096


def _int(text: str, pos: int, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"bad {what} {text.strip()!r}", pos) from None


def _positioned(pieces: list[str], base: int):
    """Each piece of a text split on one-character separators, with its position."""
    for piece in pieces:
        yield piece, base
        base += len(piece) + 1


def parse_fraction(text: str, base: int = 0) -> Fraction:
    """Accepts 'p/q', a bare integer, or '2^-k'."""
    t = text.strip()
    if not t:
        raise ParseError("empty fraction literal", base)
    if t.startswith("2^-") or t.startswith("2^"):
        exp = t[2:]
        try:
            e = int(exp)
        except ValueError:
            raise ParseError(f"bad exponent {exp!r}", base + 2) from None
        # 2^|e| has more than `limit` digits exactly when 2^|e| >= 10^limit
        limit = sys.get_int_max_str_digits()
        if limit and abs(e) >= (10**limit).bit_length():
            raise ParseError(f"2^{abs(e)} has more than {limit} digits", base + 2)
        return Fraction(2) ** e
    if "/" in t:
        num, _, den = t.partition("/")
        try:
            n, d = int(num), int(den)
        except ValueError:
            raise ParseError(f"bad fraction {t!r}", base) from None
        if d == 0:
            raise ParseError("zero denominator", base + len(num) + 1)
        return Fraction(n, d)
    try:
        return Fraction(int(t))
    except ValueError:
        raise ParseError(f"bad fraction {t!r}", base) from None


def parse_point(text: str, base: int = 0) -> CirclePoint:
    """'p/q', a bare integer, or 'quad:(a+b*sqrt(d))/c'."""
    t = text.strip()
    if not t:
        raise ParseError("empty point literal", base)
    if t.startswith("quad:"):
        body = t[5:]
        off = base + 5
        # (a+b*sqrt(d))/c with optional signs on a and b
        if not body.startswith("("):
            raise ParseError("expected '(' after quad:", off)
        close = body.find(")/")
        if close < 0:
            raise ParseError("expected ')/c' closing the quadratic literal", off)
        inner, tail = body[1:close], body[close + 2 :]
        try:
            c = int(tail)
        except ValueError:
            raise ParseError(f"bad denominator {tail!r}", off + close + 2) from None
        if c == 0:
            raise ParseError("zero denominator", off + close + 2)
        marker = "*sqrt("
        star = inner.find(marker)
        if star < 0 or not inner.endswith(")"):
            raise ParseError("expected 'a+b*sqrt(d)'", off + 1)
        dpos = off + 1 + star + len(marker)
        d_text = inner[star + len(marker) : -1]
        try:
            d = int(d_text)
        except ValueError:
            raise ParseError(f"bad radicand {d_text!r}", dpos) from None
        if d < 2:
            raise ParseError(f"radicand {d} must be >= 2", dpos)
        if isqrt(d) ** 2 == d:
            raise ParseError(f"radicand {d} is a perfect square", dpos)
        if d > MAX_RADICAND:
            raise ParseError(f"radicand {d} exceeds {MAX_RADICAND}", dpos)
        head = inner[:star]
        # split a and b on the sign separating them (skip a leading sign)
        cut = None
        for i in range(1, len(head)):
            if head[i] in "+-":
                cut = i
        if cut is None:
            raise ParseError("expected 'a+b' before *sqrt", off + 1)
        try:
            a = int(head[:cut])
            b = int(head[cut:].lstrip("+") or "0") if head[cut] == "+" else int(head[cut:])
        except ValueError:
            raise ParseError(f"bad coefficients {head!r}", off + 1) from None
        return CirclePoint.quadratic(a, b, c, d)
    frac = parse_fraction(t, base)
    return CirclePoint.rational(frac.numerator, frac.denominator)


def parse_point_vector(text: str, base: int = 0) -> tuple[CirclePoint, ...]:
    """Comma-separated point literals (quadratic literals contain no commas)."""
    t = text.strip()
    if not t:
        raise ParseError("empty point vector", base)
    pieces = _positioned(t.split(","), base)
    return tuple(parse_point(piece, pos) for piece, pos in pieces)


def parse_char_list(text: str, base: int = 0) -> tuple[tuple[CirclePoint, ...], ...]:
    """Semicolon-separated character vectors; empty text means no characters."""
    t = text.strip()
    if not t:
        return ()
    pieces = _positioned(t.split(";"), base)
    return tuple(parse_point_vector(piece, pos) for piece, pos in pieces)


def parse_int_matrix(text: str, base: int = 0) -> IntMatrix:
    """Rows separated by ';', entries by ','; e.g. '2,4;6,8'."""
    t = text.strip()
    if not t:
        raise ParseError("empty matrix literal", base)
    rows = []
    for piece, pos in _positioned(t.split(";"), base):
        cells = _positioned(piece.split(","), pos)
        rows.append([_int(cell, at, "matrix entry") for cell, at in cells])
        if len(rows[-1]) != len(rows[0]):
            raise ParseError("ragged matrix rows", pos)
    return IntMatrix.from_rows(rows)


def parse_group(text: str, base: int = 0) -> FgAbelianGroup:
    """'Z^r + Z/d1 + Z/d2 + ...' with d1 | d2 | ... (or '0' for trivial)."""
    t = text.replace(" ", "")
    if not t:
        raise ParseError("empty group literal", base)
    if t == "0":
        return FgAbelianGroup(0, ())
    free = 0
    factors = []
    for piece, pos in _positioned(t.split("+"), base):
        if piece == "Z":
            free += 1
        elif piece.startswith("Z^"):
            r = _int(piece[2:], pos + 2, "free rank")
            if r < 1:
                raise ParseError("free rank must be >= 1", pos + 2)
            free += r
        elif piece.startswith("Z/"):
            factors.append(_int(piece[2:], pos + 2, "torsion order"))
        else:
            raise ParseError(f"unknown group term {piece!r}", pos)
    try:
        return FgAbelianGroup(free, tuple(factors))
    except ValueError as exc:
        raise ParseError(str(exc), base) from None


def _interleave_children(body: str, base: int):
    """(piece, position, index of its last top-level '@' or None) for each
    child of an interleave body.  A top-level ';' ends a child only once the
    child has its top-level '@block', so a list child keeps its own ';'."""
    depth, start, at = 0, 0, None
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "@" and depth == 0:
            at = i - start
        elif ch == ";" and depth == 0 and at is not None:
            yield body[start:i], base + start, at
            start, at = i + 1, None
    yield body[start:], base + start, at


def _parse_int_tuple(text: str, base: int) -> tuple[int, ...]:
    pieces = _positioned(text.split(","), base)
    return tuple(_int(piece, pos, "integer") for piece, pos in pieces)


def parse_seq(text: str, base: int = 0) -> IntVecSeq:
    """Sequence mini-language:

    geom:B [*(p1,...)], fact [*(p1,...)], cfden:<point>, const:v1,...,
    list:v11,v12;v21,v22;..., sub(a,b):<seq>, interleave(<seq>@b;...).
    At most MAX_SEQ_DEPTH sub and interleave forms nest.
    """
    return _parse_seq(text, base, 0)


def _parse_seq(text: str, base: int, depth: int) -> IntVecSeq:
    t = text.strip()
    if not t:
        raise ParseError("empty sequence literal", base)
    if depth == MAX_SEQ_DEPTH and t.startswith(("sub(", "interleave(")):
        raise ParseError(f"sequence nests deeper than {MAX_SEQ_DEPTH} levels", base)
    try:
        if t.startswith("geom:"):
            body = t[5:]
            if "*(" in body:
                head, _, pat = body.partition("*(")
                if not pat.endswith(")"):
                    raise ParseError("unclosed pattern", base + len(t) - 1)
                return Geometric(
                    _int(head, base + 5, "geometric base"),
                    _parse_int_tuple(pat[:-1], base + 5 + len(head) + 2),
                )
            return Geometric(_int(body, base + 5, "geometric base"))
        if t == "fact":
            return Factorial()
        if t.startswith("fact*("):
            pat = t[6:]
            if not pat.endswith(")"):
                raise ParseError("unclosed pattern", base + len(t) - 1)
            return Factorial(_parse_int_tuple(pat[:-1], base + 6))
        if t.startswith("cfden:"):
            return CFDenominators(parse_point(t[6:], base + 6))
        if t.startswith("const:"):
            return Constant(_parse_int_tuple(t[6:], base + 6))
        if t.startswith("list:"):
            pieces = _positioned(t[5:].split(";"), base + 5)
            return Explicit(tuple(_parse_int_tuple(piece, pos) for piece, pos in pieces))
        if t.startswith("sub("):
            close = t.find("):")
            if close < 0:
                raise ParseError("expected '(a,b):' after sub", base + 4)
            params = _parse_int_tuple(t[4:close], base + 4)
            if len(params) != 2:
                raise ParseError("sub takes exactly (stride, offset)", base + 4)
            child = _parse_seq(t[close + 2 :], base + close + 2, depth + 1)
            return Subsequence(child, *params)
        if t.startswith("interleave(") and t.endswith(")"):
            children = []
            blocks = []
            for piece, offset, at in _interleave_children(t[11:-1], base + 11):
                if at is None:
                    raise ParseError("expected '<seq>@<block>'", offset)
                children.append(_parse_seq(piece[:at], offset, depth + 1))
                try:
                    blocks.append(int(piece[at + 1 :]))
                except ValueError:
                    raise ParseError(
                        f"bad block size {piece[at + 1:]!r}", offset + at + 1
                    ) from None
            return Interleave(tuple(children), tuple(blocks))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), base) from None
    raise ParseError(f"unknown sequence form {t!r}", base)


def _parse_ambient_character(ambient: FgAbelianGroup, text: str, base: int) -> Character:
    pieces = list(_positioned(text.split(","), base))
    need = ambient.free_rank + len(ambient.invariant_factors)
    if len(pieces) != need:
        raise ParseError(
            f"character needs {need} coordinates for {ambient}, got {len(pieces)}", base
        )
    r = ambient.free_rank
    free = tuple(parse_point(piece, pos) for piece, pos in pieces[:r])
    torsion = tuple(_int(piece, pos, "torsion residue") for piece, pos in pieces[r:])
    return Character.make(ambient, free, torsion)


# ---------------------------------------------------------------------------
# serialization helpers (domain integers as decimal strings)


def _s(x: int) -> str:
    return str(int(x))


def _fr(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _matrix_payload(m: IntMatrix) -> list[list[str]]:
    return [[_s(x) for x in row] for row in m.entries]


def _verdict_payload(v: Verdict) -> dict:
    return {
        "status": v.status,
        "member": v.member,
        "reason": v.reason,
        "horizon": None if v.horizon is None else _s(v.horizon),
        "worst_bound": None if v.worst_bound is None else _fr(v.worst_bound),
        "trace": [[_s(n), _fr(b)] for n, b in v.trace],
        "detail": {k: str(val) for k, val in v.detail},
    }


def _null_cert_payload(cert: tuple[NullTermCert, ...]) -> list[dict]:
    return [
        {
            "index": _s(tc.index),
            "term": [_s(x) for x in tc.term],
            "norms": [_fr(b) for b in tc.norms],
            "envelope": _fr(tc.envelope),
        }
        for tc in cert
    ]


def _escape_cert_payload(cert: tuple[EscapeTermCert, ...]) -> list[dict]:
    return [
        {
            "index": _s(tc.index),
            "term": [_s(x) for x in tc.term],
            "norm_lower": _fr(tc.norm_lower),
            "threshold": _fr(tc.threshold),
        }
        for tc in cert
    ]


def _points(points) -> str:
    return ",".join(str(p) for p in points)


def _context_payload(chars: tuple[tuple[CirclePoint, ...], ...], chi) -> dict:
    return {"generators": [_points(c) for c in chars], "chi": _points(chi)}


def _witness_payload(
    w: Witness, chars: tuple[tuple[CirclePoint, ...], ...], chi
) -> dict:
    return {
        **_context_payload(chars, chi),
        "delta": _fr(w.escape_threshold),
        "strategy": w.strategy,
        "sequence": w.sequence.describe(),
        "null_certificate": _null_cert_payload(w.null_certificate),
        "escape_certificate": _escape_cert_payload(w.escape_certificate),
    }


def witness_from_result(payload: dict) -> tuple[Witness, PrecompactTopology, tuple[CirclePoint, ...]]:
    """Rebuild a witness and its context from a self-contained report payload."""
    chars = tuple(parse_point_vector(t) for t in payload["generators"])
    chi = parse_point_vector(payload["chi"])
    k = len(chi)
    topology = PrecompactTopology.on_free(k, chars)
    nulls = tuple(
        NullTermCert(
            int(tc["index"]),
            tuple(int(x) for x in tc["term"]),
            tuple(parse_fraction(b) for b in tc["norms"]),
            parse_fraction(tc["envelope"]),
        )
        for tc in payload["null_certificate"]
    )
    escapes = tuple(
        EscapeTermCert(
            int(tc["index"]),
            tuple(int(x) for x in tc["term"]),
            parse_fraction(tc["norm_lower"]),
            parse_fraction(tc["threshold"]),
        )
        for tc in payload["escape_certificate"]
    )
    witness = Witness(
        parse_seq(payload["sequence"]),
        parse_fraction(payload["delta"]),
        nulls,
        escapes,
        payload["strategy"],
    )
    return witness, topology, chi


# ---------------------------------------------------------------------------
# command and report


@dataclass(frozen=True)
class Command:
    verb: str
    arguments: dict
    policy: dict
    output_path: str | None = None
    fmt: str = "human"


@dataclass(frozen=True)
class Report:
    schema_version: str
    kernel_version: str
    verb: str
    arguments: dict
    config: dict
    result: dict
    timing_seconds: float
    note: str


def report_to_json(report: Report) -> str:
    return json.dumps(vars(report), sort_keys=True, indent=2)


def report_from_json(text: str) -> Report:
    data = json.loads(text)
    return Report(**{f.name: data[f.name] for f in fields(Report)})


_NOTE = (
    "Exact verdicts are decided with finitely checkable reasons; "
    "CertifiedUpTo and Exhausted outcomes are bounded evidence, not decisions."
)


def _parse_tolerance(text: str) -> Fraction:
    """A tolerance whose reports print: scans report inexact bounds on a
    tol/8 grid, so 8 times its denominator must stay within the
    interpreter's digit limit.  The position is the denominator's."""
    tol = parse_fraction(text)
    limit = sys.get_int_max_str_digits()
    if limit and 8 * tol.denominator >= 10**limit:
        pos = text.find("/") + 1 if "/" in text else text.find("^") + 1
        raise ParseError(
            f"tolerance/8 has a denominator of more than {limit} digits", pos
        )
    return tol


def _resolve_config(policy: dict) -> tuple[Policy, Budget, dict]:
    """Flags > GCLOSE_* environment variables > defaults."""

    def pick(flag_key, env_key, parse, default):
        if policy.get(flag_key) is not None:
            return parse(policy[flag_key]), "flag"
        env = os.environ.get(env_key)
        if env is not None:
            try:
                return parse(env), "env"
            except ValueError as exc:
                raise CliError(f"bad {env_key}: {exc}") from None
        return default, "default"

    horizon, hsrc = pick("horizon", "GCLOSE_HORIZON", int, 512)
    if horizon > MAX_HORIZON:
        raise CliError(f"horizon {horizon} exceeds {MAX_HORIZON}")
    tolerance, tsrc = pick(
        "tolerance", "GCLOSE_TOLERANCE", _parse_tolerance, Fraction(1, 2**20)
    )

    def parse_budget(text):
        parts = str(text).split(",")
        if len(parts) != 2:
            raise CliError("budget must be 'max_terms,max_candidates'")
        return Budget(int(parts[0]), int(parts[1]))

    budget, bsrc = pick("budget", "GCLOSE_BUDGET", parse_budget, Budget())
    if budget.max_terms > MAX_BUDGET[0] or budget.max_candidates > MAX_BUDGET[1]:
        raise CliError(
            f"budget {budget.max_terms},{budget.max_candidates} exceeds "
            f"{MAX_BUDGET[0]},{MAX_BUDGET[1]}"
        )
    try:
        pol = Policy(horizon=int(horizon), tolerance=Fraction(tolerance))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    echo = {
        "horizon": _s(pol.horizon),
        "tolerance": _fr(pol.tolerance),
        "budget": f"{budget.max_terms},{budget.max_candidates}",
        "sources": {"horizon": hsrc, "tolerance": tsrc, "budget": bsrc},
    }
    return pol, budget, echo


# ---------------------------------------------------------------------------
# verbs: each has a handler (args, policy, budget) -> (result_payload,
# exit_code), a human formatter result -> lines and, for some, a csv one


def _rank(args, chars) -> int:
    """--k, or else the length of the first character vector."""
    if args.get("k"):
        return int(args["k"])
    if not chars:
        raise CliError("--k is required when no characters are given")
    return len(chars[0])


def _g_outcome_payload(outcome, chars, chi) -> dict:
    """A g-closure experiment's outcome: its witness, or every attempt made."""
    if isinstance(outcome, NotInGClosure):
        return {
            "outcome": "not_in_g_closure",
            "delta": _fr(outcome.delta),
            "witness": _witness_payload(outcome.witness, chars, chi),
        }
    return {
        "outcome": "consistent_with_membership",
        "attempts": [
            {
                "delta": _fr(d),
                "reason": e.reason,
                "candidates_tested": _s(e.candidates_tested),
            }
            for d, e in outcome.attempts
        ],
    }


def _run_dual(args, policy, budget):
    generators = int(args["generators"])
    relations = parse_int_matrix(args["relations"]) if args.get("relations") else IntMatrix.from_rows([], cols=generators)
    group = group_from_presentation(relations, generators)
    return {
        "generators": _s(generators),
        "relations": _matrix_payload(relations),
        "group": str(group),
        "free_rank": _s(group.free_rank),
        "invariant_factors": [_s(d) for d in group.invariant_factors],
    }, 0


def _human_dual(r):
    return [f"presented group: {r['group']}"]


def _run_closure(args, policy, budget):
    ambient = parse_group(args["group"])
    text = args.get("gens", "") or ""
    gens = tuple(
        _parse_ambient_character(ambient, piece, pos)
        for piece, pos in _positioned(text.split(";") if text.strip() else [], 0)
    )
    subgroup = DualSubgroup(ambient, gens)
    closure = closure_in_dual(subgroup)
    # H lies in its closure, so the two are equal when the closure lies in H
    closed = closure.is_finitely_generated and subgroup.contains_all(closure.finite_generators)
    return {
        "group": str(ambient),
        "subgroup_generators": [str(g) for g in subgroup.generators],
        "finite_generators": [str(g) for g in closure.finite_generators],
        "torus_directions": [[_s(x) for x in w] for w in closure.torus_directions],
        "finitely_generated": closure.is_finitely_generated,
        "closed": closed,
        "kernel_generators": [
            [_s(x) for x in g] for g in closure.kernel.element_generators()
        ],
    }, 0


def _human_closure(r):
    out = [f"ambient: {r['group']}", f"closed: {r['closed']}"]
    if r["finite_generators"]:
        out.append("closure generators: " + "; ".join(r["finite_generators"]))
    for w in r["torus_directions"]:
        out.append(f"full circle factor along ({', '.join(w)})")
    return out


def _run_radical(args, policy, budget):
    chars = parse_char_list(args.get("chars", "") or "")
    k = _rank(args, chars)
    topology = PrecompactTopology.on_free(k, chars)
    radical = von_neumann_radical(topology)
    return {
        "k": _s(k),
        "characters": [_points(c) for c in chars],
        "lattice_generators": [[_s(x) for x in g] for g in radical.element_generators()],
        "is_trivial": radical.is_trivial(),
    }, 0


def _human_radical(r):
    if r["is_trivial"]:
        return ["radical: trivial"]
    gens = "; ".join(",".join(g) for g in r["lattice_generators"])
    return [f"radical generators: {gens}"]


def _run_snf(args, policy, budget):
    m = parse_int_matrix(args["matrix"])
    u, d, v = smith_normal_form(m)
    return {
        "matrix": _matrix_payload(m),
        "U": _matrix_payload(u),
        "D": _matrix_payload(d),
        "V": _matrix_payload(v),
        "diagonal": [_s(x) for x in d.diagonal()],
        "det_U": _s(u.determinant()),
        "det_V": _s(v.determinant()),
    }, 0


def _human_snf(r):
    out = [f"D diagonal: ({', '.join(r['diagonal'])})"]
    for name in ("U", "D", "V"):
        out.append(f"{name} = {';'.join(','.join(row) for row in r[name])}")
    return out


def _membership_result(seq, points, verdict, policy):
    code = 0 if verdict.is_exact else 2
    return {
        "sequence": seq.describe(),
        "point": _points(points),
        "policy": {"horizon": _s(policy.horizon), "tolerance": _fr(policy.tolerance)},
        "verdict": _verdict_payload(verdict),
    }, code


def _run_tmem(args, policy, budget):
    seq = parse_seq(args["seq"])
    point = parse_point(args["point"])
    verdict = t_membership(seq, point, policy)
    return _membership_result(seq, (point,), verdict, policy)


def _run_smem(args, policy, budget):
    seq = parse_seq(args["seq"])
    points = parse_point_vector(args["point"])
    verdict = s_membership(seq, points, policy)
    return _membership_result(seq, points, verdict, policy)


def _human_membership(r):
    out = [f"sequence: {r['sequence']}  point: {r['point']}"]
    v = r["verdict"]
    if v["status"] == "exact":
        out.append(f"{'Exact In' if v['member'] else 'Exact Out'}: {v['reason']}")
    elif v["status"] == "certified_up_to":
        out.append(f"CERTIFIED UP TO HORIZON {v['horizon']} (no claim beyond)")
        out.append(f"  {v['reason']}")
        out.append(f"  worst bound observed: {v['worst_bound']}")
    else:
        out.append(f"Undecided: {v['reason']}")
    return out


def _run_profile(args, policy, budget):
    seq = parse_seq(args["seq"])
    max_den = int(args["max_den"])
    if max_den > MAX_DEN:
        raise CliError(f"max-den {max_den} exceeds {MAX_DEN}")
    profile = rational_torsion_profile(seq, max_den, policy)
    return {
        "sequence": seq.describe(),
        "max_den": _s(max_den),
        "entries": [
            {"q": _s(q), **_verdict_payload(v)} for q, v in profile.entries
        ],
        "admitted": [_s(q) for q in profile.admitted],
        "flagged": [_s(q) for q in profile.flagged],
    }, (2 if profile.flagged else 0)


def _human_profile(r):
    out = [
        f"sequence: {r['sequence']}  denominators up to {r['max_den']}",
        f"admitted: {{{', '.join(r['admitted'])}}}",
    ]
    if r["flagged"]:
        out.append(f"flagged (not exact): {{{', '.join(r['flagged'])}}}")
    for e in r["entries"]:
        mark = (
            "in"
            if e["member"]
            else ("out" if e["status"] == "exact" else e["status"].upper())
        )
        out.append(f"  1/{e['q']}: {mark}")
    return out


def _csv_member(member) -> str:
    return "" if member is None else str(member).lower()


def _csv_profile(r):
    out = ["q,status,member,reason"]
    for e in r["entries"]:
        reason = '"' + e["reason"].replace('"', '""') + '"'
        out.append(f"{e['q']},{e['status']},{_csv_member(e['member'])},{reason}")
    return out


def _run_nullseq(args, policy, budget):
    chars = parse_char_list(args.get("chars", "") or "")
    k = _rank(args, chars)
    topology = PrecompactTopology.on_free(k, chars)
    outcome = null_sequence(topology, budget)
    base = {"k": _s(k), "characters": [_points(c) for c in chars]}
    if isinstance(outcome, NotFound):
        base.update({"found": False, "reason": outcome.reason})
        return base, 2
    base.update(
        {
            "found": True,
            "sequence": outcome.sequence.describe(),
            "strategy": outcome.certificate.strategy,
            "certificate": _null_cert_payload(outcome.certificate.terms),
        }
    )
    return base, 0


def _human_nullseq(r):
    if not r["found"]:
        return [f"NOT FOUND: {r['reason']} (no nonexistence claim)"]
    out = [f"null sequence: {r['sequence']}  (strategy {r['strategy']})"]
    for tc in r["certificate"][:8]:
        out.append(
            f"  n={tc['index']}: a_n=({', '.join(tc['term'])}), "
            f"norms <= {tc['envelope']}"
        )
    if len(r["certificate"]) > 8:
        out.append(f"  ... {len(r['certificate'])} certified terms")
    return out


def _run_witness(args, policy, budget):
    chars = parse_char_list(args.get("gens", "") or "")
    chi = parse_point_vector(args["chi"])
    k = len(chi)
    topology = PrecompactTopology.on_free(k, chars)
    delta = parse_fraction(args["delta"])
    outcome = find_witness(topology, chi, delta, budget)
    if isinstance(outcome, Exhausted):
        return {
            "found": False,
            **_context_payload(chars, chi),
            "delta": _fr(delta),
            "reason": outcome.reason,
            "candidates_tested": _s(outcome.candidates_tested),
        }, 2
    payload = _witness_payload(outcome, chars, chi)
    payload["found"] = True
    return payload, 0


def _human_witness(r):
    if not r["found"]:
        return [f"EXHAUSTED: {r['reason']} (asserts nothing)"]
    out = [f"witness: {r['sequence']}  delta={r['delta']}  strategy={r['strategy']}"]
    for tc in r["escape_certificate"][:6]:
        out.append(
            f"  n={tc['index']}: a_n=({', '.join(tc['term'])}), "
            f"escape norm >= {tc['threshold']}"
        )
    if len(r["escape_certificate"]) > 6:
        out.append(f"  ... {len(r['escape_certificate'])} certified terms")
    return out


def _run_gmem(args, policy, budget):
    chars = parse_char_list(args.get("gens", "") or "")
    chi = parse_point_vector(args["chi"])
    topology = PrecompactTopology.on_free(len(chi), chars)
    outcome = g_membership_experiment(topology, chi, budget)
    result = {**_context_payload(chars, chi), **_g_outcome_payload(outcome, chars, chi)}
    if isinstance(outcome, NotInGClosure):
        return result, 0
    result["note"] = outcome.note
    return result, 2


def _human_gmem(r):
    if r["outcome"] == "not_in_g_closure":
        return [
            f"NOT in g-closure (witness at delta={r['delta']})",
            f"witness sequence: {r['witness']['sequence']}",
        ]
    return ["consistent with membership (no witness at any threshold)", r["note"]]


def _run_bds(args, policy, budget):
    alpha = parse_point(args["alpha"])
    probes = [parse_point(p) for p in (args["probes"].split(";") if args["probes"].strip() else [])]
    bound = int(args.get("multiple_bound") or 10)
    if bound > MAX_MULTIPLE:
        raise CliError(f"multiple-bound {bound} exceeds {MAX_MULTIPLE}")
    report = bds_experiment(alpha, probes, budget, bound)
    all_decided = all(isinstance(res, NotInGClosure) for _, res in report.probes)
    code = 0 if (report.inclusion_verified and all_decided) else 2
    return {
        "alpha": str(alpha),
        "multiple_bound": _s(bound),
        "multiples": [
            {"j": _s(j), "status": v.status, "member": v.member}
            for j, v in report.multiples
        ],
        "inclusion_verified": report.inclusion_verified,
        "probes": [
            {"probe": str(p), **_g_outcome_payload(res, ((alpha,),), (p,))}
            for p, res in report.probes
        ],
        "note": report.note,
    }, code


def _human_bds(r):
    out = [
        f"alpha: {r['alpha']}",
        f"multiples |j| <= {r['multiple_bound']} all annihilated: "
        f"{r['inclusion_verified']}",
    ]
    for row in r["probes"]:
        if row["outcome"] == "not_in_g_closure":
            out.append(
                f"  probe {row['probe']}: NOT in g-closure "
                f"(delta={row['delta']}, {row['witness']['sequence']})"
            )
        else:
            out.append(f"  probe {row['probe']}: consistent with membership")
    out.append(r["note"])
    return out


def _csv_bds(r):
    out = ["kind,label,status,detail"]
    for row in r["multiples"]:
        out.append(f"multiple,{row['j']},{row['status']},{_csv_member(row['member'])}")
    for row in r["probes"]:
        out.append(f"probe,{row['probe']},{row['outcome']},{row.get('delta', '')}")
    return out


# ---------------------------------------------------------------------------
# the verb table: the only place a verb is declared


@dataclass(frozen=True)
class _Verb:
    help: str
    arguments: tuple  # (flag, argparse keyword arguments), in --help order
    handler: Callable[[dict, Policy, Budget], tuple[dict, int]]
    human: Callable[[dict], list[str]]
    budgeted: bool = False
    csv: Callable[[dict], list[str]] | None = None

    @property
    def keys(self) -> tuple[str, ...]:
        """The Command.arguments keys, argparse's dest for each flag."""
        return tuple(flag[2:].replace("-", "_") for flag, _ in self.arguments)


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_VERBS = {
    "dual": _Verb(
        "structure of a finitely presented abelian group",
        (
            _arg("--relations", default="", help="relation rows, e.g. '2,0;0,3'"),
            _arg("--generators", required=True, help="number of generators"),
        ),
        _run_dual,
        _human_dual,
    ),
    "closure": _Verb(
        "closure of a character subgroup in the dual",
        (
            _arg("--group", required=True, help="ambient group, e.g. 'Z^2+Z/4'"),
            _arg("--gens", default="", help="characters 'coords;coords;...'"),
        ),
        _run_closure,
        _human_closure,
    ),
    "radical": _Verb(
        "von Neumann radical of a character topology",
        (
            _arg("--k", help="ambient rank (required if no characters)"),
            _arg("--chars", default="", help="character vectors 'pts;pts;...'"),
        ),
        _run_radical,
        _human_radical,
    ),
    "snf": _Verb(
        "Smith normal form with transforms",
        (_arg("--matrix", required=True, help="integer matrix 'a,b;c,d'"),),
        _run_snf,
        _human_snf,
    ),
    "tmem": _Verb(
        "topological torsion membership on the circle",
        (
            _arg("--seq", required=True, help="sequence literal, e.g. geom:2"),
            _arg("--point", required=True, help="circle point, e.g. 1/3"),
        ),
        _run_tmem,
        _human_membership,
    ),
    "smem": _Verb(
        "membership for a vector of circle points",
        (
            _arg("--seq", required=True),
            _arg("--point", required=True, help="comma-separated points"),
        ),
        _run_smem,
        _human_membership,
    ),
    "profile": _Verb(
        "rational torsion profile of a sequence",
        (_arg("--seq", required=True), _arg("--max-den", required=True)),
        _run_profile,
        _human_profile,
        csv=_csv_profile,
    ),
    "nullseq": _Verb(
        "certified null sequence for a topology",
        (
            _arg("--k", help="ambient rank (required if no characters)"),
            _arg("--chars", default=""),
        ),
        _run_nullseq,
        _human_nullseq,
        budgeted=True,
    ),
    "witness": _Verb(
        "escape witness search",
        (
            _arg("--gens", default="", help="generators of H"),
            _arg("--chi", required=True, help="candidate character"),
            _arg("--delta", required=True, help="escape threshold in (0, 1/2]"),
        ),
        _run_witness,
        _human_witness,
        budgeted=True,
    ),
    "gmem": _Verb(
        "g-closure membership experiment",
        (_arg("--gens", default=""), _arg("--chi", required=True)),
        _run_gmem,
        _human_gmem,
        budgeted=True,
    ),
    "bds": _Verb(
        "countable-subgroup closedness experiment",
        (
            _arg("--alpha", required=True, help="quadratic irrational point"),
            _arg("--probes", required=True, help="probe points 'p;q;...'"),
            _arg("--multiple-bound", default="10"),
        ),
        _run_bds,
        _human_bds,
        budgeted=True,
        csv=_csv_bds,
    ),
}


# ---------------------------------------------------------------------------
# output formatting


def _format_human(report: Report) -> str:
    return "\n".join(
        [
            f"gclose {report.verb} (kernel {report.kernel_version})",
            *_VERBS[report.verb].human(report.result),
            f"config: {json.dumps(report.config, sort_keys=True)}",
            f"[{report.timing_seconds:.3f}s] {report.note}",
        ]
    )


def _format_csv(report: Report) -> str:
    csv = _VERBS[report.verb].csv
    if csv is None:
        raise CliError(f"csv format is not available for verb {report.verb!r}")
    return "\n".join(csv(report.result))


_FORMATTERS = {"json": report_to_json, "csv": _format_csv, "human": _format_human}


# ---------------------------------------------------------------------------
# driver


def run(command: Command) -> tuple[Report, int]:
    """Dispatch a parsed command; returns the report and the exit code."""
    if command.verb not in _VERBS:
        raise CliError(f"unknown verb {command.verb!r}")
    policy, budget, echo = _resolve_config(command.policy)
    started = time.perf_counter()
    result, code = _VERBS[command.verb].handler(command.arguments, policy, budget)
    elapsed = time.perf_counter() - started
    report = Report(
        SCHEMA_VERSION,
        __version__,
        command.verb,
        dict(command.arguments),
        echo,
        result,
        round(elapsed, 6),
        _NOTE,
    )
    return report, code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@cache
def _build_parser() -> _ArgumentParser:
    """The one parser, built from _VERBS on first use and reused after."""
    parser = _ArgumentParser(prog="gclose", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for flag, kwargs in verb.arguments:
            p.add_argument(flag, **kwargs)
        p.add_argument("--horizon", help="scan horizon (default 512)")
        p.add_argument("--tolerance", help="scan tolerance, e.g. 1/1048576 or 2^-20")
        if verb.budgeted:
            p.add_argument("--budget", help="search budget 'max_terms,max_candidates'")
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        p.add_argument("--output", help="write the report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _build_parser().parse_args(argv)
        arguments = {
            key: getattr(ns, key)
            for key in _VERBS[ns.verb].keys
            if getattr(ns, key) is not None
        }
        policy = {key: getattr(ns, key, None) for key in ("horizon", "tolerance", "budget")}
        command = Command(ns.verb, arguments, policy, ns.output, ns.format)
        report, code = run(command)
        text = _FORMATTERS[command.fmt](report)
        if command.output_path:
            with open(command.output_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            try:
                print(text, flush=True)
            except BrokenPipeError:
                # the reader closed the pipe (``| head``); send what is left
                # to devnull so the flush at exit does not raise again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return code
    except ValueError as exc:
        print(f"gclose: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
