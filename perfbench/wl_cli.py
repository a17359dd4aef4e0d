"""cli-mix: in-process ``gclose.cli.main(argv)`` across all 11 verbs.

A round is 26 commands in human, json and csv formats.  Most are small, so
argument parsing and report formatting dominate them.  Four are ``snf``,
``dual``, ``closure`` and ``radical`` on 10-16-square inputs with entries
up to 1000 in size; Smith normal form makes those the tail.  Two are
malformed and must exit with code 1.  Output is captured, never printed.

The only workload where the CLI and duality layers dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import oracles
from common import Query

NAME = "cli-mix"
POOL_ROUNDS = 64
BASES = (2, 3, 5, 6, 10)
QUADS = (
    "quad:(-1+1*sqrt(5))/2",
    "quad:(0+1*sqrt(2))/1",
    "quad:(1+1*sqrt(7))/3",
    "quad:(0+1*sqrt(13))/5",
    "quad:(2+1*sqrt(11))/4",
)
MALFORMED = (
    ["snf", "--matrix", "1,2;3"],
    ["tmem", "--seq", "geom:2"],
    ["frobnicate", "--x", "1"],
    ["snf", "--matrix", "1,2;3,4", "--format", "csv"],
    ["tmem", "--seq", "geom:2", "--point", "quad:(1+1*sqrt(4))/2"],
    ["smem", "--seq", "geom:2*(1,2)", "--point", "1/0,1/3"],
    ["dual", "--relations", "2,x;0,3", "--generators", "2"],
    ["witness", "--gens", "1/3", "--chi", "1/2", "--delta", "3/4"],
    ["gmem", "--gens", "1/2", "--chi", "1/3", "--budget", "16"],
    ["closure", "--group", "Z^2+Q", "--gens", "1/2,0"],
)


def _frac(rng, max_den):
    n, d = _point_in(rng, max_den)
    return f"{n}/{d}"


def _point_in(rng, max_den):
    d = rng.randint(2, max_den)
    n = rng.randrange(1, d)
    g = gcd(n, d)
    return n // g, d // g


def _matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _matrix_text(m):
    return ";".join(",".join(map(str, row)) for row in m)


def _ints(rows):
    return [[int(x) for x in row] for row in rows]


class Workload:
    def __init__(self, gclose, seed: int):
        self.gc = gclose
        self.seed = seed
        self.cli = gclose.cli

    def _command(self, kind, argv, expect, verify=None) -> Query:
        """``verify(stdout) -> bool`` runs on successful output."""
        cli = self.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if code != expect:
                return False, False
            if code == 1:
                ok = not out and err.startswith("gclose: error:") and "Traceback" not in err
            else:
                ok = bool(out) and not err and (verify is None or verify(out))
            return ok, ok and code in (0, 1)

        return Query(kind, json.dumps(argv), run, check)

    def _json(self, verb, extra=None):
        """Verifier for a JSON report: it round-trips, then ``extra(result)``."""
        cli = self.cli

        def verify(text):
            data = json.loads(text)
            again = json.loads(cli.report_to_json(cli.report_from_json(text)))
            data.pop("timing_seconds")
            again.pop("timing_seconds")
            if data != again or data["verb"] != verb:
                return False
            return extra is None or extra(data["result"])

        return verify

    # -- small commands -------------------------------------------------------

    def _small(self, rng) -> list[Query]:
        out = []
        n = rng.randint(2, 3)
        rel = _matrix(rng, n, n, 12)
        out.append(self._command("dual", ["dual", f"--relations={_matrix_text(rel)}", "--generators", str(n)], 0))
        out.append(self._command(
            "dual", ["dual", f"--relations={_matrix_text(rel)}", "--generators", str(n), "--format", "json"], 0,
            self._json("dual", lambda r: _dual_ok(rel, r)),
        ))
        d = rng.choice((2, 4, 6, 12))
        gens = ";".join(
            f"{_frac(rng, 12)},{_frac(rng, 12)},{rng.randrange(d)}" for _ in range(rng.randint(1, 2))
        )
        out.append(self._command("closure", ["closure", "--group", f"Z^2+Z/{d}", "--gens", gens], 0))
        chars = ";".join(f"{_frac(rng, 12)},{_frac(rng, 12)}" for _ in range(2))
        out.append(self._command("radical", ["radical", "--chars", chars], 0))
        out.append(self._command("radical", ["radical", "--chars", chars, "--format", "json"], 0, self._json("radical")))
        m = _matrix(rng, 3, 3, 20)
        out.append(self._command(
            "snf", ["snf", f"--matrix={_matrix_text(m)}", "--format", "json"], 0,
            self._json("snf", lambda r: _snf_ok(m, r)),
        ))
        out.append(self._command("snf", ["snf", f"--matrix={_matrix_text(_matrix(rng, 3, 3, 20))}"], 0))
        for fmt in ("human", "json"):
            base, (num, den) = rng.choice(BASES), _point_in(rng, 1000)
            member = oracles.eventually_zero_geometric(num, base, den)
            out.append(self._command(
                "tmem", ["tmem", "--seq", f"geom:{base}", "--point", f"{num}/{den}", "--format", fmt], 0,
                self._json("tmem", lambda r, m=member: r["verdict"]["member"] is m) if fmt == "json" else None,
            ))
        base, pattern = rng.choice(BASES), (rng.randint(1, 4), rng.randint(1, 4))
        (n1, d1), (n2, d2) = _point_in(rng, 200), _point_in(rng, 200)
        q = d1 * d2 // gcd(d1, d2)
        c = pattern[0] * n1 * (q // d1) + pattern[1] * n2 * (q // d2)
        member = oracles.eventually_zero_geometric(c, base, q)
        out.append(self._command(
            "smem", ["smem", "--seq", f"geom:{base}*({pattern[0]},{pattern[1]})", "--point", f"{n1}/{d1},{n2}/{d2}", "--format", "json"], 0,
            self._json("smem", lambda r: r["verdict"]["member"] is member),
        ))
        max_den = rng.randint(20, 40)
        out.append(self._command(
            "profile", ["profile", "--seq", f"geom:{rng.choice(BASES)}", "--max-den", str(max_den), "--format", "csv"], 0,
            lambda text: _csv_ok(text, max_den),
        ))
        out.append(self._command(
            "profile", ["profile", "--seq", "fact", "--max-den", str(rng.randint(10, 30)), "--format", "json"], 0,
            self._json("profile", lambda r: not r["flagged"]),
        ))
        for fmt in ("human", "json"):
            out.append(self._command(
                "nullseq", ["nullseq", "--chars", rng.choice(QUADS), "--budget", "8,64", "--format", fmt], 0,
                self._json("nullseq", lambda r: r["found"]) if fmt == "json" else None,
            ))
        for fmt in ("human", "json"):
            gens, chi = self._non_member(rng)
            out.append(self._command(
                "witness", ["witness", "--gens", gens, "--chi", chi, "--delta", f"1/{chi.split('/')[1]}", "--format", fmt], 0,
                self._json("witness", self._witness_ok) if fmt == "json" else None,
            ))
        gens, chi = self._non_member(rng)
        out.append(self._command("gmem", ["gmem", "--gens", gens, "--chi", chi], 0))
        gens, chi = self._member(rng)
        out.append(self._command(
            "gmem", ["gmem", "--gens", gens, "--chi", chi, "--budget", "16,128", "--format", "json"], 2,
            self._json("gmem", lambda r: r["outcome"] == "consistent_with_membership"),
        ))
        for fmt in ("csv", "human"):
            out.append(self._command(
                "bds", ["bds", "--alpha", rng.choice(QUADS), "--probes", f"1/{rng.randint(2, 5)}",
                        "--multiple-bound", "2", "--budget", "16,128", "--format", fmt], 0,
            ))
        return out

    def _non_member(self, rng):
        while True:
            g, chi = _point_in(rng, 30), _point_in(rng, 30)
            if not oracles.in_finite_subgroup([(g,)], (chi,)):
                return f"{g[0]}/{g[1]}", f"{chi[0]}/{chi[1]}"

    def _member(self, rng):
        while True:
            g = _point_in(rng, 30)
            value = Fraction(g[0] * rng.randint(1, 29), g[1]) % 1
            if value:
                return f"{g[0]}/{g[1]}", f"{value.numerator}/{value.denominator}"

    def _witness_ok(self, result):
        w, topology, chi = self.cli.witness_from_result(result)
        return result["found"] and self.gc.check_witness(w, topology, chi)

    # -- large duality commands ------------------------------------------------

    def _large(self, rng) -> list[Query]:
        out = []
        n = rng.randint(10, 16)
        m = _matrix(rng, n, n, 1000)
        out.append(self._command(
            "snf-large", ["snf", f"--matrix={_matrix_text(m)}", "--format", "json"], 0,
            self._json("snf", lambda r: _snf_ok(m, r)),
        ))
        n = rng.randint(10, 16)
        rel = _matrix(rng, n, n, 1000)
        out.append(self._command(
            "dual-large", ["dual", f"--relations={_matrix_text(rel)}", "--generators", str(n), "--format", "json"], 0,
            self._json("dual", lambda r: _dual_ok(rel, r)),
        ))
        n = rng.randint(10, 16)
        split = rng.randint(n // 3, 2 * n // 3)
        top = rng.choice((100, 1000))
        group = "+".join([f"Z/{top // 10}"] * split + [f"Z/{top}"] * (n - split))
        gens = ";".join(",".join(str(rng.randrange(1000)) for _ in range(n)) for _ in range(n))
        out.append(self._command("closure-large", ["closure", "--group", group, "--gens", gens], 0))
        n = rng.randint(10, 16)
        chars = ";".join(",".join(_frac(rng, 30) for _ in range(n)) for _ in range(n))
        out.append(self._command(
            "radical-large", ["radical", "--chars", chars, "--format", "json"], 0, self._json("radical")
        ))
        return out

    # -- rounds ---------------------------------------------------------------

    def round(self, index: int) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        small = self._small(rng)
        large = self._large(rng)
        bad = [self._command("malformed", list(argv), 1) for argv in rng.sample(MALFORMED, 2)]
        # spread the large and malformed commands through the round
        return small[:6] + large[:2] + small[6:12] + bad[:1] + small[12:18] + large[2:] + small[18:] + bad[1:]

    def warmup(self) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:warmup")
        return [
            self._command("dual", ["dual", "--relations", "2,0;0,3", "--generators", "2"], 0),
            self._command("snf", ["snf", "--matrix", "2,4;6,8", "--format", "json"], 0, self._json("snf")),
            self._command("tmem", ["tmem", "--seq", "geom:2", "--point", "5/8"], 0),
            self._command("profile", ["profile", "--seq", "geom:3", "--max-den", "6", "--format", "csv"], 0),
            self._command("nullseq", ["nullseq", "--chars", QUADS[0], "--budget", "4,32"], 0),
            self._command("witness", ["witness", "--gens", "1/3", "--chi", "1/2", "--delta", "1/2"], 0),
            self._command("malformed", list(rng.choice(MALFORMED)), 1),
        ]


def _snf_ok(m, result) -> bool:
    u, d, v = (_ints(result[k]) for k in ("U", "D", "V"))
    return _ints(result["matrix"]) == m and oracles.is_smith_form(u, d, v, m)


def _dual_ok(rel, result) -> bool:
    """Z^n / rows(rel): finite of order |det| when det != 0, else infinite."""
    det = abs(oracles.determinant(rel))
    factors = [int(x) for x in result["invariant_factors"]]
    free = int(result["free_rank"])
    if det == 0:
        return free > 0
    order = 1
    for f in factors:
        order *= f
    return free == 0 and order == det


def _csv_ok(text, max_den) -> bool:
    lines = text.strip().splitlines()
    return lines[0] == "q,status,member,reason" and len(lines) == max_den + 1
