"""Command-line front end.

Subcommands
-----------
``moments``    table of n, ln c_n^2, c_n^2 (when representable) and the ratio
``spectrum``   table of eigenvalues, partial sums, ratios and the verdict
``solve``      apply the solution operator to a coefficient file
``reproduce``  run the acceptance criteria and write one artifact per criterion

Exit codes: 0 success, 2 parameter-domain error, 3 input error (a file
that cannot be read or an ``--out`` that cannot be written, malformed data),
4 numerical failure (divergence, quadrature or series truncation, overflow
or any other arithmetic error, a point outside the convergence domain, an
inconclusive supremum), 5 acceptance failure.

Output is deterministic: a fixed seed yields byte-identical files.  Reals are
printed with 17 significant digits; values whose natural log exceeds 700 in
magnitude are emitted as decimal strings built from the log so nothing ever
overflows.  Every table is streamed to its destination (the ``--out`` file
or stdout) as it is formatted, one block of 4096 rows at a time, so the
writer holds one block of text however long the table is.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .criteria import CRITERIA, DEFAULT_SEED, run_criteria
from .errors import (
    ConvergenceDomainError,
    DbarKitError,
    InconclusiveSupremumError,
    ParameterDomainError,
)
from .solver import (
    HolomorphicCoeffs,
    apply_solution_operator,
    bound_constant,
    dbar_residual,
    defect_norm_sq,
    monomial_inner_product,
)
from .spectrum import diagnostics, stirling_surrogate
from .weights import DiscPolynomial, FockExponential, MomentSequence

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
EXIT_ACCEPTANCE = 5

_LOG_OVERFLOW = 700.0

#: Weight families by the name ``parse_weight`` reads before the colon.
WEIGHT_FAMILIES = {"disc": DiscPolynomial, "fock": FockExponential}


class InputError(DbarKitError):
    """Malformed input data (files, coefficient lists)."""


@dataclass
class RunConfig:
    command: str
    weight: str | None = None
    n_max: int | None = None
    fmt: str = "csv"
    out: str | None = None
    seed: int = DEFAULT_SEED
    only: str | None = None
    coeffs: str | None = None

    def as_dict(self) -> dict:
        # `out` is deliberately not echoed: the artifact must not depend on
        # where it is written
        d = {"command": self.command, "format": self.fmt, "seed": self.seed}
        for key in ("weight", "n_max", "only", "coeffs"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        return d


def parse_weight(text: str):
    """Parse ``family:key=value[,key=value]`` into a weight spec."""
    family, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ParameterDomainError(
                    f"expected key=value in weight parameter {item!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise ParameterDomainError(
                    f"weight parameter {key.strip()!r} is not a number: {val!r}")
    if family not in WEIGHT_FAMILIES:
        raise ParameterDomainError(
            f"unknown weight family {family!r}; use disc:alpha=... or fock:m=...")
    cls = WEIGHT_FAMILIES[family]
    names = {f.name for f in fields(cls)}
    if set(params) != names:
        raise ParameterDomainError(
            f"{family} weight takes exactly {', '.join(sorted(names))}=..., "
            f"got {sorted(params)}")
    return cls(**params)


# -- number rendering --------------------------------------------------------


def render_from_log(log_value: float):
    """The number exp(log_value): a float when representable, else a decimal
    string assembled from the log."""
    if abs(log_value) <= _LOG_OVERFLOW:
        return math.exp(log_value)
    log10 = log_value / math.log(10.0)
    e = math.floor(log10)
    mant = 10.0 ** (log10 - e)
    return f"{mant:.12g}e{int(e):+d}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.17g}"  # folds -0.0 into 0
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_cell(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float):
        return value + 0.0 if math.isfinite(value) else str(value)
    return value


def _cells(column, json_cells: bool = False) -> list:
    """The text cells of one column.  A numeric ndarray is formatted in one
    pass, -0.0 folded into 0 and masked entries left empty (CSV) or null
    (JSON); any other sequence goes cell by cell."""
    if not (isinstance(column, np.ndarray) and column.dtype.kind in "iuf"):
        return [json.dumps(_json_cell(v)) if json_cells else _csv_cell(v)
                for v in column]
    data = np.ma.getdata(column) + 0  # folds -0.0 into 0
    fmt = (str if data.dtype.kind != "f" else float.__repr__ if json_cells
           else "{:.17g}".format)
    values = data.tolist()
    cells = list(map(fmt, values))
    for i in np.flatnonzero(~np.isfinite(data)) if json_cells else ():
        cells[i] = json.dumps(str(values[i]))
    for i in np.flatnonzero(np.ma.getmaskarray(column)):
        cells[i] = "null" if json_cells else ""
    return cells


def _row_blocks(columns: dict, json_cells: bool = False):
    """The rows of a table of named columns as tuples of text cells, one
    iterator per block of 4096 rows, so that the cells of one block only are
    held."""
    for lo in range(0, len(next(iter(columns.values()), ())), 4096):
        yield zip(*(_cells(c[lo:lo + 4096], json_cells) for c in columns.values()))


def _columns(rows) -> dict:
    """Row dicts as columns, keyed by the first row's keys."""
    return {k: [row.get(k) for row in rows] for k in rows[0]} if rows else {}


def _csv_chunks(columns: dict, footer=None):
    """CSV of a table given as named columns of equal length: the header,
    one chunk per block of rows, then the footer."""
    if columns or not footer:
        yield ",".join(columns) + "\n"
    for block in _row_blocks(columns):
        yield "".join(",".join(r) + "\n" for r in block)
    if footer:
        yield ",".join(_csv_cell(v) for v in footer) + "\n"


def _json_chunks(body: dict, columns: dict):
    """The JSON envelope ``body``, its ``"rows": []`` filled with the table
    given as named columns of equal length, one chunk per block of rows."""
    text = json.dumps(body, indent=2) + "\n"
    if not len(next(iter(columns.values()), ())):
        yield text
        return
    head, tail = text.split('"rows": []', 1)
    keys = (json.dumps(k).replace("%", "%%") for k in columns)
    row = "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"
    yield head + '"rows": [\n'
    for i, block in enumerate(_row_blocks(columns, True)):
        yield (",\n" if i else "") + ",\n".join(row % r for r in block)
    yield "\n  ]" + tail


def columns_to_csv(columns: dict, footer=None) -> str:
    """CSV of a table given as named columns of equal length."""
    return "".join(_csv_chunks(columns, footer))


def rows_to_csv(rows, footer=None) -> str:
    return columns_to_csv(_columns(rows), footer)


def columns_to_json(body: dict, columns: dict) -> str:
    """The JSON envelope ``body``, its ``"rows": []`` filled with the table
    given as named columns of equal length."""
    return "".join(_json_chunks(body, columns))


def _write(chunks, path) -> None:
    """Write text chunks to the file ``path``, or to stdout when it is None.
    A file that cannot be opened or written is an ``InputError`` naming it."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _unwritable(path, exc: OSError) -> InputError:
    return InputError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _emit(config: RunConfig, columns: dict, verdict=None, footer=None) -> int:
    """Write the table, and in JSON the config and verdict, as configured."""
    if config.fmt == "json":
        body = {"command": config.command, "config": config.as_dict(), "rows": []}
        if verdict is not None:
            body["verdict"] = verdict
        chunks = _json_chunks(body, columns)
    else:
        chunks = _csv_chunks(columns, footer)
    _write(chunks, config.out)
    return EXIT_OK


# -- subcommands --------------------------------------------------------------


def cmd_moments(config: RunConfig) -> int:
    weight = parse_weight(config.weight)
    ms = MomentSequence(weight)
    n = np.arange(config.n_max + 1)
    log_c2 = ms.log_moment(n)
    return _emit(config, {"n": n, "log_c2": log_c2,
                          "c2": [render_from_log(v) for v in log_c2.tolist()],
                          "ratio": ms.ratio(n)})


def cmd_spectrum(config: RunConfig) -> int:
    weight = parse_weight(config.weight)
    ms = MomentSequence(weight)
    diag = diagnostics(ms, config.n_max)
    n = np.arange(config.n_max + 1)
    columns = {"n": n, "lambda": diag.lambdas,
               "partial_sum": diag.partial_sums, "ratio": diag.ratios}
    if isinstance(weight, FockExponential):
        # the surrogate starts at n = 1: its n = 0 cell is empty
        columns["stirling_surrogate"] = np.ma.masked_array(
            stirling_surrogate(weight.m, np.maximum(n, 1)), mask=n == 0)
    verdict = footer = None
    if diag.classification is not None:
        c = diag.classification
        evidence = asdict(c.evidence)
        lo, hi = evidence.pop("tail_window")
        verdict = {"verdict": c.verdict.value, "tail_window": [lo, hi], **evidence}
        footer = ["classification", c.verdict.value, f"window={lo}..{hi}",
                  *(f"{k}={v:.17g}" for k, v in evidence.items())]
    return _emit(config, columns, verdict=verdict, footer=footer)


def read_coefficients(path: str) -> HolomorphicCoeffs:
    """Read a JSON array of [re, im] pairs, index = Taylor degree."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read coefficient file {path!r}: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"coefficient file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, list):
        raise InputError("coefficient file must hold a JSON array of [re, im] pairs")
    coeffs = []
    for i, pair in enumerate(data):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) and math.isfinite(x)
                           for x in pair)):
            raise InputError(
                f"coefficient {i} must be a finite [re, im] number pair, got {pair!r}")
        coeffs.append(complex(pair[0], pair[1]))
    return HolomorphicCoeffs(coeffs)


def cmd_solve(config: RunConfig) -> int:
    weight = parse_weight(config.weight)
    f = read_coefficients(config.coeffs)
    ms = MomentSequence(weight)
    F = apply_solution_operator(f, ms)
    rng = np.random.default_rng(config.seed)
    r = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 100))
    th = rng.uniform(0.0, 2.0 * math.pi, 100)
    pts = r * np.exp(1j * th)

    rows = []
    for k, a in enumerate(F.conj_factor):
        rows.append({"section": "conj_factor", "index": k,
                     "re": a.real, "im": a.imag, "value": None})
    for k, a in enumerate(F.holo_part):
        rows.append({"section": "holo_part", "index": k,
                     "re": a.real, "im": a.imag, "value": None})
    rows.append({"section": "defect_norm_sq", "index": None, "re": None,
                 "im": None, "value": defect_norm_sq(f, 1.0, ms)})
    for j in range(f.degree + 3):
        rows.append({"section": "orthogonality_residual", "index": j,
                     "re": None, "im": None,
                     "value": abs(monomial_inner_product(F, j, ms))})
    rows.append({"section": "dbar_residual_max", "index": None, "re": None,
                 "im": None, "value": dbar_residual(F, f, pts)})
    rows.append({"section": "bound_constant", "index": None, "re": None,
                 "im": None,
                 "value": bound_constant(ms, max(f.degree, 1))})
    return _emit(config, _columns(rows))


def cmd_reproduce(config: RunConfig) -> int:
    outdir = None
    if config.out is not None:
        outdir = Path(config.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _unwritable(outdir, exc) from None
    results = run_criteria(only=config.only, seed=config.seed)
    all_passed = True
    for res in results:
        all_passed = all_passed and res.passed
        sys.stdout.write(res.summary() + "\n")
        if outdir is not None:
            if config.fmt == "json":
                chunks = _json_chunks(
                    {"command": "reproduce", "criterion": res.cid, "title": res.title,
                     "pass": res.passed, "failures": res.failures, "rows": []},
                    _columns(res.rows))
            else:
                chunks = _csv_chunks(_columns(res.rows),
                                     ["result", "PASS" if res.passed else "FAIL"])
            _write(chunks, outdir / f"{res.cid}.{config.fmt}")
    sys.stdout.write(("all criteria PASS" if all_passed
                      else "some criteria FAILED") + "\n")
    return EXIT_OK if all_passed else EXIT_ACCEPTANCE


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbarkit",
        description="canonical d-bar solution operator on weighted spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weight=True):
        if weight:
            p.add_argument("--weight", required=True,
                           help="family:key=val, e.g. disc:alpha=0 or fock:m=2")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("moments", help="moment table for a weight")
    add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=50)

    p = sub.add_parser("spectrum", help="eigenvalue table and classification")
    add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=1000)

    p = sub.add_parser("solve", help="apply the solution operator to coefficients")
    add_common(p)
    p.add_argument("coeffs", help="JSON file: array of [re, im] pairs")

    p = sub.add_parser("reproduce", help="run the acceptance criteria")
    add_common(p, weight=False)
    p.add_argument("--only", choices=sorted(CRITERIA), default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(**vars(args))
    handlers = {"moments": cmd_moments, "spectrum": cmd_spectrum,
                "solve": cmd_solve, "reproduce": cmd_reproduce}
    try:
        return handlers[config.command](config)
    except ParameterDomainError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return EXIT_PARAMETER
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (ArithmeticError, ConvergenceDomainError,
            InconclusiveSupremumError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
