"""Command-line interface: enumeration, products, realizations, checks.

All input and output is UTF-8 JSON with sorted keys, so identical invocations
produce byte-identical output. Exit codes: 0 success, 1 check failure,
2 usage or input validation error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .cellular import CellFormError, irreducible_indices, phi_ell
from .diagrams import (
    BasisView,
    DiagramError,
    cell_encode,
    emit_diagram,
    involution,
    parse_diagram,
    pretty,
)
from .multiply import multiply_diagrams
from .realization import SpaceSpec, realize_diagram
from .verify import (
    CHECKS,
    DEFAULT_DIMENSION_BOUND,
    ResourceBoundError,
    VerificationReport,
    _CIRCUITS,
    _EQUIVARIANT_FAMILIES,
    _check_bound,
)

__all__ = ["CliConfig", "load_config", "main", "run_command"]


@dataclass(frozen=True)
class CliConfig:
    max_n: int = 5
    max_total_dimension: int = DEFAULT_DIMENSION_BOUND
    output: str = "json"
    seed: int = 0
    fixtures_dir: str = "fixtures"

    def __post_init__(self):
        if self.max_n <= 0 or self.max_total_dimension <= 0:
            raise ValueError("bounds must be positive")
        if self.output not in ("json", "pretty"):
            raise ValueError(f"unknown output mode {self.output!r}")


def load_config(path: str) -> CliConfig:
    """Parse a key = value config file; unknown keys are rejected.

    The keys are CliConfig's fields, each read as the type of its default.
    """
    kinds = {f.name: type(f.default) for f in fields(CliConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = int(val) if kinds[key] is int else val.strip("\"'")
    return CliConfig(**values)


def _emit(obj, stream) -> None:
    json.dump(obj, stream, sort_keys=True, ensure_ascii=False)
    stream.write("\n")


def _resolve(path: str, config: CliConfig) -> Path:
    """Literal path if it exists, else relative to the fixtures directory."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    fallback = Path(config.fixtures_dir) / path
    return fallback if fallback.exists() else p


def _read_json(path: str, config: CliConfig):
    """The JSON value in a file; a decoding error names the file."""
    try:
        return json.loads(_resolve(path, config).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None


def _read_diagram(path: str, config: CliConfig):
    """The diagram in a file; a malformed diagram names the file."""
    obj = _read_json(path, config)
    try:
        return parse_diagram(obj)
    except DiagramError as exc:
        raise DiagramError(f"{path}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbrauer",
        description="Exact workbench for the spin-Brauer diagram algebra.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the diagram basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("multiply", help="multiply two diagrams (first on top)")
    p.add_argument("top")
    p.add_argument("bottom")
    p.add_argument("--delta", type=int, default=None,
                   help="specialize delta to this integer")

    p = sub.add_parser("realize", help="matrix of a diagram on V^n x spin factor")
    p.add_argument("diagram")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("involute", help="row-swap involution of a diagram")
    p.add_argument("diagram")

    p = sub.add_parser("encode", help="cell-triple encoding of a diagram")
    p.add_argument("diagram")

    p = sub.add_parser("cell", help="cellular computations")
    cellsub = p.add_subparsers(dest="cell_command", required=True)
    cp = cellsub.add_parser("phi", help="evaluate the pairing form")
    cp.add_argument("--ell", type=int, required=True)
    cp.add_argument("xs", help="JSON file with {\"blocks\": ..., \"S\": ...}")
    cp.add_argument("yt")

    p = sub.add_parser("classify", help="index the irreducible representations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--delta-zero", action="store_true")

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("check", choices=sorted(CHECKS))
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--mode", choices=("exhaustive", "random"))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--map-kind", choices=tuple(_EQUIVARIANT_FAMILIES))
    p.add_argument("--type", dest="circuit_type", choices=tuple(_CIRCUITS))
    p.add_argument("--arcs", type=int)
    return parser


def _partition_arg(path: str, config: CliConfig) -> tuple[tuple, tuple]:
    obj = _read_json(path, config)
    try:
        rows = [[list(b) for b in obj["blocks"]], [list(b) for b in obj["S"]]]
        if any(type(v) is not int for row in rows for b in row for v in b):
            raise TypeError
    except (KeyError, TypeError):
        raise ValueError(f'{path}: expected an object with "blocks" and "S", '
                         "each a list of integer lists") from None
    blocks, chosen = (tuple(sorted(tuple(sorted(b)) for b in row)) for row in rows)
    return blocks, chosen


def _check_n(n: int, config: CliConfig) -> None:
    """Reject a row size outside 0..max_n before any work."""
    if n < 0:
        raise ValueError(f"n={n} must be nonnegative")
    if n > config.max_n:
        raise ValueError(f"n={n} exceeds max_n {config.max_n}")


def _run_verify(args, config: CliConfig, stream) -> int:
    """Fill each check's parameters from the argparse dests of the same name.

    An unset flag falls back to the config (seed, bound) or else to the
    check's own default; a parameter with neither is required, and n must
    lie in 0..max_n.
    """
    check = CHECKS[args.check]
    params = inspect.signature(check).parameters.values()
    given = {"seed": config.seed, "bound": config.max_total_dimension,
             **{name: value for name, value in vars(args).items() if value is not None}}
    kwargs = {p.name: given[p.name] for p in params if p.name in given}
    missing = [f"--{p.name}" for p in params
               if p.default is p.empty and p.name not in kwargs]
    if missing:
        print(f"verify {args.check} requires {' '.join(missing)}", file=sys.stderr)
        return 2
    if "n" in kwargs:
        _check_n(kwargs["n"], config)
    report: VerificationReport = check(**kwargs)
    _emit(report.to_json(), stream)
    return 0 if report.passed else 1


def run_command(argv: Sequence[str], stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config) if args.config else CliConfig()
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "enumerate":
            _check_n(args.n, config)
            basis = BasisView(args.n)
            if args.count_only:
                _emit({"n": args.n, "count": len(basis)}, stream)
            elif config.output == "pretty":
                for k, d in enumerate(basis):
                    if k:
                        stream.write("\n")
                    stream.write(pretty(d) + "\n")
            else:
                _emit({"n": args.n, "count": len(basis),
                       "diagrams": [emit_diagram(d) for d in basis]}, stream)
            return 0

        if args.command == "multiply":
            top = _read_diagram(args.top, config)
            bottom = _read_diagram(args.bottom, config)
            product = multiply_diagrams(top, bottom)
            if args.delta is not None:
                product = product.evaluate_at(args.delta)
            _emit(product.to_json(), stream)
            return 0

        if args.command == "realize":
            d = _read_diagram(args.diagram, config)
            space = SpaceSpec(args.N, d.n)
            _check_bound(space, config.max_total_dimension)
            _emit(realize_diagram(d, space).to_json(), stream)
            return 0

        if args.command == "involute":
            d = involution(_read_diagram(args.diagram, config))
            if config.output == "pretty":
                stream.write(pretty(d) + "\n")
            else:
                _emit(emit_diagram(d), stream)
            return 0

        if args.command == "encode":
            d = _read_diagram(args.diagram, config)
            ell, t = cell_encode(d)
            _emit({
                "ell": ell,
                "x": [list(b) for b in t.x],
                "S": [list(b) for b in t.S],
                "y": [list(b) for b in t.y],
                "T": [list(b) for b in t.T],
                "sigma": [i + 1 for i in t.sigma],
            }, stream)
            return 0

        if args.command == "cell":
            xs = _partition_arg(args.xs, config)
            yt = _partition_arg(args.yt, config)
            try:
                value = phi_ell(args.ell, xs, yt)
            except CellFormError as exc:
                _emit({"zero": False, "error": str(exc)}, stream)
                return 1
            if value is None:
                _emit({"zero": True}, stream)
            else:
                _emit({
                    "zero": False,
                    "delta_power": value.delta_power,
                    "two_power": value.two_power,
                    "circuit_factor": value.circuit_factor.to_pairs(),
                    "perm": [i + 1 for i in value.perm],
                }, stream)
            return 0

        if args.command == "classify":
            _check_n(args.n, config)
            out = irreducible_indices(args.n, args.char, args.delta_zero)
            _emit({
                "n": args.n, "char": args.char, "delta_zero": args.delta_zero,
                "indices": [{"m": m, "partition": list(lam)} for m, lam in out],
            }, stream)
            return 0

        if args.command == "verify":
            return _run_verify(args, config, stream)
    except (ResourceBoundError, OSError, ValueError) as exc:
        # DiagramError and json.JSONDecodeError are ValueErrors.
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
