"""Command-line entry point.

Subcommands: filtration | persistence | stalks | laplacian | diffuse | verify.
Exit codes: 0 success, 2 configuration error, 3 computation contract error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import formats, golden, oracle
from .complexes import Filtration, build_flag_complex, star_of_vertices
from .errors import ConfigError, ContractError, IllConditionedError
from .linalg import Field
from .nn import FeatureBundle, diffuse
from .persistence import betti_at, persistent_cohomology
from .sheaf import assemble_laplacian, compute_stalk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_VERIFY = 4

# stalks hold orders >= 1 only, so at order 0 these commands have nothing to compute
STALK_COMMANDS = ("stalks", "laplacian", "diffuse")

# dest -> add_argument keywords; the option is --<dest> unless "option" names
# it. A default of None tells a flag that was given from one left out.
FLAGS = {
    "input": dict(help="input file (see --format)"),
    "format": dict(choices=["edges", "points", "filtration"],
                   help="edge-list CSV, point-cloud CSV, or a filtration JSON dump (default edges)"),
    "metric": dict(choices=["euclidean", "manhattan"], help="points only (default euclidean)"),
    "knn": dict(type=int, help="points only: keep each point's K nearest neighbours"),
    "max_order": dict(type=int, help="(default 1)"),
    "max_dim": dict(type=int, help="clique-scan depth (default max-order + 1)"),
    "out": dict(help="output path (directory for stalks)"),
    "field": dict(choices=["exact", "float"], default="exact"),
    "eps": dict(type=float, help="float field only: zero tolerance (default 1e-9)"),
    "rings": dict(type=int, default=1, help="no effect"),
    "threads": dict(type=int, default=0, help="ignored; stalks run serially"),
    "mode": dict(default="weighted", help="weighted or slice=<t>"),
    "slice": dict(option="--mode", help="slice=<t> (default: the slice at t_plus)"),
    "alpha": dict(type=float),
    "steps": dict(type=int, default=500),
    "features": dict(help="feature JSON to diffuse"),
    "seed": dict(type=int, help="random features only (default 0)"),
    "channels": dict(type=int, help="random features only (default 1)"),
}
GRAPH_FLAGS = ("input", "format", "metric", "knn", "max_order", "max_dim", "out")
FIELD_FLAGS = (*GRAPH_FLAGS, "field", "eps")
STALK_FLAGS = (*FIELD_FLAGS, "rings", "threads")

# flag -> (other flag, value, default): the flag is read only while the other
# flag has that value (GIVEN: any value); left out, it takes the default
GIVEN = object()
CONDITIONAL = {
    "format": ("input", GIVEN, "edges"),
    "max_order": ("input", GIVEN, 1),
    "max_dim": ("input", GIVEN, None),
    "knn": ("format", "points", None),
    "metric": ("format", "points", "euclidean"),
    "eps": ("field", "float", 1e-9),
    "seed": ("features", None, 0),
    "channels": ("features", None, 1),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="localhom", allow_abbrev=False,
                     description="Persistent local-homology sheaves of weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for dest in flags:
            spec = dict(FLAGS[dest])
            p.add_argument(spec.pop("option", "--" + dest.replace("_", "-")), dest=dest, **spec)
    return parser


def _slice_time(text: str) -> float:
    """t of `--mode slice=<t>`."""
    if not text.startswith("slice="):
        raise ConfigError("--mode must be 'slice=<t>' (or 'weighted', for laplacian only)")
    try:
        t = float(text[len("slice="):])
    except ValueError:
        raise ConfigError(f"bad slice time in --mode {text!r}") from None
    if not math.isfinite(t):
        raise ConfigError(f"slice time in --mode {text!r} must be finite")
    return t


def check_flags(args) -> None:
    """Check every flag of `args` before any input is read.

    Raises ConfigError naming the first bad flag. Afterwards CONDITIONAL flags left out
    hold their defaults, `args.max_dim` is set (default max_order + 1), `args.field` is
    the `Field` of --field and --eps, `args.mode` ("weighted",) or ("slice", t), and
    `args.slice` t or None.
    """
    command = args.command
    if command != "verify" and args.input is None:
        raise ConfigError(f"--input is required for {command}")
    if command in ("persistence", *STALK_COMMANDS) and args.out is None:
        raise ConfigError(f"--out is required for {command}")
    for flag in [f for f in CONDITIONAL if hasattr(args, f)]:
        other, value, default = CONDITIONAL[flag]
        given = getattr(args, other)
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif (given is None) if value is GIVEN else given != value:
            when = {GIVEN: f"--{other}", None: f"no --{other}"}.get(value, f"--{other} {value}")
            raise ConfigError(f"--{flag.replace('_', '-')} is read only with {when}")
    floors = dict(max_order=1 if command in STALK_COMMANDS else 0, rings=1, knn=1, threads=0,
                  channels=1, steps=0, seed=0)
    for name, least in floors.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {least} for {command}")
    if args.max_dim is None:
        args.max_dim = args.max_order + 1
    if args.max_dim < args.max_order + 1:
        raise ConfigError("--max-dim must be >= max_order + 1")
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError("--alpha must be finite and > 0")
    if hasattr(args, "mode"):
        args.mode = ("weighted",) if args.mode == "weighted" else ("slice", _slice_time(args.mode))
    if getattr(args, "slice", None) is not None:
        args.slice = _slice_time(args.slice)
    if hasattr(args, "field"):
        if not (0 < args.eps < 1):
            raise ConfigError("--eps must lie in (0, 1)")
        args.field = Field(kind=args.field, eps=args.eps)


def load_filtration(args) -> Filtration:
    if args.format == "edges":
        return build_flag_complex(formats.read_edge_csv(args.input), args.max_dim)
    if args.format == "points":
        graph = formats.read_points_csv(args.input, args.metric, args.knn)
        return build_flag_complex(graph, args.max_dim)
    return formats.read_filtration_json(args.input, max_dim=args.max_dim)


def _write(path, text: str | None = None):
    """Write `text` to the file `path`, or make the directory `path` if there is no text."""
    target = Path(path)
    try:
        (target if text is None else target.parent).mkdir(parents=True, exist_ok=True)
        if text is not None:
            target.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _all_stalks(filt: Filtration, args):
    """Per-vertex stalks in vertex order.

    Serial on purpose: stalk computation is pure Python, so a thread pool
    only adds interpreter-lock contention.
    """
    return {
        v: compute_stalk(filt, v, args.max_order, fld=args.field)
        for v in range(filt.vertex_count)
    }


def cmd_filtration(args) -> int:
    filt = load_filtration(args)
    text = formats.dumps(formats.filtration_to_obj(filt))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_persistence(args) -> int:
    filt = load_filtration(args)
    diagram = persistent_cohomology(filt, args.max_order, args.field)
    base = args.out.removesuffix(".json")
    _write(base + ".json", formats.dumps(formats.diagram_to_obj(diagram)))
    _write(base + ".csv", formats.diagram_to_csv(diagram))
    return EXIT_OK


def cmd_stalks(args) -> int:
    filt = load_filtration(args)
    stalks = _all_stalks(filt, args)
    _write(args.out)
    for v, stalk in sorted(stalks.items()):
        _write(Path(args.out, f"stalk_{v:05d}.json"), formats.dumps(formats.stalk_to_obj(stalk)))
    return EXIT_OK


def cmd_laplacian(args) -> int:
    filt = load_filtration(args)
    stalks = _all_stalks(filt, args)
    assembled = assemble_laplacian(filt, stalks, args.max_order, args.mode, args.field)
    base = args.out.removesuffix(".json")
    _write(base + ".json", formats.dumps(formats.laplacian_to_obj(assembled)))
    if assembled.mode[0] == "slice":
        _write(base + ".mtx", formats.laplacian_to_matrixmarket(assembled))
    return EXIT_OK


def cmd_diffuse(args) -> int:
    filt = load_filtration(args)
    stalks = _all_stalks(filt, args)
    t = filt.t_plus if args.slice is None else args.slice
    assembled = assemble_laplacian(filt, stalks, args.max_order, ("slice", t), args.field)
    if args.features:
        features = formats.read_features_json(args.features, assembled)
    else:
        features = FeatureBundle.random(assembled, args.max_order, args.channels, args.seed)
    result, energies = diffuse(features, assembled, args.alpha, args.steps)
    base = args.out.removesuffix(".json")
    _write(base + ".json", formats.dumps(formats.features_to_obj(result)))
    _write(base + ".csv", formats.energy_trace_csv(energies))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_fixture(name: str, filt: Filtration, max_order: int, checks: list):
    fld = Field()
    diagram = persistent_cohomology(filt, max_order, fld)

    def record(check, ok, counterexample=None):
        entry = {"check": check, "fixture": name, "status": "pass" if ok else "fail"}
        if counterexample is not None and not ok:
            entry["counterexample"] = counterexample
        checks.append(entry)

    def compare(check, cases):
        """Record `check` over (where, fast, dense) cases; the last mismatch is the
        counterexample."""
        ce = None
        for where, fast, dense in cases:
            if fast != dense:
                ce = {**where, "fast": fast, "dense": dense}
        record(check, ce is None, ce)

    # fast-path Betti vs dense oracle at every threshold
    compare("betti_fast_vs_dense", (
        ({"t": t, "k": k}, betti_at(diagram, t, k), oracle.betti_dense(filt, t, k))
        for t in filt.threshold_values()
        for k in range(max_order + 1)
    ))

    # alive stalk cocycles vs dense local homology; stalks hold orders >= 1 only
    orders = range(1, max_order + 1)
    if orders:
        thresholds = filt.threshold_values()
        stalks = {v: compute_stalk(filt, v, max_order) for v in range(filt.vertex_count)}
        local = {v: oracle.local_bettis(filt, v, thresholds, orders) for v in stalks}
        compare("stalks_fast_vs_dense", (
            ({"vertex": v, "t": t, "k": k},
             sum(c.alive_at(t) for c in stalks[v].order_cocycles(k)),
             local[v][t, k])
            for v in stalks
            for k in orders
            for t in thresholds
        ))

        # the slice kernel on the cocycles alive at t vs the dense global sections
        cases = []
        for k in orders:
            lap = assemble_laplacian(filt, stalks, k, ("slice", filt.t_plus), fld)
            for t in thresholds:
                dead = sum(not b <= t < d for spans in lap.lifespans.values() for b, d in spans)
                live = replace(lap, mode=("slice", t)).kernel_dim_exact() - dead
                cases.append(({"t": t, "k": k}, live, oracle.global_sections_dim(filt, t, k)))
        compare("sheaf_kernel_vs_global_sections", cases)

    # Mayer-Vietoris exactness on the first adjacent pair
    edges = filt.ids_of_dim(1)
    if edges:
        u, v = filt.simplices[edges[0]]
        rep = oracle.check_mayer_vietoris(
            filt, star_of_vertices(filt, [u]), star_of_vertices(filt, [v]), max_order
        )
        record("mayer_vietoris", rep.exact, None if rep.exact else rep.positions)

    # field parity on diagrams
    float_diag = persistent_cohomology(filt, max_order, Field(kind="float"))
    exact_pairs = sorted((c.order, c.birth, c.death) for c in diagram.classes)
    float_pairs = sorted((c.order, c.birth, c.death) for c in float_diag.classes)
    record("field_parity", exact_pairs == float_pairs)


def cmd_verify(args) -> int:
    checks: list[dict] = []
    if args.input is not None:
        filt = load_filtration(args)
        _verify_fixture("input", filt, args.max_order, checks)
    else:
        for name, builder, max_dim, _ in golden.GOLDEN_BETTI:
            filt = build_flag_complex(builder(), max_dim)
            _verify_fixture(name, filt, max_dim - 1, checks)
        filt = build_flag_complex(golden.k3(), 2)
        _verify_fixture("k3", filt, 1, checks)
    text = formats.dumps(checks)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    failed = [c for c in checks if c["status"] != "pass"]
    return EXIT_VERIFY if failed else EXIT_OK


# command -> (function, the flags it reads); its parser offers no other flag
COMMANDS = {
    "filtration": (cmd_filtration, GRAPH_FLAGS),
    "persistence": (cmd_persistence, FIELD_FLAGS),
    "stalks": (cmd_stalks, STALK_FLAGS),
    "laplacian": (cmd_laplacian, (*STALK_FLAGS, "mode")),
    "diffuse": (cmd_diffuse, (*STALK_FLAGS, "slice", "alpha", "steps", "features", "seed",
                              "channels")),
    "verify": (cmd_verify, GRAPH_FLAGS),
}


def main(argv=None) -> int:
    try:
        args, unread = _build_parser().parse_known_args(argv)
        if unread:
            raise ConfigError(f"{args.command} does not read {' '.join(unread)}")
        check_flags(args)
        return COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractError, IllConditionedError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
