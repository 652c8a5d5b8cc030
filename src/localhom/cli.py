"""Command-line entry point.

Subcommands: filtration | persistence | stalks | laplacian | diffuse | verify.
Exit codes: 0 success, 2 configuration error, 3 computation contract error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    input: str | None
    format: str
    metric: str
    knn: int | None
    max_order: int
    max_dim: int
    rings: int
    field: Field
    mode: tuple
    out: str | None

    def validate(self):
        if self.max_order < 0:
            raise ConfigError("--max-order must be >= 0")
        if self.max_dim < self.max_order + 1:
            raise ConfigError("--max-dim must be >= max_order + 1")
        if self.rings < 1:
            raise ConfigError("--rings must be >= 1")
        if self.knn is not None and self.knn < 1:
            raise ConfigError("--knn must be >= 1")


def _parse_mode(text: str) -> tuple:
    if text == "weighted":
        return ("weighted",)
    if text.startswith("slice="):
        try:
            t = float(text.split("=", 1)[1])
        except ValueError:
            raise ConfigError(f"bad slice time in --mode {text!r}") from None
        if not math.isfinite(t):
            raise ConfigError(f"slice time in --mode {text!r} must be finite")
        return ("slice", t)
    raise ConfigError("--mode must be 'slice=<t>' or 'weighted'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localhom",
        description="Persistent local-homology sheaves of weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in [
        ("filtration", ()),
        ("persistence", ()),
        ("stalks", ()),
        ("laplacian", ()),
        ("diffuse", ("alpha", "steps", "features", "seed", "channels")),
        ("verify", ()),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--input", help="input file (see --format)")
        p.add_argument(
            "--format",
            choices=["edges", "points", "filtration"],
            default="edges",
            help="edge-list CSV, point-cloud CSV, or a filtration JSON dump",
        )
        p.add_argument("--metric", choices=["euclidean", "manhattan"], default="euclidean")
        p.add_argument("--knn", type=int, default=None)
        p.add_argument("--max-order", type=int, default=1)
        p.add_argument("--max-dim", type=int, default=None)
        p.add_argument("--rings", type=int, default=1)
        p.add_argument("--field", choices=["exact", "float"], default="exact")
        p.add_argument("--eps", type=float, default=1e-9)
        p.add_argument("--mode", default="weighted")
        p.add_argument("--threads", type=int, default=0, help="ignored; stalks run serially")
        p.add_argument("--out", help="output path (directory for stalks)")
        if "alpha" in extra:
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--steps", type=int, default=500)
            p.add_argument("--features", help="feature JSON to diffuse")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--channels", type=int, default=1)
    return parser


def _config_from_args(args) -> RunConfig:
    if args.threads < 0:
        raise ConfigError("--threads must be >= 0")
    if not (0 < args.eps < 1):
        raise ConfigError("--eps must lie in (0, 1)")
    if args.command in ("persistence", "stalks", "laplacian", "diffuse") and args.out is None:
        raise ConfigError(f"--out is required for {args.command}")
    if args.command in ("laplacian", "diffuse") and args.max_order < 1:
        raise ConfigError(f"--max-order must be >= 1 for {args.command}")
    if args.command == "diffuse":
        if args.channels < 1:
            raise ConfigError("--channels must be >= 1")
        if args.steps < 0:
            raise ConfigError("--steps must be >= 0")
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        if args.alpha is not None and not (math.isfinite(args.alpha) and args.alpha > 0):
            raise ConfigError("--alpha must be finite and > 0")
    cfg = RunConfig(
        input=args.input,
        format=args.format,
        metric=args.metric,
        knn=args.knn,
        max_order=args.max_order,
        max_dim=args.max_dim if args.max_dim is not None else args.max_order + 1,
        rings=args.rings,
        field=Field(kind=args.field, eps=args.eps),
        mode=_parse_mode(args.mode),
        out=args.out,
    )
    cfg.validate()
    return cfg


def load_filtration(cfg: RunConfig) -> Filtration:
    if cfg.input is None:
        raise ConfigError("--input is required for this command")
    try:
        if cfg.format == "edges":
            graph = formats.read_edge_csv(cfg.input)
            return build_flag_complex(graph, cfg.max_dim)
        if cfg.format == "points":
            graph = formats.read_points_csv(cfg.input, cfg.metric, cfg.knn)
            return build_flag_complex(graph, cfg.max_dim)
        return formats.read_filtration_json(cfg.input, max_dim=cfg.max_dim)
    except OSError as exc:
        raise ConfigError(f"cannot read {cfg.input}: {exc}") from None


def _write(path: str, text: str):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _out_base(cfg: RunConfig) -> str:
    out = cfg.out
    return out[: -len(".json")] if out.endswith(".json") else out


def _all_stalks(filt: Filtration, cfg: RunConfig):
    """Per-vertex stalks in vertex order.

    Serial on purpose: stalk computation is pure Python, so a thread pool
    only adds interpreter-lock contention.
    """
    return {
        v: compute_stalk(filt, v, cfg.max_order, cfg.rings, cfg.field)
        for v in range(filt.vertex_count)
    }


def cmd_filtration(cfg: RunConfig) -> int:
    filt = load_filtration(cfg)
    text = formats.dumps(formats.filtration_to_obj(filt))
    if cfg.out:
        _write(cfg.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_persistence(cfg: RunConfig) -> int:
    filt = load_filtration(cfg)
    diagram = persistent_cohomology(filt, cfg.max_order, cfg.field)
    base = _out_base(cfg)
    _write(base + ".json", formats.dumps(formats.diagram_to_obj(diagram)))
    _write(base + ".csv", formats.diagram_to_csv(diagram))
    return EXIT_OK


def cmd_stalks(cfg: RunConfig) -> int:
    filt = load_filtration(cfg)
    stalks = _all_stalks(filt, cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for v in sorted(stalks):
        _write(
            str(outdir / f"stalk_{v:05d}.json"),
            formats.dumps(formats.stalk_to_obj(stalks[v])),
        )
    return EXIT_OK


def cmd_laplacian(cfg: RunConfig) -> int:
    filt = load_filtration(cfg)
    stalks = _all_stalks(filt, cfg)
    assembled = assemble_laplacian(filt, stalks, cfg.max_order, cfg.mode, cfg.field)
    base = _out_base(cfg)
    _write(base + ".json", formats.dumps(formats.laplacian_to_obj(assembled)))
    if assembled.mode[0] == "slice":
        _write(base + ".mtx", formats.laplacian_to_matrixmarket(assembled))
    return EXIT_OK


def cmd_diffuse(cfg: RunConfig, args) -> int:
    filt = load_filtration(cfg)
    stalks = _all_stalks(filt, cfg)
    mode = cfg.mode if cfg.mode[0] == "slice" else ("slice", filt.t_plus)
    assembled = assemble_laplacian(filt, stalks, cfg.max_order, mode, cfg.field)
    if args.features:
        try:
            features = formats.read_features_json(args.features, assembled)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.features}: {exc}") from None
    else:
        features = FeatureBundle.random(
            assembled, cfg.max_order, channels=args.channels, seed=args.seed
        )
    result, energies = diffuse(features, assembled, args.alpha, args.steps)
    base = _out_base(cfg)
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

    # fast-path Betti vs dense oracle at every threshold
    ok, ce = True, None
    for t in filt.threshold_values():
        for k in range(max_order + 1):
            fast = betti_at(diagram, t, k)
            dense = oracle.betti_dense(filt, t, k)
            if fast != dense:
                ok, ce = False, {"t": t, "k": k, "fast": fast, "dense": dense}
    record("betti_fast_vs_dense", ok, ce)

    # excision at every vertex
    ok, ce = True, None
    for v in range(filt.vertex_count):
        for k in range(max_order + 1):
            if not oracle.excision_check(filt, v, k):
                ok, ce = False, {"vertex": v, "k": k}
    record("excision", ok, ce)

    # theorems on one vertex star
    star0 = star_of_vertices(filt, [0])
    for k in range(min(max_order, 1) + 1):
        rep = oracle.check_theorem_dies_earlier(filt, star0, k)
        record(f"theorem_dies_earlier_k{k}", rep.passed, rep.counterexample)
        rep = oracle.check_theorem_appears_earlier(filt, star0, k)
        record(f"theorem_appears_earlier_k{k}", rep.passed, rep.counterexample)

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


def cmd_verify(cfg: RunConfig) -> int:
    checks: list[dict] = []
    if cfg.input is not None:
        filt = load_filtration(cfg)
        _verify_fixture("input", filt, cfg.max_order, checks)
    else:
        for name, builder, max_dim, _ in golden.GOLDEN_BETTI:
            filt = build_flag_complex(builder(), max_dim)
            _verify_fixture(name, filt, max_dim - 1, checks)
        filt = build_flag_complex(golden.k3(), 2)
        _verify_fixture("k3", filt, 1, checks)
    text = formats.dumps(checks)
    if cfg.out:
        _write(cfg.out, text)
    sys.stdout.write(text)
    failed = [c for c in checks if c["status"] != "pass"]
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "filtration":
            return cmd_filtration(cfg)
        if args.command == "persistence":
            return cmd_persistence(cfg)
        if args.command == "stalks":
            return cmd_stalks(cfg)
        if args.command == "laplacian":
            return cmd_laplacian(cfg)
        if args.command == "diffuse":
            return cmd_diffuse(cfg, args)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractError, IllConditionedError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
