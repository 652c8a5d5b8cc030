"""The benchmark's workloads.

Each workload is a closed loop with one client: it generates op `i`'s
input, runs the op, checks the outputs, then moves on to op `i + 1`. An op
calls the library's public functions in the order the CLI calls them, and
wraps each call in a span named after the layer it enters. Generation,
checks, counts and the traced run's block probe happen outside the op.

Why these three (see NOTES.md for the predictions per layer):
- knn_pipeline is ROADMAP's baseline configuration; per-vertex and per-edge
  star lookups scan the whole filtration there.
- small_batch_exact runs graphs so small that whole-filtration scans are
  cheap; it is the bypass workload for star-index changes and the only one
  covering order 2, the exact carrier and the learnable layers.
- slice_sweep builds one filtration and its stalks once, then queries many
  slice times; every query re-reduces all blocks although they do not
  depend on t.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

import generate
from localhom import formats, oracle
from localhom.complexes import build_flag_complex
from localhom.linalg import Field
from localhom.nn import (
    FeatureBundle,
    MLPParams,
    diffuse,
    filtration_gradient,
    message_pass,
    node_gain_network,
    power_iteration,
    sign_equivariant_layer,
)
from localhom.persistence import betti_at, persistent_cohomology
from localhom.sheaf import assemble_laplacian, compute_stalk, sheaf_laplacian_block

FLOAT = Field(kind="float")
EXACT = Field(kind="exact")

# Op indices of warm-up inputs; far from the timed ops' indices 0, 1, ...
WARMUP_INDEX = 1_000_000_000

# PSD slack: x.Lx >= -PSD_RTOL * max|L_ij| * |x|^2, checked on the least eigenvalue.
PSD_RTOL = 1e-8
# Explicit Euler may leave rounding noise once the energy has converged to
# ker L; an increase larger than this share of the initial energy fails.
ENERGY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# library calls, one span per layer boundary
# ---------------------------------------------------------------------------


def read_points(path, knn, tracer):
    with tracer.span("formats.read"):
        return formats.read_points_csv(path, "euclidean", knn)


def flag_complex(graph, max_dim, tracer):
    with tracer.span("complexes.build_flag_complex"):
        return build_flag_complex(graph, max_dim)


def cohomology(filt, order, fld, tracer):
    with tracer.span("persistence.persistent_cohomology"):
        return persistent_cohomology(filt, order, fld)


def all_stalks(filt, order, fld, tracer):
    with tracer.span("sheaf.compute_stalk"):
        return {v: compute_stalk(filt, v, order, 1, fld) for v in range(filt.vertex_count)}


def assemble(filt, stalks, k, mode, fld, tracer):
    with tracer.span(f"sheaf.assemble_{mode[0]}"):
        return assemble_laplacian(filt, stalks, k, mode, fld)


def diffuse_slice(lap, order, steps, tracer):
    """power_iteration, then diffuse at alpha = 0.9 / lambda, as `localhom diffuse`."""
    with tracer.span("nn.power_iteration"):
        lam = power_iteration(lap.dense)
    alpha = 0.9 / lam if lam > 0 else 0.5
    features = FeatureBundle.random(lap, order, channels=1, seed=0)
    with tracer.span("nn.diffuse"):
        return diffuse(features, lap, alpha, steps)


def write_texts(workdir: Path, texts: dict[str, str]) -> int:
    nbytes = 0
    for name, text in texts.items():
        data = text.encode()
        (workdir / name).write_bytes(data)
        nbytes += len(data)
    return nbytes


def psi_layer(stalks, passed: FeatureBundle, psi: MLPParams) -> dict:
    """Per-node hypernetwork layer on message-passed features.

    rho acts on all of a stalk's cocycles; the Laplacian's order-k cocycles
    are the last ones (stalks sort by order), so lower orders enter as 0.
    """
    out = {}
    for v, stalk in stalks.items():
        rho = node_gain_network(stalk, psi)
        x = np.zeros((len(stalk.cocycles), passed.channels))
        x[len(stalk.cocycles) - passed.values[v].shape[0] :] = passed.values[v]
        out[v] = np.stack(
            [sign_equivariant_layer(x[:, c], rho) for c in range(passed.channels)], axis=1
        )
    return out


def block_probe(filt, stalks, k, fld, tracer):
    """The sheaf_laplacian_block calls one assemble_laplacian makes, timed alone."""
    with tracer.span("sheaf.block"):
        for sid in filt.ids_of_dim(1):
            u, v = filt.simplices[sid]
            if stalks[u].order_cocycles(k) and stalks[v].order_cocycles(k):
                sheaf_laplacian_block(stalks[u], stalks[v], filt, k, fld)


# ---------------------------------------------------------------------------
# checks (outside the timed region); each returns a list of problems
# ---------------------------------------------------------------------------


def check_slice(lap) -> list[str]:
    dense = lap.dense
    if not np.array_equal(dense, dense.T):
        return ["slice Laplacian is not exactly symmetric"]
    if dense.size == 0:
        return []
    least = float(np.linalg.eigvalsh(dense)[0])
    if least < -PSD_RTOL * float(np.abs(dense).max()):
        return [f"slice Laplacian is not PSD: least eigenvalue {least!r}"]
    return []


def check_energy(energies) -> list[str]:
    slack = ENERGY_RTOL * energies[0]
    for step, (a, b) in enumerate(zip(energies, energies[1:]), start=1):
        if b > a + slack:
            return [f"energy rose at step {step}: {a!r} -> {b!r}"]
    return []


def check_betti(filt, diagram, t, max_order) -> list[str]:
    problems = []
    for k in range(max_order + 1):
        fast, dense = betti_at(diagram, t, k), oracle.betti_dense(filt, t, k)
        if fast != dense:
            problems.append(f"betti_{k}({t!r}): diagram {fast} != oracle {dense}")
    return problems


def check_finite(name, array) -> list[str]:
    return [] if np.all(np.isfinite(array)) else [f"{name} has non-finite entries"]


# ---------------------------------------------------------------------------
# counts (traced run only, over the first `count_ops` ops)
# ---------------------------------------------------------------------------


def count_complex(filt, counts: Counter):
    counts["complexes.simplices"] += len(filt)
    counts["complexes.edges"] += len(filt.ids_of_dim(1))
    star_sizes = Counter(v for simplex in filt.simplices for v in simplex)
    counts["star_total"] += sum(star_sizes.values())
    counts["star_lookups"] += filt.vertex_count
    counts["star_scanned"] += filt.vertex_count * len(filt)
    counts["complexes.star_size_max"] = max(
        counts["complexes.star_size_max"], max(star_sizes.values(), default=0)
    )


def count_stalks(stalks, counts: Counter):
    counts["sheaf.stalk_dim_total"] += sum(len(s.cocycles) for s in stalks.values())
    counts["truncation_total"] += sum(len(s.truncation) for s in stalks.values())
    counts["stalks"] += len(stalks)


def count_laplacian(lap, counts: Counter):
    counts["sheaf.blocks"] += len(lap.blocks)
    counts["sheaf.atoms"] += sum(len(b.atoms) for b in lap.blocks.values())
    counts["blocks_with_atoms"] += sum(1 for b in lap.blocks.values() if b.atoms)
    counts["sheaf.laplacian_dim"] += lap.dimension
    counts["sheaf.laplacian_nnz"] += int(np.count_nonzero(lap.dense))


def finish_counts(counts: Counter) -> dict[str, float]:
    """The counts plus the means and ratios pooled over every counted op."""
    ratio = lambda a, b: counts[a] / counts[b] if counts[b] else 0.0
    out = dict(counts)
    out["complexes.star_size_mean"] = ratio("star_total", "star_lookups")
    out["complexes.star_scan_useful_ratio"] = ratio("star_total", "star_scanned")
    out["sheaf.truncation_size_mean"] = ratio("truncation_total", "stalks")
    out["sheaf.blocks_with_atoms_ratio"] = ratio("blocks_with_atoms", "sheaf.blocks")
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class KnnPipeline:
    """`localhom persistence` then `localhom diffuse` on a fresh kNN point cloud."""

    name = "knn_pipeline"
    count_ops = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.workdir = seed, workdir
        # ROADMAP's baseline is n=400, but an op there takes ~11 s on 2 cores,
        # so a run holds ~4 ops and per-op noise decides ops_per_s; at n=200
        # (~3 s an op) a run holds ~16 and scans still dominate.
        self.n = 40 if tiny else 200
        self.params = {
            "points": f"{self.n} uniform in [0,1)^2, fresh per op",
            "knn": 6, "field": "float", "max_order": 1, "max_dim": 2,
            "laplacian": "slice at t_plus", "diffuse_steps": 500, "alpha": "0.9/lambda_max",
        }

    def setup(self, tracer):
        """Warm-up op on a small cloud, so first-call costs stay out of the timed ops."""
        self.run(self.make_input(WARMUP_INDEX, n=80), tracer)

    def make_input(self, index: int, n: int | None = None) -> dict:
        path = self.workdir / "points.csv"
        rng = generate.rng_for(self.seed, index)
        generate.write_points_csv(path, generate.uniform_points(rng, n or self.n))
        return {"index": index, "path": path}

    def run(self, inp, tracer) -> dict:
        graph = read_points(inp["path"], 6, tracer)
        filt = flag_complex(graph, 2, tracer)
        diagram = cohomology(filt, 1, FLOAT, tracer)
        stalks = all_stalks(filt, 1, FLOAT, tracer)
        lap = assemble(filt, stalks, 1, ("slice", filt.t_plus), FLOAT, tracer)
        result, energies = diffuse_slice(lap, 1, 500, tracer)
        with tracer.span("formats.write"):
            nbytes = write_texts(self.workdir, {
                "diagram.json": formats.dumps(formats.diagram_to_obj(diagram)),
                "diagram.csv": formats.diagram_to_csv(diagram),
                "diffused.json": formats.dumps(formats.features_to_obj(result)),
                "diffused.csv": formats.energy_trace_csv(energies),
            })
        return {"filt": filt, "diagram": diagram, "stalks": stalks, "lap": lap,
                "energies": energies, "bytes": nbytes}

    def check(self, inp, out) -> list[str]:
        filt = out["filt"]
        return (
            check_slice(out["lap"])
            + check_energy(out["energies"])
            + check_betti(filt, out["diagram"], filt.t_plus, 1)
        )

    def probe(self, out, tracer):
        block_probe(out["filt"], out["stalks"], 1, FLOAT, tracer)

    def count_setup(self, counts: Counter):
        pass

    def count(self, inp, out, counts: Counter):
        count_complex(out["filt"], counts)
        counts["persistence.classes"] += len(out["diagram"].classes)
        count_stalks(out["stalks"], counts)
        count_laplacian(out["lap"], counts)
        counts["formats.bytes_written"] += out["bytes"]


class SmallBatchExact:
    """A stream of small edge-list graphs through every layer on the exact carrier."""

    name = "small_batch_exact"
    count_ops = 8  # two of each (graph kind, order) pair

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.workdir = seed, workdir
        self.n_range = (8, 14) if tiny else (12, 40)
        self.psi = MLPParams.init([6, 8, 1], seed=seed)
        self.params = {
            "n": f"every size in [{self.n_range[0]}, {self.n_range[1]}] once per graph "
                 "kind and order, in seeded order",
            "graphs": "alternate Erdos-Renyi (p=0.15, weights uniform in [0.1,2]) "
                      "and 2-D kNN (k=4, uniform points)",
            "order": "1,1,2,2 repeating; max_dim = order+1", "field": "exact",
            "features": "4 channels, seeded per op", "psi": "MLP 6-8-1",
        }

    def setup(self, tracer):
        """Warm-up ops on small graphs, one per (graph kind, order) pair."""
        for i in range(4):
            self.run(self.make_input(WARMUP_INDEX + i, n=24), tracer)

    def make_input(self, index: int, n: int | None = None) -> dict:
        if n is None:
            # Each block of 4 * len(sizes) ops holds every (size, kind, order)
            # once, so the op mix, and with it ops_per_s, varies little by seed.
            # The stream ends in 1: numpy reads (seed, i) as (seed, i, 0).
            lo, hi = self.n_range
            block, pos = divmod(index, 4 * (hi - lo + 1))
            n = lo + int(generate.rng_for(self.seed, block, 1).permutation(hi - lo + 1)[pos // 4])
        rng = generate.rng_for(self.seed, index)
        if index % 2 == 0:
            edges = generate.er_edges(rng, n, 0.15, 0.1, 2.0)
        else:
            edges = generate.knn_edges(generate.uniform_points(rng, n), 4)
        path = self.workdir / "graph.csv"
        generate.write_edge_csv(path, edges)
        return {"index": index, "path": path, "order": 1 + (index // 2) % 2}

    def run(self, inp, tracer) -> dict:
        order = inp["order"]
        with tracer.span("formats.read"):
            graph = formats.read_edge_csv(inp["path"])
        filt = flag_complex(graph, order + 1, tracer)
        diagram = cohomology(filt, order, EXACT, tracer)
        stalks = all_stalks(filt, order, EXACT, tracer)
        slice_lap = assemble(filt, stalks, order, ("slice", filt.t_plus), EXACT, tracer)
        with tracer.span("sheaf.kernel_dim_exact"):
            kernel_dim = slice_lap.kernel_dim_exact()
        weighted = assemble(filt, stalks, order, ("weighted",), EXACT, tracer)
        features = FeatureBundle.random(weighted, order, channels=4, seed=inp["index"])
        with tracer.span("nn.message_pass"):
            passed = message_pass(features, weighted)
        with tracer.span("nn.psi"):
            psi_layer(stalks, passed, self.psi)
        with tracer.span("nn.filtration_gradient"):
            [filtration_gradient(filt, c) for c in diagram.classes]
        with tracer.span("formats.write"):
            nbytes = write_texts(self.workdir, {
                "diagram.json": formats.dumps(formats.diagram_to_obj(diagram)),
                "passed.json": formats.dumps(formats.features_to_obj(passed)),
            })
        return {"filt": filt, "diagram": diagram, "stalks": stalks, "slice": slice_lap,
                "weighted": weighted, "kernel_dim": kernel_dim, "bytes": nbytes}

    def check(self, inp, out) -> list[str]:
        filt, diagram, order = out["filt"], out["diagram"], inp["order"]
        problems = check_slice(out["slice"]) + check_betti(filt, diagram, filt.t_plus, order)
        float_diagram = persistent_cohomology(filt, order, FLOAT)
        pairs = lambda d: sorted((c.order, c.birth, c.death) for c in d.classes)
        if pairs(diagram) != pairs(float_diagram):
            problems.append("exact and float diagrams differ")
        problems += check_finite("weighted Laplacian", out["weighted"].dense)
        return problems

    def probe(self, out, tracer):
        for _ in range(2):  # one per assemble_laplacian call of the op
            block_probe(out["filt"], out["stalks"], out["slice"].order, EXACT, tracer)

    def count_setup(self, counts: Counter):
        pass

    def count(self, inp, out, counts: Counter):
        filt = out["filt"]
        count_complex(filt, counts)
        counts["persistence.classes"] += len(out["diagram"].classes)
        count_stalks(out["stalks"], counts)
        count_laplacian(out["slice"], counts)
        count_laplacian(out["weighted"], counts)
        betti = betti_at(out["diagram"], filt.t_plus, inp["order"])
        counts["sheaf.kernel_betti_mismatches"] += int(out["kernel_dim"] != betti)
        counts["formats.bytes_written"] += out["bytes"]


class SliceSweep:
    """Build one filtration and its stalks, then answer a stream of operator queries."""

    name = "slice_sweep"
    count_ops = 4  # one full query cycle: three slices, one weighted

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.workdir = seed, workdir
        self.n = 30 if tiny else 200
        self.path = workdir / "points.csv"
        rng = generate.rng_for(seed, 0)
        generate.write_points_csv(self.path, generate.uniform_points(rng, self.n))
        self.params = {
            "points": f"{self.n} uniform in [0,1)^2, one cloud per run",
            "knn": 6, "field": "float", "max_order": 1, "max_dim": 2,
            "queries": "3 of 4: slice at t drawn from threshold_values(), power_iteration, "
                       "100 diffuse steps; 4th: weighted + message_pass (4 channels)",
        }

    def setup(self, tracer):
        graph = read_points(self.path, 6, tracer)
        self.filt = flag_complex(graph, 2, tracer)
        self.diagram = cohomology(self.filt, 1, FLOAT, tracer)
        self.stalks = all_stalks(self.filt, 1, FLOAT, tracer)
        self.thresholds = self.filt.threshold_values()

    def make_input(self, index: int) -> dict:
        if index % 4 == 3:
            return {"index": index, "mode": ("weighted",)}
        rng = generate.rng_for(self.seed, index + 1)
        t = self.thresholds[int(rng.integers(len(self.thresholds)))]
        return {"index": index, "mode": ("slice", t)}

    def run(self, inp, tracer) -> dict:
        lap = assemble(self.filt, self.stalks, 1, inp["mode"], FLOAT, tracer)
        if inp["mode"][0] == "slice":
            result, energies = diffuse_slice(lap, 1, 100, tracer)
            with tracer.span("formats.write"):
                nbytes = write_texts(self.workdir, {
                    "diffused.csv": formats.energy_trace_csv(energies),
                })
            return {"lap": lap, "energies": energies, "bytes": nbytes}
        features = FeatureBundle.random(lap, 1, channels=4, seed=inp["index"])
        with tracer.span("nn.message_pass"):
            passed = message_pass(features, lap)
        with tracer.span("formats.write"):
            nbytes = write_texts(self.workdir, {
                "passed.json": formats.dumps(formats.features_to_obj(passed)),
            })
        return {"lap": lap, "passed": passed, "bytes": nbytes}

    def check(self, inp, out) -> list[str]:
        if inp["mode"][0] == "weighted":
            return check_finite("weighted Laplacian", out["lap"].dense) + check_finite(
                "message_pass output", np.concatenate(list(out["passed"].values.values()))
            )
        t = inp["mode"][1]
        return (
            check_slice(out["lap"])
            + check_energy(out["energies"])
            + check_betti(self.filt, self.diagram, t, 1)
        )

    def probe(self, out, tracer):
        block_probe(self.filt, self.stalks, 1, FLOAT, tracer)

    def count_setup(self, counts: Counter):
        count_complex(self.filt, counts)
        counts["persistence.classes"] += len(self.diagram.classes)
        count_stalks(self.stalks, counts)

    def count(self, inp, out, counts: Counter):
        count_laplacian(out["lap"], counts)
        counts["formats.bytes_written"] += out["bytes"]


WORKLOADS = {w.name: w for w in (KnnPipeline, SmallBatchExact, SliceSweep)}
