"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are stated inline and never loosened.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from localhom import oracle
from localhom.cli import main as cli_main
from localhom.complexes import WeightedGraph, build_flag_complex, star_of_vertices
from localhom.golden import GOLDEN_BETTI, c4, k3, octahedron, two_c4
from localhom.linalg import Field
from localhom.nn import (
    FeatureBundle,
    MLPParams,
    diffuse,
    filtration_gradient,
    node_gain_network,
    power_iteration,
    sign_equivariant_layer,
)
from localhom.persistence import betti_at, persistent_cohomology
from localhom.sheaf import assemble_laplacian, compute_stalk

from conftest import load_corpus, sign_equivariant_jvp


def report(num: int, name: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"criterion {num:2d} ({name}): PASS in {elapsed:.2f}s (budget {budget:g}s)")


def test_criterion_01_golden_betti():
    started = time.time()
    for name, builder, max_dim, expected in GOLDEN_BETTI:
        filt = build_flag_complex(builder(), max_dim)
        diagram = persistent_cohomology(filt, len(expected) - 1)
        t = filt.t_plus
        for k, beta in enumerate(expected):
            fast = betti_at(diagram, t, k)
            dense = oracle.betti_dense(filt, t, k)
            assert fast == dense == beta, (name, k, fast, dense, beta)
    report(1, "golden Betti fixtures", started, 1.0)


def test_criterion_02_local_homology_fixtures():
    started = time.time()
    oct_filt = build_flag_complex(octahedron(), 3)
    for v in range(6):
        stalk = compute_stalk(oct_filt, v, 2)
        assert [(c.order, c.birth, c.death) for c in stalk.cocycles] == [
            (2, 1.0, math.inf)
        ]
    k3_filt = build_flag_complex(k3(), 3)
    for v in range(3):
        assert compute_stalk(k3_filt, v, 2).cocycles == []
    c4_filt = build_flag_complex(c4(), 2)
    for v in range(4):
        stalk = compute_stalk(c4_filt, v, 1)
        assert [(c.order, c.birth, c.death) for c in stalk.cocycles] == [
            (1, 1.0, math.inf)
        ]
    report(2, "local homology fixtures", started, 1.0)


def test_criterion_03_excision_suite():
    started = time.time()
    for graph in load_corpus():
        filt = build_flag_complex(graph, 3)
        for v in range(graph.vertex_count):
            trunc, _, open_img = oracle.truncate_neighborhood(filt, [v], 1)
            star_ids = set(star_of_vertices(filt, [v]).ids)
            open_ids = set(open_img.ids)
            for t in filt.threshold_values():
                full_present = oracle.ids_at(filt, t)
                trunc_present = oracle.ids_at(trunc, t)
                for k in range(3):
                    full = oracle._relative_betti(filt, full_present & star_ids, k)
                    small = oracle._relative_betti(trunc, trunc_present & open_ids, k)
                    assert full == small, (graph, v, t, k)
    report(3, "excision on 200 random graphs", started, 60.0)


def test_criterion_04_sheaf_kernel_equals_global_homology():
    started = time.time()
    fixtures = [
        (build_flag_complex(c4(), 2), 1),
        (build_flag_complex(two_c4(), 2), 1),
        (build_flag_complex(octahedron(), 3), 2),
    ]
    for filt, k in fixtures:
        stalks = {
            v: compute_stalk(filt, v, k) for v in range(filt.vertex_count)
        }
        lap = assemble_laplacian(filt, stalks, k, ("slice", filt.t_plus))
        assert lap.kernel_dim_exact() == oracle.betti_dense(filt, filt.t_plus, k)
    report(4, "sheaf kernel = global homology", started, 10.0)


def test_criterion_05_diffusion():
    started = time.time()
    filt = build_flag_complex(c4(), 2)
    stalks = {v: compute_stalk(filt, v, 1) for v in range(4)}
    lap = assemble_laplacian(filt, stalks, 1, ("slice", 1.0))
    feats = FeatureBundle.random(lap, 1, seed=12345)
    alpha = 0.9 / power_iteration(lap.dense)
    out, energies = diffuse(feats, lap, alpha, 500)
    assert energies[-1] < 1e-10
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    report(5, "diffusion energy decay", started, 1.0)


def test_criterion_07_psd_and_symmetry():
    started = time.time()
    rng = np.random.default_rng(777)
    fixtures = [
        (build_flag_complex(c4(), 2), 1),
        (build_flag_complex(two_c4(), 2), 1),
        (build_flag_complex(octahedron(), 3), 2),
    ]
    for filt, k in fixtures:
        stalks = {v: compute_stalk(filt, v, k) for v in range(filt.vertex_count)}
        for t in filt.threshold_values():
            lap = assemble_laplacian(filt, stalks, k, ("slice", t))
            assert np.array_equal(lap.dense, lap.dense.T)
            if lap.dimension == 0:
                continue
            scale = max(np.abs(lap.dense).max(), 1.0)
            for _ in range(100):
                x = rng.standard_normal(lap.dimension)
                assert x @ lap.dense @ x >= -1e-8 * scale * (x @ x)
    report(7, "slice PSD and symmetry", started, 10.0)


def test_criterion_08_field_parity():
    started = time.time()
    graphs = load_corpus() + [c4(), two_c4(), octahedron(), k3()]
    for graph in graphs:
        filt = build_flag_complex(graph, 3)
        exact = persistent_cohomology(filt, 2, Field())
        floaty = persistent_cohomology(filt, 2, Field(kind="float"))
        exact_pairs = sorted((c.order, c.birth, c.death) for c in exact.classes)
        float_pairs = sorted((c.order, c.birth, c.death) for c in floaty.classes)
        assert exact_pairs == float_pairs, graph
    report(8, "field carrier parity", started, 60.0)


def test_criterion_09_sign_equivariance():
    started = time.time()
    rng = np.random.default_rng(909)
    for draw in range(100):
        dim = int(rng.integers(1, 9))
        rho = MLPParams.init([dim, 8, dim], seed=draw)
        x = rng.standard_normal(dim)
        base = sign_equivariant_layer(x, rho)
        for signs in itertools.product((-1.0, 1.0), repeat=dim):
            d = np.array(signs)
            err = np.abs(sign_equivariant_layer(d * x, rho) - d * base).max()
            assert err < 1e-12
    report(9, "sign equivariance", started, 60.0)


def _fd_slopes(graph, edge, match, step=1e-5):
    births, deaths = [], []
    for sign in (+1.0, -1.0):
        edges = tuple(
            (u, v, w + sign * step if (u, v) == edge else w)
            for u, v, w in graph.edges
        )
        filt = build_flag_complex(WeightedGraph(graph.vertex_count, edges), 2)
        diagram = persistent_cohomology(filt, 1)
        found = [
            c
            for c in diagram.classes
            if c.order == match[0]
            and filt.simplices[c.birth_index] == match[1]
            and (match[2] is None or filt.simplices[c.death_index] == match[2])
        ]
        assert len(found) == 1, (graph, edge, match)
        births.append(found[0].birth)
        deaths.append(found[0].death)
    db = (births[0] - births[1]) / (2 * step)
    dd = (deaths[0] - deaths[1]) / (2 * step) if match[2] is not None else None
    return db, dd


def test_criterion_10_gradient_checks():
    started = time.time()
    graphs = load_corpus("tie_free_corpus.json")
    assert len(graphs) == 50
    checked = 0
    for graph in graphs:
        filt = build_flag_complex(graph, 2)
        diagram = persistent_cohomology(filt, 1)
        finite = [c for c in diagram.classes if not c.essential]
        finite.sort(key=lambda c: (-c.order, c.birth))
        for c in finite[:1]:
            grad = filtration_gradient(filt, c)
            match = (
                c.order,
                filt.simplices[c.birth_index],
                filt.simplices[c.death_index],
            )
            if grad.birth:
                (edge, slope), = grad.birth.items()
                db, _ = _fd_slopes(graph, edge, match)
                assert abs(db - slope) < 1e-4 * max(abs(slope), 1.0)
            (edge, slope), = grad.death.items()
            db, dd = _fd_slopes(graph, edge, match)
            assert abs(dd - slope) < 1e-4 * max(abs(slope), 1.0)
            # a non-critical edge moves neither endpoint
            critical = set(grad.birth) | set(grad.death)
            spectator = next(
                ((u, v) for u, v, _ in graph.edges if (u, v) not in critical), None
            )
            if spectator is not None:
                db, dd = _fd_slopes(graph, spectator, match)
                assert abs(db) < 1e-4 and abs(dd) < 1e-4
            checked += 1
    assert checked == 50
    # hypernetwork-parameterized layer: analytic JVP vs forward perturbation
    rng = np.random.default_rng(1010)

    class DescStalk:
        def __init__(self, desc):
            self._desc = desc

        def descriptors(self):
            return self._desc

    psi = MLPParams.init([6, 16, 16, 1], seed=202)
    for _ in range(50):
        dim = int(rng.integers(1, 7))
        desc = [
            (int(rng.integers(0, 3)), float(rng.uniform(0, 1)), float(rng.uniform(1, 2)))
            for _ in range(dim)
        ]
        rho = node_gain_network(DescStalk(desc), psi)
        x = rng.standard_normal(dim) + np.sign(rng.standard_normal(dim)) * 0.2
        dx = rng.standard_normal(dim)
        analytic = sign_equivariant_jvp(x, dx, rho)
        eps = 1e-6
        numeric = (
            sign_equivariant_layer(x + eps * dx, rho)
            - sign_equivariant_layer(x - eps * dx, rho)
        ) / (2 * eps)
        denom = max(np.linalg.norm(analytic), 1e-12)
        assert np.linalg.norm(numeric - analytic) / denom < 1e-6
    report(10, "gradient checks", started, 60.0)


def test_criterion_11_parallel_determinism(tmp_path):
    started = time.time()
    inputs = {
        "c4.csv": "0,1,1.0\n1,2,1.0\n2,3,1.0\n0,3,1.0\n",
        "oct.csv": "".join(
            f"{u},{v},1.0\n"
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in {(0, 5), (1, 3), (2, 4)}
        ),
    }
    for name, text in inputs.items():
        path = tmp_path / name
        path.write_text(text)
        max_order = "1" if name == "c4.csv" else "2"
        max_dim = "2" if name == "c4.csv" else "3"
        outputs = []
        stem = name.replace(".", "_")
        for threads in ("1", "4", "0"):
            outdir = tmp_path / f"{stem}_stalks_{threads}"
            base = tmp_path / f"{stem}_lap_{threads}"
            assert cli_main(
                ["stalks", "--input", str(path), "--max-dim", max_dim,
                 "--max-order", max_order, "--threads", threads, "--out", str(outdir)]
            ) == 0
            assert cli_main(
                ["laplacian", "--input", str(path), "--max-dim", max_dim,
                 "--max-order", max_order, "--mode", "slice=1.0",
                 "--threads", threads, "--out", str(base)]
            ) == 0
            blob = b"".join(
                (outdir / f).read_bytes() for f in sorted(os.listdir(outdir))
            )
            blob += (tmp_path / f"{stem}_lap_{threads}.json").read_bytes()
            blob += (tmp_path / f"{stem}_lap_{threads}.mtx").read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1] == outputs[2], name
    report(11, "parallel determinism", started, 30.0)
