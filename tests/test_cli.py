"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

import json
import math
import os

import numpy as np
import pytest

from localhom.cli import main
from localhom.complexes import build_flag_complex
from localhom.formats import read_edge_csv
from localhom.sheaf import assemble_laplacian, compute_stalk


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def c4_csv(tmp_path):
    return write(tmp_path / "c4.csv", "0,1,1.0\n1,2,1.0\n2,3,1.0\n0,3,1.0\n")


@pytest.fixture
def square_csv(tmp_path):
    return write(tmp_path / "sq.csv", "0.0,0.0\n1.0,0.0\n1.0,1.0\n0.0,1.0\n")


def test_filtration_c4(c4_csv, tmp_path):
    out = tmp_path / "filt.json"
    assert main(["filtration", "--input", c4_csv, "--max-dim", "2", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 8
    assert [r["index"] for r in records] == list(range(8))


def test_filtration_square_points(square_csv, tmp_path):
    out = tmp_path / "filt.json"
    code = main(
        [
            "filtration",
            "--input",
            square_csv,
            "--format",
            "points",
            "--max-order",
            "2",
            "--max-dim",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 15  # 4 vertices + 6 edges + 4 triangles + 1 tetrahedron


def test_filtration_malformed_row_names_line(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "0,1,1.0\n0,oops\n")
    code = main(["filtration", "--input", bad, "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_persistence_square_csv_row(square_csv, tmp_path):
    base = tmp_path / "diag"
    code = main(
        [
            "persistence",
            "--input",
            square_csv,
            "--format",
            "points",
            "--max-order",
            "1",
            "--max-dim",
            "2",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    csv_text = (base.with_suffix(".csv")).read_text()
    assert "1,1.0,1.4142135623730951" in csv_text


def test_persistence_single_point(tmp_path):
    pts = write(tmp_path / "p.csv", "0.0,0.0\n")
    base = tmp_path / "diag"
    code = main(
        ["persistence", "--input", pts, "--format", "points", "--max-order", "0",
         "--max-dim", "1", "--out", str(base)]
    )
    assert code == 0
    assert "0,0.0,inf" in base.with_suffix(".csv").read_text()


@pytest.mark.parametrize("eps", ["0", "-1", "inf", "nan"])
def test_bad_eps_is_config_error(eps, c4_csv, tmp_path, capsys):
    code = main(
        ["persistence", "--input", c4_csv, "--field", "float", "--eps", eps,
         "--out", str(tmp_path / "d")]
    )
    assert code == 2
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["slice=nan", "slice=inf"])
def test_non_finite_slice_time_is_config_error(mode, c4_csv, tmp_path, capsys):
    code = main(["laplacian", "--input", c4_csv, "--mode", mode, "--out", str(tmp_path / "l")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_negative_threads_is_config_error(c4_csv, tmp_path):
    code = main(["stalks", "--input", c4_csv, "--threads", "-1", "--out", str(tmp_path / "s")])
    assert code == 2


@pytest.mark.parametrize(
    "flags, message",
    [(["--channels", "-1"], "--channels"), (["--channels", "0"], "--channels"),
     (["--steps", "-1"], "--steps"), (["--seed", "-1"], "--seed")],
)
def test_bad_diffuse_counts_are_config_errors(flags, message, c4_csv, tmp_path, capsys):
    code = main(["diffuse", "--input", c4_csv, "--max-dim", "2", *flags,
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
def test_bad_alpha_is_config_error(alpha, c4_csv, tmp_path, capsys):
    code = main(["diffuse", "--input", c4_csv, "--max-dim", "2", "--alpha", alpha,
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert "--alpha" in capsys.readouterr().err


C4_FEATURES = {"order": 1, "channels": [{str(v): {"0": 1.0} for v in range(4)}]}


def _diffuse_features(c4_csv, tmp_path, features_path):
    return main(["diffuse", "--input", c4_csv, "--max-dim", "2", "--steps", "0",
                 "--features", features_path, "--out", str(tmp_path / "d")])


def test_features_round_trip(c4_csv, tmp_path):
    src = write(tmp_path / "f.json", json.dumps(C4_FEATURES))
    assert _diffuse_features(c4_csv, tmp_path, src) == 0
    assert json.loads((tmp_path / "d.json").read_text()) == C4_FEATURES


def test_features_missing_file_is_config_error(c4_csv, tmp_path, capsys):
    assert _diffuse_features(c4_csv, tmp_path, str(tmp_path / "absent.json")) == 2
    assert "absent.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"order": 1}, "'order' and 'channels'"),
        ({"channels": C4_FEATURES["channels"]}, "'order' and 'channels'"),
        ([1, 2], "'order' and 'channels'"),
        ({"order": 2, "channels": C4_FEATURES["channels"]}, "feature order 2"),
        ({"order": 1, "channels": []}, "non-empty list"),
        ({"order": 1, "channels": [{"0": {"1": 1.0}}]}, "cocycle index '1'"),
        ({"order": 1, "channels": [{"4": {"0": 1.0}}]}, "vertex '4' is not in the Laplacian"),
        ({"order": 1, "channels": [{"0": {"0": "x"}}]}, "is not a number"),
    ],
)
def test_malformed_features_are_config_errors(obj, message, c4_csv, tmp_path, capsys):
    src = write(tmp_path / "f.json", json.dumps(obj))
    assert _diffuse_features(c4_csv, tmp_path, src) == 2
    assert message in capsys.readouterr().err


def dump(*records):
    return [{"vertices": s, "value": w, "index": i} for i, (s, w) in enumerate(records)]


@pytest.mark.parametrize(
    "obj, message",
    [
        (dump(([0], 0.0), ([0, 1], 1.0)), "filtration record 1: face [1] of [0, 1]"),
        (
            dump(([0], 0.0), ([1], 0.0), ([2], 0.0), ([0, 1], 2.0), ([0, 2], 2.0),
                 ([1, 2], 2.0), ([0, 1, 2], 1.0)),
            "filtration record 6: value 1.0 is below",
        ),
        (dump(([0], 1.0), ([1], 0.0), ([0, 1], 2.0)), "filtration record 1: value 0.0"),
        (dump(([0], 0.0), ([1], 0.0), ([0, 1], 1.0), ([0, 1], 1.0)), "appears twice"),
        (dump(([0], 0.0), ([1], 0.0), ([1, 0], 1.0)), "record 2: vertices [1, 0]"),
        (dump(([0], 0.0), ([2], 0.0)), "no record for vertex 1"),
        ([{"vertices": [0], "index": 0}], "'value'"),
        ({"vertices": [0]}, "must list records"),
    ],
    ids=["missing_face", "triangle_below_edges", "vertices_out_of_order", "duplicate",
         "unsorted_vertices", "vertex_gap", "missing_key", "not_a_list"],
)
def test_malformed_filtration_dump_is_config_error(obj, message, tmp_path, capsys):
    path = write(tmp_path / "filt.json", json.dumps(obj))
    code = main(
        ["persistence", "--input", path, "--format", "filtration", "--max-order", "0",
         "--max-dim", "1", "--out", str(tmp_path / "d")]
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_order_exceeding_max_dim_is_config_error(c4_csv, tmp_path, capsys):
    code = main(
        ["persistence", "--input", c4_csv, "--max-order", "2", "--max-dim", "2",
         "--out", str(tmp_path / "d")]
    )
    assert code == 2


def test_contract_error_exit_code(tmp_path, capsys):
    # a self-loop violates the weighted-graph contract during computation setup
    bad = write(tmp_path / "loop.csv", "0,0,1.0\n")
    code = main(["filtration", "--input", bad, "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "self-loop" in capsys.readouterr().err


def test_missing_input_is_config_error(tmp_path):
    code = main(
        ["filtration", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_stalk_files(c4_csv, tmp_path):
    outdir = tmp_path / "stalks"
    code = main(
        ["stalks", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
         "--out", str(outdir)]
    )
    assert code == 0
    files = sorted(os.listdir(outdir))
    assert files == [f"stalk_{v:05d}.json" for v in range(4)]
    stalk0 = json.loads((outdir / files[0]).read_text())
    assert [c["k"] for c in stalk0["cocycles"]] == [1]
    assert stalk0["cocycles"][0]["death"] == "inf"


def test_laplacian_k3_empty_blocks(tmp_path):
    k3_csv = write(tmp_path / "k3.csv", "0,1,1.0\n0,2,1.0\n1,2,1.0\n")
    base = tmp_path / "lap"
    code = main(
        ["laplacian", "--input", k3_csv, "--max-dim", "2", "--max-order", "1",
         "--mode", "slice=1.0", "--out", str(base)]
    )
    assert code == 0
    dump = json.loads(base.with_suffix(".json").read_text())
    assert dump["blocks"] == []
    assert all(d == 0 for d in dump["stalk_dims"].values())


def test_laplacian_weighted_mode(c4_csv, tmp_path):
    base = tmp_path / "lapw"
    code = main(
        ["laplacian", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
         "--mode", "weighted", "--out", str(base)]
    )
    assert code == 0
    dump = json.loads(base.with_suffix(".json").read_text())
    assert len(dump["blocks"]) == 4
    assert not (tmp_path / "lapw.mtx").exists()  # slice export is slice-only


def test_laplacian_slice_writes_matrixmarket(c4_csv, tmp_path):
    base = tmp_path / "lap"
    main(
        ["laplacian", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
         "--mode", "slice=1.0", "--out", str(base)]
    )
    mtx = base.with_suffix(".mtx").read_text().splitlines()
    assert mtx[0].startswith("%%MatrixMarket")
    nr, nc, nnz = (int(x) for x in mtx[1].split())
    assert nr == nc == 4 and nnz == 12
    rebuilt = np.zeros((nr, nc))
    for line in mtx[2:]:
        i, j, v = line.split()
        rebuilt[int(i) - 1, int(j) - 1] = float(v)
    filt = build_flag_complex(read_edge_csv(c4_csv), 2)
    stalks = {v: compute_stalk(filt, v, 1) for v in range(filt.vertex_count)}
    assert np.array_equal(rebuilt, assemble_laplacian(filt, stalks, 1, ("slice", 1.0)).dense)


def test_diffuse_c4_energy_drops(c4_csv, tmp_path):
    base = tmp_path / "diff"
    code = main(
        ["diffuse", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
         "--steps", "500", "--out", str(base)]
    )
    assert code == 0
    rows = base.with_suffix(".csv").read_text().strip().splitlines()[1:]
    energies = [float(r.split(",")[1]) for r in rows]
    assert len(energies) == 501
    assert energies[-1] < 1e-10
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))


def test_round_trip_filtration_reproduces_diagram(c4_csv, tmp_path):
    filt_json = tmp_path / "filt.json"
    main(["filtration", "--input", c4_csv, "--max-dim", "2", "--out", str(filt_json)])
    base_a = tmp_path / "direct"
    base_b = tmp_path / "reingested"
    main(["persistence", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
          "--out", str(base_a)])
    main(["persistence", "--input", str(filt_json), "--format", "filtration",
          "--max-order", "1", "--max-dim", "2", "--out", str(base_b)])
    assert base_a.with_suffix(".json").read_bytes() == base_b.with_suffix(".json").read_bytes()
    assert base_a.with_suffix(".csv").read_bytes() == base_b.with_suffix(".csv").read_bytes()


def test_thread_count_determinism(c4_csv, tmp_path):
    outputs = []
    for threads in ("1", "4", "0"):
        outdir = tmp_path / f"stalks_{threads}"
        base = tmp_path / f"lap_{threads}"
        assert main(
            ["stalks", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
             "--threads", threads, "--out", str(outdir)]
        ) == 0
        assert main(
            ["laplacian", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
             "--mode", "slice=1.0", "--threads", threads, "--out", str(base)]
        ) == 0
        stalk_bytes = b"".join(
            (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))
        )
        outputs.append((stalk_bytes, base.with_suffix(".json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_golden_corpus(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report and all(entry["status"] == "pass" for entry in report)
    checks = {entry["check"] for entry in report}
    assert "betti_fast_vs_dense" in checks and "excision" in checks


def test_verify_on_input_graph(c4_csv, tmp_path):
    code = main(
        ["verify", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 0
