"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

import dataclasses
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localhom import cli, sheaf
from localhom.cli import main
from localhom.complexes import build_flag_complex
from localhom.errors import ConfigError, ContractError
from localhom.formats import (
    dumps,
    read_edge_csv,
    read_features_json,
    read_filtration_json,
    read_points_csv,
)
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


@pytest.mark.parametrize("eps", ["0", "-1", "inf", "nan", "1", "2"])
def test_bad_eps_is_config_error(eps, c4_csv, tmp_path, capsys):
    """No command reads --eps any more, since no reduction has a tolerance:
    every value, the old range's rejects included, exits 2 as a flag
    persistence does not read."""
    code = main(
        ["persistence", "--input", c4_csv, "--field", "float", "--eps", eps,
         "--out", str(tmp_path / "d")]
    )
    assert code == 2
    assert "does not read --eps" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["slice=nan", "slice=inf"])
def test_non_finite_slice_time_is_config_error(mode, c4_csv, tmp_path, capsys):
    code = main(["laplacian", "--input", c4_csv, "--mode", mode, "--out", str(tmp_path / "l")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_negative_threads_is_config_error(c4_csv, tmp_path):
    code = main(["stalks", "--input", c4_csv, "--threads", "-1", "--out", str(tmp_path / "s")])
    assert code == 2


@pytest.mark.parametrize("knn", ["0", "-2"])
@pytest.mark.parametrize("fmt", ["points", "edges"])
def test_bad_knn_is_config_error(knn, fmt, c4_csv, square_csv, tmp_path, capsys):
    data = square_csv if fmt == "points" else c4_csv
    code = main(["persistence", "--input", data, "--format", fmt, "--knn", knn,
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert "--knn" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["stalks", "laplacian", "diffuse"])
def test_order_zero_operator_is_config_error(command, c4_csv, tmp_path, capsys):
    """Stalks hold orders >= 1, so an order-0 operator is always empty."""
    code = main([command, "--input", c4_csv, "--max-order", "0", "--out", str(tmp_path / "d")])
    assert code == 2
    assert "--max-order" in capsys.readouterr().err
    assert list(tmp_path.glob("d*")) == []


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
        ({"order": 1, "channels": [{"0": {"0": 10**400}}]}, "is not a number"),
        # not read as 1.0, and not handed on to the feature bundle (exit 3)
        ({"order": 1, "channels": [{"0": {"0": True}}]},
         "feature channel 0, vertex 0, index 0: value True"),
        ({"order": 1, "channels": [{"0": {"0": "inf"}}]},
         "feature channel 0, vertex 0, index 0: value 'inf'"),
        ({"order": 1, "channels": [{"0": {"0": math.nan}}]},
         "feature channel 0, vertex 0, index 0: value nan"),
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
        (dump(([10**12], 0.0)), "no record for vertex 0"),
        (dump(([0], 10**400)), "must list records"),
        ([{"vertices": [0], "index": 0}], "'value'"),
        ({"vertices": [0]}, "must list records"),
        # not read as a number, and not sorted as text
        (dump(([0], True)), "filtration record 0: value True is not a number"),
        (dump(([0], "0.5")), "filtration record 0: value '0.5' is not a number"),
        ([{"vertices": [0], "value": 0.0, "index": True}], "filtration record True: index"),
        ([{"vertices": [0], "value": 0.0, "index": 1.5}], "filtration record 1.5: index"),
        (
            [{"vertices": [0], "value": 0.0, "index": "9"},
             {"vertices": [1], "value": 0.0, "index": "10"}],
            "filtration record '9': index",
        ),
    ],
    ids=["missing_face", "triangle_below_edges", "vertices_out_of_order", "duplicate",
         "unsorted_vertices", "vertex_gap", "huge_vertex_id", "huge_value", "missing_key",
         "not_a_list", "bool_value", "string_value", "bool_index", "float_index",
         "string_index"],
)
def test_malformed_filtration_dump_is_config_error(obj, message, tmp_path, capsys):
    path = write(tmp_path / "filt.json", json.dumps(obj))
    code = main(
        ["persistence", "--input", path, "--format", "filtration", "--max-order", "0",
         "--max-dim", "1", "--out", str(tmp_path / "d")]
    )
    assert code == 2
    assert message in capsys.readouterr().err


# numbers at the edges of what a float holds, and strings that may parse as one
edge_numbers = st.one_of(
    st.floats(), st.integers(), st.sampled_from([10**400, -(10**400)]),
    st.sampled_from(["inf", "1e999", "x"]),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)
dump_records = st.lists(
    st.fixed_dictionaries(
        {
            "vertices": st.lists(st.integers(-1, 3), max_size=3) | json_values,
            "value": edge_numbers | json_values,
            "index": st.integers(0, 6) | json_values,
        }
    ),
    max_size=6,
)
feature_dumps = st.fixed_dictionaries(
    {
        "order": st.just(1) | json_values,
        "channels": st.lists(
            st.dictionaries(
                st.sampled_from(["0", "3", "4", "x"]),
                st.dictionaries(
                    st.sampled_from(["0", "1", "-1"]), edge_numbers | json_values, min_size=1
                )
                | json_values,
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=2,
        )
        | json_values,
    }
)


def _exit_code_on(obj, command_for):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "in.json", json.dumps(obj))
        return main(command_for(tmp, path))


@settings(max_examples=80, deadline=None)
@given(dump_records | json_values)
def test_fuzzed_filtration_dump_never_escapes(obj):
    """Any JSON as a filtration dump ends in a documented exit code."""
    code = _exit_code_on(obj, lambda tmp, path: [
        "persistence", "--input", path, "--format", "filtration", "--max-order", "0",
        "--max-dim", "1", "--out", os.path.join(tmp, "d")])
    assert code in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(feature_dumps | json_values)
def test_fuzzed_feature_file_never_escapes(obj):
    """Any JSON as a feature file ends in a documented exit code."""
    def command_for(tmp, path):
        edges = write(Path(tmp) / "c4.csv", "0,1,1.0\n1,2,1.0\n2,3,1.0\n0,3,1.0\n")
        return ["diffuse", "--input", edges, "--max-dim", "2", "--steps", "0",
                "--features", path, "--out", os.path.join(tmp, "d")]

    assert _exit_code_on(obj, command_for) in (0, 2, 3)


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


@pytest.mark.parametrize(
    "rows,message",
    [
        ("0,0\n1e200,0\n2e200,1\n", "points 0 and 1 overflows"),
        ("0,0\n1,nan\n2,2\n", "point 1 has a non-finite coordinate"),
    ],
    ids=["overflow", "nan"],
)
def test_bad_point_cloud_is_contract_error(rows, message, tmp_path, capsys):
    pts = write(tmp_path / "p.csv", rows)
    code = main(
        ["filtration", "--input", pts, "--format", "points", "--knn", "1",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["persistence", "stalks", "laplacian", "diffuse"])
def test_missing_out_is_config_error_before_any_work(command, tmp_path, capsys):
    """A point cloud holding nan would exit 3 once read; the missing --out
    is found first."""
    pts = write(tmp_path / "p.csv", "0,0\n1,nan\n")
    assert main([command, "--input", pts, "--format", "points"]) == 2
    assert "--out is required" in capsys.readouterr().err


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


def test_laplacian_weighted_builds_no_entry(tmp_path, monkeypatch):
    """`laplacian --mode weighted` writes the block JSON from the atoms and
    never builds the weighted entries."""
    cloud = np.random.default_rng(7).random((40, 2)).tolist()
    points = write(tmp_path / "pts.csv", "".join(f"{x!r},{y!r}\n" for x, y in cloud))
    argv = ["laplacian", "--input", points, "--format", "points", "--knn", "6",
            "--max-order", "1", "--max-dim", "2", "--mode", "weighted"]
    assert main([*argv, "--out", str(tmp_path / "free")]) == 0

    def refuse(*args):
        raise AssertionError("weighted entry built")

    monkeypatch.setattr(sheaf, "_entry_weight", refuse)
    assert main([*argv, "--out", str(tmp_path / "patched")]) == 0
    written = (tmp_path / "patched.json").read_text()
    assert written == (tmp_path / "free.json").read_text()
    assert any(block["atoms"] for block in json.loads(written)["blocks"])


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


def test_no_command_builds_the_dense_operator(tmp_path, monkeypatch):
    """`laplacian` (both modes, MatrixMarket included) and `diffuse` never
    read `AssembledLaplacian.dense`, the dim x dim array."""
    from localhom.sheaf import AssembledLaplacian

    def refuse(self):
        raise AssertionError("dense operator built")

    monkeypatch.setattr(AssembledLaplacian, "dense", property(refuse))
    cloud = np.random.default_rng(7).random((40, 2)).tolist()
    points = write(tmp_path / "pts.csv", "".join(f"{x!r},{y!r}\n" for x, y in cloud))
    base = ["--input", points, "--format", "points", "--knn", "6", "--field", "float",
            "--max-order", "1", "--max-dim", "2"]
    for mode in ("slice=0.5", "weighted"):
        assert main(["laplacian", *base, "--mode", mode, "--out", str(tmp_path / "lap")]) == 0
    assert (tmp_path / "lap.mtx").read_text().startswith("%%MatrixMarket")
    assert main(["diffuse", *base, "--channels", "2", "--steps", "50",
                 "--out", str(tmp_path / "diff")]) == 0


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
    fixtures = ["c4", "two_c4", "octahedron", "k4", "k3"]
    assert [e["fixture"] for e in report] == [f for f in fixtures for _ in range(4)]
    for fixture in fixtures:
        assert [e["check"] for e in report if e["fixture"] == fixture] == [
            "betti_fast_vs_dense",
            "stalks_fast_vs_dense",
            "sheaf_kernel_vs_global_sections",
            "mayer_vietoris",
        ], fixture


def test_verify_on_input_graph(c4_csv, tmp_path):
    code = main(
        ["verify", "--input", c4_csv, "--max-dim", "2", "--max-order", "1",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 0


def test_verify_catches_a_dropped_stalk_cocycle(c4_csv, tmp_path, monkeypatch):
    """A stalk that lost a cocycle disagrees with the dense local Betti number."""
    real = cli.compute_stalk

    def drop_first(filt, v, max_order, **kwargs):
        stalk = real(filt, v, max_order, **kwargs)
        return dataclasses.replace(stalk, cocycles=stalk.cocycles[1:])

    monkeypatch.setattr(cli, "compute_stalk", drop_first)
    out = tmp_path / "r.json"
    assert main(["verify", "--input", c4_csv, "--out", str(out)]) == 4
    (entry,) = [e for e in json.loads(out.read_text()) if e["check"] == "stalks_fast_vs_dense"]
    assert entry["status"] == "fail"
    assert set(entry["counterexample"]) == {"vertex", "t", "k", "fast", "dense"}
    assert entry["counterexample"]["fast"] < entry["counterexample"]["dense"]


def test_verify_catches_a_dropped_atom(c4_csv, tmp_path, monkeypatch):
    """Edge stars that each lost a bar, so blocks that each lost an atom,
    leave the slice kernel larger than the dense count of global sections."""
    real = sheaf._edge_bars
    monkeypatch.setattr(sheaf, "_edge_bars", lambda *args: real(*args)[1:])
    out = tmp_path / "r.json"
    assert main(["verify", "--input", c4_csv, "--out", str(out)]) == 4
    failed = [e for e in json.loads(out.read_text()) if e["status"] == "fail"]
    assert [e["check"] for e in failed] == ["sheaf_kernel_vs_global_sections"]
    assert set(failed[0]["counterexample"]) == {"t", "k", "fast", "dense"}
    assert failed[0]["counterexample"]["fast"] > failed[0]["counterexample"]["dense"]


def test_verify_at_order_zero_has_no_stalk_check(c4_csv, tmp_path):
    """Stalks hold orders >= 1, so at max order 0 there is no stalk to check."""
    out = tmp_path / "r.json"
    assert main(["verify", "--input", c4_csv, "--max-order", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report and all(entry["status"] == "pass" for entry in report)
    assert "stalks_fast_vs_dense" not in {entry["check"] for entry in report}


def test_verify_on_graph_without_vertices(tmp_path):
    empty = write(tmp_path / "empty.csv", "# no edges\n")
    out = tmp_path / "r.json"
    assert main(["verify", "--input", empty, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report and all(entry["status"] == "pass" for entry in report)


@pytest.mark.parametrize(
    "command, out_of",
    [("stalks", lambda tmp: tmp / "taken"), ("persistence", lambda tmp: tmp / "taken" / "x"),
     ("filtration", lambda tmp: tmp)],
    ids=["stalks_dir_is_a_file", "persistence_parent_is_a_file", "filtration_out_is_a_dir"],
)
def test_unwritable_out_is_config_error(command, out_of, c4_csv, tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    out = str(out_of(tmp_path))
    assert main([command, "--input", c4_csv, "--max-dim", "2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and str(tmp_path) in err


@pytest.mark.parametrize(
    "flags", [["--format", "edges"], ["--format", "points"], ["--format", "filtration"], None],
    ids=["edges", "points", "filtration", "features"],
)
def test_non_utf8_input_is_config_error(flags, c4_csv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff0,1,1.0\n")
    if flags is None:
        argv = ["diffuse", "--input", c4_csv, "--max-dim", "2", "--features", str(bad)]
    else:
        argv = ["persistence", "--input", str(bad), *flags]
    assert main([*argv, "--out", str(tmp_path / "d")]) == 2
    assert "bad.txt" in capsys.readouterr().err


# the feature file fails before the Laplacian is read, so none is given
READERS = {
    "edges": read_edge_csv,
    "points": lambda path: read_points_csv(path, "euclidean", None),
    "filtration": read_filtration_json,
    "features": lambda path: read_features_json(path, None),
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("content", [None, b"\xff0,1,1.0\n"], ids=["missing", "not_utf8"])
def test_reader_raises_config_error_naming_the_path(reader, content, tmp_path):
    path = tmp_path / "in.txt"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=f"cannot read {re.escape(str(path))}: "):
        READERS[reader](str(path))


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "inf"])
def test_dumps_rejects_non_finite_floats(bad):
    with pytest.raises(ContractError):
        dumps({"x": [1.0, bad]})


def test_dumps_writes_numpy_floats_as_floats():
    assert dumps({"x": np.float64(0.5), "y": [np.float64(-2.0)]}) == '{"x": 0.5, "y": [-2.0]}\n'


def test_non_finite_output_is_contract_error_and_writes_nothing(c4_csv, tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.setattr("localhom.formats.diagram_to_obj", lambda diagram: [{"birth": math.nan}])
    out = tmp_path / "out"
    assert main(["persistence", "--input", c4_csv, "--out", str(out / "d.json")]) == 3
    assert "contract error" in capsys.readouterr().err
    assert not out.exists()


# flags each command reads, as README lists them; every other flag exits 2
GRAPH_ROW = ["--input", "--format", "--metric", "--knn", "--max-order", "--max-dim", "--out"]
ROWS = {
    "filtration": GRAPH_ROW,
    "verify": GRAPH_ROW,
    "persistence": [*GRAPH_ROW, "--field"],
    "stalks": [*GRAPH_ROW, "--field", "--rings", "--threads"],
    "laplacian": [*GRAPH_ROW, "--field", "--rings", "--threads", "--mode"],
    "diffuse": [*GRAPH_ROW, "--field", "--rings", "--threads", "--mode",
                "--alpha", "--steps", "--features", "--seed", "--channels"],
}
# a valid value of each flag, with the flags it needs to be read
VALID = {
    "--format": ["--format", "edges"],
    "--metric": ["--format", "points", "--metric", "manhattan"],
    "--knn": ["--format", "points", "--knn", "2"],
    "--max-order": ["--max-order", "1"],
    "--max-dim": ["--max-dim", "2"],
    "--field": ["--field", "float"],
    "--rings": ["--rings", "1"],
    "--threads": ["--threads", "2"],
    "--mode": ["--mode", "slice=1.0"],
    "--alpha": ["--alpha", "0.1"],
    "--steps": ["--steps", "3"],
    "--features": ["--features", None],
    "--seed": ["--seed", "1"],
    "--channels": ["--channels", "2"],
}


def _argv(command, flags, c4_csv, square_csv, tmp_path):
    """`command` on c4 (or the unit square, for --format points) writing under tmp_path."""
    features = write(tmp_path / "f.json", json.dumps(C4_FEATURES))
    data = square_csv if "points" in flags else c4_csv
    flags = [features if f is None else f for f in flags]
    return [command, "--input", data, *flags, "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, row in ROWS.items() for f in row if f in VALID]
)
def test_each_command_reads_its_row(command, flag, c4_csv, square_csv, tmp_path):
    assert main(_argv(command, VALID[flag], c4_csv, square_csv, tmp_path)) == 0


@pytest.mark.parametrize("command", list(ROWS))
def test_help_lists_the_row(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(listed) == sorted(ROWS[command])


# each flag some command no longer accepts, alone with a valid value
DROPPED = {"--field": ["--field", "float"], "--eps": ["--eps", "1e-6"], "--rings": ["--rings", "1"],
           "--threads": ["--threads", "2"], "--mode": ["--mode", "slice=1.0"]}
UNREAD = [(c, flags, f) for c, row in ROWS.items() for f, flags in DROPPED.items() if f not in row]
CONDITIONAL = [
    ("persistence", ["--knn", "6"], "--knn"),
    ("persistence", ["--format", "filtration", "--knn", "6"], "--knn"),
    ("filtration", ["--metric", "manhattan"], "--metric"),
    ("verify", ["--format", "edges", "--metric", "euclidean"], "--metric"),
    ("diffuse", ["--features", None, "--seed", "1"], "--seed"),
    ("diffuse", ["--features", None, "--channels", "2"], "--channels"),
    ("diffuse", ["--mode", "weighted"], "--mode"),
]


@pytest.mark.parametrize("command, flags, flag", UNREAD + CONDITIONAL)
def test_unread_flag_is_config_error(command, flags, flag, c4_csv, square_csv, tmp_path, capsys):
    """Each slot dropped from the flag table, and each flag outside the one
    configuration that reads it, exits 2 naming the flag and writes nothing."""
    assert main(_argv(command, flags, c4_csv, square_csv, tmp_path)) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("persistence", ["--format", "bogus"], "--format"),
        ("persistence", ["--max-order", "abc"], "--max-order"),
        ("persistence", ["--max", "2"], "--max"),  # once an ambiguous abbreviation
        ("persistence", ["--max-o", "2"], "--max-o"),  # once read as --max-order
        (None, [], "command"),
    ],
)
def test_parser_error_is_config_error(command, flags, named, c4_csv, square_csv, tmp_path, capsys):
    """A value the parser refuses, a flag abbreviation and a missing command
    each return 2 naming it, instead of exiting or being read as a full flag."""
    argv = _argv(command, flags, c4_csv, square_csv, tmp_path) if command else []
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("flag", ["--format", "--metric", "--knn", "--max-order", "--max-dim"])
def test_verify_graph_flag_needs_input(flag, tmp_path, capsys):
    """Without --input, verify runs the golden fixtures at their own depths,
    so it reads no graph flag; each exits 2 naming the first flag given."""
    out = tmp_path / "out.json"
    assert main(["verify", *VALID[flag], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert VALID[flag][0] in err and "--input" in err
    assert not out.exists()
