"""Every result file of the CLI runs below, pinned to the bit by its SHA-256.

The runs are the seven commands of acceptance criterion 11, solve-ma with
the manufactured forcing on the glued and the cylinder model (the latter
with --plot, for its SVG), and spectrum under the negation (order 2) and
hexagonal rotation (order 3) quotients.  Each runs in process through
cli.run.  manifest.json records wall time and the output path, so it is
exempt, as in criterion 11.

The digests come from one build of libm and LAPACK (NumPy 2.4.6 and
SciPy 1.17.1 on x86-64 Linux), as do those of test_glue_bytes_pinned,
test_spectrum_csv_bytes_pinned and the weights.csv pins: another build may
round differently and change them.  A change that moves output bytes on
purpose updates this table and names the files it moved.
"""

import hashlib
import os

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton.cli import run
from conftest import strict_json

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                       "F_manufactured_cigar.csv")

# run -> (arguments, config file text or None); "field.csv" is the input
# field of criterion 11, written next to the run directories
RUNS = {
    "spectrum": (["spectrum"], None),
    "weights": (["weights", "--window", "0", "2"], None),
    "solve_linear": (["solve-linear", "--model", "cigar", "--mu", "0", "--rhs", "field.csv"],
                     None),
    "solve_ma": (["solve-ma", "--model", "cigar", "--n", "2", "--rhs", FIXTURE], None),
    "glue": (["glue", "--inner", "cigar", "--t0", "3", "--margin", "0.01"], None),
    "verify": (["verify", "--model", "cigar", "--decay", "field.csv"], None),
    "report": (["report"], None),
    "solve_ma_glued": (["solve-ma", "--model", "glued", "--rhs", "manufactured"], None),
    "solve_ma_cylinder": (["solve-ma", "--model", "cylinder", "--rhs", "manufactured", "--plot"],
                          None),
    "spectrum_quotient_2": (["spectrum"], "cross_section.quotient = 2\n"),
    "spectrum_quotient_3": (["spectrum"], "cross_section.lattice = hexagonal\n"
                                          "cross_section.quotient = 3\n"),
}

DIGESTS = {
    "spectrum/spectrum.csv":
        "9ebfae6cc69e37131fad70863047c8e008e8f3d694d2474ef17ffb0a453582c4",
    "weights/weights.csv":
        "260a1e8db8f0cbfeecd174fbc712c9e147c368d4f66a0459bc216330ce142c5c",
    "solve_linear/diagnostics.json":
        "efe03970ea0edb7301cee1525383139fa2f7979d8022906e2a0d86746828bea9",
    "solve_linear/solution.csv":
        "ebf2347ea34da129b4ba7dcb9f3627f1a6dda1217b9641ec7ef4a17576608275",
    "solve_ma/path.json":
        "1f3a26137ecee684f72c3fd36ea1a94dc630c1d943a25bb038d294bab4b32c55",
    "solve_ma/phi.csv":
        "10a1de134df89f0db3dbf66cee8e8bd50f88029d9accd0bed56b01a7d19196e4",
    "glue/coefficient.csv":
        "ac39289682a0b725ea326f9114d632c205c9acfb3bc2f82e19c5213de3dedacb",
    "glue/model.txt":
        "d28e78e0487644fded5c6638aa2bedc877275e0d0e00f562c9f639ab16ae648f",
    "verify/decay.csv":
        "fd01c58a88855c7446f5bd4b3138e59c0e8dd14a51067851ad7cd6adba730146",
    "verify/poincare.json":
        "d7384840b11b2cdb8e26e58b53e49a038bf21305a254c25982576d417583555b",
    "report/report.json":
        "a0ec3fcbc40570b4183c048b396e507618742e290e331afa6a76221e147d605b",
    "solve_ma_glued/path.json":
        "b245e29ef6173bbdceca77755a159ecdbdc9c4f1ec5013cf7810b2bf6e317095",
    "solve_ma_glued/phi.csv":
        "3b48a352dc5bcc96304f6044318ccd7cecd4f228d9fd66da285e4bbc92b49172",
    "solve_ma_cylinder/path.json":
        "5782ccd56b4d2ad9c26e4896d39f8a5cd8863bea13a3c5045802934a4dafe740",
    "solve_ma_cylinder/phi.csv":
        "704c878f23e83193b22f69fd31e718865d69f18a2798d5807c9149b3fdaeaeec",
    "solve_ma_cylinder/phi.svg":
        "ae6182d0ad3a183450aa382eacb1affb59864baa5d85852a217582eebba2f1e6",
    "spectrum_quotient_2/invariant_spectrum.csv":
        "cd78d1b3bd2f23ec26f5d4a9a9402ae53af0263fc204c8b133b30e40052a65ca",
    "spectrum_quotient_2/spectrum.csv":
        "9ebfae6cc69e37131fad70863047c8e008e8f3d694d2474ef17ffb0a453582c4",
    "spectrum_quotient_3/invariant_spectrum.csv":
        "d68677184354df0e2c1bead700a7e82008f03d1c0f90cff5277dc9d4d29d179d",
    "spectrum_quotient_3/spectrum.csv":
        "2b6a63599f99705f499a0e072d2e5eb4b0e2809d2aac8fc2fca6fd0310566fd5",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """run -> its output directory, every run made once."""
    root = tmp_path_factory.mktemp("outputs")
    field = ak.GridFunction.sample(
        lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4, -12.0, 20.0, 0.01)
    field.to_csv(root / "field.csv")
    dirs = {}
    for name, (args, config) in RUNS.items():
        args = [str(root / arg) if arg == "field.csv" else arg for arg in args]
        if config is not None:
            (root / f"{name}.cfg").write_text(config)
            args += ["--config", str(root / f"{name}.cfg")]
        dirs[name] = root / name
        assert run(args + ["--output", str(dirs[name])]) == 0, name
    return dirs


def test_every_output_is_pinned(outputs):
    written = {f"{name}/{file}" for name, path in outputs.items()
               for file in os.listdir(path) if file != "manifest.json"}
    assert written == set(DIGESTS)


@pytest.mark.parametrize("output", sorted(DIGESTS))
def test_output_bytes_pinned(outputs, output):
    name, file = output.split("/")
    digest = hashlib.sha256((outputs[name] / file).read_bytes()).hexdigest()
    assert digest == DIGESTS[output]


def test_every_json_output_is_strict(outputs):
    """Every JSON file of the runs, manifest.json included, parses with the
    non-standard constants NaN and Infinity refused."""
    files = [path / file for path in outputs.values() for file in os.listdir(path)
             if file.endswith(".json")]
    assert len(files) == len(outputs) + 6  # a manifest per run, and six result files
    for file in files:
        strict_json(file)
