"""Golden outputs: every output file of the three training tracks, of the
equivalence experiment and of ``train --dump-bqm``, made through the CLI at
fixed seeds on the conftest 6x6 split, and the raw reads of each sampler at
fixed fields and seeds, against ``tests/golden/``.

``digests.json`` holds a SHA-256 of each file's bytes and of its text with
every number masked, a SHA-256 of each sampler's reads, plus the
fingerprint of the numpy that made them:
float64 GEMM bits depend on the kernel OpenBLAS picks for the CPU, and
float32 ``exp`` on numpy's SIMD dispatch. ``values.json`` holds each file's
numbers in order. Under the recorded fingerprint the bytes must match. Under
another one the byte checks are skipped, naming what differs, and each file
must still match its masked text exactly and its numbers within
VALUE_RTOL and VALUE_ATOL (reads are bits, with no tolerance to apply).

The runs take place in a temporary working directory with relative
``data_dir`` and ``output_dir``, because ``summary.json`` records both.
After a change that moves output bytes on purpose, regenerate with

    PYTHONPATH=src python -m pytest tests/test_golden.py --regenerate-golden

and the diff of ``digests.json`` names the files that moved.
"""

import hashlib
import json
import platform
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from ebmlp.cli import main
from ebmlp.models import Model
from ebmlp.samplers import make_sampler, SamplerConfig

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
VALUES = GOLDEN / "values.json"

# Under another BLAS kernel or SIMD dispatch the products differ in their
# last bits, and a few training steps carry that forward, but no further
# than this.
VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-9

COMMON = ["--data_dir", "data", "--seed", "3", "--trials", "2", "--n_hidden", "8"]
RUNS = {
    "classical1": ["train", "--track", "classical1"],
    "classical2": ["train", "--track", "classical2"],
    "quantum-sim": ["train", "--track", "quantum-sim", "--anneal_sweeps", "20", "--reads", "100", "--dump-bqm"],
    "equivalence": ["equivalence"],
}

# Each sampler's raw reads (sample_batch) for three inputs of a seeded
# 6-3-2 model: 200 reads from seed 11, after 20 burn-in sweeps for Gibbs and
# along 30 anneal sweeps for simanneal.
SAMPLER_CONFIG = SamplerConfig(reads=200, burn_in=20, anneal_sweeps=30, seed=11)
SAMPLERS = ("exact", "gibbs", "simanneal")

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|-?\b(?:inf|nan)\b")


def fingerprint():
    """What the output bits depend on besides the code: the numpy version,
    its BLAS, the SIMD extensions its dispatch found, and the machine."""
    found = {"numpy": np.__version__, "machine": platform.machine()}
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its configuration only
        return found
    blas = config["Build Dependencies"]["blas"]
    found["blas"] = f"{blas['name']} {blas['version']}"
    found["simd"] = " ".join(config["SIMD Extensions"]["found"])
    return found


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def masked(data):
    """(the text with each number replaced by '#', the numbers in order)."""
    text = data.decode()
    return _NUMBER.sub("#", text), [float(n) for n in _NUMBER.findall(text)]


@pytest.fixture(scope="module")
def outputs(synthetic_split_dir, tmp_path_factory):
    """{path relative to the working directory: bytes} of every output file."""
    work = tmp_path_factory.mktemp("golden")
    shutil.copytree(synthetic_split_dir, work / "data")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for name, argv in RUNS.items():
            assert main([*argv, *COMMON, "--output_dir", name]) == 0, name
    return {
        path.relative_to(work).as_posix(): path.read_bytes()
        for name in RUNS
        for path in sorted((work / name).iterdir())
    }


@pytest.fixture(scope="module")
def sampler_reads():
    """{sampler name: its raw reads} at SAMPLER_CONFIG."""
    rng = np.random.default_rng(2024)
    model = Model(rng.normal(0.0, 1.0, (3, 6)), rng.normal(0.0, 1.0, (2, 3)), rng.normal(0.0, 0.5, 3), rng.normal(0.0, 0.5, 2))
    xs = rng.random((3, 6))
    return {name: make_sampler(name, SAMPLER_CONFIG).sample_batch(model, xs) for name in SAMPLERS}


@pytest.fixture(scope="module")
def golden(outputs, sampler_reads, request):
    if request.config.getoption("--regenerate-golden"):
        files = {}
        for name, data in outputs.items():
            text, _ = masked(data)
            files[name] = {"sha256": sha256(data), "masked_sha256": sha256(text.encode())}
        reads = {name: sha256(raw.tobytes()) for name, raw in sampler_reads.items()}
        GOLDEN.mkdir(exist_ok=True)
        digests = {"fingerprint": fingerprint(), "files": files, "sampler_reads": reads}
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        # one line per file, so a diff names the files whose numbers moved
        rows = (f"{json.dumps(name)}: {json.dumps(masked(data)[1])}" for name, data in sorted(outputs.items()))
        VALUES.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return json.loads(DIGESTS.read_text()), json.loads(VALUES.read_text())


def test_the_same_files_are_written(outputs, golden):
    digests, _ = golden
    assert sorted(outputs) == sorted(digests["files"])


def skip_unless_fingerprint_matches(digests, what):
    recorded, here = digests["fingerprint"], fingerprint()
    if here != recorded:
        differ = {key: (recorded.get(key), here.get(key)) for key in sorted(set(recorded) | set(here)) if recorded.get(key) != here.get(key)}
        pytest.skip(f"{what} unchecked: numpy fingerprint differs from the digests' (recorded, here): {differ}")


def test_output_bytes_match_the_digests(outputs, golden):
    digests, _ = golden
    skip_unless_fingerprint_matches(digests, "output bytes")
    moved = [name for name, data in sorted(outputs.items()) if sha256(data) != digests["files"].get(name, {}).get("sha256")]
    assert moved == [], f"output bytes moved: {moved}"


def test_sampler_reads_match_the_digests(sampler_reads, golden):
    digests, _ = golden
    for name, raw in sampler_reads.items():
        assert raw.dtype == np.uint8 and raw.shape == (3, SAMPLER_CONFIG.reads, 5), name
    assert sorted(sampler_reads) == sorted(digests["sampler_reads"])
    skip_unless_fingerprint_matches(digests, "sampler reads")
    moved = [name for name, raw in sorted(sampler_reads.items()) if sha256(raw.tobytes()) != digests["sampler_reads"][name]]
    assert moved == [], f"sampler reads moved: {moved}"


def test_output_values_match_within_tolerance(outputs, golden):
    digests, values = golden
    for name, data in sorted(outputs.items()):
        text, numbers = masked(data)
        assert sha256(text.encode()) == digests["files"][name]["masked_sha256"], name
        np.testing.assert_allclose(numbers, values[name], rtol=VALUE_RTOL, atol=VALUE_ATOL, err_msg=name)
