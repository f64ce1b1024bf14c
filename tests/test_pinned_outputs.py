"""Every CLI command run once at small n, its output files pinned by sha256.

The pins make byte identity a check: a change that moves the last bits
of an output on purpose updates the pin and names the file in
CHANGES.md. They were recorded with numpy 2.4.6 on x86-64 Linux;
another numpy or libm may move last bits, and then the pins need
recording again: ``PYTHONPATH=src python tests/test_pinned_outputs.py``
prints a fresh table, to be run at a commit whose bytes are trusted.

Commands run from a temporary working directory with relative paths,
because each manifest records its input paths as given.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from visage.cli import main

_COVARIATES = "fad:normal:0:6;sex:bernoulli:0.5;chrono_age:uniform:40:80"

COMMANDS = (
    ("simulate", "--out", "sim", "--seed", "3", "--n", "300",
     "--beta", "0.05,0.3,0.02", "--covariates", _COVARIATES, "--censor", "uniform:1500",
     "--embedding-dim", "8", "--embedding-weights", "0.3,-0.3,0.2,0,0,0,0,0"),
    ("train", "--cohort", "sim/cohort.csv", "--out", "train", "--seed", "4", "--epochs", "2"),
    ("train", "--cohort", "sim/cohort.csv", "--out", "train_age", "--seed", "4", "--epochs", "2",
     "--target", "age"),
    ("train", "--cohort", "sim/cohort.csv", "--out", "train_hinge", "--seed", "4", "--epochs", "2",
     "--hidden", "4", "--pair-loss", "hinge"),
    ("train", "--cohort", "sim/cohort.csv", "--out", "train_b2_s0", "--seed", "4", "--epochs", "2",
     "--batch-size", "2", "--smooth-lambda", "0"),
    ("train", "--cohort", "sim/cohort.csv", "--out", "train_b2", "--seed", "4", "--epochs", "2",
     "--batch-size", "2"),
    ("metrics", "--cohort", "sim/cohort.csv", "--out", "metrics", "--marker", "fad"),
    ("cox", "--cohort", "sim/cohort.csv", "--out", "cox", "--biomarker", "fad:per:10",
     "--adjusters", "sex:cat:female,chrono_age:per:10", "--screen"),
    ("km", "--cohort", "sim/cohort.csv", "--out", "km", "--group-by", "fad_bands"),
    ("balance", "--cohort", "sim/cohort.csv", "--out", "balance", "--target", "20"),
    ("attention", "--out", "att", "--grid", "in/grid7.csv,in/grid112.csv",
     "--mesh", "in/mesh.obj", "--landmarks", "in/landmarks.csv", "--subdivide", "2"),
)

PINS = {
    "att/attention.obj": "8d66ca073a3a6fc45d0643a1372b482af7ec5791d112ced6add78875e237d548",
    "att/manifest.json": "c9eb8835c930414b367dde3ff3ebd4e92f0b44449a87a4c4532ef1ca1c3d4e6f",
    "att/triangle_scores.csv": "76542518dd9a80ec1e5dedb672fc28a167ca4eebbd5b687e3564bbe1a5f643ed",
    "balance/counts.json": "1f51db8693a4c85f6074d000a7c74159da3f89e1761388639fe2f027e4ff79e0",
    "balance/indices.csv": "534cf156e9f93429a2e16d5bf8634346bfaa6f8edb552380268eb1539f1d1b1b",
    "balance/manifest.json": "e6849aa44a9190a8ef9c53d7a2db70b2e6a2eb64b4e5e2d8f7331e2d977be466",
    "cox/fit.json": "a85f1c2be01c346100f69ab032dd44a23aae87842ed85a3e502be1d32bbc4bc4",
    "cox/manifest.json": "eeb470890a6198c6280b1aaea46589244f345d70adafe3e910142010b4e58f57",
    "cox/table.csv": "e651bafa72a62fa7b295045eb0721975f4c2412c6c153861348aabf9f2387f27",
    "km/km_-10_to_-5.csv": "aa93966bbc48ce5d621e86b740963a3dd60a361eabcec5add200668f7b72b5c5",
    "km/km_-5_to_0.csv": "72e10f2e2b742b320eeb5fc1dcf7e057a6e3da989b5538805e2155769e0598f4",
    "km/km_0_to_5.csv": "7b0a190f55d3554d1585fd1cfd7c0b20f970c8c06bb8bab081e71cc3922d32d6",
    "km/km_10_to_20.csv": "aa77425e71efc15db634c543c6384d06e1ac514e6d4398d180ac9e0d19eca517",
    "km/km_5_to_10.csv": "4a20e9c38ec6082f4e44466ebfb4720bc973e17c8ca24c285d6d09ae9f5d101d",
    "km/km_lt-10.csv": "1ae965115a91af6e4b739a882dd662d743d479bd78876e2c55d648a6add26d83",
    "km/manifest.json": "90ae40ce9225134aef816544300ae582d96b7fcffe27539206ccdbb7e71b271b",
    "km/results.json": "15aad8d2b6a88bc053c0e699386835c6635a4b75bb4232bc8f7560814c14626b",
    "km/strata.csv": "574ad4df44e6fb130bf4d4df81e91efbac49a9216d852ecd774b1a7b474a23e0",
    "metrics/manifest.json": "4a5b00a075be41e9ff797d737f4053f0ee46d9903736f5b92ca0ee2b1c4eae1b",
    "metrics/metrics.json": "47dbe0f3238182414cb6639c78b65f667e8eb614cf44447b8c54c090641f3a33",
    "sim/cohort.csv": "1ca796c51b13ae0ac1a59fb49a3c0342b0e7267b17db291d93acfe3ad85da95b",
    "sim/manifest.json": "80c886250e1f78fc26dc94522533a2dd91d3e35a736ccab29acd04fab204e211",
    "sim/truth.json": "ea265c6dde36ae8af2c79eb4a68a756bf54d3564bb80a4f52bcdd0f5a18dff1e",
    "train/checkpoints/epoch_001.bin": "f114832713aaf8acffe34fd001c92030d5f64484f856bd02be3f9ff6823aaf32",
    "train/checkpoints/epoch_002.bin": "69bad8be2de8cdf968af8b242e812a271dc4dfab1e16efabebdf4e717337cd8d",
    "train/manifest.json": "cecca1dd2ff24d06d164d55925f5df8b9fbda86fdf9d0643024c4bd8a827d8fa",
    "train/model.bin": "69bad8be2de8cdf968af8b242e812a271dc4dfab1e16efabebdf4e717337cd8d",
    "train/summary.json": "2c900d04fdc42b99ce0eaec7891413f3cb74552fa14fe53faf090ffd486d0d7c",
    "train/trace.csv": "9ba7e28b9bbd3af88f72669d9e0d6b288fced4582d8953a86ec1e7f04da0c38c",
    "train_age/checkpoints/epoch_001.bin": "f5ec74bad3d1bdeb65f83cc3758919cc892358638b2e4b5a596963d14d1e0305",
    "train_age/checkpoints/epoch_002.bin": "4fd314ca76071901ed777be295e6eeec9c2c60337640fd972ffc9b4d0cc13797",
    "train_age/manifest.json": "825032e09d8f3af5a573d7ebbf90616b3cfdbb1151696d01fa6e9a1f5b4ff12a",
    "train_age/model.bin": "4fd314ca76071901ed777be295e6eeec9c2c60337640fd972ffc9b4d0cc13797",
    "train_age/summary.json": "77507af6828c10aeb5e26fcd6a631d19ffb0667c2aa6a35f3c456ecf8725a735",
    "train_age/trace.csv": "7177e38ced2636efdad6d136d4c30660c1c1a74e7af9249f357ee5ba0ad36a2d",
    "train_b2/checkpoints/epoch_001.bin": "3f84fc5825839cdb1fa904c983300d49d4071807a7a0252df4dd61ba561509ea",
    "train_b2/checkpoints/epoch_002.bin": "50e9db11d9625b7177d13d2cc78e0db2a63d4d9e1d9a9d8880c66a1302611f9e",
    "train_b2/manifest.json": "4541191472b3903d8c104afebe5223de49430067a8ab8257c8995adea8edc90b",
    "train_b2/model.bin": "50e9db11d9625b7177d13d2cc78e0db2a63d4d9e1d9a9d8880c66a1302611f9e",
    "train_b2/summary.json": "1588c049cbce439244ce68dea50f5622070ee6a62f82b2a02613f32cb184ff69",
    "train_b2/trace.csv": "ef88cc335f60fc382cf1d60509640e5d897d2f011db67547c2293897925a919f",
    "train_b2_s0/checkpoints/epoch_001.bin": "27a06ec0b8db426084bf013658cdb5eb18a35de283732eaeaa16c41fa33b505c",
    "train_b2_s0/checkpoints/epoch_002.bin": "21bfc66726c0da7e74fecc03919d9a3834d514512a4b575b94c3bb171f8d7806",
    "train_b2_s0/manifest.json": "e166d548a0a48215e1f545142e3dd6754b94f4b293c37e325bcd2b10625a073e",
    "train_b2_s0/model.bin": "21bfc66726c0da7e74fecc03919d9a3834d514512a4b575b94c3bb171f8d7806",
    "train_b2_s0/summary.json": "378fe266e81ca85de5818733306628c608a4441dc09172aec4d9957d1b4e6aa3",
    "train_b2_s0/trace.csv": "98b6fd3966eb05d8169b8731d58876b3a4d8ee6995cc028e65ced92144edcf80",
    "train_hinge/checkpoints/epoch_001.bin": "2ffeae2b20f9c2a57dc6f2c60f85d4752ca6b47e3d430bf897532c9ec25c888c",
    "train_hinge/checkpoints/epoch_002.bin": "853106ad1d3ffc32d7cb21daded1c3d3aa76f592f0af7395a47233874b484fb1",
    "train_hinge/manifest.json": "616bf54674dc3ca92224a765767f2c4c1b3aa78af374c6099190164bb9505bc8",
    "train_hinge/model.bin": "853106ad1d3ffc32d7cb21daded1c3d3aa76f592f0af7395a47233874b484fb1",
    "train_hinge/summary.json": "a24a4333814a12e4063e9ffc05459160635105ed46db260b090bc132785b272f",
    "train_hinge/trace.csv": "892fd8bbc96607028f4d94b39aefe634ab5f395c5045f8ec21ea01c2892be443",
}


def _write_geometry(root: Path) -> None:
    """A 4 x 4 lattice mesh over the image frame, a 7 x 7 and a 112 x 112 grid."""
    inputs = root / "in"
    inputs.mkdir()
    k = 4
    ii, jj = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    # Off-lattice offsets keep pixel centres off triangle edges.
    x = (10.0 + 23.0 * jj + 0.37 * ii).ravel().tolist()
    y = (10.0 + 23.0 * ii + 0.29 * jj).ravel().tolist()
    faces = []
    for i in range(k):
        for j in range(k):
            a = i * (k + 1) + j
            faces += [(a, a + 1, a + k + 2), (a, a + k + 2, a + k + 1)]
    (inputs / "mesh.obj").write_text(
        "".join(f"v {px / 112!r} {py / 112!r} 0.0\n" for px, py in zip(x, y))
        + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces)
    )
    (inputs / "landmarks.csv").write_text(
        "".join(f"{i},{px!r},{py!r}\n" for i, (px, py) in enumerate(zip(x, y)))
    )
    for size in (7, 112):
        r, c = np.mgrid[0:size, 0:size] / size
        grid = 0.5 + 0.5 * np.sin(3.0 * r) * np.cos(2.0 * c)
        (inputs / f"grid{size}.csv").write_text(
            "".join(",".join(map(repr, row.tolist())) + "\n" for row in grid)
        )


def run_all(root: Path) -> dict[str, str]:
    """Run every command in ``root``; relative path -> sha256 of each output file."""
    _write_geometry(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in COMMANDS:
            assert main(list(argv)) == 0, argv
    finally:
        os.chdir(cwd)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.parts[len(root.parts)] != "in"
    }


def record() -> None:
    """Print a fresh PINS table for this file."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    print("PINS = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")


def test_outputs_pinned(tmp_path):
    digests = run_all(tmp_path)
    assert digests == PINS


if __name__ == "__main__":
    record()
