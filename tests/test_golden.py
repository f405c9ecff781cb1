"""Golden CSV bytes: training and count-curve output pinned by sha256.

Every variant x sampler trains on pointmass2d with small nets, plus two runs
at the desk network size (hidden 64, batch 256): pointmass1d sop/ere, and
pointmass2d sop_ig/per for the 2-wide policy output.  One more small run,
sop/ere on boundarylure, pins the environment of the ablation criterion.  The pinned hashes were
captured before the network engine moved to reused activation buffers, flat
parameter vectors and caller-owned gradient buffers; a change that alters any
training arithmetic changes a hash.  The four ``analyze counts`` schemes are pinned
the same way at a small size.  To re-pin after an intended change, run this
file as a script: it prints the training table of the kernel it runs
under, then the count table.

OpenBLAS kernels round the network products differently, at about 1e-16
relative, and each changes every training hash, so there is one training
table per kernel, chosen by the kernel numpy loaded (``blas_kernel``).
``GOLDEN`` was captured under SkylakeX (the scipy-openblas that numpy 2.4
loads picks it on AVX-512 CPUs), ``GOLDEN_HASWELL`` under Haswell (most
AVX2 CPUs), ``GOLDEN_SANDYBRIDGE`` under Sandybridge (AVX), and
``GOLDEN_KATMAI`` under the kernel that ``OPENBLAS_CORETYPE=Prescott`` loads
and OpenBLAS names Katmai.  To add the table of another kernel, which is not
a re-pin, run ``OPENBLAS_CORETYPE=<kernel> PYTHONPATH=src python
tests/test_golden.py``.
The count curves make no matmul.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import pytest

from soprl.agent import SAMPLERS, VARIANTS
from soprl.cli import SCHEMES, main
from soprl.harness import parse_config, run_experiment

SMALL = {"env": "pointmass2d", "steps": 300, "eval_interval": 150, "eval_rollouts": 2,
         "seeds": (1,), "buffer": 2000, "batch": 16, "warmup": 100, "hidden": 8,
         "lr": 0.01}
DESK = {"env": "pointmass1d", "variant": "sop", "sampler": "ere", "steps": 400,
        "eval_interval": 200, "eval_rollouts": 2, "seeds": (1,), "buffer": 20_000,
        "batch": 256, "warmup": 300, "hidden": 64}

CONFIGS = {f"{v}-{s}": {**SMALL, "variant": v, "sampler": s}
           for v in VARIANTS for s in SAMPLERS}
CONFIGS["desk-sop-ere"] = DESK
CONFIGS["desk-sop_ig-per"] = {**DESK, "env": "pointmass2d", "variant": "sop_ig",
                              "sampler": "per"}
CONFIGS["lure-sop-ere"] = {**SMALL, "env": "boundarylure", "variant": "sop", "sampler": "ere"}

GOLDEN = {
    "desk-sop-ere": "0f5d1d983d4fc1d759b5d36a59be6804fb867117b769169b3d2796031d0d0f0e",
    "desk-sop_ig-per": "816a526076ab69dee65ee12a00b9b1988192c7569612481768bb29f22cacd630",
    "lure-sop-ere": "e412adeb5a3bac0c9028719db5c0946615c688b3688b668dbcfbafd26da08a63",
    "no_norm-ere": "5187d43b9a8bac7ff4112d77cd3459efa58f43ed64ad11b89372e1a0692e8b8c",
    "no_norm-exp": "0a57c9bdeecb25985b5d6ec29a954bf6c00ac196c04f0d091c4c650db059e154",
    "no_norm-per": "41290a0033ae3b6c6ba2eb9c699fee7ac34fcb65f888f8911aac3f8a6bb5880a",
    "no_norm-uniform": "fbd9668fde65d91b9fc32ddfedca787f68319be7fe2534e18cb8feea4ebb8ea3",
    "no_smoothing-ere": "5a5c1c839f27b8d839a563d72f6c10733da660654a0f024c610c5dfb260b07cb",
    "no_smoothing-exp": "deba3e82d1411369f584698412847fec4dfa166aa1c215b0fbe15f048a8b8811",
    "no_smoothing-per": "881360e12a8f01c0e7ba3575df0e63c8574cb8da248a7fa8c2387c47064f6c79",
    "no_smoothing-uniform": "15def7aa5255ad35fd0e88100a85f244634139409d7846db2af293172c9decba",
    "single_q-ere": "7c544c5aa11f32a00f1738f91fc5fd5fe135ccecfac9e67e6d008fe4c825af8f",
    "single_q-exp": "e528fbdb5b687ebf94e2b0f7b5a9318804acec0249d2eb276df8915aaa498a33",
    "single_q-per": "e567a451af9e3a1f68d5f02d0db413c0b8eb998be4ea16443e195256f8f3da5c",
    "single_q-uniform": "97cc6354a3f686db503de44965b4c175f3e4470b8077f028eaad53c35f359137",
    "sop-ere": "7c8206672270d593941c0ad4d61ab8e787721905af8b434fa5d55a2b52c2f716",
    "sop-exp": "62ce32f2295c3a7bdc811042d3c7cbe55c422c6bc5e32af2e61def03343ec84a",
    "sop-per": "38971d50b562d5a24139b1dd10f745e45c88dcd7bc40ced7048e4ff0c8966335",
    "sop-uniform": "455dffd248b49af1c10bc123c789ed3cdc838549892ea3ce79747291eb7a3660",
    "sop_ig-ere": "02f77ad4b6295c7f081c33868d5f43177ae1a982ee9a6997e498ca798a4ee8ae",
    "sop_ig-exp": "43e2b05cec363b1f578651550d206802b89dbca020432485c74ab62e91e9b28d",
    "sop_ig-per": "312aeb4684c1701273054fad320ad5120ca7edc42d9e1ec3f46c018712cf84a2",
    "sop_ig-uniform": "ffe1ec59069151be58f6b9be63ebeba34172c078584efc4e56b47f38942385a3",
}

GOLDEN_HASWELL = {
    "desk-sop-ere": "51af07f1b837163bff409ca334da57f2e07b1a73046ab8ba713a60dc5a025028",
    "desk-sop_ig-per": "1c3ef4c26e1d594d685cab9b1d3cf1b28e654ff6047b592e6bf7fd259f9f8540",
    "lure-sop-ere": "d0b3656633566bdb1032704403c0c27cb37d8c9aa887064fce2b3b7d2836f0de",
    "no_norm-ere": "963108640de0d15183fc4d15644075c4d7213e19f686f0f4fb07711fc0779650",
    "no_norm-exp": "62946c6b8f995ddc3e5f379e21c301d18aaebc84cdccfdded0e2fa692d020f9d",
    "no_norm-per": "c72bddf9b5af478e6cf0cb761183cbbe9f02fbdf0e98d28afc8280811b53b27c",
    "no_norm-uniform": "8d3a8748293e20a8e09d2e349ae2b51a859e895252d8aba85f62feeb85f6bd48",
    "no_smoothing-ere": "c588022b7db85481d819c732ba277d70ee123511ffd123b4f3b8f50abb20e4c2",
    "no_smoothing-exp": "aa59e0984b6a93fed46e1cc304d89cb00a7df83796cea19f062b0ea15625579b",
    "no_smoothing-per": "bf89db676122d580754808111c8b4e34926b083e65710d08a4dcbe836083a3fa",
    "no_smoothing-uniform": "87371367d6bbbf0a4e76dd3f24fd9a9dd59dc5c842aa6ca944eaff99ebfb9732",
    "single_q-ere": "214040e8db1e7a56bac3014ab02561e89467d64a70e460d537f46af2d0a99cf1",
    "single_q-exp": "95a94a65827f056d38c613dd730fbb7268968a26506d63082f1feaacc97efd63",
    "single_q-per": "fe4a03a922316c4efc45f2e288dede830992cb92d927dcc7bdea5cd480942f7c",
    "single_q-uniform": "da13d017882cef8ac5cd58fa4910d6c08f650d71698042f50068614baee1a1df",
    "sop-ere": "bf622dc6dc2d293058e7397271173d0e660af79000895c3ea5940f1aca5883ad",
    "sop-exp": "666ccebac91e214df13f5157259259ae323fa089c9830d2d3298ef6ee8b42da0",
    "sop-per": "d15974619e71e2c91ab092a863f7096d28056f165f612a99b920cbae38ca268c",
    "sop-uniform": "534c2432e68dd730a74833938d23e3c2cb9aca1f8fcbb64941538a9485178a8b",
    "sop_ig-ere": "df925307db5bbf357782bed528dfbabfddb7362f27fca624cb2ff1cef51e9aea",
    "sop_ig-exp": "4d91e424e0094a53e2c82a288ed17f3fd13c52bd3d5c6ed7a930a49644f9d552",
    "sop_ig-per": "b1319cbe57358a4fec99376a4319a04705b07bbcdb95134ec78e91f813e37274",
    "sop_ig-uniform": "39555e586fbb9723c9a0ad9f0d20a167ef6f17866feeca044a4c1890b19c6f3e",
}

GOLDEN_SANDYBRIDGE = {
    "desk-sop-ere": "51af07f1b837163bff409ca334da57f2e07b1a73046ab8ba713a60dc5a025028",
    "desk-sop_ig-per": "fa77621853115383cf52421233f9ba9391b8b6d9c40854ca7810d26e4330dd0d",
    "lure-sop-ere": "46ffe481dd4a2edae811a81f16d7415cd99f4e4520c0ec10e9d6c53833f2329d",
    "no_norm-ere": "d3fc14884a6f1fa08c0f1179a05bd17138f01012ecd1e78f2027e10ef1d03b70",
    "no_norm-exp": "42485ab5c8fbdbc9017fac0f9cbb3b8aabde8ff88c374c50e836d740cccae55a",
    "no_norm-per": "bb6e4143f2f3cc797292513c0e101aa26f3eb12f697b6ebb5ca379ea6c2d0fdc",
    "no_norm-uniform": "3a9b9e50e40644c13d6207960d47fc7d775cdf99338d35303dfc47e052f93fed",
    "no_smoothing-ere": "9524d7f7f82608c3401271fd63ba56bbabae4143a0260b54d02d2a003b0b5b54",
    "no_smoothing-exp": "8a3cea2a132f84b8dcbc719e35a655d685066c8881c8139196d5ebb6416acc4f",
    "no_smoothing-per": "12a903827348848994fd4c1542f4d23fcc3da03997f73c2b1eb1fc7960dddad1",
    "no_smoothing-uniform": "abc871ec495d67136ffefcf6884f276f8426cf0d672723ff144034a777261e6e",
    "single_q-ere": "ca1953704328540cfbeb29b722cbe05a0902ead0def6619b7a197bac8aa3334b",
    "single_q-exp": "be460103f99fa2de743a4fd2aa80cca8fb0a291c26f4650a90092d9aebde7ec1",
    "single_q-per": "aca3ba1ded1673309f19dbecbc29e46f20b0aab8f3dd71deba66602845b13234",
    "single_q-uniform": "bea1e49c46a65968e89b2f0d0e8d4a1277c297106902428d1919b0c487452f68",
    "sop-ere": "aa6e2978213b0daea246125bfb9a96c140fb5132eac1cdb91097f4c16084f12f",
    "sop-exp": "f0593b5fd66d71e0fe5fdd875ffcb95a8c623caf5c1782e4ede68019e206198b",
    "sop-per": "535e97b2f89f80b698635775078b9ae58c08285f8c821d496e4dcd730920c782",
    "sop-uniform": "82c69503ec4bc3a28201ddbf00ea1c008a96df6f6fbf215a1ce85d1f1a751e4f",
    "sop_ig-ere": "63cd2b5d5919a18ded3b2ebc259975e952c407bba4560d4d67156399eaf0b096",
    "sop_ig-exp": "86001a40daabc576023dc68373909fb38ef8ad8f79cf6108141a92317086fe28",
    "sop_ig-per": "39d6d91716544dc01bfdc6017785543885a9b4c3a9f0149b44115c3960b99672",
    "sop_ig-uniform": "e0739672cdaea906e397786fe6d4544ab6d04d0c6e247d73fe63b00a67685962",
}

GOLDEN_KATMAI = {
    "desk-sop-ere": "51af07f1b837163bff409ca334da57f2e07b1a73046ab8ba713a60dc5a025028",
    "desk-sop_ig-per": "fa77621853115383cf52421233f9ba9391b8b6d9c40854ca7810d26e4330dd0d",
    "lure-sop-ere": "e64d7b9b88a1f5e59dc55688d646a69b38ed4ea9dc9f8448c88011614b4d61ce",
    "no_norm-ere": "d3fc14884a6f1fa08c0f1179a05bd17138f01012ecd1e78f2027e10ef1d03b70",
    "no_norm-exp": "42485ab5c8fbdbc9017fac0f9cbb3b8aabde8ff88c374c50e836d740cccae55a",
    "no_norm-per": "bb6e4143f2f3cc797292513c0e101aa26f3eb12f697b6ebb5ca379ea6c2d0fdc",
    "no_norm-uniform": "3a9b9e50e40644c13d6207960d47fc7d775cdf99338d35303dfc47e052f93fed",
    "no_smoothing-ere": "9524d7f7f82608c3401271fd63ba56bbabae4143a0260b54d02d2a003b0b5b54",
    "no_smoothing-exp": "8a3cea2a132f84b8dcbc719e35a655d685066c8881c8139196d5ebb6416acc4f",
    "no_smoothing-per": "12a903827348848994fd4c1542f4d23fcc3da03997f73c2b1eb1fc7960dddad1",
    "no_smoothing-uniform": "abc871ec495d67136ffefcf6884f276f8426cf0d672723ff144034a777261e6e",
    "single_q-ere": "ca1953704328540cfbeb29b722cbe05a0902ead0def6619b7a197bac8aa3334b",
    "single_q-exp": "be460103f99fa2de743a4fd2aa80cca8fb0a291c26f4650a90092d9aebde7ec1",
    "single_q-per": "aca3ba1ded1673309f19dbecbc29e46f20b0aab8f3dd71deba66602845b13234",
    "single_q-uniform": "bea1e49c46a65968e89b2f0d0e8d4a1277c297106902428d1919b0c487452f68",
    "sop-ere": "aa6e2978213b0daea246125bfb9a96c140fb5132eac1cdb91097f4c16084f12f",
    "sop-exp": "f0593b5fd66d71e0fe5fdd875ffcb95a8c623caf5c1782e4ede68019e206198b",
    "sop-per": "535e97b2f89f80b698635775078b9ae58c08285f8c821d496e4dcd730920c782",
    "sop-uniform": "82c69503ec4bc3a28201ddbf00ea1c008a96df6f6fbf215a1ce85d1f1a751e4f",
    "sop_ig-ere": "63cd2b5d5919a18ded3b2ebc259975e952c407bba4560d4d67156399eaf0b096",
    "sop_ig-exp": "86001a40daabc576023dc68373909fb38ef8ad8f79cf6108141a92317086fe28",
    "sop_ig-per": "39d6d91716544dc01bfdc6017785543885a9b4c3a9f0149b44115c3960b99672",
    "sop_ig-uniform": "e0739672cdaea906e397786fe6d4544ab6d04d0c6e247d73fe63b00a67685962",
}

TRAINING_TABLES = {"SkylakeX": GOLDEN, "Haswell": GOLDEN_HASWELL,
                   "Sandybridge": GOLDEN_SANDYBRIDGE, "Katmai": GOLDEN_KATMAI}
CAPTURE = "OPENBLAS_CORETYPE={} PYTHONPATH=src python tests/test_golden.py"

COUNTS_ARGV = ["--buffer", "300", "--updates", "200", "--trials", "500", "--seed", "1"]

COUNTS_GOLDEN = {
    "ere_empty": "b8321d1b46137d0573ca020155b0c48500e439138a4b5910cc5cb74e6058326d",
    "ere_full": "4ab47265a2148b83c8323ac3c799d6274c96ac7761b74188bc4b16a042d622eb",
    "uniform_empty": "d07a1f5cc39b40b43003498fd0f2108acd137da4c080ee381015e4b9572349b9",
    "uniform_full": "caaf7ed8f8548408b43825fd48e27e8a3ee2bfab03e40eb80c7883b25c70efdc",
}


def blas_kernel() -> str:
    """The kernel name of the OpenBLAS that numpy loaded, or ``unknown``."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "libscipy_openblas64_" in line})
    except OSError:
        return "unknown"
    for lib in libs:
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def csv_sha256(overrides: dict, out) -> str:
    """sha256 over every CSV the run writes, in name order, name included."""
    run_experiment(parse_config({**overrides, "out": str(out)}))
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_golden(name, tmp_path):
    kernel = blas_kernel()
    assert kernel in TRAINING_TABLES, (
        f"no golden table for OpenBLAS's {kernel} kernel; capture one with "
        f"`{CAPTURE.format(kernel)}` from a commit whose bytes are known good")
    assert csv_sha256(CONFIGS[name], tmp_path / "out") == TRAINING_TABLES[kernel][name], (
        f"CSV bytes of {name} changed under OpenBLAS's {kernel} kernel")


# OPENBLAS_CORETYPE values whose kernels have a table; forcing Prescott loads
# the kernel that OpenBLAS reports as Katmai
FORCED_CORETYPES = ("Haswell", "Sandybridge", "Prescott")


@pytest.mark.parametrize("coretype", FORCED_CORETYPES)
def test_table_holds_under_a_forced_kernel(coretype):
    """The training goldens, run in a subprocess with the kernel forced, keep
    each table honest on a machine that picks another."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          f"{__file__}::test_csv_bytes_match_golden"],
                         cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert f"{len(CONFIGS)} passed" in run.stdout


def counts_csv(scheme: str, out=None) -> None:
    argv = ["analyze", "counts", "--scheme", scheme, *COUNTS_ARGV]
    assert main([*argv, "--out", str(out)] if out else argv) == 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_counts_csv_bytes_match_golden(scheme, tmp_path, capsys):
    counts_csv(scheme)
    printed = capsys.readouterr().out.encode()
    counts_csv(scheme, tmp_path / "counts.csv")
    assert (tmp_path / "counts.csv").read_bytes() == printed
    assert hashlib.sha256(printed).hexdigest() == COUNTS_GOLDEN[scheme]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        sys.stderr.write(f"training table of OpenBLAS's {blas_kernel()} kernel\n")
        for name in sorted(CONFIGS):
            sys.stdout.write(f'    "{name}": "{csv_sha256(CONFIGS[name], Path(tmp) / name)}",\n')
        for scheme in sorted(SCHEMES):
            counts_csv(scheme, Path(tmp) / f"{scheme}.csv")
            digest = hashlib.sha256((Path(tmp) / f"{scheme}.csv").read_bytes()).hexdigest()
            sys.stdout.write(f'    "{scheme}": "{digest}",\n')
