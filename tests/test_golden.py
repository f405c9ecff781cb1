"""Golden CSV bytes: training and count-curve output pinned by sha256.

Every variant x sampler trains on pointmass2d with small nets, plus two runs
at the desk network size (hidden 64, batch 256): pointmass1d sop/ere, and
pointmass2d sop_ig/per for the 2-wide policy output.  One more small run,
sop/ere on boundarylure, pins the environment of the ablation criterion.  The pinned hashes were
captured before the network engine moved to reused activation buffers, flat
parameter vectors and caller-owned gradient buffers; a change that alters any
training arithmetic changes a hash.  The four ``analyze counts`` schemes are pinned
the same way at a small size.  To re-pin after an intended change, run this
file as a script: it prints both tables.
"""

import hashlib
import os
import sys

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

COUNTS_ARGV = ["--buffer", "300", "--updates", "200", "--trials", "500", "--seed", "1"]

COUNTS_GOLDEN = {
    "ere_empty": "b8321d1b46137d0573ca020155b0c48500e439138a4b5910cc5cb74e6058326d",
    "ere_full": "4ab47265a2148b83c8323ac3c799d6274c96ac7761b74188bc4b16a042d622eb",
    "uniform_empty": "d07a1f5cc39b40b43003498fd0f2108acd137da4c080ee381015e4b9572349b9",
    "uniform_full": "caaf7ed8f8548408b43825fd48e27e8a3ee2bfab03e40eb80c7883b25c70efdc",
}


def csv_sha256(overrides: dict, out) -> str:
    """sha256 over every CSV the run writes, in name order, name included."""
    run_experiment(parse_config({**overrides, "out": str(out)}))
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_golden(name, tmp_path):
    assert csv_sha256(CONFIGS[name], tmp_path / "out") == GOLDEN[name]


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
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            sys.stdout.write(f'    "{name}": "{csv_sha256(CONFIGS[name], Path(tmp) / name)}",\n')
        for scheme in sorted(SCHEMES):
            counts_csv(scheme, Path(tmp) / f"{scheme}.csv")
            digest = hashlib.sha256((Path(tmp) / f"{scheme}.csv").read_bytes()).hexdigest()
            sys.stdout.write(f'    "{scheme}": "{digest}",\n')
