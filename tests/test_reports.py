"""The bytes of every file the CLI writes, pinned by sha256.

Each command that writes files runs once on a tiny model. Manifests echo the
paths they were given, so the temporary directory is replaced by a fixed
token before they are hashed.
"""

import hashlib

import pytest

from seu_forge.cli import main

TOKEN = b"<tmp>"

# A failed outcome as a campaign records it, for the fault the float sweep
# draws first: the report leaves it out of that (pset, bit)'s mean.
FAILED_RECORD = (
    '{"evaluation_error": "IndexError: element 99999 out of range for p1", '
    '"faulty_bits": 0, "faulty_value": "nan", "magnitude_increased": false, '
    '"mean_error": null, "original_bits": 0, "original_value": "nan", '
    '"per_image_error": [], "produced_inf": false, "produced_nan": false, '
    '"sign_changed": false, "spec": {"bit": 30, "element": 99999, '
    '"encoding": "f32", "pset": 1}}')

DIGESTS = {
    "cal/calibration.json":
        "b7418202b9f1e7bca3c96505d413f72ce29775f1147033b2b1a150767ac55275",
    "cal/manifest.json":
        "36f50ea25087c1dd3568e830f48e18c2d7daf7f8bae29c0e6aff58966b086c88",
    "cal/parameter_stats.json":
        "a91a805c4575a2c3de4e729373a539dac6f531cc25d2e1ac3d2917863f9965c2",
    "cal/positive_ratio.csv":
        "7924c56cbf64450c77220ace0c8fda597afd1d3cfd92cf8c2c2f11cbb34688c6",
    "cal/positive_ratio.json":
        "64b6d110678e4f01d6e2e68308c04620a3d5accb71d52844a5fd8f90cb5ee982",
    "cal/risky_exponents.csv":
        "49e3a61fb0b21c47790da1a0ff35a9aa2e9583b26ded74bcaca5983f7b081766",
    "cal/risky_exponents.json":
        "a4a10375146aa6137f0b62e211b1622f4f371b9087f4c47190b48aca4876524e",
    "fold.sfm":
        "1f1c2b241182f70a7bcf9114e6e8b4b7c16e6e4373cc073aa5a6d2c5b31302aa",
    "fold.sfm.manifest.json":
        "637d92677c00b7852f87707b7032638f788b1c4add7e1919391ab2e2cde997d1",
    "g.sfm":
        "5ed136967d947d7be89504db3283f3ef635741a8abacc43b409a05b30825eb26",
    "g.sfm.manifest.json":
        "c16861c93f5079286d7d1bf106bbc54c551890dedae9d742df65ab6b1ca3f7e1",
    "m.sfm":
        "e18463b80352cf0a87258048e58ad9b50836b500c70ec2080694583615f239e8",
    "m.sfm.manifest.json":
        "219b5af84a8b01ddec0af2a632c86495612a73e8f6db0fa1187ba15516a6e799",
    "multibit/manifest.json":
        "176391ae0951b64bdfd7b61ce5a9dcabba1a71ccfe924d8bd733541b00f7ea56",
    "multibit/multibit_aggregate.csv":
        "7b090f1ab3786f621cdf15d0bbce14ead240cc8c2f6bf9e2d1e39cf5e845b00f",
    "multibit/multibit_plan.json":
        "6f71354480e6226422768ad3de91df99da04ec0be965360d825842881d1bc210",
    "multibit/multibit_reps.json":
        "075cec7caaafda819503666bbd0a11d37e587d703c3ed1a91aa668d9314a9cc3",
    "p.sfm":
        "077ef3eeec193aaf531b99791cdd31824a4e63fa15eee2963f463f1ed584dc64",
    "p.sfm.manifest.json":
        "8a1926b720df3a84a83d6d36fca2a29b350a1f185fd1c5edc73e79e5b91994ed",
    "prot.jsonl":
        "c7928c54e7b795a8eb4a99a7e895fb411c023b4cb11f90c92941413a95e1391b",
    "prot_summary.csv":
        "5d4919db85111129cc2a239e0b9f7c577acab4c18497c56599a1bda675fbda66",
    "protect/manifest.json":
        "05a925e7d2589d6d0da5c98e05dee48867e81e3fd4cc8aff1280d9a985382ce8",
    "protect/protection_eval.json":
        "3c9870214a8283e6ef0de3036f7bcd6011a3660915e1cb9a371dbfdcf1d35928",
    "prune.sfm":
        "2f52e18270a86b0f5df8e0f3b0201ba80fccd079b9717f8a1e72c73ad4487d2c",
    "prune.sfm.manifest.json":
        "1d47e629cd75fe0ce9fdf5d03cf5cce0c5ad2b59fafb5438ea55f1fe479abf7f",
    "q.sfm":
        "cd934d632b0de76faac4d785434540b3982bd3dab1aab0ef40254d686b354ce2",
    "q.sfm.manifest.json":
        "53307e791125d2e0f5546420db2a11831c630e3306bf3d13de66078a249f2d97",
    "qcal/bits_needed.csv":
        "4b1670d1153f93d249785c74534316caaf7d0533ff82ef513ae821a8f04b2bc2",
    "qcal/bits_needed.json":
        "a93afbb74664b6a0c90f9abf671d8c71e9779bf5b15e40915c9d19f62d46a8ec",
    "qcal/manifest.json":
        "3900c61c743f31771dd318f73fbd66f4005bd807f4627774c01b938b1d396780",
    "qcal/parameter_stats.json":
        "2f4ee2920bc1783c2cd9b81d851216025d1c8ce394432882af786fdad2f37145",
    "qcal/positive_ratio.csv":
        "21fe003ddc5fc3caa277ebed0f14af9734430ac758201ef070040ca91500c6cc",
    "qcal/positive_ratio.json":
        "bff72174d76ec029d5f078697cd7a6796fa3c2788c3f43c56fed266434419dea",
    "qsweep/manifest.json":
        "38777ff199bdb947034ebe68c6d290f1d67ff162b650b863da4e3c61296545a6",
    "qsweep/sweep_aggregate.csv":
        "617de414f6d74d3d506b6a56c2ec775de3c62bf03f151e83e19416b117599cd0",
    "qsweep/sweep_outcomes.jsonl":
        "c1409010147de504fda53676020a420c9d9c30e69c5f4c0987ae963a95714f94",
    "qsweep/sweep_plan.json":
        "559ac2d2844410d6b9fa712e10aa4c6a20614f2310592de0e84204dce64f3820",
    "report/manifest.json":
        "e7249184a5c81f5bf81619524d9de205ff2f71cc9241460d01d6781ccd91e4aa",
    "report/report_aggregate.csv":
        "d95cc82ee2c4101ba2c44c345dae0f8be9bd0e34396a9be3324d29145c2cc208",
    "report/report_long.json":
        "42915e8bc2d85dcfd4ccf92e8e2403c4afcd3cd56b4636a789bbac77626296d2",
    "sparse.sfm":
        "2cd90381759c70d22c663ee379911890c12011be3a61086c8a9211dda5c262eb",
    "sparse.sfm.manifest.json":
        "d35f7bc5dbf58b6af44607a65c0fefbc3d085948deb5af734cb16d71a5d7c9ae",
    "sweep/manifest.json":
        "a552b6dc6281566b5e9bf0b01fd764da9d7dc26f97f433593af61e41eb4ad107",
    "sweep/sweep_aggregate.csv":
        "d2fee8ff51f347992c1a327d3f9cc8a5a09eb62516f0ef2e305d7df4f74ca095",
    "sweep/sweep_outcomes.jsonl":
        "ddbe9b4fbb9846b1f2ce3d388261b83bcfc92ca6d045d52b2e2e506dcf928d36",
    "sweep/sweep_plan.json":
        "4acfa2d2b9ea17ac0578ef7c9fcb40ad7a577a16e45e560b52c6b723b24680e8",
}


def _cli(*argv):
    assert main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    d = tmp_path_factory.mktemp("reports")
    m, q, p = d / "m.sfm", d / "q.sfm", d / "p.sfm"
    images = ("--images", 3, "--image-size", 16)
    _cli("model", "build", "--out", m, "--levels", 2, "--base-filters", 2,
         "--classes", 3, "--channels", 3, "--seed", 5, "--kernel-scale", 2.0)
    _cli("model", "generate", "--model", m, "--out", d / "g.sfm", "--seed", 9,
         "--span-bias-fractions")
    _cli("compress", "fold", "--model", m, "--out", d / "fold.sfm")
    _cli("compress", "quantize", "--model", m, "--out", q, *images)
    _cli("compress", "prune", "--model", m, "--out", d / "prune.sfm",
         "--keep-fraction", 0.5)
    _cli("compress", "sparse-zero", "--model", m, "--out", d / "sparse.sfm",
         "--abs-range", 0.5, 1.0)
    _cli("calibrate", "--model", m, "--out-dir", d / "cal", *images)
    _cli("calibrate", "--model", q, "--out-dir", d / "qcal", *images)
    _cli("protect", "apply", "--model", m, "--out", p, "--pt", 2,
         "--report", d / "prot.jsonl")
    _cli("campaign", "sweep", "--model", m, "--out-dir", d / "sweep",
         "--psets", "1,2,9", "--bits", 28, 31, "--n", 6, "--seed", 3,
         "--workers", 1, *images)
    _cli("campaign", "sweep", "--model", q, "--out-dir", d / "qsweep",
         "--psets", "1,2", "--bits", 0, 7, "--n", 4, "--seed", 3,
         "--workers", 1, *images)
    _cli("campaign", "multibit", "--model", q, "--out-dir", d / "multibit",
         "--counts", "1,10", "--repetitions", 4, "--seed", 3, "--workers", 1, *images)
    _cli("protect", "evaluate", "--original", m, "--protected", p,
         "--out-dir", d / "protect", "--workers", 1, *images)
    first = (d / "sweep" / "sweep_outcomes.jsonl").read_text().splitlines()[0]
    (d / "handmade.jsonl").write_text(f"{first}\n\n{FAILED_RECORD}\n")
    # both sweep logs are named sweep_outcomes.jsonl: one variant
    _cli("report", "--inputs", d / "sweep" / "sweep_outcomes.jsonl",
         d / "qsweep" / "sweep_outcomes.jsonl", d / "handmade.jsonl",
         "--out-dir", d / "report")

    digests = {}
    for path in sorted(d.rglob("*")):
        if path.is_file() and path.name != "handmade.jsonl":
            data = path.read_bytes()
            if path.name.endswith("manifest.json"):
                data = data.replace(str(d).encode(), TOKEN)
            digests[path.relative_to(d).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def test_every_written_file_is_pinned(written):
    assert sorted(written) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_written_bytes(written, name):
    assert written[name] == DIGESTS[name]
