"""Each config of the report-byte manifest (``report_bytes.py``) writes the
bytes the manifest holds: every report file and stdout where the kernels
are the ones it was written under, else the accuracy matrix and the memory
ranks, which other kernels leave alone."""

import json

from report_bytes import CONFIGS, MANIFEST, fingerprint, run


def test_the_manifest_configs_write_the_manifest_bytes(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    exact = fingerprint() == manifest["fingerprint"]
    print(
        "report bytes: every hash checked, the kernels match the manifest's"
        if exact
        else "report bytes: other kernels, so only accuracy_matrix.csv and the ranks"
    )
    assert set(manifest["configs"]) == set(CONFIGS)
    for name, want in manifest["configs"].items():
        got = run(name, want["argv"], tmp_path)
        assert got["ranks"] == want["ranks"], name
        if exact:
            assert got["sha256"] == want["sha256"], name
        else:
            key = "accuracy_matrix.csv"
            assert got["sha256"][key] == want["sha256"][key], name
