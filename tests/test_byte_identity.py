"""Every CLI output and demo stdout is byte-identical to the committed manifest."""

import json

from byte_identity import MANIFEST, digests, versions


def test_cli_and_demo_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    moved = sorted(name for name in manifest["runs"].keys() | got.keys() if manifest["runs"].get(name) != got.get(name))
    assert not moved, (
        f"outputs of {moved} differ from {MANIFEST.name}, which was made with {manifest['versions']}; "
        f"this run has {versions()}. If the change is meant, rewrite it: PYTHONPATH=src python tests/byte_identity.py"
    )
